"""Experiment runner: extend | flow | kernel | cover | goodset.

Configuration is a flat key=value file plus the overrides --out, --seed
and --quad-order; unknown keys are rejected.  All Monte Carlo is driven
by the seed, so outputs are byte-identical across runs.  Exit codes:
0 success, 1 configuration error, 2 internal contract violation (the
violated check is named on stderr).
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import covering as cov
from . import heatflow as hf
from .boundary import CATALOG, make_boundary_map
from .extension import GoodExtension
from .geometry import PolarFrame, Point
from .heatkernel import AnnulusSpec, RadialKernel, annulus_tail_mass, l_of_eps
from .tension import energy_density, map_distortion, tension_norm

__all__ = ["main"]


class ConfigError(Exception):
    pass


class ContractViolation(Exception):
    pass


_COMMON_KEYS = {"map", "K", "c", "matrix", "seed", "quad_order"}
_KEYS = {
    "extend": _COMMON_KEYS | {"box_x", "s_lo", "s_hi", "nx", "ns"},
    "flow": _COMMON_KEYS | {"box_x", "s_lo", "s_hi", "resolution", "t_end", "dt",
                            "record_every"},
    "kernel": _COMMON_KEYS | {"t", "r_span", "n_rho"},
    "cover": _COMMON_KEYS | {"t", "eps", "r0", "max_cylinders", "enumeration_cap",
                             "audit_branches", "n_slab", "svg"},
    "goodset": _COMMON_KEYS | {"eps", "n_x", "heights", "box_x"},
}


def _parse_config(path, allowed):
    cfg = {}
    if path is None:
        return cfg
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = val
    return cfg


def _floats(text):
    return [float(v) for v in text.split(",")]


def _get(cfg, key, default, kind=float):
    """cfg[key] read as kind, or default when absent; bad values name the key."""
    if key not in cfg:
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}={cfg[key]!r} is not a valid value") from None


def _boundary_from_config(cfg):
    name = cfg.get("map", "identity")
    if name not in CATALOG:
        raise ConfigError(f"map={name!r} is not one of {', '.join(CATALOG)}")
    if name == "linear":
        flat = _get(cfg, "matrix", [2.0, 0.0, 0.0, 1.0], _floats)
        m = int(math.isqrt(len(flat)))
        return make_boundary_map("linear", matrix=np.array(flat).reshape(m, m))
    params = {key: _get(cfg, key, None) for key in ("K", "c") if key in cfg}
    return make_boundary_map(name, **params)


def _writer(path):
    fh = open(path, "w", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def cmd_extend(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    box_x = _get(cfg, "box_x", 1.0)
    s_lo = _get(cfg, "s_lo", 0.25)
    s_hi = _get(cfg, "s_hi", 2.0)
    nx = _get(cfg, "nx", 7, int)
    ns = _get(cfg, "ns", 5, int)
    xs = np.linspace(-box_x, box_x, nx)
    ss = np.geomspace(s_lo, s_hi, ns)
    grid = np.stack(np.meshgrid(xs, xs, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = ext(grid)
    en = energy_density(ext, grid)
    dist = map_distortion(ext, grid)
    tau = tension_norm(ext, grid)

    if np.any(vals[:, -1] <= 0.0):
        raise ContractViolation("extend: extension produced non-positive heights")
    if not np.all(np.isfinite(tau)):
        raise ContractViolation("extend: non-finite tension values")
    if f.name in ("identity", "linear") and float(np.max(tau)) > 1e-3:
        raise ContractViolation("extend: linear map tension exceeded 1e-3")

    fh, w = _writer(Path(out) / "extend.csv")
    with fh:
        w.writerow(["x1", "x2", "s", "F1", "F2", "F3", "energy", "distortion",
                    "tension"])
        for p, v, e, d, t in zip(grid, vals, en, dist, tau):
            w.writerow([_fmt(u) for u in (*p, *v, e, d, t)])
    return 0


def cmd_flow(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    box = (_get(cfg, "box_x", 2.0), _get(cfg, "s_lo", 0.25), _get(cfg, "s_hi", 4.0))
    res = _get(cfg, "resolution", 17, int)
    if res < 2 * hf.STATS_MARGIN + 1:
        raise ConfigError(f"resolution={res} is below the tension stencil's "
                          f"minimum {2 * hf.STATS_MARGIN + 1}")
    t_end = _get(cfg, "t_end", 0.1)
    dt = _get(cfg, "dt", None)
    rec = _get(cfg, "record_every", None, int)
    grid, _ = hf.init_flow(f, box, res, order=order)
    trace, _, _ = hf.run_flow(grid, t_end=t_end, dt=dt, record_every=rec)
    if trace.aborted:
        raise ContractViolation(f"flow: aborted ({trace.abort_reason})")
    trace.write_csv(Path(out) / "flow.csv")
    return 0


def cmd_kernel(cfg, out, seed, order):
    t = _get(cfg, "t", 16.0)
    r_span = _get(cfg, "r_span", 6.0)
    n_rho = _get(cfg, "n_rho", 201, int)
    kern = RadialKernel(3)

    mass = kern.total_mass(t)
    if abs(mass - 1.0) > 1e-6:
        raise ContractViolation(f"kernel: mass {mass} deviates from 1 beyond 1e-6")

    center = 2.0 * t
    st = math.sqrt(t)
    rho = np.linspace(max(center - r_span * st, 1e-6), center + r_span * st, n_rho)
    dens = kern.radial_mass_density(rho, t) / (4.0 * math.pi)

    fh, w = _writer(Path(out) / "kernel_profile.csv")
    with fh:
        w.writerow(["rho", "H_sinh2"])
        for r, d in zip(rho, dens):
            w.writerow([_fmt(r), _fmt(d)])

    fh, w = _writer(Path(out) / "kernel_tails.csv")
    with fh:
        w.writerow(["t", "eps", "l", "tail_mass"])
        for eps in (0.1, 0.01):
            l = l_of_eps(eps)
            tail = annulus_tail_mass(t, l)
            if tail >= eps:
                raise ContractViolation(
                    f"kernel: tail mass {tail} at eps={eps} exceeds eps"
                )
            w.writerow([_fmt(t), _fmt(eps), _fmt(l), _fmt(tail)])
    return 0


def cmd_cover(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    t = _get(cfg, "t", 16.0)
    eps = _get(cfg, "eps", 0.1)
    if AnnulusSpec(t, l_of_eps(eps)).r_in <= 0:
        raise ConfigError(f"t={t}: the main annulus at eps={eps} reaches the center; "
                          "increase t")
    frame = PolarFrame(Point([0.0, 0.0], 1.0))
    rep = cov.cover_annulus(
        frame, t, eps, lambda p: ext.tension_norm(p) ** 2,
        r0=_get(cfg, "r0", 8.0),
        max_cylinders=_get(cfg, "max_cylinders", 2, int),
        enumeration_cap=_get(cfg, "enumeration_cap", 6, int),
        audit_branches=_get(cfg, "audit_branches", 2, int),
        n_slab=_get(cfg, "n_slab", 128, int),
        seed=seed,
    )
    for c in rep.cylinders:
        if not c.disjoint:
            raise ContractViolation(f"cover: cylinder {c.index} stack not disjoint")
        if not c.contained:
            raise ContractViolation(f"cover: cylinder {c.index} escapes the annulus")
        if c.leftover_estimate > c.leftover_bound + 1e-12:
            raise ContractViolation(
                f"cover: cylinder {c.index} leftover exceeds r0 |D_i|"
            )
    fh, w = _writer(Path(out) / "cover.csv")
    with fh:
        for row in rep.csv_rows():
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    if cfg.get("svg", "0") not in ("0", "", "false"):
        (Path(out) / "cover.svg").write_text(cov.sector_svg(rep, 0))
    return 0


def cmd_goodset(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    eps = _get(cfg, "eps", 0.1)
    n_x = _get(cfg, "n_x", 200, int)
    box_x = _get(cfg, "box_x", 1.0)
    heights = _get(cfg, "heights", [1e-1, 1e-2, 1e-3], _floats)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_x, 2))
    r = box_x * np.sqrt(u[:, 0])
    th = 2.0 * math.pi * u[:, 1]
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])

    fh, w = _writer(Path(out) / "goodset.csv")
    with fh:
        w.writerow(["s", "fraction", "frac_energy", "frac_distortion",
                    "frac_tension"])
        for s in heights:
            pts = np.column_stack([X, np.full(n_x, s)])
            e = energy_density(ext, pts)
            d = map_distortion(ext, pts)
            tau = tension_norm(ext, pts)
            ok_e = e > 1.0
            ok_k = d < 2.0 * f.declared_K
            ok_t = tau < eps
            frac = float(np.mean(ok_e & ok_k & ok_t))
            if not np.isfinite(frac) or not 0.0 <= frac <= 1.0:
                raise ContractViolation("goodset: fraction out of range")
            w.writerow([_fmt(v) for v in
                        (s, frac, ok_e.mean(), ok_k.mean(), ok_t.mean())])
    return 0


_COMMANDS = {
    "extend": cmd_extend,
    "flow": cmd_flow,
    "kernel": cmd_kernel,
    "cover": cmd_cover,
    "goodset": cmd_goodset,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="qcflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quad-order", type=int, default=21)
    args = parser.parse_args(argv)

    try:
        cfg = _parse_config(args.config, _KEYS[args.command])
        seed = _get(cfg, "seed", args.seed, int)
        order = _get(cfg, "quad_order", args.quad_order, int)
        if order < 1:
            raise ConfigError(f"quad_order={order} must be at least 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, seed, order)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
