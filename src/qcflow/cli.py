"""Experiment runner: extend | flow | kernel | cover | goodset.

Configuration is a flat key=value file checked against SCHEMA, which
gives every key of every command its parser, default and allowed range;
unknown keys and out-of-range values are rejected.  The flags --out,
--seed and --quad-order set the rest.  All Monte Carlo is driven by the
seed, so outputs are byte-identical across runs.  Exit codes:
0 success, 1 configuration error, 2 internal contract violation (the
violated check is named on stderr).
"""

import argparse
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import covering as cov
from . import heatflow as hf
from .boundary import CATALOG, make_boundary_map
from .extension import DEFAULT_ORDER, MAX_QUAD_ORDER, GoodExtension
from .geometry import PolarFrame
from .heatkernel import C3_TAIL, RadialKernel, annulus_tail_mass, l_of_eps
from .tension import energy_density, good_set_membership, map_distortion, tension_norm

__all__ = ["main"]


class ConfigError(Exception):
    pass


class ContractViolation(Exception):
    pass


class Key(NamedTuple):
    """One config key: parser, default and allowed range."""

    parse: object     # config text -> value; ValueError when malformed
    default: object   # config text, or None when the key has no value
    allowed: str      # the range, as stated in errors and the README
    ok: object = None  # value -> bool; None accepts every parsed value


def _real(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(text)
    return v


def _reals(text):
    return [_real(v) for v in text.split(",")]


def _matrix(text):
    return np.array(_reals(text)).reshape(2, 2)


def _bool(text):
    if text.lower() not in ("0", "1", "false", "true"):
        raise ValueError(text)
    return text.lower() in ("1", "true")


def _above(default, lo):
    return Key(_real, default, f"number > {lo}", lambda v: v > lo)


def _at_least(default, lo):
    return Key(_real, default, f"number >= {lo}", lambda v: v >= lo)


def _count(default, lo=1):
    return Key(int, default, f"integer >= {lo}", lambda v: v >= lo)


KERNEL_SPAN = 6.0  # kernel_profile.csv samples rho in 2t -/+ KERNEL_SPAN sqrt(t)

# Every config key of every command: its parser, default and allowed range.
_COMMON = {
    "map": Key(str, "identity", ", ".join(CATALOG), lambda v: v in CATALOG),
    "matrix": Key(_matrix, "2,0,0,1", "nonsingular 2x2, row-major",
                  lambda A: np.linalg.matrix_rank(A) == 2),
    "K": _at_least("1.5", 1),
    "c": Key(_real, "0.5", "number"),
}
SCHEMA = {
    "extend": {
        **_COMMON,
        "box_x": _above("1.0", 0),
        "s_lo": _above("0.25", 0),
        "s_hi": _above("2.0", 0),
        "nx": _count("7"),
        "ns": _count("5"),
    },
    "flow": {
        **_COMMON,
        "box_x": _above("2.0", 0),
        "s_lo": _above("0.25", 0),
        "s_hi": _above("4.0", 0),
        "resolution": _count("17", 2 * hf.STATS_MARGIN + 1),
        "t_end": _above("0.1", 0),
        "dt": _above(None, 0),
        "record_every": _count(None),
    },
    "kernel": {
        "t": _at_least("16.0", 1),
        "n_rho": _count("201"),
    },
    "cover": {
        **_COMMON,
        "t": _above("16.0", 0),
        "eps": Key(_real, "0.1", f"number in (0, {C3_TAIL})", lambda v: 0 < v < C3_TAIL),
        "r0": _at_least("8.0", 1),
        "max_cylinders": _count("2"),
        "enumeration_cap": _count("6", 0),
        "audit_branches": _count("2", 0),
        "n_slab": _count("128"),
        "svg": Key(_bool, "0", "0, 1, false, true"),
    },
    "goodset": {
        **_COMMON,
        "eps": _above("0.1", 0),
        "n_x": _count("200"),
        "box_x": _above("1.0", 0),
        "heights": Key(_reals, "1e-1,1e-2,1e-3", "numbers > 0, comma-separated",
                       lambda v: min(v) > 0),
    },
}


def _value(name, key, text):
    try:
        v = key.parse(text)
        if key.ok is None or key.ok(v):
            return v
    except ValueError:
        pass
    raise ConfigError(f"{name}={text!r}: expected {key.allowed}")


def _parse_config(path, schema):
    """Every key of schema, parsed and range-checked, with defaults filled in."""
    raw = {}
    if path is not None:
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config file ({exc.strerror})")
        for lineno, text in enumerate(lines, 1):
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            name, val = (s.strip() for s in line.split("=", 1))
            if name not in schema:
                raise ConfigError(f"{path}:{lineno}: unknown key {name!r}")
            raw[name] = val
    cfg = {}
    for name, key in schema.items():
        text = raw.get(name, key.default)
        cfg[name] = None if text is None else _value(name, key, text)
    return cfg


def _boundary_from_config(cfg):
    if cfg["map"] == "linear":
        return make_boundary_map("linear", matrix=cfg["matrix"])
    return make_boundary_map(cfg["map"], K=cfg["K"], c=cfg["c"])


def _write_csv(path, header, rows):
    """Write the header line, then every row with one %.12g per cell.

    Floats print with 12 significant digits, NaN and +-inf as nan, inf and
    -inf, and an int below 10^12 as its digits.  The only ints written are
    cylinder indices, sector counts and all_good.
    """
    line = ",".join(["%.12g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(r) for r in rows)


def cmd_extend(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    xs = np.linspace(-cfg["box_x"], cfg["box_x"], cfg["nx"])
    ss = np.geomspace(cfg["s_lo"], cfg["s_hi"], cfg["ns"])
    grid = np.stack(np.meshgrid(xs, xs, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = ext(grid)
    # before any jet: over a singular point the height can underflow to 0
    if np.any(vals[:, -1] <= 0.0):
        raise ContractViolation("extend: extension produced non-positive heights")
    en = energy_density(ext, grid)
    dist = map_distortion(ext, grid)
    tau = tension_norm(ext, grid)

    if not np.all(np.isfinite(tau)):
        raise ContractViolation("extend: non-finite tension values")
    if f.name in ("identity", "linear") and float(np.max(tau)) > 1e-3:
        raise ContractViolation("extend: linear map tension exceeded 1e-3")

    _write_csv(out / "extend.csv",
               ["x1", "x2", "s", "F1", "F2", "F3", "energy", "distortion", "tension"],
               np.column_stack([grid, vals, en, dist, tau]).tolist())
    return 0


def cmd_flow(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    if cfg["s_lo"] >= cfg["s_hi"]:
        raise ConfigError(f"s_lo={cfg['s_lo']}, s_hi={cfg['s_hi']}: the flow box needs "
                          "s_lo < s_hi")
    box = (cfg["box_x"], cfg["s_lo"], cfg["s_hi"])
    try:  # a plan too long to step, refused before the grid is built
        hf.check_flow_plan(box, cfg["resolution"], cfg["t_end"], cfg["dt"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:  # over a singular point the extension's heights can underflow to 0
        grid = hf.init_flow(f, box, cfg["resolution"], order=order)
    except ValueError as exc:
        raise ContractViolation(f"flow: {exc}") from None
    try:  # and after, when the spectral radius shortens the default step
        trace, _, _ = hf.run_flow(grid, t_end=cfg["t_end"], dt=cfg["dt"],
                                  record_every=cfg["record_every"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if trace.aborted:
        raise ContractViolation(f"flow: aborted ({trace.abort_reason})")
    _write_csv(out / "flow.csv", ["t", "sup_tension", "sup_drift", "mean_energy"],
               zip(trace.times, trace.sup_tension, trace.sup_drift, trace.mean_energy))
    return 0


def cmd_kernel(cfg, out, seed, order):
    t = cfg["t"]
    kern = RadialKernel()

    mass = kern.total_mass(t)
    if abs(mass - 1.0) > 1e-6:
        raise ContractViolation(f"kernel: mass {mass} deviates from 1 beyond 1e-6")

    center = 2.0 * t
    half = KERNEL_SPAN * math.sqrt(t)
    rho = np.linspace(max(center - half, 1e-6), center + half, cfg["n_rho"])
    dens = kern.radial_mass_density(rho, t) / (4.0 * math.pi)

    tails = []
    for eps in (0.1, 0.01):
        l = l_of_eps(eps)
        tail = annulus_tail_mass(t, l)
        if tail >= eps:
            raise ContractViolation(f"kernel: tail mass {tail} at eps={eps} exceeds eps")
        tails.append((t, eps, l, tail))
    _write_csv(out / "kernel_profile.csv", ["rho", "H_sinh2"], zip(rho, dens))
    _write_csv(out / "kernel_tails.csv", ["t", "eps", "l", "tail_mass"], tails)
    return 0


def cmd_cover(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    t, eps = cfg["t"], cfg["eps"]
    try:
        cov.main_annulus(t, eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def tension_sq(p):  # an overflowed extension gives no measurement
        tau = ext.tension_norm(p)
        if not np.isfinite(tau).all():
            raise ContractViolation("cover: non-finite tension in the stacking field")
        return tau**2

    frame = PolarFrame([0.0, 0.0, 1.0])
    rep = cov.cover_annulus(
        frame, t, eps, tension_sq,
        r0=cfg["r0"], max_cylinders=cfg["max_cylinders"],
        enumeration_cap=cfg["enumeration_cap"], audit_branches=cfg["audit_branches"],
        n_slab=cfg["n_slab"],
        seed=seed,
    )
    measured = rep.cover_report  # empty when the cylinders are sampled
    if measured and (measured["covered_fraction"] < 1.0
                     or measured["max_multiplicity"] > cov.BETA_IMPL):
        raise ContractViolation(
            f"cover: sphere cover at R={measured['R']:.6g} has coverage "
            f"{measured['covered_fraction']} and multiplicity "
            f"{measured['max_multiplicity']} (need 1 and <= {cov.BETA_IMPL})"
        )
    for c in rep.cylinders:
        if not c.disjoint:
            raise ContractViolation(f"cover: cylinder {c.index} stack not disjoint")
        if not c.contained:
            raise ContractViolation(f"cover: cylinder {c.index} escapes the annulus")
        if c.alpha > cov.ALPHA_STAR:
            raise ContractViolation(f"cover: cylinder {c.index} sectors not admissible "
                                    f"(alpha {c.alpha:.6g} > {cov.ALPHA_STAR:.6g})")
        if c.leftover_estimate > c.leftover_bound + 1e-12:
            raise ContractViolation(
                f"cover: cylinder {c.index} leftover exceeds r0 |D_i|"
            )
    header, *rows = rep.csv_rows()
    _write_csv(out / "cover.csv", header, rows)
    if cfg["svg"]:
        (out / "cover.svg").write_text(cov.sector_svg(rep))
    return 0


def cmd_goodset(cfg, out, seed, order):
    f = _boundary_from_config(cfg)
    ext = GoodExtension(f, order=order)
    n_x = cfg["n_x"]
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_x, 2))
    r = cfg["box_x"] * np.sqrt(u[:, 0])
    th = 2.0 * math.pi * u[:, 1]
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])

    rows = []
    for s in cfg["heights"]:
        pts = np.column_stack([X, np.full(n_x, s)])
        try:  # an overflowed extension would fail every test, which measures nothing
            ok_e, ok_k, ok_t, ok = good_set_membership(ext, cfg["eps"], pts)
        except FloatingPointError as exc:
            raise ContractViolation(f"goodset: {exc} at s={s:.6g}") from None
        frac = float(np.mean(ok))
        if not np.isfinite(frac) or not 0.0 <= frac <= 1.0:
            raise ContractViolation("goodset: fraction out of range")
        rows.append((s, frac, ok_e.mean(), ok_k.mean(), ok_t.mean()))
    _write_csv(out / "goodset.csv",
               ["s", "fraction", "frac_energy", "frac_distortion", "frac_tension"], rows)
    return 0


_COMMANDS = {
    "extend": cmd_extend,
    "flow": cmd_flow,
    "kernel": cmd_kernel,
    "cover": cmd_cover,
    "goodset": cmd_goodset,
}


_PARSER = argparse.ArgumentParser(prog="qcflow", description=__doc__)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", default=None)
_PARSER.add_argument("--out", default=".")
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--quad-order", type=int, default=DEFAULT_ORDER)


def main(argv=None):
    args = _PARSER.parse_args(argv)

    try:
        cfg = _parse_config(args.config, SCHEMA[args.command])
        if not 1 <= args.quad_order <= MAX_QUAD_ORDER:
            raise ConfigError(f"quad_order={args.quad_order}: expected integer in "
                              f"[1, {MAX_QUAD_ORDER}]")
        if args.seed < 0:
            raise ConfigError(f"seed={args.seed}: expected integer >= 0")
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out}: cannot create the output directory ({exc.strerror})")
        return _COMMANDS[args.command](cfg, out, args.seed, args.quad_order)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # an overflowed extension gives no measurement
        print(f"contract violation: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
