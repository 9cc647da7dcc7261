import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from qcflow import covering as cov
from qcflow import cli
from qcflow import heatflow as hf
from qcflow.cli import SCHEMA, main
from qcflow.tension import energy_density, map_distortion, tension_norm

README = Path(__file__).resolve().parents[1] / "README.md"


def write_cfg(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(tmp_path, cmd, cfg_text, out_name="out", seed=7):
    cfg = write_cfg(tmp_path, cfg_text, f"cfg_{out_name}.txt")
    out = tmp_path / out_name
    rc = main([cmd, "--config", cfg, "--out", str(out), "--seed", str(seed)])
    return rc, out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_extend_identity_reproduces_inputs(tmp_path):
    rc, out = run(tmp_path, "extend", "map=identity\nnx=3\nns=3\n")
    assert rc == 0
    rows = read_csv(out / "extend.csv")
    header, data = rows[0], rows[1:]
    for row in data:
        vals = [float(v) for v in row]
        assert vals[0] == pytest.approx(vals[3], abs=1e-9)
        assert vals[1] == pytest.approx(vals[4], abs=1e-9)
        assert vals[2] == pytest.approx(vals[5], abs=1e-9)


def _fmt(v):
    """The per-cell rule of the reference writer: ints as digits, floats %.12g."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def test_write_csv_equals_csv_writer_with_the_per_cell_rule(tmp_path):
    header = ["a", "b", "c", "d", "e"]
    rows = [
        (0, 7, np.int64(12), np.int32(-3), 999_999_999_999),
        (True, False, np.int64(0), 1, 2),
        (0.0, -0.0, 1.5, -2.25e-7, 1 / 3),
        (math.nan, math.inf, -math.inf, 1e-300, 1e300),
        (np.float64(0.1), np.float64(-1e-5), np.float32(0.1), 123456789012.5, 5e-324),
    ]
    cli._write_csv(tmp_path / "got.csv", header, rows)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) for v in r])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_extend_csv_equals_the_per_cell_writer(tmp_path):
    # the reference writes each cell, a float, with %.12g through
    # csv.writer, from values computed here
    cfg_text = "map=shear\nc=0.7\nnx=4\nns=3\ns_lo=1e-3\n"
    rc, out = run(tmp_path, "extend", cfg_text)
    assert rc == 0
    cfg = cli._parse_config(write_cfg(tmp_path, cfg_text), SCHEMA["extend"])
    ext = cli.GoodExtension(cli._boundary_from_config(cfg))
    xs = np.linspace(-cfg["box_x"], cfg["box_x"], cfg["nx"])
    ss = np.geomspace(cfg["s_lo"], cfg["s_hi"], cfg["ns"])
    grid = np.stack(np.meshgrid(xs, xs, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    cols = (ext(grid), energy_density(ext, grid), map_distortion(ext, grid),
            tension_norm(ext, grid))
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x1", "x2", "s", "F1", "F2", "F3", "energy", "distortion", "tension"])
        for p, v, e, d, t in zip(grid, *cols):
            w.writerow([f"{float(u):.12g}" for u in (*p, *v, e, d, t)])
    assert (out / "extend.csv").read_bytes() == want.read_bytes()


def test_extend_linear_tension_column_small(tmp_path):
    rc, out = run(tmp_path, "extend", "map=linear\nmatrix=2,0,0,1\nnx=4\nns=3\n")
    assert rc == 0
    rows = read_csv(out / "extend.csv")
    tension = [float(r[-1]) for r in rows[1:]]
    assert max(tension) <= 1e-3


def test_unknown_key_exits_one(tmp_path, capsys):
    # seed and quad_order are the flags --seed and --quad-order, not keys,
    # kernel reads no boundary-map key and its profile span is a constant
    for cmd, text, key in (("extend", "bogus=1\n", "bogus"), ("extend", "seed=3\n", "seed"),
                           ("extend", "quad_order=21\n", "quad_order"),
                           ("kernel", "map=linear\nK=7\nc=3\n", "map"),
                           ("kernel", "r_span=6\n", "r_span")):
        cfg = write_cfg(tmp_path, text)
        rc = main([cmd, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1, text
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), text
        assert f"unknown key {key!r}" in lines[0], text


@pytest.mark.parametrize(
    "cmd,cfg_text,flags,key",
    [
        ("extend", "map=radial_stretch\nK=abc\n", [], "K"),
        ("extend", "map=bogus\n", [], "map"),
        ("extend", "map=identity\nnx=2\nns=2\n", ["--quad-order", "0"], "quad_order"),
        ("extend", "map=identity\nnx=2\nns=2\n", ["--quad-order", "371"], "quad_order"),
        ("flow", "map=identity\nresolution=2\n", [], "resolution"),
        ("cover", "map=identity\nt=1\n", [], "t"),
        ("cover", "map=identity\nt=300\n", [], "t"),
        ("cover", "map=identity\nt=1e6\n", [], "t"),
        ("extend", "map=linear\nmatrix=2,0,0\n", [], "matrix"),
        ("extend", "map=linear\nmatrix=1,0,0,0,1,0,0,0,1\n", [], "matrix"),
        ("extend", "map=linear\nmatrix=0,0,0,0\n", [], "matrix"),
        ("cover", "map=identity\neps=5\n", [], "eps"),
        ("cover", "map=identity\neps=0\n", [], "eps"),
        ("cover", "map=identity\nr0=0.5\n", [], "r0"),
        ("extend", "map=identity\nnx=0\n", [], "nx"),
        ("extend", "map=identity\ns_lo=0\n", [], "s_lo"),
        ("kernel", "t=0\n", [], "t"),
        ("flow", "map=identity\nbox_x=0\n", [], "box_x"),
        ("flow", "map=identity\ndt=0\n", [], "dt"),
        ("flow", "map=identity\nrecord_every=0\n", [], "record_every"),
        ("goodset", "map=identity\nheights=0\n", [], "heights"),
        ("flow", "map=identity\ns_lo=4\ns_hi=1\nresolution=7\n", [], "s_lo"),
        ("goodset", "map=identity\n", ["--seed", "-1"], "seed"),
        ("cover", "map=identity\n", ["--seed", "-3"], "seed"),
    ],
    ids=["K", "map", "quad_order", "quad_order_371", "resolution", "t", "cover_t300", "cover_t1e6",
         "matrix_len3", "matrix_3x3", "matrix_singular", "cover_eps5", "cover_eps0", "cover_r0", "extend_nx",
         "extend_s_lo", "kernel_t", "flow_box_x", "flow_dt", "flow_record_every",
         "goodset_heights", "flow_s_lo_s_hi", "goodset_seed", "cover_seed"],
)
def test_bad_value_is_one_line_config_error(tmp_path, capsys, cmd, cfg_text, flags, key):
    cfg = write_cfg(tmp_path, cfg_text)
    rc = main([cmd, "--config", cfg, "--out", str(tmp_path / "o"), *flags])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error:")
    assert f"{key}=" in lines[0]


def test_missing_config_file_is_one_line_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    rc = main(["extend", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error:")
    assert str(missing) in lines[0]


@pytest.mark.parametrize("below_file", [False, True], ids=["is_file", "under_file"])
def test_uncreatable_out_is_one_line_config_error(tmp_path, capsys, below_file):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if below_file else blocker
    rc = main(["kernel", "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {out}: cannot create the output directory (")


def test_malformed_line_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "just a line without equals\n")
    rc = main(["extend", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1


def test_flow_contract_violation_exits_two(tmp_path):
    # a wildly unstable step trips the blow-up guard
    rc, _ = run(tmp_path, "flow",
                "map=radial_stretch\nK=1.5\nresolution=9\nt_end=0.5\ndt=0.05\n")
    assert rc == 2


@pytest.mark.parametrize("dt,rc_want", [("0.0038", 0), ("0.004", 2)])
def test_flow_dt_above_the_explicit_limit_is_contract_violation(tmp_path, capsys, dt, rc_want):
    # on this 9^3 box the power method gives rho = 514.2, so 2/rho = 0.00389
    # separates the two steps; the guard runs before the first step
    rc, out = run(tmp_path, "flow",
                  f"map=radial_stretch\nK=1.5\nresolution=9\nt_end=0.05\ndt={dt}\n")
    assert rc == rc_want
    lines = capsys.readouterr().err.splitlines()
    if rc_want:
        assert lines == ["contract violation: flow: aborted (energy blow-up: CFL violation)"]
    else:
        assert lines == [] and read_csv(out / "flow.csv")[-1][0] == "0.05"

@pytest.mark.parametrize("cfg_text", [
    "box_x=1e-200\n",           # the CFL step underflows to 0
    "box_x=1e-8\n",             # 1.1e15 super-steps of the CFL step
    "box_x=1e-200\ndt=0.01\n",  # a given dt is counted at the CFL step
    "t_end=1e6\n",              # an ordinary box, stepped for too long (the cap is 3.3e5)
], ids=["underflow", "tiny", "tiny_dt", "long"])
def test_flow_too_long_to_step_is_config_error(tmp_path, capsys, monkeypatch, cfg_text):
    # refused before the grid is built: its stencil factors would overflow
    # and the plan would not fit in memory.  pytest turns RuntimeWarnings
    # into errors, so this also checks that none is emitted
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.hf, "init_flow", refuse)
    rc, _ = run(tmp_path, "flow", "map=identity\nresolution=7\nt_end=0.01\n" + cfg_text)
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: box_x=")
    for key in ("resolution=", "t_end=", "dt"):
        assert key in lines[0]


@pytest.mark.parametrize("s_lo", ["1e-200", "1e-300"])
def test_extend_underflowed_height_is_contract_violation(tmp_path, capsys, s_lo):
    # over the stretch's singular point x = 0 the extension's height
    # underflows to 0; the run stops before any jet is taken (whose NaNs
    # once crashed the distortion SVD).  pytest turns RuntimeWarnings
    # into errors, so this also checks that none is emitted
    rc, _ = run(tmp_path, "extend", f"map=radial_stretch\ns_lo={s_lo}\n")
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["contract violation: extend: extension produced non-positive heights"]


def test_flow_underflowed_height_is_contract_violation(tmp_path, capsys):
    # the same underflow as extend's, met when the flow's grid is built
    rc, out = run(tmp_path, "flow",
                  "map=radial_stretch\ns_lo=1e-300\nresolution=7\nt_end=0.01\n")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["contract violation: flow: initial map has non-positive heights"]
    assert "Traceback" not in err
    assert not (out / "flow.csv").exists()


def test_kernel_outputs(tmp_path):
    rc, out = run(tmp_path, "kernel", "t=16\nn_rho=41\n")
    assert rc == 0
    prof = read_csv(out / "kernel_profile.csv")
    assert prof[0] == ["rho", "H_sinh2"]
    assert len(prof) == 42
    tails = read_csv(out / "kernel_tails.csv")
    assert [r[1] for r in tails[1:]] == ["0.1", "0.01"]
    for r in tails[1:]:
        assert float(r[3]) < float(r[1])


def test_flow_csv_round_trip(tmp_path, f_linear):
    # flow.csv holds one row per record, each cell the trace's value to 12 digits
    grid = hf.init_flow(f_linear, (2.0, 0.25, 4.0), 9)
    dt = hf.cfl_time_step(grid)
    trace, _, _ = hf.run_flow(grid, t_end=20 * dt, dt=dt, record_every=10)
    rc, out = run(tmp_path, "flow", f"map=linear\nresolution=9\ndt={dt!r}\n"
                  f"t_end={20 * dt!r}\nrecord_every=10\n")
    assert rc == 0
    rows = read_csv(out / "flow.csv")
    assert rows[0] == ["t", "sup_tension", "sup_drift", "mean_energy"]
    assert len(rows) == len(trace.times) + 1
    records = zip(trace.times, trace.sup_tension, trace.sup_drift, trace.mean_energy)
    for row, record in zip(rows[1:], records):
        assert [float(v) for v in row] == [float(f"{v:.12g}") for v in record]


def test_goodset_outputs(tmp_path):
    rc, out = run(tmp_path, "goodset",
                  "map=radial_stretch\nK=1.5\nn_x=40\nheights=1e-2,1e-3\n")
    assert rc == 0
    rows = read_csv(out / "goodset.csv")
    fracs = [float(r[1]) for r in rows[1:]]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert fracs[-1] >= fracs[0]


def test_cover_outputs_and_svg(tmp_path):
    rc, out = run(
        tmp_path, "cover",
        "map=linear\nmatrix=2,0,0,1\nt=16\neps=0.1\nmax_cylinders=1\n"
        "enumeration_cap=2\naudit_branches=1\nn_slab=32\nsvg=1\n",
    )
    assert rc == 0
    rows = read_csv(out / "cover.csv")
    assert rows[0][0] == "cylinder"
    assert rows[1][-1] == "1"  # all good
    assert (out / "cover.svg").read_text().startswith("<svg")

    for svg, rc_want in (("false", 0), ("False", 0), ("maybe", 1)):
        rc, out = run(
            tmp_path, "cover",
            "map=linear\nmatrix=2,0,0,1\nt=16\nmax_cylinders=1\nenumeration_cap=2\n"
            f"audit_branches=1\nn_slab=32\nsvg={svg}\n", out_name=f"svg_{svg}",
        )
        assert rc == rc_want, svg
        assert not (out / "cover.svg").exists(), svg


def test_cover_deep_stack(tmp_path):
    # at t = 159 the cells reach ~70 nats below the base cap, far past where
    # corner differences resolve a side; R_out ~ 352 is just inside R_OUT_MAX
    rc, out = run(tmp_path, "cover",
                  "t=159\nmax_cylinders=2\nenumeration_cap=3\naudit_branches=1\nn_slab=16\n")
    assert rc == 0
    rows = read_csv(out / "cover.csv")
    assert len(rows) == 3
    assert all(r[-1] == "1" for r in rows[1:])


@pytest.mark.parametrize(
    "cmd,cfg_text,message",
    [("goodset", "map=radial_stretch\nK=1.5\nbox_x=1e300\nn_x=10\nheights=1e-3\n",
      "contract violation: goodset: "),
     ("goodset", "map=radial_stretch\nK=1.5\nbox_x=1e300\nn_x=10\nheights=1e-5\n",
      "contract violation: goodset: "),
     ("cover", "map=shear\nc=1e300\nt=5.5\nmax_cylinders=1\nenumeration_cap=1\n"
      "audit_branches=1\nn_slab=8\n", "contract violation: cover: "),
     ("extend", "map=radial_stretch\nbox_x=1e300\n", "contract violation: extend: "),
     ("flow", "map=shear\nc=1e300\nresolution=7\nt_end=0.01\n",
      "contract violation: flow: non-finite initial data")],
    ids=["goodset", "goodset_deep", "cover", "extend", "flow"],
)
def test_overflowed_extension_is_a_contract_violation(tmp_path, capsys, cmd, cfg_text, message):
    # the boundary values or energies overflow at the quadrature nodes, which
    # would fail every good-set test, give a NaN stacking average and seed
    # the flow with non-finite data; the node pass, or below DEEP_HEIGHT the
    # closed-form moments, refuse them before the jet reads them, and no CSV
    # is written.  pytest turns RuntimeWarnings into errors, so this also
    # checks that none is emitted: outside pytest stderr is the one line
    rc, out = run(tmp_path, cmd, cfg_text)
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(message)
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("bad", [{"covered_fraction": 0.99999},
                                 {"max_multiplicity": cov.BETA_IMPL + 1}])
def test_cover_contract_on_measured_sphere_cover(tmp_path, capsys, monkeypatch, bad):
    # t = 3.5 puts the annulus at R_in ~ 2.6, so the sphere cover is built
    # and measured; a report outside the contract must stop the command
    real = cov.besicovitch_cover

    def measured_badly(*args, **kwargs):
        cover, rep = real(*args, **kwargs)
        return cover, {**rep, **bad}

    monkeypatch.setattr(cov, "besicovitch_cover", measured_badly)
    rc, _ = run(tmp_path, "cover",
                "map=linear\nmatrix=2,0,0,1\nt=3.5\nmax_cylinders=1\n"
                "enumeration_cap=0\naudit_branches=0\nn_slab=16\n")
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("contract violation: cover: sphere cover")


@pytest.mark.parametrize(
    "change,message",
    [({"disjoint": False}, "stack not disjoint"),
     ({"contained": False}, "escapes the annulus"),
     ({"leftover_estimate": math.inf}, "leftover exceeds r0 |D_i|"),
     ({"alpha": 5.0}, f"sectors not admissible (alpha 5 > {cov.ALPHA_STAR:.6g})")],
    ids=["disjoint", "contained", "leftover", "alpha"],
)
def test_cover_contract_on_cylinder_report(tmp_path, capsys, monkeypatch, change, message):
    # the real t = 3.5 report with one field of its second cylinder broken:
    # the command must stop and name that cylinder
    real = cov.cover_annulus

    def one_cylinder_broken(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.cylinders[1] = dataclasses.replace(rep.cylinders[1], **change)
        return rep

    monkeypatch.setattr(cov, "cover_annulus", one_cylinder_broken)
    rc, _ = run(tmp_path, "cover",
                "map=linear\nmatrix=2,0,0,1\nt=3.5\nmax_cylinders=2\n"
                "enumeration_cap=0\naudit_branches=0\nn_slab=16\n")
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"contract violation: cover: cylinder 1 {message}"]


@pytest.mark.parametrize(
    "cmd,cfg",
    [
        ("extend", "map=radial_stretch\nK=1.5\nnx=3\nns=3\n"),
        ("kernel", "t=4\nn_rho=21\n"),
        ("goodset", "map=radial_stretch\nK=1.5\nn_x=20\nheights=1e-2\n"),
        ("flow", "map=identity\nresolution=9\nt_end=0.005\n"),
    ],
)
def test_repeat_runs_byte_identical(tmp_path, cmd, cfg):
    _, out1 = run(tmp_path, cmd, cfg, out_name="a")
    _, out2 = run(tmp_path, cmd, cfg, out_name="b")
    files1 = sorted(p.name for p in out1.glob("*.csv"))
    assert files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_quad_order_flag_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "map=identity\nnx=3\nns=3\n")
    rc = main(["extend", "--config", cfg, "--out", str(tmp_path / "q"),
               "--quad-order", "11"])
    assert rc == 0


def _readme_tables():
    """Data rows of each README table, keyed by the table's header cells."""
    tables, rows = {}, None
    for line in README.read_text().splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = tuple(c.strip() for c in line.strip("|").split("|"))
        if rows is None:
            rows = tables.setdefault(cells, [])
        elif set(cells[0]) != {"-"}:
            rows.append(cells)
    return tables


def test_readme_table_matches_schema():
    tables = _readme_tables()
    common = {k: (d, a) for k, d, a in tables[("common key", "default", "allowed")]}
    listed = {cmd: {} if cmd == "kernel" else dict(common) for cmd in SCHEMA}
    for cmd, k, d, a in tables[("command", "key", "default", "allowed")]:
        listed[cmd][k] = (d, a)
    for cmd, schema in SCHEMA.items():
        want = {k: ("unset" if key.default is None else key.default, key.allowed)
                for k, key in schema.items()}
        assert listed[cmd] == want, cmd
