"""The flow and cover workloads' CSVs against golden copies.

golden/flow_workload.csv is the flow.csv of the benchmark's flow config as
written by the RKL2 super-steps: 13 of 16 stages, one record after each.
Against a dt/8 Euler reference its first record is off by 2.7e-3 in the
field and 3.2% in sup|tau| (the quadrature noise of the initial data that
a super-step damps only to 0.62), its last by 8.3e-5 (README, numerical
notes).  golden/cover_workload.csv is the cover.csv of the benchmark's
cover config at the default seed, as written when the cover still counted
caps over a 4 x 4 patch.  Their cells carry 12 significant
digits, and RTOL = 1e-11 lets the last one move with another CPU's rounding.
Run this file directly (`python tests/test_golden_flow.py path/to/flow.csv`,
or a cover.csv) to check a CSV written elsewhere, where pytest is not
installed; the golden copy is picked by the CSV's name.
"""

import csv
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {"flow.csv": GOLDEN_DIR / "flow_workload.csv",
          "cover.csv": GOLDEN_DIR / "cover_workload.csv"}
CONFIG = "map=radial_stretch\nK=1.5\nbox_x=2\ns_lo=0.25\ns_hi=4\nresolution=25\nt_end=0.25\n"
COVER_CONFIG = ("map=linear\nmatrix=2,0,0,1\nt=5.5\neps=0.1\nmax_cylinders=2\n"
                "enumeration_cap=4\naudit_branches=1\nn_slab=64\n")
RTOL = 1e-11
# The linear map's tension vanishes in exact arithmetic, so cover.csv's
# averages of its square are rounding noise (1e-30 to 1e-25 here) that
# another CPU's sin, cos or BLAS kernels move wholesale.  They are held to
# the CLI's bound on the linear map's tension, 1e-3, squared.
ATOL = {"weighted_tension_avg": 1e-6}


def mismatches(path):
    """Cells of the CSV at path that differ from its golden copy by more than the tolerance."""
    got, want = (list(csv.reader(Path(p).read_text().splitlines()))
                 for p in (path, GOLDEN[Path(path).name]))
    if got[0] != want[0] or len(got) != len(want):
        return [f"{len(got)} rows under {got[0]}; the golden copy has {len(want)} "
                f"under {want[0]}"]
    return [f"{want[0][0]}={w[0]} {name}: {a} against {b}"
            for r, w in zip(got[1:], want[1:]) for name, a, b in zip(want[0], r, w)
            if not math.isclose(float(a), float(b), rel_tol=RTOL,
                                abs_tol=ATOL.get(name, 0.0))]


def _written(tmp_path, command, config):
    from qcflow.cli import main

    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    return tmp_path / f"{command}.csv"


def test_flow_workload_matches_the_golden_trace(tmp_path):
    assert mismatches(_written(tmp_path, "flow", CONFIG)) == []


def test_cover_workload_matches_the_golden_csv(tmp_path):
    assert mismatches(_written(tmp_path, "cover", COVER_CONFIG)) == []


if __name__ == "__main__":
    bad = mismatches(sys.argv[1])
    name = GOLDEN[Path(sys.argv[1]).name].name
    print("\n".join(bad) or f"{sys.argv[1]} matches {name} at rtol {RTOL:g}")
    sys.exit(1 if bad else 0)
