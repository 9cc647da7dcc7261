"""The flow workload's trace against a golden copy.

golden/flow_workload.csv is the flow.csv of the benchmark's flow config as
written before the flow's array passes were rearranged; every change since
has kept it byte for byte.  Its cells carry 12 significant digits, and
RTOL = 1e-11 lets the last one move with another CPU's rounding.  Run this
file directly (`python tests/test_golden_flow.py path/to/flow.csv`) to check
a flow.csv written elsewhere, where pytest is not installed.
"""

import csv
import math
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "flow_workload.csv"
CONFIG = "map=radial_stretch\nK=1.5\nbox_x=2\ns_lo=0.25\ns_hi=4\nresolution=25\nt_end=0.25\n"
RTOL = 1e-11


def mismatches(path):
    """Cells of the flow.csv at path that differ from the golden trace by more than RTOL."""
    got, want = (list(csv.reader(Path(p).read_text().splitlines())) for p in (path, GOLDEN))
    if got[0] != want[0] or len(got) != len(want):
        return [f"{len(got)} rows under {got[0]}; the golden trace has {len(want)} "
                f"under {want[0]}"]
    return [f"t={w[0]} {name}: {a} against {b}"
            for r, w in zip(got[1:], want[1:]) for name, a, b in zip(want[0], r, w)
            if not math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=0.0)]


def test_flow_workload_matches_the_golden_trace(tmp_path):
    from qcflow.cli import main

    cfg = tmp_path / "flow.cfg"
    cfg.write_text(CONFIG)
    assert main(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert mismatches(tmp_path / "flow.csv") == []


if __name__ == "__main__":
    bad = mismatches(sys.argv[1])
    print("\n".join(bad) or f"{sys.argv[1]} matches {GOLDEN.name} at rtol {RTOL:g}")
    sys.exit(1 if bad else 0)
