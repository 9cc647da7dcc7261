"""Self-tests of the benchmark itself.

    python3 bench/selftest.py [workload ...]

Run from the root of a qcflow checkout; takes about a minute per workload.
For each workload it makes two traced repetitions, each after a fresh import
of qcflow, and checks that

* both repetitions pass the output checks;
* every span listed in ``SPANS`` fires at least once, which also shows that
  names bound by ``from ... import`` in other modules were wrapped;
* the counters in ``COUNTERS`` are exactly equal in the two repetitions;
* corrupting any checked figure of the outputs, or a non-zero exit code,
  makes the check fail and is counted in ``failed`` of the result line.

It also checks that ``BENCHMARK.json`` lists the workloads and metrics the
code reports, and that ``run.py`` exits non-zero without a result line in a
directory that holds only ``BENCHMARK.json`` and ``bench/``.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMON = ("cli.main", "boundary.BoundaryMap.__call__", "boundary.boundary_jacobian",
          "boundary.boundary_energy_density", "tension.tension_from_jet")
SPANS = {
    "flow": COMMON + (
        "extension.GoodExtension.__call__", "heatflow.init_flow", "heatflow.run_flow",
        "heatflow.flow_step", "heatflow.FlowGrid.tension", "heatflow.FlowGrid.sup_tension",
        "heatflow.FlowGrid.sup_drift", "heatflow.FlowGrid.energy",
        "geometry.geodesic_step"),
    "extension": COMMON + (
        "extension.GoodExtension.__call__", "extension.GoodExtension.tension_norm",
        "extension.GoodExtension.tension_vector", "tension.energy_density",
        "tension.map_distortion", "tension.tension_norm"),
    "cover": COMMON + (
        "extension.GoodExtension.tension_norm", "extension.GoodExtension.tension_vector",
        "covering.cover_annulus", "covering.besicovitch_cover", "covering.find_good_height",
        "heatkernel.RadialKernel.total_mass"),
}
COUNTERS = ("boundary.eval_points", "boundary.evals_per_ext_point", "heatflow.steps",
            "heatflow.tension_evals_per_unit_time", "covering.caps", "covering.sectors",
            "covering.good_sector_ratio")
SEED = 11


def _rewrite(path, edit):
    """Apply edit(rows) to the data rows of a CSV file in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    edit(header, body)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + body)


def _set(column, value, row=-1):
    def edit(header, body):
        body[row][header.index(column)] = value
    return edit


def _swap_first_last(column):
    def edit(header, body):
        i = header.index(column)
        body[0][i], body[-1][i] = body[-1][i], body[0][i]
    return edit


CORRUPTIONS = {
    "flow": [("flow.csv", _set("sup_tension", "1e9")),
             ("flow.csv", _set("sup_drift", "0.5")),
             ("flow.csv", _set("t", "0.1"))],
    "extension": [("extend.csv", _set("tension", "2e-3")),
                  ("goodset.csv", _set("fraction", "0.5")),
                  ("goodset.csv", _set("fraction", "1.5", row=0)),
                  ("goodset.csv", _swap_first_last("fraction"))],
    "cover": [("cover.csv", _set("all_good", "0", row=0)),
              ("kernel_tails.csv", None)],
}


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, cond, label):
        print(("PASS " if cond else "FAIL ") + label, flush=True)
        self.failures += not cond


def traced_once(workload, work, checks):
    modules = run.setup(workload, work)
    recorder = tracing.Recorder(f"selftest-{workload.name}")
    uninstall = tracing.install(recorder, modules)
    outcome = run.run_rep(workload, modules, work, SEED)
    uninstall()
    bound = (modules["cli"].energy_density, modules["heatflow"].geodesic_step,
             modules["extension"].GoodExtension.tension_vector)
    checks.expect(not any(hasattr(f, "__wrapped__") for f in bound),
                  f"{workload.name}: uninstall restores the original functions")
    return outcome, recorder, tracing.layer_metrics(recorder.spans)


def test_workload(workload, work, checks):
    out = work / "out"
    counters = []
    for attempt in (1, 2):
        outcome, recorder, metrics = traced_once(workload, work, checks)
        checks.expect(outcome.ok, f"{workload.name}: traced repetition {attempt} passes "
                                  f"its output checks {outcome.problems}")
        fired = {rec[tracing.NAME] for rec in recorder.spans}
        missing = [s for s in SPANS[workload.name] if s not in fired]
        checks.expect(not missing, f"{workload.name}: listed spans fire (missing {missing})")
        counters.append({k: metrics[k] for k in COUNTERS})
    checks.expect(counters[0] == counters[1],
                  f"{workload.name}: counters repeat exactly {counters[0]}")
    if workload.name == "extension":
        paths = {a.get("path") for a in tracing.SpanIndex(recorder.spans).attrs(
            "extension.GoodExtension.tension_vector")}
        checks.expect({"deep", "direct"} <= paths, "extension: deep and direct paths both run")

    codes = [0] * len(workload.commands)
    checks.expect(workload.check(out, codes).ok, f"{workload.name}: clean outputs pass")
    bad_code = workload.check(out, [2] + codes[1:])
    checks.expect(not bad_code.ok, f"{workload.name}: exit code 2 counts as a failure")
    for name, edit in CORRUPTIONS[workload.name]:
        saved = (out / name).read_bytes()
        if edit is None:
            (out / name).unlink()
        else:
            _rewrite(out / name, edit)
        result = workload.check(out, codes)
        checks.expect(not result.ok, f"{workload.name}: corrupted {name} fails "
                                     f"({'; '.join(result.problems)})")
        summary = run.summarize([outcome, result], {}, {})
        checks.expect(summary["failed"] == 1 and summary["correct"] is False,
                      f"{workload.name}: the failure is counted in the result line")
        (out / name).write_bytes(saved)


def test_benchmark_json(checks):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    checks.expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
                  "BENCHMARK.json names the workloads of workloads.py")
    checks.expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
                  "BENCHMARK.json end-to-end metrics match run.py")
    checks.expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
                  == tracing.PER_LAYER, "BENCHMARK.json per-layer metrics match tracing.py")


def test_bare_directory(work, checks):
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    checks.expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
                  f"bare directory: exit {proc.returncode}, no result line")


def main(names):
    checks = Checks()
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    sys.path.insert(0, str(run.SRC))
    try:
        test_benchmark_json(checks)
        for name in names or WORKLOADS:
            test_workload(WORKLOADS[name], work, checks)
        test_bare_directory(work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps({"selftest_failures": checks.failures}))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
