"""qcflow benchmark: run one workload in-process and print its metrics.

    python3 bench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the root of a qcflow checkout.  The workloads drive
``qcflow.cli.main`` with generated config files and the seed as ``--seed``
(see ``workloads.py``); outputs are checked at the acceptance tolerances.  With
``--trace 0`` nothing is instrumented and the end-to-end metrics are
reported; with ``--trace 1`` a traced repetition runs between two untraced
ones and the per-layer metrics are reported (see ``tracing.py`` and
``HOW_TO_READ.md``).  The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
MIN_REPS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "accuracy_err": "1"}


def _purge_qcflow():
    for name in [m for m in sys.modules if m == "qcflow" or m.startswith("qcflow.")]:
        del sys.modules[name]


def setup(workload, work):
    """Import qcflow, write the configs and build the workload's objects.

    Returns the imported layer modules.  qcflow is imported afresh on every
    call (numpy and scipy stay loaded), so repeated calls time the same work.
    """
    _purge_qcflow()
    modules = {layer: importlib.import_module(f"qcflow.{layer}")
               for layer in tracing.LAYERS}
    workload.write_configs(work)
    for cmd in workload.commands:
        _build_objects(modules, cmd.config)
    return modules


def _build_objects(modules, cfg):
    """The objects a command builds from its config, built here once to time them."""
    if "map" not in cfg:
        return modules["heatkernel"].RadialKernel(3)
    params = {k: float(cfg[k]) for k in ("K", "c") if k in cfg}
    if "matrix" in cfg:
        flat = [float(v) for v in cfg["matrix"].split(",")]
        m = math.isqrt(len(flat))
        params = {"matrix": [flat[i:i + m] for i in range(0, len(flat), m)]}
    f = modules["boundary"].make_boundary_map(cfg["map"], **params)
    return modules["extension"].GoodExtension(f)


def run_rep(workload, modules, work, seed):
    """One repetition: every command of the workload, then the output check."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    codes = []
    for argv in workload.argvs(work, out, seed):
        try:
            codes.append(modules["cli"].main(argv))
        except Exception:  # a crash is a failed repetition, not a failed benchmark
            traceback.print_exc()
            codes.append("exception")
    return workload.check(out, codes)


def environment():
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": _blas_threads(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _version(mod):
    return importlib.import_module(mod).__version__


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import ctypes
    import glob

    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_rep(workload, modules, work, seed):
    """(wall time, outcome) of one repetition."""
    t0 = time.perf_counter()
    outcome = run_rep(workload, modules, work, seed)
    return time.perf_counter() - t0, outcome


def measure(workload, modules, work, seed, seconds):
    """Timed repetitions until ``seconds`` have passed and at least MIN_REPS
    were made; returns (walls, outcomes)."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, outcome = timed_rep(workload, modules, work, seed)
        walls.append(wall)
        outcomes.append(outcome)
    return walls, outcomes


def traced_rep(workload, modules, work, seed, run_id):
    """A traced repetition between two untraced ones; returns (metrics, outcomes).

    The tracing overhead is the traced wall time minus the mean of the two
    untraced ones, which cancels a steady drift of the machine's speed.
    """
    wall_before, before = timed_rep(workload, modules, work, seed)
    recorder = tracing.Recorder(run_id)
    uninstall = tracing.install(recorder, modules)
    wall_traced, traced = timed_rep(workload, modules, work, seed)
    uninstall()
    wall_after, after = timed_rep(workload, modules, work, seed)

    metrics = tracing.layer_metrics(recorder.spans)
    metrics["trace.overhead_s"] = wall_traced - (wall_before + wall_after) / 2.0
    if workload.name == "cover":
        beta = modules["covering"].BETA_IMPL
        traced.require(metrics["covering.max_multiplicity"] <= beta,
                       f"cover multiplicity {metrics['covering.max_multiplicity']} > {beta}")
        traced.require(metrics["covering.covered_fraction"] == 1.0,
                       f"coverage {metrics['covering.covered_fraction']} < 1")
    return metrics, [before, traced, after]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcflow" / "cli.py").is_file():
        print(f"qcflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            modules = setup(workload, work)
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            metrics, outcomes = traced_rep(workload, modules, work, args.seed,
                                              f"{workload.name}-{args.seed}")
            units = {k: tracing.PER_LAYER[k][0] for k in metrics}
        else:
            walls, outcomes = measure(workload, modules, work, args.seed, args.seconds)
            print("repetition walls (s): " + " ".join(f"{w:.3f}" for w in walls))
            figures = outcomes[-1].figures
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "accuracy_err": figures.get("accuracy_err", float("nan")),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    result = summarize(outcomes, metrics, units)
    print("env " + json.dumps(environment()))
    print(f"workload {workload.name}: seed {args.seed}, {result['attempted']} repetitions, "
          f"fail_frac {result['failed'] / result['attempted']:g}; "
          f"accuracy_err = {workload.accuracy}")
    for key, val in outcomes[-1].figures.items():
        print(f"  {key} = {val:.6g}")
    for o in outcomes:
        for problem in o.problems:
            print(f"  FAILED: {problem}")
    for key, val in metrics.items():
        print(f"  {key} = {val:.6g} {units[key]}")
    print(json.dumps(result))
    return 0


def summarize(outcomes, metrics, units):
    """The result line: correctness, repetition counts and metrics with units."""
    failed = sum(not o.ok for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
