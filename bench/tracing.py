"""Span recorder wrapped around the public functions of qcflow's layer modules.

The program is not edited: ``install`` replaces every function named in a
layer module's ``__all__`` and every public method (plus ``__call__``) of the
classes named there with a wrapper that records one span per call.  The
wrapper is bound wherever a qcflow module holds the original under any name,
so ``from .tension import energy_density`` in ``cli`` and ``from .geometry
import geodesic_step`` in ``heatflow`` are traced too.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer figures.

A span is ``[name, start, end, parent index, run id, attrs]``.  Self time is a
span's duration minus the durations of its direct children; layer self time
subtracts only the children in other layers.  The program is single-threaded
in Python, so children never overlap.
"""

import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("cli", "boundary", "extension", "tension", "heatflow", "geometry",
          "covering", "heatkernel")
# qcflow.greens has no CLI entry and is not traced.

NAME, START, END, PARENT, RUN, ATTRS = range(6)


def _points(x):
    shape = getattr(x, "shape", ())
    n = 1
    for d in shape[:-1]:
        n *= int(d)
    return n


def rss_mb():
    """Current resident set size in MiB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _annotations(modules):
    """Per-span hooks: name -> (enter(args, kwargs) -> state, attrs(args, kwargs, out, state))."""
    deep_height = modules["extension"].DEEP_HEIGHT

    def tension_path(args, kwargs, out, _):
        pts = args[1]
        s = pts[..., -1]
        if float(s.max()) < deep_height:
            path = "deep"
        elif float(s.min()) >= deep_height:
            path = "direct"
        else:
            path = "mixed"
        return {"points": _points(pts), "path": path}

    def cover_report(args, kwargs, out, rss_before):
        rep = out[1]
        return {"caps": rep["count"], "max_multiplicity": rep["max_multiplicity"],
                "covered_fraction": rep["covered_fraction"],
                "rss_mb": rss_mb() - rss_before}

    def flow_nodes(args, kwargs, out, _):
        n = 1
        for r in args[0].resolution:
            n *= r - 2
        return {"nodes": n}

    points_of_arg = {
        "boundary.BoundaryMap.__call__": 1,
        "extension.GoodExtension.__call__": 1,
        "tension.tension_norm": 1,
        "geometry.geodesic_step": 0,
    }
    hooks = {
        name: (None, lambda a, k, o, s, i=i: {"points": _points(a[i])})
        for name, i in points_of_arg.items()
    }
    hooks.update({
        "extension.GoodExtension.tension_vector": (None, tension_path),
        "covering.besicovitch_cover": (lambda a, k: rss_mb(), cover_report),
        "covering.find_good_height": (
            None, lambda a, k, o, s: {"success": bool(o["success"]), "n": int(o["n"])}),
        "heatflow.flow_step": (None, flow_nodes),
        "heatflow.run_flow": (None, lambda a, k, o, s: {"t": float(o[0].times[-1])}),
        "heatkernel.RadialKernel.total_mass": (None, lambda a, k, o, s: {"mass": float(o)}),
        "cli.main": (None, lambda a, k, o, s: {"command": (a[0] if a else k["argv"])[0]}),
    })
    return hooks


class Recorder:
    """In-memory span log for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter
        enter, attrs = hook or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter(args, kwargs) if enter is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out, state)
            return out

        return traced


def install(recorder, modules):
    """Wrap the layer modules' public callables; returns a function that undoes it."""
    hooks = _annotations(modules)
    wrappers = {}  # id(original function) -> wrapper; the originals stay referenced
    undo = []

    def rebind(target, attr, new):
        undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, new)

    for layer in LAYERS:
        mod = modules[layer]
        for public in mod.__all__:
            obj = getattr(mod, public)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{public}"
                wrappers[id(obj)] = recorder.wrap(name, obj, hooks.get(name))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    name = f"{layer}.{public}.{attr}"
                    if inspect.isfunction(member):
                        rebind(obj, attr, recorder.wrap(name, member, hooks.get(name)))
                    elif isinstance(member, (classmethod, staticmethod)):
                        wrapped = recorder.wrap(name, member.__func__, hooks.get(name))
                        rebind(obj, attr, type(member)(wrapped))
    for modname, mod in list(sys.modules.items()):
        if modname == "qcflow" or modname.startswith("qcflow."):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    rebind(mod, attr, wrappers[id(val)])

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
        undo.clear()

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanIndex:
    """Durations, self times and attributes of recorded spans, by name."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        foreign = [0.0] * len(spans)
        for rec in spans:
            p = rec[PARENT]
            if p >= 0:
                child[p] += rec[END] - rec[START]
                if _layer(spans[p][NAME]) != _layer(rec[NAME]):
                    foreign[p] += rec[END] - rec[START]
        self.by_name = {}
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            self.by_name.setdefault(rec[NAME], []).append(
                (i, dur, dur - child[i], dur - foreign[i]))

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def inclusive(self, name):
        """Total duration of the spans of name that are not nested in one another."""
        return sum(d for i, d, _, _ in self.by_name.get(name, ())
                   if not self._nested_in(i, name))

    def self_time(self, name):
        return sum(s for _, _, s, _ in self.by_name.get(name, ()))

    def layer_self_time(self, name):
        return sum(s for _, _, _, s in self.by_name.get(name, ()))

    def durations(self, name):
        return [d for _, d, _, _ in self.by_name.get(name, ())]

    def attrs(self, name):
        return [self.spans[i][ATTRS] or {} for i, *_ in self.by_name.get(name, ())]

    def attr_sum(self, name, key, where=None):
        return sum(a.get(key, 0) for a in self.attrs(name) if where is None or where(a))

    def _nested_in(self, i, name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def parent_layer(self, i):
        p = self.spans[i][PARENT]
        return _layer(self.spans[p][NAME]) if p >= 0 else None


def _layer(name):
    return name.split(".", 1)[0]


# name -> (unit, which direction is better); the order is the print order
PER_LAYER = {
    "boundary.eval_s": ("s", "lower"),
    "boundary.eval_points": ("count", "lower"),
    "boundary.jacobian_s": ("s", "lower"),
    "boundary.evals_per_ext_point": ("1", "lower"),
    "extension.eval_s": ("s", "lower"),
    "extension.eval_us_per_point": ("us", "lower"),
    "extension.tension_s": ("s", "lower"),
    "extension.tension_us_per_point.direct": ("us", "lower"),
    "extension.tension_us_per_point.deep": ("us", "lower"),
    "extension.tension_batch_points": ("count", "higher"),
    "tension.energy_density_s": ("s", "lower"),
    "tension.map_distortion_s": ("s", "lower"),
    "tension.from_jet_s": ("s", "lower"),
    "tension.ext_evals_per_point": ("1", "lower"),
    "heatflow.init_s": ("s", "lower"),
    "heatflow.steps": ("count", "lower"),
    "heatflow.tension_evals_per_unit_time": ("1/t", "lower"),
    "heatflow.step_ms.median": ("ms", "lower"),
    "heatflow.step_ms.p99": ("ms", "lower"),
    "heatflow.grid_tension_s": ("s", "lower"),
    "heatflow.record_s": ("s", "lower"),
    "heatflow.node_updates_per_s": ("1/s", "higher"),
    "geometry.geodesic_step_s": ("s", "lower"),
    "geometry.geodesic_step_ns_per_node": ("ns", "lower"),
    "covering.cover_build_s": ("s", "lower"),
    "covering.caps": ("count", "lower"),
    "covering.caps_per_s": ("1/s", "higher"),
    "covering.cover_build_rss_mb": ("MiB", "lower"),
    "covering.max_multiplicity": ("count", "lower"),
    "covering.covered_fraction": ("1", "higher"),
    "covering.good_height_s": ("s", "lower"),
    "covering.sectors": ("count", "lower"),
    "covering.good_sector_ratio": ("1", "higher"),
    "covering.field_points": ("count", "lower"),
    "heatkernel.total_mass_s": ("s", "lower"),
    "heatkernel.mass_dev": ("1", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans):
    """Per-layer figures of one traced repetition, as name -> value."""
    ix = SpanIndex(spans)
    m = {}

    bcall = "boundary.BoundaryMap.__call__"
    ecall = "extension.GoodExtension.__call__"
    tvec = "extension.GoodExtension.tension_vector"
    eval_points = ix.attr_sum(bcall, "points")
    ext_points = ix.attr_sum(ecall, "points")
    tension_points = ix.attr_sum(tvec, "points")
    m["boundary.eval_s"] = ix.self_time(bcall)
    m["boundary.eval_points"] = eval_points
    m["boundary.jacobian_s"] = ix.self_time("boundary.boundary_jacobian")
    m["boundary.evals_per_ext_point"] = _ratio(eval_points, ext_points + tension_points)

    m["extension.eval_s"] = ix.inclusive(ecall)
    m["extension.eval_us_per_point"] = 1e6 * _ratio(m["extension.eval_s"], ext_points)
    m["extension.tension_s"] = ix.inclusive(tvec)
    for path in ("direct", "deep"):
        secs = sum(d for (_, d, *_), a in zip(ix.by_name.get(tvec, ()), ix.attrs(tvec))
                   if a.get("path") == path)
        pts = ix.attr_sum(tvec, "points", lambda a, p=path: a.get("path") == p)
        m[f"extension.tension_us_per_point.{path}"] = 1e6 * _ratio(secs, pts)
    m["extension.tension_batch_points"] = _ratio(tension_points, ix.count(tvec))

    m["tension.energy_density_s"] = ix.inclusive("tension.energy_density")
    m["tension.map_distortion_s"] = ix.inclusive("tension.map_distortion")
    m["tension.from_jet_s"] = ix.self_time("tension.tension_from_jet")
    by_tension = sum(
        (ix.spans[i][ATTRS] or {}).get("points", 0)
        for i, *_ in ix.by_name.get(ecall, ())
        if ix.parent_layer(i) == "tension"
    )
    m["tension.ext_evals_per_point"] = _ratio(
        by_tension, ix.attr_sum("tension.tension_norm", "points"))

    steps = ix.durations("heatflow.flow_step")
    flow_t = ix.attr_sum("heatflow.run_flow", "t")
    m["heatflow.init_s"] = ix.inclusive("heatflow.init_flow")
    m["heatflow.steps"] = len(steps)
    m["heatflow.tension_evals_per_unit_time"] = _ratio(
        ix.count("heatflow.FlowGrid.tension"), flow_t)
    m["heatflow.step_ms.median"] = 1e3 * (statistics.median(steps) if steps else 0.0)
    m["heatflow.step_ms.p99"] = 1e3 * _percentile(steps, 99)
    m["heatflow.grid_tension_s"] = ix.layer_self_time("heatflow.FlowGrid.tension")
    m["heatflow.record_s"] = sum(
        ix.inclusive(f"heatflow.FlowGrid.{k}") for k in ("sup_tension", "sup_drift", "energy"))
    m["heatflow.node_updates_per_s"] = _ratio(
        ix.attr_sum("heatflow.flow_step", "nodes"), sum(steps))

    m["geometry.geodesic_step_s"] = ix.inclusive("geometry.geodesic_step")
    m["geometry.geodesic_step_ns_per_node"] = 1e9 * _ratio(
        m["geometry.geodesic_step_s"], ix.attr_sum("geometry.geodesic_step", "points"))

    covers = ix.attrs("covering.besicovitch_cover")
    heights = ix.attrs("covering.find_good_height")
    m["covering.cover_build_s"] = ix.inclusive("covering.besicovitch_cover")
    m["covering.caps"] = sum(a["caps"] for a in covers)
    m["covering.caps_per_s"] = _ratio(m["covering.caps"], m["covering.cover_build_s"])
    m["covering.cover_build_rss_mb"] = max((a["rss_mb"] for a in covers), default=0.0)
    m["covering.max_multiplicity"] = max((a["max_multiplicity"] for a in covers), default=0)
    m["covering.covered_fraction"] = min((a["covered_fraction"] for a in covers), default=0.0)
    m["covering.good_height_s"] = ix.layer_self_time("covering.find_good_height")
    m["covering.sectors"] = len(heights)
    m["covering.good_sector_ratio"] = _ratio(sum(a["success"] for a in heights), len(heights))
    m["covering.field_points"] = sum(a["n"] for a in heights)

    masses = [a["mass"] for a in ix.attrs("heatkernel.RadialKernel.total_mass")]
    m["heatkernel.total_mass_s"] = ix.inclusive("heatkernel.RadialKernel.total_mass")
    m["heatkernel.mass_dev"] = max((abs(v - 1.0) for v in masses), default=0.0)

    m["cli.self_s"] = ix.self_time("cli.main")
    return m
