"""The benchmark's workloads: generated configs, CLI commands and output checks.

Each workload is a fixed list of ``qcflow`` subcommands with fixed configs;
the workload seed reaches the program only as ``--seed``.  The checks read the
CSV files the commands wrote and apply the acceptance tolerances of the test
suite, so every repetition either passes or counts as failed.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

FLOW_T_END = 0.25       # ~820 CFL steps: stepping outweighs init_flow
FLOW_BAND = 0.05        # FlowTrace.monotone_band, criterion 7
FLOW_MAX_DRIFT = 0.4    # criterion 7 fixture bound
HARMONIC_MAX = 1e-3     # cli extend contract and criterion 1 tolerance
GOODSET_FINAL_MIN = 0.9  # criterion 8
MONOTONE_SLACK = 1e-12  # criterion 8


@dataclass(frozen=True)
class Command:
    """One ``qcflow <name> --config <name>.cfg`` call."""

    name: str
    config: dict


@dataclass
class Outcome:
    """Result of checking one repetition's outputs."""

    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems

    def require(self, cond, message):
        if not cond:
            self.problems.append(message)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key):
    return [float(r[key]) for r in rows]


def _check_flow(out, result):
    rows = _read_csv(out / "flow.csv")
    t = _floats(rows, "t")
    tau = _floats(rows, "sup_tension")
    drift = _floats(rows, "sup_drift")
    result.require(len(rows) >= 2, "flow.csv has fewer than two records")
    result.require(all(map(math.isfinite, tau + drift)), "flow.csv has non-finite values")
    result.require(abs(t[-1] - FLOW_T_END) < 0.01 * FLOW_T_END,
                   f"flow stopped at t={t[-1]} before t_end={FLOW_T_END}")
    result.require(tau[-1] < tau[0], "sup|tau| did not decay")
    result.require(all(v <= tau[0] * (1.0 + FLOW_BAND) for v in tau),
                   "sup|tau| left the monotone band")
    result.require(max(drift) < FLOW_MAX_DRIFT, f"drift {max(drift)} >= {FLOW_MAX_DRIFT}")
    result.figures.update(flow_sup_tau=tau[-1], flow_drift=max(drift),
                          accuracy_err=tau[-1])


def _check_extension(out, result):
    ext_rows = _read_csv(out / "extend.csv")
    tau = _floats(ext_rows, "tension")
    floor = max(tau)
    result.require(all(map(math.isfinite, tau)), "extend.csv has non-finite tension")
    result.require(floor <= HARMONIC_MAX, f"harmonic floor {floor} > {HARMONIC_MAX}")

    gs = sorted(_read_csv(out / "goodset.csv"), key=lambda r: -float(r["s"]))
    fracs = _floats(gs, "fraction")
    result.require(len(fracs) == 3, "goodset.csv does not have three heights")
    result.require(all(0.0 <= v <= 1.0 for v in fracs), "good-set fraction outside [0, 1]")
    result.require(all(a <= b + MONOTONE_SLACK for a, b in zip(fracs, fracs[1:])),
                   f"good-set fractions {fracs} decrease as s shrinks")
    result.require(fracs[-1] >= GOODSET_FINAL_MIN,
                   f"final good-set fraction {fracs[-1]} < {GOODSET_FINAL_MIN}")
    result.figures.update(harmonic_floor=floor, goodset_final=fracs[-1],
                          accuracy_err=floor)


COVER_CONFIG = {
    "map": "linear", "matrix": "2,0,0,1", "t": "5.5", "eps": "0.1",
    "max_cylinders": "2", "enumeration_cap": "4", "audit_branches": "1",
    "n_slab": "64",
}


def _check_cover(out, result):
    for name in ("kernel_profile.csv", "kernel_tails.csv"):
        result.require((out / name).is_file(), f"{name} missing")
    rows = _read_csv(out / "cover.csv")
    result.require(len(rows) == int(COVER_CONFIG["max_cylinders"]),
                   f"cover.csv has {len(rows)} cylinders")
    result.require(all(r["all_good"] == "1" for r in rows),
                   "a cylinder of the linear map is not all good")
    leftover = max(_floats(rows, "leftover_measure"))
    result.figures.update(cover_leftover=leftover, accuracy_err=leftover)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    checker: object
    accuracy: str  # what accuracy_err means on this workload

    def write_configs(self, work):
        for cmd in self.commands:
            text = "".join(f"{k} = {v}\n" for k, v in cmd.config.items())
            (work / f"{cmd.name}.cfg").write_text(text)

    def argvs(self, work, out, seed):
        return [
            [cmd.name, "--config", str(work / f"{cmd.name}.cfg"), "--out", str(out),
             "--seed", str(seed)]
            for cmd in self.commands
        ]

    def check(self, out, exit_codes):
        result = Outcome()
        for cmd, code in zip(self.commands, exit_codes):
            result.require(code == 0, f"qcflow {cmd.name} exited {code}")
        if result.ok:
            try:
                self.checker(Path(out), result)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                result.problems.append(f"unreadable output: {exc!r}")
        return result


WORKLOADS = {
    w.name: w
    for w in (
        # the only workload that steps the heat flow (RKL2, fused steps)
        Workload(
            "flow",
            (Command("flow", {"map": "radial_stretch", "K": "1.5", "box_x": "2",
                              "s_lo": "0.25", "s_hi": "4", "resolution": "25",
                              "t_end": repr(FLOW_T_END)}),),
            _check_flow,
            "final sup|tau| in flow.csv (flow_sup_tau)",
        ),
        # large-batch extension energy, distortion and tension; its heights
        # straddle DEEP_HEIGHT, so it alone reaches the deep tension path
        Workload(
            "extension",
            (Command("goodset", {"map": "radial_stretch", "K": "1.5", "n_x": "400",
                                 "heights": "1e-1,1e-3,1e-5"}),
             Command("extend", {"map": "linear", "matrix": "2,0,0,1", "nx": "9",
                                "ns": "9", "s_lo": "1e-5", "s_hi": "2"})),
            _check_extension,
            "largest tension in extend.csv for the linear map (harmonic_floor)",
        ),
        # a real ~7e5-cap Besicovitch cover, then 64-point tension batches
        Workload(
            "cover",
            (Command("kernel", {"t": "16", "n_rho": "201"}),
             Command("cover", COVER_CONFIG)),
            _check_cover,
            "largest leftover measure in cover.csv (cover_leftover)",
        ),
    )
}
