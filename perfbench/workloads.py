"""The three benchmark workloads and their correctness gates.

A workload is a sequence of passes; a pass is a list of jobs, one scenario
run each. A job's ``run`` is the timed call into jacobisplit; its ``check``
runs afterwards, untimed, and returns the number of integration nodes the
run covered together with an error message, or None when the outputs are
correct. Inputs come from the workload seed only.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import jacobisplit.cli as cli
from families import FAMILY_KINDS, closed_form_deviation, fine_grid_families

HERE = Path(__file__).resolve().parent
# Largest accepted deviation of Y from the closed form, relative to |Y|.
CLOSED_FORM_TOL = 1e-8
CONSTANT_KINDS = ("constant-sectional", "diagonal-constant")
EXAMPLE_CONFIG = Path("configs") / "example_scenario.json"


@dataclass
class Job:
    name: str  # the scenario; fine-grid families are named by their kind
    run: Callable[[], object]
    check: Callable[[object], tuple[int, str | None]]
    prepare: Callable[[], None] | None = None


class TrajectoryTap:
    """Keeps the trajectories ``cli`` integrates during one job, so their
    deviation from the closed form can be checked after the job's timing
    ends. Installed as the ``integrate`` binding of ``cli``."""

    def __init__(self):
        self.trajectories: list = []
        self.deviations: list[float] = []
        self._inner = None

    def install(self) -> None:
        self._inner = cli.integrate

        def integrate(*args, **kwargs):
            traj = self._inner(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        cli.integrate = integrate

    def restore(self) -> None:
        cli.integrate = self._inner

    def check(self) -> str | None:
        """Compare and drop the kept trajectories; an error message when a
        constant-field family deviates beyond ``CLOSED_FORM_TOL``."""
        error = None
        for traj in self.trajectories:
            if traj.spec.field.kind not in CONSTANT_KINDS:
                continue
            dev = closed_form_deviation(traj)
            self.deviations.append(dev)
            if not dev <= CLOSED_FORM_TOL:
                error = f"{traj.spec.label}: closed-form deviation {dev:.3e} > {CLOSED_FORM_TOL:g}"
        self.trajectories.clear()
        return error


def _verdict_error(report) -> str | None:
    bad = [
        f"{c.kind}={c.verdict} (expected {c.expectation})"
        for c in report.checks
        if not c.matched or c.verdict == "falsified"
    ]
    return f"{report.scenario}: " + ", ".join(bad) if bad else None


def _first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def fresh_scenarios() -> list:
    """The built-in scenarios as new objects. ``cli`` keeps its registry in
    a module-level cache for the life of the process; dropping it here, in
    untimed code, keeps anything cached on a scenario or its field from
    carrying over into the next timed run, as a fresh CLI process would."""
    cli._REGISTRY = None
    return cli.list_scenarios()


class Workload:
    """A named sequence of passes; why each workload was chosen is recorded
    in ``BENCHMARK.json`` and ``README.md``."""

    name = ""
    warmup_passes = 0

    def __init__(self, seed: int, tap: TrajectoryTap, out_dir: Path):
        self.seed = seed
        self.tap = tap
        self.out_dir = out_dir

    def rng(self, index: int) -> np.random.Generator:
        """The generator of pass ``index``: the same (seed, index) gives the
        same inputs, so a traced pass can repeat an untraced one."""
        return np.random.default_rng([self.seed, index])

    def make_pass(self, index: int) -> list[Job]:
        raise NotImplementedError


class BuiltinSweep(Workload):
    name = "builtin-sweep"
    warmup_passes = 1

    def make_pass(self, index: int) -> list[Job]:
        scenarios = fresh_scenarios()
        return [self._job(scenarios[i]) for i in self.rng(index).permutation(len(scenarios))]

    def _job(self, scenario) -> Job:
        def run():
            report = cli.run_scenario(scenario)
            return report, report.to_json()

        def check(value):
            report, text = value
            doc = json.loads(text)
            error = None if doc["all_matched"] else f"{scenario.name}: report not matched"
            return report.n_nodes, _first_error(_verdict_error(report), error, self.tap.check())

        return Job(scenario.name, run, check)


class FineGrid(Workload):
    name = "fine-grid"

    def __init__(self, seed, tap, out_dir):
        super().__init__(seed, tap, out_dir)
        self.expected = json.loads((HERE / "expected_verdicts.json").read_text())

    def make_pass(self, index: int) -> list[Job]:
        families = fine_grid_families(self.rng(index), self.expected, f"{self.seed}-{index}")
        return [self._job(kind, s) for kind, s in zip(FAMILY_KINDS, families)]

    def _job(self, kind: str, scenario) -> Job:
        def check(report):
            return report.n_nodes, _first_error(_verdict_error(report), self.tap.check())

        return Job(kind, lambda: cli.run_scenario(scenario), check)


class ReductionTraces(Workload):
    name = "reduction-traces"
    warmup_passes = 1
    HOPF_FILES = ("trajectory", "scalars", "reduction-0", "reduction-2")

    def make_pass(self, index: int) -> list[Job]:
        seed = ["--seed", str(self.seed)]
        hopf = ["run", "hopf-holonomy", "--traces", "--out", str(self.out_dir)] + seed
        config = ["run", "--config", str(EXAMPLE_CONFIG), "--out", str(self.out_dir)] + seed
        return [
            self._job("hopf-holonomy", hopf, [f"hopf-holonomy-{f}.csv" for f in self.HOPF_FILES]),
            self._job("custom-shifted-start-sphere", config, []),
        ]

    def _prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        fresh_scenarios()

    def _job(self, scenario: str, argv: list[str], traces: list[str]) -> Job:
        def check(code):
            tap_error = self.tap.check()
            if code != 0:
                return 0, f"{scenario}: exit code {code}"
            doc = json.loads((self.out_dir / f"{scenario}-report.json").read_text())
            errors = [None if doc["all_matched"] else f"{scenario}: report not matched"]
            errors += [
                f"{scenario}: verdict falsified" for c in doc["checks"] if c["verdict"] == "falsified"
            ]
            errors += [
                f"{scenario}: missing trace {name}"
                for name in traces
                if not (self.out_dir / name).is_file() or (self.out_dir / name).stat().st_size == 0
            ]
            return doc["n_nodes"], _first_error(*errors, tap_error)

        return Job(scenario, lambda: cli.main(argv), check, prepare=self._prepare)


WORKLOADS = {w.name: w for w in (BuiltinSweep, FineGrid, ReductionTraces)}


def accuracy_digits(deviations: list[float]) -> float:
    """-log10 of the worst closed-form deviation (floored at 1e-17)."""
    return -math.log10(max(max(deviations), 1e-17))
