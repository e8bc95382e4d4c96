"""Fresh reports of the 17 built-ins, the example config and the fine-grid
families of seed [3, 0] (``perfbench/families.py``: a constant field at
d = 16, a diagonal one and a sampled one) against the reports in
``tests/golden/``, kept from an earlier version of the engine.

Keys, strings, bools, ints and verdicts must match exactly. Floats must
agree within ``ABS`` or ``REL``, whichever is looser: that admits the
roundoff-level moves a change may make to a report (the largest recorded
is a 1.2e-9 move of the S deviation that rigidity reports once carried)
and still catches a moved zero time or a gate value that moves by 1e-7.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
from test_bench_names import PERFBENCH, _load

import jacobisplit as js

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_scenario.json"
ABS, REL = 1e-8, 1e-9


def _departure(old, new, where="report"):
    """Where ``new`` first departs from ``old`` beyond the float tolerance,
    or None."""
    if isinstance(old, float) and isinstance(new, float):
        close = abs(new - old) <= max(ABS, REL * abs(old))
        if old == new or close or (math.isnan(old) and math.isnan(new)):
            return None
    elif type(old) is not type(new):
        pass
    elif isinstance(old, dict):
        if old.keys() == new.keys():
            found = (_departure(old[k], new[k], f"{where}.{k}") for k in old)
            return next((d for d in found if d), None)
        return f"{where}: keys {sorted(old)} -> {sorted(new)}"
    elif isinstance(old, list):
        if len(old) == len(new):
            found = (_departure(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(old, new)))
            return next((d for d in found if d), None)
    elif old == new:
        return None
    return f"{where}: {old!r} -> {new!r}"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}-report.json").read_text())


def _fine_grid_scenarios() -> list:
    """The benchmark's fine-grid families of seed [3, 0]."""
    expected = json.loads((PERFBENCH / "expected_verdicts.json").read_text())
    return _load("families").fine_grid_families(np.random.default_rng([3, 0]), expected, "3-0")


def test_reports_match_the_golden_reports(builtin_runs):
    reports = list(builtin_runs.values()) + [js.run_scenario(js.scenario_from_config(CONFIG))]
    reports += [js.run_scenario(sc) for sc in _fine_grid_scenarios()]
    names = sorted(f"{r.scenario}-report.json" for r in reports)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == names
    for report in reports:
        departure = _departure(_golden(report.scenario), json.loads(report.to_json()))
        assert departure is None, departure


def test_golden_comparison_catches_what_matters():
    old = _golden("random-selfadjoint-1")
    assert _departure(old, copy.deepcopy(old)) is None

    def departs(edit) -> bool:
        new = copy.deepcopy(old)
        edit(new["checks"][0])
        return _departure(old, new) is not None

    def move_zero_time(delta):
        def edit(check):
            check["details"]["zero_times"][0][1] += delta

        return edit

    assert departs(move_zero_time(1e-7))
    assert not departs(move_zero_time(1.2e-9))
    assert departs(lambda check: check.update(verdict="falsified"))
    assert departs(lambda check: check["details"].update(dim_z=3))
    assert departs(lambda check: check["details"].update(dim_z=2.0))
    assert departs(lambda check: check["details"].pop("dim_p"))
