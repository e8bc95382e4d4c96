"""Scenario registry, check runner and command-line interface.

A scenario bundles a curvature field, family initial data, an integration
window and a list of checks, each with an expected verdict. Every scenario
is built from a config document by one loader, which validates each key
and value: a user's ``--config`` file (``scenario_from_config``) or one of
the built-ins, which the package ships as a list of config documents in
``builtins.json``. The built-in registry covers the model geometries
(round sphere, flat space, a product with a flat factor, the complex
projective plane, a holonomy-twisted family), two deliberate
counterexamples that must trip specific hypothesis gates, and a batch of
randomized self-adjoint families.

Check verdicts are three-valued: ``verified``, ``hypothesis-violated`` and
``falsified``. A ``falsified`` verdict means every hypothesis gate passed
while a conclusion failed; it must never occur on the built-in scenarios
and the test suite enforces that. Each check kind is one row of ``CHECKS``:
the library function that forms its verdict and the params it requires.
A run sets only the step and a seed. The detection and gate tolerances are
module constants (``jacobi.TOL_SING``, ``jacobi.TOL_ZERO``,
``splitting.TOL_EIG``, ``splitting.TOL_SPAN``), so no run can widen a gate
until a violated hypothesis passes.

Exit codes: 0 when every check's verdict matches its expectation, 1 when
some check mismatches, 2 for input or numerical errors and for a step too
fine to fit in memory.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .comparison import export_scalar_csv, rigidity_verdict, scalar_traces
from .curvature import (
    CurvatureField,
    constant_sectional,
    diagonal_constant,
    fubini_study_model,
    is_json_number,
    read_json,
    read_json_object,
    sampled_field_from_json,
)
from .jacobi import (
    DEFAULT_STEP,
    FamilySpec,
    JacobiTrajectory,
    export_csv,
    integrate,
)
from .reduction import (
    export_reduction_csv,
    hce_verdict,
    reduced_boundary_verdict,
    shared_reduction,
)
from .splitting import MODES, splitting_params, splitting_verdict, vanishing_floor_verdict
from .symlin import orthonormal_columns

__all__ = [
    "VERSION",
    "CheckSpec",
    "Scenario",
    "CheckResult",
    "RunReport",
    "builtin_scenarios",
    "list_scenarios",
    "get_scenario",
    "scenario_from_config",
    "run_scenario",
    "main",
]

VERSION = "0.1.0"
REPORT_SCHEMA = "jacobisplit.report/1"
VERDICTS = ("verified", "hypothesis-violated", "falsified")


def _needs(*keys: str) -> Callable[[dict], tuple[str, ...]]:
    return lambda params: keys


def _is_finite_number(value) -> bool:
    return is_json_number(value) and math.isfinite(value)


def _is_finite_rows(value) -> bool:
    """A list of equally long rows of finite numbers, or one such row."""
    if not isinstance(value, list):
        return False
    rows = value if value and all(isinstance(row, list) for row in value) else [value]
    lengths = {len(row) for row in rows}
    return len(lengths) == 1 and all(_is_finite_number(x) for row in rows for x in row)


def _is_psi(value) -> bool:
    """Finite rows that ``reduce`` keeps whole: by its rank rule,
    ``orthonormal_columns`` drops none of them."""
    if not _is_finite_rows(value):
        return False
    rows = np.array(value, dtype=float, ndmin=2)
    return not rows.size or orthonormal_columns(rows.T).shape[1] == len(rows)


# check param and config field validators: (test, what a valid value is)
_MODE = (lambda v: v in MODES, f"one of {', '.join(MODES)}")
_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer")
_NUMBER = (_is_finite_number, "a finite number")
_NUMBERS = (
    lambda v: isinstance(v, list) and all(_is_finite_number(x) for x in v),
    "a list of finite numbers",
)
_POSITIVE = (lambda v: _is_finite_number(v) and v > 0, "a finite number above zero")
_ANY = (lambda v: True, "anything")
_ROWS = (_is_finite_rows, "a list of equally long rows of finite numbers")
_PSI = (_is_psi, f"{_ROWS[1]}, linearly independent")
_TEXT = (lambda v: isinstance(v, str), "a string")
_PATH = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
# a scenario name names the report file in --out: one plain path component
_NAME = (
    lambda v: isinstance(v, str) and v not in ("", ".", "..") and not set(v) & {"/", "\\"},
    "a non-empty string without '/' or '\\', other than '.' and '..'",
)


class CheckKind(NamedTuple):
    """One row of the check table. ``verdict`` is the library function
    behind the check: (trajectory, params, seed) -> (verdict, details),
    where ``seed`` is the run's seed or None. ``params`` maps the keys it
    reads from its params to their validators, ``(test, what a valid value
    is)``, and ``required`` maps a check's params to the keys it cannot run
    without (for a splitting check they depend on its mode)."""

    verdict: Callable[[JacobiTrajectory, dict, int | None], tuple[str, dict]]
    params: dict[str, tuple[Callable[[object], bool], str]]
    required: Callable[[dict], tuple[str, ...]] = _needs()
    reduces: bool = False  # --traces exports the reduction its ``psi`` names


CHECKS = {
    "splitting": CheckKind(
        splitting_verdict, {"theorem": _MODE, "k": _INTEGER, "alpha": _NUMBER}, splitting_params
    ),
    "rigidity": CheckKind(rigidity_verdict, {"alpha": _NUMBER}),
    "hce": CheckKind(hce_verdict, {"psi": _PSI, "tol": _POSITIVE, "level": _NUMBER}, reduces=True),
    "vanishing-floor": CheckKind(vanishing_floor_verdict, {"k": _INTEGER}, _needs("k")),
    "reduced-boundary": CheckKind(
        reduced_boundary_verdict, {"psi": _PSI, "alpha": _NUMBER}, _needs("alpha"), reduces=True
    ),
}


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    params: dict
    expectation: str

    def __post_init__(self):
        if self.kind not in CHECKS:
            raise ValueError(f"unknown check kind: {self.kind!r}")
        if self.expectation not in VERDICTS:
            raise ValueError(f"unknown expectation: {self.expectation!r}")
        _check_keys(self.params, CHECKS[self.kind].params, f"check {self.kind!r} param")
        for key in CHECKS[self.kind].required(self.params):
            if key not in self.params:
                raise ValueError(f"check {self.kind!r} is missing required param {key!r}")


# check params that must fit the scenario they run on: (test of the value
# against the field's family dimension d and the window [lo, hi], what fits)
_FITS = {
    "k": (lambda v, d, lo, hi: 1 <= v <= d, "a level in 1..{d}"),
    "psi": (lambda v, d, lo, hi: not v or np.shape(v)[-1] == d, "rows of length {d}"),
    "alpha": (lambda v, d, lo, hi: lo <= v <= hi, "in the window [{lo:g}, {hi:g}]"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    fld: CurvatureField
    alpha: float
    end: float
    y0: np.ndarray
    yd0: np.ndarray
    checks: tuple[CheckSpec, ...]
    step: float = DEFAULT_STEP

    def __post_init__(self):
        """Reject a check param that contradicts the field or the window,
        so it fails before anything is integrated."""
        d = self.fld.dim
        for spec in self.checks:
            for key, value in spec.params.items():
                if key in _FITS and not _FITS[key][0](value, d, self.alpha, self.end):
                    what = _FITS[key][1].format(d=d, lo=self.alpha, hi=self.end)
                    raise ValueError(
                        f"check {spec.kind!r} param {key!r} must be {what} "
                        f"for this scenario, got {value!r}"
                    )

    def family(self) -> FamilySpec:
        return FamilySpec(
            field=self.fld,
            alpha=self.alpha,
            end=self.end,
            y0=self.y0,
            yd0=self.yd0,
            label=self.name,
        )


@dataclass(frozen=True)
class CheckResult:
    kind: str
    params: dict
    expectation: str
    verdict: str
    matched: bool
    details: dict

    def to_dict(self) -> dict:
        return _jsonable(vars(self))


@dataclass
class RunReport:
    scenario: str
    description: str
    step: float
    n_nodes: int
    window: tuple[float, float]
    checks: list[CheckResult]
    all_matched: bool
    seed: int | None = None
    wall_time_s: float = 0.0  # informational only; excluded from to_dict

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "tool": {"name": "jacobisplit", "version": VERSION},
            "scenario": self.scenario,
            "description": self.description,
            "step": self.step,
            "n_nodes": self.n_nodes,
            "window": list(self.window),
            "checks": [c.to_dict() for c in self.checks],
            "all_matched": self.all_matched,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _jsonable(obj):
    """Recursively convert report values to plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# config files


# a sampled field's keys; given a ``path``, its file holds the others
_SAMPLED = {
    "kind": (lambda v: v == "sampled", "'sampled'"), "path": _PATH, "n": _INTEGER,
    "grid": _ANY, "ops": _ANY, "label": _TEXT,
}


def _sampled_from_config(doc: dict) -> CurvatureField:
    """A sampled field given inline, or in its ``path`` file by the same rules."""
    if "path" in doc:
        if doc.keys() & {"n", "grid", "ops", "label"}:
            raise ValueError("'sampled' field key 'path' excludes n, grid, ops and label")
        doc = read_json_object(doc["path"], "sampled-field file")
        _check_keys(doc, {k: v for k, v in _SAMPLED.items() if k != "path"}, "sampled-field key")
    return sampled_field_from_json(doc)


# config field kind -> (the keys of its JSON object with the validators of
# their values, builder from that object)
_FIELD_BUILDERS = {
    "constant-sectional": (
        {"kind": _ANY, "n": _INTEGER, "c": _NUMBER},
        lambda doc: constant_sectional(doc["n"], float(doc["c"])),
    ),
    "diagonal-constant": (
        {"kind": _ANY, "eigs": _NUMBERS},
        lambda doc: diagonal_constant(doc["eigs"]),
    ),
    "fubini-study": ({"kind": _ANY, "n": _INTEGER}, lambda doc: fubini_study_model(doc["n"])),
    "sampled": (_SAMPLED, _sampled_from_config),
}


def _field_from_config(doc: dict) -> CurvatureField:
    if not isinstance(doc, dict):
        raise TypeError("must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _FIELD_BUILDERS:
        raise ValueError(f"unknown field kind in config: {kind!r}")
    validators, build = _FIELD_BUILDERS[kind]
    _check_keys(doc, validators, f"{kind!r} field key")
    return build(doc)


_CONFIG_KEYS = ("name", "description", "field", "alpha", "end", "y0", "yd0", "checks", "step")
_CHECK_KEYS = ("kind", "params", "expect")


def _reject_unknown_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} {unknown[0]!r} (known: {', '.join(known)})")


def _check_keys(doc: dict, validators: dict, what: str) -> None:
    """Reject a key of ``doc`` that ``validators`` lacks or whose value fails."""
    _reject_unknown_keys(doc, tuple(validators), what)
    for key, value in doc.items():
        test, rule = validators[key]
        if not test(value):
            raise ValueError(f"{what} {key!r} must be {rule}, got {value!r}")


def _valid(rule: tuple[Callable[[object], bool], str], convert: Callable = lambda v: v) -> Callable:
    """``convert`` of a value that passes the validator ``rule``."""
    test, what = rule

    def read(value):
        if not test(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return convert(value)

    return read


def _checks_from_config(items) -> tuple[CheckSpec, ...]:
    if not isinstance(items, list) or not all(isinstance(c, dict) for c in items):
        raise TypeError("must be a list of check objects")
    if not items:
        raise ValueError("must list at least one check")
    for c in items:
        _reject_unknown_keys(c, _CHECK_KEYS, "check key")
        if not isinstance(c.get("params", {}), dict):
            raise TypeError(f"check key 'params' must be a JSON object, got {c['params']!r}")
    return tuple(CheckSpec(c["kind"], dict(c.get("params", {})), c["expect"]) for c in items)


def scenario_from_config(path: str | Path) -> Scenario:
    """Build a scenario from a JSON config file.

    Required keys: name, field, alpha, end, y0, yd0, checks. Each check
    needs kind and expect, and may give params (an object). Optional:
    description, step. The name is one plain path component, as it names
    the report and trace files in the output directory. A missing or
    unknown key, a value of the wrong type (a number written as a string
    included), or a number that is not finite, is a ValueError that names
    the key, and so is a value too large to build in memory, and so is a
    key that one object of the file repeats.
    """
    return _scenario_from_doc(read_json_object(path, "config file"))


def _scenario_from_doc(doc: dict) -> Scenario:
    """The scenario of a parsed config document (``scenario_from_config``)."""
    _reject_unknown_keys(doc, _CONFIG_KEYS, "config key")

    def value(key, convert, *default):
        if key not in doc and not default:
            raise ValueError(f"config file is missing key {key!r}")
        try:
            return convert(doc.get(key, *default))
        except KeyError as exc:
            raise ValueError(f"config key {key!r} is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
        except MemoryError:
            raise ValueError(f"config key {key!r}: out of memory") from None

    return Scenario(
        name=value("name", _valid(_NAME)),
        description=value("description", _valid(_TEXT), ""),
        fld=value("field", _field_from_config),
        alpha=value("alpha", _valid(_NUMBER, float)),
        end=value("end", _valid(_NUMBER, float)),
        y0=value("y0", _valid(_ROWS, lambda v: np.asarray(v, dtype=float))),
        yd0=value("yd0", _valid(_ROWS, lambda v: np.asarray(v, dtype=float))),
        checks=value("checks", _checks_from_config),
        step=value("step", _valid(_NUMBER, float), DEFAULT_STEP),
    )


# ---------------------------------------------------------------------------
# built-in scenarios


_REGISTRY: dict[str, Scenario] | None = None


def builtin_scenarios() -> dict[str, Scenario]:
    """The built-in scenarios by name, in the order of the package's
    ``builtins.json``: a list of config documents, each built as
    ``scenario_from_config`` builds a config file."""
    global _REGISTRY
    if _REGISTRY is None:
        docs = read_json(Path(__file__).with_name("builtins.json"), "built-in scenario file")
        _REGISTRY = {s.name: s for s in map(_scenario_from_doc, docs)}
    return _REGISTRY


def list_scenarios() -> list[Scenario]:
    return list(builtin_scenarios().values())


def get_scenario(name: str) -> Scenario:
    reg = builtin_scenarios()
    if name not in reg:
        raise KeyError(f"unknown scenario: {name!r} (see the list subcommand)")
    return reg[name]


# ---------------------------------------------------------------------------
# check runner


def run_scenario(
    scenario: Scenario | str,
    step: float | None = None,
    seed: int | None = None,
    _traces_dir: Path | None = None,
) -> RunReport:
    """Integrate a scenario once and run all its checks against it.

    ``_traces_dir`` is for the command line: it also writes the per-node
    traces of this run's trajectory there."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    t0 = time.perf_counter()
    h = step if step is not None else scenario.step
    traj = integrate(scenario.family(), step=h)
    results = []
    for spec in scenario.checks:
        verdict, details = CHECKS[spec.kind].verdict(traj, spec.params, seed)
        results.append(
            CheckResult(
                kind=spec.kind,
                params=dict(spec.params),
                expectation=spec.expectation,
                verdict=verdict,
                matched=verdict == spec.expectation,
                details=details,
            )
        )
    report = RunReport(
        scenario=scenario.name,
        description=scenario.description,
        step=traj.step,
        n_nodes=int(traj.times.size),
        window=(traj.alpha, traj.end),
        checks=results,
        all_matched=all(r.matched for r in results),
        seed=seed,
    )
    report.wall_time_s = time.perf_counter() - t0
    if _traces_dir is not None:
        _write_traces(traj, scenario, _traces_dir)
    return report


def _write_traces(report_traj: JacobiTrajectory, scenario: Scenario, out: Path) -> list[Path]:
    """Write the per-node CSV traces of a run's trajectory, reusing the
    reductions its checks computed; returns the written paths. Each
    distinct reduction is exported once: a later check that names the same
    ``psi`` gets a byte copy of the first check's table."""
    written = []
    traj_path = out / f"{scenario.name}-trajectory.csv"
    export_csv(report_traj, str(traj_path))
    written.append(traj_path)
    try:
        trace = scalar_traces(report_traj)
    except ValueError:
        trace = None
    if trace is not None:
        sc_path = out / f"{scenario.name}-scalars.csv"
        export_scalar_csv(trace, str(sc_path))
        written.append(sc_path)
    exported = {}  # id of a reduction -> the path it was first written to
    for i, check in enumerate(scenario.checks):
        if CHECKS[check.kind].reduces:
            red_path = out / f"{scenario.name}-reduction-{i}.csv"
            rs = shared_reduction(report_traj, check.params)
            if id(rs) in exported:
                red_path.write_bytes(exported[id(rs)].read_bytes())
            else:
                export_reduction_csv(rs, str(red_path))
                exported[id(rs)] = red_path
            written.append(red_path)
    return written


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobisplit",
        description="numerical splitting, comparison and reduction checks "
        "for families of Jacobi fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list built-in scenarios")
    run = sub.add_parser("run", help="run a scenario's checks")
    run.add_argument("name", nargs="?", help="built-in scenario name")
    run.add_argument("--config", help="JSON scenario config file (instead of a name)")
    run.add_argument("--step", type=float, help="integration step override")
    run.add_argument("--seed", type=int, help="seed for sampled curvature cross-checks")
    run.add_argument("--traces", action="store_true", help="also write per-node CSV traces")
    run.add_argument("--out", default=".", help="output directory for reports and traces")
    return parser


def _cmd_list() -> int:
    for scenario in list_scenarios():
        print(f"{scenario.name:28s} {scenario.description}")
    return 0


def _cmd_run(args) -> int:
    if bool(args.name) == bool(args.config):
        print("error: give exactly one of a scenario name or --config", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    try:
        scenario = (
            scenario_from_config(args.config) if args.config else get_scenario(args.name)
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        step = scenario.step if args.step is None else args.step
        try:
            report = run_scenario(
                scenario, step=step, seed=args.seed, _traces_dir=out if args.traces else None
            )
        except MemoryError:
            # a float: the node count of a subnormal step overflows to inf
            nodes = max(1.0, np.rint((scenario.end - scenario.alpha) / step)) + 1
            msg = f"out of memory at step {step:g} ({nodes:.15g} nodes); give a larger --step"
            raise ValueError(msg) from None
        report_path = out / f"{scenario.name}-report.json"
        report_path.write_text(report.to_json())
    except (ValueError, KeyError, OSError, np.linalg.LinAlgError, json.JSONDecodeError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    for check in report.checks:
        status = "OK" if check.matched else "MISMATCH"
        extra = ""
        if check.kind == "splitting":
            extra = f" theorem={check.params.get('theorem')}"
        print(
            f"{report.scenario}/{check.kind}{extra}: {check.verdict} "
            f"(expected {check.expectation}) [{status}]"
        )
    print(f"report: {report_path}")
    print(f"elapsed: {report.wall_time_s:.2f}s", file=sys.stderr)
    return 0 if report.all_matched else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
