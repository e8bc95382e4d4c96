"""Tests for the scenario registry, the run pipeline, and the command line."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jacobisplit as js


CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_scenario.json"

NAMED = [
    "sphere-zero",
    "flat-parallel",
    "product-s2xr2",
    "cp2-zero",
    "example-nonselfadjoint",
    "example-shifted-sine",
    "hopf-holonomy",
]


# -------------------------------------------------------------- registry


def test_registry_contents():
    reg = js.builtin_scenarios()
    assert len(reg) == 17
    for name in NAMED:
        assert name in reg
    for i in range(10):
        assert f"random-selfadjoint-{i}" in reg
    with pytest.raises(KeyError, match="unknown scenario"):
        js.get_scenario("nope")


BUILTINS = Path(js.cli.__file__).with_name("builtins.json")


def test_each_builtin_document_runs_alone_as_a_config_file(tmp_path):
    docs = json.loads(BUILTINS.read_text(encoding="utf-8"))
    assert [doc["name"] for doc in docs] == [sc.name for sc in js.list_scenarios()]
    for doc in docs:
        config = tmp_path / f"{doc['name']}.json"
        config.write_text(json.dumps(doc))
        by_name, by_config = tmp_path / "by-name", tmp_path / "by-config"
        assert js.main(["run", doc["name"], "--out", str(by_name)]) == 0
        assert js.main(["run", "--config", str(config), "--out", str(by_config)]) == 0
        report = f"{doc['name']}-report.json"
        assert (by_config / report).read_bytes() == (by_name / report).read_bytes(), doc["name"]


def test_random_builtin_draws_have_the_documented_spectra():
    """Each ``random-selfadjoint-i`` starts at ``y0 = I`` with a symmetric
    ``yd0`` whose free eigenvalues lie in [-2, 2] at least 0.3 apart; odd
    ``i`` adds one eigenvalue ``cot(alpha)``, one sine-type member."""
    for i in range(10):
        sc = js.get_scenario(f"random-selfadjoint-{i}")
        assert sc.alpha == 0.2
        assert np.array_equal(sc.y0, np.eye(3))
        assert np.allclose(sc.yd0, sc.yd0.T, rtol=0.0, atol=1e-15)
        eigs = np.linalg.eigvalsh(sc.yd0)
        pinned = np.isclose(eigs, 1.0 / np.tan(sc.alpha), rtol=1e-13, atol=0.0)
        assert pinned.sum() == i % 2, (i, eigs)
        free = eigs[~pinned]
        assert np.all(np.abs(free) <= 2.0), (i, eigs)
        assert np.all(np.diff(free) >= 0.3), (i, eigs)


def test_package_data_declares_the_builtins():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["jacobisplit"]
    assert any(BUILTINS in BUILTINS.parent.glob(pattern) for pattern in globs), globs


def test_checkspec_validation():
    # a kind that JSON reads as a list or an object is no check kind either
    for kind in ("frobnicate", ["splitting"], {"splitting": 1}):
        with pytest.raises(ValueError, match="unknown check kind"):
            js.CheckSpec(kind, {}, "verified")
    with pytest.raises(ValueError, match="unknown expectation"):
        js.CheckSpec("rigidity", {}, "maybe")


# -------------------------------------------------------------- runs


def test_all_builtin_scenarios_match(builtin_runs):
    assert len(builtin_runs) == 17
    for name, report in builtin_runs.items():
        assert report.all_matched, f"{name}: " + ", ".join(
            f"{c.kind}={c.verdict}(exp {c.expectation})" for c in report.checks if not c.matched
        )


def test_no_check_is_ever_falsified(builtin_runs):
    for name, report in builtin_runs.items():
        for check in report.checks:
            assert check.verdict != "falsified", (name, check.kind)


@pytest.mark.parametrize("factor", [1e-100, 1e-6, 1e6, 1e100])
def test_verdicts_do_not_change_with_scale(builtin_runs, factor):
    # the family is linear in its initial data, and every gate and conclusion
    # is relative to its size: the self-adjointness threshold to the squared
    # size at alpha, the orthogonality floor to the squared size over the grid
    for sc in js.list_scenarios() + [js.scenario_from_config(CONFIG)]:
        base = builtin_runs[sc.name] if sc.name in builtin_runs else js.run_scenario(sc)
        scaled = dataclasses.replace(sc, y0=factor * sc.y0, yd0=factor * sc.yd0)
        verdicts = [c.verdict for c in js.run_scenario(scaled).checks]
        assert verdicts == [c.verdict for c in base.checks], sc.name


def test_shipped_inputs_integrate_on_their_rows_scalar_solutions(trajs):
    # every built-in and the example config has a diagonal field, so its
    # trajectory keeps the rows' scalar solutions that the span tests read
    config = js.scenario_from_config(CONFIG)
    shipped = [trajs(sc.name) for sc in js.list_scenarios()]
    for traj in shipped + [js.integrate(config.family(), step=config.step)]:
        assert traj.row_solutions is not None, traj.spec.label
        phi, run = traj.row_solutions
        assert phi.shape == (traj.n_nodes, run.max() + 1, 2, 2) and run.shape == (traj.dim,)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at step 0.1 the sphere's rigidity and mode-B splitting "
    "checks read 'falsified' on the sine span: its best candidate's residual "
    "(2.75e-6, the RK4 error) exceeds TOL_SPAN = 1e-6, so dim_p is 0, and no gate "
    "checks that the step resolves the window",
)
def test_coarse_step_is_never_falsified():
    report = js.run_scenario("sphere-zero", step=0.1)
    assert [c.verdict for c in report.checks if c.verdict == "falsified"] == []


def test_hce_without_a_checked_node_is_not_evaluable():
    (hce, *_) = js.run_scenario("hopf-holonomy", step=0.1).checks
    assert hce.details["n_checked"] == 0
    assert hce.verdict == "hypothesis-violated"
    assert hce.details["note"].startswith("not evaluable")


def test_coarse_step_hce_is_never_falsified():
    for step in (0.05, 0.02):
        (hce, *_) = js.run_scenario("hopf-holonomy", step=step).checks
        assert hce.verdict != "falsified", step


def test_fine_hce_tol_is_never_falsified():
    hopf = js.get_scenario("hopf-holonomy")
    params = {"psi": [[1.0, 0.0]], "tol": 1e-7, "level": 4.0}
    scenario = dataclasses.replace(hopf, checks=(js.CheckSpec("hce", params, "verified"),))
    assert js.run_scenario(scenario).checks[0].verdict != "falsified"


def test_randomized_splitting_dims(builtin_runs):
    d1 = builtin_runs["random-selfadjoint-1"].checks[0].details
    assert (d1["dim_z"], d1["dim_p"]) == (2, 1)
    zeros = sorted(t for _, t in d1["zero_times"])
    assert zeros == pytest.approx([0.676531, 2.193966], abs=1e-4)
    d2 = builtin_runs["random-selfadjoint-2"].checks[0].details
    assert (d2["dim_z"], d2["dim_p"]) == (3, 0)


def test_randomized_rigidity_fails_on_regularity(builtin_runs):
    rep = builtin_runs["random-selfadjoint-1"].checks[1]
    assert rep.verdict == "hypothesis-violated"
    dim = rep.details["hypothesis_flags"]["dim_condition"]
    assert not dim["passed"] and dim["dim_z"] == 2 and dim["limit"] == 0


def test_counterexample_scenarios(builtin_runs):
    rot = builtin_runs["example-nonselfadjoint"]
    assert all(c.verdict == "hypothesis-violated" for c in rot.checks)
    shear = builtin_runs["example-shifted-sine"]
    assert all(c.verdict == "hypothesis-violated" for c in shear.checks)


def test_coupling_scenario_details(builtin_runs):
    rep = builtin_runs["hopf-holonomy"]
    kinds = [c.kind for c in rep.checks]
    assert kinds == ["hce", "vanishing-floor", "reduced-boundary"]
    hce = rep.checks[0].details
    assert hce["residual"] <= 1e-3 and hce["n_checked"] > 0
    assert hce["curvature_deviation"] <= 1e-3
    rb = rep.checks[2].details
    assert rb["passed"] and rb["margin"] > 0.2


def test_report_json_shape_and_stability():
    rep1 = js.run_scenario("sphere-zero")
    rep2 = js.run_scenario("sphere-zero")
    blob1, blob2 = rep1.to_json(), rep2.to_json()
    assert blob1 == blob2
    doc = json.loads(blob1)
    assert doc["schema"] == "jacobisplit.report/1"
    assert doc["tool"] == {"name": "jacobisplit", "version": js.__version__}
    assert doc["scenario"] == "sphere-zero"
    assert doc["all_matched"] is True
    assert "wall_time_s" not in doc
    assert len(doc["checks"]) == 2
    for check in doc["checks"]:
        assert check["matched"] is True


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_reports_are_strict_json(builtin_runs, tmp_path):
    # JSON has no inf or NaN: the boundary gate's cot(0+) bound and the hce
    # residual with no checked node are written as null, and stay non-finite
    # in the library's objects
    texts = [report.to_json() for report in builtin_runs.values()]
    texts.append(js.run_scenario(js.scenario_from_config(CONFIG)).to_json())
    assert js.main(["run", "hopf-holonomy", "--step", "0.05", "--out", str(tmp_path)]) == 1
    texts.append((tmp_path / "hopf-holonomy-report.json").read_text())
    docs = [json.loads(text, parse_constant=_not_strict) for text in texts]
    assert len(docs) == 19
    (sphere, *_) = builtin_runs["sphere-zero"].checks
    assert sphere.details["hypothesis_flags"]["boundary_eig"]["bound"] == math.inf
    boundary = sphere.to_dict()["details"]["hypothesis_flags"]["boundary_eig"]
    assert boundary["bound"] is None and boundary["margin"] is None
    assert docs[-1]["checks"][0]["details"]["residual"] is None
    assert js.cli._jsonable(np.array([1.5, np.inf, np.nan])) == [1.5, None, None]


def test_run_scenario_seed_adds_sampled_floor():
    rep = js.run_scenario("cp2-zero", seed=5)
    split = next(c for c in rep.checks if c.kind == "splitting")
    assert "floor_sampled" in split.details
    assert split.details["floor_sampled"] == pytest.approx(1.0, abs=0.05)


# -------------------------------------------------------------- config files


def test_scenario_from_config(tmp_path):
    sc = js.scenario_from_config("configs/example_scenario.json")
    assert sc.name == "custom-shifted-start-sphere"
    assert sc.alpha == pytest.approx(0.3)
    assert len(sc.checks) == 2
    rep = js.run_scenario(sc)
    assert rep.all_matched


def test_scenario_from_config_missing_key(tmp_path):
    doc = json.loads(Path("configs/example_scenario.json").read_text())
    del doc["alpha"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing key"):
        js.scenario_from_config(p)


def test_scenario_from_config_bad_field(tmp_path):
    doc = json.loads(Path("configs/example_scenario.json").read_text())
    doc["field"] = {"kind": "hyperbolic", "n": 3}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown field kind"):
        js.scenario_from_config(p)


# -------------------------------------------------------------- CLI


LISTING = """\
sphere-zero                  round unit sphere, family vanishing at the start
flat-parallel                flat space, constant parallel family
product-s2xr2                product of a round 2-sphere with a flat plane
cp2-zero                     complex projective plane, family vanishing at the start
example-nonselfadjoint       rotating family on the sphere with nonvanishing Wronskian
example-shifted-sine         shifted sine family on the sphere violating the boundary bound
hopf-holonomy                holonomy-twisted family on the sphere with a one-dim vertical subfamily
""" + "".join(
    f"random-selfadjoint-{i:<9d} randomized self-adjoint family on the unit-curvature model"
    + (" (one sine-type eigenvalue)\n" if i % 2 else "\n")
    for i in range(10)
)


def test_cli_list(capsys):
    assert js.main(["list"]) == 0
    assert capsys.readouterr().out == LISTING


def test_cli_run_writes_report(tmp_path, capsys):
    code = js.main(["run", "sphere-zero", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "[OK]" in captured.out
    path = tmp_path / "sphere-zero-report.json"
    doc = json.loads(path.read_text())
    assert doc["schema"] == "jacobisplit.report/1"
    assert doc["all_matched"] is True


def test_cli_has_no_format_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        js.main(["run", "flat-parallel", "--format", "csv", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_run_step_override(tmp_path):
    code = js.main(["run", "sphere-zero", "--step", "0.01", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "sphere-zero-report.json").read_text())
    assert doc["step"] == pytest.approx(0.01, rel=1e-2)
    assert doc["n_nodes"] == 315


def test_cli_run_traces(tmp_path):
    code = js.main(["run", "hopf-holonomy", "--traces", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "hopf-holonomy-trajectory.csv").exists()
    assert (tmp_path / "hopf-holonomy-scalars.csv").exists()
    assert (tmp_path / "hopf-holonomy-reduction-0.csv").exists()
    assert (tmp_path / "hopf-holonomy-reduction-2.csv").exists()


def test_cli_run_config(tmp_path):
    code = js.main(["run", "--config", "configs/example_scenario.json", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "custom-shifted-start-sphere-report.json").exists()


def test_cli_exit_one_on_mismatch(tmp_path, capsys):
    doc = json.loads(Path("configs/example_scenario.json").read_text())
    doc["checks"][0]["expect"] = "falsified"
    doc["name"] = "expect-flip"
    p = tmp_path / "flip.json"
    p.write_text(json.dumps(doc))
    code = js.main(["run", "--config", str(p), "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    rep = json.loads((tmp_path / "expect-flip-report.json").read_text())
    assert rep["all_matched"] is False


def test_cli_exit_two_on_bad_input(tmp_path, capsys, monkeypatch):
    assert js.main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err

    assert js.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err

    assert js.main(["run", "sphere-zero", "--config", "x.json"]) == 2
    assert "exactly one" in capsys.readouterr().err

    assert js.main(["run"]) == 2
    assert "exactly one" in capsys.readouterr().err

    # a negative seed is refused before anything is integrated
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    assert js.main(["run", "sphere-zero", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


def _no_integration(*args, **kwargs):
    raise AssertionError("integrated a scenario from invalid input")


def test_cli_has_no_tolerance_overrides(tmp_path, capsys):
    for flag, value in (("--tol-eig", "0.5"), ("--tol-zero", "1e-3")):
        with pytest.raises(SystemExit) as info:
            js.main(["run", "sphere-zero", flag, value, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_exit_two_when_the_grid_does_not_fit_in_memory(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(js.cli, "integrate", out_of_memory)
    assert js.main(["run", "sphere-zero", "--step", "1e-12", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory at step 1e-12 (3141592653591 nodes)" in err


# 3e300 nodes, and a subnormal step whose node count overflows to inf: both
# refused before anything of the grid is allocated
@pytest.mark.parametrize("step, nodes", [("1e-300", "3.14159265358979e+300"), ("1e-310", "inf")])
def test_cli_names_the_step_of_a_grid_numpy_cannot_size(tmp_path, capsys, step, nodes):
    tracemalloc.start()
    try:
        code = js.main(["run", "sphere-zero", "--step", step, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: out of memory at step {step} ({nodes} nodes)" in err
    assert peak < 2**20


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = str(Path(js.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "jacobisplit", "list"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("sphere-zero ")


def _example_with(tmp_path, edit) -> str:
    """Path of a copy of the example config changed by ``edit(doc)``."""
    with open("configs/example_scenario.json") as fh:
        doc = json.load(fh)
    edit(doc)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_exit_two_on_initial_data_whose_gate_overflows(tmp_path, capsys):
    # finite, so the config accepts it, but sigma_max([y0; yd0])^2 is not
    path = _example_with(tmp_path, lambda doc: doc.update(yd0=[[1e200, 0.0], [0.0, 1e200]]))
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: y0 and yd0 are too large for the self-adjointness gate" in err
    assert "overflows" in err


@pytest.mark.parametrize(
    "check",
    [
        {"kind": "splitting", "params": {"theorem": "B", "alpha": 0.0}},
        {"kind": "rigidity", "params": {}},
    ],
    ids=["splitting-B", "rigidity"],
)
def test_cli_exit_two_when_the_family_size_overflows(tmp_path, capsys, check):
    # cosh(100 t) is about 1e160 at t = 3.7: every value is finite, but the
    # squares in the span test's Gram operator and in the family's size are not
    def edit(doc):
        doc.update(field={"kind": "constant-sectional", "n": 3, "c": -1e4}, alpha=0.0, end=3.7)
        doc.update(y0=[[1.0, 0.0], [0.0, 1.0]], yd0=[[0.0, 0.0], [0.0, 0.0]])
        doc.update(checks=[{**check, "expect": "verified"}])

    path = _example_with(tmp_path, edit)
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "error: the family's size overflows" in capsys.readouterr().err


def test_cli_exit_two_on_malformed_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert js.main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    # values of the wrong type or not finite name their key; an empty check
    # list would verify nothing and report success
    cases = [("alpha", [1]), ("checks", {"a": 1}), ("checks", [])]
    cases += [("end", float("inf")), ("alpha", float("nan")), ("step", float("inf"))]
    cases += [("y0", [[float("nan"), 0.0], [0.0, 1.0]]), ("yd0", [[0.0, 0.0], [0.0, float("inf")]])]
    # numbers written as strings or booleans, and params as a list of pairs
    cases += [("alpha", "0.3"), ("alpha", True), ("end", "3"), ("step", "0.001"), ("end", 10**400)]
    cases += [("y0", [["0.3", 0.0], [0.0, 0.3]]), ("yd0", [[1.0, 0.0], [0.0, False]])]
    pairs = {"kind": "splitting", "params": [["theorem", "A"]], "expect": "verified"}
    cases += [("checks", [pairs])]
    for key, bad in cases:
        path = _example_with(tmp_path, lambda doc: doc.update({key: bad}))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
    for kind in (["splitting"], {"splitting": 1}):
        check = {"kind": kind, "params": {}, "expect": "verified"}
        path = _example_with(tmp_path, lambda doc: doc.update(checks=[check]))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"config key 'checks': unknown check kind: {kind!r}" in capsys.readouterr().err


def test_sampled_field_grid_and_ops_must_be_numbers(tmp_path, capsys, monkeypatch):
    # one rule for a field given inline and one read from its file
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    field_path = tmp_path / "field.json"
    ops = [[1.0, 0.0, 0.0, 1.0]] * 2
    for grid, field_ops, key in (
        (["0", "4"], ops, "grid"),
        ([0.0, True], ops, "grid"),
        ([0.0, 10**400], ops, "grid"),
        ([0.0, 4.0], [["1.0", 0, 0, 1], [1, 0, 0, 1]], "ops"),
        ([0.0, 4.0], [[[1, 0], [0, 1]], [1, 0, 0, 1]], "ops"),
    ):
        sampled = {"n": 3, "grid": grid, "ops": field_ops}
        field_path.write_text(json.dumps(sampled))
        for field in ({"kind": "sampled", **sampled}, {"kind": "sampled", "path": str(field_path)}):
            path = _example_with(tmp_path, lambda doc: doc.update(field=field))
            assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"config key 'field': sampled-field key {key!r} must be a list" in err, err


@pytest.mark.parametrize(
    "key, bad",
    [("name", v) for v in ("../escaped", "a/b", "a\\b", ".", "..", "", 123)] + [("description", 5)],
)
def test_config_name_is_one_plain_path_component(tmp_path, capsys, key, bad):
    # the name names the report file: none may land outside --out
    out = tmp_path / "out"
    path = _example_with(tmp_path, lambda doc: doc.update({key: bad}))
    assert js.main(["run", "--config", path, "--out", str(out)]) == 2
    assert f"config key {key!r}: must be" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["edited.json"]


def test_cli_exit_two_on_unknown_config_key(tmp_path, capsys):
    sampled = {"kind": "sampled", "n": 3, "grid": [0.0], "ops": [[1, 0, 0, 1]], "c": 1.0}
    cases = [
        (lambda doc: doc.update(stepp=0.01), "unknown config key 'stepp'"),
        (lambda doc: doc["checks"][1].update(expct="verified"), "unknown check key 'expct'"),
        # field keys are checked per field kind, check params per check kind
        (
            lambda doc: doc["field"].update(cc=5),
            "unknown 'constant-sectional' field key 'cc' (known: kind, n, c)",
        ),
        (
            lambda doc: doc.update(field={"kind": "diagonal-constant", "eigs": [1, 1], "n": 3}),
            "unknown 'diagonal-constant' field key 'n' (known: kind, eigs)",
        ),
        (
            lambda doc: doc.update(field={"kind": "fubini-study", "n": 4, "c": 1.0}),
            "unknown 'fubini-study' field key 'c' (known: kind, n)",
        ),
        (
            lambda doc: doc.update(field=sampled),
            "unknown 'sampled' field key 'c' (known: kind, path, n, grid, ops, label)",
        ),
        (
            lambda doc: doc["checks"][0]["params"].update(alpah=1),
            "unknown check 'splitting' param 'alpah' (known: theorem, k, alpha)",
        ),
    ]
    for edit, message in cases:
        path = _example_with(tmp_path, edit)
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


def test_cli_exit_two_on_overflow(tmp_path, capsys):
    def overflowing(doc):
        doc.update(field={"kind": "constant-sectional", "n": 3, "c": -1e6}, alpha=0.0)
        doc.update(y0=[[1.0, 0.0], [0.0, 1.0]], yd0=[[0.0, 0.0], [0.0, 0.0]])

    path = _example_with(tmp_path, overflowing)
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "error: the family is not finite from t=0.70" in capsys.readouterr().err


def test_missing_required_check_param_names_check_and_key(tmp_path, capsys):
    with pytest.raises(ValueError, match="check 'vanishing-floor' is missing required param 'k'"):
        js.CheckSpec("vanishing-floor", {}, "verified")
    with open("configs/example_scenario.json") as fh:
        doc = json.load(fh)
    del doc["checks"][0]["params"]["theorem"]
    p = tmp_path / "no-theorem.json"
    p.write_text(json.dumps(doc))
    assert js.main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "check 'splitting' is missing required param 'theorem'" in err


def test_missing_mode_param_is_rejected_before_integration(tmp_path, capsys):
    with pytest.raises(ValueError, match="check 'splitting' is missing required param 'k'"):
        js.CheckSpec("splitting", {"theorem": "C"}, "verified")
    with pytest.raises(ValueError, match="check 'splitting' is missing required param 'alpha'"):
        js.CheckSpec("splitting", {"theorem": "E", "k": 1}, "verified")
    js.CheckSpec("splitting", {"theorem": "A"}, "verified")
    with open("configs/example_scenario.json") as fh:
        doc = json.load(fh)
    del doc["checks"][0]["params"]["alpha"]  # a mode-B splitting check
    p = tmp_path / "no-alpha.json"
    p.write_text(json.dumps(doc))
    assert js.main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "check 'splitting' is missing required param 'alpha'" in err


def test_check_param_values_are_validated_before_integration(tmp_path, capsys, monkeypatch):
    bad = [
        ("splitting", {"theorem": "Z"}, "'theorem' must be one of A, B, C, E, got 'Z'"),
        ("splitting", {"theorem": ["A"]}, "'theorem' must be one of A, B, C, E, got ['A']"),
        ("splitting", {"theorem": {"A": 1}}, "'theorem' must be one of A, B, C, E, got {'A': 1}"),
        ("splitting", {"theorem": "C", "k": 1.5}, "'k' must be an integer, got 1.5"),
        ("vanishing-floor", {"k": True}, "'k' must be an integer, got True"),
        ("rigidity", {"alpha": "x"}, "'alpha' must be a finite number, got 'x'"),
        ("reduced-boundary", {"alpha": float("nan")}, "'alpha' must be a finite number"),
        ("hce", {"tol": float("inf")}, "'tol' must be a finite number"),
        ("hce", {"level": None}, "'level' must be a finite number, got None"),
        ("hce", {"psi": [["a", 0.0]]}, "'psi' must be a list of equally long rows"),
        ("hce", {"psi": [[1.0, float("nan")]]}, "'psi' must be a list of equally long rows"),
        ("hce", {"psi": [[1.0, 0.0], [1.0]]}, "'psi' must be a list of equally long rows"),
        ("hce", {"psi": "1 0"}, "'psi' must be a list of equally long rows"),
    ]
    for kind, params, message in bad:
        with pytest.raises(ValueError) as info:
            js.CheckSpec(kind, params, "verified")
        assert f"check {kind!r} param {message}" in str(info.value)
    for params in ({"psi": [1.0, 0.0], "level": 4}, {"psi": []}, {"psi": [[1, 0], [0, 1]]}):
        js.CheckSpec("hce", params, "verified")

    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    for key, value, message in (
        ("alpha", "x", "check 'splitting' param 'alpha' must be a finite number, got 'x'"),
        ("theorem", "Z", "check 'splitting' param 'theorem' must be one of A, B, C, E, got 'Z'"),
    ):
        path = _example_with(tmp_path, lambda doc: doc["checks"][0]["params"].update({key: value}))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


def test_check_params_that_contradict_the_scenario_exit_two_before_integration(
    tmp_path, capsys, monkeypatch
):
    # the example config: a family of dimension 2 on the window [0.3, pi]
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    window = "in the window [0.3, 3.14159]"
    for kind, params, message in (
        ("splitting", {"theorem": "C", "k": 0}, "'k' must be a level in 1..2"),
        ("splitting", {"theorem": "E", "k": 3, "alpha": 0.3}, "'k' must be a level in 1..2"),
        ("vanishing-floor", {"k": 5}, "'k' must be a level in 1..2"),
        ("hce", {"psi": [[1.0, 0.0, 0.0]]}, "'psi' must be rows of length 2"),
        ("reduced-boundary", {"psi": [1.0], "alpha": 0.3}, "'psi' must be rows of length 2"),
        ("splitting", {"theorem": "B", "alpha": 0.0}, f"'alpha' must be {window}"),
        ("rigidity", {"alpha": 3.5}, f"'alpha' must be {window}"),
        ("reduced-boundary", {"psi": [1.0, 0.0], "alpha": 0.2}, f"'alpha' must be {window}"),
    ):
        check = {"kind": kind, "params": params, "expect": "verified"}
        path = _example_with(tmp_path, lambda doc: doc.update(checks=[check]))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"check {kind!r} param {message} for this scenario, got" in err, err


def test_hce_tol_must_be_positive_before_integration(tmp_path, capsys, monkeypatch):
    # a negative tol made the resolvability cap complex, a zero tol left no
    # node to check; both are input errors
    for tol in (-1.0, 0.0):
        with pytest.raises(ValueError, match="resolvability tolerance must be positive"):
            js.default_resolvability_cap(1e-3, tol)
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    for tol in (-1.0, 0.0):
        check = {"kind": "hce", "params": {"psi": [[1.0, 0.0]], "tol": tol}, "expect": "verified"}
        path = _example_with(tmp_path, lambda doc: doc.update(checks=[check]))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"check 'hce' param 'tol' must be a finite number above zero, got {tol}" in err


def test_config_field_values_are_validated_before_integration(tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match="sectional curvature must be finite"):
        js.constant_sectional(3, float("nan"))
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    ops = [[1.0, 0.0, 0.0, 1.0]] * 2
    for field, key in (
        ({"kind": "constant-sectional", "n": 3.7, "c": 1.0}, "n"),
        ({"kind": "constant-sectional", "n": "3", "c": 1.0}, "n"),
        ({"kind": "constant-sectional", "n": 3, "c": "1.0"}, "c"),
        ({"kind": "constant-sectional", "n": 3, "c": float("nan")}, "c"),
        ({"kind": "diagonal-constant", "eigs": [1.0, "1.0"]}, "eigs"),
        ({"kind": "diagonal-constant", "eigs": [1.0, float("inf")]}, "eigs"),
        ({"kind": "fubini-study", "n": 4.0}, "n"),
        ({"kind": "sampled", "n": 3.0, "grid": [0.0, 4.0], "ops": ops}, "n"),
    ):
        path = _example_with(tmp_path, lambda doc: doc.update(field=field))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key 'field': {field['kind']!r} field key {key!r} must be" in err, err


@pytest.mark.parametrize("psi", [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]])
def test_rank_deficient_psi_exits_two_before_integration(tmp_path, capsys, monkeypatch, psi):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    for kind, params in (("hce", {}), ("reduced-boundary", {"alpha": 0.3})):
        check = {"kind": kind, "params": {"psi": psi, **params}, "expect": "verified"}
        path = _example_with(tmp_path, lambda doc: doc.update(checks=[check]))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"check {kind!r} param 'psi' must be" in err, err
        assert "linearly independent" in err
    # the rule is reduce's own: it rejects the same basis
    traj = js.integrate(js.get_scenario("hopf-holonomy").family(), step=0.1)
    with pytest.raises(ValueError, match="rank-deficient"):
        js.reduce(traj, np.array(psi, ndmin=2).T)


def _mode_b_and_rigidity(name, fld, yd0):
    """A family from ``Y = I`` and ``yd0`` on ``[0.2, pi]`` at step 1e-3,
    with a mode-B and a rigidity check: every member that is not of sine
    type vanishes inside the window, so B reads verified and rigidity
    hypothesis-violated."""
    alpha = 0.2
    checks = (
        js.CheckSpec("splitting", {"theorem": "B", "alpha": alpha}, "verified"),
        js.CheckSpec("rigidity", {"alpha": alpha}, "hypothesis-violated"),
    )
    return js.Scenario(name, "", fld, alpha, math.pi, np.eye(fld.dim), yd0, checks)


def test_verdict_path_forms_no_full_array(monkeypatch):
    # a diagonal field's splitting, rigidity and vanishing-floor checks read
    # Y and Yd at nodes and the rows' scalar solutions; only reduce and the
    # traces form the full arrays
    kept = []
    real_integrate = js.cli.integrate

    def keeping_integrate(*args, **kwargs):
        kept.append(real_integrate(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(js.cli, "integrate", keeping_integrate)
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 16)))[0]
    slopes = -np.cos(np.linspace(0.3, 2.4, 16)) / np.sin(np.linspace(0.3, 2.4, 16))
    omega = np.sqrt([1.1, 1.15])
    grid = np.linspace(0.2, math.pi, 64)
    entries = 1.06 + 0.04 * np.sin(np.outer(grid, [1.0, 2.0, 3.0]))
    families = [
        _mode_b_and_rigidity(
            "c-identity-d16", js.constant_sectional(17, 1.0), rot @ np.diag(slopes) @ rot.T
        ),
        _mode_b_and_rigidity(
            "diagonal-d3",
            js.diagonal_constant([1.0, 1.1, 1.15]),
            np.diag([1.0 / math.tan(0.2), *(-omega / np.tan(omega * [1.0, 2.0]))]),
        ),
        _mode_b_and_rigidity(
            "sampled-d3",
            js.sampled_field(grid, entries[:, :, None] * np.eye(3)),
            np.diag(-1.0 / np.tan([0.5, 1.2, 2.0])),
        ),
    ]
    plain = [
        sc
        for sc in js.list_scenarios()
        if not any(js.cli.CHECKS[check.kind].reduces for check in sc.checks)
    ]
    for sc in families + plain:
        assert js.run_scenario(sc).all_matched, sc.name
    assert len(kept) == len(families) + len(plain) == 3 + 16
    for traj in kept:
        assert traj.row_solutions is not None
        assert not {"y", "yd"} & vars(traj).keys(), traj.spec.label


@pytest.mark.parametrize("args", [["hopf-holonomy"], ["sphere-zero", "--traces"]])
def test_cli_names_the_step_when_a_full_array_does_not_fit(tmp_path, capsys, monkeypatch, args):
    # reduce and the trajectory trace form Y in full; when it does not fit,
    # the run exits 2 like a grid too large to integrate
    def no_room(traj):
        raise MemoryError

    monkeypatch.setattr(js.JacobiTrajectory, "y", property(no_room))
    assert js.main(["run", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory at step 0.001 (3143 nodes); give a larger --step" in err, err


def test_traced_run_integrates_and_reduces_once(tmp_path, monkeypatch):
    import jacobisplit.cli as cli
    import jacobisplit.jacobi as jacobi
    import jacobisplit.reduction as reduction

    calls = {"integrate": 0, "reduce": [], "riccati": 0}
    real_integrate, real_reduce = cli.integrate, reduction.reduce
    real_riccati = jacobi._riccati_nodes

    def counting_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return real_integrate(*args, **kwargs)

    def counting_reduce(traj, psi_basis, *args, **kwargs):
        calls["reduce"].append(np.asarray(psi_basis).tobytes())
        return real_reduce(traj, psi_basis, *args, **kwargs)

    def counting_riccati(traj):
        calls["riccati"] += 1
        return real_riccati(traj)

    monkeypatch.setattr(cli, "integrate", counting_integrate)
    monkeypatch.setattr(reduction, "reduce", counting_reduce)
    monkeypatch.setattr(jacobi, "_riccati_nodes", counting_riccati)
    assert js.main(["run", "hopf-holonomy", "--traces", "--out", str(tmp_path)]) == 0
    assert calls["integrate"] == 1
    # hce and reduced-boundary name the same psi: one reduction serves both
    # checks and the two reduction traces
    assert len(calls["reduce"]) == len(set(calls["reduce"])) == 1
    # the reduction and the scalar traces read one Riccati series
    assert calls["riccati"] == 1

    n_nodes = json.loads((tmp_path / "hopf-holonomy-report.json").read_text())["n_nodes"]
    d = 2
    traj_cols = ["t"] + [f"y{i}{j}" for i in range(d) for j in range(d)]
    traj_cols += [f"yd{i}{j}" for i in range(d) for j in range(d)]
    expected = {
        "trajectory": (1, traj_cols),
        "scalars": (0, ["t", "regular", "s", "r"]),
        "reduction-0": (0, ["t", "regular", "lift_err", "norm_a", "shat_min", "shat_max"]),
        "reduction-2": (0, ["t", "regular", "lift_err", "norm_a", "shat_min", "shat_max"]),
    }
    for name, (comment_lines, header) in expected.items():
        lines = (tmp_path / f"hopf-holonomy-{name}.csv").read_text().splitlines()
        assert lines[comment_lines].split(",") == header, name
        assert len(lines) == comment_lines + 1 + n_nodes, name


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"step": 0.001,', '"step": 0.001, "step": 0.002,', "step"),
        ('"alpha": 0.3,', '"alpha": 0.3, "alpha": 5.0,', "alpha"),
        ('{"alpha": 0.3}', '{"alpha": 0.3, "alpha": 0.4}', "alpha"),
    ],
)
def test_cli_exit_two_on_a_repeated_config_key(tmp_path, capsys, monkeypatch, old, new, key):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    text = CONFIG.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new))
    assert js.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: config file repeats key {key!r} in one object" in capsys.readouterr().err


def test_cli_exit_two_on_a_repeated_sampled_field_file_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(SAMPLED).replace('"n": 3,', '"n": 3, "n": 2,'))
    field = {"kind": "sampled", "path": str(field_path)}
    path = _example_with(tmp_path, lambda doc: doc.update(field=field))
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config key 'field': sampled-field file repeats key 'n' in one object" in err, err


def test_sampled_field_file_n_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    field_path = tmp_path / "field.json"
    field = {"kind": "sampled", "path": str(field_path)}
    path = _example_with(tmp_path, lambda doc: doc.update(field=field))
    for n in (3.7, "3"):
        ops = [[1.0, 0.0, 0.0, 1.0]] * 2
        field_path.write_text(json.dumps({"n": n, "grid": [0.0, 4.0], "ops": ops}))
        assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config key 'field': sampled-field key 'n' must be an integer, got {n!r}" in err


def _reads_only_the_config(monkeypatch, config):
    """Make every JSON file read but that of ``config`` fail the test."""
    real_read = js.cli.read_json_object

    def read(path, what):
        assert path == config, f"read the {what} {path!r}"
        return real_read(path, what)

    monkeypatch.setattr(js.cli, "read_json_object", read)


SAMPLED = {"n": 3, "grid": [0.0, 4.0], "ops": [[1.0, 0.0, 0.0, 1.0]] * 2}


@pytest.mark.parametrize(
    "field, message",
    [
        ({"path": 0}, "'path' must be a non-empty string, got 0"),
        ({"path": ""}, "'path' must be a non-empty string, got ''"),
        ({"path": ["f.json"]}, "'path' must be a non-empty string, got ['f.json']"),
        ({"path": "f.json", "n": 3}, "'path' excludes n, grid, ops and label"),
        ({"path": "f.json", "grid": [0.0]}, "'path' excludes n, grid, ops and label"),
        ({"path": "f.json", "ops": []}, "'path' excludes n, grid, ops and label"),
        ({"path": "f.json", "label": "x"}, "'path' excludes n, grid, ops and label"),
        ({**SAMPLED, "label": 5}, "'label' must be a string, got 5"),
    ],
)
def test_sampled_field_path_is_checked_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, field, message
):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    path = _example_with(tmp_path, lambda doc: doc.update(field={"kind": "sampled", **field}))
    _reads_only_the_config(monkeypatch, path)
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config key 'field': 'sampled' field key {message}" in err, err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"foo": 1}, "unknown sampled-field key 'foo' (known: kind, n, grid, ops, label)"),
        ({"path": "f.json"}, "unknown sampled-field key 'path' (known: kind, n, grid, ops, label)"),
        ({"kind": "x"}, "sampled-field key 'kind' must be 'sampled', got 'x'"),
        ({"label": 5}, "sampled-field key 'label' must be a string, got 5"),
    ],
)
def test_sampled_field_file_keys_pass_the_inline_rules(
    tmp_path, capsys, monkeypatch, extra, message
):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({**SAMPLED, **extra}))
    field = {"kind": "sampled", "path": str(field_path)}
    path = _example_with(tmp_path, lambda doc: doc.update(field=field))
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config key 'field': {message}" in err, err


def test_sampled_field_file_with_kind_and_label_loads(tmp_path):
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({"kind": "sampled", **SAMPLED, "label": "file"}))
    path = _example_with(
        tmp_path, lambda doc: doc.update(field={"kind": "sampled", "path": str(field_path)})
    )
    scenario = js.scenario_from_config(path)
    assert scenario.fld.label == "file"
    assert np.array_equal(scenario.fld.matrix(2.0), np.eye(2))


def test_cli_exit_two_when_the_field_does_not_fit_in_memory(tmp_path, capsys, monkeypatch):
    # "n": 1000000 asks for a 7 TiB identity; raise instead of allocating it
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(js.cli, "constant_sectional", out_of_memory)
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    path = _example_with(tmp_path, lambda doc: doc["field"].update(n=1000000))
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "error: config key 'field': out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("grid, bad", [([0.0, float("nan"), 4.0], 1), ([0.0, 2.0, float("inf")], 2)])
def test_sampled_field_grid_times_must_be_finite(tmp_path, capsys, monkeypatch, grid, bad):
    monkeypatch.setattr(js.cli, "integrate", _no_integration)
    field = {"kind": "sampled", "n": 3, "grid": grid, "ops": [[1.0, 0.0, 0.0, 1.0]] * 3}
    path = _example_with(tmp_path, lambda doc: doc.update(field=field))
    assert js.main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config key 'field': grid time {bad} is not finite" in err, err


def _counting_exports(monkeypatch) -> list:
    paths = []
    real_export = js.cli.export_reduction_csv

    def counting_export(rs, path):
        paths.append(path)
        return real_export(rs, path)

    monkeypatch.setattr(js.cli, "export_reduction_csv", counting_export)
    return paths


def test_checks_on_one_psi_share_one_reduction_table(tmp_path, monkeypatch):
    exports = _counting_exports(monkeypatch)
    assert js.main(["run", "hopf-holonomy", "--traces", "--out", str(tmp_path)]) == 0
    assert exports == [str(tmp_path / "hopf-holonomy-reduction-0.csv")]
    first = (tmp_path / "hopf-holonomy-reduction-0.csv").read_bytes()
    assert first == (tmp_path / "hopf-holonomy-reduction-2.csv").read_bytes()


def test_checks_on_different_psi_write_their_own_tables(tmp_path, monkeypatch):
    hopf = js.get_scenario("hopf-holonomy")
    doc = {
        "name": "two-psi",
        "field": {"kind": "constant-sectional", "n": 3, "c": 1.0},
        "alpha": hopf.alpha,
        "end": hopf.end,
        "y0": hopf.y0.tolist(),
        "yd0": hopf.yd0.tolist(),
        "step": hopf.step,
        "checks": [
            {"kind": "hce", "params": {"psi": psi}, "expect": "verified"}
            for psi in ([[1.0, 0.0]], [[0.0, 1.0]])
        ],
    }
    config = tmp_path / "two-psi.json"
    config.write_text(json.dumps(doc))
    exports = _counting_exports(monkeypatch)
    assert js.main(["run", "--config", str(config), "--traces", "--out", str(tmp_path)]) == 0
    assert len(exports) == 2
    tables = [(tmp_path / f"two-psi-reduction-{i}.csv").read_bytes() for i in range(2)]
    assert tables[0] != tables[1]
