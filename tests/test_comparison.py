"""Tests for scalar traces, the anchored unit model, and rigidity verdicts."""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jacobisplit as js
from jacobisplit import comparison


# ---------------------------------------------------------------- traces


def test_scalar_traces_sphere(trajs):
    tr = js.scalar_traces(trajs("sphere-zero"))
    assert not tr.regular[0] and not tr.regular[-1]
    t = tr.times[tr.regular]
    assert np.max(np.abs(tr.s[tr.regular] - np.cos(t) / np.sin(t))) <= 1e-6
    assert np.max(np.abs(tr.r[tr.regular] - 1.0)) <= 1e-6
    assert np.max(np.abs(tr.s0sq[tr.regular])) <= 1e-9
    assert np.isnan(tr.s[0]) and np.isnan(tr.r[-1])


def test_scalar_traces_flat(trajs):
    tr = js.scalar_traces(trajs("flat-parallel"))
    assert tr.regular.all()
    assert np.max(np.abs(tr.s)) <= 1e-12
    assert np.max(np.abs(tr.r)) <= 1e-12


def test_scalar_traces_cp2_closed_form(trajs):
    # S = diag(2 cot 2t, cot t, cot t), tr R = 6
    tr = js.scalar_traces(trajs("cp2-zero"))
    m = (
        tr.regular
        & (np.abs(tr.times - math.pi / 2) > 0.05)
        & (tr.times > 0.05)
        & (tr.times < math.pi - 0.05)
    )
    t = tr.times[m]
    c2, c1 = np.cos(2 * t) / np.sin(2 * t), np.cos(t) / np.sin(t)
    s_exact = (2 * c2 + 2 * c1) / 3.0
    s0sq_exact = (4 * c2**2 + 2 * c1**2) - (2 * c2 + 2 * c1) ** 2 / 3.0
    assert np.max(np.abs(tr.s[m] - s_exact)) <= 1e-6
    assert np.max(np.abs(tr.r[m] - (6.0 + s0sq_exact) / 3.0)) <= 1e-6
    # the effective curvature never drops below the weakest eigenvalue pair
    assert np.nanmin(tr.r[tr.regular]) >= 2.0 - 1e-9
    assert np.nanmin(tr.r[tr.regular]) == pytest.approx(2.0, abs=1e-5)


def test_scalar_traces_need_a_regular_node():
    # Y(t) = [[1, t], [0, 0]]: independent members, singular at every node
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 0.0),
        alpha=0.0,
        end=1.0,
        y0=[[1.0, 0.0], [0.0, 0.0]],
        yd0=[[0.0, 1.0], [0.0, 0.0]],
    )
    traj = js.integrate(spec)
    assert not traj.regular.any()
    with pytest.raises(ValueError, match="no regular nodes"):
        js.scalar_traces(traj)


# ---------------------------------------------------------------- model


def test_model_solution_anchoring():
    flat_anchor = js.model_solution(math.pi / 2, 0.0)
    assert flat_anchor.shift == pytest.approx(0.0, abs=1e-15)
    assert flat_anchor.asymptote is None and flat_anchor.side is None
    assert flat_anchor.branch == pytest.approx((0.0, math.pi))

    tilted = js.model_solution(math.pi / 2, math.tan(math.pi / 12))
    assert tilted.shift == pytest.approx(math.pi / 12)
    assert tilted.asymptote == pytest.approx(math.pi / 12)
    assert tilted.side == "left"

    falling = js.model_solution(math.pi / 2, -1.0)
    assert falling.shift == pytest.approx(-math.pi / 4)
    assert falling.asymptote == pytest.approx(3 * math.pi / 4)
    assert falling.side == "right"


def test_model_solution_interpolates_anchor():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t0 = rng.uniform(0.05, math.pi - 0.05)
        s0 = float(rng.standard_cauchy())
        model = js.model_solution(t0, s0)
        assert abs(model.value(t0) - s0) <= 1e-12 * max(1.0, abs(s0))


def test_model_solution_derivative_identity():
    model = js.model_solution(1.0, 0.7)
    lo, hi = model.branch
    ts = np.linspace(lo + 0.05, hi - 0.05, 100)
    f = model.value(ts)
    h = 3e-5

    def spread(k):
        return model.value(ts + k * h) - model.value(ts - k * h)

    df = (8.0 * spread(1) - spread(2)) / (12.0 * h)  # fourth-order central difference
    assert np.max(np.abs(df + (1.0 + f**2)) / (1.0 + f**2)) <= 1e-10


def test_model_solution_rejects_bad_anchor():
    with pytest.raises(ValueError, match="anchor time"):
        js.model_solution(0.0, 1.0)
    with pytest.raises(ValueError, match="anchor time"):
        js.model_solution(math.pi, 1.0)
    with pytest.raises(ValueError, match="finite"):
        js.model_solution(1.0, math.inf)


# ---------------------------------------------------------------- comparison


def anchor_indices(trace, count=20):
    reg = np.nonzero(trace.regular)[0]
    return [reg[int(q * (reg.size - 1))] for q in np.linspace(0.1, 0.9, count)]


def _loop_stretch(mask, j0):
    """The node loop ``comparison._regular_stretch`` replaced: the reference."""
    lo = j0
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = j0 + 1
    while hi < mask.size and mask[hi]:
        hi += 1
    return lo, hi


def test_regular_stretch_matches_node_loop():
    rng = np.random.default_rng(3)
    masks = [np.ones(9, bool), np.zeros(9, bool), np.ones(1, bool), np.zeros(1, bool)]
    masks += [rng.random(size) < p for size in (2, 5, 40) for p in (0.2, 0.5, 0.9) for _ in range(20)]
    for mask in masks:
        for j0 in range(mask.size):  # every anchor, the ends and singular nodes included
            assert comparison._regular_stretch(mask, j0) == _loop_stretch(mask, j0)


def test_comparison_sphere_anchors(trajs):
    tr = js.scalar_traces(trajs("sphere-zero"))
    for j in anchor_indices(tr):
        rep = js.comparison_check(tr, float(tr.times[j]))
        assert rep.hypothesis_ok and rep.r_min == pytest.approx(1.0, abs=1e-6)
        assert rep.left_ok and rep.right_ok
        assert rep.max_violation <= 1e-6
        assert rep.n_left + rep.n_right > 0
        # the round family matches its own model: any pole sits at the edge
        assert abs(rep.model.shift) <= 1e-9


def test_comparison_cp2_strict_margins(trajs):
    tr = js.scalar_traces(trajs("cp2-zero"))
    for j in anchor_indices(tr):
        rep = js.comparison_check(tr, float(tr.times[j]))
        assert rep.hypothesis_ok
        assert rep.left_ok and rep.right_ok


def test_comparison_flat_hypothesis_fails(trajs):
    tr = js.scalar_traces(trajs("flat-parallel"))
    rep = js.comparison_check(tr, 1.5)
    assert not rep.hypothesis_ok
    assert rep.r_min == pytest.approx(0.0, abs=1e-12)
    # with the hypothesis broken the conclusion fails too: s = 0 sits above
    # the model once cot turns negative
    assert not rep.right_ok
    assert rep.max_violation > 1.0


def test_comparison_anchor_errors(trajs):
    tr = js.scalar_traces(trajs("sphere-zero"))
    with pytest.raises(ValueError, match="node grid"):
        js.comparison_check(tr, math.pi + 1.0)
    with pytest.raises(ValueError, match="singular"):
        js.comparison_check(tr, 0.0)


def test_comparison_report_dict(trajs):
    tr = js.scalar_traces(trajs("sphere-zero"))
    rep = js.comparison_check(tr, 1.5)
    assert rep.hypothesis_ok and rep.left_ok and rep.right_ok
    assert abs(rep.model.shift) <= 1e-9


# ---------------------------------------------------------------- rigidity


def _gates_passed(rep) -> bool:
    return all(flag["passed"] for flag in rep.hypothesis_flags.values())


def test_rigidity_round_family_verified(trajs):
    rep = js.rigidity_check(trajs("sphere-zero"), alpha=0.0)
    assert rep.verdict == "verified"
    assert (rep.theorem, rep.dim_z, rep.dim_p) == ("E", 0, 2)
    assert rep.residual_span <= 1e-6 and rep.max_r_dev <= 1e-4
    assert _gates_passed(rep)
    assert rep.hypothesis_flags["ric_k_floor"]["k"] == 2


def test_rigidity_shifted_start_verified():
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 1.0),
        alpha=0.3,
        end=2.8,
        y0=math.sin(0.3) * np.eye(2),
        yd0=math.cos(0.3) * np.eye(2),
    )
    rep = js.rigidity_check(js.integrate(spec))
    assert rep.verdict == "verified"
    assert rep.residual_span <= 1e-12


def test_rigidity_fine_step_near_the_end_zero_is_not_falsified():
    # the sine test sin(t) Y' - cos(t) Y divides by nothing, so the last
    # interior node, where sin(t) is about the step, is read like any other
    alpha = math.pi - 0.01
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 1.0),
        alpha=alpha,
        end=math.pi,
        y0=math.sin(alpha) * np.eye(2),
        yd0=math.cos(alpha) * np.eye(2),
    )
    assert js.rigidity_check(js.integrate(spec, step=3e-7)).verdict != "falsified"


def test_rigidity_flat_floor_fails(trajs):
    rep = js.rigidity_check(trajs("flat-parallel"))
    assert rep.verdict == "hypothesis-violated"
    floor = rep.hypothesis_flags["ric_k_floor"]
    assert not floor["passed"]
    assert (floor["k"], floor["value"], floor["threshold"]) == (3, 0.0, 3.0)
    assert rep.max_r_dev is None


def test_rigidity_nonselfadjoint_fails(trajs):
    rep = js.rigidity_check(trajs("example-nonselfadjoint"))
    assert rep.verdict == "hypothesis-violated"
    assert not rep.hypothesis_flags["self_adjoint"]["passed"]


def test_rigidity_shifted_sine_boundary_fails(trajs):
    traj = trajs("example-shifted-sine")
    rep = js.rigidity_check(traj, alpha=traj.alpha)
    assert rep.verdict == "hypothesis-violated"
    assert not rep.hypothesis_flags["boundary_eig"]["passed"]
    assert rep.hypothesis_flags["boundary_eig"]["value"] == pytest.approx(math.tan(math.pi / 12))


def test_rigidity_interior_zero_fails(trajs):
    rep = js.rigidity_check(trajs("cp2-zero"))
    assert rep.verdict == "hypothesis-violated"
    dim = rep.hypothesis_flags["dim_condition"]
    assert not dim["passed"] and dim["limit"] == 0 and dim["dim_z"] >= 1
    assert rep.zero_times[0][1] == pytest.approx(math.pi / 2, abs=1e-6)


def test_rigidity_falsified_on_slack_family():
    # a sub-model family passes every gate but is not the round model, so
    # the mechanical conclusion check must report the discrepancy
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 1.0),
        alpha=0.3,
        end=2.5,
        y0=math.sin(0.5) * np.eye(2),
        yd0=math.cos(0.5) * np.eye(2),
    )
    rep = js.rigidity_check(js.integrate(spec))
    assert rep.verdict == "falsified"
    assert _gates_passed(rep)
    assert rep.dim_p < 2 and rep.completeness["dims_sum"] < 2
    assert rep.max_r_dev == pytest.approx(0.0)


def test_rigidity_falsified_when_the_field_is_not_the_identity():
    # constant curvature 1 + 1e-3 passes the trace floor, and the sine-type
    # members of the unit model are close enough to count, yet R != id
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 1.0 + 1e-3),
        alpha=0.0,
        end=1e-3,
        y0=np.zeros((2, 2)),
        yd0=np.eye(2),
    )
    rep = js.rigidity_check(js.integrate(spec, step=1e-5))
    assert _gates_passed(rep) and rep.dim_p == 2
    assert rep.max_r_dev == pytest.approx(1e-3)
    assert rep.verdict == "falsified"


# ---------------------------------------------------------------- export


def test_export_scalar_csv(tmp_path, trajs):
    tr = js.scalar_traces(trajs("sphere-zero"))
    path = tmp_path / "trace.csv"
    js.export_scalar_csv(tr, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["t", "regular", "s", "r"]
    assert len(rows) == tr.times.size
    assert rows[0]["regular"] == "0" and math.isnan(float(rows[0]["s"]))
    j = 1500
    assert float(rows[j]["t"]) == pytest.approx(tr.times[j])
    assert float(rows[j]["s"]) == pytest.approx(tr.s[j])
    assert float(rows[j]["r"]) == pytest.approx(tr.r[j])
