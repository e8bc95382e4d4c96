"""Tests for the splitting gates, structured spans, and verdict logic.

The full-array span ``_span_full`` is the reference for the streamed span
tests of ``sine_span`` and ``parallel_span``: the same Gram candidates and
max-node residuals, from the whole ``(N, d, d)`` test at once.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_jacobi import _d16_family

import jacobisplit as js
from jacobisplit import cli, splitting
from jacobisplit.jacobi import _CHUNK
from jacobisplit.splitting import splitting_verdict


EPS = math.pi / 12.0
# The streamed test sums its rows in another order, which moves a normalized
# value near zero (an accepted residual, a basis entry) by a few d eps.
ROUNDOFF = 1e-14


# ---------------------------------------------------------------- gates


def test_self_adjoint_gate(trajs):
    good = js.self_adjoint_gate(trajs("sphere-zero"))
    assert good["passed"] and good["defect"] <= 1e-12

    bad = js.self_adjoint_gate(trajs("example-nonselfadjoint"))
    assert not bad["passed"]
    assert bad["defect"] == pytest.approx(2.0, abs=1e-12)


def test_boundary_gate_at_zero_is_vacuous(trajs):
    out = js.boundary_eigenvalue_gate(trajs("sphere-zero"), 0.0)
    assert out["passed"] and out["bound"] == math.inf


def test_boundary_gate_outside_the_window_raises(trajs):
    # the window starts at pi/2: alpha = 0 is not a cot(0+) pass there
    traj = trajs("example-shifted-sine")
    with pytest.raises(ValueError, match=r"alpha=0 lies outside the window \[1\.5707"):
        js.boundary_eigenvalue_gate(traj, 0.0)
    with pytest.raises(ValueError, match="outside the window"):
        js.rigidity_check(traj, alpha=0.0)
    with pytest.raises(ValueError, match="outside the window"):
        js.boundary_eigenvalue_gate(traj, traj.end + traj.step)
    # within half a step of an end the gate reads the nearest node
    assert js.boundary_eigenvalue_gate(traj, traj.alpha - 0.4 * traj.step)["value"] is not None


def test_boundary_gate_shifted_sine_fails(trajs):
    traj = trajs("example-shifted-sine")
    out = js.boundary_eigenvalue_gate(traj, traj.alpha)
    assert not out["passed"]
    assert out["value"] == pytest.approx(math.tan(EPS), abs=1e-8)
    assert out["margin"] == pytest.approx(-math.tan(EPS), abs=1e-5)


def test_boundary_gate_quotient_restriction():
    spec = js.FamilySpec(
        field=js.constant_sectional(3, 1.0),
        alpha=0.0,
        end=math.pi,
        y0=np.diag([1.0, 0.0]),
        yd0=np.diag([0.0, 1.0]),
    )
    traj = js.integrate(spec)
    # Y(pi/2) = diag(0, 1): rank-one image, restricted operator is 0
    out = js.boundary_eigenvalue_gate(traj, math.pi / 2.0)
    assert out["passed"]
    assert out["value"] == pytest.approx(0.0, abs=1e-9)
    assert "quotient" in out["note"]
def test_boundary_gate_trivial_image(trajs):
    # sphere family Y = sin(t) I: at t = pi there is nothing to restrict to
    out = js.boundary_eigenvalue_gate(trajs("sphere-zero"), math.pi)
    assert not out["passed"]
    assert "trivial image" in out["note"]


# ---------------------------------------------------------------- spans


def test_parallel_span_flat_is_full(trajs):
    span = js.parallel_span(trajs("flat-parallel"))
    assert span.basis.shape == (3, 3)
    assert span.rejected_residual is None
    assert np.max(span.residuals) <= 1e-12


def test_parallel_span_sphere_is_trivial(trajs):
    span = js.parallel_span(trajs("sphere-zero"))
    assert span.basis.shape[1] == 0
    assert span.rejected_residual > 0.9


def test_parallel_span_product_factor(trajs):
    span = js.parallel_span(trajs("product-s2xr2"))
    assert span.basis.shape[1] == 2
    # spanned by the flat-factor directions e2, e3
    proj = span.basis @ span.basis.T
    assert_allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-9)


def test_sine_span_sphere_is_full(trajs):
    span = js.sine_span(trajs("sphere-zero"))
    assert span.basis.shape == (2, 2)
    assert np.max(span.residuals) <= 1e-6


def test_sine_span_cp2(trajs):
    span = js.sine_span(trajs("cp2-zero"))
    assert span.basis.shape[1] == 2
    proj = span.basis @ span.basis.T
    assert_allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-6)
    # the double-frequency direction is firmly rejected
    assert span.rejected_residual > 0.1


def test_sine_span_shifted_sine_rejected(trajs):
    span = js.sine_span(trajs("example-shifted-sine"))
    assert span.basis.shape[1] == 0
    assert span.rejected_residual == pytest.approx(math.sin(EPS), abs=2e-3)


def _span_full(test_mats, scale):
    """(basis, residuals, rejected residual) of the near-null space of the
    whole test array ``test_mats`` of shape (N, d, d)."""
    d = test_mats.shape[2]
    flat = test_mats.reshape(-1, d)
    _, vecs = js.spectrum((flat.T @ flat) / test_mats.shape[0])
    accepted, residuals, rejected = [], [], None
    for v in vecs.T:
        res = float(np.max(np.linalg.norm(test_mats @ v, axis=1))) / scale
        if res > splitting.TOL_SPAN:
            rejected = res
            break
        accepted.append(v)
        residuals.append(res)
    basis = np.column_stack(accepted) if accepted else np.zeros((d, 0))
    return basis, residuals, rejected


def _assert_spans_match_full(traj):
    sine = np.sin(traj.times)[:, None, None] * traj.yd - np.cos(traj.times)[:, None, None] * traj.y
    for span, test in [(js.sine_span(traj), sine), (js.parallel_span(traj), traj.yd)]:
        basis, residuals, rejected = _span_full(test, traj.stacked_bound)
        assert_allclose(span.basis, basis, rtol=1e-12, atol=ROUNDOFF)
        assert_allclose(span.residuals, residuals, rtol=1e-12, atol=ROUNDOFF)
        if rejected is None:
            assert span.rejected_residual is None
        else:
            assert span.rejected_residual == pytest.approx(rejected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", [sc.name for sc in js.list_scenarios()] + ["d16"])
def test_spans_match_the_full_array(trajs, name):
    _assert_spans_match_full(_d16_family(4e-4) if name == "d16" else trajs(name))


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
def test_spans_match_the_full_array_on_walks(n):
    # random matrix walks with one sine-type member (column 0) and one
    # parallel member (column 1), so each span accepts a candidate and
    # rejects the next, across every chunk layout
    rng = np.random.default_rng(n)
    d = 4
    h = 1e-3
    times = 0.3 + h * np.arange(n)
    y, yd = np.eye(d) + np.cumsum(0.05 * rng.standard_normal((2, n, d, d)), axis=1)
    u = 1.0 + np.cumsum(0.05 * rng.standard_normal((n, d)), axis=0)
    y[:, :, 0] = np.sin(times)[:, None] * u
    yd[:, :, 0] = np.cos(times)[:, None] * u
    yd[:, :, 1] = 0.0
    traj = js.JacobiTrajectory(None, h, times, y, yd)
    _assert_spans_match_full(traj)
    assert js.sine_span(traj).basis.shape[1] == 1
    assert js.parallel_span(traj).basis.shape[1] == 1


@pytest.mark.parametrize("span", ["sine", "parallel"])
def test_span_rejects_a_violation_at_the_last_node(span):
    # the test vanishes at every node but the last one, which is the last
    # node of the short final chunk; the max-node residual must see it
    n, d, h = 2 * _CHUNK + 5, 3, 4e-4
    times = 0.2 + h * np.arange(n)
    if span == "sine":
        y = np.sin(times)[:, None, None] * np.eye(d)
        yd = np.cos(times)[:, None, None] * np.eye(d)
        y[-1, 0, 0] += 1e-3
    else:
        y = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        yd = np.zeros((n, d, d))
        yd[-1, 0, 0] = 1e-3
    traj = js.JacobiTrajectory(None, h, times, y, yd)
    out = js.sine_span(traj) if span == "sine" else js.parallel_span(traj)
    assert out.basis.shape[1] == d - 1
    assert_allclose(np.abs(out.basis[0]), 0.0, atol=1e-12)
    assert out.rejected_residual > 1e-4
    _assert_spans_match_full(traj)


@pytest.mark.parametrize(
    "span, eigs, y0, yd0",
    [
        # Y = diag(1, sinh(10 t) / 10) Q: the member Q^T e1 is parallel
        ("parallel", [0.0, -100.0], [1.0, 0.0], [0.0, 1.0]),
        # Y = diag(sin t, cosh(10 t)) Q: the member Q^T e1 is sin(t) e1
        ("sine", [1.0, -100.0], [0.0, 1.0], [1.0, 0.0]),
    ],
)
def test_spans_keep_a_rotated_member_of_a_growing_family(span, eigs, y0, yd0):
    # the other member grows like e^30, and the rotation leaves roundoff of
    # eps times its size in the kept member's residual: about 1e-3 of the
    # size at the window start, 1e-16 of the size over the grid
    th = 0.7
    q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    spec = js.FamilySpec(js.diagonal_constant(eigs), 0.0, 3.0, np.diag(y0) @ q, np.diag(yd0) @ q)
    traj = js.integrate(spec)
    out = js.sine_span(traj) if span == "sine" else js.parallel_span(traj)
    assert out.basis.shape == (2, 1)
    assert abs(out.basis[:, 0] @ q[0]) == pytest.approx(1.0, abs=1e-12)
    assert out.residuals[0] < 1e-12
    _assert_spans_match_full(traj)


def test_spans_memory_stays_off_the_trajectory_scale():
    # the span tests are streamed: at most two chunks of the d = 16 test
    # (sin(t) Yd and cos(t) Y) are live at once, whatever the node count
    traj = _d16_family(4e-4)
    js.check_splitting(traj, "B", alpha=traj.alpha)  # warm the caches
    tracemalloc.start()
    try:
        js.sine_span(traj), js.parallel_span(traj)
        js.check_splitting(traj, "B", alpha=traj.alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * _CHUNK * traj.y[0].nbytes < 0.4 * traj.y.nbytes


def test_vanishing_span_windows(trajs):
    sphere = trajs("sphere-zero")
    assert js.vanishing_span(sphere).shape == (2, 2)
    assert js.vanishing_span(sphere, open_ends=True).shape == (2, 0)

    cp2 = trajs("cp2-zero")
    vs = js.vanishing_span(cp2, open_ends=True)
    assert vs.shape == (3, 1)
    assert_allclose(np.abs(vs[:, 0]), [1.0, 0.0, 0.0], atol=1e-6)


# ---------------------------------------------------------------- check_splitting


def test_check_splitting_parameter_errors(trajs):
    traj = trajs("sphere-zero")
    with pytest.raises(ValueError, match="unknown splitting mode"):
        js.check_splitting(traj, "Q")
    with pytest.raises(ValueError, match="requires alpha"):
        js.check_splitting(traj, "B")
    with pytest.raises(ValueError, match="requires k"):
        js.check_splitting(traj, "C")
    with pytest.raises(ValueError, match="out of range"):
        js.check_splitting(traj, "C", k=3)


def test_splitting_product_mode_a(trajs):
    rep = js.check_splitting(trajs("product-s2xr2"), "A")
    assert rep.verdict == "verified"
    assert (rep.dim_z, rep.dim_p) == (1, 2)
    assert_allclose(np.abs(rep.z_basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-8)
    assert [t for _, t in rep.zero_times] == pytest.approx([0.0, math.pi], abs=1e-9)
    assert rep.residual_orth <= 1e-6
    assert not rep.open_ends
    assert rep.completeness["dims_sum"] == 3


def test_splitting_sphere_mode_a(trajs):
    rep = js.check_splitting(trajs("sphere-zero"), "A")
    assert rep.verdict == "verified"
    assert (rep.dim_z, rep.dim_p) == (2, 0)


def test_splitting_sphere_mode_b(trajs):
    rep = js.check_splitting(trajs("sphere-zero"), "B", alpha=0.0)
    assert rep.verdict == "verified"
    assert (rep.dim_z, rep.dim_p) == (0, 2)
    assert rep.open_ends


def test_splitting_flat_modes_a_and_c(trajs):
    flat = trajs("flat-parallel")
    rep_a = js.check_splitting(flat, "A")
    assert rep_a.verdict == "verified" and (rep_a.dim_z, rep_a.dim_p) == (0, 3)
    rep_c = js.check_splitting(flat, "C", k=1)
    assert rep_c.verdict == "verified"
    assert rep_c.hypothesis_flags["dim_condition"]["limit"] == 2


def test_splitting_cp2_mode_b(trajs):
    rep = js.check_splitting(trajs("cp2-zero"), "B", alpha=0.0)
    assert rep.verdict == "verified"
    assert (rep.dim_z, rep.dim_p) == (1, 2)
    assert len(rep.zero_times) == 1
    assert rep.zero_times[0][1] == pytest.approx(math.pi / 2.0, abs=1e-4)
    assert rep.residual_orth <= 1e-6
    assert rep.hypothesis_flags["ric_k_floor"]["value"] == pytest.approx(1.0)


def test_splitting_cp2_mode_e(trajs):
    rep = js.check_splitting(trajs("cp2-zero"), "E", k=2, alpha=0.0)
    assert rep.verdict == "verified"
    flags = rep.hypothesis_flags
    assert flags["ric_k_floor"]["value"] == pytest.approx(2.0)
    assert flags["dim_condition"]["limit"] == 1
    assert rep.dim_z == 1


def test_splitting_nonselfadjoint_gates_out(trajs):
    rep = js.check_splitting(trajs("example-nonselfadjoint"), "B", alpha=0.0)
    assert rep.verdict == "hypothesis-violated"
    assert not rep.hypothesis_flags["self_adjoint"]["passed"]


def test_splitting_shifted_sine_gates_out(trajs):
    traj = trajs("example-shifted-sine")
    rep = js.check_splitting(traj, "B", alpha=traj.alpha)
    assert rep.verdict == "hypothesis-violated"
    assert not rep.hypothesis_flags["boundary_eig"]["passed"]
    # the conclusion layer also has nothing: both structured spans trivial
    assert (rep.dim_z, rep.dim_p) == (0, 0)


def test_verdict_falsified_when_conclusion_layer_inconsistent(trajs, monkeypatch):
    # with a nonsense span tolerance every candidate is accepted, making
    # dim_z + dim_p exceed the family dimension while all gates still pass
    monkeypatch.setattr(splitting, "TOL_SPAN", 1e9)
    rep = js.check_splitting(trajs("sphere-zero"), "A")
    assert rep.verdict == "falsified"
    assert rep.completeness["dims_sum"] > rep.completeness["expected"]


def test_splitting_report_dict_is_jsonable(trajs):
    _, details = splitting_verdict(trajs("product-s2xr2"), {"theorem": "A"}, None)
    blob = json.dumps(cli._jsonable(details), sort_keys=True)
    assert '"verdict": "verified"' in blob


def test_verified_reports_have_sound_geometry(trajs):
    # on every verified report the stacked basis is honestly full rank and
    # member families stay pointwise orthogonal
    for name, mode, kwargs in [
        ("product-s2xr2", "A", {}),
        ("cp2-zero", "B", {"alpha": 0.0}),
        ("cp2-zero", "E", {"alpha": 0.0, "k": 2}),
        ("flat-parallel", "A", {}),
    ]:
        rep = js.check_splitting(trajs(name), mode, **kwargs)
        assert rep.verdict == "verified"
        assert rep.completeness["stacked_sigma_min"] >= 1e-8
        assert rep.residual_orth <= 1e-6
