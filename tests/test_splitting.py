"""Tests for the splitting gates, structured spans, and verdict logic."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jacobisplit as js
from jacobisplit import cli
from jacobisplit.splitting import splitting_verdict


EPS = math.pi / 12.0


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


def test_verdict_falsified_when_conclusion_layer_inconsistent(trajs):
    # with a nonsense span tolerance every candidate is accepted, making
    # dim_z + dim_p exceed the family dimension while all gates still pass
    rep = js.check_splitting(trajs("sphere-zero"), "A", tol_span=1e9)
    assert rep.verdict == "falsified"
    assert rep.completeness["dims_sum"] > rep.completeness["expected"]


def test_splitting_report_dict_is_jsonable(trajs):
    _, details = splitting_verdict(trajs("product-s2xr2"), {"theorem": "A"}, {})
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
