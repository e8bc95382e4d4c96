"""Tests for quotient reductions, the corrected horizontal equation, and
the reduced boundary comparison.

The node loop ``_loop_reduce`` is the reference for the whole-array
``reduce``: the same formulas, one node at a time, with a least-squares
lift per node. It factors each node's ``Y psi`` by QR, as ``reduce`` does,
for the outputs that depend on the basis, or by the SVD, an independent
route to those that do not. The reduced operator it takes from the
per-node S; the lift gives a second value of it, an oracle that agrees to
roundoff.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jacobisplit as js


E1 = np.array([1.0, 0.0])


def _loop_reduce(traj, psi, factor, rank_tol=1e-8, lift_tol=1e-6):
    """Per-node reduction by ``psi`` (orthonormal (d, p) columns): a node is
    regular when V(t) has full rank and the lift of BH through Y leaves a
    residual of at most ``lift_tol``. Each node's ``Y psi`` is factored by
    ``factor``: ``"qr"``, the complete QR whose first p columns of Q span
    V(t), with ``Gamma = psi R_p^-1``; or ``"svd"``, the full SVD whose
    first p left singular vectors span it, with ``Gamma = psi W Sigma^-1``.
    Either ``Y Gamma`` is an orthonormal basis of V(t). There the reduced
    operator is ``BH^T S BH`` with S from one solve, and ``shat_lift`` the
    lift's ``BH^T Yd C``."""
    d, p = psi.shape
    n = traj.n_nodes
    out = {
        "regular": np.zeros(n, dtype=bool),
        "ph": np.full((n, d, d), np.nan),
        "bh": np.full((n, d, d - p), np.nan),
        "shat_bh": np.full((n, d - p, d - p), np.nan),
        "shat_lift": np.full((n, d - p, d - p), np.nan),
        "s_norm": np.full(n, np.nan),
        "shat_amb": np.full((n, d, d), np.nan),
        "a_amb": np.full((n, d, p), np.nan),
        "aastar": np.full((n, d, d), np.nan),
        "lift_err": np.full(n, np.nan),
    }
    v_mask = np.ones(n, dtype=bool)
    if p:
        sig_all = np.linalg.svd(np.einsum("nij,jk->nik", traj.y, psi), compute_uv=False)
        v_mask = sig_all[:, -1] >= rank_tol * max(float(sig_all.max()), 1e-300)
    for j in range(n):
        if not v_mask[j]:
            continue
        basis, gamma = np.eye(d), np.zeros((d, 0))
        if p and factor == "qr":
            basis, r = np.linalg.qr(traj.y[j] @ psi, mode="complete")
            gamma = psi @ np.linalg.inv(r[:p])
        elif p:
            basis, sig, wt = np.linalg.svd(traj.y[j] @ psi)
            gamma = psi @ wt.T @ np.diag(1.0 / sig)
        pv_j, bh_j = basis[:, :p] @ basis[:, :p].T, basis[:, p:]
        ph_j = np.eye(d) - pv_j
        c, *_ = np.linalg.lstsq(traj.y[j], bh_j, rcond=None)
        resid = traj.y[j] @ c - bh_j
        err = float(np.linalg.norm(resid, axis=0).max()) if d - p else 0.0
        out["ph"][j], out["bh"][j], out["lift_err"][j] = ph_j, bh_j, err
        if err > lift_tol:
            continue
        out["regular"][j] = True
        s_j = np.linalg.solve(traj.y[j].T, traj.yd[j].T).T
        s_bh = bh_j.T @ s_j @ bh_j
        out["shat_bh"][j], out["shat_lift"][j] = s_bh, bh_j.T @ traj.yd[j] @ c
        out["s_norm"][j] = np.linalg.norm(s_j, 2)
        out["shat_amb"][j] = bh_j @ s_bh @ bh_j.T
        a_j = ph_j @ traj.yd[j] @ gamma
        out["a_amb"][j] = a_j
        out["aastar"][j] = a_j @ a_j.T
    return out


def _assert_matches(rs, ref, keys, nodes):
    """Each of ``keys`` agrees with the loop's to 1e-12 of its size (or of
    1) at ``nodes``."""
    for key in keys:
        got, want = getattr(rs, key)[nodes], ref[key][nodes]
        scale = np.abs(want).max(axis=(1, 2), initial=0.0)[:, None, None]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1.0)), key


def _time_varying_trajectory():
    """hopf-holonomy's initial data on a sampled field that varies in time."""
    times = np.linspace(0.0, math.pi, 41)
    bend = np.array([[1.0, 0.5], [0.5, -1.0]])
    fld = js.sampled_field(times, [np.eye(2) + 0.2 * math.sin(t) * bend for t in times])
    y0, yd0 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]
    return js.integrate(js.FamilySpec(fld, 0.0, math.pi, y0, yd0))


@pytest.mark.parametrize(
    "name, psi",
    [
        ("hopf-holonomy", [[1.0, 0.0]]),
        ("sphere-zero", []),
        ("sphere-zero", [[1.0, 0.0]]),
        ("product-s2xr2", [[0.0, 1.0, 0.0]]),
        ("cp2-zero", [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        ("random-selfadjoint-3", [[1.0, 2.0, 0.5]]),
        ("example-nonselfadjoint", []),
        ("example-nonselfadjoint", [[1.0, 1.0]]),
        ("sampled-time-varying", [[1.0, 0.0]]),
    ],
)
def test_reduce_matches_node_loop(trajs, name, psi):
    traj = _time_varying_trajectory() if name.startswith("sampled") else trajs(name)
    psi = np.asarray(psi, dtype=float).reshape(-1, traj.dim).T
    rs = js.reduce(traj, psi)
    ref = _loop_reduce(traj, rs.psi, "qr")
    ref_svd = _loop_reduce(traj, rs.psi, "svd")
    # one regularity rule: the reduction is regular only where Y is
    assert not np.any(rs.regular & ~traj.regular)
    both = rs.regular & ref["regular"] & ref_svd["regular"]
    assert both.sum() >= 0.9 * traj.n_nodes
    # the basis of H and A's columns follow the factorization; the projector,
    # the ambient operator and A A^* are the same from either
    _assert_matches(rs, ref, ("bh", "shat_bh", "a_amb"), both)
    _assert_matches(rs, ref_svd, ("ph", "shat_amb", "aastar"), both)
    # the lift is exact where Y is regular: least squares leaves roundoff
    # there, about eps cond(Y), and its reduced operator is off S's by about
    # eps cond(Y) |S| (each route solves with Y)
    eps_cond = np.finfo(float).eps * np.linalg.cond(traj.y[both])
    assert np.all(rs.lift_err[both] == 0.0)
    assert np.all(ref["lift_err"][both] <= 64 * eps_cond)
    err = np.linalg.norm(rs.shat_bh[both] - ref["shat_lift"][both], 2, axis=(1, 2))
    assert np.all(err <= 64 * eps_cond * np.maximum(ref["s_norm"][both], 1.0))


@st.composite
def _self_adjoint_reductions(draw):
    """A self-adjoint family of dimension 1 to 3 on a coupled sampled field
    (``Y0 = A``, ``Yd0 = S A`` with ``S`` symmetric) and a random subfamily
    basis of 0 to d columns."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(0, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(0.0, 0.5, (4, d, d))
    ops = rng.normal(0.5, 0.5, (4, d))[:, :, None] * np.eye(d) + noise + noise.transpose(0, 2, 1)
    fld = js.sampled_field(np.linspace(0.0, 2.0, 4), ops)
    a, s = rng.normal(size=(2, d, d))
    traj = js.integrate(js.FamilySpec(fld, 0.0, 2.0, a, (s + s.T) @ a), step=1e-2)
    return traj, rng.normal(size=(d, p))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_self_adjoint_reductions())
def test_reduce_matches_the_svd_route_on_random_families(case):
    traj, psi = case
    rs = js.reduce(traj, psi)
    ref = _loop_reduce(traj, rs.psi, "svd")
    assert np.array_equal(rs.regular, ref["regular"])
    _assert_matches(rs, ref, ("ph", "shat_amb", "aastar"), rs.regular)


def test_reduce_validates_psi(trajs):
    traj = trajs("sphere-zero")
    with pytest.raises(ValueError, match="psi basis must be"):
        js.reduce(traj, np.ones(3))
    with pytest.raises(ValueError, match="rank-deficient"):
        js.reduce(traj, np.array([[1.0, 2.0], [0.5, 1.0]]))
    # a check's psi rows of the wrong length meet the same rule
    with pytest.raises(ValueError, match=r"psi basis must be \(2, p\), got \(3, 1\)"):
        js.reduction.hce_verdict(traj, {"psi": [[1.0, 0.0, 0.0]]}, None)


def test_reduce_sphere_single_direction(trajs):
    traj = trajs("sphere-zero")
    rs = js.reduce(traj, E1)
    assert rs.dim_v == 1 and rs.dim_h == 1
    reg = np.nonzero(rs.regular)[0]
    ts = traj.times[reg]
    inner = (ts > 0.05) & (ts < math.pi - 0.05)
    # quotient of an isotropic family: the reduced operator is the plain
    # one restricted to H, and the coupling columns vanish
    for j, t in zip(reg[inner], ts[inner]):
        cot = math.cos(t) / math.sin(t)
        assert np.linalg.norm(rs.shat_amb[j] - cot * rs.ph[j], 2) <= 1e-6
    assert np.nanmax(np.abs(rs.a_amb[reg])) <= 1e-9
    rep = js.hce_residual(rs, tol=1e-4)
    assert rep.max_residual <= 1e-4 and rep.n_checked > 0


def test_reduce_empty_basis_matches_plain_residual(trajs):
    traj = trajs("sphere-zero")
    rs = js.reduce(traj, np.zeros((2, 0)))
    assert rs.dim_v == 0 and rs.dim_h == 2
    # BH is the identity, so the reduced operator is S bit for bit
    reg, s = js.riccati_series(traj)
    assert np.array_equal(rs.regular, reg) and np.array_equal(rs.shat_amb[reg], s[reg])
    assert np.all(rs.lift_err[reg] == 0.0)
    plain = js.riccati_residual(traj, tol=1e-4)
    red = js.hce_residual(rs, tol=1e-4)
    assert red.n_checked == plain.n_checked > 0
    assert np.array_equal(red.values, plain.values) and red.cap == plain.cap


def test_reduce_product_flat_directions(trajs):
    traj = trajs("product-s2xr2")
    rs = js.reduce(traj, np.array([0.0, 1.0, 0.0]))
    reg = np.nonzero(rs.regular)[0]
    assert np.nanmax(np.abs(rs.a_amb[reg])) <= 1e-9
    # the reduced operator is the compression of the full one
    mask, s_ops = js.riccati_series(traj)
    for j in reg[100:-100:500]:
        assert mask[j]
        expect = rs.ph[j] @ s_ops[j] @ rs.ph[j]
        assert_allclose(rs.shat_amb[j], expect, atol=1e-8)


def test_reduce_coupling_family(trajs):
    traj = trajs("hopf-holonomy")
    rs = js.reduce(traj, E1)
    reg = np.nonzero(rs.regular)[0]
    # unit coupling throughout
    norm_a = np.linalg.norm(rs.a_amb[reg], axis=(1, 2))
    assert np.max(np.abs(norm_a - 1.0)) <= 1e-6
    # the reduced operator matches the double-frequency model under the cap
    cap = js.default_resolvability_cap(traj.step, 1e-3)
    ts = traj.times[reg]
    model = 2.0 * np.cos(2.0 * ts) / np.sin(2.0 * ts)
    m = np.abs(model) <= cap
    assert np.max(np.abs(rs.shat_bh[reg][m, 0, 0] - model[m])) <= 1e-3
    rep = js.hce_residual(rs, tol=1e-3)
    assert rep.max_residual <= 1e-3
    # recovered effective curvature is the quadrupled constant
    assert js.recovered_curvature_deviation(rs, 4.0) <= 1e-3


def test_reduce_coupling_family_midpoint_irregular(trajs):
    traj = trajs("hopf-holonomy")
    rs = js.reduce(traj, E1)
    j = traj.node_index(math.pi / 2.0)
    assert not rs.regular[j]
    assert rs.regular[j - 1] and rs.regular[j + 1]
    assert rs.lift_err[j] > 1e-6


def test_aastar_is_psd(trajs):
    rs = js.reduce(trajs("hopf-holonomy"), E1)
    reg = np.nonzero(rs.regular)[0]
    for j in reg[::200]:
        assert np.linalg.eigvalsh(rs.aastar[j]).min() >= -1e-10


def test_hce_residual_fourth_order(trajs):
    # pinning the cap isolates the differencing error: halving the step
    # should cut the residual by about 16 (15.9 measured; 4 at second order)
    vals = {}
    for h in (2e-3, 1e-3):
        rs = js.reduce(trajs("sphere-zero", h), E1)
        vals[h] = js.hce_residual(rs, s_cap=1.0).max_residual
    assert vals[2e-3] / vals[1e-3] >= 12.0


def _three_nodes(*checks):
    """Three nodes, the first singular: no node can be differenced."""
    fld = js.constant_sectional(3, 1.0)
    return js.Scenario("three-nodes", "", fld, 0.0, 0.002, np.zeros((2, 2)), np.eye(2), checks)


def test_hce_residual_without_regular_triples_is_empty():
    traj = js.integrate(_three_nodes().family(), step=1e-3)
    assert traj.n_nodes == 3 and traj.regular.tolist() == [False, True, True]
    for rep in (js.hce_residual(js.reduce(traj, E1)), js.riccati_residual(traj)):
        assert rep.n_checked == 0 and rep.times.size == 0
        assert math.isnan(rep.max_residual)


def test_hce_check_without_regular_triples_is_not_evaluable():
    check = js.CheckSpec("hce", {"psi": [[1.0, 0.0]]}, "hypothesis-violated")
    (hce,) = js.run_scenario(_three_nodes(check)).checks
    assert hce.verdict == "hypothesis-violated" and hce.details["n_checked"] == 0
    assert hce.details["note"].startswith("not evaluable")


def test_reduced_boundary_sphere_equality(trajs):
    rs = js.reduce(trajs("sphere-zero"), E1)
    out = js.reduced_boundary_check(rs, 0.1)
    assert out["passed"]
    # isotropic family: quotient and full operator have the same top value
    assert out["shat_max"] == pytest.approx(out["s_max"], abs=1e-9)
    t = out["alpha"]
    assert out["s_max"] == pytest.approx(math.cos(t) / math.sin(t), abs=1e-6)


def test_reduced_boundary_coupling_family(trajs):
    rs = js.reduce(trajs("hopf-holonomy"), E1)
    out = js.reduced_boundary_check(rs, 0.2)
    assert out["passed"]
    t = out["alpha"]
    assert out["shat_max"] == pytest.approx(2.0 * math.cos(2 * t) / math.sin(2 * t), abs=1e-6)
    assert out["s_max"] == pytest.approx(math.cos(t) / math.sin(t), abs=1e-6)
    assert out["margin"] > 0.2


def test_reduced_boundary_rejects_irregular_node(trajs):
    rs = js.reduce(trajs("hopf-holonomy"), E1)
    with pytest.raises(ValueError, match="not a regular node"):
        js.reduced_boundary_check(rs, math.pi / 2.0)


def test_export_reduction_csv(tmp_path, trajs):
    rs = js.reduce(trajs("hopf-holonomy"), E1)
    path = tmp_path / "red.csv"
    js.export_reduction_csv(rs, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["t", "regular", "lift_err", "norm_a", "shat_min", "shat_max"]
    assert len(rows) == rs.traj.times.size
    j = rs.traj.node_index(0.2)
    assert rows[j]["regular"] == "1"
    assert float(rows[j]["norm_a"]) == pytest.approx(1.0, abs=1e-6)
    assert float(rows[j]["shat_max"]) == pytest.approx(
        2.0 * math.cos(2 * float(rows[j]["t"])) / math.sin(2 * float(rows[j]["t"])), abs=1e-6
    )
    mid = rs.traj.node_index(math.pi / 2.0)
    assert rows[mid]["regular"] == "0"
    assert math.isnan(float(rows[mid]["shat_max"]))


def test_hopf_last_node_is_not_regular(tmp_path, capsys, trajs):
    # Y(pi) is singular; a lift by least squares still succeeds there
    traj = trajs("hopf-holonomy")
    j = traj.node_index(math.pi)
    assert not traj.regular[j]
    assert not js.reduce(traj, E1).regular[j]
    assert js.main(["run", "hopf-holonomy", "--traces", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "hopf-holonomy-reduction-0.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["t"]) == pytest.approx(math.pi)
    assert last["regular"] == "0"
    assert last["shat_min"] == last["shat_max"] == "nan"
