"""Sampled curvature fields through the check pipeline.

A sampled field is read over the whole window, not only at its start: a
dip of the curvature in the middle of the window must trip the floor gates
even though the field equals the unit model at both ends. A sampled field
that is constant in time must give the same verdicts and dimensions as the
matching constant field.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jacobisplit as js

EYE = np.eye(2)


def _sphere_zero_scenario(fld):
    """``sphere-zero``'s initial data and window on the given field, with a
    splitting-B, a rigidity and a vanishing-floor check."""
    return js.Scenario(
        name="sampled-sphere-zero",
        description="sphere-zero initial data on a sampled field",
        fld=fld,
        alpha=0.0,
        end=math.pi,
        y0=np.zeros((2, 2)),
        yd0=EYE,
        checks=(
            js.CheckSpec("splitting", {"theorem": "B", "alpha": 0.0}, "hypothesis-violated"),
            js.CheckSpec("rigidity", {"alpha": 0.0}, "hypothesis-violated"),
            js.CheckSpec("vanishing-floor", {"k": 1}, "hypothesis-violated"),
        ),
    )


def test_sampled_dip_violates_every_floor_gate():
    fld = js.sampled_field([0.0, math.pi / 2, math.pi], [EYE, -0.1 * EYE, EYE])
    # at the window start alone the field is the unit model
    assert js.ric_k_floor(js.spectrum_at(fld, 0.0), 1) == pytest.approx(1.0)
    report = js.run_scenario(_sphere_zero_scenario(fld))
    assert [c.verdict for c in report.checks] == ["hypothesis-violated"] * 3
    split, rigid, floor = (c.details for c in report.checks)
    assert not split["hypothesis_flags"]["ric_k_floor"]["passed"]
    assert split["hypothesis_flags"]["ric_k_floor"]["value"] == pytest.approx(-0.1)
    assert not rigid["hypothesis_flags"]["ric_k_floor"]["passed"]
    assert rigid["hypothesis_flags"]["ric_k_floor"]["value"] == pytest.approx(-0.2)
    assert floor["floor"] == pytest.approx(-0.1)


def test_seeded_floor_cross_check_bounds_the_floor():
    # the dip sits at t = 1, away from the window midpoint pi/2
    fld = js.sampled_field([0.0, 1.0, math.pi], [EYE, -0.1 * EYE, EYE])
    report = js.run_scenario(_sphere_zero_scenario(fld), seed=1)
    split, floor = report.checks[0].details, report.checks[2].details
    assert report.checks[2].verdict == "hypothesis-violated"
    assert floor["floor"] == pytest.approx(-0.1, abs=1e-3)
    # the field is isotropic, so every frame sampled at the floor's time
    # reads the floor itself
    split_floor = split["hypothesis_flags"]["ric_k_floor"]["value"]
    for details, exact in ((floor, floor["floor"]), (split, split_floor)):
        assert details["floor_sampled"] >= exact - 1e-12
        assert details["floor_sampled"] == pytest.approx(exact, abs=1e-12)


def test_constant_sampled_field_matches_constant_field():
    sampled = js.run_scenario(_sphere_zero_scenario(js.sampled_field([0.0, math.pi], [EYE, EYE])))
    constant = js.run_scenario(_sphere_zero_scenario(js.constant_sectional(3, 1.0)))
    assert [c.verdict for c in sampled.checks] == ["verified"] * 3
    assert [c.verdict for c in sampled.checks] == [c.verdict for c in constant.checks]
    s_split, c_split = sampled.checks[0].details, constant.checks[0].details
    assert (s_split["dim_z"], s_split["dim_p"]) == (c_split["dim_z"], c_split["dim_p"]) == (0, 2)
    assert sampled.checks[2].details["floor"] == pytest.approx(1.0)


def test_sampled_grid_shorter_than_window_exits_two(tmp_path, capsys):
    doc = {
        "name": "short-grid",
        "field": {
            "kind": "sampled",
            "n": 3,
            "grid": [0.0, 1.0, 2.0],
            "ops": [[1.0, 0.0, 0.0, 1.0]] * 3,
        },
        "alpha": 0.0,
        "end": math.pi,
        "y0": [[0.0, 0.0], [0.0, 0.0]],
        "yd0": [[1.0, 0.0], [0.0, 1.0]],
        "checks": [{"kind": "rigidity", "params": {"alpha": 0.0}, "expect": "verified"}],
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert js.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "time 2.00024" in err
    assert "outside sampled domain [0.0, 2.0]" in err


def _five_point(a, j, h):
    """The fourth-order central difference of the series ``a`` at node j."""
    return (-a[j + 2] + 8 * a[j + 1] - 8 * a[j - 1] + a[j - 2]) / (12 * h)


def test_grid_reads_match_per_node_loops():
    """The residuals read the field once per grid; per-node loops over
    ``matrix(t)`` are the reference, on a field that varies in time."""
    times = np.linspace(0.0, math.pi, 41)
    bend = np.array([[1.0, 0.5], [0.5, -1.0]])
    fld = js.sampled_field(times, [EYE + 0.2 * math.sin(t) * bend for t in times])
    # hopf-holonomy's initial data: a one-dim vertical subfamily to reduce by
    y0, yd0 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]
    traj = js.integrate(js.FamilySpec(fld, 0.0, math.pi, y0, yd0))
    ts = traj.times

    rep = js.riccati_residual(traj)
    _, s = js.riccati_series(traj)
    idx = np.searchsorted(ts, rep.times)
    ref = [
        np.linalg.norm(_five_point(s, j, traj.step) + s[j] @ s[j] + fld.matrix(ts[j]), 2)
        for j in idx
    ]
    assert rep.n_checked > 0
    assert_allclose(rep.values, ref, rtol=1e-12, atol=1e-12)

    rs = js.reduce(traj, np.array([1.0, 0.0]))
    hce = js.hce_residual(rs)
    idx = np.searchsorted(ts, hce.times)
    # the ambient forms, rebuilt per node from BH coordinates
    ph = [b @ b.T for b in rs.bh]
    shat_amb = np.array([b @ s_bh @ b.T for b, s_bh in zip(rs.bh, rs.shat_bh)])
    aastar = [b @ a @ a.T @ b.T for b, a in zip(rs.bh, rs.a_bh)]
    ref = []
    for j in idx:
        ds = _five_point(shat_amb, j, traj.step)
        r_amb = ph[j] @ fld.matrix(ts[j]) @ ph[j]
        total = ds + shat_amb[j] @ shat_amb[j] + r_amb + 3.0 * aastar[j]
        ref.append(np.linalg.norm(rs.bh[j].T @ total @ rs.bh[j], 2))
    assert hce.n_checked > 0
    assert_allclose(hce.values, ref, rtol=1e-12, atol=1e-12)

    worst = 0.0
    for j in np.nonzero(rs.regular)[0]:
        r_hat = rs.bh[j].T @ (fld.matrix(ts[j]) + 3.0 * aastar[j]) @ rs.bh[j]
        worst = max(worst, np.linalg.norm(r_hat - 4.0 * np.eye(1), 2))
    assert js.recovered_curvature_deviation(rs, 4.0) == pytest.approx(worst, rel=1e-12)

    trace = js.scalar_traces(traj)
    reg = np.nonzero(trace.regular)[0]
    tr_r = np.array([np.trace(fld.matrix(ts[j])) for j in reg])
    assert_allclose(trace.r[reg], (tr_r + trace.s0sq[reg]) / 2, rtol=1e-12, atol=1e-12)


def _diagonal_field():
    times = np.linspace(0.0, 1.0, 11)
    return js.sampled_field(times, [np.diag([1.5 + 0.3 * t, 2.0, 2.0 - t]) for t in times])


def _coupled_field():
    # R - id stays away from zero, so the relative comparisons below are
    # sharp, and its norm is set by the eigenvalue below 1
    times = np.linspace(0.0, 1.0, 11)
    bend = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 1.0]])
    ops = [np.diag([-1.5, 2.0, 3.0]) + 0.3 * math.sin(t) * bend for t in times]
    return js.sampled_field(times, ops)


def _four_check_scenario(fld):
    """``Y = I``, ``Y' = 0`` on ``[0, 0.5]``, where no member vanishes, with
    splitting-B, splitting-E (k = 2), rigidity and vanishing-floor checks."""
    return js.Scenario(
        name="four-checks",
        description="",
        fld=fld,
        alpha=0.0,
        end=0.5,
        y0=np.eye(fld.dim),
        yd0=np.zeros((fld.dim, fld.dim)),
        checks=(
            js.CheckSpec("splitting", {"theorem": "B", "alpha": 0.0}, "verified"),
            js.CheckSpec("splitting", {"theorem": "E", "k": 2, "alpha": 0.0}, "verified"),
            js.CheckSpec("rigidity", {"alpha": 0.0}, "verified"),
            js.CheckSpec("vanishing-floor", {"k": 1}, "verified"),
        ),
    )


@pytest.mark.parametrize(
    "fld, diagonal",
    [(_diagonal_field(), True), (_coupled_field(), False)],
    ids=["diagonal", "coupled"],
)
def test_one_run_evaluates_the_field_once(fld, diagonal, monkeypatch):
    # every evaluation, matrices included, is a call of values; a diagonal
    # field's values are its diagonals, so it never forms its matrices
    calls = []
    values = js.CurvatureField.values

    def counted(self, times):
        out = values(self, times)
        calls.append(out.ndim)
        return out

    monkeypatch.setattr(js.CurvatureField, "values", counted)
    scenario = _four_check_scenario(fld)
    report = js.run_scenario(scenario, step=1e-3)
    assert calls == [2 if diagonal else 3] and len(report.checks) == 4
    assert report.checks[2].details["max_r_dev"] is not None
    monkeypatch.undo()

    traj = js.integrate(scenario.family(), step=1e-3)
    ops = fld.matrices(traj.times)
    if diagonal:
        expected = np.sort(np.diagonal(ops, axis1=1, axis2=2), axis=1)
    else:
        expected = np.linalg.eigvalsh(ops)
    assert traj.field_spectrum.shape == (traj.n_nodes, 3)
    assert np.array_equal(traj.field_spectrum, expected)
    by_hand = js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd)
    assert np.array_equal(by_hand.field_spectrum, traj.field_spectrum)


def test_a_constant_field_has_one_spectrum_row():
    spec = js.FamilySpec(js.constant_sectional(4, 2.0), 0.0, 1.0, np.eye(3), np.zeros((3, 3)))
    traj = js.integrate(spec)
    assert np.array_equal(traj.field_spectrum, [[2.0, 2.0, 2.0]])
    by_hand = js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd)
    assert np.array_equal(by_hand.field_spectrum, traj.field_spectrum)


def test_spectrum_readers_match_the_matrix_formulas():
    fld = _coupled_field()
    traj = js.integrate(_four_check_scenario(fld).family(), step=1e-3)
    ops = fld.matrices(traj.times)
    lam = traj.field_spectrum
    # |R - id| in operator norm and tr R, from the eigenvalues
    norm = np.linalg.norm(ops - np.eye(3), 2, axis=(1, 2))
    assert_allclose(np.max(np.abs(lam - 1.0), axis=1), norm, rtol=1e-13, atol=0)
    assert_allclose(np.sum(lam, axis=1), np.trace(ops, axis1=1, axis2=2), rtol=1e-13, atol=0)
    # the readers themselves: rigidity's R = id test and the scalar traces' r
    inside = traj.regular & traj.in_open_window(traj.times)
    rep = js.rigidity_check(traj)
    assert rep.verdict != "hypothesis-violated"
    assert rep.max_r_dev == pytest.approx(np.max(norm[inside]), rel=1e-13, abs=0)
    trace = js.scalar_traces(traj)
    reg = trace.regular
    old_r = (np.trace(ops[reg], axis1=1, axis2=2) + trace.s0sq[reg]) / 3
    assert_allclose(trace.r[reg], old_r, rtol=1e-13, atol=0)
