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
    assert js.ric_k_floor(fld, 0.0, 1) == pytest.approx(1.0)
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
        np.linalg.norm((s[j + 1] - s[j - 1]) / (2 * traj.step) + s[j] @ s[j] + fld.matrix(ts[j]), 2)
        for j in idx
    ]
    assert rep.n_checked > 0
    assert_allclose(rep.values, ref, rtol=1e-12, atol=1e-12)

    rs = js.reduce(traj, np.array([1.0, 0.0]))
    hce = js.hce_residual(rs)
    idx = np.searchsorted(ts, hce.times)
    ref = []
    for j in idx:
        ds = (rs.shat_amb[j + 1] - rs.shat_amb[j - 1]) / (2 * traj.step)
        r_amb = rs.ph[j] @ fld.matrix(ts[j]) @ rs.ph[j]
        total = ds + rs.shat_amb[j] @ rs.shat_amb[j] + r_amb + 3.0 * rs.aastar[j]
        ref.append(np.linalg.norm(rs.bh[j].T @ total @ rs.bh[j], 2))
    assert hce.n_checked > 0
    assert_allclose(hce.values, ref, rtol=1e-12, atol=1e-12)

    worst = 0.0
    for j in np.nonzero(rs.regular)[0]:
        r_hat = rs.bh[j].T @ (fld.matrix(ts[j]) + 3.0 * rs.aastar[j]) @ rs.bh[j]
        worst = max(worst, np.linalg.norm(r_hat - 4.0 * np.eye(1), 2))
    assert js.recovered_curvature_deviation(rs, 4.0) == pytest.approx(worst, rel=1e-12)

    trace = js.scalar_traces(traj)
    reg = np.nonzero(trace.regular)[0]
    tr_r = np.array([np.trace(fld.matrix(ts[j])) for j in reg])
    assert_allclose(trace.r[reg], (tr_r + trace.s0sq[reg]) / 2, rtol=1e-12, atol=1e-12)
