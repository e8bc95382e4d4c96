"""Tests for the family integrator and its trajectory queries.

Closed forms used as oracles:
  constant curvature c: each member evolves along y'' = -c y, so
  y(t) = cos(sqrt(c) t) y(0) + sin(sqrt(c) t)/sqrt(c) y'(0) per
  eigendirection of the initial data (and linearly in between).

The step loop ``_loop_integrate`` is the reference for the blocked scan in
``integrate``: the same RK4 map, one step after another.
"""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jacobisplit as js
from jacobisplit import jacobi


def sphere_like(alpha=0.0, end=math.pi, y0=None, yd0=None, c=1.0, n=3):
    d = n - 1
    return js.FamilySpec(
        field=js.constant_sectional(n, c),
        alpha=alpha,
        end=end,
        y0=np.zeros((d, d)) if y0 is None else np.asarray(y0, dtype=float),
        yd0=np.eye(d) if yd0 is None else np.asarray(yd0, dtype=float),
        label="test",
    )


def _loop_integrate(spec, step):
    """(Y, Yd) at every node by the plain RK4 step loop."""
    span = spec.end - spec.alpha
    n_steps = max(1, int(round(span / step)))
    times = np.linspace(spec.alpha, spec.end, n_steps + 1)
    h = span / n_steps
    d = spec.dim
    y = np.empty((n_steps + 1, d, d))
    yd = np.empty((n_steps + 1, d, d))
    y[0] = spec.y0
    yd[0] = spec.yd0
    stages = np.empty(2 * n_steps + 1)
    stages[0::2] = times
    stages[1::2] = 0.5 * (times[:-1] + times[1:])
    r = np.broadcast_to(spec.field.matrices(stages), (stages.size, d, d))
    for j in range(n_steps):
        r0, rh, r1 = r[2 * j], r[2 * j + 1], r[2 * j + 2]
        yj, ydj = y[j], yd[j]
        k1y, k1d = ydj, -(r0 @ yj)
        y2 = yj + 0.5 * h * k1y
        k2y, k2d = ydj + 0.5 * h * k1d, -(rh @ y2)
        y3 = yj + 0.5 * h * k2y
        k3y, k3d = ydj + 0.5 * h * k2d, -(rh @ y3)
        y4 = yj + h * k3y
        k4y, k4d = ydj + h * k3d, -(r1 @ y4)
        y[j + 1] = yj + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        yd[j + 1] = ydj + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return times, y, yd


def _sampled(d, end, seed=3):
    """A time-varying sampled field on [0, end] whose grid ends exactly at
    ``end``, with node steps that do not line up with the integration grid."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((9, d, d))
    return js.sampled_field(np.linspace(0.0, end, 9), np.eye(d) + 0.5 * (a + a.transpose(0, 2, 1)))


def _assert_matches_loop(fld, n_steps, end=math.pi):
    d = fld.dim
    rng = np.random.default_rng(n_steps)
    spec = js.FamilySpec(
        field=fld, alpha=0.0, end=end, y0=np.eye(d), yd0=rng.standard_normal((d, d))
    )
    traj = js.integrate(spec, step=end / n_steps)
    times, y, yd = _loop_integrate(spec, end / n_steps)
    assert traj.n_nodes == n_steps + 1
    assert_allclose(traj.times, times, rtol=0, atol=0)
    assert np.max(np.abs(traj.y - y)) <= 1e-12 * np.max(np.abs(y))
    assert np.max(np.abs(traj.yd - yd)) <= 1e-12 * np.max(np.abs(yd))


# 7, 17 and 3142 steps leave a short last block: on the sampled field, whose
# grid ends at the window end, its masked steps must not read past the grid
@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 16, 17, 3142])
@pytest.mark.parametrize("kind", ["constant", "diagonal", "sampled"])
def test_integrate_matches_step_loop(kind, n_steps):
    fld = {
        "constant": js.constant_sectional(4, 1.0),
        "diagonal": js.diagonal_constant([4.0, -1.0, 0.0]),
        "sampled": _sampled(3, math.pi),
    }[kind]
    _assert_matches_loop(fld, n_steps)


@pytest.mark.parametrize("fld", [js.constant_sectional(17, 1.0), _sampled(16, 2.0)])
def test_integrate_matches_step_loop_d16(fld):
    _assert_matches_loop(fld, 1000, end=2.0)


def test_integrate_array_iterations_grow_like_sqrt_n(monkeypatch):
    calls = []
    step_fn = jacobi._increments

    def counted(*args):
        calls.append(1)
        return step_fn(*args)

    monkeypatch.setattr(jacobi, "_increments", counted)
    spec = js.FamilySpec(
        field=_sampled(2, math.pi), alpha=0.0, end=math.pi, y0=np.eye(2), yd0=np.zeros((2, 2))
    )
    js.integrate(spec, step=math.pi / 3142)
    # two passes of isqrt(3142) = 56 steps each, against 3142 in the loop
    assert len(calls) == 2 * 56
    calls.clear()
    js.integrate(sphere_like(), step=math.pi / 3142)
    assert len(calls) == 56  # a constant field: one propagator pass


def test_integrate_rejects_overflow():
    # cosh(1000 t) leaves double range near t = 0.71
    spec = sphere_like(y0=np.eye(2), yd0=np.zeros((2, 2)), c=-1e6)
    with pytest.raises(ValueError, match=r"not finite from t=0\.70\d+ on"):
        js.integrate(spec)
    # huge but finite values are kept
    traj = js.integrate(sphere_like(y0=1e200 * np.eye(2), yd0=np.zeros((2, 2)), c=0.0))
    assert np.all(traj.y[-1] == 1e200 * np.eye(2))


def test_integrate_rejects_bad_step():
    # an infinite step would integrate the window in one step
    for step in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            js.integrate(sphere_like(), step=step)


def test_familyspec_validation():
    fld = js.constant_sectional(3, 1.0)
    with pytest.raises(ValueError, match="must be 2x2"):
        js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.zeros((3, 3)), yd0=np.eye(3))
    with pytest.raises(ValueError, match="alpha"):
        js.FamilySpec(field=fld, alpha=1.0, end=1.0, y0=np.eye(2), yd0=np.eye(2))
    with pytest.raises(ValueError, match="linearly dependent"):
        js.FamilySpec(
            field=fld,
            alpha=0.0,
            end=1.0,
            y0=np.array([[1.0, 1.0], [0.0, 0.0]]),
            yd0=np.array([[0.0, 0.0], [1.0, 1.0]]),
        )
    with pytest.raises(ValueError, match="finite"):
        js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.eye(2) * np.nan, yd0=np.eye(2))
    for alpha, end in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="alpha and end must be finite"):
            js.FamilySpec(field=fld, alpha=alpha, end=end, y0=np.eye(2), yd0=np.eye(2))


def test_integrate_sphere_closed_form(trajs):
    traj = trajs("sphere-zero")
    exact_y = np.sin(traj.times)[:, None, None] * np.eye(2)
    exact_yd = np.cos(traj.times)[:, None, None] * np.eye(2)
    assert np.max(np.abs(traj.y - exact_y)) <= 1e-6
    assert np.max(np.abs(traj.yd - exact_yd)) <= 1e-6


def test_integrate_flat_is_exact(trajs):
    traj = trajs("flat-parallel")
    assert np.max(np.abs(traj.y - np.eye(3))) <= 1e-12
    assert np.max(np.abs(traj.yd)) <= 1e-12


def test_integrate_cp2_closed_form(trajs):
    # eigendirections evolve with frequencies 2, 1, 1
    traj = trajs("cp2-zero")
    t = traj.times
    diag = np.zeros((t.size, 3, 3))
    diag[:, 0, 0] = np.sin(2.0 * t) / 2.0
    diag[:, 1, 1] = np.sin(t)
    diag[:, 2, 2] = np.sin(t)
    assert np.max(np.abs(traj.y - diag)) <= 1e-6


def test_integrate_step_control():
    spec = sphere_like(end=1.0)
    traj = js.integrate(spec, step=0.25)
    assert traj.n_nodes == 5
    assert traj.step == pytest.approx(0.25)
    # non-divisible spans round to the nearest step count
    traj2 = js.integrate(spec, step=0.3)
    assert traj2.n_nodes == 4
    with pytest.raises(ValueError):
        js.integrate(spec, step=-1.0)


def test_integrate_linearity():
    rng = np.random.default_rng(8)
    a0, b0 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    a1, b1 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    mk = lambda y, yd: js.integrate(sphere_like(y0=y, yd0=yd, end=2.0), step=0.01)
    ta = mk(a0, a1)
    tb = mk(b0, b1)
    tsum = mk(a0 + b0, a1 + b1)
    assert np.max(np.abs(tsum.y - (ta.y + tb.y))) <= 1e-12 * max(tsum.scale, 1.0)


def test_wronskian_conserved_and_values(trajs):
    traj = trajs("sphere-zero")
    w0 = np.asarray(js.wronskian(traj, 0.0))
    assert_allclose(w0, np.zeros((2, 2)), atol=1e-15)
    wmid = np.asarray(js.wronskian(traj, traj.times[1500]))
    assert np.max(np.abs(wmid)) <= 1e-9

    rot = trajs("example-nonselfadjoint")
    w_rot = np.asarray(js.wronskian(rot, 0.0))
    assert_allclose(w_rot, [[0.0, -2.0], [2.0, 0.0]], atol=1e-14)
    w_rot_late = np.asarray(js.wronskian(rot, rot.times[-1]))
    assert_allclose(w_rot_late, w_rot, atol=1e-9)


def test_riccati_values(trajs):
    traj = trajs("sphere-zero")
    s_mid = np.asarray(js.riccati(traj, traj.times[traj.node_index(math.pi / 2)]))
    assert np.max(np.abs(s_mid)) <= 1e-9
    for t in (0.5, 1.0, 2.5):
        tj = traj.times[traj.node_index(t)]
        s = np.asarray(js.riccati(traj, tj))
        assert np.max(np.abs(s - math.cos(tj) / math.sin(tj) * np.eye(2))) <= 1e-6

    flat = trajs("flat-parallel")
    assert np.max(np.abs(np.asarray(js.riccati(flat, 1.0)))) <= 1e-12


def test_riccati_initial_value_shifted_sine(trajs):
    traj = trajs("example-shifted-sine")
    s0 = np.asarray(js.riccati(traj, traj.alpha))
    eps = math.pi / 12.0
    assert_allclose(s0, math.tan(eps) * np.eye(2), atol=1e-12)


def test_riccati_raises_at_singular_node(trajs):
    traj = trajs("sphere-zero")
    with pytest.raises(js.SingularTimeError) as err:
        js.riccati(traj, 0.0)
    assert err.value.time == pytest.approx(0.0)
    with pytest.raises(js.SingularTimeError):
        js.riccati(traj, traj.end)


def test_riccati_series_masks_singular_nodes(trajs):
    traj = trajs("sphere-zero")
    mask, s_ops = js.riccati_series(traj)
    assert not mask[0] and not mask[-1]
    assert mask[1:-1].all()
    assert np.isnan(s_ops[0]).all()
    j = traj.node_index(1.0)
    assert_allclose(s_ops[j], np.asarray(js.riccati(traj, traj.times[j])))


@pytest.mark.parametrize("name", [sc.name for sc in js.list_scenarios()])
def test_one_regularity_rule(trajs, name):
    # the Riccati series, the empty reduction and riccati() itself are
    # regular exactly where the trajectory's one mask says so
    traj = trajs(name)
    assert not traj.regular.flags.writeable
    mask, _ = js.riccati_series(traj)
    assert np.array_equal(mask, traj.regular)
    assert np.array_equal(js.reduce(traj, np.zeros((traj.dim, 0))).regular, traj.regular)
    raises = np.zeros(traj.n_nodes, dtype=bool)
    for j, t in enumerate(traj.times):
        try:
            js.riccati(traj, t)
        except js.SingularTimeError:
            raises[j] = True
    assert np.array_equal(~raises, traj.regular)


def test_node_index_alignment(trajs):
    traj = trajs("sphere-zero")
    assert traj.node_index(traj.times[7]) == 7
    # snaps to the nearest node within half a step
    assert traj.node_index(traj.times[7] + 0.4 * traj.step) == 7
    with pytest.raises(ValueError, match="not aligned"):
        traj.node_index(traj.end + traj.step)


def test_interpolate_matches_fine_grid():
    spec = sphere_like(end=2.0)
    coarse = js.integrate(spec, step=0.01)
    t = 1.2345
    y_i, yd_i = coarse.interpolate(t)
    assert np.max(np.abs(y_i - math.sin(t) * np.eye(2))) <= 1e-9
    assert np.max(np.abs(yd_i - math.cos(t) * np.eye(2))) <= 1e-7
    with pytest.raises(ValueError, match="outside"):
        coarse.interpolate(2.5)


def test_singular_events_even_multiplicity():
    # scalar-matrix family: det touches zero without a sign change, so the
    # parabola fit on sigma_min^2 refines it
    spec = sphere_like(alpha=1.0, y0=np.eye(2), yd0=-0.5 * np.eye(2))
    traj = js.integrate(spec)
    (found,) = js.singular_events(traj)
    expected = (1.0 - math.atan2(1.0, -0.5)) + math.pi
    assert found.time == pytest.approx(expected, abs=1e-9)
    assert found.kernel.shape == (2, 2)


def test_singular_events_sphere(trajs):
    traj = trajs("sphere-zero")
    events = js.singular_events(traj)
    assert [round(e.time, 9) for e in events] == [0.0, round(math.pi, 9)]
    assert all(e.kernel.shape[1] == 2 for e in events)
    assert js.singular_events(traj, open_ends=True) == []


def test_singular_events_product_kernels(trajs):
    traj = trajs("product-s2xr2")
    events = js.singular_events(traj)
    assert len(events) == 2
    for e in events:
        assert e.kernel.shape == (3, 1)
        assert_allclose(np.abs(e.kernel[:, 0]), [1.0, 0.0, 0.0], atol=1e-8)


def test_singular_events_interior_zero_refined(trajs):
    traj = trajs("cp2-zero")
    events = js.singular_events(traj, open_ends=True)
    assert len(events) == 1
    ev = events[0]
    assert ev.time == pytest.approx(math.pi / 2, abs=1e-9)
    assert_allclose(np.abs(ev.kernel[:, 0]), [1.0, 0.0, 0.0], atol=1e-6)
    assert ev.sigma <= 1e-7 * traj.scale


def test_singular_events_window_selection(trajs):
    traj = trajs("hopf-holonomy")
    all_events = js.singular_events(traj)
    assert [round(e.time, 6) for e in all_events] == [0.0, 1.570796, 3.141593]
    # the open window drops the ends; the odd crossing inside is bisected
    (inner,) = js.singular_events(traj, open_ends=True)
    assert inner.time == pytest.approx(math.pi / 2, abs=1e-9)


def _loop_candidates(s, zero_cut, coarse_cut):
    """The candidate scan of ``singular_events`` as a node loop: the
    reference for ``jacobi._candidate_nodes``."""
    out = []
    for pos, v in enumerate(s):
        if v <= zero_cut:
            out.append(pos)
            continue
        if v > coarse_cut:
            continue
        left = s[pos - 1] if pos > 0 else np.inf
        right = s[pos + 1] if pos + 1 < s.size else np.inf
        if (v < left and v <= right) or (v <= left and v < right):
            out.append(pos)
    return np.array(out, dtype=int)


def test_candidate_scan_matches_node_loop():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 40):
        for _ in range(200):
            s = rng.integers(0, 4, size) / 4.0  # many ties and plateaus
            got = jacobi._candidate_nodes(s, 0.0, 0.5)
            assert got.tolist() == _loop_candidates(s, 0.0, 0.5).tolist()


@pytest.mark.parametrize(
    "name", [sc.name for sc in js.list_scenarios()] + ["random-selfadjoint-3@1e-4"]
)
def test_singular_events_unchanged_under_loop_scan(trajs, monkeypatch, name):
    name, _, step = name.partition("@")
    traj = trajs(name, float(step) if step else None)

    def events():
        return [
            [(e.time, e.sigma, e.node, e.kernel.tobytes()) for e in js.singular_events(traj, ends)]
            for ends in (False, True)
        ]

    fast = events()
    monkeypatch.setattr(jacobi, "_candidate_nodes", _loop_candidates)
    assert events() == fast


def test_default_resolvability_cap():
    cap = js.default_resolvability_cap(1e-3, 1e-4)
    assert cap == pytest.approx(0.5 * (1e-4 / 1e-6) ** 0.25)
    assert js.default_resolvability_cap(1e-3, 1e-3) > cap


def test_riccati_residual_capped(trajs):
    traj = trajs("sphere-zero")
    rep = js.riccati_residual(traj, tol=1e-4)
    assert rep.n_checked > 0
    assert rep.max_residual <= 1e-4
    # without the cap the difference quotient near the poles is meaningless
    uncapped = js.riccati_residual(traj, s_cap=np.inf, tol=1e-4)
    assert uncapped.max_residual > 1.0


def test_riccati_residual_respects_regularity(trajs):
    rep = js.riccati_residual(trajs("flat-parallel"), tol=1e-4)
    assert rep.n_checked == trajs("flat-parallel").n_nodes - 2
    assert rep.max_residual == 0.0


def test_fourth_order_convergence():
    spec = sphere_like(end=2.0)
    errs = []
    for h in (0.02, 0.01):
        traj = js.integrate(spec, step=h)
        errs.append(np.max(np.abs(traj.y[-1] - math.sin(2.0) * np.eye(2))))
    # halving the step should cut the error by about 2**4
    assert errs[0] / errs[1] >= 12.0


def test_export_csv_round_trip(tmp_path, trajs):
    traj = trajs("sphere-zero")
    path = tmp_path / "traj.csv"
    js.export_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# label=sphere-zero step=")
    header = lines[1].split(",")
    assert header[0] == "t" and len(header) == 1 + 2 * 4
    with open(path) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == traj.n_nodes
    j = 1500
    assert float(rows[j]["t"]) == pytest.approx(traj.times[j])
    assert float(rows[j]["y00"]) == pytest.approx(traj.y[j, 0, 0])
    assert float(rows[j]["yd11"]) == pytest.approx(traj.yd[j, 1, 1])
