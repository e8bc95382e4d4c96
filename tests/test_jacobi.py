"""Tests for the family integrator and its trajectory queries.

Closed forms used as oracles:
  constant curvature c: each member evolves along y'' = -c y, so
  y(t) = cos(sqrt(c) t) y(0) + sin(sqrt(c) t)/sqrt(c) y'(0) per
  eigendirection of the initial data (and linearly in between).

The step loop ``_loop_integrate`` is the reference for the blocked scan in
``integrate``: the same RK4 map, one step after another.
"""

import csv
import importlib
import importlib.util
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_bench_names import PERFBENCH, _load

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


def _non_diagonal_constant(d, seed=5):
    """A constant field that is not diagonal; no constructor makes one."""
    a = np.random.default_rng(seed).standard_normal((d, d))
    m = np.eye(d) + 0.25 * (a + a.T)
    m.flags.writeable = False
    return js.CurvatureField(kind="constant-sectional", n=d + 1, _eval=lambda times: m)


# runs of equal curvature {0} and {1, 2}; equal entries that are not adjacent;
# a constant field that is not diagonal, which takes the time-varying scan
@pytest.mark.parametrize("n_steps", [1, 7, 3142])
@pytest.mark.parametrize("kind", ["fubini-study", "split-runs", "non-diagonal"])
def test_integrate_matches_step_loop_on_runs_of_equal_curvature(kind, n_steps, monkeypatch):
    fld = {
        "fubini-study": js.fubini_study_model(4),
        "split-runs": js.diagonal_constant([1.0, 4.0, 1.0]),
        "non-diagonal": _non_diagonal_constant(3),
    }[kind]
    rows = []  # the rows of every state that an RK4 step moves
    step_fn = jacobi._increments

    def counted(y, *args):
        rows.append(y.shape[-2])
        return step_fn(y, *args)

    monkeypatch.setattr(jacobi, "_increments", counted)
    _assert_matches_loop(fld, n_steps)
    if kind == "non-diagonal":
        assert rows == [3] * (2 * math.isqrt(n_steps))
    else:  # one step of d scalar maps, no 2d x 2d propagator
        assert rows == [1]


def _diagonal_sampled(d, end, layout):
    """A diagonal sampled field on [0, end] whose grid ends exactly at
    ``end``. Its rows are ``distinct`` (each its own profile), in ``runs``
    of three equal rows, or ``split-late``: equal at the window start and
    apart after it, so only the whole grid tells them apart."""
    grid = np.linspace(0.0, end, 9)
    if layout == "split-late":
        entries = 1.0 + 0.3 * np.outer(grid / end, np.arange(d))
    else:
        profile = np.arange(d) if layout == "distinct" else np.arange(d) // 3
        entries = 1.0 + 0.5 * np.sin(np.outer(grid, profile + 1.0) + profile)
    ops = np.zeros((grid.size, d, d))
    ops[:, np.arange(d), np.arange(d)] = entries
    return js.sampled_field(grid, ops)


# a time-varying diagonal field runs on d scalar maps; 2, 7, 17 and 3142
# steps leave a short last block, which must read no field past the window
@pytest.mark.parametrize("n_steps", [1, 2, 7, 17, 3142])
@pytest.mark.parametrize(
    "layout, d",
    [
        ("distinct", 3),
        ("runs", 5),
        ("split-late", 3),
        ("distinct", 1),
        ("runs", 16),
        ("distinct", 16),
    ],
)
def test_integrate_matches_step_loop_on_diagonal_sampled_fields(layout, d, n_steps):
    _assert_matches_loop(_diagonal_sampled(d, math.pi, layout), n_steps)


@pytest.mark.parametrize("diagonal", [True, False])
def test_integrate_takes_a_diagonal_field_in_chunks_of_steps(diagonal, monkeypatch):
    calls = []  # (rows of the state, columns of the field) of every RK4 step
    step_fn = jacobi._increments

    def counted(y, yd, r0, *args):
        calls.append((y.shape[-2], r0.shape[-1]))
        return step_fn(y, yd, r0, *args)

    monkeypatch.setattr(jacobi, "_increments", counted)
    n_steps, d = 3142, 3
    fld = _diagonal_sampled(d, math.pi, "distinct") if diagonal else _sampled(d, math.pi)
    spec = js.FamilySpec(field=fld, alpha=0.0, end=math.pi, y0=np.eye(d), yd0=np.zeros((d, d)))
    js.integrate(spec, step=math.pi / n_steps)
    blk = math.isqrt(n_steps)
    if diagonal:
        # every step map from whole block steps of all blocks, about _CHUNK
        # steps per call, on a 1 x 1 field
        nb = -(-n_steps // blk)
        per_call = max(1, jacobi._CHUNK // nb) * nb
        assert calls == [(1, 1)] * -(-blk * nb // per_call)
        assert len(calls) < blk
    else:  # the full scan: two passes of blk steps on d-row states
        assert calls == [(d, d)] * (2 * blk)


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
    # a constant field: one step, whose powers come by doubling
    assert len(calls) == 1


def test_integrate_rejects_overflow():
    # cosh(1000 t) leaves double range near t = 0.71
    spec = sphere_like(y0=np.eye(2), yd0=np.zeros((2, 2)), c=-1e6)
    with pytest.raises(ValueError, match=r"not finite from t=0\.70\d+ on"):
        js.integrate(spec)
    # huge but finite values are kept
    traj = js.integrate(sphere_like(y0=1e200 * np.eye(2), yd0=np.zeros((2, 2)), c=0.0))
    assert np.all(traj.y[-1] == 1e200 * np.eye(2))


def test_integrate_names_the_first_node_a_sampled_family_overflows_at():
    # the off-diagonal coupling keeps the field on the full 2d x 2d scan,
    # whose products are the loop's
    coupling = 1e3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    fld = js.sampled_field([0.0, 1.0], [-1e6 * np.eye(2) + coupling, -1.2e6 * np.eye(2) + coupling])
    spec = js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.eye(2), yd0=np.zeros((2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        times, y, yd = _loop_integrate(spec, 1e-3)
    finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(yd).all(axis=(1, 2))
    t_bad = times[np.argmin(finite)]
    assert 0.5 < t_bad < 0.9
    with pytest.raises(ValueError, match=re.escape(f"not finite from t={t_bad:.6g} on")):
        js.integrate(spec, step=1e-3)


def test_integrate_names_the_first_node_a_diagonal_sampled_family_overflows_at():
    """A diagonal field runs on scalar maps, which never form the RK4 stage
    values whose products overflow first in the step loop: the named node is
    the first whose RK4 value itself leaves the float range. The oracle is
    the loop on the family scaled by 2**-600, which a linear system follows
    exactly, every product scaled by a power of two."""
    fld = js.sampled_field([0.0, 1.0], [-1e6 * np.eye(2), -1.2e6 * np.eye(2)])
    spec = js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.eye(2), yd0=np.zeros((2, 2)))
    unit = 2.0**-600
    # the spec's rank test is relative to 1, so the scaled family skips it
    scaled = SimpleNamespace(
        field=fld, alpha=0.0, end=1.0, dim=2, y0=unit * np.eye(2), yd0=np.zeros((2, 2))
    )
    times, y, yd = _loop_integrate(scaled, 1e-3)
    top = np.maximum(np.abs(y).max(axis=(1, 2)), np.abs(yd).max(axis=(1, 2)))
    t_bad = times[np.argmax(top > unit * np.finfo(float).max)]
    assert 0.5 < t_bad < 0.9
    with pytest.raises(ValueError, match=re.escape(f"not finite from t={t_bad:.6g} on")):
        js.integrate(spec, step=1e-3)


def test_integrate_keeps_finite_values_whose_step_norms_overflow():
    # 1e200 cos(t): the sums of squares overflow, the node test finds every value finite
    traj = js.integrate(sphere_like(y0=1e200 * np.eye(2), yd0=np.zeros((2, 2)), c=1.0))
    assert np.isinf(traj._step_norms[0][:-1]).all()
    assert np.isfinite(traj.y).all() and np.isfinite(traj.yd).all()
    assert_allclose(traj.y[:, 0, 0], 1e200 * np.cos(traj.times), rtol=0, atol=1e188)


def test_integrate_forms_the_nodes_its_bound_cannot_vouch_for(monkeypatch):
    # 1e308 cos(t): twice the bound max|Phi| (max|Y0| + max|Yd0|) overflows,
    # so integrate forms the nodes chunk by chunk from the rows' scalar
    # solutions, finds them finite and keeps no full array
    reads = []
    real_nodes = js.JacobiTrajectory.nodes

    def counting_nodes(traj, idx):
        reads.append(np.asarray(idx).copy())
        return real_nodes(traj, idx)

    monkeypatch.setattr(js.JacobiTrajectory, "nodes", counting_nodes)
    traj = js.integrate(sphere_like(y0=1e308 * np.eye(2), yd0=np.zeros((2, 2))))
    assert np.array_equal(np.concatenate(reads), np.arange(traj.n_nodes))
    assert max(map(len, reads)) == jacobi._CHUNK
    assert not {"y", "yd"} & vars(traj).keys()
    reads.clear()
    js.integrate(sphere_like(y0=1e300 * np.eye(2), yd0=np.zeros((2, 2))))
    assert not reads


def test_svals_leaves_nodes_past_an_overflowed_step_norm_undecided():
    # 1e200 cos(t): every step norm is inf, so no path length bounds a node,
    # and the events are those of the unit family. The Frobenius norm of
    # 1e200 I overflows too, so the family has no structural bounds and
    # takes the path-length route
    fld = js.constant_sectional(3, 1.0)
    unit, huge = (
        js.integrate(js.FamilySpec(fld, 0.0, 3.0, a * np.eye(2), np.zeros((2, 2))))
        for a in (1.0, 1e200)
    )
    assert huge._structural_bounds() is None
    assert np.isinf(huge._step_norms[0][:-1]).all()
    assert not np.isnan(huge.svals).any()
    expected, events = js.singular_events(unit), js.singular_events(huge)
    assert [e.time for e in expected] == [pytest.approx(math.pi / 2, abs=1e-12)]
    assert_allclose([e.time for e in events], [e.time for e in expected], rtol=1e-14, atol=0)
    assert [e.kernel.shape for e in events] == [(2, 2)]


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
    with pytest.raises(ValueError, match="linearly dependent"):
        js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.zeros((2, 2)), yd0=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        js.FamilySpec(field=fld, alpha=0.0, end=1.0, y0=np.eye(2) * np.nan, yd0=np.eye(2))
    for alpha, end in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="alpha and end must be finite"):
            js.FamilySpec(field=fld, alpha=alpha, end=end, y0=np.eye(2), yd0=np.eye(2))


def test_familyspec_rank_is_relative_to_the_family_size():
    # a tiny family is independent when its stacked matrix is well conditioned
    fld = js.constant_sectional(3, 1.0)
    traj = js.integrate(js.FamilySpec(fld, 0.0, 1.0, np.zeros((2, 2)), 1e-13 * np.eye(2)))
    assert js.check_splitting(traj, "B", alpha=0.0).verdict == "verified"
    assert js.rigidity_check(traj).verdict == "verified"


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


def _d16_family(step):
    """d = 16 constant-curvature family with sixteen interior zeros, one per
    member, at offsets 0.3 .. 2.4 from the window start."""
    offsets = np.linspace(0.3, 2.4, 16)
    spec = js.FamilySpec(
        field=js.constant_sectional(17, 1.0),
        alpha=0.2,
        end=math.pi,
        y0=np.eye(16),
        yd0=np.diag(-1.0 / np.tan(offsets)),
        label="d16",
    )
    return js.integrate(spec, step=step)


def _all_node_svals(y):
    """``svals`` by its row route at every node: one SVD of each Y."""
    return np.linalg.svd(y, compute_uv=False)


def _assert_same_as_all_nodes(traj):
    """What ``svals`` feeds is identical to evaluating every node: the scale,
    the regular mask, ``dets`` where taken and the refined events; and every
    evaluated row is the all-node row."""
    full = js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd)
    full.svals = _all_node_svals(traj.y)
    assert traj.scale == full.scale
    assert np.array_equal(traj.regular, full.regular)
    taken = ~np.isnan(traj.dets)
    assert np.array_equal(traj.dets[taken], full.dets[taken])
    assert _event_rows(traj) == _event_rows(full)
    evaluated = ~np.isnan(traj.svals[:, 0])
    assert np.array_equal(traj.svals[evaluated], full.svals[evaluated])
    return evaluated


def _check_spectra_against_svd(traj):
    svd = np.linalg.svd(traj.y, compute_uv=False)
    scale = float(np.max(svd[:, 0]))
    stacked = np.concatenate([traj.y, traj.yd], axis=1)
    start = np.linalg.svd(np.vstack([traj.spec.y0, traj.spec.yd0]), compute_uv=False)[0]
    assert traj.scale == pytest.approx(scale, rel=1e-14, abs=0.0)
    # the initial data's own value, at most the maximum over every node
    assert traj.stacked_scale == start
    top = np.max(np.linalg.svd(stacked, compute_uv=False)[:, 0])
    assert traj.stacked_scale <= top
    # the spans' size is at most the maximum over every node, within sqrt(d + 1)
    assert top / math.sqrt(traj.dim + 1) <= traj.stacked_bound <= top * (1.0 + 1e-14)
    assert np.array_equal(traj.regular, svd[:, -1] > jacobi.TOL_SING * scale)
    evaluated = _assert_same_as_all_nodes(traj)
    # the SVD's own value where evaluated; a skipped node is clear of the
    # zero threshold
    assert np.array_equal(traj.svals[evaluated], svd[evaluated])
    assert np.all(svd[~evaluated, -1] > jacobi.TOL_ZERO * scale)
    return evaluated


@pytest.mark.parametrize("name", [sc.name for sc in js.list_scenarios()])
def test_spectra_match_svd_builtins(trajs, name):
    _check_spectra_against_svd(trajs(name))


def test_spectra_match_svd_d16():
    traj = _d16_family(1e-3)
    evaluated = _check_spectra_against_svd(traj)
    assert 0 < evaluated.sum() < evaluated.size
    assert np.any(traj.sigma_min[evaluated] < 1e-3 * traj.scale)


def test_spectra_near_singular_node_is_exact(trajs):
    # hopf-holonomy ends on a node where Y is singular to roundoff; a Gram
    # route cannot see such a value, so it must be the SVD's
    traj = trajs("hopf-holonomy")
    assert traj.sigma_min[-1] < 1e-12 * traj.scale
    assert traj.svals[-1, -1] == np.linalg.svd(traj.y[-1], compute_uv=False)[-1]
    assert not traj.regular[-1]


def test_spectra_memory_stays_near_one_trajectory():
    # chunked passes: no (N, d, d) temporary is kept
    traj = _d16_family(4e-4)
    assert traj.n_nodes == 7355
    tracemalloc.start()
    try:
        traj.svals, traj.stacked_scale, traj.stacked_bound
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traj.y.nbytes


def test_verdict_passes_form_no_full_array():
    # a diagonal field's svals, stacked_bound and spans read Y and Yd at
    # nodes or its rows' scalar solutions. What they keep, the (N+1, d)
    # svals table first, is 1/d of one full Y; their working memory above
    # it stays below a tenth of Y
    traj = _d16_family(4e-4)
    y_bytes = traj.n_nodes * traj.dim**2 * 8
    tracemalloc.start()
    try:
        traj.svals, traj.stacked_bound
        js.sine_span(traj), js.parallel_span(traj)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not {"y", "yd"} & vars(traj).keys()
    assert kept < 0.1 * y_bytes
    assert peak - kept < 0.1 * y_bytes


def _steep_peak(n, at):
    """Knots and values of a path of n > 256 nodes: 1.95 on nodes 0..255, so
    the first centres read nearly the peak, and from node 256 on a peak of
    2.0 on node ``at`` that falls by 0.3 a node for three nodes on each side,
    then by 0.001, so a bound short by one step misses it."""
    knots = sorted({256, max(at - 3, 256), at, min(at + 3, n - 1), n - 1})
    off = np.abs(np.array(knots) - at)
    peak = 2.0 - 0.3 * np.minimum(off, 3) - 0.001 * np.maximum(off - 3, 0)
    return [0, 255] + knots, [1.95, 1.95] + list(peak)


def _climb_behind_a_long_prefix():
    """Knots and values of a 300-node path. Nodes 0..127 alternate between
    1.9 and -1.9, a path of about 486 ahead of node 128, the centre of the
    first 256-node block. From there 100 equal steps s climb exactly from
    about 1.5 to the peak 2.0 on node 228; s is a whole number of ulps of 486
    plus 0.45 of one, so a running sum taken from node 0 rounds each step
    down and comes 2.6e-12 short over the climb, more than the slack. The
    climb stays clear of zero by more than its path from node 128, so only
    the upper bound can keep its nodes. The last node, the centre of the
    short second block, reads 2 - 2^-42, so a bound that ignores that
    roundoff misses the peak."""
    s = (2**51 // 100 - 115) // 256 * 256 + 115
    climb = [(2**53 - (100 - k) * s) * 2.0**-52 for k in range(101)]
    values = [1.9, -1.9] * 64 + climb + [1.5] * 70 + [2.0 - 2.0**-42]
    return list(range(300)), values


@pytest.mark.parametrize(
    "knots, values",
    [
        # the peak 2.0 sits at node 32, the first of a 32-node block whose
        # centre (node 48) is 2.0 lower, while the block before has its
        # centre at 1.84
        ([0, 32, 42, 63], [1.68, 2.0, 0.0, 0.0]),
        # the mirror case: the peak is at node 47, the last of an 8-node block
        ([0, 37, 47, 63], [0.0, 0.0, 2.0, 1.84]),
    ]
    # on 650 nodes the peak sits on the first or last node of a 256-, 32- or
    # 8-node block, or in the short last block of every level
    + [_steep_peak(650, at) for at in (256, 511, 288, 319, 296, 303, 645, 649)]
    + [_climb_behind_a_long_prefix()],
)
def test_stacked_scale_bound_is_tight_on_a_radial_path(knots, values):
    # stacked_bound takes the scale from the upper bound of svals: d = 1, so
    # Y moves radially, and the path length from a centre is exactly the
    # change of sigma_max and a shorter reach misses the peak; with Yd = 0
    # the bound meets the grid maximum of sigma_max([Y; Yd]), the peak itself
    n = knots[-1] + 1
    y = np.interp(np.arange(float(n)), knots, values).reshape(n, 1, 1)
    traj = js.JacobiTrajectory(None, 1.0, np.arange(float(n)), y, np.zeros_like(y))
    assert traj.scale == 2.0
    assert traj.stacked_bound == 2.0


def _rotated_d16_family(step):
    """The d = 16 family's slopes in a rotated frame, at curvature 1.1."""
    offsets = np.linspace(0.3, 2.4, 16)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))
    spec = js.FamilySpec(
        field=js.constant_sectional(17, 1.1),
        alpha=0.2,
        end=math.pi,
        y0=np.eye(16),
        yd0=q @ np.diag(-1.0 / np.tan(offsets)) @ q.T,
        label="d16-rotated",
    )
    return js.integrate(spec, step=step)


def test_svals_evaluates_few_nodes_and_stays_exact(monkeypatch):
    traj = _rotated_d16_family(4e-4)
    assert traj.n_nodes == 7355
    sent = []
    for name in ("eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def counting(a, *args, solver=solver, **kwargs):
            sent.append(len(a))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    traj.svals
    monkeypatch.undo()
    assert sum(sent) <= 0.05 * traj.n_nodes
    _assert_same_as_all_nodes(traj)


@pytest.mark.parametrize("name", ["sphere-zero", "flat-parallel"])
def test_caches_send_each_node_to_the_svd_once(trajs, name, monkeypatch):
    # svals sends each node it evaluates to the SVD once and none to
    # eigvalsh (flat-parallel's svals evaluates every node); stacked_scale
    # sends the one 2d x d matrix [y0; yd0]
    base = trajs(name)
    traj = js.JacobiTrajectory(base.spec, base.step, base.times, base.y, base.yd)
    traj._step_norms
    sent = {"eigvalsh": [], "svd": []}
    for solver_name in sent:
        solver = getattr(np.linalg, solver_name)

        def counting(a, *args, solver=solver, rows=sent[solver_name], **kwargs):
            rows.append(len(a))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver_name, counting)
    traj.svals
    assert sum(sent["svd"]) == np.count_nonzero(~np.isnan(traj.svals[:, 0]))
    assert sent["eigvalsh"] == []
    sent["svd"].clear()
    traj.stacked_scale
    assert sent["svd"] == [2 * traj.dim]
    assert sent["eigvalsh"] == []


@pytest.mark.parametrize(
    "segments, step_of_event",
    [
        # node 16 is a local minimum at 0.01 beside a sign change; node 15
        # clears the zero threshold by its own bound, so the search sees
        # node 16's left neighbour only through the widening
        ([(16, 0.5), (1, 0.01), (1, -0.02), (14, -0.5), (32, -1.0)], 16),
        # the mirror: node 47 needs its right neighbour
        ([(32, -1.0), (14, -0.5), (1, -0.02), (1, 0.01), (16, 0.5)], 46),
        # node 8 at 0.04 is a local minimum whose sign change lies in the
        # step before it: that step's reach keeps it
        ([(8, -0.5), (40, 0.04), (16, 1.0)], 7),
        # the mirror at node 24, with the sign change in the step after it
        ([(25, 0.04), (15, -0.5), (24, -1.0)], 24),
        # on 300 nodes, node 128, the centre of the first 256-node block, is
        # the candidate, and its left neighbour clears by its own bound: the
        # widening around an evaluated centre must reach it
        ([(128, 0.5), (1, 0.01), (1, -0.02), (14, -0.5), (156, -1.0)], 128),
        # the mirror at node 48, the centre of a 32-node block
        ([(33, -1.0), (14, -0.5), (1, -0.02), (1, 0.01), (251, 0.5)], 47),
    ],
)
def test_svals_keeps_every_candidate_of_the_event_search(segments, step_of_event):
    # d = 1 and Yd = 0, so the bounds are exact path lengths
    y = np.concatenate([np.full(k, v) for k, v in segments]).reshape(-1, 1, 1)
    traj = js.JacobiTrajectory(None, 1.0, np.arange(float(len(y))), y, np.zeros_like(y))
    assert np.isnan(traj.svals[:, 0]).any()
    _assert_same_as_all_nodes(traj)
    (event,) = js.singular_events(traj)
    assert step_of_event < event.time < step_of_event + 1


def test_svals_skips_no_node_whose_interpolant_reaches_zero():
    # d = 1 with Y = 0.3 at nodes 0..47 and slopes +-4 alternating up to node
    # 32, at step 0.3: the cubic Hermite interpolant touches zero in the
    # middle of every step from an odd node there, which no node value shows
    y = np.concatenate([np.full(48, 0.3), np.full(16, 1.0)]).reshape(64, 1, 1)
    yd = np.where(np.arange(64) <= 32, 4.0 * (-1.0) ** np.arange(64), 0.0).reshape(64, 1, 1)
    traj = js.JacobiTrajectory(None, 0.3, 0.3 * np.arange(64.0), y, yd)
    skipped = np.flatnonzero(np.isnan(traj.svals[:, 0]))
    assert skipped.size > 0
    offsets = traj.step * np.array([-2 / 3, -1 / 2, -1 / 3, 1 / 3, 1 / 2, 2 / 3])
    for i in skipped:
        for t in traj.times[i] + offsets:
            if traj.alpha <= t <= traj.end:
                assert abs(traj.interpolate(t)[0, 0]) > jacobi.TOL_ZERO * traj.scale
    _assert_same_as_all_nodes(traj)


# the built-ins whose Y0 and Yd0 are both singular: no structural bounds
_PATH_LENGTH_BUILTINS = ("hopf-holonomy", "product-s2xr2")


def _fine_grid_d16():
    """The benchmark's d = 16 fine-grid family of seed [3, 0]."""
    families = _load("families")
    expected = json.loads((PERFBENCH / "expected_verdicts.json").read_text())
    sc = families.fine_grid_families(np.random.default_rng([3, 0]), expected, "3-0")[0]
    return js.integrate(sc.family(), step=sc.step)


def _coupled_sampled():
    """A sampled field that couples every row: not diagonal at any node."""
    spec = js.FamilySpec(
        field=_sampled(3, math.pi),
        alpha=0.0,
        end=math.pi,
        y0=np.eye(3),
        yd0=np.diag(-1.0 / np.tan([0.8, 1.5, 2.2])),
    )
    return js.integrate(spec, step=1e-3)


def _structurally_undecided(traj) -> np.ndarray:
    """The mask of nodes that ``traj``'s structural bounds leave undecided,
    by the rule ``svals`` states: a node whose upper bound on sigma_max
    reaches the largest lower bound, or whose lower bound on sigma_min, less
    the interpolant's reach, is not clear of the zero threshold."""
    top_hi, top_lo, bot_lo = traj._structural_bounds()
    dy, ydn = traj._step_norms
    r = dy[:-1] + (4.0 / 27.0) * np.diff(traj.times) * (ydn[:-1] + ydn[1:])
    r_node = np.maximum(np.append(r, 0.0), np.insert(r, 0, 0.0))
    low = bot_lo - r_node - (jacobi.TOL_ZERO + jacobi._SLACK) * np.max(top_hi) <= 0.0
    return (top_hi >= np.max(top_lo)) | low


def _counted_certify(monkeypatch) -> list:
    calls = []
    certify = jacobi._certify

    def counting(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(jacobi, "_certify", counting)
    return calls


@pytest.mark.parametrize(
    "name", [sc.name for sc in js.list_scenarios() if sc.name not in _PATH_LENGTH_BUILTINS] + ["d16"]
)
def test_svals_takes_the_structural_route_alone(name, monkeypatch):
    # a family with structural bounds evaluates the nodes they leave
    # undecided and then neighbours of those; no block centre of the
    # path-length levels is evaluated
    if name == "d16":
        traj = _fine_grid_d16()
    else:
        sc = js.get_scenario(name)
        traj = js.integrate(sc.family(), step=sc.step)
    calls = _counted_certify(monkeypatch)
    undecided = _structurally_undecided(traj)
    near = undecided.copy()
    near[1:] |= undecided[:-1]
    near[:-1] |= undecided[1:]
    evaluated = ~np.isnan(traj.svals[:, 0])
    assert np.flatnonzero(evaluated & ~near).tolist() == []
    assert evaluated[undecided].all()
    assert calls == []


@pytest.mark.parametrize("name", [*_PATH_LENGTH_BUILTINS, "coupled-sampled"])
def test_svals_takes_the_path_length_route_without_structural_bounds(name, monkeypatch):
    if name == "coupled-sampled":
        traj = _coupled_sampled()
        assert traj.row_solutions is None
    else:
        sc = js.get_scenario(name)
        traj = js.integrate(sc.family(), step=sc.step)
    assert traj._structural_bounds() is None
    calls = _counted_certify(monkeypatch)
    traj.svals
    assert len(calls) == 1
    _assert_same_as_all_nodes(traj)


@st.composite
def _walks(draw):
    """A random matrix walk of d = 1..4 and 1..300 nodes (the last block
    often short), with rank drops at random nodes and at block ends."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 300))
    h = draw(st.floats(1e-4, 1.0))
    size = draw(st.floats(1e-4, 0.2))
    seed = draw(st.integers(0, 2**32 - 1))
    block = jacobi._LEVELS[-1]  # its block ends include those of every level
    ends = sorted({i for b in range(0, n, block) for i in (b, min(b + block, n) - 1)})
    drops = draw(st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from(ends)), max_size=4))
    rank = draw(st.integers(0, d - 1))
    rng = np.random.default_rng(seed)
    y, yd = np.eye(d) + np.cumsum(size * rng.standard_normal((2, n, d, d)), axis=1)
    for k in drops:
        u, s, vh = np.linalg.svd(y[k])
        y[k] = (u[:, :rank] * s[:rank]) @ vh[:rank]
    return js.JacobiTrajectory(None, h, h * np.arange(n), y, yd)


def test_hypothesis_reporter_imports_under_the_warning_filters():
    # hypothesis prints a failing example's patch through this module, which
    # imports libcst; a warning raised as an error there ends the run in an
    # INTERNALERROR that hides the falsifying example
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("hypothesis reports without libcst")
    importlib.import_module("hypothesis.extra._patching")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_walks())
def test_svals_certified_matches_all_nodes_on_walks(traj):
    _assert_same_as_all_nodes(traj)


@st.composite
def _diagonal_families(draw):
    """A family of a diagonal field, d = 1..5: constant sectional curvature,
    ``diagonal_constant`` entries drawn from three values (so rows repeat
    and form runs of several rows), or a diagonal sampled field whose rows
    repeat in runs. The start data are ``Y0 = Q C R`` and ``Yd0 = Q S R``
    with ``C^2 + S^2 = I``, a rotation ``Q`` that couples the runs and an
    invertible ``R``: the family is self-adjoint, and ``Y0`` is invertible,
    singular or ill-conditioned as ``C`` has no zero, a zero or a tiny
    entry. A perturbation of ``Yd0`` makes it not self-adjoint."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(rng.integers(1, 6))
    end = draw(st.floats(0.5, 4.0))
    kind = draw(st.sampled_from(["constant", "diagonal", "sampled"]))
    if kind == "constant":
        fld = js.constant_sectional(d + 1, draw(st.floats(-2.0, 4.0)))
    elif kind == "diagonal":
        fld = js.diagonal_constant(rng.choice([-1.0, 0.5, 2.0], size=d))
    else:
        grid = np.linspace(0.0, end, 7)
        profile = np.sort(rng.integers(0, 3, size=d))
        ops = np.zeros((grid.size, d, d))
        ops[:, np.arange(d), np.arange(d)] = 1.0 + np.sin(np.outer(grid, profile + 1.0))
        fld = js.sampled_field(grid, ops)
    angles = rng.uniform(0.0, math.pi, d)
    start = draw(st.sampled_from(["invertible", "singular", "ill-conditioned", "both singular"]))
    k = rng.permutation(d)
    if start == "ill-conditioned":
        angles[k[0]] = math.pi / 2 - 1e-9
    elif start != "invertible":
        angles[k[0]] = math.pi / 2
        if start == "both singular":
            angles[k[1:2]] = 0.0  # Yd0 singular too, when d > 1
    cos, sin = np.cos(angles), np.sin(angles)
    cos[angles == math.pi / 2] = 0.0
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] if draw(st.booleans()) else np.eye(d)
    r = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    y0, yd0 = q @ np.diag(cos) @ r, q @ np.diag(sin) @ r
    if draw(st.booleans()):
        yd0 = yd0 + draw(st.sampled_from([1e-10, 1e-3, 0.3])) * rng.standard_normal((d, d))
    spec = js.FamilySpec(field=fld, alpha=0.0, end=end, y0=y0, yd0=yd0)
    return js.integrate(spec, step=end / draw(st.integers(50, 600)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_diagonal_families())
def test_structural_bounds_bracket_every_node_of_a_diagonal_family(traj):
    bounds = traj._structural_bounds()
    if bounds is not None:
        top_hi, top_lo, bot_lo = bounds
        svd = _all_node_svals(traj.y)
        assert np.all(top_lo <= svd[:, 0]) and np.all(svd[:, 0] <= top_hi)
        assert np.all(bot_lo <= svd[:, -1] + jacobi._SLACK * svd[:, 0])
    _assert_same_as_all_nodes(traj)


def _event_rows(traj):
    return [
        [(e.time, e.sigma, e.node, e.kernel.tobytes()) for e in js.singular_events(traj, ends)]
        for ends in (False, True)
    ]


@pytest.mark.parametrize("name", [sc.name for sc in js.list_scenarios()] + ["d16"])
def test_singular_events_unchanged_under_full_grid_dets(trajs, name):
    traj = _d16_family(1e-3) if name == "d16" else trajs(name)
    # a fresh trajectory on the same arrays, its dets taken at every node
    full = js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd)
    full.dets = np.linalg.det(traj.y)
    assert _event_rows(full) == _event_rows(traj)
    taken = ~np.isnan(traj.dets)
    assert np.array_equal(traj.dets[taken], full.dets[taken])
    minima = jacobi._candidate_nodes(traj.sigma_min, -1.0, jacobi._COARSE_CUT * traj.scale)
    assert taken.sum() <= 3 * minima.size


def test_singular_events_refined_once_per_trajectory(monkeypatch):
    scanned = []
    refine = jacobi._refined_events

    def counting(traj):
        scanned.append(traj)
        return refine(traj)

    monkeypatch.setattr(jacobi, "_refined_events", counting)
    report = js.run_scenario("cp2-zero")
    assert len(report.checks) == 3  # modes B and E and rigidity all read the events
    assert len(scanned) == 1


def test_singular_events_open_window_filters_the_cached_list(trajs):
    traj = trajs("hopf-holonomy")
    closed = js.singular_events(traj)
    inner = [e for e in closed if traj.alpha + 0.5 * traj.step < e.time < traj.end - 0.5 * traj.step]
    opened = js.singular_events(traj, open_ends=True)
    assert len(opened) == len(inner) == 1
    assert all(a is b for a, b in zip(opened, inner))
    # every call gets its own list; the shared kernels are read-only
    closed.clear()
    events = js.singular_events(traj)
    assert len(events) == 3
    for e in events:
        assert not e.kernel.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            e.kernel[0, 0] = 1.0


def test_singular_events_merge_events_refined_to_one_time():
    # Y = diag(t - 2.5, 100) on nodes t = 0..5: nodes 2 and 3 tie as local
    # minima of sigma_min, each brackets the sign change of det Y and refines
    # to 2.5, and the two events merge into one with a one-column kernel
    times = np.arange(6.0)
    y = np.zeros((6, 2, 2))
    y[:, 0, 0], y[:, 1, 1] = times - 2.5, 100.0
    yd = np.broadcast_to(np.diag([1.0, 0.0]), y.shape).copy()
    traj = js.JacobiTrajectory(None, 1.0, times, y, yd)
    cuts = (jacobi.TOL_ZERO * traj.scale, jacobi._COARSE_CUT * traj.scale)
    assert jacobi._candidate_nodes(traj.sigma_min, *cuts).tolist() == [2, 3]
    (event,) = js.singular_events(traj)
    assert event.time == pytest.approx(2.5, abs=1e-12)
    assert event.kernel.shape == (2, 1)
    assert_allclose(np.abs(event.kernel[:, 0]), [1.0, 0.0], atol=1e-12)


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
    y_i = coarse.interpolate(t)
    assert np.max(np.abs(y_i - math.sin(t) * np.eye(2))) <= 1e-9
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
    # the open window drops the ends; the odd crossing inside is refined on det Y
    (inner,) = js.singular_events(traj, open_ends=True)
    assert inner.time == pytest.approx(math.pi / 2, abs=1e-9)


def _bisect_det(traj, lo, hi):
    """The det-sign bisection that ``jacobi._det_root`` replaced: the
    reference for its event times, with the same 80-evaluation cap and the
    same stopping width."""
    flo = jacobi._hermite_det(traj, lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = jacobi._hermite_det(traj, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _counted_dets(monkeypatch) -> list:
    """The times of every Hermite det evaluation from here on."""
    calls = []
    det = jacobi._hermite_det

    def counted(traj, t):
        calls.append(t)
        return det(traj, t)

    monkeypatch.setattr(jacobi, "_hermite_det", counted)
    return calls


def _refinements(trajectories, monkeypatch):
    """``(traj, lo, hi, refined time, det evaluations)`` of every bracket
    that ``singular_events`` refines on fresh copies of the trajectories."""
    calls = _counted_dets(monkeypatch)
    root = jacobi._det_root
    rows = []

    def recording(traj, lo, hi, flo, fhi):
        before = len(calls)
        t = root(traj, lo, hi, flo, fhi)
        rows.append((traj, lo, hi, t, len(calls) - before))
        return t

    monkeypatch.setattr(jacobi, "_det_root", recording)
    for traj in trajectories:
        js.singular_events(js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd))
    return rows, calls


def _assert_matches_bisection(rows, calls) -> tuple[int, int]:
    """Check every refined time against ``_bisect_det``; the det evaluations
    of the refinement and of the bisection."""
    ours = bisected = 0
    for traj, lo, hi, t, n in rows:
        before = len(calls)
        ref = _bisect_det(traj, lo, hi)
        assert lo <= t <= hi
        assert abs(t - ref) <= 1e-10 * traj.step, (traj.spec.label, lo, t, ref)
        ours += n
        bisected += len(calls) - before
    return ours, bisected


def test_det_root_matches_bisection_on_the_builtins(trajs, monkeypatch):
    rows, calls = _refinements([trajs(sc.name) for sc in js.list_scenarios()], monkeypatch)
    assert len(rows) >= 20
    ours, bisected = _assert_matches_bisection(rows, calls)
    assert 3 * ours <= bisected  # bisection takes about 40 evaluations a bracket


def test_det_root_matches_bisection_on_fine_grid_families(monkeypatch):
    families = _load("families")
    expected = json.loads((PERFBENCH / "expected_verdicts.json").read_text())
    built = families.fine_grid_families(np.random.default_rng([3, 0]), expected, "3-0")
    rows, calls = _refinements(
        [js.integrate(sc.family(), step=sc.step) for sc in built], monkeypatch
    )
    assert {traj.spec.field.dim for traj, *_ in rows} == {3, 16}
    _assert_matches_bisection(rows, calls)


def _one_step(lo, hi, f, df):
    """A d = 1 trajectory of one step from ``lo`` to ``hi`` whose Hermite
    interpolant is the cubic ``f`` (``df`` its derivative)."""
    spec = js.FamilySpec(js.constant_sectional(2, 1.0), lo, hi, [[f(lo)]], [[df(lo)]])
    y = np.array([f(lo), f(hi)]).reshape(2, 1, 1)
    yd = np.array([df(lo), df(hi)]).reshape(2, 1, 1)
    return js.JacobiTrajectory(spec, hi - lo, np.array([lo, hi]), y, yd)


@pytest.mark.parametrize("bend", [1.0, 1e3, 1e6])
def test_det_root_does_not_stall_on_a_root_next_to_an_end(bend, monkeypatch):
    # a convex det with its root 1e-14 h past the lower end: every secant
    # point falls short of the root, so with a strong bend regula falsi keeps
    # the upper end and its bracket never narrows
    h = 1e-3
    root = 1e-14 * h

    def f(t):
        return (t - root) * (1.0 + bend * t / h)

    def df(t):
        return 1.0 + bend * (2.0 * t - root) / h

    traj = _one_step(0.0, h, f, df)
    calls = _counted_dets(monkeypatch)
    t = jacobi._det_root(traj, 0.0, h, f(0.0), f(h))
    assert 0.0 <= t <= h
    assert len(calls) <= 80
    assert abs(t - root) <= 1e-10 * h
    assert abs(t - _bisect_det(traj, 0.0, h)) <= 1e-10 * h


def test_det_root_stops_on_a_probe_at_the_zero(monkeypatch):
    # det = t - h/4 in binary fractions: the first secant point is h/4 and
    # the Hermite det there is exactly 0.0
    h = 2.0**-10
    traj = _one_step(0.0, h, lambda t: t - h / 4, lambda t: 1.0)
    calls = _counted_dets(monkeypatch)
    assert jacobi._det_root(traj, 0.0, h, -h / 4, 3 * h / 4) == h / 4
    assert calls == [h / 4]
    assert _bisect_det(traj, 0.0, h) == h / 4


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
    fast = _event_rows(traj)
    monkeypatch.setattr(jacobi, "_candidate_nodes", _loop_candidates)
    # a fresh trajectory on the same arrays: the events and dets are not cached
    assert _event_rows(js.JacobiTrajectory(traj.spec, traj.step, traj.times, traj.y, traj.yd)) == fast


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
    # every node but the two at each end, which the five-point stencil needs
    assert rep.n_checked == trajs("flat-parallel").n_nodes - 4
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


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_write_table_blocks_match_one_row_per_format(tmp_path, newline):
    fmts = ["%.12g", "%d"] + ["%.17g"] * 4
    k = 32768 // len(fmts)  # the rows write_table formats per block
    row = ",".join(fmts) + newline
    rng = np.random.default_rng(5)
    for n_rows in (1, k - 1, k, k + 1, 2 * k + 1):
        vals = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-20, 20, (n_rows, 4))
        vals[rng.random((n_rows, 4)) < 0.1] = np.nan
        flag = rng.random(n_rows) < 0.5
        cols = [np.arange(n_rows) * 1e-3, flag, vals]
        path = tmp_path / f"t{n_rows}.csv"
        jacobi.write_table(path, ["# note", "t,f,a,b,c,d"], fmts, cols, newline=newline)
        ref = "# note" + newline + "t,f,a,b,c,d" + newline
        ref += "".join(row % tuple(r) for r in np.column_stack(cols).tolist())
        assert path.read_bytes() == ref.encode("utf-8"), n_rows
