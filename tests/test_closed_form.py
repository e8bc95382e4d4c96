"""Closed-form oracles for ``diagonal_constant`` fields of each sign.

With a diagonal field and diagonal initial data every member ``e_i``
solves ``y'' = -lam_i y`` on its own: ``cos``/``sin`` for ``lam > 0``,
``cosh``/``sinh`` for ``lam < 0`` and linear growth for ``lam = 0``. So
the integrated family, its vanishing instants ``k pi / sqrt(lam)`` with
kernel ``e_i``, and its parallel members are all known exactly.
"""

import math

import numpy as np
import pytest

import jacobisplit as js

EIGS = [4.0, 2.0, -1.0, 0.0]
END = 3.0


def _closed_form(lam: float, t: np.ndarray, y0: float, yd0: float):
    """``(y, y')`` of ``y'' = -lam y`` with ``y(0) = y0`` and ``y'(0) = yd0``."""
    w = math.sqrt(abs(lam))
    if lam > 0:
        c, s = np.cos(w * t), np.sin(w * t)
        return c * y0 + s / w * yd0, -w * s * y0 + c * yd0
    if lam < 0:
        c, s = np.cosh(w * t), np.sinh(w * t)
        return c * y0 + s / w * yd0, w * s * y0 + c * yd0
    return y0 + t * yd0, np.full_like(t, yd0)


def _integrate(eigs, y0, yd0):
    fld = js.diagonal_constant(eigs)
    spec = js.FamilySpec(fld, 0.0, END, np.diag(y0), np.diag(yd0))
    return js.integrate(spec, step=1e-3)


def test_integrate_matches_the_closed_form_of_each_sign():
    y0, yd0 = [1.0, 0.5, 1.0, 2.0], [0.5, -1.0, 1.0, 0.5]
    traj = _integrate(EIGS, y0, yd0)
    for i, lam in enumerate(EIGS):
        y, yd = _closed_form(lam, traj.times, y0[i], yd0[i])
        # the relative RK4 error at step 1e-3 is at most 7e-13 here
        assert np.max(np.abs(traj.y[:, i, i] - y)) <= 1e-10 * np.max(np.abs(y)), lam
        assert np.max(np.abs(traj.yd[:, i, i] - yd)) <= 1e-10 * np.max(np.abs(yd)), lam
    off = ~np.eye(len(EIGS), dtype=bool)
    assert np.all(traj.y[:, off] == 0.0) and np.all(traj.yd[:, off] == 0.0)


def test_singular_events_at_k_pi_over_sqrt_lam_with_kernel_e_i():
    # members sin(sqrt(lam) t) / sqrt(lam), sinh and t: all vanish at t = 0,
    # and only lam = 4 (at pi/2) and lam = 2 (at pi/sqrt 2) inside (0, 3]
    traj = _integrate(EIGS, [0.0] * 4, [1.0] * 4)
    expected = [(math.pi / 2.0, 0), (math.pi / math.sqrt(2.0), 1)]
    events = js.singular_events(traj, open_ends=True)
    assert len(events) == len(expected)
    eye = np.eye(len(EIGS))
    for event, (t, i) in zip(events, expected):
        assert event.time == pytest.approx(t, abs=1e-9)
        assert event.kernel.shape == (len(EIGS), 1)
        np.testing.assert_allclose(event.kernel[:, 0], eye[i], atol=1e-9)
    first, *rest = js.singular_events(traj)
    assert first.time == 0.0 and first.kernel.shape == (4, 4)
    assert [e.time for e in rest] == [e.time for e in events]


def test_parallel_span_finds_the_flat_members_at_rest():
    # only e_1 has lam = 0 and yd0 = 0; e_0 turns, e_2 grows linearly, e_3 like cosh
    traj = _integrate([1.0, 0.0, 0.0, -1.0], [1.0] * 4, [0.0, 0.0, 1.0, 0.0])
    span = js.parallel_span(traj)
    assert span.basis.shape == (4, 1)
    np.testing.assert_allclose(span.basis[:, 0], [0.0, 1.0, 0.0, 0.0], atol=1e-12)
    assert span.residuals[0] == 0.0
    # the next candidate is e_0: max |sin t| over the stacked scale sqrt(cosh 6)
    assert span.rejected_residual == pytest.approx(1.0 / math.sqrt(math.cosh(6.0)), rel=1e-6)
