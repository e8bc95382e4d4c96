"""Fine-grid family construction and the closed-form oracle."""

import math

import numpy as np
import pytest

from families import (
    ALPHA,
    END,
    FAMILY_KINDS,
    GENERATORS,
    _zero_offsets,
    closed_form_deviation,
)
from jacobisplit import FamilySpec, diagonal_constant, integrate

EXPECTED = {kind: {"splitting-B": "verified", "rigidity": "hypothesis-violated"} for kind in FAMILY_KINDS}


@pytest.mark.parametrize("seed", range(20))
def test_zero_offsets_keep_their_gap(seed):
    offsets = _zero_offsets(np.random.default_rng(seed), 16, 0.15, 2.5, 0.05)
    assert np.all(np.diff(offsets) >= 0.05 - 1e-12)
    assert offsets[0] >= 0.15 and offsets[-1] <= 2.5


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_families_satisfy_the_gates_by_construction(kind, seed):
    scenario = GENERATORS[kind](np.random.default_rng(seed), EXPECTED, "t")
    fld = scenario.fld
    assert scenario.step == 1e-4
    assert (scenario.alpha, scenario.end) == (ALPHA, END)
    # self-adjoint initial data and slopes under the boundary bound
    assert np.allclose(scenario.yd0, scenario.yd0.T)
    assert np.max(np.linalg.eigvalsh(scenario.yd0)) <= 1.0 / math.tan(ALPHA) + 1e-12
    # curvature floor at or above one everywhere
    for t in np.linspace(ALPHA, END, 7):
        assert np.min(np.linalg.eigvalsh(fld.matrix(t))) >= 1.0 - 1e-12


def test_fields_differ_between_families():
    rng = np.random.default_rng(0)
    a = GENERATORS["constant-d16"](rng, EXPECTED, "a").fld.matrix(ALPHA)
    b = GENERATORS["constant-d16"](rng, EXPECTED, "b").fld.matrix(ALPHA)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("eigs", [[1.3, 0.7], [-0.5, 2.0], [0.0, 1.0], [-1.0, 0.0, 4.0]])
def test_closed_form_matches_integrator_for_any_sign(eigs):
    d = len(eigs)
    rng = np.random.default_rng(1)
    yd0 = rng.standard_normal((d, d))
    spec = FamilySpec(field=diagonal_constant(eigs), alpha=0.3, end=2.0, y0=np.eye(d), yd0=yd0)
    assert closed_form_deviation(integrate(spec, step=1e-3)) < 1e-10
    assert closed_form_deviation(integrate(spec, step=1e-1)) > 1e-9


def test_closed_form_detects_a_wrong_solution():
    spec = FamilySpec(field=diagonal_constant([1.0]), alpha=0.0, end=1.0, y0=np.eye(1), yd0=np.eye(1))
    traj = integrate(spec, step=1e-3)
    assert closed_form_deviation(traj) < 1e-10
    traj.y[500] *= 1.001
    assert closed_form_deviation(traj) > 1e-4
