"""Tests for model curvature fields.

The complex-projective-plane field is checked against an independently
computed tensor oracle: the standard curvature formula on the adapted
frame of the complex structure, R_v(x) = x + 3 <x, Jv> Jv for x
perpendicular to v, evaluated with explicit matrices.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jacobisplit as js


def cp2_oracle_matrix():
    """Curvature operator of the projective-plane model along a direction v,
    written in the frame (Jv, w, Jw) of the orthogonal complement."""
    jmat = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    v = np.array([1.0, 0.0, 0.0, 0.0])
    jv = jmat @ v
    frame = [jv, np.array([0.0, 0.0, 1.0, 0.0]), jmat @ np.array([0.0, 0.0, 1.0, 0.0])]
    out = np.zeros((3, 3))
    for b, x in enumerate(frame):
        rx = x + 3.0 * (x @ jv) * jv
        for a, y in enumerate(frame):
            out[a, b] = y @ rx
    return out


def test_constant_sectional_values():
    fld = js.constant_sectional(3, 1.0)
    assert fld.n == 3 and fld.dim == 2
    assert_allclose(fld.matrix(0.3), np.eye(2))
    flat = js.constant_sectional(4, 0.0)
    assert_allclose(flat.matrix(2.0), np.zeros((3, 3)))
    tiny = js.constant_sectional(2, 1.0)
    assert tiny.matrix(0.0).shape == (1, 1)


def test_constant_sectional_matrix_is_cached_and_read_only():
    fld = js.constant_sectional(3, 2.5)
    m1, m2 = fld.matrix(0.1), fld.matrix(2.9)
    assert m1 is m2
    with pytest.raises(ValueError):
        m1[0, 0] = 7.0


def test_constant_sectional_dim_check():
    with pytest.raises(ValueError):
        js.constant_sectional(1, 1.0)


def test_diagonal_constant():
    fld = js.diagonal_constant([1.0, 0.0, 0.0])
    assert fld.n == 4
    assert_allclose(fld.matrix(1.0), np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        js.diagonal_constant([])
    with pytest.raises(ValueError):
        js.diagonal_constant([1.0, np.inf])


def test_fubini_study_matches_tensor_oracle():
    fld = js.fubini_study_model(4)
    assert_allclose(fld.matrix(0.7), cp2_oracle_matrix())
    w, _ = js.spectrum(fld.matrix(0.0))
    assert_allclose(w, [1.0, 1.0, 4.0])


def test_fubini_study_floors():
    fld = js.fubini_study_model(4)
    assert js.ric_k_floor(fld, 0.0, 1) == pytest.approx(1.0)
    assert js.ric_k_floor(fld, 0.0, 2) == pytest.approx(2.0)
    assert js.ric_k_floor(fld, 0.0, 3) == pytest.approx(6.0)


def test_fubini_study_requires_even_dim():
    for bad in (2, 3, 5):
        with pytest.raises(ValueError):
            js.fubini_study_model(bad)


def test_ric_k_floor_constant():
    fld = js.constant_sectional(5, 1.0)
    for k in range(1, 5):
        assert js.ric_k_floor(fld, 0.0, k) == pytest.approx(float(k))
    prod = js.diagonal_constant([1.0, 0.0, 0.0])
    assert js.ric_k_floor(prod, 0.0, 2) == pytest.approx(0.0)


def test_ric_k_floor_superadditive_in_k():
    fld = js.diagonal_constant([4.0, 1.0, -0.5, 2.0])
    w, _ = js.spectrum(fld.matrix(0.0))
    for k in range(1, 4):
        assert js.ric_k_floor(fld, 0.0, k + 1) >= js.ric_k_floor(fld, 0.0, k) + w[0] - 1e-12


def test_ric_k_floor_sampled_exact_for_isotropic():
    fld = js.constant_sectional(4, 1.0)
    for seed in (0, 1, 2):
        val = js.ric_k_floor_sampled(fld, 0.0, 2, samples=50, seed=seed)
        assert val == pytest.approx(2.0, abs=1e-12)


def test_ric_k_floor_sampled_upper_bounds_floor():
    rng = np.random.default_rng(13)
    for _ in range(6):
        eigs = rng.uniform(-1.0, 3.0, size=int(rng.integers(2, 6)))
        fld = js.diagonal_constant(eigs)
        for k in range(1, eigs.size + 1):
            exact = js.ric_k_floor(fld, 0.0, k)
            samp = js.ric_k_floor_sampled(fld, 0.0, k, samples=4000, seed=99)
            assert samp >= exact - 1e-10
            assert samp <= exact + 0.6  # loose sanity bound on the overshoot


def test_ric_k_floor_sampled_validation():
    fld = js.constant_sectional(3, 1.0)
    with pytest.raises(ValueError):
        js.ric_k_floor_sampled(fld, 0.0, 1, samples=0)
    with pytest.raises(ValueError):
        js.ric_k_floor_sampled(fld, 0.0, 3)


def test_sampled_field_interpolates_and_resymmetrizes():
    grid = [0.0, 1.0]
    ops = [np.eye(2), np.diag([3.0, 1.0])]
    fld = js.sampled_field(grid, ops)
    assert_allclose(fld.matrix(0.5), np.diag([2.0, 1.0]))
    assert_allclose(fld.matrix(0.0), np.eye(2))
    mid = fld.matrix(0.25)
    assert_allclose(mid, mid.T)


def test_sampled_field_single_node():
    fld = js.sampled_field([2.0], [np.diag([1.0, 5.0])])
    assert_allclose(fld.matrix(2.0), np.diag([1.0, 5.0]))


def test_sampled_field_domain_and_validation():
    fld = js.sampled_field([0.0, 1.0], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="outside sampled domain"):
        fld.matrix(1.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        js.sampled_field([1.0, 0.0], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="node 1"):
        js.sampled_field([0.0, 1.0], [np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="node 1"):
        js.sampled_field([0.0, 1.0], [np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]])


def test_sampled_field_from_json_and_file(tmp_path):
    doc = {
        "n": 3,
        "grid": [0.0, 2.0],
        "ops": [[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 2.0]],
    }
    fld = js.sampled_field_from_json(doc)
    assert fld.n == 3
    assert_allclose(fld.matrix(1.0), 1.5 * np.eye(2))

    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    fld2 = js.load_sampled_field(path)
    assert_allclose(fld2.matrix(2.0), 2.0 * np.eye(2))


def test_sampled_field_from_json_malformed():
    with pytest.raises(ValueError, match="malformed"):
        js.sampled_field_from_json({"grid": [0.0]})
    with pytest.raises(ValueError, match="node 0"):
        js.sampled_field_from_json({"n": 3, "grid": [0.0], "ops": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="2 entries"):
        js.sampled_field_from_json({"n": 3, "grid": [0.0, 1.0, 2.0], "ops": [[1.0] * 4] * 2})


def test_field_kind_is_validated():
    with pytest.raises(ValueError, match="unknown curvature field kind"):
        js.CurvatureField(kind="mystery", n=3, label="", _eval=lambda t: np.eye(2))


def test_matrices_reads_a_whole_grid():
    times = np.linspace(0.0, 1.0, 7)
    const = js.diagonal_constant([1.0, 2.0])
    block = const.matrices(times)
    # one read-only matrix that broadcasts over the grid, never a per-node copy
    assert block.shape == (1, 2, 2)
    assert np.shares_memory(block, const.matrix(0.5))
    assert not block.flags.writeable
    ops = [np.eye(2), np.diag([3.0, 1.0]), [[1.0, 2.0], [2.0, 0.0]]]
    fld = js.sampled_field([0.0, 0.5, 1.0], ops)
    grid = fld.matrices(times)
    assert grid.shape == (7, 2, 2)
    assert_allclose(grid, np.stack([fld.matrix(t) for t in times]), rtol=0, atol=0)
    assert_allclose(grid, np.transpose(grid, (0, 2, 1)), rtol=0, atol=0)
    with pytest.raises(ValueError, match="time 1.25 outside sampled domain"):
        fld.matrices([0.5, 1.25, 1.5])
    assert js.ric_k_floor(fld, times, 1) == pytest.approx(min(np.linalg.eigvalsh(grid)[:, 0]))
