"""Unit tests for the symmetric linear algebra layer.

``spectrum`` wraps numpy.linalg.eigh, so comparing eigenvalues with
numpy.linalg.eigvalsh only pins the wrapper. What carries the weight are
the algebraic properties that do not depend on any solver: the eigenpair
residual, orthonormality, and the trace and Frobenius invariants. The Ky
Fan minimum (the sum of the k smallest eigenvalues) is the curvature floor
``ric_k_floor`` of a field that is one constant operator.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jacobisplit import orthonormal_columns, ric_k_floor, sampled_field, spectrum


def ky_fan_min(a, k):
    """The Ky Fan minimum of the symmetric matrix ``a`` through the live path:
    the k-trace floor of a one-node sampled field."""
    return ric_k_floor(sampled_field([0.0], [a]), 0.0, k)


def test_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectrum([[np.nan, 0.0], [0.0, 1.0]])


def test_spectrum_identity():
    w, v = spectrum(np.eye(3))
    assert_allclose(w, [1.0, 1.0, 1.0])
    assert_allclose(v @ v.T, np.eye(3), atol=1e-14)


def test_spectrum_diagonal_sorted_ascending():
    w, v = spectrum(np.diag([4.0, 1.0, 1.0]))
    assert_allclose(w, [1.0, 1.0, 4.0])
    # eigenvector for the simple eigenvalue 4 is the first axis
    assert_allclose(np.abs(v[:, 2]), [1.0, 0.0, 0.0], atol=1e-14)


def test_spectrum_exchange_matrix():
    w, v = spectrum([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(w, [-1.0, 1.0], atol=1e-15)
    assert_allclose(np.abs(v[:, 1]), [np.sqrt(0.5)] * 2, atol=1e-14)


def test_spectrum_matches_eigh_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d))
        a = (a + a.T) / 2.0
        w, v = spectrum(a)
        w_ref = np.linalg.eigvalsh(a)
        assert_allclose(w, w_ref, atol=1e-12 * max(1.0, np.abs(a).max()))
        # residual and orthonormality, solver-independent
        assert np.max(np.abs(a @ v - v @ np.diag(w))) <= 1e-10 * max(1.0, np.abs(w).max())
        assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-12
        assert np.sum(w) == pytest.approx(np.trace(a), abs=1e-12 * d)
        assert np.sum(w**2) == pytest.approx(np.sum(a * a), rel=1e-12)


def test_spectrum_sign_convention_deterministic():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    _, v = spectrum(a)
    for j in range(5):
        i = int(np.argmax(np.abs(v[:, j])))
        assert v[i, j] >= 0.0
    # and the decomposition is reproducible
    _, v2 = spectrum(a.copy())
    assert_allclose(v, v2)


def test_spectrum_conjugation_invariance():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2.0
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    w1, _ = spectrum(a)
    w2, _ = spectrum(q @ a @ q.T)
    assert_allclose(w1, w2, atol=1e-12)


def test_ky_fan_min_values():
    a = np.diag([4.0, 1.0, 1.0])
    assert ky_fan_min(a, 1) == pytest.approx(1.0)
    assert ky_fan_min(a, 2) == pytest.approx(2.0)
    assert ky_fan_min(a, 3) == pytest.approx(6.0)


def test_ky_fan_min_k_range():
    with pytest.raises(ValueError):
        ky_fan_min(np.eye(2), 0)
    with pytest.raises(ValueError):
        ky_fan_min(np.eye(2), 3)


def test_ky_fan_min_is_frame_minimum():
    # random frames can only overshoot the exact minimum
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d))
        a = (a + a.T) / 2.0
        for k in range(1, d + 1):
            exact = ky_fan_min(a, k)
            g = rng.standard_normal((200, d, k))
            q, _ = np.linalg.qr(g)
            sampled = float(np.einsum("sik,ij,sjk->s", q, a, q).min())
            assert sampled >= exact - 1e-10


def test_orthonormal_columns_basic():
    q = orthonormal_columns(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    assert q.shape == (3, 2)
    assert_allclose(q.T @ q, np.eye(2), atol=1e-14)


def test_orthonormal_columns_drops_dependent():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    q = orthonormal_columns(a)
    assert q.shape == (3, 2)


def test_orthonormal_columns_reorthogonalizes():
    # nearly dependent input should still come out orthonormal to machine level
    rng = np.random.default_rng(2)
    base = rng.standard_normal((6, 1))
    a = np.hstack([base, base + 1e-9 * rng.standard_normal((6, 1))])
    q = orthonormal_columns(a)
    assert q.shape == (6, 2)  # the residual, about 2e-9, clears the drop cut
    assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_orthonormal_columns_empty():
    q = orthonormal_columns(np.zeros((4, 0)))
    assert q.shape == (4, 0)
    assert orthonormal_columns(np.zeros((4, 2))).shape == (4, 0)
