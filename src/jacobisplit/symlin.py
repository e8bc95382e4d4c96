"""Dense linear algebra for small self-adjoint operators.

Everything in this package acts on low-dimensional inner-product spaces
(dimension <= 16 in practice). The symmetric eigensolver is LAPACK's
(``numpy.linalg.eigh``) with a fixed eigenvector sign convention, so
decompositions are deterministic. Orthonormalization is modified
Gram-Schmidt with one re-orthogonalization pass and a relative drop
tolerance for rank-deficient input. Spectral norms of a stack of matrices
come from one batched LAPACK SVD, except that a 1 x 1 matrix's is its
absolute value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "spectrum",
    "lead_nonnegative",
    "orthonormal_columns",
    "spectral_norms",
]

DROP_TOL = 1e-10  # orthonormal_columns drops a residual below this times the largest column


def _as_square(a) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def spectrum(op):
    """Full eigendecomposition of a self-adjoint operator.

    Accepts a square array (symmetrized on entry). Returns ``(w, v)`` with
    eigenvalues ``w`` ascending and orthonormal eigenvector columns ``v``;
    each eigenvector's largest-magnitude component is made nonnegative so
    the decomposition is deterministic.
    """
    m = _as_square(op)
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    return w, lead_nonnegative(v)


def lead_nonnegative(v: np.ndarray) -> np.ndarray:
    """Flip the columns of ``v`` in place so each one's largest-magnitude
    component is nonnegative, which fixes the sign a solver leaves free;
    returns ``v``."""
    if v.size:
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v[:, lead < 0] *= -1.0
    return v


def orthonormal_columns(a) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Input columns are orthonormalized in order; a column whose residual norm
    falls below ``DROP_TOL`` times the largest input column norm is dropped.
    Returns a matrix whose columns are orthonormal (possibly fewer than the
    input had). The input is first scaled by the power of two that brings
    its largest magnitude to ``[1/2, 1)``, so no norm overflows or
    underflows with its scale, and ``2^k a`` gives the bits of ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    rows = a.shape[0]
    peak = float(np.max(np.abs(a), initial=0.0))
    if peak == 0.0:
        return np.zeros((rows, 0))
    a = np.ldexp(a, -math.frexp(peak)[1])
    ref = float(np.max(np.linalg.norm(a, axis=0)))
    kept: list[np.ndarray] = []
    for j in range(a.shape[1]):
        v = a[:, j].astype(float).copy()
        for _ in range(2):
            for u in kept:
                v -= (u @ v) * u
        nv = float(np.linalg.norm(v))
        if nv > DROP_TOL * ref:
            kept.append(v / nv)
    if not kept:
        return np.zeros((rows, 0))
    return np.column_stack(kept)


def spectral_norms(stack) -> np.ndarray:
    """The spectral norm of every matrix in a stack ``(..., m, n)``.

    A stack of 1 x 1 matrices returns their absolute values, the bits
    LAPACK's SVD gives for finite entries (it returns NaN for an infinite
    one and fails on a NaN) without one LAPACK call per matrix. Any other
    stack reads the largest singular value of one batched SVD; an empty
    matrix has norm 0.
    """
    a = np.asarray(stack, dtype=float)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if not a.size:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]
