"""Dense linear algebra for small (self-adjoint) operators.

Everything in this package acts on low-dimensional inner-product spaces
(dimension <= 16 in practice). The symmetric eigensolver is LAPACK's
(``numpy.linalg.eigh``) with a fixed eigenvector sign convention, so
decompositions are deterministic. Orthonormalization is modified
Gram-Schmidt with one re-orthogonalization pass and a relative drop
tolerance for rank-deficient input.

Two thin wrapper types distinguish operators that are self-adjoint by
construction (``SymOperator``, stored symmetrized) from general ones
(``GeneralOperator``). Both expose ``entries`` as a read-only array and
convert transparently via ``numpy.asarray``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymOperator",
    "GeneralOperator",
    "spectrum",
    "lead_nonnegative",
    "symmetry_defect",
    "ky_fan_min",
    "orthogonal_projector",
    "orthonormal_columns",
]


def _as_square(a) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SymOperator:
    """Self-adjoint operator on R^d.

    The constructor symmetrizes its input, ``entries = (A + A^T) / 2``, and
    records the largest entrywise deviation from symmetry it saw, so callers
    can tell whether meaningful skewness was discarded.
    """

    entries: np.ndarray
    presym_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        m = _as_square(self.entries)
        defect = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        sym = (m + m.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "presym_defect", defect)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True)
class GeneralOperator:
    """Square operator with no symmetry assumption (e.g. a Riccati matrix
    of a family that might fail self-adjointness, or a Wronskian form)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square(self.entries)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def spectrum(op):
    """Full eigendecomposition of a self-adjoint operator.

    Accepts a SymOperator or an array (symmetrized on entry). Returns
    ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal eigenvector
    columns ``v``; each eigenvector's largest-magnitude component is made
    nonnegative so the decomposition is deterministic.
    """
    m = _as_square(np.asarray(op, dtype=float))
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


def symmetry_defect(op, metric=None) -> float:
    """Largest failure of <op u, v> = <u, op v> over basis pairs.

    ``metric`` is an optional positive-definite Gram matrix defining the
    inner product (identity by default). Raises ValueError("invalid metric")
    if the metric is not positive definite.
    """
    a = _as_square(np.asarray(op, dtype=float))
    if metric is None:
        g = np.eye(a.shape[0])
    else:
        g = _as_square(np.asarray(metric, dtype=float))
        if g.shape != a.shape:
            raise ValueError("metric dimension does not match operator")
        w, _ = spectrum(g)
        if w.size == 0 or w[0] <= 0.0:
            raise ValueError("invalid metric")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a.T @ g - g @ a)))


def ky_fan_min(op, k: int) -> float:
    """Minimum over orthonormal k-frames of the quadratic-form trace.

    By the Ky Fan minimum principle this equals the sum of the k smallest
    eigenvalues of the (symmetrized) operator.
    """
    a = _as_square(np.asarray(op, dtype=float))
    d = a.shape[0]
    if not (1 <= k <= d):
        raise ValueError(f"k out of range: k={k}, dim={d}")
    w, _ = spectrum(a)
    return float(np.sum(w[:k]))


def orthonormal_columns(a, drop_tol: float = 1e-10) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Input columns are orthonormalized in order; a column whose residual norm
    falls below ``drop_tol`` times the largest input column norm is dropped.
    Returns a matrix whose columns are orthonormal (possibly fewer than the
    input had).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    rows = a.shape[0]
    if a.size == 0:
        return np.zeros((rows, 0))
    ref = float(np.max(np.linalg.norm(a, axis=0)))
    if ref == 0.0:
        return np.zeros((rows, 0))
    kept: list[np.ndarray] = []
    for j in range(a.shape[1]):
        v = a[:, j].astype(float).copy()
        for _ in range(2):
            for u in kept:
                v -= (u @ v) * u
        nv = float(np.linalg.norm(v))
        if nv > drop_tol * ref:
            kept.append(v / nv)
    if not kept:
        return np.zeros((rows, 0))
    return np.column_stack(kept)


def orthogonal_projector(basis, dim: int | None = None) -> SymOperator:
    """Orthogonal projector onto the span of the given vectors.

    ``basis`` is a sequence of 1-D vectors (possibly dependent or empty).
    ``dim`` is required when the sequence is empty.
    """
    vecs = [np.asarray(v, dtype=float) for v in basis]
    if vecs:
        d = vecs[0].shape[0]
        if any(v.shape != (d,) for v in vecs):
            raise ValueError("basis vectors must share one dimension")
        if dim is not None and dim != d:
            raise ValueError("dim does not match basis vectors")
    else:
        if dim is None:
            raise ValueError("dim is required for an empty basis")
        d = dim
        return SymOperator(np.zeros((d, d)))
    q = orthonormal_columns(np.column_stack(vecs))
    return SymOperator(q @ q.T)
