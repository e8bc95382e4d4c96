"""Curvature operator fields along a unit-speed geodesic.

A curvature field assigns to each parameter value ``t`` a self-adjoint
operator on the normal space of the geodesic: dimension ``n - 1`` when the
ambient dimension is ``n``. Everything is expressed in a parallel
orthonormal frame along the geodesic, so a field is just a matrix-valued
function of time. Three kinds exist:

* ``constant-sectional``: ``c`` times the identity.
* ``diagonal-constant``: a fixed diagonal operator (covers product metrics
  and the rank-one symmetric model with eigenvalues ``4, 1, ..., 1``).
* ``sampled``: symmetrized node values on a time grid, linearly
  interpolated entrywise between nodes; loadable from JSON.

``ric_k_floor`` evaluates the minimum over orthonormal k-frames (orthogonal
to the geodesic direction) of the k-trace of the operator, which equals the
sum of its k smallest eigenvalues. ``ric_k_floor_sampled`` estimates the
same quantity by brute-force random frame sampling and is used as an
independent cross-check: it can only overshoot the true floor.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CurvatureField",
    "constant_sectional",
    "diagonal_constant",
    "fubini_study_model",
    "sampled_field",
    "sampled_field_from_json",
    "load_sampled_field",
    "ric_k_traces",
    "ric_k_floor",
    "ric_k_floor_sampled",
]

_KINDS = ("constant-sectional", "diagonal-constant", "sampled")


@dataclass(frozen=True)
class CurvatureField:
    """Time-dependent self-adjoint operator on the (n-1)-dim normal space.

    ``matrices(times)`` reads the field over a whole grid at once: an array
    of shape ``(len(times), d, d)``, or ``(1, d, d)`` for the constant kinds,
    which broadcasts against any grid without a per-node copy.
    ``matrix(t)`` returns the operator entries at one time as a read-only
    array; for the constant kinds the same cached array object is returned
    for every ``t``.

    ``_eval`` maps a 1-D array of times to their node values, or to one
    ``(d, d)`` array when the field does not depend on time.
    """

    kind: str
    n: int  # ambient dimension; operators act on dimension n - 1
    label: str = ""
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown curvature field kind: {self.kind!r}")
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")

    @property
    def dim(self) -> int:
        """Dimension of the normal space the operators act on."""
        return self.n - 1

    def matrices(self, times) -> np.ndarray:
        out = self._eval(np.asarray(times, dtype=float).ravel())
        return out[None] if out.ndim == 2 else out

    def matrix(self, t: float) -> np.ndarray:
        out = self._eval(np.array([float(t)]))
        return out if out.ndim == 2 else out[0]


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    m.flags.writeable = False
    return m


def constant_sectional(n: int, c: float, label: str = "") -> CurvatureField:
    """Field of constant sectional curvature ``c`` in ambient dimension ``n``."""
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if not np.isfinite(c):
        raise ValueError("sectional curvature must be finite")
    cached = _frozen(float(c) * np.eye(n - 1))
    return CurvatureField(
        kind="constant-sectional",
        n=n,
        label=label or f"constant-sectional(c={c})",
        _eval=lambda times: cached,
    )


def diagonal_constant(eigs, label: str = "") -> CurvatureField:
    """Constant field with the given diagonal entries.

    The normal-space frame is an eigenbasis for all times; the ambient
    dimension is ``len(eigs) + 1``.
    """
    e = np.asarray(eigs, dtype=float).ravel()
    if e.size < 1:
        raise ValueError("need at least one diagonal entry")
    if not np.all(np.isfinite(e)):
        raise ValueError("diagonal entries must be finite")
    cached = _frozen(np.diag(e))
    return CurvatureField(
        kind="diagonal-constant",
        n=e.size + 1,
        label=label or "diagonal-constant",
        _eval=lambda times: cached,
    )


def fubini_study_model(n: int) -> CurvatureField:
    """Curvature operator along a geodesic of the rank-one model whose
    sectional curvatures are pinched in [1, 4].

    ``n`` is the ambient (real) dimension and must be even and >= 4. In a
    parallel frame adapted to the complex structure, with the first normal
    direction spanning the complex line of the velocity, the operator is the
    constant ``diag(4, 1, ..., 1)``.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("ambient dimension must be even and >= 4")
    e = np.ones(n - 1)
    e[0] = 4.0
    return diagonal_constant(e, label=f"fubini-study(n={n})")


def sampled_field(grid, ops, label: str = "") -> CurvatureField:
    """Field given by node samples, linearly interpolated.

    ``grid``: strictly increasing 1-D array of finite times (one node is
    allowed, giving a field defined only at that instant). ``ops``: array of
    shape ``(len(grid), d, d)`` with the operator entries at the nodes. Node
    operators must be finite and numerically symmetric; they are stored
    symmetrized, so the entrywise interpolant is exactly self-adjoint too.
    Evaluation outside ``[grid[0], grid[-1]]`` raises ValueError.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    ops = np.asarray(ops, dtype=float)
    if grid.size < 1:
        raise ValueError("sampled field needs at least one grid node")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"grid time {bad[0]} is not finite ({grid[bad[0]]})")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid times must be strictly increasing")
    if ops.ndim != 3 or ops.shape[0] != grid.size or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"ops must have shape (len(grid), d, d), got {ops.shape}")
    d = ops.shape[1]
    for i in range(grid.size):
        if not np.all(np.isfinite(ops[i])):
            raise ValueError(f"non-finite operator entries at node {i}")
        defect = float(np.max(np.abs(ops[i] - ops[i].T)))
        scale = max(1.0, float(np.max(np.abs(ops[i]))))
        if defect > 1e-8 * scale:
            raise ValueError(f"operator at node {i} is not symmetric (defect {defect:.3e})")
    sym_ops = (ops + np.transpose(ops, (0, 2, 1))) / 2.0
    t0, t1 = float(grid[0]), float(grid[-1])

    def _eval(times: np.ndarray) -> np.ndarray:
        outside = (times < t0) | (times > t1)
        if outside.any():
            raise ValueError(f"time {times[outside][0]} outside sampled domain [{t0}, {t1}]")
        if grid.size == 1:
            return _frozen(np.broadcast_to(sym_ops[:1], (times.size, d, d)))
        j = np.clip(np.searchsorted(grid, times, side="right") - 1, 0, grid.size - 2)
        w = ((times - grid[j]) / (grid[j + 1] - grid[j]))[:, None, None]
        lo, hi = sym_ops[j], sym_ops[j + 1]  # copies, combined in place
        lo *= 1.0 - w
        hi *= w
        lo += hi
        return _frozen(lo)

    return CurvatureField(kind="sampled", n=d + 1, label=label or "sampled", _eval=_eval)


def is_json_number(value) -> bool:
    """A number that a float holds: a real other than a boolean, and no
    integer beyond the float range. NaN and the infinities pass; a sampled
    field reports them by node, a config rejects them."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    return not isinstance(value, numbers.Integral) or abs(value) <= sys.float_info.max


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(is_json_number, value))


def sampled_field_from_json(doc: dict) -> CurvatureField:
    """Build a sampled field from a parsed JSON document.

    Expected keys: ``n`` (ambient dimension), ``grid`` (list of times),
    ``ops`` (list with one entry per grid node, each a row-major flat list
    of the (n-1) x (n-1) operator entries); optional ``label``. Every time
    and entry must be a JSON number, not a string or a boolean. Malformed
    nodes are reported with their index.
    """
    try:
        n, grid, raw = doc["n"], doc["grid"], doc["ops"]
    except KeyError as exc:
        raise ValueError(f"malformed sampled-field document: missing key {exc}") from exc
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"sampled-field key 'n' must be an integer, got {n!r}")
    if not _is_number_list(grid):
        raise ValueError(f"sampled-field key 'grid' must be a list of numbers, got {grid!r}")
    if not (isinstance(raw, list) and all(map(_is_number_list, raw))):
        raise ValueError("sampled-field key 'ops' must be a list of lists of numbers")
    grid = np.asarray(grid, dtype=float)
    d = n - 1
    if d < 1:
        raise ValueError("ambient dimension must be >= 2")
    if len(raw) != grid.size:
        raise ValueError(f"ops has {len(raw)} entries but grid has {grid.size} nodes")
    ops = np.empty((grid.size, d, d))
    for i, flat in enumerate(raw):
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != d * d:
            raise ValueError(f"node {i}: expected {d * d} operator entries, got {flat.size}")
        ops[i] = flat.reshape(d, d)
    return sampled_field(grid, ops, label=str(doc.get("label", "sampled")))


def read_json_object(path, what: str) -> dict:
    """The JSON object in a UTF-8 file; ``what`` names the file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must contain a JSON object")
    return doc


def load_sampled_field(path) -> CurvatureField:
    """Read a sampled field from a JSON file (see sampled_field_from_json)."""
    return sampled_field_from_json(read_json_object(path, "sampled-field file"))


def ric_k_traces(field: CurvatureField, t, k: int) -> np.ndarray:
    """The k-trace floor at each of the times ``t`` (a scalar or an array):
    the sum of the k smallest eigenvalues of the curvature operator. One
    value only when the field does not depend on time."""
    d = field.dim
    if not (1 <= k <= d):
        raise ValueError(f"k out of range: k={k}, dim={d}")
    w = np.linalg.eigvalsh(field.matrices(t))
    return np.sum(w[:, :k], axis=1)


def ric_k_floor(field: CurvatureField, t, k: int) -> float:
    """Minimum over orthonormal k-frames (orthogonal to the geodesic
    direction) of the k-trace of the curvature operator at time t: the sum
    of the k smallest eigenvalues. ``t`` may also be an array of times (a
    node grid); the floor is then the minimum over them."""
    return float(np.min(ric_k_traces(field, t, k)))


def ric_k_floor_sampled(
    field: CurvatureField, t: float, k: int, samples: int = 2000, seed: int = 0
) -> float:
    """Randomized estimate of ``ric_k_floor``.

    Draws ``samples`` orthonormal k-frames (QR of standard Gaussian
    matrices, fixed ``seed``) and returns the smallest sampled k-trace.
    Always an upper bound for the true floor.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = field.dim
    if not (1 <= k <= d):
        raise ValueError(f"k out of range: k={k}, dim={d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, d, k))
    q, _ = np.linalg.qr(g)
    a = np.asarray(field.matrix(t), dtype=float)
    vals = np.einsum("sik,ij,sjk->s", q, a, q)
    return float(np.min(vals))
