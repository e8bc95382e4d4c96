"""Matrix Jacobi equation integrator and trajectory analysis.

A family of Jacobi fields of dimension ``d = n - 1`` along a unit-speed
geodesic is represented by a matrix pair ``(Y(t), Y'(t))`` solving

    Y'' = -R(t) Y

in a parallel orthonormal frame, where ``R`` is a curvature field. Columns
of ``Y`` are the member fields' components; a coefficient vector ``c``
selects the member ``J(t) = Y(t) c``.

The integrator is classical fixed-step fourth-order Runge-Kutta on the
first-order system ``(Y, Yd)' = (Yd, -R(t) Y)``. Node data are stored for
every grid point; between nodes, values are recovered by cubic Hermite
interpolation (using the stored derivatives, and ``-R Y`` for the slope of
``Yd``), which keeps interpolation error at the integrator's own order.

The system is linear, so each RK4 step maps the stacked state ``z = [Y; Yd]``
by one ``2d x 2d`` matrix ``P_j``, and the ``N`` steps run as a two-level
blocked scan (the blocked form of a prefix-product scan; Blelloch, "Prefix
sums and their applications", 1990) instead of a loop of ``N`` steps. The
steps are cut into ``ceil(N/B)`` blocks of ``B = isqrt(N)``:

1. propagators: all blocks advance their ``2d x 2d`` propagators together,
   ``B`` array steps;
2. block starts: ``z_{b+1} = z_b + E_b z_b``, one small product per block;
3. replay: all blocks step from their starts together, ``B`` array steps,
   writing ``Y`` and ``Yd`` in place.

A field that does not depend on time has one step map for every block:
pass 1 runs once and keeps the powers ``E_1 .. E_B``, and pass 3 is one
broadcast product into the output arrays. Propagators are held in
increment form ``E = P - I`` and advanced as ``E <- E + inc(I + E)``, so the
``O(h)`` per-step changes are never rounded against the identity; forming
``P`` itself loses about a digit on fine grids. The result is the same RK4
map with its products grouped differently, equal to the step loop up to
roundoff.

On top of the trajectory this module provides the Riccati operator
``S = Yd Y^{-1}``, the Wronskian ``W = Y^T Yd - Yd^T Y`` (the conserved
self-adjointness certificate), detection and refinement of singular
times (instants where ``Y`` drops rank), and a central-difference residual
check of the Riccati equation ``S' + S^2 + R = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curvature import CurvatureField
from .symlin import lead_nonnegative, orthonormal_columns

__all__ = [
    "FamilySpec",
    "JacobiTrajectory",
    "SingularTimeError",
    "ZeroEvent",
    "ResidualReport",
    "integrate",
    "wronskian",
    "riccati",
    "riccati_series",
    "singular_events",
    "riccati_residual",
    "default_resolvability_cap",
    "difference_nodes",
    "write_table",
    "export_csv",
]

DEFAULT_STEP = 1e-3
# Y(t) is singular where its smallest singular value is at most TOL_SING
# times the grid-wide scale: the one regularity rule (JacobiTrajectory.regular)
TOL_SING = 1e-8
DEFAULT_TOL_ZERO = 1e-7


class SingularTimeError(ValueError):
    """Raised when the Riccati operator is requested at a time where the
    family's value matrix is (numerically) singular."""

    def __init__(self, time: float, message: str | None = None):
        self.time = float(time)
        super().__init__(message or f"singular time at t={self.time:.12g}")


@dataclass(frozen=True)
class FamilySpec:
    """Initial data of a d-dimensional family on a window [alpha, end].

    ``y0`` and ``yd0`` hold the member fields' values and derivatives at
    ``alpha``, columnwise. The stacked matrix [y0; yd0] must have full
    column rank: the family members are linearly independent.
    """

    field: CurvatureField
    alpha: float
    end: float
    y0: np.ndarray
    yd0: np.ndarray
    label: str = ""

    def __post_init__(self):
        y0 = np.array(self.y0, dtype=float)
        yd0 = np.array(self.yd0, dtype=float)
        d = self.field.dim
        if y0.shape != (d, d) or yd0.shape != (d, d):
            raise ValueError(
                f"initial matrices must be {d}x{d} for this field, "
                f"got {y0.shape} and {yd0.shape}"
            )
        if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(yd0))):
            raise ValueError("initial matrices must be finite")
        if not (math.isfinite(self.alpha) and math.isfinite(self.end)):
            raise ValueError("alpha and end must be finite")
        if not self.alpha < self.end:
            raise ValueError("alpha must be strictly less than end")
        stacked = np.vstack([y0, yd0])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] <= 1e-12 * max(svals[0], 1.0):
            raise ValueError("family members are linearly dependent (stacked rank < d)")
        y0.flags.writeable = False
        yd0.flags.writeable = False
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "yd0", yd0)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "end", float(self.end))

    @property
    def dim(self) -> int:
        return self.field.dim


@dataclass(eq=False)
class JacobiTrajectory:
    """Integrated family: node times plus (Y, Yd) matrices per node.

    ``derived`` keeps analyses that several checks of one run share (the
    reductions of ``reduction.shared_reduction``), keyed by their inputs,
    so each is computed once and dropped together with the trajectory.
    """

    spec: FamilySpec
    step: float  # effective step (window span / node count)
    times: np.ndarray  # (N+1,)
    y: np.ndarray  # (N+1, d, d)
    yd: np.ndarray  # (N+1, d, d)
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    @property
    def alpha(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @cached_property
    def svals(self) -> np.ndarray:
        """Singular values of Y at every node, descending per node."""
        return np.linalg.svd(self.y, compute_uv=False)

    @property
    def sigma_min(self) -> np.ndarray:
        return self.svals[:, -1]

    @property
    def sigma_max(self) -> np.ndarray:
        return self.svals[:, 0]

    @cached_property
    def scale(self) -> float:
        """Largest singular value of Y over the whole grid."""
        return float(np.max(self.sigma_max))

    @cached_property
    def stacked_scale(self) -> float:
        """Largest singular value of the stacked matrix [Y; Yd] over the grid."""
        stacked = np.concatenate([self.y, self.yd], axis=1)
        return float(np.max(np.linalg.svd(stacked, compute_uv=False)))

    @cached_property
    def dets(self) -> np.ndarray:
        return np.linalg.det(self.y)

    @cached_property
    def regular(self) -> np.ndarray:
        """Read-only mask of the nodes where Y has full rank relative to the
        grid-wide scale. The Riccati operator, and every check built on it,
        exists exactly there."""
        mask = self.sigma_min > TOL_SING * self.scale
        mask.flags.writeable = False
        return mask

    def node_index(self, t: float) -> int:
        """Index of the grid node nearest to ``t`` (must lie within half a
        step of some node)."""
        j = int(round((float(t) - self.alpha) / self.step))
        if j < 0 or j >= self.n_nodes or abs(self.times[j] - t) > 0.5 * self.step + 1e-9:
            raise ValueError(f"time {t} is not aligned with the trajectory grid")
        return j

    def interpolate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Cubic Hermite values (Y(t), Yd(t)) between nodes."""
        t = float(t)
        if not (self.alpha - 1e-12 <= t <= self.end + 1e-12):
            raise ValueError(f"time {t} outside trajectory window")
        j = int((t - self.alpha) / self.step)
        j = min(max(j, 0), self.n_nodes - 2)
        t0, t1 = self.times[j], self.times[j + 1]
        h = t1 - t0
        u = (t - t0) / h
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0)
        y0, y1 = self.y[j], self.y[j + 1]
        yd0, yd1 = self.yd[j], self.yd[j + 1]
        yt = h00 * y0 + h01 * y1 + h * (h10 * yd0 + h11 * yd1)
        ydd0 = -self.spec.field.matrix(t0) @ y0
        ydd1 = -self.spec.field.matrix(t1) @ y1
        ydt = h00 * yd0 + h01 * yd1 + h * (h10 * ydd0 + h11 * ydd1)
        return yt, ydt


def _increments(y, yd, r0, rh, r1, h):
    """RK4 increments ``(dY, dYd)`` of one step of ``(Y, Yd)' = (Yd, -R Y)``,
    with the field ``r0``, ``rh``, ``r1`` at the step's start, midpoint and
    end. Works over any leading batch axes and any number of columns; this
    is the one definition of the step."""
    k1d = -(r0 @ y)
    y2 = y + 0.5 * h * yd
    k2y, k2d = yd + 0.5 * h * k1d, -(rh @ y2)
    y3 = y + 0.5 * h * k2y
    k3y, k3d = yd + 0.5 * h * k2d, -(rh @ y3)
    y4 = y + h * k3y
    k4y, k4d = yd + h * k3d, -(r1 @ y4)
    dy = (h / 6.0) * (yd + 2.0 * k2y + 2.0 * k3y + k4y)
    dyd = (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return dy, dyd


def _advance(e, r0, rh, r1, h):
    """One step of a propagator held in increment form ``E = P - I``:
    ``E <- E + inc(I + E)``, in place."""
    p = np.eye(e.shape[-1]) + e
    d = e.shape[-1] // 2
    dy, dyd = _increments(p[..., :d, :], p[..., d:, :], r0, rh, r1, h)
    e[..., :d, :] += dy
    e[..., d:, :] += dyd


@np.errstate(over="ignore", invalid="ignore")
def integrate(spec: FamilySpec, step: float = DEFAULT_STEP) -> JacobiTrajectory:
    """Integrate the family with classical RK4 at (approximately) the given
    step; the window is divided into round(span/step) uniform intervals.

    The ``N`` steps run as a two-level blocked scan (see the module
    docstring): blocks of ``B = isqrt(N)`` steps, about ``3 B`` array
    iterations in all. A family that overflows is a ValueError naming the
    first node that is not finite."""
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    span = spec.end - spec.alpha
    n_steps = max(1, int(round(span / step)))
    times = np.linspace(spec.alpha, spec.end, n_steps + 1)
    h = span / n_steps
    d = spec.dim
    # the field at every node (even index) and step midpoint (odd index)
    stages = np.empty(2 * n_steps + 1)
    stages[0::2] = times
    stages[1::2] = 0.5 * (times[:-1] + times[1:])
    try:
        r = spec.field.matrices(stages)
    except Exception as exc:
        raise ValueError(f"curvature field evaluation failed: {exc}") from exc
    blk = math.isqrt(n_steps)
    nb = -(-n_steps // blk)
    first = blk * np.arange(nb)  # first step of every block
    # node b*blk + i of block b sits at ys[b, i - 1]; the last block's rows
    # past node n_steps are padding, cut off on return
    y = np.empty((nb * blk + 1, d, d))
    yd = np.empty_like(y)
    y[0], yd[0] = spec.y0, spec.yd0
    ys = y[1:].reshape(nb, blk, d, d)
    yds = yd[1:].reshape(nb, blk, d, d)
    constant = r.shape[0] == 1

    # pass 1: the propagator of every block but the last, E_b = P_b - I
    if constant:
        # one step map for all blocks: keep E_i = P^i - I for i = 0..blk
        powers = np.zeros((blk + 1, 2 * d, 2 * d))
        for i in range(blk):
            powers[i + 1] = powers[i]
            _advance(powers[i + 1], r[0], r[0], r[0], h)
        e = np.broadcast_to(powers[blk], (nb - 1, 2 * d, 2 * d))
    else:
        e = np.zeros((nb - 1, 2 * d, 2 * d))
        for i in range(blk):
            s = 2 * (first[:-1] + i)
            _advance(e, r[s], r[s + 1], r[s + 2], h)

    # pass 2: block starts z_{b+1} = z_b + E_b z_b
    z = np.empty((nb, 2 * d, d))
    z[0, :d], z[0, d:] = spec.y0, spec.yd0
    for b in range(nb - 1):
        z[b + 1] = z[b] + e[b] @ z[b]

    # pass 3: every block from its start, all blocks at once
    if constant:
        np.matmul(powers[None, 1:, :d], z[:, None], out=ys)
        ys += z[:, None, :d]
        np.matmul(powers[None, 1:, d:], z[:, None], out=yds)
        yds += z[:, None, d:]
    else:
        yb, ydb = z[:, :d], z[:, d:]
        for i in range(blk):
            # steps past n_steps (last block only) reread the last step's field
            s = 2 * np.minimum(first + i, n_steps - 1)
            dy, dyd = _increments(yb, ydb, r[s], r[s + 1], r[s + 2], h)
            yb, ydb = yb + dy, ydb + dyd
            ys[:, i], yds[:, i] = yb, ydb
    m = n_steps + 1
    y, yd = y[:m], yd[:m]
    # a sum of squares is cheap and is not finite if an entry is not
    if not np.isfinite(y.ravel() @ y.ravel() + yd.ravel() @ yd.ravel()):
        finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(yd).all(axis=(1, 2))
        if not finite.all():
            t_bad = times[np.argmin(finite)]
            raise ValueError(f"the family is not finite from t={t_bad:.6g} on (overflow)")
    return JacobiTrajectory(spec=spec, step=h, times=times, y=y, yd=yd)


def wronskian(traj: JacobiTrajectory, t: float) -> np.ndarray:
    """The antisymmetric form W(t) = Y^T Yd - Yd^T Y at the node nearest t.

    W is conserved along the flow; W = 0 certifies that the family's
    Riccati operator is self-adjoint wherever it exists.
    """
    j = traj.node_index(t)
    yj, ydj = traj.y[j], traj.yd[j]
    return yj.T @ ydj - ydj.T @ yj


def riccati(traj: JacobiTrajectory, t: float) -> np.ndarray:
    """The Riccati operator S(t) = Yd(t) Y(t)^{-1} at the node nearest t.

    Raises SingularTimeError when that node is not regular (a
    conjugate/vanishing instant of the family).
    """
    j = traj.node_index(t)
    if not traj.regular[j]:
        raise SingularTimeError(traj.times[j])
    return np.linalg.solve(traj.y[j].T, traj.yd[j].T).T


def riccati_series(traj: JacobiTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """(regular-node mask, S per node) with NaN blocks at singular nodes."""
    reg = traj.regular
    d = traj.dim
    s = np.full((traj.n_nodes, d, d), np.nan)
    if np.any(reg):
        yt = np.transpose(traj.y[reg], (0, 2, 1))
        ydt = np.transpose(traj.yd[reg], (0, 2, 1))
        s[reg] = np.transpose(np.linalg.solve(yt, ydt), (0, 2, 1))
    return reg, s


def _hermite_sigma_min(traj: JacobiTrajectory, t: float) -> float:
    yt, _ = traj.interpolate(t)
    return float(np.linalg.svd(yt, compute_uv=False)[-1])


def _hermite_det(traj: JacobiTrajectory, t: float) -> float:
    yt, _ = traj.interpolate(t)
    return float(np.linalg.det(yt))


def _bisect_det(traj: JacobiTrajectory, lo: float, hi: float, iters: int = 80) -> float:
    flo = _hermite_det(traj, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = _hermite_det(traj, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ZeroEvent:
    """A refined singular instant of Y: time, residual sigma_min there, and
    the coefficient-space kernel directions (columns)."""

    time: float
    sigma: float
    kernel: np.ndarray
    node: int


def _parabola_vertex(ts, vals) -> float | None:
    """Vertex abscissa of the parabola through three points, or None when
    the fit is not convex."""
    t0, t1, t2 = ts
    v0, v1, v2 = vals
    d1 = (v1 - v0) / (t1 - t0)
    d2 = (v2 - v1) / (t2 - t1)
    curv = (d2 - d1) / (t2 - t0)
    if curv <= 0.0:
        return None
    return 0.5 * (t0 + t1 - d1 / curv)


def _kernel_at(traj: JacobiTrajectory, t: float, tol_zero: float) -> tuple[float, np.ndarray]:
    yt, _ = traj.interpolate(t)
    _, svals, vh = np.linalg.svd(yt)
    cut = tol_zero * traj.scale
    cols = lead_nonnegative(vh[svals <= cut].T)
    return float(svals[-1]), cols


def _candidate_nodes(s: np.ndarray, zero_cut: float, coarse_cut: float) -> np.ndarray:
    """Positions in ``s`` (sigma_min over a window) at or below ``zero_cut``,
    and local minima at or below ``coarse_cut``: strictly below one
    neighbour and not above the other, the window ends counting as +inf."""
    left = np.concatenate(([np.inf], s[:-1]))
    right = np.concatenate((s[1:], [np.inf]))
    local_min = ((s < left) & (s <= right)) | ((s <= left) & (s < right))
    return np.flatnonzero((s <= zero_cut) | ((s <= coarse_cut) & local_min))


def singular_events(
    traj: JacobiTrajectory,
    open_ends: bool = False,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> list[ZeroEvent]:
    """Locate and refine all instants of the window where Y drops rank.

    Candidate nodes are local minima of sigma_min (or nodes already below
    the zero threshold). Each candidate is refined: by det-sign bisection
    when the determinant changes sign across the bracket, else by repeated
    parabola fits on sigma_min^2 over shrinking stencils. A refined
    candidate qualifies as an event when its sigma_min is at most
    ``tol_zero`` times the grid-wide scale. With ``open_ends`` set, events
    within half a step of the window ends are discarded.
    """
    lo, hi = traj.alpha, traj.end
    last = traj.n_nodes - 1
    sig = traj.sigma_min
    scale = traj.scale
    zero_cut = tol_zero * scale
    coarse_cut = 0.05 * scale
    h = traj.step

    events: list[ZeroEvent] = []
    dets = traj.dets
    for j in _candidate_nodes(sig, zero_cut, coarse_cut):
        if sig[j] <= zero_cut:
            t_star, s_star, cols = traj.times[j], None, None
        else:
            j_lo = max(j - 1, 0)
            j_hi = min(j + 1, last)
            t_star = None
            if dets[j_lo] * dets[j] < 0.0:
                t_star = _bisect_det(traj, traj.times[j_lo], traj.times[j])
            elif dets[j] * dets[j_hi] < 0.0:
                t_star = _bisect_det(traj, traj.times[j], traj.times[j_hi])
            elif j_lo < j < j_hi:
                ts = [traj.times[j_lo], traj.times[j], traj.times[j_hi]]
                vertex = _parabola_vertex(ts, [sig[i] ** 2 for i in (j_lo, j, j_hi)])
                if vertex is None:
                    continue
                t_star = min(max(vertex, ts[0]), ts[-1])
                for delta in (0.25 * h, 0.0625 * h):
                    probe = [
                        max(t_star - delta, traj.alpha),
                        t_star,
                        min(t_star + delta, traj.end),
                    ]
                    if probe[0] >= probe[1] or probe[1] >= probe[2]:
                        break
                    vals = [_hermite_sigma_min(traj, p) ** 2 for p in probe]
                    vertex = _parabola_vertex(probe, vals)
                    if vertex is None:
                        break
                    t_star = min(max(vertex, probe[0]), probe[-1])
            if t_star is None:
                continue
            t_star = min(max(t_star, lo), hi)
            s_star, cols = None, None
        if s_star is None:
            s_star, cols = _kernel_at(traj, t_star, tol_zero)
        if s_star > zero_cut or cols.shape[1] == 0:
            continue
        events.append(ZeroEvent(time=float(t_star), sigma=s_star, kernel=cols, node=int(j)))

    events.sort(key=lambda e: e.time)
    merged: list[ZeroEvent] = []
    for ev in events:
        if merged and ev.time - merged[-1].time <= 0.75 * h:
            prev = merged[-1]
            kernel = orthonormal_columns(np.hstack([prev.kernel, ev.kernel]))
            keep = prev if prev.sigma <= ev.sigma else ev
            merged[-1] = ZeroEvent(keep.time, keep.sigma, kernel, keep.node)
        else:
            merged.append(ev)

    if open_ends:
        merged = [e for e in merged if lo + 0.5 * h < e.time < hi - 0.5 * h]
    return merged


def default_resolvability_cap(step: float, tol: float) -> float:
    """Largest Riccati-operator norm at which a central difference of S on
    a grid of the given step can resolve S' to the given tolerance.

    The difference's truncation error grows like step^2 * (1 + |S|^2)^2 for
    cotangent-type blowup, so residual checks are restricted to nodes with
    |S| below this cap; beyond it the discretization itself exceeds tol.
    """
    return 0.5 * (tol / step**2) ** 0.25


def difference_nodes(regular: np.ndarray, ops: np.ndarray, cap: float) -> np.ndarray:
    """Interior nodes where a central difference of the operator series
    ``ops`` is trusted: the node and both neighbours are regular, and the
    spectral norm of ``ops`` stays at or below ``cap`` at all three. The
    norms come from one batched SVD over the regular nodes."""
    ok = np.array(regular)
    if ok.any():
        ok[ok] = np.linalg.svd(ops[ok], compute_uv=False)[:, 0] <= cap
    return np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:]) + 1


@dataclass(frozen=True)
class ResidualReport:
    """Per-node values of a difference-quotient residual check at the
    ``times`` that qualified under the resolvability ``cap``."""

    times: np.ndarray
    values: np.ndarray
    cap: float

    @property
    def max_residual(self) -> float:
        """The worst value; NaN when no node qualified."""
        return float(np.max(self.values)) if self.values.size else math.nan

    @property
    def n_checked(self) -> int:
        return int(self.values.size)


def riccati_residual(
    traj: JacobiTrajectory, s_cap: float | None = None, tol: float = 1e-4
) -> ResidualReport:
    """Central-difference residual of S' + S^2 + R = 0 at interior nodes.

    Checks the ``difference_nodes`` of S under the resolvability cap (see
    ``default_resolvability_cap``; pass ``s_cap`` to override, or
    ``float('inf')`` to disable the cap).
    """
    reg, s = riccati_series(traj)
    cap = default_resolvability_cap(traj.step, tol) if s_cap is None else float(s_cap)
    j = difference_nodes(reg, s, cap)
    ds = (s[j + 1] - s[j - 1]) / (2.0 * traj.step)
    res = ds + s[j] @ s[j] + traj.spec.field.matrices(traj.times[j])
    return ResidualReport(traj.times[j], np.linalg.norm(res, 2, axis=(1, 2)), cap)


def write_table(path, head: list[str], fmts: list[str], columns, newline: str = "\n") -> None:
    """Write a CSV table: the ``head`` lines, then one row per node of the
    ``columns`` (1-D arrays, or 2-D arrays giving one column each), each
    row formatted by the one %-format string joined from ``fmts``."""
    row = ",".join(fmts) + newline
    table = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + newline for line in head)
        for lo in range(0, len(table), 4096):  # Python floats for 4096 rows at a time
            fh.writelines(row % tuple(r) for r in table[lo : lo + 4096].tolist())


def export_csv(traj: JacobiTrajectory, path) -> None:
    """Write the trajectory as CSV: header with label and step, then one row
    per node with t followed by row-major vec(Y) and vec(Yd)."""
    d, n = traj.dim, traj.n_nodes
    cols = ["t"]
    cols += [f"y{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"yd{i}{j}" for i in range(d) for j in range(d)]
    head = [f"# label={traj.spec.label} step={traj.step:.12g}", ",".join(cols)]
    fmts = ["%.12g"] + ["%.17g"] * (2 * d * d)
    write_table(path, head, fmts, [traj.times, traj.y.reshape(n, -1), traj.yd.reshape(n, -1)])
