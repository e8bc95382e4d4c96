"""Matrix Jacobi equation integrator and trajectory analysis.

A family of Jacobi fields of dimension ``d = n - 1`` along a unit-speed
geodesic is represented by a matrix pair ``(Y(t), Y'(t))`` solving

    Y'' = -R(t) Y

in a parallel orthonormal frame, where ``R`` is a curvature field. Columns
of ``Y`` are the member fields' components; a coefficient vector ``c``
selects the member ``J(t) = Y(t) c``.

The integrator is classical fixed-step fourth-order Runge-Kutta on the
first-order system ``(Y, Yd)' = (Yd, -R(t) Y)``. Node data are stored for
every grid point; between nodes, ``Y`` is recovered by cubic Hermite
interpolation from its node values and the stored derivatives ``Yd``,
which keeps interpolation error at the integrator's own order.

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
pass 1 takes one step, ``E_1``, and builds the powers ``E_2 .. E_B`` by
doubling, ``ceil(log2 B)`` batched products ``E_{m+j} = E_m + E_j + E_m E_j``
for ``j = 1 .. min(m, B - m)``; pass 3 is one broadcast product into the
output arrays. Propagators are held in increment form ``E = P - I`` and
advanced as ``E <- E + inc(I + E)``, and ``E_m + E_j + E_m E_j`` is the
increment form of ``(I + E_m)(I + E_j)``, so the ``O(h)`` per-step changes
are never rounded against the identity; forming ``P`` itself loses about a
digit on fine grids. The result is the same RK4 map with its products
grouped differently, equal to the step loop up to roundoff.

On top of the trajectory this module provides the Riccati operator
``S = Yd Y^{-1}``, the Wronskian ``W = Y^T Yd - Yd^T Y`` (the conserved
self-adjointness certificate), detection and refinement of singular
times (instants where ``Y`` drops rank; a sign change of ``det Y`` is
refined by the Illinois method), and the node rule and report of the
central-difference residual checks in ``reduction``. Each trajectory
analysis evaluates the nodes it reads and no others. One pass takes the
step norms ``||Y_{j+1} - Y_j||_F``, and by Weyl's inequality they bound
every singular value of ``Y`` at a node from its value at another node by
the path length between them. The nodes are certified level by level, in
blocks of 256, 32 and 8 (``_certify``), and none is evaluated twice. The
singular values of ``Y`` (``JacobiTrajectory.svals``) are one LAPACK SVD
of ``Y`` at every node that may hold the grid maximum or whose lower
bound, widened by the cubic Hermite interpolant's reach, does not clear
the zero threshold; they are NaN elsewhere. The self-adjointness gate is
relative to ``sigma_max([Y; Yd])`` at the window start, where the
Wronskian is read (``stacked_scale``), and the span tests to a lower
bound on its grid maximum from that, the scale and the largest
``||Yd||_F`` (``stacked_bound``). ``det Y`` is taken only where the event
search reads it (``dets``), and the refined events are kept per
trajectory, so each is scanned once.
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
    "default_resolvability_cap",
    "difference_nodes",
    "nearest_node",
    "write_table",
    "export_csv",
]

DEFAULT_STEP = 1e-3
# Y(t) is singular where its smallest singular value is at most TOL_SING
# times the grid-wide scale: the one regularity rule (JacobiTrajectory.regular)
TOL_SING = 1e-8
TOL_ZERO = 1e-7  # a vanishing instant: sigma_min at most TOL_ZERO times the scale
_CHUNK = 1024  # nodes per temporary of the SVD, step-norm, span and orthogonality passes
# svals: the block sizes of the certification levels, each dividing the one
# before (_certify), and the relative slack on a bound that covers the
# roundoff of the SVD and the step norms (the path sums carry their own,
# _certify)
_LEVELS = (256, 32, 8)
_SLACK = 1e-12
# singular_events refines local minima of sigma_min at or below _COARSE_CUT
# times the scale; det Y is read only there and at their neighbours
_COARSE_CUT = 0.05


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

    ``derived`` keeps analyses that several checks of one run share, keyed
    by their inputs: the refined singular events (``"events"``, see
    ``singular_events``) and the reductions of
    ``reduction.shared_reduction``. Each is computed once and dropped
    together with the trajectory.
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
    def _step_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(||Y_{j+1} - Y_j||_F, ||Yd_j||_F)`` at every node j, from one
        chunked pass; the step norm is zero at the last node. ``svals``
        bounds its nodes with them (``_certify``), and ``stacked_bound``
        reads the largest ``||Yd_j||_F``."""
        y, yd = self.y, self.yd
        n = len(y)
        dy, ydn = np.zeros(n), np.empty(n)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n - 1)  # the steps of the chunk; none at the last node
            block = yd[lo : lo + _CHUNK]
            ydn[lo : lo + _CHUNK] = np.einsum("nij,nij->n", block, block)
            diff = y[lo + 1 : hi + 1] - y[lo:hi]
            dy[lo:hi] = np.einsum("nij,nij->n", diff, diff)
        return np.sqrt(dy, out=dy), np.sqrt(ydn, out=ydn)

    @cached_property
    def svals(self) -> np.ndarray:
        """Singular values of Y, descending per node: exact at every node
        that can change ``scale``, ``regular``, ``dets`` or the singular
        events, and NaN at every other node.

        The nodes are certified level by level (``_certify``). By Weyl's
        inequality for singular values (Horn and Johnson, Topics in Matrix
        Analysis, 1991, Thm 3.3.16), each singular value at a node lies
        within the path length ``sum ||Y_{i+1} - Y_i||_F`` to an evaluated
        node of its value there. The cubic Hermite interpolant that every
        refinement reads (``interpolate``) stays within ``r_j = ||Y_{j+1} -
        Y_j||_F + 4/27 h (||Yd_j||_F + ||Yd_{j+1}||_F)`` of both ends of
        interval j, as its weights have ``0 <= h00, h01 <= 1`` and ``|h10|,
        |h11| <= 4/27``. A node stays undecided while

        * its upper bound, the evaluated sigma_max plus the path length,
          widened by ``_SLACK``, reaches the best evaluated value: the node
          may hold ``scale``; or
        * its lower bound, the evaluated sigma_min minus the path length and
          the larger ``r_j`` of the node's two intervals, is not clear of
          ``TOL_ZERO`` times an upper bound of the scale by a roundoff
          slack.

        Every node still undecided after the last level is evaluated, and
        then the two neighbours of every evaluated node whose own bound is
        not clear, for the local-minimum test of the event search. At every
        other node Y is regular, and no candidate of the event search can
        refine to a singular event: a refined time stays within one step of
        its node, where the lower bound holds.

        Each evaluated node is one LAPACK SVD of Y, ``_CHUNK`` nodes at a
        time, whose error of order ``d eps scale`` the ``_SLACK`` widening
        covers."""
        n, d = self.y.shape[:2]
        dy, ydn = self._step_norms
        # r[j] bounds the interpolant on the interval from node j to node j + 1;
        # r_node is the larger r of the two intervals at each node
        r = dy[:-1] + (4.0 / 27.0) * np.diff(self.times) * (ydn[:-1] + ydn[1:])
        r_node = np.maximum(np.append(r, 0.0), np.insert(r, 0, 0.0))
        svals = np.full((n, d), np.nan)

        def evaluate(idx):
            svals[idx] = np.linalg.svd(self.y[idx], compute_uv=False)

        def undecided(i, c, dist):
            top, bot = svals[c, 0], svals[c, -1]
            upper = (top + dist) * (1.0 + _SLACK)
            best = np.nanmax(svals[:, 0])
            ub = max(best, float(np.max(upper)))
            margin = bot - dist - r_node[i] - (TOL_ZERO + _SLACK) * ub
            return (upper >= best) | (margin <= 0.0)

        _certify(dy, evaluate, undecided)
        # every node that can hold the scale is evaluated now, so the own
        # bounds of the evaluated nodes decide where the widening goes
        seen = np.flatnonzero(~np.isnan(svals[:, 0]))
        near = seen[undecided(seen, seen, 0.0)]
        side = np.zeros(n, dtype=bool)
        side[near[near > 0] - 1] = True
        side[near[near < n - 1] + 1] = True
        _in_chunks(evaluate, np.flatnonzero(side & np.isnan(svals[:, 0])))
        return svals

    @property
    def sigma_min(self) -> np.ndarray:
        return self.svals[:, -1]

    @property
    def sigma_max(self) -> np.ndarray:
        return self.svals[:, 0]

    @cached_property
    def scale(self) -> float:
        """Largest singular value of Y over the whole grid: the largest
        evaluated value of ``svals``, which evaluates every node that can
        hold it."""
        return float(np.nanmax(self.sigma_max))

    @cached_property
    def stacked_scale(self) -> float:
        """Largest singular value of the stacked matrix ``Z = [Y; Yd]`` at
        the window start, ``sigma_max([y0; yd0])``: the size of the initial
        data that the Wronskian, read at ``alpha``, depends on. It is at
        most the grid maximum of ``sigma_max(Z)``."""
        return float(np.linalg.svd(np.vstack([self.y[0], self.yd[0]]), compute_uv=False)[0])

    @cached_property
    def stacked_bound(self) -> float:
        """The size the span tests are relative to: the largest of
        ``stacked_scale``, the scale and ``max_j ||Yd_j||_F / sqrt(d)``, each
        at most the grid maximum of ``sigma_max(Z)``, which is at most
        ``sqrt(d + 1)`` times it. A span residual's roundoff grows with the
        family at its node, so the size at the start alone would reject
        members of a growing family."""
        ydn = float(np.max(self._step_norms[1])) / math.sqrt(self.dim)
        return max(self.stacked_scale, self.scale, ydn)

    @cached_property
    def dets(self) -> np.ndarray:
        """det Y where ``singular_events`` reads it: at the local minima of
        sigma_min at or below ``_COARSE_CUT`` times the scale and at their
        neighbours; NaN at every other node. A node where ``svals`` is NaN,
        or next to one, is never such a local minimum."""
        n = self.n_nodes
        cand = _candidate_nodes(self.sigma_min, -math.inf, _COARSE_CUT * self.scale)
        near = np.zeros(n, dtype=bool)
        for shift in (-1, 0, 1):
            near[np.clip(cand + shift, 0, n - 1)] = True
        idx = np.flatnonzero(near)
        dets = np.full(n, np.nan)
        dets[idx] = np.linalg.det(self.y[idx])
        return dets

    @cached_property
    def regular(self) -> np.ndarray:
        """Read-only mask of the nodes where Y has full rank relative to the
        grid-wide scale. The Riccati operator, and every check built on it,
        exists exactly there. A node where ``svals`` is NaN is regular: its
        lower bound clears ``TOL_ZERO`` times the scale."""
        mask = ~(self.sigma_min <= TOL_SING * self.scale)
        mask.flags.writeable = False
        return mask

    def node_index(self, t: float) -> int:
        """Index of the grid node nearest to ``t`` (``nearest_node``)."""
        return nearest_node(self.times, self.step, t)

    def in_open_window(self, t):
        """Whether ``t`` (a time or an array of times) lies more than half a
        step inside both window ends: the open window of the mode B and E
        vanishing spans and of the rigidity conclusion."""
        h = self.step
        return (t > self.alpha + h / 2) & (t < self.end - h / 2)

    def interpolate(self, t: float) -> np.ndarray:
        """Cubic Hermite value Y(t) between nodes, from the node values and
        derivatives of Y."""
        t = float(t)
        if not (self.alpha - 1e-12 <= t <= self.end + 1e-12):
            raise ValueError(f"time {t} outside trajectory window")
        if self.n_nodes == 1:
            return self.y[0].copy()
        j = int((t - self.alpha) / self.step)
        j = min(max(j, 0), self.n_nodes - 2)
        t0, t1 = self.times[j], self.times[j + 1]
        h = t1 - t0
        u = (t - t0) / h
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0)
        return h00 * self.y[j] + h01 * self.y[j + 1] + h * (h10 * self.yd[j] + h11 * self.yd[j + 1])


def nearest_node(times: np.ndarray, step: float, t: float) -> int:
    """Index of the node of the uniform grid ``times`` nearest to ``t``;
    ``t`` must lie within half a ``step`` of some node."""
    j = int(round((float(t) - times[0]) / step))
    if j < 0 or j >= times.size or abs(times[j] - t) > 0.5 * step + 1e-9:
        raise ValueError(f"time {t} is not aligned with the node grid")
    return j


def _certify(step, evaluate, undecided) -> None:
    """Evaluate, each at most once, every node that no Weyl bound decides.

    ``step[i]`` is the path length from node i to node i + 1 (zero at the
    last node). Each level of ``_LEVELS`` cuts the nodes into blocks (the
    last may be short) and evaluates the centres of the blocks that still
    hold an undecided node; ``undecided(i, c, dist)`` tells which undecided
    nodes ``i`` stay so, bounded from their centre ``c`` at the path length
    ``dist``. The nodes left after the last level are evaluated in one pass.

    ``dist`` is the difference of the running sums of ``step`` at ``i`` and
    ``c``, widened by ``|i - c| eps`` times the larger of the two: each of
    the ``|i - c|`` additions between them rounds by at most ``eps / 2``
    times that sum (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 4.2), however long the path before them. The relative
    roundoff of the difference itself is left to ``_SLACK``."""
    n = len(step)
    path = np.zeros(n)
    np.cumsum(step[:-1], out=path[1:])
    done = np.zeros(n, dtype=bool)
    todo = np.ones(n, dtype=bool)
    for size in _LEVELS:
        first = np.arange(0, n, size)
        centre = first + np.minimum(size // 2, n - 1 - first)
        fresh = centre[np.logical_or.reduceat(todo, first)]
        fresh = fresh[~done[fresh]]
        _in_chunks(evaluate, fresh)
        done[fresh] = True
        todo[fresh] = False
        i = np.flatnonzero(todo)
        if not i.size:
            return
        c = centre[i // size]
        far = np.maximum(path[i], path[c])
        dist = np.abs(path[i] - path[c]) + np.abs(i - c) * np.finfo(float).eps * far
        keep = undecided(i, c, dist)
        todo[i[~keep]] = False
    _in_chunks(evaluate, np.flatnonzero(todo))


def _in_chunks(evaluate, idx) -> None:
    """``evaluate`` the nodes ``idx``, ``_CHUNK`` nodes at a time."""
    for lo in range(0, len(idx), _CHUNK):
        evaluate(idx[lo : lo + _CHUNK])


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
    iterations in all; a constant field builds its ``B`` block powers by
    doubling instead, with one step evaluated. A family that overflows is a
    ValueError naming the first node that is not finite, and a grid larger
    than numpy can index is a MemoryError, raised before allocating."""
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    span = spec.end - spec.alpha
    d = spec.dim
    # the field at 2 N + 1 stages is the largest array; numpy cannot even
    # index one of more bytes than intp holds, so fail before allocating
    if not 16.0 * d * d * (span / step + 1) < np.iinfo(np.intp).max:
        raise MemoryError(f"{span / step + 1:.15g} nodes of {d}x{d} matrices do not fit")
    n_steps = max(1, int(round(span / step)))
    times = np.linspace(spec.alpha, spec.end, n_steps + 1)
    h = span / n_steps
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
        # one step map for all blocks: keep E_i = P^i - I for i = 0..blk, by
        # doubling, E_{m+j} = E_m + E_j + E_m E_j for j = 1..min(m, blk - m),
        # each product written straight into its slice
        powers = np.zeros((blk + 1, 2 * d, 2 * d))
        _advance(powers[1], r[0], r[0], r[0], h)
        m = 1
        while m < blk:
            k = min(m, blk - m)
            out = powers[m + 1 : m + k + 1]
            np.matmul(powers[m], powers[1 : k + 1], out=out)
            out += powers[1 : k + 1]
            out += powers[m]
            m += k
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
    yt = traj.interpolate(t)
    return float(np.linalg.svd(yt, compute_uv=False)[-1])


def _hermite_det(traj: JacobiTrajectory, t: float) -> float:
    yt = traj.interpolate(t)
    return float(np.linalg.det(yt))


def _det_root(traj: JacobiTrajectory, lo: float, hi: float, flo: float, fhi: float) -> float:
    """A zero of the Hermite ``det Y`` in ``[lo, hi]``, whose end values
    ``flo`` and ``fhi`` differ in sign, by the Illinois method (Dowell and
    Jarratt, BIT 11, 1971): regula falsi on a bracket, halving the value
    kept at an end that survives twice in a row, so neither end stalls. A
    secant point that leaves the open bracket is replaced by its midpoint.
    At most 80 evaluations; the bracket's midpoint is returned once it is at
    most ``1e-15 max(1, |hi|)`` wide."""
    moved = 0  # the end the last probe replaced: 1 for lo, -1 for hi
    for _ in range(80):
        t = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        ft = _hermite_det(traj, t)
        if ft == 0.0:
            return t
        if (ft < 0.0) == (flo < 0.0):
            lo, flo = t, ft
            if moved == 1:
                fhi *= 0.5
            moved = 1
        else:
            hi, fhi = t, ft
            if moved == -1:
                flo *= 0.5
            moved = -1
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


def _kernel_at(traj: JacobiTrajectory, t: float) -> tuple[float, np.ndarray]:
    yt = traj.interpolate(t)
    _, svals, vh = np.linalg.svd(yt)
    cut = TOL_ZERO * traj.scale
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


def singular_events(traj: JacobiTrajectory, open_ends: bool = False) -> list[ZeroEvent]:
    """Locate and refine all instants of the window where Y drops rank.

    Candidate nodes are local minima of sigma_min at or below
    ``_COARSE_CUT`` times the scale (or nodes already below the zero
    threshold). Each candidate is refined: by the Illinois method on the
    Hermite ``det Y`` when the determinant changes sign across the bracket
    (``_det_root``), else by repeated parabola fits on sigma_min^2 over
    shrinking stencils. A refined candidate qualifies as an event when its
    sigma_min is at most ``TOL_ZERO`` times the grid-wide scale. The
    refined list of the closed window is kept in ``traj.derived``, so each
    trajectory is scanned once; with ``open_ends`` set, only its events in
    ``traj.in_open_window`` are returned. The events' kernels are
    read-only.
    """
    if "events" not in traj.derived:
        traj.derived["events"] = _refined_events(traj)
    events = traj.derived["events"]
    if open_ends:
        return [e for e in events if traj.in_open_window(e.time)]
    return list(events)


def _refined_events(traj: JacobiTrajectory) -> tuple[ZeroEvent, ...]:
    """The refined, merged events of the closed window (``singular_events``)."""
    lo, hi = traj.alpha, traj.end
    last = traj.n_nodes - 1
    sig = traj.sigma_min
    scale = traj.scale
    zero_cut = TOL_ZERO * scale
    coarse_cut = _COARSE_CUT * scale
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
            # the Hermite interpolant is Y itself at a node, so the node dets
            # are the bracket's end values
            if dets[j_lo] * dets[j] < 0.0:
                t_star = _det_root(traj, traj.times[j_lo], traj.times[j], dets[j_lo], dets[j])
            elif dets[j] * dets[j_hi] < 0.0:
                t_star = _det_root(traj, traj.times[j], traj.times[j_hi], dets[j], dets[j_hi])
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
            s_star, cols = _kernel_at(traj, t_star)
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

    for ev in merged:
        ev.kernel.flags.writeable = False
    return tuple(merged)


def default_resolvability_cap(step: float, tol: float) -> float:
    """Largest Riccati-operator norm at which a central difference of S on
    a grid of the given step can resolve S' to the given tolerance.

    The difference's truncation error grows like step^2 * (1 + |S|^2)^2 for
    cotangent-type blowup, so residual checks are restricted to nodes with
    |S| below this cap; beyond it the discretization itself exceeds tol.
    """
    if not tol > 0:
        raise ValueError(f"resolvability tolerance must be positive, got {tol!r}")
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


def write_table(path, head: list[str], fmts: list[str], columns, newline: str = "\n") -> None:
    """Write a CSV table: the ``head`` lines, then one row per node of the
    ``columns`` (1-D arrays, or 2-D arrays giving one column each), each
    row formatted by the one %-format string joined from ``fmts``. A block
    of rows, about 2**15 values, is formatted by one ``%``."""
    row = ",".join(fmts) + newline
    table = np.column_stack(columns)
    k = max(1, 32768 // table.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + newline for line in head)
        for lo in range(0, len(table), k):
            block = table[lo : lo + k]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
