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

A diagonal field, constant or not (``CurvatureField.values`` reads it as
its diagonals, decided once when it is built), moves row k of
``(Y, Yd)`` on its own by the scalar equation ``y'' = -e_k(t) y``. Adjacent
rows whose entries agree at every stage form a run with one equation, and
the three passes carry the run's fundamental solution ``Phi = [[a, b],
[a', b']]``, ``I`` at ``alpha``, on scalar ``2 x 2`` maps. Pass 1 keeps the
prefix maps ``E_i`` of the first ``i = 1 .. B`` steps of every block. A
constant field has one step map for every block: one step gives ``E_1``,
and ``ceil(log2 B)`` batched products ``E_{m+j} = E_m + E_j + E_m E_j`` for
``j = 1 .. min(m, B - m)`` give the rest. A time-varying one takes the map
of every step from one vectorized RK4 step per chunk of steps, and composes
them block by block, ``E_{i+1} = S_i + E_i + S_i E_i``, all blocks at once.
Pass 2 takes the block starts ``Phi_b``, and pass 3 ``Phi`` at node i of
block b as ``[E_i, I] [Phi_b; Phi_b]``, one rank-4 product per run. The
trajectory keeps ``Phi`` as its ``row_solutions``, reads it alone, and
forms ``Y`` and ``Yd`` only where they are read: row k of ``Y`` is ``a
Y0[k] + b Yd0[k]`` and of ``Yd`` ``a' Y0[k] + b' Yd0[k]``, one elementwise
rule (``_rows``) that also gives the members ``Y c`` of the orthogonality
residual and the rows of the span tests; the step norms and the span
tests' Gram operators read ``Phi`` itself in ``O(N d)``. Any other field
takes the full ``2d x 2d`` scan. Propagators are held in increment form
``E = P - I`` and advanced as ``E <- E + inc(I + E)``, ``E_m + E_j + E_m
E_j`` is the increment form of ``(I + E_m)(I + E_j)``, and the identity of
a pass-3 row adds the block start, so the ``O(h)`` per-step changes are
never rounded against the identity; forming ``P`` itself loses about a
digit on fine grids. The result is the same RK4 map with its products grouped
differently, equal to the step loop up to roundoff.

On top of the trajectory this module provides the Riccati operator
``S = Yd Y^{-1}``, the Wronskian ``W = Y^T Yd - Yd^T Y`` (the conserved
self-adjointness certificate), detection and refinement of singular
times (instants where ``Y`` drops rank; a sign change of ``det Y`` is
refined by the Illinois method), and the node rule and report of the
central-difference residual checks in ``reduction``. Each trajectory
analysis evaluates the nodes it reads and no others. The step norms
``||Y_{j+1} - Y_j||_F``, from ``Phi`` for a diagonal field, bound by
Weyl's inequality every singular value of ``Y`` at a node from its value
at another node by the path length between them. A diagonal field's
family is fixed by its start data, ``Y = (A + B S) base`` with ``S =
other base^-1`` for the better conditioned of ``Y0`` and ``Yd0`` as the
base, so one ``eigh`` per run bounds the singular values at every node
in ``O(N)`` per run (``JacobiTrajectory._structural_bounds``). Each
trajectory takes one route (``JacobiTrajectory.svals``): the nodes that
its structural bounds leave undecided are evaluated in one pass, and a
family without such bounds is certified by the path lengths level by
level, in blocks of 256, 32 and 8 (``_certify``); no node is evaluated
twice. The singular values of ``Y`` are one LAPACK SVD of ``Y`` at every
node that may hold the grid maximum or whose lower bound, widened by the
cubic Hermite interpolant's reach, does not clear the zero threshold;
they are NaN elsewhere. On the path-length route, a node whose path
length to an evaluated node is not finite, past a step norm that
overflowed, stays undecided. The self-adjointness gate is relative to
``sigma_max([Y; Yd])`` at the window start, where the Wronskian is read
(``stacked_scale``), and the span tests to a lower bound on its grid
maximum from that, the scale and the largest ``||Yd||_F``
(``stacked_bound``). ``det Y`` is taken only where the event search reads
it (``dets``), and the refined events are kept per trajectory, so each is
scanned once. The search takes ``det Y`` and ``sigma_min^2`` of ``Y``
times the power of two that brings the scale to ``[1/2, 1)`` (``_unit``), so
neither overflows or underflows with the family's size, and a family scaled
by a power of two finds the same events.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curvature import CurvatureField, node_spectrum, spectrum_at
from .symlin import lead_nonnegative, orthonormal_columns, spectral_norms

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
        if svals[-1] <= 1e-12 * svals[0]:
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


class JacobiTrajectory:
    """Integrated family: node times plus (Y, Yd) matrices per node.

    ``y`` and ``yd`` are the ``(N+1, d, d)`` arrays of every node. A
    trajectory built by hand passes them in, and ``integrate`` keeps them
    for a field that is not diagonal. For a diagonal field ``integrate``
    keeps only ``row_solutions``, ``(Phi, run)``: the fundamental solutions
    ``Phi = [[a, b], [a', b']]``, ``(N+1, runs, 2, 2)``, of the scalar
    equations of its runs of equal rows, and the run of every row, so that
    row k of ``Y`` is ``a Y0[k] + b Yd0[k]`` and of ``Yd`` is ``a' Y0[k] +
    b' Yd0[k]`` with the run ``run[k]``'s ``Phi``. The trajectory is the
    only reader of ``row_solutions``, and forms every row by that one
    elementwise rule (``_rows``), which rounds an entry the same way
    however many rows are formed: ``nodes`` at the nodes a caller asks
    for, ``y`` and ``yd`` the full arrays on first read, which it then
    keeps, ``members`` the members of a basis and ``span_test`` the rows
    of a span test. Every analysis that decides a splitting, rigidity or
    vanishing-floor verdict reads nodes, members or ``Phi``, so only
    ``riccati_series``, ``reduction.reduce`` and ``export_csv`` form the
    full arrays. ``row_solutions`` is None for any other field and for a
    trajectory built by hand.

    ``field_spectrum`` holds the ascending eigenvalues of the curvature
    operator at every node, which every floor, the rigidity check's ``R =
    id`` test and the scalar traces' ``tr R`` read. ``derived`` keeps
    analyses that several checks of one run share, keyed by their inputs:
    the refined singular events (``"events"``, see ``singular_events``),
    the Riccati series (``"riccati"``, see ``riccati_series``), the
    splitting conclusions and the reductions of
    ``reduction.shared_reduction``. Each is computed once and dropped
    together with the trajectory.
    """

    def __init__(
        self,
        spec: FamilySpec,
        step: float,
        times: np.ndarray,
        y: np.ndarray | None = None,
        yd: np.ndarray | None = None,
        row_solutions: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.spec = spec
        self.step = step  # effective step (window span / node count)
        self.times = times  # (N+1,)
        self.row_solutions = row_solutions
        self.derived: dict = {}
        self._pair = None  # (j, Y, Yd) at the nodes j and j + 1 interpolate read last
        # given arrays stand in for the formed ones of the cached properties
        if y is not None:
            self.y = y
        if yd is not None:
            self.yd = yd

    @cached_property
    def y(self) -> np.ndarray:
        """Y at every node, ``(N+1, d, d)``, formed from ``row_solutions``
        on first read."""
        return self._formed(np.arange(self.n_nodes), (0,))[0]

    @cached_property
    def yd(self) -> np.ndarray:
        """Yd at every node, ``(N+1, d, d)``, formed from ``row_solutions``
        on first read."""
        return self._formed(np.arange(self.n_nodes), (1,))[0]

    def nodes(self, idx, parts=(0, 1)) -> tuple[np.ndarray, ...]:
        """``Y`` (part 0) and ``Yd`` (part 1), for each of ``parts``, at the
        node ``idx`` or at an array of nodes: rows of ``y`` and ``yd``, or,
        with ``row_solutions``, formed at these nodes only by the rule that
        forms the full arrays, so with their bits. Node 0 alone, where the
        gates read, is the initial data itself."""
        if self.row_solutions is None:
            return tuple((self.y, self.yd)[p][idx] for p in parts)
        at = np.asarray(idx)
        if at.ndim == 0:
            if at == 0:
                return tuple((self.spec.y0, self.spec.yd0)[p] for p in parts)
            return tuple(f[0] for f in self._formed(at.reshape(1), parts))
        return self._formed(at, parts)

    @cached_property
    def _runs(self) -> list[tuple[int, int, np.ndarray]]:
        """``(lo, hi, [vec Y0[lo:hi]; vec Yd0[lo:hi]])`` of every run of
        equal rows, in order: rows ``lo .. hi - 1`` share one ``Phi``."""
        run = self.row_solutions[1]
        cuts = [0, *np.flatnonzero(np.diff(run)) + 1, len(run)]
        y0, yd0 = self.spec.y0, self.spec.yd0
        return [
            (lo, hi, np.stack([y0[lo:hi].ravel(), yd0[lo:hi].ravel()]))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]

    def _formed(self, idx: np.ndarray, parts) -> tuple[np.ndarray, ...]:
        """``Y`` (part 0) and ``Yd`` (part 1), for each of ``parts``, at the
        nodes ``idx`` from ``row_solutions``: row k is ``p Y0[k] + q
        Yd0[k]`` with ``(p, q)`` its run's ``(a, b)`` or ``(a', b')``
        (``_rows``), written into the output ``_CHUNK`` nodes at a time, so
        no temporary of the output's size is made. Node 0 is the initial
        data itself."""
        phi, run = self.row_solutions
        start = (self.spec.y0, self.spec.yd0)
        out = tuple(np.empty((len(idx), self.dim, self.dim)) for _ in parts)
        for lo in range(0, len(idx), _CHUNK):
            rows = phi[idx[lo : lo + _CHUNK]][:, run]  # (nodes, d, 2, 2)
            for p, formed in zip(parts, out):
                _rows(rows[:, :, p], *start, out=formed[lo : lo + _CHUNK])
        origin = np.flatnonzero(idx == 0)
        for p, formed in zip(parts, out):
            formed[origin] = start[p]
        return out

    def _reader(self, coef: np.ndarray, basis: np.ndarray):
        """The reader, over a slice of nodes, of the rows ``p (Y0 basis)[k]
        + q (Yd0 basis)[k]`` (``_rows``), ``(nodes, d, m)``, with ``(p, q)``
        row k's run's pair in ``coef``, ``(N+1, runs, 2)``; ``Y0 basis``
        and ``Yd0 basis`` are taken once."""
        run = self.row_solutions[1]
        u, w = self.spec.y0 @ basis, self.spec.yd0 @ basis
        return lambda chunk: _rows(coef[chunk][:, run], u, w)

    def members(self, basis: np.ndarray):
        """The reader of the members ``Y c`` of the columns ``c`` of
        ``basis`` over a slice of nodes, ``(nodes, d, m)``: ``Y`` times
        ``basis``, or, with ``row_solutions``, row k as ``a (Y0 c)[k] + b
        (Yd0 c)[k]`` with its run's ``Phi`` (``_rows``)."""
        if self.row_solutions is None:
            return lambda chunk: np.einsum("nij,jk->nik", self.y[chunk], basis)
        return self._reader(self.row_solutions[0][:, :, 0], basis)

    def span_test(self, p: np.ndarray, q: np.ndarray):
        """The time-averaged Gram operator of the test ``T_n = p_n Y_n + q_n
        Yd_n``, with weights ``p`` and ``q`` over the nodes, and the reader
        of a candidate's worst node residual ``max_n ||T_n v||``.

        With ``row_solutions``, row k of ``T_n`` is ``P_n Y0[k] + Q_n
        Yd0[k]`` with ``(P, Q) = p (a, b) + q (a', b')`` of its run
        (``_rows`` once more), series over the nodes per run. The Gram
        operator is ``sum_k [Y0[k]; Yd0[k]]^T [[sum P^2, sum PQ], [sum PQ,
        sum Q^2]]_k [Y0[k]; Yd0[k]]`` over the node count, and a residual
        reads ``_rows`` of ``(P, Q)`` with ``Y0 v`` and ``Yd0 v``: both cost
        ``O(N d)``, and the residual is read ``16 _CHUNK / d`` nodes at a
        time. Any other trajectory streams ``T`` from ``Y`` and ``Yd``,
        ``_CHUNK`` nodes at a time, once for the Gram operator and once per
        candidate. No full-size array is made."""
        n, d = self.n_nodes, self.dim
        weights = np.stack([p, q], axis=-1)  # (N+1, 2)
        if self.row_solutions is None:
            y, yd = self.y, self.yd
            chunks = [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]

            def gram(c):  # the chunk's test is freed on return
                flat = _rows(weights[c, None], y[c], yd[c]).reshape(-1, d)
                return flat.T @ flat

            op = sum(gram(c) for c in chunks) / n

            def tests(v):
                # node rows from a gemv on the flat view of Y and Yd
                for c in chunks:
                    yv, ydv = ((m[c].reshape(-1, d) @ v).reshape(-1, d, 1) for m in (y, yd))
                    yield _rows(weights[c, None], yv, ydv)

        else:
            phi, run = self.row_solutions
            y0, yd0 = self.spec.y0, self.spec.yd0
            # the series P and Q, (N+1, runs) each and contiguous
            sp, sq = (_rows(weights, phi[:, :, 0, j], phi[:, :, 1, j]) for j in (0, 1))
            pairs = ((sp, sp), (sp, sq), (sq, sq))
            pp, pq, qq = (np.einsum("nr,nr->r", a, b)[run] for a, b in pairs)
            cross = (y0.T * pq) @ yd0
            op = ((y0.T * pp) @ y0 + cross + cross.T + (yd0.T * qq) @ yd0) / n
            coef = np.stack([sp, sq], axis=-1)
            m = 16 * _CHUNK // d
            chunks = [slice(lo, lo + m) for lo in range(0, n, m)]

            def tests(v):
                read = self._reader(coef, v[:, None])
                return (read(c) for c in chunks)

        def worst_residual(v):
            rows = (r[..., 0] for r in tests(v))
            return math.sqrt(max(float(np.max(np.einsum("nk,nk->n", r, r))) for r in rows))

        return op, worst_residual

    @property
    def dim(self) -> int:
        return self.spec.dim if self.spec is not None else self.y.shape[1]

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
    def field_spectrum(self) -> np.ndarray:
        """The ascending eigenvalues of the curvature operator at every node,
        shape ``(N+1, d)``, or ``(1, d)`` for a field that does not depend on
        time. ``integrate`` sets it from the field values it evaluated; a
        trajectory built by hand evaluates the field here (``spectrum_at``),
        by the same rule."""
        return spectrum_at(self.spec.field, self.times)

    def field_spectrum_at(self, mask: np.ndarray) -> np.ndarray:
        """The rows of ``field_spectrum`` at the nodes of ``mask``; for a
        field that does not depend on time, its one row when ``mask`` holds
        a node and none otherwise."""
        table = self.field_spectrum
        return table[mask] if len(table) > 1 else table[: int(mask.any())]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _step_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(||Y_{j+1} - Y_j||_F, ||Yd_j||_F)`` at every node j; the step
        norm is zero at the last node. ``integrate`` tests a family that
        is not diagonal for finiteness on them, ``svals`` bounds its nodes
        with them (``_certify``), and ``stacked_bound`` reads the largest
        ``||Yd_j||_F``.

        With ``row_solutions`` they come from ``Phi`` in ``O(N runs)``: on
        the rows of a run, ``Y_{j+1} - Y_j`` is ``[vec Y0, vec Yd0] (da,
        db)``, whose norm is ``||R (da, db)||`` for the run's ``2 x 2``
        triangular factor ``R`` of ``[vec Y0, vec Yd0]``, and ``||Yd_j||``
        is the same with ``(a', b')``; no square is cancelled against
        another. They are the norms of the family that ``Phi`` gives
        exactly; a formed node is off it by its own rounding, ``eps (|a|
        ||Y0|| + |b| ||Yd0||)`` on a run's rows, which the ``_SLACK``
        widening of ``svals`` covers as it covers the SVD's own error.
        Otherwise they come from one chunked pass over ``Y`` and ``Yd``."""
        n = self.n_nodes
        dy, ydn = np.zeros(n), np.zeros(n)
        if self.row_solutions is None:
            y, yd = self.y, self.yd
            for lo in range(0, n, _CHUNK):
                hi = min(lo + _CHUNK, n - 1)  # the steps of the chunk; none at the last node
                block = yd[lo : lo + _CHUNK]
                ydn[lo : lo + _CHUNK] = np.einsum("nij,nij->n", block, block)
                diff = y[lo + 1 : hi + 1] - y[lo:hi]
                dy[lo:hi] = np.einsum("nij,nij->n", diff, diff)
        else:
            phi = self.row_solutions[0]
            for r, (_, _, start) in enumerate(self._runs):
                rt = np.linalg.qr(start.T, mode="r")
                ab = np.ascontiguousarray(phi[:, r].reshape(n, 4).T)  # a, b, a', b'
                steps = rt @ np.diff(ab[:2], axis=1)
                slopes = rt @ ab[2:]
                # in place: on this scale a fresh temporary costs more than
                # the arithmetic in it
                for sq, total in ((steps, dy[:-1]), (slopes, ydn)):
                    np.square(sq, out=sq)
                    for row in sq:
                        total += row
        return np.sqrt(dy, out=dy), np.sqrt(ydn, out=ydn)

    @np.errstate(all="ignore")
    def _structural_bounds(self) -> np.ndarray | None:
        """The rows ``(top_hi, top_lo, bot_lo)`` of a ``(3, N+1)`` array: at
        every node, an upper and a lower bound on the sigma_max, and a lower
        bound on the sigma_min, that the SVD of the formed ``Y`` gives
        there, from the start data and ``row_solutions`` alone (see
        ``svals``). None for a trajectory without row solutions, for a
        family whose ``Y0`` and ``Yd0`` are both singular, and for bounds
        that are not all finite."""
        if self.row_solutions is None:
            return None
        phi = self.row_solutions[0]
        d = self.dim
        starts = (self.spec.y0, self.spec.yd0)
        # the better conditioned start is the base, the other one is S base
        s = np.linalg.svd(np.stack(starts), compute_uv=False)
        inverse_cond = np.where(s[:, -1] > 0.0, s[:, -1] / s[:, 0], 0.0)
        which = int(inverse_cond[1] > inverse_cond[0])
        if not inverse_cond[which] > 0.0:
            return None
        base, other = starts[which], starts[1 - which]
        try:
            s = np.linalg.solve(base.T, other.T).T
        except np.linalg.LinAlgError:  # singular to LU, if not to the SVD
            return None
        if not np.isfinite(s).all():
            return None
        # S's diagonal blocks over the runs, symmetrised: Q Lambda Q^T
        q, lam = np.zeros((d, d)), np.empty(d)
        for lo, hi, _ in self._runs:
            block = s[lo:hi, lo:hi]
            lam[lo:hi], q[lo:hi, lo:hi] = np.linalg.eigh(0.5 * (block + block.T))
        m = q.T @ base
        lm = lam[:, None] * m
        sm = np.linalg.svd(m, compute_uv=False)
        m_hi, m_lo = sm[0], sm[-1] - _SLACK * sm[0]
        # the residuals G and F of base = Q M + G and other = Q Lambda M + F,
        # widened by the rounding of their products, of the formed nodes and
        # of p + q lambda
        tiny = 4 * (d + 2) * np.finfo(float).eps
        norm = np.linalg.norm
        g = norm(base - q @ m) + tiny * (2 * norm(base) + norm(np.abs(q) @ np.abs(m)) + m_hi)
        f = norm(other - q @ lm) + tiny * (
            2 * norm(other) + norm(np.abs(q) @ np.abs(lm)) + np.max(np.abs(lam)) * m_hi
        )
        # (p, q) of every run, each a contiguous row over the nodes
        pq = np.ascontiguousarray(phi[:, :, 0, [which, 1 - which]].transpose(1, 2, 0))
        d_max, d_min = np.zeros(self.n_nodes), np.full(self.n_nodes, np.inf)
        for (lo, hi, _), (pr, qr) in zip(self._runs, pq):
            ev = lam[lo:hi]
            # |p + q lambda| is largest at an end of the sorted lambda and
            # smallest at a neighbour of -p / q, which is an end too on a run
            # of at most two rows
            ends = np.abs(pr + qr * ev[[0, -1], None])
            np.maximum(d_max, ends.max(axis=0), out=d_max)
            if hi - lo > 2:
                j = np.clip(np.searchsorted(ev, -pr / qr), 1, hi - lo - 1)
                ends = np.abs(pr + qr * ev[np.stack([j - 1, j])])
            np.minimum(d_min, ends.min(axis=0), out=d_min)
        p_top, q_top = np.abs(pq).max(axis=0)
        err = p_top * g + q_top * f
        m_lo *= 1.0 - _SLACK
        top_hi = (d_max * m_hi + err) * (1.0 + _SLACK)
        bounds = np.stack([top_hi, d_max * m_lo - err, d_min * m_lo - err])
        return bounds if np.isfinite(bounds).all() else None

    @cached_property
    def svals(self) -> np.ndarray:
        """Singular values of Y, descending per node: exact at every node
        that can change ``scale``, ``regular``, ``dets`` or the singular
        events, and NaN at every other node.

        One route of bounds decides the nodes of a trajectory. With
        ``row_solutions``, the start data bound every node at once
        (``_structural_bounds``). Row k of ``Y`` is ``p base[k] + q
        other[k]``, with ``base`` the better conditioned of ``Y0`` and
        ``Yd0`` and ``(p, q)`` the run's ``(a, b)``, or ``(b, a)`` when the
        base is ``Yd0``. ``S = other base^-1`` has its diagonal blocks over
        the runs symmetrised and diagonalised, ``Q Lambda Q^T``, and with
        ``M = Q^T base`` and the residuals ``G = base - Q M`` and ``F =
        other - Q Lambda M``, formed explicitly,

            Y = Q (p + q Lambda) M + p G + q F

        exactly, as ``p`` and ``q`` are scalars on a run's rows and ``Q``
        is block diagonal over the runs. So, by Weyl's inequality for
        singular values (Horn and Johnson, Topics in Matrix Analysis, 1991,
        Thm 3.3.16), each singular value lies in ``sigma_k(p + q Lambda)
        [sigma_min(M), sigma_max(M)]`` widened by ``max|p| ||G||_F + max|q|
        ||F||_F``. The largest ``|p + q lambda|`` of a run is at an end of
        its sorted ``lambda`` and the smallest at a neighbour of ``-p /
        q``, so this costs ``O(N)`` per run. The residual norms are widened
        by a few ``d eps`` times the sizes that round in them: the products
        that form ``G`` and ``F``, the rule that forms a node from ``Phi``
        (``_rows``) and ``p + q lambda``; what is left is
        relative to a singular value (the SVD of ``M`` and of a node, and
        ``Q`` orthogonal to roundoff), and ``_SLACK`` covers it. These
        bounds decide every node at once, against the largest lower bound
        on a sigma_max and the largest upper bound, which bracket the
        scale, and the nodes they leave undecided are evaluated in one
        pass.

        A family without these bounds (a field that is not diagonal, ``Y0``
        and ``Yd0`` both singular, or bounds that are not all finite) takes
        the Weyl bound from an evaluated node instead: each singular value
        at a node lies within the path length ``sum ||Y_{i+1} - Y_i||_F``
        to an evaluated node of its value there (Thm 3.3.16 again), and
        ``_certify`` decides the nodes level by level from evaluated block
        centres, against the best evaluated value.

        On either route, the cubic Hermite interpolant that every
        refinement reads (``interpolate``) stays within ``r_j = ||Y_{j+1} -
        Y_j||_F + 4/27 h (||Yd_j||_F + ||Yd_{j+1}||_F)`` of both ends of
        interval j, as its weights have ``0 <= h00, h01 <= 1`` and ``|h10|,
        |h11| <= 4/27``. A node stays undecided while

        * its upper bound, widened by ``_SLACK``, reaches the lower bound
          on the scale: the node may hold ``scale``; or
        * its lower bound, less the larger ``r_j`` of the node's two
          intervals, is not clear of ``TOL_ZERO`` times an upper bound of
          the scale by a roundoff slack.

        Every node still undecided is evaluated, and then the two
        neighbours of every evaluated node whose own bound is not clear,
        for the local-minimum test of the event search. At every other
        node Y is regular, and no candidate of the event search can
        refine to a singular event: a refined time stays within one step of
        its node, where the lower bound holds.

        Each evaluated node is one LAPACK SVD of Y, whose error of order ``d
        eps scale`` the ``_SLACK`` widening covers. The nodes are read by
        ``nodes``, which forms ``Y`` alone, and sent to the SVD ``32 _CHUNK
        / d^2`` at a time, so each temporary holds at most ``32 _CHUNK``
        floats."""
        n, d = self.n_nodes, self.dim
        dy, ydn = self._step_norms
        # r[j] bounds the interpolant on the interval from node j to node j + 1;
        # r_node is the larger r of the two intervals at each node
        r = dy[:-1] + (4.0 / 27.0) * np.diff(self.times) * (ydn[:-1] + ydn[1:])
        r_node = np.maximum(np.append(r, 0.0), np.insert(r, 0, 0.0))
        per = max(1, 32 * _CHUNK // (d * d))
        bounds = self._structural_bounds()
        # the table that outlives this call comes after the bounds'
        # temporaries, so the heap they free is not held below it
        svals = np.full((n, d), np.nan)

        def evaluate(idx):
            for lo in range(0, len(idx), per):
                part = idx[lo : lo + per]
                svals[part] = np.linalg.svd(self.nodes(part, (0,))[0], compute_uv=False)

        def undecided(i, c, dist):
            upper = (svals[c, 0] + dist) * (1.0 + _SLACK)
            best = np.nanmax(svals[:, 0])
            ub = float(np.max(upper, initial=best))
            margin = svals[c, -1] - dist - r_node[i] - (TOL_ZERO + _SLACK) * ub
            return (upper >= best) | (margin <= 0.0)

        if bounds is None:
            _certify(dy, evaluate, undecided)
        else:
            # against the largest lower and the largest upper bound of the scale
            top_hi, top_lo, bot_lo = bounds
            low = bot_lo - r_node - (TOL_ZERO + _SLACK) * np.max(top_hi) <= 0.0
            evaluate(np.flatnonzero((top_hi >= np.max(top_lo)) | low))
        # every node that can hold the scale is evaluated now, so the own
        # bounds of the evaluated nodes decide where the widening goes
        seen = np.flatnonzero(~np.isnan(svals[:, 0]))
        near = seen[undecided(seen, seen, 0.0)]
        side = np.zeros(n, dtype=bool)
        side[np.clip(np.concatenate([near - 1, near + 1]), 0, n - 1)] = True
        evaluate(np.flatnonzero(side & np.isnan(svals[:, 0])))
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

    @property
    def _unit(self) -> float:
        """The factor ``2^-e`` on ``Y``, for the scale ``m 2^e``, ``1/2 <= m <
        1``, under which the event search takes ``det Y`` and
        ``sigma_min^2``: both stay below 1, the family's size neither
        overflows nor underflows them, and a family scaled by a power of two
        searches the very same values."""
        return math.ldexp(1.0, -math.frexp(self.scale)[1])

    @cached_property
    def stacked_scale(self) -> float:
        """Largest singular value of the stacked matrix ``Z = [Y; Yd]`` at
        the window start, ``sigma_max([y0; yd0])``: the size of the initial
        data that the Wronskian, read at ``alpha``, depends on. It is at
        most the grid maximum of ``sigma_max(Z)``."""
        return float(np.linalg.svd(np.vstack(self.nodes(0)), compute_uv=False)[0])

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
        """det Y, of Y times ``_unit``, where ``singular_events`` reads it:
        at the local minima of sigma_min at or below ``_COARSE_CUT`` times
        the scale and at their neighbours; NaN at every other node. A node
        where ``svals`` is NaN, or next to one, is never such a local
        minimum."""
        n = self.n_nodes
        cand = _candidate_nodes(self.sigma_min, -math.inf, _COARSE_CUT * self.scale)
        near = np.zeros(n, dtype=bool)
        for shift in (-1, 0, 1):
            near[np.clip(cand + shift, 0, n - 1)] = True
        idx = np.flatnonzero(near)
        dets = np.full(n, np.nan)
        dets[idx] = np.linalg.det(self._unit * self.nodes(idx, (0,))[0])
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
            return self.nodes(0)[0].copy()
        j = int((t - self.alpha) / self.step)
        j = min(max(j, 0), self.n_nodes - 2)
        t0, t1 = self.times[j], self.times[j + 1]
        h = t1 - t0
        u = (t - t0) / h
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0)
        if self._pair is None or self._pair[0] != j:
            # an event's refinement probes one interval many times
            self._pair = (j, *self.nodes(np.array([j, j + 1])))
        _, y, yd = self._pair
        return h00 * y[0] + h01 * y[1] + h * (h10 * yd[0] + h11 * yd[1])


def _rows(pq: np.ndarray, u: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """The row rule of a diagonal field's family: ``p u + q w`` with ``p =
    pq[..., :1]`` and ``q = pq[..., 1:]``, broadcast against ``u`` and
    ``w``, into ``out`` when given. Row k of ``Y`` is ``a Y0[k] + b
    Yd0[k]`` with its run's ``(a, b)``, of ``Yd`` the same with ``(a',
    b')``, and of a member ``Y c`` the same with ``Y0 c`` and ``Yd0 c``.
    Each entry is two rounded products and their rounded sum, whatever the
    shapes, so a row has the same bits however many are formed."""
    out = np.multiply(pq[..., :1], u, out=out)
    out += pq[..., 1:] * w
    return out


def nearest_node(times: np.ndarray, step: float, t: float) -> int:
    """Index of the node of the uniform grid ``times`` nearest to ``t``;
    ``t`` must lie within half a ``step`` of some node."""
    j = int(round((float(t) - times[0]) / step))
    if j < 0 or j >= times.size or abs(times[j] - t) > 0.5 * step + 1e-9:
        raise ValueError(f"time {t} is not aligned with the node grid")
    return j


def _certify(step, evaluate, undecided) -> None:
    """Evaluate, each at most once, every node that no Weyl bound decides:
    the route of ``svals`` for a family without structural bounds.

    ``step[i]`` is the path length from node i to node i + 1 (zero at the
    last node). Each level of ``_LEVELS`` cuts the nodes into blocks (the
    last may be short) and evaluates the centres of the blocks that still
    hold an undecided node, by ``evaluate(idx)``; ``undecided(i, c, dist)``
    tells which undecided nodes ``i`` stay so, bounded from their centre
    ``c`` at the path length ``dist``. The nodes left after the last level
    are evaluated in one call.

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
        evaluate(fresh)
        done[fresh] = True
        todo[fresh] = False
        i = np.flatnonzero(todo)
        if not i.size:
            return
        c = centre[i // size]
        far = np.maximum(path[i], path[c])
        # past a step length that overflowed, the path bounds nothing: those
        # nodes stay undecided
        sure = np.isfinite(far)
        i, c, far = i[sure], c[sure], far[sure]
        dist = np.abs(path[i] - path[c]) + np.abs(i - c) * np.finfo(float).eps * far
        keep = undecided(i, c, dist)
        todo[i[~keep]] = False
    evaluate(np.flatnonzero(todo))


def _increments(y, yd, r0, rh, r1, h):
    """RK4 increments ``(dY, dYd)`` of one step of ``(Y, Yd)' = (Yd, -R Y)``,
    with the field ``r0``, ``rh``, ``r1`` at the step's start, midpoint and
    end. Works over any leading batch axes and any number of columns; this
    is the one definition of the step. A ``1 x 1`` field multiplies by
    broadcasting, which a batched ``matmul`` of ``1 x 1`` matrices is
    several times slower at."""
    mul = np.multiply if r0.shape[-1] == 1 else np.matmul
    k1d = -mul(r0, y)
    y2 = y + 0.5 * h * yd
    k2y, k2d = yd + 0.5 * h * k1d, -mul(rh, y2)
    y3 = y + 0.5 * h * k2y
    k3y, k3d = yd + 0.5 * h * k2d, -mul(rh, y3)
    y4 = y + h * k3y
    k4y, k4d = yd + h * k3d, -mul(r1, y4)
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


def _blocks(n_steps: int) -> tuple[int, int]:
    """``(B, nb)``: the block length ``B = isqrt(N)`` of the blocked scan
    of ``N`` steps and the number of blocks, the last of which may be
    short."""
    blk = math.isqrt(n_steps)
    return blk, -(-n_steps // blk)


def _scan(r, spec, n_steps, h) -> tuple[np.ndarray, np.ndarray]:
    """The blocked scan of ``integrate`` on ``2d x 2d`` propagators, with the
    field ``r`` at all ``2 N + 1`` stages; returns ``Y`` and ``Yd`` at the
    ``N + 1`` nodes."""
    blk, nb = _blocks(n_steps)
    d = spec.dim
    first = blk * np.arange(nb)  # first step of every block
    # pass 1: the propagator of every block but the last, E_b = P_b - I
    e = np.zeros((nb - 1, 2 * d, 2 * d))
    for i in range(blk):
        s = 2 * (first[:-1] + i)
        _advance(e, r[s], r[s + 1], r[s + 2], h)
    # pass 2: block starts z_{b+1} = z_b + E_b z_b, z[b] = [Y_b; Yd_b]
    z = np.empty((nb, 2 * d, d))
    z[0, :d], z[0, d:] = spec.y0, spec.yd0
    for b in range(nb - 1):
        z[b + 1] = z[b] + e[b] @ z[b]
    # pass 3: every block from its start, all blocks at once; node b*blk + i
    # of block b sits at ys[b, i - 1], and the last block's rows past node
    # n_steps are padding, cut off on return
    y = np.empty((nb * blk + 1, d, d))
    yd = np.empty_like(y)
    y[0], yd[0] = spec.y0, spec.yd0
    ys = y[1:].reshape(nb, blk, d, d)
    yds = yd[1:].reshape(nb, blk, d, d)
    yb, ydb = z[:, :d], z[:, d:]
    for i in range(blk):
        # steps past n_steps (last block only) reread the last step's field
        s = 2 * np.minimum(first + i, n_steps - 1)
        dy, dyd = _increments(yb, ydb, r[s], r[s + 1], r[s + 2], h)
        yb, ydb = yb + dy, ydb + dyd
        ys[:, i], yds[:, i] = yb, ydb
    return y[: n_steps + 1], yd[: n_steps + 1]


def _scalar_scan(rows, n_steps, h) -> tuple[np.ndarray, np.ndarray]:
    """The blocked scan of ``integrate`` for a diagonal field on scalar
    ``2 x 2`` maps, with row k of the field, ``rows[k]``, at one stage (a
    constant field) or at all ``2 N + 1``; returns the trajectory's
    ``row_solutions``.

    Adjacent rows whose entries agree at every stage form a run and share
    one scalar equation ``y'' = -e_r(t) y``, whose fundamental solution
    ``Phi = [[a, b], [a', b']]``, ``I`` at ``alpha``, the three passes
    carry. ``maps[i - 1, :, :, r, b]`` is the ``2 x 2`` ``E_i = P_i - I``
    of the first ``i = 1 .. blk`` steps of block b and run r; a constant
    field has one block for all."""
    blk, nb = _blocks(n_steps)
    d = len(rows)
    cuts = [0, *np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1, d]
    rows = rows[cuts[:-1]]  # one row per run
    runs = len(rows)
    first = blk * np.arange(nb)  # first step of every block
    # pass 1: the prefix maps of every block
    if rows.shape[1] == 1:
        # the powers of the one step map by doubling, E_{m+j} = E_m + E_j +
        # E_m E_j for j = 1..min(m, blk - m), each product written straight
        # into its slice
        ek = rows[:, :, None]
        powers = np.zeros((blk, runs, 2, 2))
        _advance(powers[0], ek, ek, ek, h)
        m = 1
        while m < blk:
            k = min(m, blk - m)
            out = powers[m : m + k]
            np.matmul(powers[m - 1], powers[:k], out=out)
            out += powers[:k]
            out += powers[m - 1]
            m += k
        maps = powers.transpose(0, 2, 3, 1)[..., None]
    else:
        # the map of every step, about _CHUNK steps per RK4 step: the columns
        # of I as the state, the field at step i of block b as (i, 1, r, b,
        # 1, 1); steps past n_steps (last block only) reread the last step's
        # field
        at = 2 * np.minimum(first + np.arange(blk)[:, None], n_steps - 1)
        unit = np.eye(2).reshape(2, 2, 1, 1, 1, 1)
        maps = np.empty((blk, 2, 2, runs, nb))
        di = max(1, _CHUNK // nb)
        for lo in range(0, blk, di):
            s = at[lo : lo + di]
            r0, rh, r1 = (
                rows[:, s + j].transpose(1, 0, 2)[:, None, :, :, None, None] for j in range(3)
            )
            dy, dyd = _increments(unit[0], unit[1], r0, rh, r1, h)
            maps[lo : lo + di, 0], maps[lo : lo + di, 1] = dy[..., 0, 0], dyd[..., 0, 0]
        # composed in place, all blocks at once: E_{i+1} = S_i + E_i + S_i
        # E_i, the 2x2 product written out by its columns
        for i in range(1, blk):
            s_i, e_i = maps[i], maps[i - 1]
            s_i += e_i + s_i[:, :1] * e_i[0] + s_i[:, 1:] * e_i[1]
    # pass 2: block starts Phi_{b+1} = Phi_b + E_b Phi_b
    e = np.ascontiguousarray(np.broadcast_to(maps[-1].transpose(3, 2, 0, 1), (nb, runs, 2, 2)))
    z = np.empty((nb, runs, 2, 2))
    z[0] = np.eye(2)
    for b in range(nb - 1):
        z[b + 1] = z[b] + e[b] @ z[b]
    # pass 3: Phi at node i of block b is [E_i, I] [Phi_b; Phi_b], one
    # rank-4 product per run, whose identity adds the block start. Its
    # coefficients [E_i, I] of every run are one array, built by a single
    # copy of the maps whose columns (i, row) are contiguous, and read as the
    # transposed factor of the product
    coef = np.zeros((runs, maps.shape[-1], 4, blk, 2))  # (run, block, column, i, row)
    coef[:, :, :2] = maps.transpose(3, 4, 2, 0, 1)
    coef[:, :, 2, :, 0] = coef[:, :, 3, :, 1] = 1.0
    store = np.empty((runs, nb * blk + 1, 2, 2))
    store[:, 0] = np.eye(2)
    for r in range(runs):
        phi = store[r, 1:].reshape(nb, 2 * blk, 2)
        twice = np.tile(z[:, r], (1, 2, 1))  # [Phi_b; Phi_b]
        np.matmul(coef[r].reshape(-1, 4, 2 * blk).transpose(0, 2, 1), twice, out=phi)
    run = np.repeat(np.arange(runs), np.diff(cuts))
    return store.transpose(1, 0, 2, 3)[: n_steps + 1], run


@np.errstate(over="ignore", invalid="ignore")
def integrate(spec: FamilySpec, step: float = DEFAULT_STEP) -> JacobiTrajectory:
    """Integrate the family with classical RK4 at (approximately) the given
    step; the window is divided into round(span/step) uniform intervals.

    The ``N`` steps run as a two-level blocked scan (see the module
    docstring): blocks of ``B = isqrt(N)`` steps, about ``3 B`` array
    iterations in all. A diagonal field runs on scalar ``2 x 2`` maps
    instead, one per run of rows with equal entries: a constant one from one
    step, whose ``B`` block powers come by doubling, a time-varying one from
    the maps of all steps, about ``_CHUNK`` steps per RK4 step, composed
    block by block. Its trajectory keeps each run's fundamental solution
    as its ``row_solutions`` and forms ``Y`` and ``Yd`` only where they are
    read (``JacobiTrajectory.nodes``). The field values at the nodes also
    give the trajectory's ``field_spectrum``, so no check evaluates the
    field again.

    A family that overflows is a ValueError naming the first node that is
    not finite. The nodes are tested chunk by chunk, and only when a cheap
    test cannot vouch for them: for a diagonal field, the bound ``max|Phi|
    (max|Y0| + max|Yd0|)`` on every entry of ``Y`` and ``Yd`` reaching half
    the float range; for any other, a step norm that is not finite. A grid
    larger than numpy can index is a MemoryError, raised before allocating."""
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
        # the diagonals (1 or 2 N + 1, d) of a diagonal field, else the matrices
        r = spec.field.values(stages)
    except Exception as exc:
        raise ValueError(f"curvature field evaluation failed: {exc}") from exc
    # the node spectrum, before Y and Yd exist, so eigvalsh's copy of the
    # node values does not add to their peak
    spectrum = node_spectrum(r[::2])
    if r.ndim == 3:
        y, yd = _scan(np.broadcast_to(r, (stages.size, d, d)), spec, n_steps, h)
        traj = JacobiTrajectory(spec, h, times, y, yd)
        # Y_0 is finite, so the step norms are all finite only if Y and Yd
        # are; a sum of squares may overflow on finite values
        vouched = np.isfinite(traj._step_norms).all()
    else:
        # the entries by row, (d, 1 or 2 N + 1); the diagonals are freed
        # before the maps are built
        rows = np.ascontiguousarray(r.T)
        del r
        phi, run = _scalar_scan(rows, n_steps, h)
        traj = JacobiTrajectory(spec, h, times, row_solutions=(phi, run))
        # each entry of Y and Yd is p y0 + q yd0 for entries p, q of Phi and
        # y0, yd0 of the initial data, so at most (1 + 2 eps) times this bound
        # whatever the rounding of the product: a bound below half the float
        # range leaves all of them finite, and NaN in Phi fails the test
        top = max(phi.max(), -phi.min()) * (np.abs(spec.y0).max() + np.abs(spec.yd0).max())
        vouched = np.isfinite(2.0 * top)
    traj.field_spectrum = spectrum  # the cached_property's value
    if not vouched:
        for lo in range(0, n_steps + 1, _CHUNK):
            y, yd = traj.nodes(np.arange(lo, min(lo + _CHUNK, n_steps + 1)))
            finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(yd).all(axis=(1, 2))
            if not finite.all():
                t_bad = times[lo + np.argmin(finite)]
                raise ValueError(f"the family is not finite from t={t_bad:.6g} on (overflow)")
    return traj


def wronskian(traj: JacobiTrajectory, t: float) -> np.ndarray:
    """The antisymmetric form W(t) = Y^T Yd - Yd^T Y at the node nearest t.

    W is conserved along the flow; W = 0 certifies that the family's
    Riccati operator is self-adjoint wherever it exists.
    """
    yj, ydj = traj.nodes(traj.node_index(t))
    return yj.T @ ydj - ydj.T @ yj


def riccati(traj: JacobiTrajectory, t: float) -> np.ndarray:
    """The Riccati operator S(t) = Yd(t) Y(t)^{-1} at the node nearest t.

    Raises SingularTimeError when that node is not regular (a
    conjugate/vanishing instant of the family).
    """
    j = traj.node_index(t)
    if not traj.regular[j]:
        raise SingularTimeError(traj.times[j])
    yj, ydj = traj.nodes(j)
    return np.linalg.solve(yj.T, ydj.T).T


def riccati_series(traj: JacobiTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """(regular-node mask, S per node) with NaN blocks at singular nodes.
    Kept in ``traj.derived``, so the reduction and the scalar traces of
    one run solve for it once; both arrays are read-only."""
    if "riccati" not in traj.derived:
        traj.derived["riccati"] = _riccati_nodes(traj)
    return traj.derived["riccati"]


def _riccati_nodes(traj: JacobiTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """The Riccati series of ``riccati_series``, computed."""
    reg = traj.regular
    d = traj.dim
    s = np.full((traj.n_nodes, d, d), np.nan)
    if np.any(reg):
        yt = np.transpose(traj.y[reg], (0, 2, 1))
        ydt = np.transpose(traj.yd[reg], (0, 2, 1))
        s[reg] = np.transpose(np.linalg.solve(yt, ydt), (0, 2, 1))
    s.flags.writeable = False
    return reg, s


def _hermite_sigma_min(traj: JacobiTrajectory, t: float) -> float:
    yt = traj.interpolate(t)
    return float(np.linalg.svd(yt, compute_uv=False)[-1])


def _hermite_det(traj: JacobiTrajectory, t: float) -> float:
    yt = traj.interpolate(t)
    return float(np.linalg.det(traj._unit * yt))


def _det_root(traj: JacobiTrajectory, lo: float, hi: float, flo: float, fhi: float) -> float:
    """A zero of the Hermite ``det Y`` in ``[lo, hi]``, whose end values
    ``flo`` and ``fhi`` differ in sign, by the Illinois method (Dowell and
    Jarratt, BIT 11, 1971): regula falsi on a bracket, halving the value
    kept at an end that survives twice in a row. A secant point that leaves
    the open bracket is replaced by its midpoint. Once an end has survived
    four probes in a row, the bracket has stalled (as on a zero of odd
    multiplicity 3 or more, or after a probe within roundoff of the zero)
    and the search is finished by bisection, as it is after 80 probes. The
    bracket's midpoint is returned once it is at most ``1e-15 max(1, |hi|)``
    wide."""
    moved = run = 0  # the end the last probes replaced (1 lo, -1 hi), and how many in a row
    secants = True
    for probe in itertools.count():
        t = 0.5 * (lo + hi)
        if secants:
            secant = (lo * fhi - hi * flo) / (fhi - flo)
            t = secant if lo < secant < hi else t
        ft = _hermite_det(traj, t)
        if ft == 0.0:
            return t
        side = 1 if (ft < 0.0) == (flo < 0.0) else -1
        run = run + 1 if side == moved else 1
        if side == 1:
            lo, flo = t, ft
            if run > 1:
                fhi *= 0.5
        else:
            hi, fhi = t, ft
            if run > 1:
                flo *= 0.5
        moved = side
        secants = secants and run < 4 and probe < 79
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
    unit = traj._unit
    h = traj.step

    events: list[ZeroEvent] = []
    dets = traj.dets
    # a sign change is a product of signs below zero: a product of two dets
    # may overflow where each is finite
    sign = np.sign(dets)
    for j in _candidate_nodes(sig, zero_cut, coarse_cut):
        if sig[j] <= zero_cut:
            t_star, s_star, cols = traj.times[j], None, None
        else:
            j_lo = max(j - 1, 0)
            j_hi = min(j + 1, last)
            t_star = None
            # the Hermite interpolant is Y itself at a node, so the node dets
            # are the bracket's end values
            if sign[j_lo] * sign[j] < 0.0:
                t_star = _det_root(traj, traj.times[j_lo], traj.times[j], dets[j_lo], dets[j])
            elif sign[j] * sign[j_hi] < 0.0:
                t_star = _det_root(traj, traj.times[j], traj.times[j_hi], dets[j], dets[j_hi])
            elif j_lo < j < j_hi:
                ts = [traj.times[j_lo], traj.times[j], traj.times[j_hi]]
                vertex = _parabola_vertex(ts, [(unit * sig[i]) ** 2 for i in (j_lo, j, j_hi)])
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
                    vals = [(unit * _hermite_sigma_min(traj, p)) ** 2 for p in probe]
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

    The second-order difference's truncation error grows like step^2 *
    (1 + |S|^2)^2 for cotangent-type blowup, so residual checks are
    restricted to nodes with |S| below this cap; beyond it the
    discretization itself exceeds tol. The fourth-order difference that
    the residual checks take errs by a further factor of about step^2 *
    (1 + |S|^2) less under the same cap.
    """
    if not tol > 0:
        raise ValueError(f"resolvability tolerance must be positive, got {tol!r}")
    return 0.5 * (tol / step**2) ** 0.25


def difference_nodes(regular: np.ndarray, ops: np.ndarray, cap: float) -> np.ndarray:
    """Interior nodes where the five-point central difference of the
    operator series ``ops`` is trusted: the node and its two neighbours on
    each side are regular, and the spectral norm of ``ops`` stays at or
    below ``cap`` at all five (``symlin.spectral_norms`` over the regular
    nodes)."""
    ok = np.array(regular)
    ok[ok] = spectral_norms(ops[ok]) <= cap
    return np.flatnonzero(ok[:-4] & ok[1:-3] & ok[2:-2] & ok[3:-1] & ok[4:]) + 2


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
