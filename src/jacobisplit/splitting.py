"""Orthogonal splitting analysis for families of Jacobi fields.

Four splitting statements (labelled by the opaque mode letters A, B, C, E)
share one pipeline. Each asserts that, under hypothesis gates, the family
decomposes orthogonally into a vanishing summand Z (members that vanish at
some instant of the relevant window) and a structured complement P:

* mode A: P consists of parallel members; zeros counted on the closed
  window; hypotheses: self-adjointness, sectional floor >= 0.
* mode B: P consists of sine-type members (J = sin(t) E with E parallel);
  zeros counted on the open window; hypotheses: self-adjointness, boundary
  eigenvalue bound, sectional floor >= 1.
* mode C: like A plus an intermediate-Ricci floor Ric_k >= 0 at level k and
  the dimension bound dim Z <= n - k - 1 as hypotheses.
* mode E: like B with the floor Ric_k >= k and the same dimension bound as
  hypotheses. At k = n - 1 it is the rigidity statement's splitting half
  (``comparison.rigidity_check``): no member vanishes inside the window and
  every member is of sine type.

Every check kind reads its verdict from one rule (``verdict``), its gate
records from one builder (``gate``), and each mode's needs from ``MODES``.
The last verdict, ``falsified``, is a consistency alarm: it should never
fire on correct inputs, and the test suite asserts it never does across
the built-in scenarios. The gates run per check; the conclusion depends
only on the trajectory and the window kind (open for B and E, closed for A
and C), so each trajectory computes it once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .curvature import k_traces, ric_k_floor, ric_k_floor_sampled
from .jacobi import (
    _CHUNK,
    TOL_SING,
    JacobiTrajectory,
    ZeroEvent,
    singular_events,
    wronskian,
)
from .symlin import orthonormal_columns, spectrum

__all__ = [
    "SpanResult",
    "SplittingReport",
    "self_adjoint_gate",
    "boundary_eigenvalue_gate",
    "vanishing_span",
    "parallel_span",
    "sine_span",
    "check_splitting",
    "splitting_verdict",
    "vanishing_floor_verdict",
]

# each mode's params besides ``theorem``, the Ric_k floor its hypothesis
# asks for (None: the level k) and whether it counts zeros on the open window
Mode = namedtuple("Mode", ["params", "floor", "open_window"])
MODES = {
    "A": Mode((), 0.0, False),
    "B": Mode(("alpha",), 1.0, True),
    "C": Mode(("k",), 0.0, False),
    "E": Mode(("k", "alpha"), None, True),
}
# largest node residual of a span member, relative to the family's size over
# the grid (JacobiTrajectory.stacked_bound)
TOL_SPAN = 1e-6
TOL_ORTH = 1e-6  # largest normalized inner product between Z- and P-members
TOL_EIG = 1e-6  # slack of the boundary eigenvalue bound cot(alpha)
_FLOOR_SLACK = 1e-9
_OPTIONAL = ("boundary_eig", "dim_condition")  # gates a mode may not ask for: they pass


def verdict(gates_passed: bool, holds: bool) -> str:
    """The verdict of every check: ``hypothesis-violated`` unless every gate
    passed, else whether the conclusion holds. A check that cannot be
    evaluated passes no gate, and says why in a note that starts ``not
    evaluable:``."""
    if not gates_passed:
        return "hypothesis-violated"
    return "verified" if holds else "falsified"


def gate(name: str, passed: bool, **values) -> dict:
    """A hypothesis gate record, with the values it was decided on."""
    return {"name": name, "applicable": True, "passed": bool(passed), **values}


def self_adjoint_gate(traj: JacobiTrajectory) -> dict:
    """Self-adjointness hypothesis: the (conserved) Wronskian form at the
    window start must vanish relative to the family's scale; its largest
    entry is the ``defect``, and the threshold is ``1e-8`` times the squared
    size ``sigma_max([y0; yd0])^2`` (``stacked_scale``), which scales with
    the Wronskian. Initial data so large that the threshold or the
    Wronskian overflows are a ValueError naming ``y0`` and ``yd0``."""
    size = traj.stacked_scale
    threshold = 1e-8 * size * size
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(wronskian(traj, traj.alpha)), initial=0.0))
    if not (math.isfinite(threshold) and math.isfinite(defect)):
        raise ValueError(
            f"y0 and yd0 are too large for the self-adjointness gate: the square of "
            f"sigma_max([y0; yd0]) = {size:.6g}, or the Wronskian, overflows"
        )
    return gate("self_adjoint", defect <= threshold, defect=defect, threshold=threshold)


def boundary_eigenvalue_gate(traj: JacobiTrajectory, alpha: float) -> dict:
    """Boundary hypothesis: the largest eigenvalue of the (symmetrized)
    Riccati operator at the window start must not exceed cot(alpha).

    ``alpha`` must lie within half a step of the window ``[traj.alpha,
    traj.end]``, else this is a ValueError naming both. At alpha = 0 (a
    window that starts at 0) the bound is +infinity and the gate always
    passes. Outside [0, pi) (``math.pi`` lies below pi) cot(alpha) is no
    such bound, and the gate is not evaluable. When the value matrix is
    singular at alpha > 0, the operator is evaluated on the regular
    quotient (its restriction to the image of Y(alpha), using minimum-norm
    preimages); when that image is trivial the gate is not evaluable. A
    gate that is not evaluable is reported as failed.
    """
    h = traj.step
    if not traj.alpha - h / 2 <= alpha <= traj.end + h / 2:
        raise ValueError(
            f"boundary gate: alpha={alpha:.12g} lies outside the window "
            f"[{traj.alpha:.12g}, {traj.end:.12g}]"
        )
    if abs(alpha) <= 1e-12:
        note = "cot(0+) bound is +inf"
        return gate("boundary_eig", True, value=None, bound=math.inf, margin=math.inf, note=note)
    if not 0.0 < alpha <= math.pi:
        note = f"not evaluable: alpha={alpha:.12g} lies outside [0, pi)"
        return gate("boundary_eig", False, value=None, bound=None, margin=None, note=note)
    bound = math.cos(alpha) / math.sin(alpha) + TOL_EIG
    y, yd = traj.nodes(traj.node_index(alpha))
    u, svals, vh = np.linalg.svd(y)
    rank = int(np.sum(svals > TOL_SING * traj.scale))
    if rank == 0:
        note = "not evaluable: Y(alpha) has trivial image"
        return gate("boundary_eig", False, value=None, bound=bound, margin=None, note=note)
    note = f"quotient restriction to rank-{rank} image of Y(alpha)" if rank < traj.dim else ""
    # U_r^T Yd V_r Sigma_r^-1; at full rank U^T (Yd Y^-1) U, with its spectrum
    s = u[:, :rank].T @ yd @ vh[:rank].T @ np.diag(1.0 / svals[:rank])
    value = float(spectrum(s)[0][-1])
    margin = bound - value
    return gate("boundary_eig", value <= bound, value=value, bound=bound, margin=margin, note=note)


@dataclass(frozen=True)
class SpanResult:
    """Basis (columns) of a structured span plus qualification residuals.

    ``residuals`` gives, per accepted basis vector, the largest node
    residual of the defining test normalized by the family scale.
    ``rejected_residual`` is the same number for the best rejected
    candidate (None when the span is the whole coefficient space).
    """

    basis: np.ndarray
    residuals: np.ndarray
    rejected_residual: float | None


def _span_from_test(traj: JacobiTrajectory, p: np.ndarray, q: np.ndarray) -> SpanResult:
    """Near-null space of the test ``p(t) Y(t) + q(t) Yd(t)``, a
    time-indexed family of ``d x d`` matrices with per-node weights ``p``
    and ``q``. The trajectory gives the test's Gram operator and worst node
    residuals (``JacobiTrajectory.span_test``): in ``O(N d)`` from the rows'
    scalar solutions of a diagonal field, else streamed from ``Y`` and
    ``Yd``; this function selects the span from them.

    Candidates are eigenvectors of the time-averaged Gram operator of the
    test, taken in ascending eigenvalue order; a candidate joins the span
    while its worst node residual stays below ``TOL_SPAN`` times
    ``traj.stacked_bound``, the family's size over the grid. The max-node
    qualification (rather than the averaged Gram value alone) keeps
    locally-supported failures from slipping through. A family so large
    that the Gram operator or the size overflows is a ValueError.
    """
    scale = traj.stacked_bound
    with np.errstate(over="ignore", invalid="ignore"):
        op, worst_residual = traj.span_test(p, q)
    if not (math.isfinite(scale) and np.all(np.isfinite(op))):
        raise ValueError(
            f"the family's size overflows: the span test's Gram operator or the "
            f"family's size over the grid ({scale:.6g}) is not finite"
        )
    _, vecs = spectrum(op)
    accepted: list[np.ndarray] = []
    residuals: list[float] = []
    rejected = None
    for v in vecs.T:
        res = worst_residual(v) / scale
        if res <= TOL_SPAN:
            accepted.append(v)
            residuals.append(res)
        else:
            rejected = res
            break
    basis = np.column_stack(accepted) if accepted else np.zeros((traj.dim, 0))
    return SpanResult(basis=basis, residuals=np.asarray(residuals), rejected_residual=rejected)


def parallel_span(traj: JacobiTrajectory) -> SpanResult:
    """Coefficient vectors whose member fields are parallel: Yd(t) c = 0 at
    every node. The test is ``Yd`` itself."""
    n = traj.n_nodes
    return _span_from_test(traj, np.zeros(n), np.ones(n))


def sine_span(traj: JacobiTrajectory) -> SpanResult:
    """Coefficient vectors whose member fields have the form sin(t) E(t)
    with E parallel; equivalently (sin(t) Yd(t) - cos(t) Y(t)) c = 0 at
    every node."""
    t = traj.times
    return _span_from_test(traj, -np.cos(t), np.sin(t))


def vanishing_span(traj: JacobiTrajectory, open_ends: bool = False) -> np.ndarray:
    """Orthonormal basis (columns) of the span of member fields vanishing
    at some instant of the window."""
    events = singular_events(traj, open_ends=open_ends)
    if not events:
        return np.zeros((traj.dim, 0))
    return orthonormal_columns(np.hstack([e.kernel for e in events]))


@dataclass(frozen=True)
class SplittingReport:
    """Outcome of one splitting check."""

    theorem: str
    dim_z: int
    dim_p: int
    z_basis: np.ndarray
    p_basis: np.ndarray
    zero_times: list[tuple[int, float]]
    residual_orth: float
    residual_span: float
    hypothesis_flags: dict
    window: tuple[float, float]
    open_ends: bool
    completeness: dict

    @property
    def verdict(self) -> str:
        """The module's rule, ``verdict``, of the gates and the conclusion."""
        return verdict(self.gates_passed, self.holds)

    @property
    def gates_passed(self) -> bool:
        return all(flag["passed"] for flag in self.hypothesis_flags.values())

    @property
    def holds(self) -> bool:
        """The family splits: two independent, orthogonal spans fill it."""
        c = self.completeness
        independent = c["dims_sum"] == 0 or c["stacked_sigma_min"] >= 1e-8
        return c["dims_sum"] == c["expected"] and independent and c["orth_ok"]


def _orthogonality_residual(traj: JacobiTrajectory, zb: np.ndarray, pb: np.ndarray) -> float:
    """Worst normalized pointwise inner product between Z- and P-members.

    Pairs are compared node by node: |<Y c_z, Y c_p>| against the product
    of the member norms, less a floor of ``1e-9`` times the squared family
    size over the grid (``stacked_bound``), so the residual does not change
    when the family is scaled. A pair with a member that vanishes at a node
    reads ``-inf`` there. The members are read ``_CHUNK`` nodes at a time
    (``JacobiTrajectory.members``).
    """
    if zb.shape[1] == 0 or pb.shape[1] == 0:
        return 0.0
    floor = 1e-9 * traj.stacked_bound * traj.stacked_bound
    z_members, p_members = traj.members(zb), traj.members(pb)
    worst = 0.0
    for lo in range(0, traj.n_nodes, _CHUNK):  # a max over nodes, taken chunk by chunk
        chunk = slice(lo, lo + _CHUNK)
        vz, vp = z_members(chunk), p_members(chunk)  # (chunk, d, m)
        inner = np.abs(np.einsum("nik,nil->nkl", vz, vp))
        norms = np.linalg.norm(vz, axis=1)[:, :, None] * np.linalg.norm(vp, axis=1)[:, None, :]
        violation = np.full_like(inner, -np.inf)
        np.divide(inner - floor, norms, out=violation, where=norms > 0.0)
        worst = max(float(np.max(violation)), worst)
    return worst


def _zero_time_map(events: list[ZeroEvent], z_basis: np.ndarray) -> list[tuple[int, float]]:
    pairs: list[tuple[int, float]] = []
    for ev in events:
        for col in ev.kernel.T:
            proj = z_basis.T @ col
            idx = int(np.argmax(np.abs(proj))) if proj.size else 0
            pair = (idx, float(ev.time))
            if pair not in pairs:
                pairs.append(pair)
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def _conclusion(traj: JacobiTrajectory, open_ends: bool) -> dict:
    """The splitting conclusion on ``traj``: the SplittingReport fields that
    depend only on the trajectory and on ``open_ends`` (the vanishing span
    and its zero times, the sine span of modes B and E or the parallel span
    of modes A and C, and the completeness figures). Kept in
    ``traj.derived``, so each trajectory computes it once per window kind,
    whichever modes its checks run."""
    key = ("conclusion", open_ends)
    if key not in traj.derived:
        z_basis = vanishing_span(traj, open_ends)
        zero_times = _zero_time_map(singular_events(traj, open_ends=open_ends), z_basis)
        span = sine_span(traj) if open_ends else parallel_span(traj)
        p_basis = span.basis
        residual_orth = _orthogonality_residual(traj, z_basis, p_basis)
        stacked = np.hstack([z_basis, p_basis])
        dims_sum = stacked.shape[1]
        stack_sig = float(np.linalg.svd(stacked, compute_uv=False)[-1]) if dims_sum else 0.0
        traj.derived[key] = {
            "dim_z": z_basis.shape[1],
            "dim_p": p_basis.shape[1],
            "z_basis": z_basis,
            "p_basis": p_basis,
            "zero_times": zero_times,
            "residual_orth": residual_orth,
            "residual_span": float(np.max(span.residuals)) if span.residuals.size else 0.0,
            "completeness": {
                "dims_sum": dims_sum,
                "expected": traj.dim,
                "stacked_sigma_min": stack_sig,
                "orth_ok": bool(residual_orth <= TOL_ORTH),
            },
        }
    return traj.derived[key]


def check_splitting(
    traj: JacobiTrajectory,
    theorem: str,
    k: int | None = None,
    alpha: float | None = None,
) -> SplittingReport:
    """Run the hypothesis gates and splitting conclusion for one mode.

    Modes B and E require ``alpha`` (the boundary-condition time, normally
    the window start); modes C and E require the floor level ``k``. The
    gates run on every call, self-adjointness first; the conclusion is
    shared with every other mode of the same window kind on ``traj``
    (``_conclusion``). The verdict is ``verdict`` of the two.
    """
    if not isinstance(theorem, str) or theorem not in MODES:
        raise ValueError(f"unknown splitting mode: {theorem!r}")
    mode = MODES[theorem]
    for name, value in (("alpha", alpha), ("k", k)):
        if name in mode.params and value is None:
            raise ValueError(f"mode {theorem} requires {name}")
    flags = {name: {"name": name, "applicable": False, "passed": True} for name in _OPTIONAL}
    flags["self_adjoint"] = self_adjoint_gate(traj)
    if "alpha" in mode.params:
        flags["boundary_eig"] = boundary_eigenvalue_gate(traj, alpha)
    floor_k = k if "k" in mode.params else 1
    needed = float(k) if mode.floor is None else mode.floor
    floor = float(ric_k_floor(traj.field_spectrum, floor_k))
    flags["ric_k_floor"] = gate(
        "ric_k_floor", floor >= needed - _FLOOR_SLACK, k=floor_k, value=floor, threshold=needed
    )
    conclusion = _conclusion(traj, mode.open_window)
    if "k" in mode.params:
        dim_z, limit = conclusion["dim_z"], traj.dim - k  # n - k - 1
        flags["dim_condition"] = gate("dim_condition", dim_z <= limit, dim_z=dim_z, limit=limit)
    return SplittingReport(
        theorem=theorem,
        hypothesis_flags=flags,
        window=(traj.alpha, traj.end),
        open_ends=mode.open_window,
        **conclusion,
    )


def _floor_cross_check(traj: JacobiTrajectory, k: int, seed: int | None, details: dict) -> None:
    """With a run ``seed``, add a Monte Carlo estimate of the Ric_k floor to
    ``details``, sampled at the grid time where the exact floor is reached,
    so it bounds that floor from above."""
    if seed is not None:
        t_floor = traj.times[int(np.argmin(k_traces(traj.field_spectrum, k)))]
        details["floor_sampled"] = ric_k_floor_sampled(traj.spec.field, t_floor, k, seed=seed)


def splitting_verdict(traj: JacobiTrajectory, params: dict, seed: int | None) -> tuple[str, dict]:
    """The ``splitting`` check of a scenario: ``check_splitting`` in the mode
    ``params["theorem"]``, plus the sampled floor when ``seed`` is given."""
    report = check_splitting(traj, params["theorem"], k=params.get("k"), alpha=params.get("alpha"))
    details = dict(vars(report), verdict=report.verdict)
    _floor_cross_check(traj, report.hypothesis_flags["ric_k_floor"]["k"], seed, details)
    return report.verdict, details


def vanishing_floor_verdict(
    traj: JacobiTrajectory, params: dict, seed: int | None
) -> tuple[str, dict]:
    """The ``vanishing-floor`` check: under self-adjointness and a positive
    Ric_k floor over the window (``k = params["k"]``), at least ``n - k``
    independent members vanish somewhere in the closed window."""
    k = params["k"]
    details = {"self_adjoint": self_adjoint_gate(traj)}
    details["floor"] = ric_k_floor(traj.field_spectrum, k)
    _floor_cross_check(traj, k, seed, details)
    if not details["self_adjoint"]["passed"] or details["floor"] <= 0.0:
        return verdict(False, False), details
    basis = vanishing_span(traj)
    need = traj.spec.field.n - k
    details.update(dim_z_closed=basis.shape[1], required=need)
    return verdict(True, basis.shape[1] >= need), details
