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
* mode C: like A plus an intermediate-Ricci floor at level k >= 0 and the
  dimension bound dim Z <= n - k - 1.
* mode E: like B with floor at level k >= k and the same dimension bound.

The verdict is three-valued: ``hypothesis-violated`` when a gate fails,
``verified`` when gates and conclusions hold, and ``falsified`` when every
gate passes yet a conclusion fails. The last is a consistency alarm: it
should never fire on correct inputs, and the test suite asserts it never
does across the built-in scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import ric_k_floor, ric_k_floor_sampled, ric_k_traces
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
    "splitting_params",
    "splitting_verdict",
    "vanishing_floor_verdict",
]

MODES = ("A", "B", "C", "E")
# the params each mode needs besides ``theorem``
MODE_PARAMS = {"A": (), "B": ("alpha",), "C": ("k",), "E": ("k", "alpha")}
# largest node residual of a span member, relative to the family's size over
# the grid (JacobiTrajectory.stacked_bound)
TOL_SPAN = 1e-6
TOL_ORTH = 1e-6  # largest normalized inner product between Z- and P-members
TOL_EIG = 1e-6  # slack of the boundary eigenvalue bound cot(alpha)
_FLOOR_SLACK = 1e-9


def self_adjoint_gate(traj: JacobiTrajectory) -> dict:
    """Self-adjointness hypothesis: the (conserved) Wronskian form at the
    window start must vanish relative to the family's scale; its largest
    entry is the ``defect``."""
    defect = float(np.max(np.abs(wronskian(traj, traj.alpha)), initial=0.0))
    threshold = 1e-8 * (1.0 + traj.stacked_scale**2)
    return {
        "name": "self_adjoint",
        "applicable": True,
        "passed": bool(defect <= threshold),
        "defect": defect,
        "threshold": threshold,
    }


def boundary_eigenvalue_gate(traj: JacobiTrajectory, alpha: float) -> dict:
    """Boundary hypothesis: the largest eigenvalue of the (symmetrized)
    Riccati operator at the window start must not exceed cot(alpha).

    ``alpha`` must lie within half a step of the window ``[traj.alpha,
    traj.end]``, else this is a ValueError naming both. At alpha = 0 (a
    window that starts at 0) the bound is +infinity and the gate always
    passes. When the value matrix is singular at alpha > 0, the operator is
    evaluated on the regular quotient (its restriction to the image of
    Y(alpha), using minimum-norm preimages); when that image is trivial the
    gate is not evaluable and reported as failed.
    """
    h = traj.step
    if not traj.alpha - h / 2 <= alpha <= traj.end + h / 2:
        raise ValueError(
            f"boundary gate: alpha={alpha:.12g} lies outside the window "
            f"[{traj.alpha:.12g}, {traj.end:.12g}]"
        )
    out = {
        "name": "boundary_eig",
        "applicable": True,
        "passed": False,
        "value": None,
        "bound": None,
        "margin": None,
        "note": "",
    }
    if alpha <= 1e-12:
        out.update(passed=True, bound=math.inf, margin=math.inf, note="cot(0+) bound is +inf")
        return out
    bound = math.cos(alpha) / math.sin(alpha) + TOL_EIG
    out["bound"] = bound
    j = traj.node_index(alpha)
    u, svals, vh = np.linalg.svd(traj.y[j])
    rank = int(np.sum(svals > TOL_SING * traj.scale))
    if rank == 0:
        out["note"] = "not evaluable: Y(alpha) has trivial image"
        return out
    if rank < traj.dim:
        out["note"] = f"quotient restriction to rank-{rank} image of Y(alpha)"
    # U_r^T Yd V_r Sigma_r^-1; at full rank U^T (Yd Y^-1) U, with its spectrum
    s = u[:, :rank].T @ traj.yd[j] @ vh[:rank].T @ np.diag(1.0 / svals[:rank])
    value = float(spectrum(s)[0][-1])
    out.update(value=value, margin=bound - value, passed=bool(value <= bound))
    return out


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


def _weighted(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``w[j] * a[j]`` for every node j of the leading axis."""
    return w.reshape((-1,) + (1,) * (a.ndim - 1)) * a


def _span_from_test(terms: tuple, scale: float) -> SpanResult:
    """Near-null space of the test ``sum_k w_k(t) M_k(t)``, a time-indexed
    family of ``d x d`` matrices given as ``terms``, pairs ``(w_k, M_k)`` of
    per-node weights (None for a unit weight) and ``(N, d, d)`` arrays.

    Candidates are eigenvectors of the time-averaged Gram operator of the
    test, taken in ascending eigenvalue order; a candidate joins the span
    while its worst node residual stays below ``TOL_SPAN`` times ``scale``,
    the family's size over the grid. The max-node qualification (rather
    than the averaged Gram value alone) keeps locally-supported failures
    from slipping through.

    The test is streamed ``_CHUNK`` nodes at a time, once for the Gram
    operator and once per candidate for its residuals, so no full-size array
    is made; a lone unit-weight term is read in place.
    """
    n, d = terms[0][1].shape[:2]
    chunks = [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]

    def test(chunk, f):
        # sum_k w_k f(M_k[chunk]), f keeping the node axis first; only a lone
        # term has a unit weight (None), so a sum of several is a fresh array
        (w, m), *rest = terms
        total = f(m[chunk]) if w is None else _weighted(w[chunk], f(m[chunk]))
        for w, m in rest:
            total += _weighted(w[chunk], f(m[chunk]))
        return total

    def gram(chunk):  # the chunk's test is freed on return
        flat = test(chunk, lambda b: b).reshape(-1, d)
        return flat.T @ flat

    def worst_residual(v):
        # node rows from a gemv on the flat view of each term
        rows = (test(c, lambda b: (b.reshape(-1, d) @ v).reshape(-1, d)) for c in chunks)
        return max(float(np.max(np.linalg.norm(r, axis=1))) for r in rows) / scale

    _, vecs = spectrum(sum(gram(c) for c in chunks) / n)
    accepted: list[np.ndarray] = []
    residuals: list[float] = []
    rejected = None
    for i in range(d):
        v = vecs[:, i]
        res = worst_residual(v)
        if res <= TOL_SPAN:
            accepted.append(v)
            residuals.append(res)
        else:
            rejected = res
            break
    basis = np.column_stack(accepted) if accepted else np.zeros((d, 0))
    return SpanResult(basis=basis, residuals=np.asarray(residuals), rejected_residual=rejected)


def parallel_span(traj: JacobiTrajectory) -> SpanResult:
    """Coefficient vectors whose member fields are parallel: Yd(t) c = 0 at
    every node. The test is ``Yd`` itself, read in place ``_CHUNK`` nodes
    at a time; no full-size array is made."""
    return _span_from_test(((None, traj.yd),), traj.stacked_bound)


def sine_span(traj: JacobiTrajectory) -> SpanResult:
    """Coefficient vectors whose member fields have the form sin(t) E(t)
    with E parallel; equivalently (sin(t) Yd(t) - cos(t) Y(t)) c = 0 at
    every node. The test is streamed ``_CHUNK`` nodes at a time from ``Y``
    and ``Yd``; no full-size array is made."""
    t = traj.times
    return _span_from_test(((np.sin(t), traj.yd), (-np.cos(t), traj.y)), traj.stacked_bound)


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
    verdict: str  # verified | hypothesis-violated | falsified
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
    completeness: dict = field(default_factory=dict)


def _orthogonality_residual(traj: JacobiTrajectory, zb: np.ndarray, pb: np.ndarray) -> float:
    """Worst normalized pointwise inner product between Z- and P-members.

    Pairs are compared node by node: |<Y c_z, Y c_p>| against the product
    of the member norms, with a small absolute floor so instants where a
    member vanishes do not divide by zero.
    """
    if zb.shape[1] == 0 or pb.shape[1] == 0:
        return 0.0
    worst = 0.0
    for lo in range(0, traj.n_nodes, _CHUNK):  # a max over nodes, taken chunk by chunk
        y = traj.y[lo : lo + _CHUNK]
        vz = np.einsum("nij,jk->nik", y, zb)  # (chunk, d, mz)
        vp = np.einsum("nij,jk->nik", y, pb)
        inner = np.abs(np.einsum("nik,nil->nkl", vz, vp))
        nz = np.linalg.norm(vz, axis=1)[:, :, None]
        np_ = np.linalg.norm(vp, axis=1)[:, None, :]
        violation = (inner - 1e-9) / np.maximum(nz * np_, 1e-300)
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


def check_splitting(
    traj: JacobiTrajectory,
    theorem: str,
    k: int | None = None,
    alpha: float | None = None,
) -> SplittingReport:
    """Run the hypothesis gates and splitting conclusion for one mode.

    Modes B and E require ``alpha`` (the boundary-condition time, normally
    the window start); modes C and E require the floor level ``k``.
    """
    if theorem not in MODES:
        raise ValueError(f"unknown splitting mode: {theorem!r}")
    needs_alpha = "alpha" in MODE_PARAMS[theorem]
    needs_k = "k" in MODE_PARAMS[theorem]
    if needs_alpha and alpha is None:
        raise ValueError(f"mode {theorem} requires alpha")
    if needs_k and k is None:
        raise ValueError(f"mode {theorem} requires k")
    fld = traj.spec.field
    n = fld.n
    d = traj.dim

    flags: dict[str, dict] = {}
    flags["self_adjoint"] = self_adjoint_gate(traj)

    if needs_alpha:
        flags["boundary_eig"] = boundary_eigenvalue_gate(traj, alpha)
    else:
        flags["boundary_eig"] = {"name": "boundary_eig", "applicable": False, "passed": True}

    floor_k = k if needs_k else 1
    floor_needed = {"A": 0.0, "B": 1.0, "C": 0.0, "E": float(k or 0)}[theorem]
    if not (1 <= floor_k <= d):
        raise ValueError(f"floor level k={floor_k} out of range 1..{d}")
    floor_val = ric_k_floor(fld, traj.times, floor_k)
    flags["ric_k_floor"] = {
        "name": "ric_k_floor",
        "applicable": True,
        "passed": bool(floor_val >= floor_needed - _FLOOR_SLACK),
        "k": floor_k,
        "value": float(floor_val),
        "threshold": floor_needed,
    }

    open_ends = theorem in ("B", "E")
    window = (traj.alpha, traj.end)
    z_basis = vanishing_span(traj, open_ends)
    zero_times = _zero_time_map(singular_events(traj, open_ends=open_ends), z_basis)

    span = parallel_span(traj) if theorem in ("A", "C") else sine_span(traj)
    p_basis = span.basis
    residual_span = float(np.max(span.residuals)) if span.residuals.size else 0.0

    dim_z, dim_p = z_basis.shape[1], p_basis.shape[1]
    if needs_k:
        limit = n - k - 1
        flags["dim_condition"] = {
            "name": "dim_condition",
            "applicable": True,
            "passed": bool(dim_z <= limit),
            "dim_z": dim_z,
            "limit": limit,
        }
    else:
        flags["dim_condition"] = {"name": "dim_condition", "applicable": False, "passed": True}

    residual_orth = _orthogonality_residual(traj, z_basis, p_basis)
    stacked = np.hstack([z_basis, p_basis])
    if stacked.shape[1]:
        stack_sig = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    else:
        stack_sig = 0.0
    orth_ok = bool(residual_orth <= TOL_ORTH)
    complete = dim_z + dim_p == d and (stacked.shape[1] == 0 or stack_sig >= 1e-8) and orth_ok
    completeness = {
        "dims_sum": dim_z + dim_p,
        "expected": d,
        "stacked_sigma_min": stack_sig,
        "orth_ok": orth_ok,
    }

    gates_ok = all(
        flags[name]["passed"]
        for name in ("self_adjoint", "boundary_eig", "ric_k_floor")
        if flags[name]["applicable"]
    )
    conclusion_ok = complete and flags["dim_condition"]["passed"]
    if not gates_ok:
        verdict = "hypothesis-violated"
    elif conclusion_ok:
        verdict = "verified"
    else:
        verdict = "falsified"

    return SplittingReport(
        theorem=theorem,
        verdict=verdict,
        dim_z=dim_z,
        dim_p=dim_p,
        z_basis=z_basis,
        p_basis=p_basis,
        zero_times=zero_times,
        residual_orth=residual_orth,
        residual_span=residual_span,
        hypothesis_flags=flags,
        window=window,
        open_ends=open_ends,
        completeness=completeness,
    )


def _floor_cross_check(traj: JacobiTrajectory, k: int, seed: int | None, details: dict) -> None:
    """With a run ``seed``, add a Monte Carlo estimate of the Ric_k floor to
    ``details``, sampled at the grid time where the exact floor is reached,
    so it bounds that floor from above."""
    if seed is not None:
        fld = traj.spec.field
        t_floor = traj.times[int(np.argmin(ric_k_traces(fld, traj.times, k)))]
        details["floor_sampled"] = ric_k_floor_sampled(fld, t_floor, k, seed=seed)


def splitting_params(params: dict) -> tuple[str, ...]:
    """The params a splitting check cannot run without: ``theorem`` and the
    ones its mode needs."""
    return ("theorem",) + MODE_PARAMS.get(params.get("theorem"), ())


def splitting_verdict(traj: JacobiTrajectory, params: dict, seed: int | None) -> tuple[str, dict]:
    """The ``splitting`` check of a scenario: ``check_splitting`` in the mode
    ``params["theorem"]``, plus the sampled floor when ``seed`` is given."""
    report = check_splitting(traj, params["theorem"], k=params.get("k"), alpha=params.get("alpha"))
    details = dict(vars(report))
    _floor_cross_check(traj, report.hypothesis_flags["ric_k_floor"]["k"], seed, details)
    return report.verdict, details


def vanishing_floor_verdict(
    traj: JacobiTrajectory, params: dict, seed: int | None
) -> tuple[str, dict]:
    """The ``vanishing-floor`` check: under self-adjointness and a positive
    Ric_k floor over the window (``k = params["k"]``), at least ``n - k``
    independent members vanish somewhere in the closed window."""
    k = params["k"]
    gate = self_adjoint_gate(traj)
    floor = ric_k_floor(traj.spec.field, traj.times, k)
    details = {"self_adjoint": gate, "floor": floor}
    _floor_cross_check(traj, k, seed, details)
    if not gate["passed"] or floor <= 0.0:
        return "hypothesis-violated", details
    basis = vanishing_span(traj)
    need = traj.spec.field.n - k
    details.update(dim_z_closed=basis.shape[1], required=need)
    return ("verified" if basis.shape[1] >= need else "falsified"), details
