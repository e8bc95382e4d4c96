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
    DEFAULT_TOL_ZERO,
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
    "wronskian_defect",
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
DEFAULT_TOL_SPAN = 1e-6
TOL_ORTH = 1e-6  # largest normalized inner product between Z- and P-members
DEFAULT_TOL_EIG = 1e-6
_FLOOR_SLACK = 1e-9


def wronskian_defect(traj: JacobiTrajectory) -> float:
    """Largest entry of the (conserved) Wronskian form, evaluated at the
    window start: zero exactly when the family is self-adjoint."""
    w = wronskian(traj, traj.alpha)
    return float(np.max(np.abs(w))) if w.size else 0.0


def self_adjoint_gate(traj: JacobiTrajectory) -> dict:
    """Self-adjointness hypothesis: the Wronskian must vanish relative to
    the family's scale."""
    defect = wronskian_defect(traj)
    threshold = 1e-8 * (1.0 + traj.stacked_scale**2)
    return {
        "name": "self_adjoint",
        "applicable": True,
        "passed": bool(defect <= threshold),
        "defect": defect,
        "threshold": threshold,
    }


def boundary_eigenvalue_gate(
    traj: JacobiTrajectory, alpha: float, tol_eig: float = DEFAULT_TOL_EIG
) -> dict:
    """Boundary hypothesis: the largest eigenvalue of the (symmetrized)
    Riccati operator at the window start must not exceed cot(alpha).

    At alpha = 0 the bound is +infinity and the gate always passes. When
    the value matrix is singular at alpha > 0, the operator is evaluated on
    the regular quotient (its restriction to the image of Y(alpha), using
    minimum-norm preimages); when that image is trivial the gate is not
    evaluable and reported as failed.
    """
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
    bound = math.cos(alpha) / math.sin(alpha) + tol_eig
    out["bound"] = bound
    j = traj.node_index(alpha)
    yj, ydj = traj.y[j], traj.yd[j]
    u, svals, vh = np.linalg.svd(yj)
    rank = int(np.sum(svals > TOL_SING * traj.scale))
    if rank == yj.shape[0]:
        s = np.linalg.solve(yj.T, ydj.T).T
    elif rank > 0:
        ur, vr = u[:, :rank], vh[:rank].T
        s = ur.T @ ydj @ vr @ np.diag(1.0 / svals[:rank])
        out["note"] = f"quotient restriction to rank-{rank} image of Y(alpha)"
    else:
        out["note"] = "not evaluable: Y(alpha) has trivial image"
        return out
    eigs, _ = spectrum((s + s.T) / 2.0)
    value = float(eigs[-1])
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


def _span_from_test(test_mats: np.ndarray, scale: float, tol: float) -> SpanResult:
    """Near-null space of a time-indexed family of test matrices.

    Candidates are eigenvectors of the time-averaged Gram operator of the
    test, taken in ascending eigenvalue order; a candidate joins the span
    while its worst node residual stays below ``tol`` times the family
    scale. The max-node qualification (rather than the averaged Gram value
    alone) keeps locally-supported failures from slipping through.
    """
    d = test_mats.shape[2]
    gram = np.einsum("nij,nik->jk", test_mats, test_mats) / test_mats.shape[0]
    _, vecs = spectrum(gram)
    accepted: list[np.ndarray] = []
    residuals: list[float] = []
    rejected = None
    for i in range(d):
        v = vecs[:, i]
        res = float(np.max(np.linalg.norm(test_mats @ v, axis=1))) / scale
        if res <= tol:
            accepted.append(v)
            residuals.append(res)
        else:
            rejected = res
            break
    basis = np.column_stack(accepted) if accepted else np.zeros((d, 0))
    return SpanResult(basis=basis, residuals=np.asarray(residuals), rejected_residual=rejected)


def parallel_span(traj: JacobiTrajectory, tol: float = DEFAULT_TOL_SPAN) -> SpanResult:
    """Coefficient vectors whose member fields are parallel: Yd(t) c = 0 at
    every node."""
    return _span_from_test(traj.yd, traj.stacked_scale, tol)


def sine_span(traj: JacobiTrajectory, tol: float = DEFAULT_TOL_SPAN) -> SpanResult:
    """Coefficient vectors whose member fields have the form sin(t) E(t)
    with E parallel; equivalently (sin(t) Yd(t) - cos(t) Y(t)) c = 0 at
    every node."""
    st = np.sin(traj.times)[:, None, None]
    ct = np.cos(traj.times)[:, None, None]
    return _span_from_test(st * traj.yd - ct * traj.y, traj.stacked_scale, tol)


def vanishing_span(
    traj: JacobiTrajectory, open_ends: bool = False, tol_zero: float = DEFAULT_TOL_ZERO
) -> np.ndarray:
    """Orthonormal basis (columns) of the span of member fields vanishing
    at some instant of the window."""
    events = singular_events(traj, open_ends=open_ends, tol_zero=tol_zero)
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
    vz = np.einsum("nij,jk->nik", traj.y, zb)  # (N, d, mz)
    vp = np.einsum("nij,jk->nik", traj.y, pb)
    inner = np.abs(np.einsum("nik,nil->nkl", vz, vp))
    nz = np.linalg.norm(vz, axis=1)[:, :, None]
    np_ = np.linalg.norm(vp, axis=1)[:, None, :]
    violation = (inner - 1e-9) / np.maximum(nz * np_, 1e-300)
    return float(max(np.max(violation), 0.0))


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
    tol_zero: float = DEFAULT_TOL_ZERO,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_span: float = DEFAULT_TOL_SPAN,
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
        flags["boundary_eig"] = boundary_eigenvalue_gate(traj, alpha, tol_eig)
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
    events = singular_events(traj, open_ends=open_ends, tol_zero=tol_zero)
    z_basis = (
        orthonormal_columns(np.hstack([e.kernel for e in events]))
        if events
        else np.zeros((d, 0))
    )
    zero_times = _zero_time_map(events, z_basis)

    span = parallel_span(traj, tol_span) if theorem in ("A", "C") else sine_span(traj, tol_span)
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


def _floor_cross_check(traj: JacobiTrajectory, k: int, opts: dict, details: dict) -> None:
    """With a ``seed`` among the run options, add a Monte Carlo estimate of
    the Ric_k floor to ``details``, sampled at the grid time where the exact
    floor is reached, so it bounds that floor from above."""
    if "seed" in opts:
        fld = traj.spec.field
        t_floor = traj.times[int(np.argmin(ric_k_traces(fld, traj.times, k)))]
        details["floor_sampled"] = ric_k_floor_sampled(fld, t_floor, k, seed=opts["seed"])


def splitting_params(params: dict) -> tuple[str, ...]:
    """The params a splitting check cannot run without: ``theorem`` and the
    ones its mode needs."""
    return ("theorem",) + MODE_PARAMS.get(params.get("theorem"), ())


def splitting_verdict(traj: JacobiTrajectory, params: dict, opts: dict) -> tuple[str, dict]:
    """The ``splitting`` check of a scenario: ``check_splitting`` in the mode
    ``params["theorem"]``. ``opts`` holds the run's overrides (``tol_zero``,
    ``tol_eig``, ``seed``), each present only when given."""
    report = check_splitting(
        traj,
        params["theorem"],
        k=params.get("k"),
        alpha=params.get("alpha"),
        tol_zero=opts.get("tol_zero", DEFAULT_TOL_ZERO),
        tol_eig=opts.get("tol_eig", DEFAULT_TOL_EIG),
    )
    details = dict(vars(report))
    _floor_cross_check(traj, report.hypothesis_flags["ric_k_floor"]["k"], opts, details)
    return report.verdict, details


def vanishing_floor_verdict(traj: JacobiTrajectory, params: dict, opts: dict) -> tuple[str, dict]:
    """The ``vanishing-floor`` check: under self-adjointness and a positive
    Ric_k floor over the window (``k = params["k"]``), at least ``n - k``
    independent members vanish somewhere in the closed window."""
    k = params["k"]
    gate = self_adjoint_gate(traj)
    floor = ric_k_floor(traj.spec.field, traj.times, k)
    details = {"self_adjoint": gate, "floor": floor}
    _floor_cross_check(traj, k, opts, details)
    if not gate["passed"] or floor <= 0.0:
        return "hypothesis-violated", details
    basis = vanishing_span(traj, open_ends=False, tol_zero=opts.get("tol_zero", DEFAULT_TOL_ZERO))
    need = traj.spec.field.n - k
    details.update(dim_z_closed=basis.shape[1], required=need)
    return ("verified" if basis.shape[1] >= need else "falsified"), details
