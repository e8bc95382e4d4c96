"""Scalar comparison and rigidity analysis.

The trace part of the Riccati operator of a self-adjoint family obeys a
scalar Riccati inequality once the traceless part is folded into an
effective curvature term. Splitting S into its mean ``s = tr(S)/(n-1)``
and traceless rest S0, the scalar quantities

    s(t)  = tr(S(t)) / (n - 1)
    r(t)  = (tr(R(t)) + |S0(t)|^2) / (n - 1),   |S0|^2 = tr(S0 @ S0)

satisfy s' + s^2 + r = 0 wherever the family is regular. When r >= 1 the
scalar s is dominated by the unit-curvature model f(t) = cot(t - shift)
through the anchored comparison implemented here: s >= f to the left of
the anchor and s <= f to the right of it, on the regular stretch around
the anchor intersected with the model branch.

The rigidity check chains the hypothesis gates of the scalar rigidity
statement (trace curvature floor, interior regularity, boundary bound)
and, when they all pass, confirms the family is the round model: S(t) is
cot(t) times the identity and R(t) is the identity.

Note |S0|^2 is the trace of the square, not the squared Frobenius norm;
for non-symmetric S these differ, and only the former keeps the scalar
identity exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import (
    DEFAULT_TOL_ZERO,
    JacobiTrajectory,
    riccati_series,
    singular_events,
    write_table,
)
from .splitting import DEFAULT_TOL_EIG, boundary_eigenvalue_gate, self_adjoint_gate

__all__ = [
    "ScalarTrace",
    "scalar_traces",
    "ModelSolution",
    "model_solution",
    "ComparisonReport",
    "comparison_check",
    "RigidityReport",
    "rigidity_check",
    "rigidity_verdict",
    "export_scalar_csv",
]

TOL_R = 1e-6  # slack of the comparison hypothesis r >= 1
TOL_ROUND = 1e-4  # largest S and R deviation from the round model, operator norm


@dataclass(frozen=True)
class ScalarTrace:
    """Scalar reduction of a trajectory: per-node mean Riccati trace ``s``,
    effective curvature ``r`` and traceless magnitude ``s0sq``, with NaN at
    nodes where the family is singular."""

    times: np.ndarray
    regular: np.ndarray
    s: np.ndarray
    r: np.ndarray
    s0sq: np.ndarray
    n: int
    step: float
    label: str


def scalar_traces(traj: JacobiTrajectory) -> ScalarTrace:
    """Compute the scalar trace functions of a trajectory.

    Raises ValueError when no node is regular (there is nothing to trace).
    """
    fld = traj.spec.field
    mask, s_ops = riccati_series(traj)
    if not mask.any():
        raise ValueError("no regular nodes: scalar traces are undefined")
    m = traj.dim  # = n - 1
    n_nodes = traj.times.size
    s = np.full(n_nodes, np.nan)
    s0sq = np.full(n_nodes, np.nan)
    r = np.full(n_nodes, np.nan)
    tr_s = np.einsum("nii->n", s_ops[mask])
    tr_s2 = np.einsum("nij,nji->n", s_ops[mask], s_ops[mask])
    s[mask] = tr_s / m
    s0sq[mask] = tr_s2 - tr_s**2 / m
    tr_r = np.trace(fld.matrices(traj.times[mask]), axis1=1, axis2=2)
    r[mask] = (tr_r + s0sq[mask]) / m
    return ScalarTrace(
        times=traj.times.copy(),
        regular=mask,
        s=s,
        r=r,
        s0sq=s0sq,
        n=fld.n,
        step=traj.step,
        label=traj.spec.label,
    )


def _arccot(x: float) -> float:
    """Inverse cotangent with range (0, pi)."""
    return math.atan2(1.0, x)


@dataclass(frozen=True)
class ModelSolution:
    """Unit-curvature scalar model f(t) = cot(t - shift) anchored so that
    f(t0) = s0. ``asymptote`` is the model's pole inside the open interval
    (0, pi), or None when the branch covers the whole interval; ``side``
    says where that pole sits relative to the anchor ("left": f -> +inf
    just right of the pole; "right": f -> -inf just left of it)."""

    t0: float
    s0: float
    shift: float
    asymptote: float | None
    side: str | None

    @property
    def branch(self) -> tuple[float, float]:
        """Open domain interval of the anchored branch."""
        return (self.shift, self.shift + math.pi)

    def value(self, t):
        u = np.asarray(t, dtype=float) - self.shift
        with np.errstate(divide="ignore"):
            out = np.cos(u) / np.sin(u)
        return float(out) if np.isscalar(t) else out

    def derivative(self, t):
        u = np.asarray(t, dtype=float) - self.shift
        with np.errstate(divide="ignore"):
            out = -1.0 / np.sin(u) ** 2
        return float(out) if np.isscalar(t) else out


def model_solution(t0: float, s0: float) -> ModelSolution:
    """Anchor the unit model at (t0, s0). Requires t0 in (0, pi)."""
    if not (0.0 < t0 < math.pi):
        raise ValueError(f"anchor time must lie in (0, pi): {t0}")
    if not math.isfinite(s0):
        raise ValueError("anchor value must be finite")
    shift = t0 - _arccot(s0)
    if 0.0 < shift < math.pi:
        asymptote, side = shift, "left"
    elif 0.0 < shift + math.pi < math.pi:
        asymptote, side = shift + math.pi, "right"
    else:
        asymptote, side = None, None
    return ModelSolution(t0=t0, s0=s0, shift=shift, asymptote=asymptote, side=side)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one anchored comparison."""

    t0: float
    s0: float
    hypothesis_ok: bool
    r_min: float
    left_ok: bool
    right_ok: bool
    max_violation: float
    n_left: int
    n_right: int
    model: ModelSolution


def _regular_stretch(mask: np.ndarray, j0: int) -> tuple[int, int]:
    """Half-open index range of the maximal run of True values around j0."""
    lo = j0
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = j0 + 1
    while hi < mask.size and mask[hi]:
        hi += 1
    return lo, hi


def comparison_check(
    trace: ScalarTrace,
    t0: float,
    tol: float = 1e-6,
) -> ComparisonReport:
    """Compare the scalar trace against the unit model anchored at t0.

    The anchor must be a regular node. The inequalities are checked on the
    maximal regular stretch containing the anchor, intersected with the
    open branch domain of the model: s >= f - tol strictly left of the
    anchor, s <= f + tol strictly right of it. The curvature hypothesis
    r >= 1 - TOL_R is evaluated over all regular nodes and reported; the
    inequality checks run either way so a hypothesis failure can be seen
    alongside its consequences.
    """
    j0 = int(np.argmin(np.abs(trace.times - t0)))
    if abs(trace.times[j0] - t0) > trace.step / 2 + 1e-12:
        raise ValueError(f"anchor {t0} does not lie on the node grid")
    if not trace.regular[j0]:
        raise ValueError(f"anchor node t={trace.times[j0]} is singular")
    s0 = float(trace.s[j0])
    model = model_solution(float(trace.times[j0]), s0)
    r_min = float(np.min(trace.r[trace.regular]))
    hypothesis_ok = bool(r_min >= 1.0 - TOL_R)

    lo, hi = _regular_stretch(trace.regular, j0)
    ts = trace.times[lo:hi]
    ss = trace.s[lo:hi]
    b_lo, b_hi = model.branch
    in_branch = (ts > b_lo) & (ts < b_hi)
    f = model.value(ts)
    left = in_branch & (ts < trace.times[j0])
    right = in_branch & (ts > trace.times[j0])
    left_viol = float(np.max(f[left] - ss[left])) if left.any() else -math.inf
    right_viol = float(np.max(ss[right] - f[right])) if right.any() else -math.inf
    return ComparisonReport(
        t0=float(trace.times[j0]),
        s0=s0,
        hypothesis_ok=hypothesis_ok,
        r_min=r_min,
        left_ok=bool(left_viol <= tol),
        right_ok=bool(right_viol <= tol),
        max_violation=max(left_viol, right_viol),
        n_left=int(left.sum()),
        n_right=int(right.sum()),
        model=model,
    )


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the scalar rigidity check."""

    verdict: str  # verified | hypothesis-violated | falsified
    reason: str
    gates: dict
    max_s_dev: float | None
    max_r_dev: float | None
    window: tuple[float, float]


def rigidity_check(
    traj: JacobiTrajectory,
    alpha: float | None = None,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> RigidityReport:
    """Mechanical check of the scalar rigidity statement.

    Gates: self-adjointness; trace curvature floor tr R >= n - 1;
    interior regularity (no vanishing instant strictly inside the window);
    boundary eigenvalue bound at alpha. When all gates pass, the
    conclusion requires S(t) = cot(t) id and R(t) = id (within ``TOL_ROUND``
    in operator norm) at every regular node strictly inside the window; a
    conclusion failure with passing gates is reported as ``falsified``.
    """
    fld = traj.spec.field
    m = traj.dim
    gates: dict[str, dict] = {}
    reasons: list[str] = []

    gates["self_adjoint"] = self_adjoint_gate(traj)
    if not gates["self_adjoint"]["passed"]:
        reasons.append(f"self-adjointness fails (defect {gates['self_adjoint']['defect']:.3g})")

    tr_min = float(np.min(np.trace(fld.matrices(traj.times), axis1=1, axis2=2)))
    floor_ok = tr_min >= m - 1e-9
    gates["trace_floor"] = {
        "name": "trace_floor",
        "passed": bool(floor_ok),
        "value": tr_min,
        "threshold": float(m),
    }
    if not floor_ok:
        reasons.append(f"trace curvature floor fails (min {tr_min:.6g} < {m})")

    events = singular_events(traj, open_ends=True, tol_zero=tol_zero)
    reg_ok = not events
    gates["regularity"] = {
        "name": "regularity",
        "passed": bool(reg_ok),
        "first_interior_singularity": float(events[0].time) if events else None,
    }
    if not reg_ok:
        reasons.append(f"interior regularity fails (singular near t={events[0].time:.6g})")

    gates["boundary_eig"] = boundary_eigenvalue_gate(
        traj, traj.alpha if alpha is None else alpha, tol_eig
    )
    if not gates["boundary_eig"]["passed"]:
        note = gates["boundary_eig"].get("note") or "eigenvalue bound exceeded"
        gates_val = gates["boundary_eig"].get("value")
        detail = f" (max eig {gates_val:.6g})" if gates_val is not None else ""
        reasons.append(f"boundary gate fails: {note}{detail}")

    max_s_dev: float | None = None
    max_r_dev: float | None = None
    if not reasons:
        mask, s_ops = riccati_series(traj)
        interior = (traj.times > traj.alpha + traj.step / 2) & (
            traj.times < traj.end - traj.step / 2
        )
        idx = np.nonzero(mask & interior)[0]
        eye = np.eye(m)
        ts = traj.times[idx]
        sym = (s_ops[idx] + np.transpose(s_ops[idx], (0, 2, 1))) / 2.0
        cot = (np.cos(ts) / np.sin(ts))[:, None, None]
        s_dev = float(np.max(np.linalg.norm(sym - cot * eye, 2, axis=(1, 2)), initial=0.0))
        r_dev = float(np.max(np.linalg.norm(fld.matrices(ts) - eye, 2, axis=(1, 2)), initial=0.0))
        max_s_dev, max_r_dev = s_dev, r_dev
        if s_dev <= TOL_ROUND and r_dev <= TOL_ROUND:
            verdict, reason = "verified", "all gates pass and the family is the round model"
        else:
            verdict = "falsified"
            reason = (
                f"gates pass but conclusion fails (S deviation {s_dev:.3g}, "
                f"R deviation {r_dev:.3g})"
            )
    else:
        verdict, reason = "hypothesis-violated", "; ".join(reasons)

    return RigidityReport(
        verdict=verdict,
        reason=reason,
        gates=gates,
        max_s_dev=max_s_dev,
        max_r_dev=max_r_dev,
        window=(traj.alpha, traj.end),
    )


def rigidity_verdict(traj: JacobiTrajectory, params: dict, opts: dict) -> tuple[str, dict]:
    """The ``rigidity`` check of a scenario: ``rigidity_check`` with the
    boundary time ``params.get("alpha")`` and the run's tolerance overrides."""
    report = rigidity_check(
        traj,
        alpha=params.get("alpha"),
        tol_eig=opts.get("tol_eig", DEFAULT_TOL_EIG),
        tol_zero=opts.get("tol_zero", DEFAULT_TOL_ZERO),
    )
    return report.verdict, dict(vars(report))


def export_scalar_csv(trace: ScalarTrace, path: str, model: ModelSolution | None = None) -> None:
    """Write the scalar trace (and optionally the anchored model values)
    as CSV with columns t, regular, s, r and, when a model is given, f."""
    head, fmts = ["t", "regular", "s", "r"], ["%.17g", "%d", "%.17g", "%.17g"]
    columns = [trace.times, trace.regular, trace.s, trace.r]
    if model is not None:
        head.append("f")
        fmts.append("%.17g")
        columns.append(model.value(trace.times))
    write_table(path, [",".join(head)], fmts, columns, newline="\r\n")
