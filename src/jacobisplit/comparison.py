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

The rigidity check is splitting mode E at k = n - 1 (``check_splitting``):
its gates are the rigidity hypotheses (self-adjointness, trace floor
tr R >= n - 1, boundary bound, no member vanishing inside the window) and
its conclusion, every member of sine type, is S(t) = cot(t) id. The one
test it adds is that R(t) is the identity.

Note |S0|^2 is the trace of the square, not the squared Frobenius norm;
for non-symmetric S these differ, and only the former keeps the scalar
identity exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import JacobiTrajectory, nearest_node, riccati_series, write_table
from .splitting import SplittingReport, check_splitting

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
TOL_F = 1e-6  # slack of the comparison conclusions s >= f and s <= f
TOL_ROUND = 1e-4  # largest R(t) - id of a rigid family, operator norm


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
    step: float


def scalar_traces(traj: JacobiTrajectory) -> ScalarTrace:
    """Compute the scalar trace functions of a trajectory.

    Raises ValueError when no node is regular (there is nothing to trace).
    """
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
    tr_r = np.sum(traj.field_spectrum_at(mask), axis=1)  # tr R, one value when constant
    r[mask] = (tr_r + s0sq[mask]) / m
    return ScalarTrace(
        times=traj.times.copy(),
        regular=mask,
        s=s,
        r=r,
        s0sq=s0sq,
        step=traj.step,
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
    """Half-open index range of the maximal run of True values around j0:
    from past the last False node before j0 to the first False node after
    it (j0 itself always inside)."""
    breaks = np.flatnonzero(~mask)
    k_lo = np.searchsorted(breaks, j0, side="left")
    k_hi = np.searchsorted(breaks, j0, side="right")
    lo = int(breaks[k_lo - 1]) + 1 if k_lo else 0
    hi = int(breaks[k_hi]) if k_hi < breaks.size else mask.size
    return lo, hi


def comparison_check(trace: ScalarTrace, t0: float) -> ComparisonReport:
    """Compare the scalar trace against the unit model anchored at t0.

    The anchor is the node nearest t0 (``jacobi.nearest_node``) and must be
    regular. The inequalities are checked on the maximal regular stretch
    containing the anchor, intersected with the open branch domain of the
    model: s >= f - TOL_F strictly left of the anchor, s <= f + TOL_F
    strictly right of it. The curvature hypothesis r >= 1 - TOL_R is
    evaluated over all regular nodes and reported; the inequality checks
    run either way so a hypothesis failure can be seen alongside its
    consequences.
    """
    j0 = nearest_node(trace.times, trace.step, t0)
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
        left_ok=bool(left_viol <= TOL_F),
        right_ok=bool(right_viol <= TOL_F),
        max_violation=max(left_viol, right_viol),
        n_left=int(left.sum()),
        n_right=int(right.sum()),
        model=model,
    )


@dataclass(frozen=True)
class RigidityReport(SplittingReport):
    """Outcome of the rigidity check: the mode-E report at k = n - 1 plus
    ``max_r_dev``, the largest ``R - id`` deviation over the regular nodes of
    the open window (None when a gate fails)."""

    max_r_dev: float | None = None


def rigidity_check(traj: JacobiTrajectory, alpha: float | None = None) -> RigidityReport:
    """Mechanical check of the rigidity statement: ``check_splitting`` in
    mode E at k = n - 1, plus R(t) = id.

    Mode E's gates at that level are the rigidity hypotheses:
    self-adjointness, the trace floor tr R >= n - 1, the boundary bound at
    ``alpha`` (default: the window start) and dim Z <= 0, i.e. no member
    vanishes inside the window. Its conclusion, that every member is of
    sine type, is S = cot(t) id read as sin(t) Y' - cos(t) Y = 0, which
    divides by nothing. A mode-E ``verified`` stands when R(t) = id within
    ``TOL_ROUND`` in operator norm, the largest ``|lambda - 1|`` over its
    eigenvalues (``traj.field_spectrum``), at every regular node strictly
    inside the window, and reads ``falsified`` otherwise.
    """
    report = check_splitting(traj, "E", k=traj.dim, alpha=traj.alpha if alpha is None else alpha)
    verdict, r_dev = report.verdict, None
    if verdict != "hypothesis-violated":
        lam = traj.field_spectrum_at(traj.regular & traj.in_open_window(traj.times))
        r_dev = float(np.max(np.abs(lam - 1.0), initial=0.0))
        if r_dev > TOL_ROUND:
            verdict = "falsified"
    return RigidityReport(**{**vars(report), "verdict": verdict}, max_r_dev=r_dev)


def rigidity_verdict(traj: JacobiTrajectory, params: dict, seed: int | None) -> tuple[str, dict]:
    """The ``rigidity`` check of a scenario: ``rigidity_check`` with the
    boundary time ``params.get("alpha")``."""
    report = rigidity_check(traj, alpha=params.get("alpha"))
    return report.verdict, dict(vars(report))


def export_scalar_csv(trace: ScalarTrace, path: str) -> None:
    """Write the scalar trace as CSV with columns t, regular, s and r."""
    columns = [trace.times, trace.regular, trace.s, trace.r]
    fmts = ["%.17g", "%d", "%.17g", "%.17g"]
    write_table(path, ["t,regular,s,r"], fmts, columns, newline="\r\n")
