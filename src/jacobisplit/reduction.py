"""Reduction of a family of Jacobi fields modulo a vertical subfamily.

Given a trajectory and a subfamily spanned by coefficient vectors Psi, the
moving subspace V(t) = span{Y(t) c : c in Psi} is split off and the family
is studied on the horizontal complement H(t) = V(t)^perp. At nodes where
V(t) has full rank (dimension = dim Psi) and Y(t) is regular, the
reduction produces:

* the orthogonal projector PH(t) onto H(t) and an orthonormal horizontal
  basis BH(t) (columns),
* the reduced Riccati operator S_hat(t) = BH^T S BH acting on H(t), the
  Riccati operator S = Yd Y^{-1} (``jacobi.riccati_series``) restricted,
* the vertical-derivative operator A(t): for v = Y(t) c in V(t) with c the
  minimum-norm Psi-coefficient, A maps v to the horizontal part of Yd(t) c;
  its columns are expressed against the orthonormal basis Q_p of V(t) from
  the QR factorization Y Psi = Q R, so A A^* is positive semidefinite by
  construction and does not depend on the basis.

The reduced operator satisfies a horizontal Riccati equation whose
curvature term is the horizontal block of R plus 3 A A^*; the residual of
that equation (`hce_residual`) is the reduction's consistency measure:
fourth-order central differences (five-point stencil) of the
ambient-coordinate reduced operator, restricted back to H, at interior runs
of regular nodes below the resolvability cap.
For the empty subfamily (BH = I, A = 0) it is the plain Riccati residual.

Differencing the ambient form BH S_hat BH^T rather than the BH-coordinate
matrix keeps the derivative basis-independent; the projector-derivative
terms it introduces are annihilated by the outer BH^T ... BH restriction,
so no finite-difference of the projectors themselves is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import (
    JacobiTrajectory,
    ResidualReport,
    default_resolvability_cap,
    difference_nodes,
    riccati,
    riccati_series,
    write_table,
)
from .splitting import TOL_EIG, self_adjoint_gate
from .symlin import orthonormal_columns, spectral_norms, spectrum

__all__ = [
    "ReducedSystem",
    "reduce",
    "hce_residual",
    "riccati_residual",
    "recovered_curvature_deviation",
    "reduced_boundary_check",
    "export_reduction_csv",
    "shared_reduction",
    "hce_verdict",
    "reduced_boundary_verdict",
]

RANK_TOL = 1e-8  # V(t) has full rank: sigma_min(Y Psi) >= RANK_TOL * its grid-wide max


@dataclass(frozen=True)
class ReducedSystem:
    """Per-node reduction data. ``ph``, ``bh`` and ``lift_err`` are NaN where
    V(t) drops rank; the reduced operators and A are NaN wherever the
    reduction is not regular."""

    traj: JacobiTrajectory
    psi: np.ndarray  # (d, p) orthonormal columns spanning the subfamily
    regular: np.ndarray  # (N+1,) bool: V(t) has full rank p and Y(t) is regular
    ph: np.ndarray  # (N+1, d, d)
    bh: np.ndarray  # (N+1, d, d-p) horizontal orthonormal basis
    shat_bh: np.ndarray  # (N+1, d-p, d-p) reduced operator in BH coordinates
    shat_amb: np.ndarray  # (N+1, d, d) ambient form BH @ shat_bh @ BH^T
    a_amb: np.ndarray  # (N+1, d, p) vertical-derivative columns (horizontal)
    aastar: np.ndarray  # (N+1, d, d) A @ A^T, PSD
    lift_err: np.ndarray  # (N+1,) worst column residual of the lift (diagnostic)

    @property
    def dim_v(self) -> int:
        return self.psi.shape[1]

    @property
    def dim_h(self) -> int:
        return self.traj.dim - self.psi.shape[1]


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def reduce(traj: JacobiTrajectory, psi_basis) -> ReducedSystem:
    """Reduce a trajectory modulo the subfamily spanned by ``psi_basis``.

    ``psi_basis`` is a (d, p) array of coefficient columns (a single vector
    or an empty basis are accepted); it must have full column rank. With an
    empty basis the reduction is the identity: H is everything and the
    reduced operator coincides with the ordinary Riccati operator wherever
    the family is regular.

    One batched Householder QR of ``Y Psi`` gives both subspaces: the first
    p columns of Q span V(t), and the others are BH. V(t) has full rank
    when the smallest singular value of R's p x p block ``R_p`` is at least
    ``RANK_TOL`` times the largest over the grid; for p = 1 that value is
    ``|r|``, read without a LAPACK call. A's columns are ``PH Yd Gamma``
    with ``Gamma = Psi R_p^-1``, so ``Y Gamma`` is Q's orthonormal basis
    of V(t). With an empty basis Q is the identity, bit for bit.

    A node is regular when V(t) has full rank and Y(t) is regular
    (``JacobiTrajectory.regular``), the rule the Riccati operator follows.
    ``lift_err``, the residual of the lift of BH through Y, is a diagnostic
    only: 0 where Y is regular and the lift exact, else least squares.
    """
    d = traj.dim
    psi_in = np.asarray(psi_basis, dtype=float)
    if psi_in.ndim == 1:
        psi_in = psi_in[:, None]
    if psi_in.ndim != 2 or psi_in.shape[0] != d:
        raise ValueError(f"psi basis must be ({d}, p), got {psi_in.shape}")
    p_in = psi_in.shape[1]
    psi = orthonormal_columns(psi_in) if p_in else np.zeros((d, 0))
    p = psi.shape[1]
    if p != p_in:
        raise ValueError("psi basis is rank-deficient")

    # complete QR of Y Psi: Q's first p columns span V(t), the others H(t);
    # R_p, its p x p block, has the singular values of Y Psi
    q, r = np.linalg.qr(traj.y @ psi, mode="complete")
    r_p = r[:, :p]
    sig = np.abs(r_p[:, 0]) if p == 1 else np.linalg.svd(r_p, compute_uv=False)
    full = sig.min(axis=1, initial=np.inf) >= RANK_TOL * max(sig.max(initial=0.0), 1e-300)
    reg = full & traj.regular

    def blank(*shape):
        return np.full((traj.n_nodes, *shape), np.nan)

    ph, bh, lift_err = blank(d, d), blank(d, d - p), blank()
    shat_bh, shat_amb = blank(d - p, d - p), blank(d, d)
    a_amb, aastar = blank(d, p), blank(d, d)

    qv = q[full, :, :p]
    ph[full] = np.eye(d) - qv @ _t(qv)
    bh[full] = q[full, :, p:]
    lift_err[reg] = 0.0  # the lift Y C = BH is exact where Y is regular
    sing = full & ~reg
    c = np.linalg.pinv(traj.y[sing]) @ bh[sing]
    lift_err[sing] = np.linalg.norm(traj.y[sing] @ c - bh[sing], axis=1).max(axis=1, initial=0.0)

    b, yd = bh[reg], traj.yd[reg]
    shat_bh[reg] = _t(b) @ riccati_series(traj)[1][reg] @ b
    shat_amb[reg] = b @ shat_bh[reg] @ _t(b)
    # A on the orthonormal basis Y Gamma = Q_p of V: Gamma = Psi R_p^-1
    r_inv = 1.0 / r_p[reg] if p == 1 else np.linalg.inv(r_p[reg])
    a_amb[reg] = ph[reg] @ yd @ (psi @ r_inv)
    aastar[reg] = a_amb[reg] @ _t(a_amb[reg])
    return ReducedSystem(traj, psi, reg, ph, bh, shat_bh, shat_amb, a_amb, aastar, lift_err)


def hce_residual(
    rs: ReducedSystem, s_cap: float | None = None, tol: float = 1e-3
) -> ResidualReport:
    """Residual of the horizontal Riccati equation with the 3 A A^* term.

    At the ``difference_nodes`` of the reduced operator (``shat_bh``, whose
    spectral norm is the ambient form's) under the resolvability cap
    (``s_cap``, ``default_resolvability_cap`` if None), the ambient form's
    fourth-order central difference ``(-S_{i+2} + 8 S_{i+1} - 8 S_{i-1}
    + S_{i-2}) / (12 h)`` is combined with its square, the horizontal
    curvature block and three times A A^*, and the result is restricted to
    H; the report collects the spectral norms, none if no node qualifies.
    """
    traj = rs.traj
    cap = default_resolvability_cap(traj.step, tol) if s_cap is None else float(s_cap)
    idx = difference_nodes(rs.regular, rs.shat_bh, cap)
    s = rs.shat_amb
    ds = (8.0 * (s[idx + 1] - s[idx - 1]) - (s[idx + 2] - s[idx - 2])) / (12.0 * traj.step)
    shat, bh = rs.shat_amb[idx], rs.bh[idx]
    # BH spans the range of PH, so BH^T (PH R PH) BH = BH^T R BH
    total = ds + shat @ shat + traj.spec.field.matrices(traj.times[idx]) + 3.0 * rs.aastar[idx]
    values = spectral_norms(_t(bh) @ total @ bh)
    return ResidualReport(traj.times[idx], values, cap)


def riccati_residual(
    traj: JacobiTrajectory, s_cap: float | None = None, tol: float = 1e-4
) -> ResidualReport:
    """Central-difference residual of S' + S^2 + R = 0: ``hce_residual`` of
    the reduction by the empty subfamily, whose BH is I and whose A is 0."""
    return hce_residual(reduce(traj, np.zeros((traj.dim, 0))), s_cap, tol)


def recovered_curvature_deviation(rs: ReducedSystem, level: float) -> float:
    """Worst deviation of the recovered horizontal curvature operator
    (horizontal block of R plus 3 A A^*) from ``level`` times the identity
    on H, over regular nodes in spectral norm."""
    traj = rs.traj
    idx = np.nonzero(rs.regular)[0]
    bh = rs.bh[idx]
    r_amb = traj.spec.field.matrices(traj.times[idx]) + 3.0 * rs.aastar[idx]
    r_hat = _t(bh) @ r_amb @ bh
    dev = spectral_norms(r_hat - level * np.eye(rs.dim_h))
    return float(np.max(dev, initial=0.0))


def reduced_boundary_check(rs: ReducedSystem, alpha: float) -> dict:
    """Eigenvalue-domination check at a boundary time: the largest
    eigenvalue of the reduced operator must not exceed the largest
    eigenvalue of the full operator (both symmetrized) by more than
    ``splitting.TOL_EIG``. The node must be regular for the reduction, and
    the full operator must exist there."""
    traj = rs.traj
    j = traj.node_index(alpha)
    if not rs.regular[j]:
        raise ValueError(f"alpha={alpha} is not a regular node of the reduction")
    s_max = float(spectrum(riccati(traj, traj.times[j]))[0][-1])
    shat_max = float(spectrum(rs.shat_bh[j])[0][-1]) if rs.dim_h else -math.inf
    return {
        "alpha": float(traj.times[j]),
        "shat_max": shat_max,
        "s_max": s_max,
        "margin": s_max + TOL_EIG - shat_max,
        "passed": bool(shat_max <= s_max + TOL_EIG),
    }


def _psi_from_params(params: dict, dim: int) -> np.ndarray:
    """The subfamily basis a check names in ``params["psi"]``: a list of
    coefficient rows, as (dim, p) columns; none gives the empty basis."""
    rows = np.array(params.get("psi", []), dtype=float, ndmin=2)
    return rows.T if rows.size else np.zeros((dim, 0))


def shared_reduction(traj: JacobiTrajectory, params: dict) -> ReducedSystem:
    """The reduction of ``traj`` by the subfamily ``params["psi"]``, computed
    once per trajectory and subfamily: the checks of a run and its trace
    export all read the same one."""
    psi = _psi_from_params(params, traj.dim)
    key = ("reduce", psi.shape, psi.tobytes())
    if key not in traj.derived:
        traj.derived[key] = reduce(traj, psi)
    return traj.derived[key]


def hce_verdict(traj: JacobiTrajectory, params: dict, seed: int | None) -> tuple[str, dict]:
    """The ``hce`` check: under self-adjointness, the horizontal Riccati
    equation with the 3 A A^* term holds within ``params["tol"]`` (default
    1e-3) and, when ``params["level"]`` is given, the recovered horizontal
    curvature equals that level times the identity within the same tol.
    With no node to difference under the resolvability cap the equation is
    not evaluable, and the verdict is ``hypothesis-violated``."""
    gate = self_adjoint_gate(traj)
    details = {"self_adjoint": gate}
    if not gate["passed"]:
        return "hypothesis-violated", details
    rs = shared_reduction(traj, params)
    tol = params.get("tol", 1e-3)
    rep = hce_residual(rs, tol=tol)
    details.update(
        residual=rep.max_residual,
        cap=rep.cap,
        n_checked=rep.n_checked,
        dim_v=rs.dim_v,
        dim_h=rs.dim_h,
    )
    ok = rep.max_residual <= tol
    if "level" in params:
        dev = recovered_curvature_deviation(rs, params["level"])
        details["curvature_deviation"] = dev
        ok = ok and dev <= tol
    if not rep.n_checked:
        details["note"] = "not evaluable: no node within the resolvability cap"
        return "hypothesis-violated", details
    return ("verified" if ok else "falsified"), details


def reduced_boundary_verdict(
    traj: JacobiTrajectory, params: dict, seed: int | None
) -> tuple[str, dict]:
    """The ``reduced-boundary`` check: under self-adjointness, the reduced
    operator's top eigenvalue at ``params["alpha"]`` is dominated by the
    full operator's (``reduced_boundary_check``)."""
    gate = self_adjoint_gate(traj)
    details = {"self_adjoint": gate}
    if not gate["passed"]:
        return "hypothesis-violated", details
    rs = shared_reduction(traj, params)
    rep = reduced_boundary_check(rs, params["alpha"])
    details.update(rep)
    return ("verified" if rep["passed"] else "falsified"), details


def export_reduction_csv(rs: ReducedSystem, path: str) -> None:
    """Write per-node reduction diagnostics as CSV: time, regular flag,
    lift residual, |A| and the extreme eigenvalues of the reduced
    operator."""
    traj = rs.traj
    reg = rs.regular
    shat_min = np.full(traj.n_nodes, np.nan)
    shat_max = np.full(traj.n_nodes, np.nan)
    norm_a = np.where(reg, 0.0, np.nan)
    if np.any(reg) and rs.dim_h:
        s_bh = rs.shat_bh[reg]
        sym = (s_bh + _t(s_bh)) / 2.0
        # a 1 x 1 operator's extremes are its entry
        eigs = sym[:, 0] if rs.dim_h == 1 else np.linalg.eigvalsh(sym)
        shat_min[reg], shat_max[reg] = eigs[:, 0], eigs[:, -1]
    if np.any(reg) and rs.dim_v:
        norm_a[reg] = spectral_norms(rs.a_amb[reg])
    head = "t,regular,lift_err,norm_a,shat_min,shat_max"
    columns = [traj.times, reg, rs.lift_err, norm_a, shat_min, shat_max]
    write_table(path, [head], ["%.17g", "%d"] + ["%.17g"] * 4, columns, newline="\r\n")
