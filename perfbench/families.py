"""Seeded fine-grid families and the closed-form oracle for constant fields.

Every generated family starts at ``ALPHA`` with ``Y = I`` and a symmetric
``Y'`` that commutes with the curvature operator, so each eigen-member of
the family solves a scalar equation ``y'' = -e(t) y`` on its own. The
initial slopes are chosen from prescribed first-zero times, spaced apart,
so the splitting and rigidity verdicts follow from the construction and do
not depend on the seed:

* every non-sine member vanishes exactly once strictly inside the window;
* the curvature floor stays at or above 1, so the mode-B floor gate and the
  rigidity trace gate pass;
* the largest initial slope stays below ``cot(ALPHA)``, so the boundary
  gate passes;
* interior zeros make the rigidity regularity gate fail.

The verdicts these produce were recorded once, at the commit that added
the benchmark, in ``expected_verdicts.json``.
"""

from __future__ import annotations

import math

import numpy as np

from jacobisplit.cli import CheckSpec, Scenario
from jacobisplit.curvature import constant_sectional, diagonal_constant, sampled_field

ALPHA = 0.2
END = math.pi
FINE_STEP = 1e-4
# First zeros stay in this band (offsets from ALPHA). With every curvature
# value in [1, 1.2] the next zero comes at least pi / sqrt(1.2) = 2.87 later,
# i.e. after the end of the window.
ZERO_BAND = (0.15, 2.5)
MIN_ZERO_GAP = 0.05
FAMILY_KINDS = ("constant-d16", "diagonal-d3", "sampled-d3")


def _zero_offsets(rng: np.random.Generator, count: int, lo: float, hi: float, gap: float):
    """``count`` jittered offsets in [lo, hi], adjacent ones at least ``gap`` apart."""
    width = (hi - lo) / count
    jitter = max(0.0, (width - gap) / 2.0)
    centers = lo + width * (np.arange(count) + 0.5)
    return centers + rng.uniform(-jitter, jitter, count)


def _slopes(omega: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Initial slopes ``y'(0)`` with ``y(0) = 1`` whose first zero under
    ``y'' = -omega^2 y`` falls at ``offsets``."""
    return -omega / np.tan(omega * offsets)


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def _checks(kind: str, expected: dict) -> tuple[CheckSpec, ...]:
    verdicts = expected[kind]
    return (
        CheckSpec("splitting", {"theorem": "B", "alpha": ALPHA}, verdicts["splitting-B"]),
        CheckSpec("rigidity", {"alpha": ALPHA}, verdicts["rigidity"]),
    )


def constant_d16(rng: np.random.Generator, expected: dict, tag: str) -> Scenario:
    """Constant sectional curvature c in [1.05, 1.2], d = 16, rotated slopes."""
    d = 16
    c = float(rng.uniform(1.05, 1.2))
    omega = np.full(d, math.sqrt(c))
    lams = _slopes(omega, _zero_offsets(rng, d, *ZERO_BAND, MIN_ZERO_GAP))
    q = _rotation(rng, d)
    yd0 = q @ np.diag(lams) @ q.T
    return Scenario(
        name=f"constant-d16-{tag}",
        description="constant sectional field, sixteen members vanishing inside the window",
        fld=constant_sectional(d + 1, c, label=f"constant-d16-{tag}"),
        alpha=ALPHA,
        end=END,
        y0=np.eye(d),
        yd0=(yd0 + yd0.T) / 2.0,
        checks=_checks("constant-d16", expected),
        step=FINE_STEP,
    )


def diagonal_d3(rng: np.random.Generator, expected: dict, tag: str) -> Scenario:
    """Diagonal field (1, e2, e3) with e in [1.05, 1.2], d = 3; the first
    member is the sine-type member sin(t) / sin(ALPHA)."""
    eigs = np.concatenate([[1.0], rng.uniform(1.05, 1.2, 2)])
    lams = np.concatenate(
        [[1.0 / math.tan(ALPHA)], _slopes(np.sqrt(eigs[1:]), _zero_offsets(rng, 2, *ZERO_BAND, 0.3))]
    )
    return Scenario(
        name=f"diagonal-d3-{tag}",
        description="diagonal field with one sine-type member and two vanishing members",
        fld=diagonal_constant(eigs, label=f"diagonal-d3-{tag}"),
        alpha=ALPHA,
        end=END,
        y0=np.eye(3),
        yd0=np.diag(lams),
        checks=_checks("diagonal-d3", expected),
        step=FINE_STEP,
    )


def sampled_d3(rng: np.random.Generator, expected: dict, tag: str) -> Scenario:
    """Sampled diagonal field with entries oscillating inside [1.02, 1.10],
    d = 3, on 64 nodes.

    Slopes come from first-zero offsets for unit curvature. By Sturm
    comparison each actual zero lies between the zeros for the constant
    fields sqrt(1.02) and sqrt(1.10), at most about 5 % earlier, so the
    offsets, spaced 0.35 apart, keep the zeros of different members apart.
    """
    d = 3
    grid = np.linspace(ALPHA, END, 64)
    base = rng.uniform(1.02, 1.05, d)
    amp = rng.uniform(0.02, 0.05, d)
    freq = rng.uniform(1.0, 4.0, d)
    phase = rng.uniform(0.0, 2.0 * math.pi, d)
    entries = base + amp * (1.0 + np.sin(np.outer(grid, freq) + phase)) / 2.0
    ops = np.zeros((grid.size, d, d))
    ops[:, np.arange(d), np.arange(d)] = entries
    lams = _slopes(np.ones(d), _zero_offsets(rng, d, 0.3, 2.4, 0.35))
    return Scenario(
        name=f"sampled-d3-{tag}",
        description="sampled diagonal field, three members vanishing inside the window",
        fld=sampled_field(grid, ops, label=f"sampled-d3-{tag}"),
        alpha=ALPHA,
        end=END,
        y0=np.eye(d),
        yd0=np.diag(lams),
        checks=_checks("sampled-d3", expected),
        step=FINE_STEP,
    )


GENERATORS = {
    "constant-d16": constant_d16,
    "diagonal-d3": diagonal_d3,
    "sampled-d3": sampled_d3,
}


def fine_grid_families(rng: np.random.Generator, expected: dict, tag: str) -> list[Scenario]:
    """One family of each kind, each with its own freshly drawn field."""
    return [GENERATORS[kind](rng, expected, f"{tag}-{i}") for i, kind in enumerate(FAMILY_KINDS)]


def closed_form_deviation(traj, chunk: int = 4096) -> float:
    """Worst deviation of the integrated ``Y`` from the exact solution for a
    constant curvature operator, relative to the largest exact ``|Y|``.

    With ``R = V diag(e) V^T`` the exact solution is
    ``Y(t) = V (C(t) V^T Y0 + S(t) V^T Y0')`` where, per eigenvalue ``e`` and
    ``u = t - alpha``, ``C = cos(sqrt(e) u)`` and ``S = sin(sqrt(e) u) / sqrt(e)``
    for ``e > 0``, ``cosh`` and ``sinh`` for ``e < 0``, and ``1`` and ``u``
    for ``e = 0``. Norms are Frobenius norms per node.
    """
    spec = traj.spec
    eigs, v = np.linalg.eigh(np.asarray(spec.field.matrix(spec.alpha), dtype=float))
    a0 = v.T @ spec.y0
    b0 = v.T @ spec.yd0
    worst_err = 0.0
    worst_norm = 0.0
    for lo in range(0, traj.n_nodes, chunk):
        u = traj.times[lo : lo + chunk, None] - spec.alpha
        c, s = _cos_sin(eigs[None, :], u)
        exact = np.einsum("ij,nj,jk->nik", v, c, a0) + np.einsum("ij,nj,jk->nik", v, s, b0)
        err = np.linalg.norm(traj.y[lo : lo + chunk] - exact, axis=(1, 2))
        worst_err = max(worst_err, float(np.max(err)))
        worst_norm = max(worst_norm, float(np.max(np.linalg.norm(exact, axis=(1, 2)))))
    return worst_err / worst_norm


def _cos_sin(e: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.broadcast_to(e, np.broadcast_shapes(e.shape, u.shape))
    u = np.broadcast_to(u, e.shape)
    c = np.ones(e.shape)
    s = u.copy()
    pos, neg = e > 1e-14, e < -1e-14
    w = np.sqrt(np.abs(e))
    c[pos] = np.cos(w[pos] * u[pos])
    s[pos] = np.sin(w[pos] * u[pos]) / w[pos]
    c[neg] = np.cosh(w[neg] * u[neg])
    s[neg] = np.sinh(w[neg] * u[neg]) / w[neg]
    return c, s
