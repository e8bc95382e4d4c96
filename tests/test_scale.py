"""Scaling the initial data by a power of two moves no verdict.

The family is linear in its initial data, and every gate and conclusion is
relative to its size. Multiplying ``y0`` and ``yd0`` by ``2^k`` multiplies
every node value, sum of squares and singular value by an exact power of two,
so the scaled family must give the same verdicts, dimensions and zero times
as the family itself, and no floating-point warning on the way.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobisplit as js

KINDS = ("constant", "diagonal", "sampled", "coupled")
# curvature values, with repeats (runs of equal rows) and the unit sphere's 1
CURVATURES = np.array([-0.5, 0.0, 0.25, 1.0, 1.0, 2.0])


def _field(kind: str, d: int, rng: np.random.Generator, lo: float, hi: float):
    if kind == "constant":
        return js.constant_sectional(d + 1, float(rng.choice(CURVATURES)))
    if kind == "diagonal":
        return js.diagonal_constant(rng.choice(CURVATURES, d))
    grid = np.linspace(lo, hi, 4)
    ops = rng.choice(CURVATURES, (4, d))[:, :, None] * np.eye(d)
    if kind == "coupled":
        noise = rng.normal(0.0, 0.3, (4, d, d))
        ops = ops + noise + noise.transpose(0, 2, 1)
    return js.sampled_field(grid, ops)


def _scenario(kind: str, d: int, seed: int, k: int) -> js.Scenario:
    """A self-adjoint family of dimension ``d`` on a field of ``kind``, with
    its initial data times ``2^k``: ``Y0 = A`` and ``Yd0 = S A`` for a
    symmetric ``S``, or ``Y0 = diag(z)`` with some zero entries and ``Yd0 =
    I``, whose members with ``z = 0`` vanish at the window start."""
    rng = np.random.default_rng(seed)
    alpha = float(rng.choice([0.0, rng.uniform(0.1, 1.0)]))
    end = alpha + float(rng.uniform(1.0, 3.5))
    if rng.random() < 0.5:
        y0 = rng.normal(size=(d, d))
        s = rng.normal(size=(d, d))
        yd0 = (s + s.T) @ y0
    else:
        y0 = np.diag(rng.normal(size=d) * (rng.random(d) < 0.5))
        yd0 = np.eye(d)
    checks = [
        js.CheckSpec("splitting", {"theorem": "A"}, "verified"),
        js.CheckSpec("splitting", {"theorem": "B", "alpha": alpha}, "verified"),
        js.CheckSpec("splitting", {"theorem": "C", "k": 1}, "verified"),
        js.CheckSpec("splitting", {"theorem": "E", "k": 1, "alpha": alpha}, "verified"),
        js.CheckSpec("rigidity", {"alpha": alpha}, "verified"),
        js.CheckSpec("vanishing-floor", {"k": 1}, "verified"),
    ]
    return js.Scenario(
        name=f"{kind}-{d}-{seed}",
        description="random self-adjoint family",
        fld=_field(kind, d, rng, alpha, end),
        alpha=alpha,
        end=end,
        y0=np.ldexp(y0, k),
        yd0=np.ldexp(yd0, k),
        checks=tuple(checks),
        step=(end - alpha) / 150,
    )


def _outcome(scenario: js.Scenario) -> list:
    """Each check's verdict, dimensions and zero times."""
    keys = ("dim_z", "dim_p", "zero_times", "dim_z_closed")
    return [
        (c.verdict, [c.details.get(key) for key in keys]) for c in js.run_scenario(scenario).checks
    ]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-330, 460),
)
def test_power_of_two_scaling_moves_nothing(kind, d, seed, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = _outcome(_scenario(kind, d, seed, 0))
        scaled = _outcome(_scenario(kind, d, seed, k))
    assert scaled == base
