"""Acceptance gate: every advertised guarantee of the package, one test per
criterion, each emitting a single pass/fail line at its stated tolerance.

Lines are written past the capture plugin so the gate summary is always
visible in plain test runs.
"""

import math
import time

import numpy as np
import pytest

import jacobisplit as js


@pytest.fixture
def emit(capfd):
    def _emit(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {num:02d}] {status}: {detail}", flush=True)

    return _emit


def test_criterion_01_round_family_riccati(trajs, emit):
    t_start = time.perf_counter()
    spec = js.get_scenario("sphere-zero").family()
    traj = js.integrate(spec, step=1e-3)
    mask, s_ops = js.riccati_series(traj)
    sel = mask & (traj.times >= 0.05) & (traj.times <= math.pi - 0.05)
    idx = np.nonzero(sel)[0]
    cot = np.cos(traj.times[idx]) / np.sin(traj.times[idx])
    dev = np.abs(s_ops[idx] - cot[:, None, None] * np.eye(2)).max()
    elapsed = time.perf_counter() - t_start
    ok = dev <= 1e-5 and elapsed < 1.0
    emit(1, ok, f"round-family S deviation {dev:.3e} (tol 1e-5) in {elapsed:.3f}s (< 1s)")
    assert ok


def test_criterion_02_wronskian_drift(trajs, builtin_runs, emit):
    worst_ratio = 0.0
    worst_name = ""
    for sc in js.list_scenarios():
        traj = trajs(sc.name)
        w_all = np.einsum("nji,njk->nik", traj.y, traj.yd) - np.einsum(
            "nji,njk->nik", traj.yd, traj.y
        )
        drift = np.abs(w_all - w_all[0]).max()
        bound = 1e-9 * (1.0 + np.abs(w_all[0]).max())
        ratio = drift / bound
        if ratio > worst_ratio:
            worst_ratio, worst_name = ratio, sc.name
    ok = worst_ratio <= 1.0
    emit(2, ok, f"wronskian drift worst {worst_ratio:.2e} of bound ({worst_name}), all 17 scenarios")
    assert ok


def test_criterion_03_riccati_residual_capped(trajs, emit):
    worst = 0.0
    worst_name = ""
    for sc in js.list_scenarios():
        rep = js.riccati_residual(trajs(sc.name), tol=1e-4)
        assert rep.n_checked > 0, sc.name
        if rep.max_residual > worst:
            worst, worst_name = rep.max_residual, sc.name
    uncapped = js.riccati_residual(trajs("sphere-zero"), s_cap=math.inf, tol=1e-4)
    ok = worst <= 1e-4
    emit(
        3,
        ok,
        f"capped residual worst {worst:.3e} (tol 1e-4, {worst_name}); "
        f"uncapped round-family residual {uncapped.max_residual:.2e} shows why the cap exists",
    )
    assert ok


def test_criterion_04_rotational_counterexample(trajs, builtin_runs, emit):
    traj = trajs("example-nonselfadjoint")
    worst1 = worst2 = 0.0
    for t in np.linspace(0.1, math.pi - 0.1, 10):
        j = traj.node_index(t)
        s = np.asarray(js.riccati(traj, traj.times[j]))
        j1, j2 = traj.y[j][:, 0], traj.y[j][:, 1]
        worst1 = max(worst1, abs(float(j2 @ (s @ j1)) - 1.0))
        worst2 = max(worst2, abs(float(j1 @ (s @ j2)) + 1.0))
    report = builtin_runs["example-nonselfadjoint"]
    verdicts_ok = all(c.verdict == "hypothesis-violated" for c in report.checks)
    ok = worst1 <= 1e-9 and worst2 <= 1e-9 and verdicts_ok
    emit(
        4,
        ok,
        f"rotational family products off by {max(worst1, worst2):.2e} (tol 1e-9) "
        f"at 10 times, checks hypothesis-violated={verdicts_ok}",
    )
    assert ok


def test_criterion_05_shifted_sine_counterexample(trajs, emit):
    traj = trajs("example-shifted-sine")
    s_a = np.asarray(js.riccati(traj, traj.alpha))
    eigs, _ = js.spectrum((s_a + s_a.T) / 2.0)
    dev = abs(float(eigs[-1]) - math.tan(math.pi / 12.0))
    gate = js.boundary_eigenvalue_gate(traj, traj.alpha)
    sine_dim = js.sine_span(traj).basis.shape[1]
    van_dim = js.vanishing_span(traj, open_ends=True).shape[1]
    ok = dev <= 1e-8 and not gate["passed"] and sine_dim == 0 and van_dim == 0
    emit(
        5,
        ok,
        f"shifted family max eig off tan(pi/12) by {dev:.2e} (tol 1e-8), boundary gate "
        f"passed={gate['passed']}, sine span dim {sine_dim}, vanishing span dim {van_dim}",
    )
    assert ok


def test_criterion_06_quadruple_eigenvalue_splitting(trajs, emit):
    rep = js.check_splitting(trajs("cp2-zero"), "B", alpha=0.0)
    zero_dev = abs(rep.zero_times[0][1] - math.pi / 2.0) if rep.zero_times else math.inf
    rep_e = js.check_splitting(trajs("cp2-zero"), "E", alpha=0.0, k=2)
    floor = rep_e.hypothesis_flags["ric_k_floor"]
    ok = (
        (rep.dim_z, rep.dim_p) == (1, 2)
        and zero_dev <= 1e-4
        and rep.residual_orth <= 1e-6
        and floor["passed"]
        and abs(floor["value"] - 2.0) <= 1e-9
        and rep_e.verdict == "verified"
    )
    emit(
        6,
        ok,
        f"uneven-spectrum model dims ({rep.dim_z},{rep.dim_p}) expect (1,2), interior zero off "
        f"pi/2 by {zero_dev:.2e} (tol 1e-4), orthogonality {rep.residual_orth:.2e} (tol 1e-6), "
        f"level-2 floor {floor['value']:.6f}",
    )
    assert ok


def test_criterion_07_sampled_floor_agreement(emit):
    rng = np.random.default_rng(77)
    worst = 0.0
    neg = 0.0
    for trial in range(20):
        d = 2 + trial % 5
        a = rng.standard_normal((d, d)) * 0.005
        op = (a + a.T) / 2.0
        w, _ = js.spectrum(op)
        fld = js.diagonal_constant(w)
        for k in range(1, d + 1):
            exact = float(np.sum(np.linalg.eigvalsh(op)[:k]))
            samp = js.ric_k_floor_sampled(fld, 0.0, k, samples=10000, seed=trial * 10 + k)
            gap = samp - exact
            worst = max(worst, gap)
            neg = min(neg, gap)
    ok = neg >= -1e-12 and worst <= 1e-2
    emit(
        7,
        ok,
        f"sampled curvature floor gap in [{neg:.1e}, {worst:.3e}] over 20 operators x all "
        f"levels, 10^4 frames each (need within [-1e-12, 1e-2])",
    )
    assert ok


def test_criterion_08_scalar_comparison_anchors(trajs, emit):
    worst = -math.inf
    count = 0
    for name in ("sphere-zero", "cp2-zero"):
        trace = js.scalar_traces(trajs(name))
        reg = np.nonzero(trace.regular)[0]
        for q in np.linspace(0.1, 0.9, 20):
            j = reg[int(q * (reg.size - 1))]
            rep = js.comparison_check(trace, float(trace.times[j]))
            assert rep.hypothesis_ok and rep.left_ok and rep.right_ok, (name, rep.t0)
            worst = max(worst, rep.max_violation)
            count += 1
    ok = worst <= 1e-6
    emit(8, ok, f"comparison holds at {count} anchors, worst violation {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_09_horizontal_equation(trajs, emit):
    rs_sphere = js.reduce(trajs("sphere-zero"), np.array([1.0, 0.0]))
    rep_sphere = js.hce_residual(rs_sphere, tol=1e-4)
    rs_twist = js.reduce(trajs("hopf-holonomy"), np.array([1.0, 0.0]))
    rep_twist = js.hce_residual(rs_twist, tol=1e-3)
    dev = js.recovered_curvature_deviation(rs_twist, 4.0)
    ok = rep_sphere.max_residual <= 1e-4 and rep_twist.max_residual <= 1e-3 and dev <= 1e-3
    emit(
        9,
        ok,
        f"horizontal equation residual {rep_sphere.max_residual:.2e} (round, tol 1e-4) and "
        f"{rep_twist.max_residual:.2e} (twisted, tol 1e-3); recovered curvature off 4*id by "
        f"{dev:.2e} (tol 1e-3)",
    )
    assert ok


def test_criterion_10_model_asymptotes_vs_scan(emit):
    rng = np.random.default_rng(4242)
    bad = 0
    worst = 0.0
    for _ in range(100):
        t0 = float(rng.uniform(0.05, math.pi - 0.05))
        s0 = float(np.clip(rng.standard_cauchy() * 2.0, -50.0, 50.0))
        model = js.model_solution(t0, s0)

        # oracle: the anchored scalar solution vanishes where the model has
        # its pole; scan and bisect the closed form directly
        def y_of(t):
            return math.cos(t - t0) + s0 * math.sin(t - t0)

        ts = np.linspace(1e-9, math.pi - 1e-9, 20001)
        g = np.cos(ts - t0) + s0 * np.sin(ts - t0)
        flips = np.nonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))[0]
        poles = []
        for i in flips:
            lo, hi = float(ts[i]), float(ts[i + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.signbit(y_of(lo)) != np.signbit(y_of(mid)):
                    hi = mid
                else:
                    lo = mid
            poles.append(0.5 * (lo + hi))
        pole = poles[0] if poles else None
        if (pole is None) != (model.asymptote is None):
            bad += 1
        elif pole is not None:
            worst = max(worst, abs(pole - model.asymptote))
            side = "left" if pole < t0 else "right"
            if side != model.side:
                bad += 1
    ok = bad == 0 and worst <= 1e-6
    emit(
        10,
        ok,
        f"anchored model vs scan oracle: {bad}/100 mismatches, worst pole diff {worst:.2e} "
        f"(tol 1e-6)",
    )
    assert ok


def test_criterion_11_all_scenarios_match(builtin_runs, emit):
    mismatched = [
        name for name, rep in builtin_runs.items() if not rep.all_matched
    ]
    falsified = [
        (name, c.kind)
        for name, rep in builtin_runs.items()
        for c in rep.checks
        if c.verdict == "falsified"
    ]
    ok = not mismatched and not falsified and len(builtin_runs) == 17
    emit(
        11,
        ok,
        f"{len(builtin_runs)} scenarios, mismatches {mismatched or 'none'}, "
        f"falsified verdicts {falsified or 'none'}",
    )
    assert ok


def test_criterion_12_integrator_order(emit):
    spec = js.get_scenario("sphere-zero").family()
    errs = {}
    for h in (0.02, 0.01):
        traj = js.integrate(spec, step=h)
        exact = np.sin(traj.times)[:, None, None] * np.eye(2)
        errs[h] = float(np.max(np.abs(traj.y - exact)))
    ratio = errs[0.02] / errs[0.01]
    ok = ratio >= 12.0
    emit(
        12,
        ok,
        f"step halving error ratio {ratio:.1f} (err {errs[0.02]:.2e} -> {errs[0.01]:.2e}, "
        f"need >= 12)",
    )
    assert ok
