"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s or -v to see them).

The whole module runs in a couple of minutes on a laptop; the heavy
criteria (refinement ladder, collision, dam break) dominate.
"""

import numpy as np
import pytest
from dataclasses import replace

from ebwave.analytic import SolitaryWaveSpec, corrected_solution
from ebwave.core import Grid, ModelVariant, PhysParams, State
from ebwave.dispersion import (DispersionKind, DispersionModel, omega_squared,
                               optimize_alpha, stability_bound, taylor_coefficients)
from ebwave.dispersive import build_operators, velocity_rate, zeta_source_term
from ebwave.scenarios import (builtin_scenario, local_maxima, run_convergence,
                              run_scenario, track_crest)
from ebwave.splitting import ConversionOperator, RunState, StrangSolver, choose_dt
from drivers import stencil
from oracles import (cell_averages_of_sin, dense_conversion_matrix,
                     dense_dispersive_rhs)

UNIT = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=1.0)


def report(number: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_01_alpha_optimization():
    m_unf = DispersionModel(DispersionKind.EB_UNFACTORIZED, UNIT)
    m_fac = DispersionModel(DispersionKind.EB_FACTORIZED, UNIT)
    a1, _ = optimize_alpha(m_unf, 1.0)
    a2, _ = optimize_alpha(m_fac, 10.0)
    ok = abs(a1 - 0.8351) <= 0.005 and abs(a2 - 1.0555) <= 0.02
    report(1, "alpha optimization", ok,
           f"alpha*(K=1) = {a1:.4f} (want 0.8351 +- 0.005), "
           f"alpha*(K=10) = {a2:.4f} (want 1.0555 +- 0.02)")


def test_criterion_02_taylor_equivalence():
    c6_at_one = taylor_coefficients(
        DispersionModel(DispersionKind.EB_UNFACTORIZED, UNIT))[2]
    gap_at_one = abs(c6_at_one - 2.0 / 15.0)
    gaps_off_one = []
    for alpha in (0.8351, 1.0555, 0.5):
        params = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=alpha)
        c6 = taylor_coefficients(
            DispersionModel(DispersionKind.EB_UNFACTORIZED, params))[2]
        gaps_off_one.append(abs(c6 - 2.0 / 15.0))
    ok = gap_at_one <= 1e-10 and min(gaps_off_one) > 1e-10
    report(2, "sixth-order Taylor equivalence", ok,
           f"|c6 - 2/15| = {gap_at_one:.2e} at alpha=1; "
           f"min gap {min(gaps_off_one):.2e} off alpha=1")


def _sign_flip_location(kind, alpha, k, lo, hi, iters=60):
    def unstable(zb):
        params = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=alpha)
        m = DispersionModel(kind, params, background=(zb, 0.0))
        return omega_squared(m, k) < 0.0

    assert not unstable(lo) and unstable(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_03_stability_thresholds():
    cases = [
        (DispersionKind.LIN_UNFACTORIZED, ModelVariant.UNFACTORIZED, 1.0),
        (DispersionKind.LIN_FIFTH_ONLY, ModelVariant.FIFTH_ONLY_FACTORIZED, 1.0),
        (DispersionKind.LIN_FACTORIZED, ModelVariant.FACTORIZED_ALL, 1.0),
        (DispersionKind.LIN_FACTORIZED, ModelVariant.FACTORIZED_ALL, 1.0555),
    ]
    worst = 0.0
    for kind, variant, alpha in cases:
        for k in (0.5, 1.0, 2.0, 5.0, 10.0):
            bound = float(stability_bound(variant, k, alpha))
            flip = _sign_flip_location(kind, alpha, k, lo=max(-0.9, bound - 5.0),
                                       hi=bound + 5.0)
            worst = max(worst, abs(flip - bound))
    ok = worst <= 1e-8
    report(3, "linear stability thresholds", ok,
           f"max |sign-flip - closed form| = {worst:.2e} (want <= 1e-8)")


def test_criterion_04_convergence_study():
    base = replace(builtin_scenario("solitary"), name="acceptance_convergence")
    rep = run_convergence(base, [400, 800, 1600, 3200, 6400], 1.0)
    err_1600 = rep.err_zeta[rep.n_cells.index(1600)]
    ratio = err_1600 / 2.05e-4
    ok = (rep.monotone and 2.0 <= rep.slope_zeta <= 2.7
          and 1.0 / 5.0 <= ratio <= 5.0)
    rows = ", ".join(f"{n}:{e:.2e}" for n, e in zip(rep.n_cells, rep.err_zeta))
    report(4, "solitary-wave refinement", ok,
           f"E_L2(zeta) {rows}; slope {rep.slope_zeta:.2f} (want [2.0, 2.7]); "
           f"N=1600 at {ratio:.2f}x the reference 2.05e-4 (want within 5x)")


def test_criterion_05_conservation_and_steady_states():
    # (a) mass over 1000 steps of the low-wavenumber heap
    config = builtin_scenario("heap_lf")
    grid = config.grid()
    solver = StrangSolver(grid, config.params(), config.model_variant())
    from ebwave.scenarios import initial_state
    run = RunState.initial(initial_state(config), grid.dx)
    mass0 = run.mass
    for _ in range(1000):
        run = solver.strang_step(run, choose_dt(run.cells, config.params(), grid.dx))
    drift = abs(run.mass - mass0) / abs(mass0)

    # (b) constant surface at rest over 100 steps
    grid2 = Grid(0.0, 10.0, 128)
    solver2 = StrangSolver(grid2, PhysParams(0.1))
    run2 = RunState.initial(State(np.full(128, 0.25), np.zeros(128)), grid2.dx)
    for _ in range(100):
        run2 = solver2.strang_step(run2, 0.02)
    steady_err = max(float(np.max(np.abs(run2.cells.zeta - 0.25))),
                     float(np.max(np.abs(run2.cells.v))))

    ok = drift <= 1e-11 and steady_err <= 1e-13
    report(5, "conservation and steady states", ok,
           f"relative mass drift {drift:.2e} over 1000 steps (want <= 1e-11); "
           f"steady-state deviation {steady_err:.2e} over 100 steps (want <= 1e-13)")


def test_criterion_06_dense_oracle_equivalence():
    n = 32
    grid = Grid(0.0, 3.0, n)
    rng = np.random.default_rng(2024)
    conv = ConversionOperator(n)
    conv_mat = dense_conversion_matrix(n)

    worst_rhs = 0.0
    worst_conv = 0.0
    for trial in range(100):
        zeta = 0.3 * rng.standard_normal(n)
        v = 0.3 * rng.standard_normal(n)
        for variant in ModelVariant:
            alpha = 1.0 if variant is ModelVariant.FIFTH_ONLY_FACTORIZED else 1.0555
            params = PhysParams(epsilon=0.2, alpha=alpha, gravity=1.3, depth=1.0)
            ops = build_operators(grid, params, variant)
            rate = velocity_rate(ops, v, zeta_source_term(ops, zeta))
            want = dense_dispersive_rhs(variant, zeta, v, grid, params)
            worst_rhs = max(worst_rhs, float(np.max(np.abs(rate - want))))
        worst_conv = max(
            worst_conv,
            float(np.max(np.abs(conv.forward(zeta) - conv_mat @ zeta))),
            float(np.max(np.abs(conv.inverse(v) - np.linalg.solve(conv_mat, v)))))
    ok = worst_rhs <= 1e-12 and worst_conv <= 1e-12
    report(6, "dense-oracle equivalence", ok,
           f"dispersive rates within {worst_rhs:.2e}, conversions within "
           f"{worst_conv:.2e} of dense oracles (want <= 1e-12, 100 states)")


def test_criterion_07_high_frequency_stability_demo():
    blow = run_scenario(replace(builtin_scenario("stability_fifth_only_factorized"),
                                blowup_threshold=10.0))
    stable_ok = True
    stable_max = 0.0
    for name in ("stability_factorized_all", "stability_unfactorized"):
        result = run_scenario(replace(builtin_scenario(name), blowup_threshold=1.5))
        amp = max(max(float(np.max(np.abs(s.zeta))), float(np.max(np.abs(s.v))))
                  for s in result.snapshots)
        stable_max = max(stable_max, amp)
        stable_ok = stable_ok and result.failure is None
    ok = blow.blew_up and blow.blowup_time < 3.0 and stable_ok
    report(7, "high frequency stability demonstration", ok,
           f"fifth-only blow-up at t = "
           f"{blow.blowup_time if blow.blew_up else float('nan'):.3f} "
           f"(want < 3); other variants bounded by {stable_max:.3f} "
           f"(want <= 1.5 throughout)")


def test_criterion_08_head_on_collision():
    result = run_scenario(builtin_scenario("head_on"))
    first, last = result.snapshots[0], result.snapshots[-1]
    assert last.t == pytest.approx(70.0)

    _, big0 = track_crest(first.x, first.zeta, lo=-100.0, hi=0.0)
    _, small0 = track_crest(first.x, first.zeta, lo=0.0, hi=100.0)
    # at t = 70: the big wave has crossed to x ~ 21, the small one to x ~ -21
    x_big, big70 = track_crest(last.x, last.zeta, lo=0.0, hi=50.0)
    x_small, small70 = track_crest(last.x, last.zeta, lo=-50.0, hi=0.0)
    drift_big = abs(big70 - big0) / big0
    drift_small = abs(small70 - small0) / small0

    away = (np.abs(last.x - x_big) > 15.0) & (np.abs(last.x - x_small) > 15.0)
    tail_ratio = float(np.max(np.abs(last.zeta[away]))) / big70

    ok = (drift_big <= 0.05 and drift_small <= 0.05
          and 1e-4 <= tail_ratio <= 1e-1)
    report(8, "head-on collision", ok,
           f"crest drifts {100*drift_big:.2f}% / {100*drift_small:.2f}% "
           f"(want <= 5%); dispersive tail at {tail_ratio:.2e} of the "
           f"leading crest (want within [1e-4, 1e-1])")


def test_criterion_09_dam_break_structure():
    config = replace(builtin_scenario("dam_break"), t_end=20.0,
                     output_times=(0.0, 20.0))
    result = run_scenario(config)
    snap = result.snapshots[-1]
    z, v, x = snap.zeta, snap.v, snap.x

    parity_z = float(np.max(np.abs(z - z[::-1]))) / float(np.max(np.abs(z)))
    parity_v = float(np.max(np.abs(v + v[::-1]))) / float(np.max(np.abs(v)))

    right = x > 0.0
    crests_right = len(local_maxima(z[right], threshold=0.02, prominence=1e-4))
    crests_left = len(local_maxima(z[~right], threshold=0.02, prominence=1e-4))

    ok = (parity_z <= 1e-6 and parity_v <= 1e-6
          and crests_right >= 5 and crests_left >= 5)
    report(9, "dam-break symmetry and shock trains", ok,
           f"parity {parity_z:.2e} (zeta), {parity_v:.2e} (v), want <= 1e-6; "
           f"{crests_left}/{crests_right} oscillation crests on the "
           f"left/right fronts (want >= 5 each)")


def test_criterion_10_discretization_orders():
    # (a) stencils D1..D5 on smooth periodic data
    length = 2 * np.pi
    stencil_orders = []
    for order in range(1, 6):
        errs = []
        for n in (24, 48, 96):
            x = (np.arange(n) + 0.5) * length / n
            got = stencil(order, np.sin(x), length / n)
            errs.append(np.max(np.abs(got - np.sin(x + order * np.pi / 2))))
        stencil_orders.append(min(np.log2(errs[i] / errs[i + 1]) for i in range(2)))

    # (b) cell-average -> point-value conversion
    errs = []
    for n in (32, 64, 128):
        pts = ConversionOperator(n).forward(cell_averages_of_sin(n, length))
        centers = (np.arange(n) + 0.5) * length / n
        errs.append(np.max(np.abs(pts - np.sin(centers))))
    conv_order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))

    # (c) temporal order of the split stepping on the solitary wave
    grid = Grid(0.0, 100.0, 400)
    params = PhysParams(0.01)
    spec = SolitaryWaveSpec(amplitude=0.2, epsilon=0.01, x0=20.0)
    z0, v0 = corrected_solution(spec, 0.0, grid.centers)

    def run_fixed(dt):
        solver = StrangSolver(grid, params)
        run = RunState.initial(State(z0.copy(), v0.copy()), grid.dx)
        for _ in range(round(2.0 / dt)):
            run = solver.strang_step(run, dt)
        return run

    ref = run_fixed(0.003125)
    errs = [np.max(np.abs(run_fixed(dt).cells.v - ref.cells.v))
            for dt in (0.05, 0.025, 0.0125)]
    strang_order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))

    ok = (min(stencil_orders) >= 3.7 and conv_order >= 4.7 and strang_order >= 1.8)
    report(10, "discretization orders", ok,
           f"stencil orders {[f'{o:.2f}' for o in stencil_orders]} (want >= 3.7); "
           f"conversion order {conv_order:.2f} (want >= 4.7); "
           f"split temporal order {strang_order:.2f} (want >= 1.8)")
