"""End-to-end acceptance checks.

Each test prints one ``[criterion N] PASS/FAIL`` line with its measured
numbers, then asserts the stated bounds.  Later criteria reuse trajectories
produced by earlier ones through a session registry, so this module is meant
to run as a whole (``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from multirate import (
    IntegrationError,
    IntegratorMode,
    QuadratureSpec,
    SolverConfig,
    State,
    TimeGrid,
    angular_momentum_series,
    build_fpu,
    build_spring_ring,
    build_time_grid,
    convergence_study,
    empirical_stability_probe,
    energy_series,
    error_norms,
    integrate,
    macro_flow_map,
    stability_report,
    verify_trajectory,
)

from multirate import solver

from _oracles import block_mass_inv, full_grad_potential, implicit_midpoint_trajectory
from conftest import make_coupled_toy

pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def registry():
    """Accepted trajectories of criteria 1-6, re-verified by criterion 9."""
    return []


def register(registry, label, traj, q0, sys, quad, grid, tol):
    registry.append(dict(label=label, traj=traj, q0=q0, sys=sys, quad=quad,
                         grid=grid, tol=tol))


SCHEMES = {
    "midpoint-midpoint": QuadratureSpec.midpoint_midpoint(),
    "trapezoidal-midpoint": QuadratureSpec.trapezoidal_midpoint(1.0),
    "trapezoidal-trapezoidal": QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0),
}

# second-order reference for the midpoint scheme, first-order references for
# the rectangle-rule schemes (their errors shrink only linearly, so the
# reference step must sit two orders of magnitude below the smallest sweep
# error); every reference step divides all sweep micro steps exactly
REF_DT = {
    "midpoint-midpoint": 0.02 / 2560,       # 7.8125e-6
    "trapezoidal-midpoint": 0.02 / 10240,   # 1.953125e-6
    "trapezoidal-trapezoidal": 0.02 / 10240,
}
REF_ORDER = {"midpoint-midpoint": 2, "trapezoidal-midpoint": 1, "trapezoidal-trapezoidal": 1}
SWEEP_DT = [0.02, 0.01, 0.005, 0.0025, 0.00125]
T_END = 0.5
# the residual roundoff floor at the reference step (~eps/dT) caps how tight
# the Newton tolerance can be there
STUDY_CFG = SolverConfig(newton_tol=1e-9)


@pytest.fixture(scope="session")
def convergence_refs(registry):
    """Single-rate references (and half-resolution companions) per scheme."""
    sys, q0 = build_fpu()
    refs = {}
    for name, quad in SCHEMES.items():
        out = {}
        for key, dt in (("ref", REF_DT[name]), ("ref2x", 2 * REF_DT[name])):
            grid = TimeGrid(dT=dt, micro_per_macro=1, n_macro=round(T_END / dt))
            traj, _ = integrate(q0, sys, quad, grid, STUDY_CFG)
            out[key] = traj
            register(registry, f"reference {name} dT={dt:g}", traj, q0, sys, quad,
                     grid, STUDY_CFG.newton_tol)
        refs[name] = out
    return refs


class TestCriterion1:
    def test_single_rate_reduction_matches_implicit_midpoint(self, registry):
        sys, q0 = build_fpu()
        cfg = SolverConfig(newton_tol=1e-12)
        grid = build_time_grid(0.01, 1, 100)
        t0 = time.perf_counter()
        traj, _ = integrate(q0, sys, QuadratureSpec.midpoint_midpoint(), grid, cfg)
        qs, ps = implicit_midpoint_trajectory(
            full_grad_potential(sys), block_mass_inv(sys),
            np.concatenate([q0.q_slow, q0.q_fast]),
            np.concatenate([q0.p_slow, q0.p_fast]), 0.01, 100)
        elapsed = time.perf_counter() - t0
        dq = float(np.max(np.abs(np.hstack([traj.slow_q, traj.fast_q]) - qs)))
        dp = float(np.max(np.abs(np.hstack([traj.slow_p, traj.fast_p]) - ps)))
        ok = dq < 1e-8 and dp < 1e-8 and elapsed < 10.0
        report(1, ok, f"single-rate midpoint vs independent implicit midpoint: "
                      f"dq={dq:.2e}, dp={dp:.2e} (tol 1e-8), runtime {elapsed:.1f}s (<10s)")
        register(registry, "criterion-1 single-rate midpoint", traj, q0, sys,
                 QuadratureSpec.midpoint_midpoint(), grid, cfg.newton_tol)
        assert dq < 1e-8 and dp < 1e-8
        assert elapsed < 10.0


class TestCriterion2:
    CASES = [
        ("fpu", "midpoint-midpoint"),
        ("fpu", "trapezoidal-midpoint"),
        ("fpu", "trapezoidal-trapezoidal"),
        ("spring-ring", "midpoint-midpoint"),
        ("spring-ring", "trapezoidal-midpoint"),
        ("spring-ring", "trapezoidal-trapezoidal"),
    ]

    @pytest.mark.parametrize("system,scheme", CASES)
    def test_del_and_pq_paths_agree(self, registry, system, scheme):
        if system == "fpu":
            sys, q0 = build_fpu()
            grid = build_time_grid(0.3, 5, 50)
            tol = 1e-9
        else:
            sys, q0 = build_spring_ring()
            grid = build_time_grid(0.01, 5, 100)
            tol = 1e-8
        quad = SCHEMES[scheme]
        cfg = SolverConfig(newton_tol=tol)
        try:
            t_del, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
            t_pq, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        except IntegrationError as exc:
            report(2, False, f"{system}/{scheme}: integration failed at macro step "
                             f"{exc.step_index} ({exc.cause})")
            raise
        diff = max(
            float(np.max(np.abs(a - b)))
            for a, b in ((t_del.slow_q, t_pq.slow_q), (t_del.fast_q, t_pq.fast_q),
                         (t_del.slow_p, t_pq.slow_p), (t_del.fast_p, t_pq.fast_p)))
        ok = diff <= 10 * tol
        report(2, ok, f"{system}/{scheme}: compound-DEL vs update-map paths "
                      f"differ by {diff:.2e} (allowed {10 * tol:.1e})")
        register(registry, f"criterion-2 {system} {scheme} (compound)", t_del, q0,
                 sys, quad, grid, tol)
        register(registry, f"criterion-2 {system} {scheme} (update map)", t_pq, q0,
                 sys, quad, grid, tol)
        assert diff <= 10 * tol


def _run_sweep(scheme, p_ratio, refs, registry):
    sys, q0 = build_fpu()
    quad = SCHEMES[scheme]
    table = convergence_study(sys, quad, q0, p_ratio, SWEEP_DT, T_END, STUDY_CFG,
                              reference=refs[scheme]["ref"])
    for dT in SWEEP_DT:
        grid = build_time_grid(dT, p_ratio, round(T_END / dT))
        traj, _ = integrate(q0, sys, quad, grid, STUDY_CFG)
        register(registry, f"criterion-3 {scheme} p={p_ratio} dT={dT:g}", traj, q0,
                 sys, quad, grid, STUDY_CFG.newton_tol)
    # reference accuracy margin via Richardson: err(ref) ~ diff / (2^q - 1)
    dref = error_norms(refs[scheme]["ref2x"], refs[scheme]["ref"])
    denom = 2 ** REF_ORDER[scheme] - 1
    margin_q = np.nanmin(table.errors_q_mac) / (dref.e_q_mac / denom)
    margin_p = np.nanmin(table.errors_p_mac) / (dref.e_p_mac / denom)
    return table, margin_q, margin_p


def _final_order(table, series):
    return table.observed_orders[series]["pairwise"][-1]


class TestCriterion3:
    @pytest.mark.parametrize("p_ratio", [5, 10])
    def test_midpoint_scheme_is_second_order(self, convergence_refs, registry, p_ratio):
        table, margin_q, margin_p = _run_sweep("midpoint-midpoint", p_ratio,
                                               convergence_refs, registry)
        oq = _final_order(table, "q_mac")
        op = _final_order(table, "p_mac")
        ok = 1.85 <= oq <= 2.15 and 1.85 <= op <= 2.15 and min(margin_q, margin_p) >= 100
        report(3, ok, f"midpoint-midpoint p={p_ratio}: macro orders q={oq:.3f}, "
                      f"p={op:.3f} (band [1.85, 2.15]); reference margin "
                      f"{min(margin_q, margin_p):.0f}x (>=100x)")
        assert 1.85 <= oq <= 2.15
        assert 1.85 <= op <= 2.15
        assert min(margin_q, margin_p) >= 100

    def test_rectangle_slow_scheme_is_first_order(self, convergence_refs, registry):
        table, margin_q, _ = _run_sweep("trapezoidal-midpoint", 5, convergence_refs, registry)
        oq = _final_order(table, "q_mac")
        ok = 0.85 <= oq <= 1.2 and margin_q >= 100
        report(3, ok, f"trapezoidal-midpoint (left rectangle slow) p=5: macro order "
                      f"q={oq:.3f} (band [0.85, 1.2]); reference margin {margin_q:.0f}x")
        assert 0.85 <= oq <= 1.2
        assert margin_q >= 100

    def test_rectangle_both_scheme_is_first_order(self, convergence_refs, registry):
        table, margin_q, margin_p = _run_sweep("trapezoidal-trapezoidal", 5,
                                               convergence_refs, registry)
        oq = _final_order(table, "q_mac")
        op = _final_order(table, "p_mac")
        ok = 0.85 <= oq <= 1.2 and 0.85 <= op <= 1.2 and min(margin_q, margin_p) >= 100
        report(3, ok, f"trapezoidal-trapezoidal (left rectangle both) p=5: macro orders "
                      f"q={oq:.3f}, p={op:.3f} (band [0.85, 1.2]); reference margin "
                      f"{min(margin_q, margin_p):.0f}x")
        assert 0.85 <= oq <= 1.2
        assert 0.85 <= op <= 1.2
        assert min(margin_q, margin_p) >= 100


class TestCriterion4:
    def test_micro_only_refinement_rate_saturates(self, convergence_refs, registry):
        sys, q0 = build_fpu()
        quad = SCHEMES["trapezoidal-midpoint"]
        ref = convergence_refs["trapezoidal-midpoint"]["ref"]
        dT = 0.1
        errs = []
        for p in (10, 20, 40, 80):
            grid = build_time_grid(dT, p, round(T_END / dT))
            traj, _ = integrate(q0, sys, quad, grid, STUDY_CFG)
            register(registry, f"criterion-4 trapezoidal-midpoint p={p}", traj, q0,
                     sys, quad, grid, STUDY_CFG.newton_tol)
            errs.append(error_norms(traj, ref).e_q_mac)
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        ok = rates[2] < 0.3
        report(4, ok, f"fixed dT={dT}, doubling micro steps from p=10: macro-q rates "
                      f"{[f'{r:.2f}' for r in rates]}; third doubling {rates[2]:.2f} (<0.3)")
        assert rates[2] < 0.3


class TestCriterion5:
    def test_long_run_energy_behavior(self, registry):
        sys, q0 = build_fpu()
        quad = QuadratureSpec.midpoint_midpoint()
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 10, 667)   # t_N = 200.1
        traj, _ = integrate(q0, sys, quad, grid, cfg)
        register(registry, "criterion-5 long-run energy", traj, q0, sys, quad, grid,
                 cfg.newton_tol)
        es = energy_series(traj, sys)
        rel_dev = float(np.max(np.abs(es.total - es.total[0])) / abs(es.total[0]))
        slope = float(np.polyfit(es.times, es.total, 1)[0] / abs(es.total[0]))
        stiff_lo = float(np.min(es.stiff_total))
        stiff_hi = float(np.max(es.stiff_total))
        ok_dev = rel_dev < 5e-2
        ok_slope = abs(slope) < 1e-5
        ok_stiff = 0.9 <= stiff_lo and stiff_hi <= 1.1
        ok = ok_dev and ok_slope and ok_stiff
        report(5, ok, f"energy over t=200 at dT=0.3, p=10: max relative deviation "
                      f"{rel_dev:.2e} (<5e-2), linear-trend slope {slope:+.2e} "
                      f"(|.|<1e-5), stiff-energy sum in [{stiff_lo:.3f}, {stiff_hi:.3f}] "
                      f"(within [0.9, 1.1])")
        assert ok_dev, f"relative deviation {rel_dev:.3e} exceeds 5e-2"
        assert ok_stiff, f"stiff-energy sum range [{stiff_lo:.3f}, {stiff_hi:.3f}]"
        assert ok_slope, (
            f"fitted energy slope {slope:+.3e} exceeds 1e-5 per unit time; the fit "
            f"is dominated by the bounded energy oscillation, not by dissipation")


class TestCriterion6:
    @pytest.mark.parametrize("p_ratio", [5, 10])
    def test_angular_momentum_preserved(self, registry, p_ratio):
        sys, q0 = build_spring_ring()
        quad = QuadratureSpec.midpoint_midpoint()
        cfg = SolverConfig(newton_tol=1e-8)
        grid = build_time_grid(0.01, p_ratio, 5000)
        traj, _ = integrate(q0, sys, quad, grid, cfg)
        register(registry, f"criterion-6 momentum map p={p_ratio}", traj, q0, sys,
                 quad, grid, cfg.newton_tol)
        L = angular_momentum_series(traj, sys)
        drift = float(np.max(np.abs(L - L[0])))
        ok = drift < 1e-6
        report(6, ok, f"ring angular momentum about gravity axis, p={p_ratio}, t=50: "
                      f"|L0|={abs(L[0]):.1f}, max drift {drift:.2e} (<1e-6 absolute)")
        assert drift < 1e-6


class TestCriterion7:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_one_step_map_is_symplectic(self, scheme):
        sys = make_coupled_toy()
        quad = SCHEMES[scheme]
        cfg = SolverConfig(newton_tol=1e-13)
        z0 = np.array([0.3, 0.1, -0.2, 0.4])

        def flow(z):
            st = State(z[0:1], z[1:2], z[2:3], z[3:4])
            out = macro_flow_map(st, sys, quad, 0.1, 4, cfg)
            return np.concatenate([out.q_slow, out.q_fast, out.p_slow, out.p_fast])

        delta = 1e-5
        D = np.empty((4, 4))
        for i in range(4):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += delta
            zm[i] -= delta
            D[:, i] = (flow(zp) - flow(zm)) / (2.0 * delta)
        J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        dev = float(np.max(np.abs(D.T @ J @ D - J)))
        ok = dev <= 1e-6
        report(7, ok, f"{scheme}: one-macro-step flow Jacobian, "
                      f"|D^T J D - J|_inf = {dev:.2e} (<=1e-6) at dT=0.1, p=4")
        assert dev <= 1e-6


class TestCriterion8:
    def test_analytic_bound_matches_trace_classification(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(1000):
            rule = ("trapezoidal", "midpoint")[int(rng.integers(2))]
            p = int(rng.integers(1, 60))
            omega_dT = float(rng.uniform(0.05, 8.0))
            rep = stability_report(omega_dT, 1.0, p, rule)
            by_bound = omega_dT < rep.analytic_bound
            if rep.stable != by_bound:
                mismatches += 1
        ok = mismatches == 0
        report(8, ok, f"analytic bound vs |trace|<2 classification: "
                      f"{mismatches}/1000 mismatches")
        assert mismatches == 0

    def test_empirical_probe_agrees_outside_boundary_band(self):
        rng = np.random.default_rng(7)
        checked = disagreements = 0
        for _ in range(400):
            rule = ("trapezoidal", "midpoint")[int(rng.integers(2))]
            p = int(rng.integers(1, 30))
            omega_dT = float(rng.uniform(0.05, 6.0))
            rep = stability_report(omega_dT, 1.0, p, rule)
            bound = rep.analytic_bound
            if math.isfinite(bound) and abs(omega_dT - bound) <= 0.02 * bound:
                continue
            checked += 1
            if empirical_stability_probe(omega_dT, 1.0, p, rule, 1000) != rep.stable:
                disagreements += 1
        ok = disagreements == 0 and checked > 300
        report(8, ok, f"empirical probe vs analytic classification outside a 2% "
                      f"boundary band: {disagreements}/{checked} disagreements")
        assert disagreements == 0

    def test_midpoint_single_rate_stable_to_100(self):
        worst = True
        for omega_dT in np.linspace(0.5, 100.0, 200):
            rep = stability_report(float(omega_dT), 1.0, 1, "midpoint")
            worst = worst and rep.stable
        probe_ok = empirical_stability_probe(100.0, 1.0, 1, "midpoint", 2000)
        ok = worst and probe_ok
        report(8, ok, f"midpoint single-rate rule stable up to omega*dT=100: "
                      f"analytic {worst}, probe at 100 {probe_ok}")
        assert ok

    def test_trapezoidal_single_rate_boundary_bracketed(self):
        below = stability_report(1.0, 2.0 * 0.99, 1, "trapezoidal")
        above = stability_report(1.0, 2.0 * 1.01, 1, "trapezoidal")
        probe_below = empirical_stability_probe(1.0, 2.0 * 0.99, 1, "trapezoidal", 5000)
        probe_above = empirical_stability_probe(1.0, 2.0 * 1.01, 1, "trapezoidal", 5000)
        ok = below.stable and not above.stable and probe_below and not probe_above
        report(8, ok, f"single-rate trapezoidal boundary omega*dT=2 bracketed within 1%: "
                      f"stable at 1.98 {below.stable}/{probe_below}, "
                      f"unstable at 2.02 {not above.stable}/{not probe_above}")
        assert ok


class TestCriterion9:
    def test_certificates_on_all_accepted_trajectories(self, registry):
        if not registry:
            pytest.skip("requires the trajectories produced by criteria 1-6")
        worst_res = worst_match = 0.0
        failures = []
        for entry in registry:
            cert = verify_trajectory(entry["traj"], entry["q0"], entry["sys"],
                                     entry["quad"], entry["grid"])
            res = max(cert.residual_max, cert.initial_max)
            match = max(cert.matching_macro_max, cert.matching_micro_max)
            worst_res = max(worst_res, res / entry["tol"])
            worst_match = max(worst_match, match / (10 * entry["tol"]))
            if res > entry["tol"] or match > 10 * entry["tol"]:
                failures.append(entry["label"])
        ok = not failures
        report(9, ok, f"residual/matching certificates on {len(registry)} accepted "
                      f"trajectories: worst residual {worst_res:.3f}x tol, worst "
                      f"matching {worst_match:.3f}x allowance"
                      + (f"; failing: {failures}" if failures else ""))
        assert not failures


class TestCriterion10:
    def test_work_and_timing_trends(self, monkeypatch):
        # the dense LU at every p, including those where blocks would be used
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", math.inf)
        # and a Newton matrix built at every iteration, the policy these
        # bounds were set for: with matrix reuse the builds per step grow
        # with p (none at p=10, one every other step at p=100 here), which
        # the Jacobian time exponent then measures instead
        monkeypatch.setattr(solver, "_MAX_PREDICTED_ITERS", -1)
        sys, q0 = build_fpu()
        quad = QuadratureSpec.midpoint_midpoint()
        cfg = SolverConfig(newton_tol=1e-9)
        dt = 0.001
        p_list = [1, 5, 10, 50, 100]
        # The machine's speed drifts between runs of several seconds: after a
        # warm-up, each p's times are the median of rounds that cycle through
        # all p, so that a slow spell hits one round of every p alike.
        integrate(q0, sys, quad, TimeGrid(dT=5 * dt, micro_per_macro=5, n_macro=100), cfg)
        iters = [0] * len(p_list)
        dx_rounds, jac_rounds = [[] for _ in p_list], [[] for _ in p_list]
        for _ in range(3):
            for i, p in enumerate(p_list):
                grid = TimeGrid(dT=p * dt, micro_per_macro=p, n_macro=round(10.0 / (p * dt)))
                _, stats = integrate(q0, sys, quad, grid, cfg)
                iters[i] = stats.newton_iters_total
                dx_rounds[i].append(stats.solve_time_per_step)
                jac_rounds[i].append(stats.jacobian_time_per_step)
        t_dx = [float(np.median(r)) for r in dx_rounds]
        t_jac = [float(np.median(r)) for r in jac_rounds]
        non_increasing = all(a >= b for a, b in zip(iters, iters[1:]))
        dx_increasing = all(a < b for a, b in zip(t_dx, t_dx[1:]))
        tail = slice(2, None)   # p >= 10
        slope_dx = float(np.polyfit(np.log(p_list[tail]), np.log(t_dx[tail]), 1)[0])
        slope_jac = float(np.polyfit(np.log(p_list[tail]), np.log(t_jac[tail]), 1)[0])
        ok = non_increasing and dx_increasing and slope_dx > 1.0 and 0.7 <= slope_jac <= 1.3
        report(10, ok, f"fixed micro step dt=0.001, t_end=10, median of 3 rounds: "
                       f"Newton totals {iters} "
                       f"(non-increasing {non_increasing}); dense linear-solve time/step "
                       f"increasing {dx_increasing}, growth exponent {slope_dx:.2f} (>1); "
                       f"Jacobian time/step exponent {slope_jac:.2f} (in [0.7, 1.3])")
        assert non_increasing, f"Newton totals not non-increasing: {iters}"
        assert dx_increasing, f"solve time per step not increasing: {t_dx}"
        assert slope_dx > 1.0
        assert 0.7 <= slope_jac <= 1.3
