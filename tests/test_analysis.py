import dataclasses
import math

import numpy as np
import pytest

from multirate import (
    AlignmentError,
    IntegratorMode,
    QuadratureSpec,
    SolverConfig,
    State,
    TimeGrid,
    angular_momentum_series,
    build_time_grid,
    convergence_study,
    empirical_stability_probe,
    energy_series,
    error_norms,
    integrate,
    propagation_matrix,
    stability_report,
)
from multirate import analysis
from multirate.analysis import _orders

from _oracles import spectral_radius
from conftest import make_coupled_toy, make_harmonic_slow, toy_state

MIDMID = QuadratureSpec.midpoint_midpoint()


class TestEnergySeries:
    def test_free_particle_energy_constant(self, free_particle, config):
        grid = build_time_grid(0.5, 3, 8)
        traj, _ = integrate(State([0.0], [1.0], [2.0], [1.0]), free_particle, MIDMID, grid, config)
        es = energy_series(traj, free_particle)
        assert np.allclose(es.total, es.total[0], atol=1e-13)
        assert np.all(es.slow_potential == 0.0)

    def test_total_is_sum_of_parts(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 5, 10)
        traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
        es = energy_series(traj, sys)
        recon = es.kinetic + es.slow_potential + es.fast_potential
        assert np.max(np.abs(es.total - recon)) <= 1e-12 * np.max(np.abs(es.total))

    def test_fpu_oscillatory_energy_initial_value(self, fpu):
        sys, q0 = fpu
        grid = TimeGrid(dT=0.3, micro_per_macro=5, n_macro=0)
        traj, _ = integrate(q0, sys, MIDMID, grid, SolverConfig())
        es = energy_series(traj, sys)
        assert es.stiff_total[0] == pytest.approx(1.0)

    def test_stiff_series_absent_without_definition(self, free_particle, config):
        grid = build_time_grid(0.5, 2, 2)
        traj, _ = integrate(State([0.0], [1.0], [2.0], [1.0]), free_particle, MIDMID, grid, config)
        es = energy_series(traj, free_particle)
        assert es.stiff_energies is None and es.stiff_total is None


def _series_per_state(traj, sys):
    """Energies and angular momentum through one State per macro node."""
    rows = []
    for k in range(traj.grid.n_macro + 1):
        st = traj.macro_state(k)
        v_s = sys.mass_slow_inv @ st.p_slow
        v_f = sys.mass_fast_inv @ st.p_fast
        L = np.zeros(3)
        for q, mom in ((st.q_slow, st.p_slow), (st.q_fast, st.p_fast)):
            L += np.sum(np.cross(q.reshape(-1, 3), mom.reshape(-1, 3)), axis=0)
        rows.append((0.5 * float(st.p_slow @ v_s) + 0.5 * float(st.p_fast @ v_f),
                     float(sys.slow_potential(st.q_slow, st.q_fast)),
                     float(sys.fast_potential(st.q_fast)),
                     sys.oscillatory_energy(st.q_fast, v_f) if sys.oscillatory_energy else 0.0,
                     float(L @ np.array([0.0, 0.0, 1.0]))))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("system,quad,mode", [
    ("fpu", MIDMID, IntegratorMode.IMPLICIT_DEL),
    ("spring_ring", QuadratureSpec.explicit(), IntegratorMode.EXPLICIT),
])
def test_series_bit_identical_to_per_state_formula(request, system, quad, mode):
    sys, q0 = request.getfixturevalue(system)
    grid = build_time_grid(0.05, 4, 12)
    traj, _ = integrate(q0, sys, quad, grid, SolverConfig(newton_tol=1e-10), mode)
    kin, vpot, wpot, stiff, L = _series_per_state(traj, sys)
    es = energy_series(traj, sys)
    assert np.array_equal(es.kinetic, kin)
    assert np.array_equal(es.slow_potential, vpot)
    assert np.array_equal(es.fast_potential, wpot)
    assert np.array_equal(es.total, kin + vpot + wpot)
    if sys.oscillatory_energy:
        assert np.array_equal(es.stiff_energies, stiff)
    assert np.array_equal(angular_momentum_series(traj, sys), L)


def _stacked(sys):
    """A ``batched`` copy of a per-point system whose potentials loop over
    stacked points (energy_series calls nothing else of it)."""
    def each(fn):
        def values(*points):
            if np.ndim(points[0]) == 1:
                return fn(*points)
            return np.array([fn(*pt) for pt in zip(*points)])
        return values

    return dataclasses.replace(sys, batched=True, slow_potential=each(sys.slow_potential),
                               fast_potential=each(sys.fast_potential))


class TestBatchedEnergySeries:
    @pytest.mark.parametrize("system", ["fpu", "spring_ring", "toy"])
    @pytest.mark.parametrize("n_macro", [0, 40])
    def test_batched_and_per_node_paths_agree(self, request, system, n_macro):
        if system == "toy":
            per_node, q0 = make_coupled_toy(), toy_state()
            batched = _stacked(per_node)
        else:
            batched, q0 = request.getfixturevalue(system)
            per_node = dataclasses.replace(batched, batched=False)
        grid = TimeGrid(dT=0.01, micro_per_macro=10, n_macro=n_macro)
        traj, _ = integrate(q0, batched, QuadratureSpec.explicit(), grid, SolverConfig(),
                            IntegratorMode.EXPLICIT)
        a, b = energy_series(traj, batched), energy_series(traj, per_node)
        fields = ["kinetic", "slow_potential", "fast_potential", "total", "stiff_energies"]
        for name in fields:
            x, ref = getattr(a, name), getattr(b, name)
            if ref is None:
                assert x is None
                continue
            assert x.shape == ref.shape and ref.shape[0] == n_macro + 1
            assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    def test_batched_potential_must_return_one_value_per_node(self, fpu):
        sys, q0 = fpu
        total_only = dataclasses.replace(
            sys, fast_potential=lambda qf: 0.5 * 2500.0 * float(np.sum(qf * qf)))
        grid = build_time_grid(0.01, 10, 3)
        traj, _ = integrate(q0, sys, QuadratureSpec.explicit(), grid, SolverConfig(),
                            IntegratorMode.EXPLICIT)
        with pytest.raises(ValueError, match="fast_potential"):
            energy_series(traj, total_only)


class TestAngularMomentum:
    def test_zero_velocities(self, spring_ring, config):
        sys, q0 = spring_ring
        still = State(q0.q_slow, q0.q_fast, np.zeros(9), np.zeros(9))
        grid = TimeGrid(dT=0.01, micro_per_macro=2, n_macro=0)
        traj, _ = integrate(still, sys, MIDMID, grid, config)
        L = angular_momentum_series(traj, sys)
        assert np.allclose(L, 0.0)

    def test_circular_motion_value(self):
        # single mass on a circle of radius r with angular velocity w:
        # angular momentum about e3 is m r^2 w
        m, r, w = 2.0, 1.5, 0.7
        sys_3d = _make_point_mass_pair(m)
        q = np.array([r, 0.0, 0.0])
        v = np.array([0.0, r * w, 0.0])
        st = State(q, np.zeros(3), m * v, np.zeros(3))
        grid = TimeGrid(dT=0.1, micro_per_macro=1, n_macro=0)
        traj, _ = integrate(st, sys_3d, MIDMID, grid, SolverConfig())
        L = angular_momentum_series(traj, sys_3d)
        assert L[0] == pytest.approx(m * r * r * w)

    def test_dimension_check(self, free_particle, config):
        st = State([0.0], [1.0], [2.0], [1.0])
        grid = TimeGrid(dT=0.3, micro_per_macro=1, n_macro=0)
        traj, _ = integrate(st, free_particle, MIDMID, grid, config)
        with pytest.raises(ValueError):
            angular_momentum_series(traj, free_particle)


def _make_point_mass_pair(m):
    from multirate import MultirateSystem

    z3 = np.zeros(3)
    z33 = np.zeros((3, 3))
    return MultirateSystem(
        3, 3, m * np.eye(3), np.eye(3),
        lambda qs, qf: 0.0, lambda qs, qf: (z3, z3),
        lambda qf: 0.0, lambda qf: z3,
        lambda qs, qf: (z33, z33, z33), lambda qf: z33)


class TestErrorNorms:
    def _small_traj(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.1, 2, 4)
        traj, _ = integrate(q0, sys, MIDMID, grid, config)
        return traj

    def test_self_comparison_is_zero(self, fpu, config):
        sys, q0 = fpu
        ref_grid = build_time_grid(0.05, 1, 8)
        ref, _ = integrate(q0, sys, MIDMID, ref_grid, config)
        en = error_norms(ref, ref)
        assert en.e_q_mac == en.e_p_mac == en.e_q_mic == en.e_p_mic == 0.0

    def test_single_perturbed_node(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.1, 2, 4)
        traj, _ = integrate(q0, sys, MIDMID, grid, config)
        ref_grid = build_time_grid(0.05, 1, 8)
        ref, _ = integrate(q0, sys, MIDMID, ref_grid, config)
        base = error_norms(traj, ref)
        traj.fast_q[3] = ref.fast_q[3] + np.array([1.0, 0.0, 0.0])  # micro node (1, 1)
        bumped = error_norms(traj, ref)
        assert bumped.e_q_mic >= 1.0 - base.e_q_mic

    def test_misaligned_reference_raises(self, fpu, config):
        sys, q0 = fpu
        traj = self._small_traj(fpu, config)
        ref_grid = build_time_grid(0.03, 1, 10)
        ref, _ = integrate(q0, sys, MIDMID, ref_grid, config)
        with pytest.raises(AlignmentError):
            error_norms(traj, ref)


class TestObservedOrders:
    def test_synthetic_second_order(self):
        dT = np.array([0.4, 0.2, 0.1, 0.05])
        res = _orders(dT, 3.0 * dT ** 2)
        assert np.allclose(res["pairwise"], 2.0)
        assert res["lsq"] == pytest.approx(2.0)

    def test_single_row_has_no_orders(self):
        res = _orders(np.array([0.1]), np.array([1e-3]))
        assert res["pairwise"] == []
        assert math.isnan(res["lsq"])

    def test_failed_rows_ignored(self):
        dT = np.array([0.4, 0.2, 0.1])
        res = _orders(dT, np.array([0.5, np.nan, 0.125]))
        assert math.isnan(res["pairwise"][0])
        assert res["lsq"] == pytest.approx(1.0)


class TestConvergenceStudy:
    def test_midpoint_scheme_second_order(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-11)
        table = convergence_study(sys, MIDMID, q0, 5, [0.02, 0.01, 0.005], 0.1, cfg,
                                  ref_dT=1.25e-4)
        assert 1.7 < table.observed_orders["q_mac"]["lsq"] < 2.3
        assert 1.7 < table.observed_orders["p_mac"]["lsq"] < 2.3

    def test_row_failure_recorded_not_fatal(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-11, max_newton_iters=6)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        # first row exceeds the fast stability bound and diverges
        table = convergence_study(sys, quad, q0, 5, [0.4, 0.02], 0.4, cfg, ref_dT=1e-3)
        assert table.notes[0] != ""
        assert math.isnan(table.errors_q_mac[0])
        assert np.isfinite(table.errors_q_mac[1])

    @pytest.mark.parametrize("p_ratio", [0, -1, 2.5])
    def test_bad_micro_ratio_rejected_before_any_integration(self, fpu, monkeypatch, p_ratio):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated although p_ratio is invalid")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        sys, q0 = fpu
        with pytest.raises(ValueError, match="p_ratio"):
            convergence_study(sys, MIDMID, q0, p_ratio, [0.02, 0.01], 0.1, SolverConfig(),
                              ref_dT=0.01)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(t_end=math.inf), "t_end"), (dict(t_end=math.nan), "t_end"),
        (dict(t_end=0.0), "t_end"), (dict(t_end=-0.1), "t_end"),
        (dict(ref_dT=math.inf), "ref_dT"), (dict(ref_dT=0.0), "ref_dT"),
        (dict(ref_dT=-0.01), "ref_dT"), (dict(ref_dT=math.nan), "ref_dT"),
        (dict(dT_list=[0.02, 0.0]), "dT"), (dict(dT_list=[math.inf, 0.02]), "dT"),
        (dict(dT_list=[0.02, -0.01]), "dT"), (dict(dT_list=[math.nan, 0.01]), "dT"),
    ], ids=lambda v: str(v) if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v))
    def test_bad_horizon_or_step_rejected_before_any_integration(self, fpu, monkeypatch,
                                                                 kwargs, name):
        # these used to reach int(round(t_end / dT)) and raise OverflowError
        def no_integration(*args, **kw):
            raise AssertionError("integrated although the inputs are invalid")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        sys, q0 = fpu
        args = dict(dT_list=[0.02, 0.01], t_end=0.1, ref_dT=0.01) | kwargs
        with pytest.raises(ValueError, match=name):
            convergence_study(sys, MIDMID, q0, 5, args["dT_list"], args["t_end"], SolverConfig(),
                              ref_dT=args["ref_dT"])

    def test_reference_step_that_does_not_divide_the_horizon_is_rejected(self, fpu,
                                                                        monkeypatch):
        # three steps of 0.3 end at 0.9: the reference used to stop there,
        # and every row then failed to align with it
        def no_integration(*args, **kw):
            raise AssertionError("integrated although ref_dT does not divide t_end")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        sys, q0 = fpu
        with pytest.raises(ValueError, match="ref_dT=0.3 does not divide t_end=1"):
            convergence_study(sys, MIDMID, q0, 2, [0.5, 0.25], 1.0, SolverConfig(), ref_dT=0.3)


class TestStability:
    def test_trapezoidal_bounds(self):
        assert stability_report(1.0, 1.0, 1, "trapezoidal").analytic_bound == pytest.approx(2.0)
        big = stability_report(1.0, 1.0, 10_000, "trapezoidal").analytic_bound
        assert big == pytest.approx(math.sqrt(12.0), rel=1e-6)

    def test_midpoint_bounds(self):
        assert math.isinf(stability_report(1.0, 1.0, 1, "midpoint").analytic_bound)
        assert stability_report(1.0, 1.0, 2, "midpoint").analytic_bound == pytest.approx(4.0)
        assert stability_report(1.0, 1.0, 3, "midpoint").analytic_bound == pytest.approx(
            math.sqrt(13.5))

    def test_midpoint_single_rate_unconditional(self):
        for omega_dT in (0.5, 5.0, 50.0, 100.0):
            rep = stability_report(omega_dT, 1.0, 1, "midpoint")
            assert rep.stable

    def test_determinant_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rule = rng.choice(["trapezoidal", "midpoint"])
            p = int(rng.integers(1, 40))
            omega_dT = float(rng.uniform(0.05, 6.0))
            alpha = float(rng.uniform(0.0, 1.0))
            rep = stability_report(omega_dT, 1.0, p, rule, alpha=alpha)
            assert rep.determinant == pytest.approx(1.0, abs=1e-10)

    def test_trace_formula(self):
        # closed-form traces of the one-step maps
        for p in (1, 2, 5, 11):
            for omega_dT in (0.3, 1.0, 2.5):
                dt = 1.0 / p
                u = (omega_dT * dt) ** 2
                rep_t = stability_report(omega_dT, 1.0, p, "trapezoidal")
                expected_t = -2.0 * (2.0 * u * p * p + u - 6.0) / (u * p * p - u + 6.0)
                assert rep_t.trace == pytest.approx(expected_t, rel=1e-12)
                rep_m = stability_report(omega_dT, 1.0, p, "midpoint")
                expected_m = 2.0 * (12.0 - 4.0 * u * p * p + u) / (12.0 + 2.0 * u * p * p + u)
                assert rep_m.trace == pytest.approx(expected_m, rel=1e-12)

    def test_classification_matches_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            rule = rng.choice(["trapezoidal", "midpoint"])
            p = int(rng.integers(1, 30))
            rep = stability_report(float(rng.uniform(0.05, 8.0)), 1.0, p, rule)
            if math.isinf(rep.analytic_bound):
                assert rep.stable
            elif abs(rep.omega_dT - rep.analytic_bound) > 0.02 * rep.analytic_bound:
                assert rep.stable == (rep.omega_dT < rep.analytic_bound)

    def test_probe_agrees_with_spectral_radius(self):
        for rule in ("trapezoidal", "midpoint"):
            for p in (1, 2, 4, 7):
                rep = stability_report(1.0, 1.0, p, rule)
                bound = rep.analytic_bound
                if math.isinf(bound):
                    continue
                for frac, expect in ((0.95, True), (1.05, False)):
                    omega = frac * bound
                    P = propagation_matrix(omega, 1.0, p, rule)
                    rho = spectral_radius(P)
                    assert (rho <= 1.0 + 1e-9) == expect
                    assert empirical_stability_probe(omega, 1.0, p, rule, 2000) == expect

    def test_probe_trivial_cases(self):
        assert empirical_stability_probe(0.0, 1.0, 1, "trapezoidal")
        with pytest.raises(ValueError):
            empirical_stability_probe(1.0, 1.0, 1, "trapezoidal", n_steps=10)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            propagation_matrix(1.0, 1.0, 1, "simpson")

    @pytest.mark.parametrize("omega_s,dT", [(math.nan, 0.1), (math.inf, 0.1), (1.0, -0.1),
                                            (1.0, 0.0), (1.0, math.inf), (1.0, math.nan)])
    @pytest.mark.parametrize("rule", ["midpoint", "trapezoidal"])
    def test_non_finite_or_non_positive_input_rejected(self, omega_s, dT, rule):
        # stability_report(1.0, -0.1, 2, "midpoint") used to report stable=True
        with pytest.raises(ValueError):
            propagation_matrix(omega_s, dT, 2, rule)
        with pytest.raises(ValueError):
            stability_report(omega_s, dT, 2, rule)
        with pytest.raises(ValueError):
            empirical_stability_probe(omega_s, dT, 2, rule)

    @pytest.mark.parametrize("rule,alpha,quad", [
        ("trapezoidal", 0.5, QuadratureSpec(0.5, 1.0, 0.5, 1.0)),
        ("trapezoidal", 1.0, QuadratureSpec(1.0, 1.0, 1.0, 1.0)),
        ("midpoint", 0.5, QuadratureSpec.midpoint_midpoint()),
    ])
    def test_propagation_matrix_matches_general_solver(self, rule, alpha, quad):
        # the interpolated-variable setting: harmonic slow DOF, free fast DOF
        omega, dT, p, N = 1.3, 0.9, 4, 40
        sys = make_harmonic_slow(omega)
        q0 = State([1.0], [0.0], [0.0], [0.0])
        grid = build_time_grid(dT, p, N)
        traj, _ = integrate(q0, sys, quad, grid, SolverConfig(newton_tol=1e-13))
        P = propagation_matrix(omega, dT, p, rule, alpha=alpha)
        x = np.array([1.0, 0.0])
        for k in range(N + 1):
            assert traj.slow_q[k, 0] == pytest.approx(x[0], abs=1e-12)
            x = P @ x


class TestLongRunEnergyDrift:
    def test_fpu_energy_trend_bounded(self, fpu):
        # symplectic long-run behaviour: the fitted linear trend of the total
        # energy stays within the bounded-oscillation floor
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 10, 667)
        traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
        es = energy_series(traj, sys)
        slope = np.polyfit(es.times, es.total, 1)[0] / abs(es.total[0])
        assert abs(slope) < 1e-4
        assert np.max(np.abs(es.total - es.total[0])) / abs(es.total[0]) < 5e-2


class TestOrderMonotonicity:
    def test_successive_slopes_vary_slowly_in_asymptotic_regime(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-10)
        table = convergence_study(sys, MIDMID, q0, 5, [0.02, 0.01, 0.005, 0.0025],
                                  0.1, cfg, ref_dT=3.125e-5)
        for series in ("q_mac", "p_mac"):
            errs = table.errors(series)
            pair = table.observed_orders[series]["pairwise"]
            for i in range(len(pair) - 1):
                if max(errs[i], errs[i + 1], errs[i + 2]) < 1e-2:
                    assert abs(pair[i + 1] - pair[i]) < 0.3
