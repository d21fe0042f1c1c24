import numpy as np
import pytest

from multirate import (
    ConfigurationError,
    IntegratorMode,
    QuadratureSpec,
    SolverConfig,
    State,
    angular_momentum_series,
    build_fpu,
    build_spring_ring,
    build_time_grid,
    initial_step,
    integrate,
    pq_step,
)
from multirate import schemes, solver
from multirate.discretization import _Workspace

from _oracles import (
    block_mass_inv,
    closed_form_pq_residual,
    fd_jacobian_loop,
    full_grad_potential,
    implicit_midpoint_step,
    pq_residual,
    stormer_verlet_step,
    symplectic_euler_momentum_first,
    symplectic_euler_position_first,
)
from conftest import make_coupled_toy, toy_state
from test_fd_jacobian import fpu_nondiagonal_masses, perturbed_guess
from test_solver import with_full_masses, without_hessians

CFG = SolverConfig(newton_tol=1e-12)


def assert_same_step(a, b):
    for x, y in ((a.q_slow_end, b.q_slow_end), (a.fast, b.fast), (a.p_slow, b.p_slow),
                 (a.p_fast, b.p_fast)):
        assert np.array_equal(x, y)


class TestSchemeClassification:
    @pytest.mark.parametrize("fast_rule", ["midpoint", "trapezoidal"])
    def test_left_rectangle_encodings_give_identical_steps(self, fpu, fast_rule):
        # (alpha, gamma) = (1, 1) and (0, 0) both put the whole weight on the
        # left micro node
        sys, q0 = fpu
        grid = build_time_grid(0.03, 5, 1)

        def spec(a, g):
            return QuadratureSpec(a, g, 0.5, 0.5) if fast_rule == "midpoint" \
                else QuadratureSpec(a, g, a, g)

        one, _ = pq_step(q0, sys, spec(1.0, 1.0), grid, CFG)
        assert_same_step(one, pq_step(q0, sys, spec(0.0, 0.0), grid, CFG)[0])
        # the left weight is carried: the right rectangle rule steps differently
        other, _ = pq_step(q0, sys, spec(0.0, 1.0), grid, CFG)
        assert not np.array_equal(one.fast, other.fast)

    @pytest.mark.parametrize("mode", [IntegratorMode.CLOSED_FORM_PQ, IntegratorMode.IMPLICIT_DEL],
                             ids=["pq", "del"])
    def test_two_sided_encodings_classify_as_trapezoidal_trapezoidal(self, fpu, mode):
        sys, q0 = fpu
        grid = build_time_grid(0.03, 5, 1)
        step = pq_step if mode is IntegratorMode.CLOSED_FORM_PQ else initial_step
        one, _ = step(q0, sys, QuadratureSpec(0.5, 1.0, 0.5, 0.0), grid, CFG)
        two, _ = step(q0, sys, QuadratureSpec.trapezoidal_trapezoidal(0.5, 0.5), grid, CFG)
        assert_same_step(one, two)

    @pytest.mark.parametrize("quad", [QuadratureSpec.explicit(),
                                      QuadratureSpec(0.5, 0.3, 0.5, 0.5)],
                             ids=["macro-placement", "general-affine"])
    def test_quadrature_without_map_rejected(self, fpu, quad):
        sys, q0 = fpu
        grid = build_time_grid(0.03, 5, 1)
        with pytest.raises(ConfigurationError):
            pq_step(q0, sys, quad, grid, CFG)
        with pytest.raises(ConfigurationError):
            integrate(q0, sys, quad, grid, CFG, IntegratorMode.CLOSED_FORM_PQ)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec.trapezoidal_midpoint(1.5)


class TestFreeDrift:
    @pytest.mark.parametrize("quad", [
        QuadratureSpec.midpoint_midpoint(),
        QuadratureSpec.trapezoidal_midpoint(0.5),
        QuadratureSpec.trapezoidal_trapezoidal(0.5, 0.5),
    ])
    def test_momentum_constant_configuration_drifts(self, free_particle, quad):
        grid = build_time_grid(0.5, 4, 1)
        st = State([0.0], [1.0], [2.0], [1.0])
        end = pq_step(st, free_particle, quad, grid, CFG)[0].end_state()
        v_s = free_particle.mass_slow_inv @ st.p_slow
        assert np.allclose(end.q_slow, st.q_slow + 0.5 * v_s, atol=1e-13)
        assert np.allclose(end.p_slow, st.p_slow, atol=1e-13)
        assert np.allclose(end.p_fast, st.p_fast, atol=1e-13)


class TestSingleRateOracles:
    def test_midmid_is_implicit_midpoint(self, toy_coupled):
        sys = toy_coupled
        st = toy_state()
        grid = build_time_grid(0.05, 1, 1)
        res = pq_step(st, sys, QuadratureSpec.midpoint_midpoint(), grid, CFG)[0].end_state()
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        q1, p1 = implicit_midpoint_step(gradU, Minv,
                                        np.concatenate([st.q_slow, st.q_fast]),
                                        np.concatenate([st.p_slow, st.p_fast]), 0.05)
        assert np.max(np.abs(np.concatenate([res.q_slow, res.q_fast]) - q1)) < 1e-11
        assert np.max(np.abs(np.concatenate([res.p_slow, res.p_fast]) - p1)) < 1e-11

    def test_trapmid_half_weight_is_stormer_verlet_without_fast_potential(self):
        # W = 0 and a slow-only quadratic force: kick-oscillate-kick collapses
        # to the classical kick-drift-kick form
        sys = make_coupled_toy(omega_sq=1e-30)  # effectively W = 0
        st = toy_state()
        h = 0.05
        grid = build_time_grid(h, 1, 1)
        res = pq_step(st, sys, QuadratureSpec.trapezoidal_midpoint(0.5), grid, CFG)[0].end_state()
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        q1, p1 = stormer_verlet_step(gradU, Minv,
                                     np.concatenate([st.q_slow, st.q_fast]),
                                     np.concatenate([st.p_slow, st.p_fast]), h)
        assert np.max(np.abs(np.concatenate([res.q_slow, res.q_fast]) - q1)) < 1e-11
        assert np.max(np.abs(np.concatenate([res.p_slow, res.p_fast]) - p1)) < 1e-11

    @pytest.mark.parametrize("alpha,oracle", [
        (1.0, symplectic_euler_momentum_first),
        (0.0, symplectic_euler_position_first),
    ])
    def test_traptrap_single_rate_is_symplectic_euler_pair(self, toy_coupled, alpha, oracle):
        sys = toy_coupled
        st = toy_state()
        h = 0.02
        grid = build_time_grid(h, 1, 1)
        quad = QuadratureSpec.trapezoidal_trapezoidal(alpha, alpha)
        res = pq_step(st, sys, quad, grid, CFG)[0].end_state()
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        q1, p1 = oracle(gradU, Minv,
                        np.concatenate([st.q_slow, st.q_fast]),
                        np.concatenate([st.p_slow, st.p_fast]), h)
        assert np.max(np.abs(np.concatenate([res.q_slow, res.q_fast]) - q1)) < 1e-11
        assert np.max(np.abs(np.concatenate([res.p_slow, res.p_fast]) - p1)) < 1e-11

    def test_traptrap_adjoint_pair_returns_initial_state(self, toy_coupled):
        # step with one-sided weights, then the reversed adjoint weights:
        # reversal realized by momentum flip around a forward step
        sys = toy_coupled
        st = toy_state()
        grid = build_time_grid(0.02, 3, 1)
        fwd = pq_step(st, sys, QuadratureSpec.trapezoidal_trapezoidal(0.0, 0.0), grid,
                      CFG)[0].end_state()
        flipped = State(fwd.q_slow, fwd.q_fast, -fwd.p_slow, -fwd.p_fast)
        back = pq_step(flipped, sys, QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0), grid,
                       CFG)[0].end_state()
        assert np.max(np.abs(back.q_slow - st.q_slow)) < 1e-11
        assert np.max(np.abs(back.q_fast - st.q_fast)) < 1e-11
        assert np.max(np.abs(-back.p_slow - st.p_slow)) < 1e-11
        assert np.max(np.abs(-back.p_fast - st.p_fast)) < 1e-11


WEIGHTS = (0.0, 0.5, 1.0)
ORACLE_QUADS = {
    "midpoint": QuadratureSpec.midpoint_midpoint(),
    **{f"trapezoidal-midpoint-{a}": QuadratureSpec.trapezoidal_midpoint(a) for a in WEIGHTS},
    **{f"trapezoidal-trapezoidal-{a}-{b}": QuadratureSpec.trapezoidal_trapezoidal(a, b)
       for a in WEIGHTS for b in WEIGHTS},
    "trapezoidal-trapezoidal-gamma-0": QuadratureSpec(0.5, 0.0, 0.0, 0.0),
}


class TestClosedFormOracle:
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", ORACLE_QUADS.values(), ids=list(ORACLE_QUADS))
    @pytest.mark.parametrize("masses", ["diagonal", "nondiagonal"])
    def test_transformed_del_residual_matches_closed_forms(self, fpu, masses, quad, p):
        # the p/q residual is T applied to the DEL residual; on perturbed
        # points of one batch it agrees with the hand-derived maps to rounding
        sys, q0 = fpu if masses == "diagonal" else fpu_nondiagonal_masses(True)
        grid = build_time_grid(0.3, p, 1)
        X = np.stack([perturbed_guess(q0, sys, grid, seed) for seed in range(4)])
        R = pq_residual(quad, q0, sys, grid)(X)[0]
        assert R.shape == X.shape
        for x, r in zip(X, R):
            ref = closed_form_pq_residual(quad, q0, sys, grid, x)
            assert np.max(np.abs(r - ref)) <= 16 * np.finfo(float).eps * np.max(np.abs(x))


PQ_MAPS = {
    "midpoint": QuadratureSpec.midpoint_midpoint(),
    "trapezoidal-midpoint": QuadratureSpec.trapezoidal_midpoint(1.0),
    "trapezoidal-trapezoidal": QuadratureSpec.trapezoidal_trapezoidal(0.5, 1.0),
}
# with full mass matrices T's factors -dT M_s^-1 and -dt M_f^-1 mix the
# components, so a factor applied to the wrong entries shows
MATRIX_SYSTEMS = {
    "fpu": (build_fpu, 0.3),
    "spring-ring": (build_spring_ring, 0.01),
    "fpu-nondiagonal-masses": (lambda: (with_full_masses(build_fpu()[0]), build_fpu()[1]), 0.3),
}


def pq_newton_update(sys, quad, state, grid, x):
    """``(dx, evaluate)``: the Newton update that pq_step takes at x, -J^-1 F
    with the DEL step's matrix and linear solver, and the p/q residual T F."""
    residual = solver._step_residual(state, sys, quad, grid)
    F = residual(x)[0]
    linear, jacobian = solver._linearization(sys, quad, grid)
    factors = linear.factor(jacobian(state, residual, x, F, _Workspace()))
    return linear.apply(factors, -F), pq_residual(quad, state, sys, grid)


def max_rel_diff(A, B):
    return np.max(np.abs(A - B)) / np.max(np.abs(B))


class TestNewtonMatrix:
    """A p/q step takes the DEL step's Newton update -J^-1 F, J analytic with
    both Hessians and differences of F without them.  Since T is constant,
    that is the Newton update -(T J)^-1 T F of the p/q residual T F."""

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", PQ_MAPS.values(), ids=list(PQ_MAPS))
    @pytest.mark.parametrize("system", sorted(MATRIX_SYSTEMS))
    def test_matches_differences_of_the_p_q_residual(self, system, quad, p):
        build, dT = MATRIX_SYSTEMS[system]
        sys, q0 = build()
        grid = build_time_grid(dT, p, 1)
        x = perturbed_guess(q0, sys, grid)
        dx, evaluate = pq_newton_update(sys, quad, q0, grid, x)
        TF = evaluate(x)[0]
        J_fd = solver._fd_jacobian(evaluate, x, TF)
        assert max_rel_diff(dx, -np.linalg.solve(J_fd, TF)) <= 1e-6

        # and with the hand-derived closed forms
        def closed(y):
            return closed_form_pq_residual(quad, q0, sys, grid, y), None

        R = closed(x)[0]
        J_closed = fd_jacobian_loop(closed, x, R, solver._FD_STEP)
        assert max_rel_diff(dx, -np.linalg.solve(J_closed, R)) <= 1e-6

    @pytest.mark.parametrize("hessians", [True, False], ids=["analytic", "hessian-free"])
    def test_differences_only_without_hessians(self, fpu, hessians, monkeypatch):
        sys, q0 = fpu
        sys = sys if hessians else without_hessians(sys)
        fd_jacobian, calls = solver._fd_jacobian, []

        def counted(residual, x0, r0):
            calls.append(x0.size)
            return fd_jacobian(residual, x0, r0)

        monkeypatch.setattr(solver, "_fd_jacobian", counted)
        _, stats = integrate(q0, sys, QuadratureSpec.midpoint_midpoint(),
                             build_time_grid(0.3, 10, 20), SolverConfig(newton_tol=1e-9),
                             IntegratorMode.CLOSED_FORM_PQ)
        assert stats.matrix_builds_total > 0
        assert len(calls) == (0 if hessians else stats.matrix_builds_total)


class TestStopRule:
    def test_pq_steps_stop_on_the_norm_of_T_F(self, fpu, monkeypatch):
        # Newton runs on the DEL residual F, but the p/q stop rule reads
        # ||T F||: at a loose tolerance each accepted step is within it in
        # that norm, and reports that norm
        sys, q0 = fpu
        quad = QuadratureSpec.midpoint_midpoint()
        cfg = SolverConfig(newton_tol=1e-6)
        grid = build_time_grid(0.3, 10, 20)
        steps = []

        def recorded(state, *args, **kwargs):
            step, stats = pq_step(state, *args, **kwargs)
            steps.append((state, step, stats))
            return step, stats

        monkeypatch.setattr(schemes, "pq_step", recorded)
        integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        assert len(steps) == grid.n_macro
        for state, step, stats in steps:
            x = np.concatenate([step.q_slow_end, step.fast[1:].ravel()])
            norm = np.max(np.abs(pq_residual(quad, state, sys, grid)(x)[0]))
            assert norm <= cfg.newton_tol
            assert stats.residual_norm == pytest.approx(norm, rel=1e-12, abs=0.0)
            F = solver._step_residual(state, sys, quad, grid)(x)[0]
            assert np.max(np.abs(F)) != pytest.approx(norm, rel=1e-3, abs=0.0)


class TestTransformedFormConsistency:
    def test_untransformed_relations_hold_at_solution(self, fpu):
        # the averaged-node map must also satisfy its untransformed update
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 1)
        step, _ = pq_step(q0, sys, QuadratureSpec.midpoint_midpoint(), grid, CFG)
        p = 5
        dt = grid.dt
        qs_nodes = q0.q_slow[None, :] + (np.arange(p + 1)[:, None] / p) * (step.q_slow_end - q0.q_slow)[None, :]
        qs_bar = 0.5 * (qs_nodes[:-1] + qs_nodes[1:])
        qf_bar = 0.5 * (step.fast[:-1] + step.fast[1:])
        G = np.array([sys.slow_potential_grad(qs_bar[m], qf_bar[m])[0] for m in range(p)])
        a = (2.0 * np.arange(p) + 1.0) / p
        # momentum update: p_next = p - dt * sum of slow forces
        assert np.allclose(step.p_slow_end, q0.p_slow - dt * G.sum(axis=0), atol=1e-10)
        # configuration update with the averaged force weights
        rhs = q0.q_slow + 0.5 * grid.dT * (sys.mass_slow_inv @ (
            q0.p_slow + step.p_slow_end - dt * ((1.0 - a) @ G)))
        assert np.allclose(step.q_slow_end, rhs, atol=1e-10)


class TestPathEquivalence:
    @pytest.mark.parametrize("quad", [
        QuadratureSpec.midpoint_midpoint(),
        QuadratureSpec.trapezoidal_midpoint(1.0),
    ])
    def test_fpu_del_vs_pq(self, fpu, quad):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-11)
        grid = build_time_grid(0.3, 5, 30)
        t1, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
        t2, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        for a, b in ((t1.slow_q, t2.slow_q), (t1.fast_q, t2.fast_q),
                     (t1.slow_p, t2.slow_p), (t1.fast_p, t2.fast_p)):
            assert np.max(np.abs(a - b)) < 10 * cfg.newton_tol

    def test_spring_ring_del_vs_pq_traptrap(self, spring_ring):
        sys, q0 = spring_ring
        cfg = SolverConfig(newton_tol=1e-10)
        grid = build_time_grid(0.01, 5, 20)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        t1, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
        t2, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        for a, b in ((t1.slow_q, t2.slow_q), (t1.fast_q, t2.fast_q),
                     (t1.slow_p, t2.slow_p), (t1.fast_p, t2.fast_p)):
            assert np.max(np.abs(a - b)) < 10 * cfg.newton_tol

    def test_fpu_traptrap_stable_step_regime(self, fpu):
        # the two-sided-rectangle run near its stability limit uses the
        # smaller macro step of the reference experiments
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-11)
        grid = build_time_grid(0.03, 10, 30)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        t1, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
        t2, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        assert np.max(np.abs(t1.fast_q - t2.fast_q)) < 10 * cfg.newton_tol
        assert np.all(np.abs(t1.fast_q) < 1.0)


class TestMomentumMap:
    def test_spring_ring_angular_momentum_conserved(self, spring_ring):
        sys, q0 = spring_ring
        cfg = SolverConfig(newton_tol=1e-10)
        grid = build_time_grid(0.01, 5, 50)
        quad = QuadratureSpec.midpoint_midpoint()
        traj, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        L = angular_momentum_series(traj, sys)
        assert np.max(np.abs(L - L[0])) < 100 * cfg.newton_tol


class TestTrapmidSingleRateSlowReduction:
    def test_alpha_zero_single_rate_is_position_first_euler(self):
        # with no fast potential the whole map collapses to the
        # position-first symplectic Euler variant
        sys = make_coupled_toy(omega_sq=1e-30)
        st = toy_state()
        h = 0.02
        grid = build_time_grid(h, 1, 1)
        res = pq_step(st, sys, QuadratureSpec.trapezoidal_midpoint(0.0), grid, CFG)[0].end_state()
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        q1, p1 = symplectic_euler_position_first(
            gradU, Minv, np.concatenate([st.q_slow, st.q_fast]),
            np.concatenate([st.p_slow, st.p_fast]), h)
        assert np.max(np.abs(np.concatenate([res.q_slow, res.q_fast]) - q1)) < 1e-11
        assert np.max(np.abs(np.concatenate([res.p_slow, res.p_fast]) - p1)) < 1e-11
