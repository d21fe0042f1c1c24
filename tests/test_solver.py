import dataclasses
import math

import numpy as np
import pytest

from multirate import (
    ConfigurationError,
    IntegrationError,
    IntegratorMode,
    MacroStepUnknowns,
    MultirateSystem,
    QuadratureSpec,
    SlowPlacement,
    SolverConfig,
    State,
    TimeGrid,
    Trajectory,
    build_fpu,
    build_time_grid,
    del_jacobian,
    del_residual,
    explicit_macro_step,
    initial_step,
    integrate,
    interval_momenta,
    macro_flow_map,
    macro_step,
    verify_trajectory,
)
from multirate import solver
from multirate.systems import FpuConfig

from multirate.solver import (
    _VERIFY_CHUNK,
    _assemble_jacobian,
    _block_matvec,
    _eliminate,
    _jacobian_blocks,
    _linearization,
    _solve_blocks,
)

from _oracles import (
    block_mass_inv,
    full_grad_potential,
    implicit_midpoint_trajectory,
    symplectic_euler_momentum_first,
)
from conftest import toy_state

MIDMID = QuadratureSpec.midpoint_midpoint()


def without_hessians(sys: MultirateSystem) -> MultirateSystem:
    """The same system with no Hessians: its Newton matrices are finite
    differences."""
    return dataclasses.replace(sys, slow_potential_hessian=None, fast_potential_hessian=None)


QUADRATURES = [
    QuadratureSpec.midpoint_midpoint(),
    QuadratureSpec.trapezoidal_midpoint(1.0),
    QuadratureSpec.trapezoidal_trapezoidal(0.5, 1.0),
    QuadratureSpec.explicit(),
]
QUADRATURE_IDS = ["midpoint", "trapezoidal-midpoint", "trapezoidal-trapezoidal", "explicit"]


def free_state():
    return State([0.0], [1.0], [2.0], [1.0])


class TestResidual:
    def test_free_particle_drift_residual_vanishes(self, free_particle, config):
        grid = build_time_grid(0.5, 4, 2)
        step, _ = initial_step(free_state(), free_particle, MIDMID, grid, config)
        # exact continuation of the drift
        v_s = free_particle.mass_slow_inv @ step.p_slow_end
        v_f = free_particle.mass_fast_inv @ step.p_fast_end
        s2 = step.q_slow_end + 0.5 * v_s
        fast = step.fast[-1] + grid.dt * np.arange(1, 5)[:, None] * v_f
        res = del_residual(step, MacroStepUnknowns(s2, fast), free_particle, MIDMID, grid)
        assert np.max(np.abs(res)) < 1e-14

    def test_converged_step_residual_below_tolerance(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 5, 2)
        s0, _ = initial_step(q0, sys, MIDMID, grid, cfg)
        s1, stats = macro_step(s0, sys, MIDMID, grid, cfg)
        assert stats.residual_norm < 1e-9
        res = del_residual(s0, MacroStepUnknowns(s1.q_slow_end, s1.fast[1:]), sys, MIDMID, grid)
        assert np.max(np.abs(res)) < 1e-9

    def test_local_linearity_of_residual(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        s0, _ = initial_step(q0, sys, MIDMID, grid, config)
        s1, _ = macro_step(s0, sys, MIDMID, grid, config)
        x = MacroStepUnknowns(s1.q_slow_end, s1.fast[1:]).pack()

        def norm_at(delta):
            xp = x.copy()
            xp[4] += delta
            u = MacroStepUnknowns.unpack(xp, 3, 3, 5)
            return np.max(np.abs(del_residual(s0, u, sys, MIDMID, grid)))

        r1, r2 = norm_at(1e-4), norm_at(5e-5)
        assert r1 / r2 == pytest.approx(2.0, rel=0.05)


class TestJacobian:
    def test_analytic_matches_finite_difference(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        step, _ = initial_step(q0, sys, MIDMID, grid, config)
        unk = MacroStepUnknowns(step.q_slow_end + 0.01, step.fast[1:] + 0.005)
        assert sys.has_hessians
        Ja = del_jacobian(step, unk, sys, MIDMID, grid)
        Jf = del_jacobian(step, unk, without_hessians(sys), MIDMID, grid)
        assert np.max(np.abs(Ja - Jf) / (1.0 + np.abs(Ja))) < 1e-5

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_analytic_matches_finite_difference_per_quadrature(self, request, system, quad, p,
                                                              config):
        sys, q0 = request.getfixturevalue(system)
        grid = build_time_grid(0.02, p, 2)
        step, _ = initial_step(q0, sys, quad, grid, config)
        rng = np.random.default_rng(5)
        unk = MacroStepUnknowns(step.q_slow_end + rng.uniform(-0.01, 0.01, sys.n_slow),
                                step.fast[1:] + rng.uniform(-0.005, 0.005, (p, sys.n_fast)))
        assert sys.has_hessians
        Ja = del_jacobian(step, unk, sys, quad, grid)
        Jf = del_jacobian(step, unk, without_hessians(sys), quad, grid)
        assert np.max(np.abs(Ja - Jf) / (1.0 + np.abs(Ja))) < 1e-5

    def test_fast_chain_locality(self, fpu, config):
        # fast-fast blocks vanish beyond nearest micro neighbours
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        step, _ = initial_step(q0, sys, MIDMID, grid, config)
        unk = MacroStepUnknowns(step.q_slow_end, step.fast[1:])
        J = del_jacobian(step, unk, sys, MIDMID, grid)
        n_s, n_f, p = 3, 3, 5
        for m in range(p):          # residual rows of fast nodes 0..p-1
            for m2 in range(1, p + 1):   # columns of fast nodes 1..p
                if abs(m - m2) >= 2:
                    blk = J[n_s + m * n_f : n_s + (m + 1) * n_f,
                            n_s + (m2 - 1) * n_f : n_s + m2 * n_f]
                    assert np.all(blk == 0.0)

    def test_free_particle_jacobian_is_constant_difference_operator(self, free_particle, config):
        grid = build_time_grid(0.5, 3, 2)
        step, stats = initial_step(free_state(), free_particle, MIDMID, grid, config)
        s1, stats = macro_step(step, free_particle, MIDMID, grid, config)
        assert stats.newton_iters <= 1
        unk = MacroStepUnknowns(s1.q_slow_end, s1.fast[1:])
        J1 = del_jacobian(step, unk, free_particle, MIDMID, grid)
        unk2 = MacroStepUnknowns(s1.q_slow_end + 3.0, s1.fast[1:] - 2.0)
        J2 = del_jacobian(step, unk2, free_particle, MIDMID, grid)
        assert np.array_equal(J1, J2)
        assert J1[0, 0] == pytest.approx(-1.0 / 0.5)


def max_diff(a: Trajectory, b: Trajectory) -> float:
    return max(float(np.max(np.abs(x - y))) for x, y in (
        (a.slow_q, b.slow_q), (a.fast_q, b.fast_q), (a.slow_p, b.slow_p), (a.fast_p, b.fast_p)))


class TestLinearSolver:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring", "fast_only", "slow_only"])
    def test_block_solve_matches_dense(self, request, system, quad, p, config):
        sys, q0 = request.getfixturevalue(system)
        grid = build_time_grid(0.02, p, 2)
        step, _ = initial_step(q0, sys, quad, grid, config)
        rng = np.random.default_rng(5)
        unk = MacroStepUnknowns(step.q_slow_end + rng.uniform(-0.01, 0.01, sys.n_slow),
                                step.fast[1:] + rng.uniform(-0.005, 0.005, (p, sys.n_fast)))
        J = del_jacobian(step, unk, sys, quad, grid)
        blocks = _jacobian_blocks(step.q_slow_end, unk.q_slow_next,
                                  np.vstack([step.fast[-1:], unk.q_fast_micro]), sys, quad, grid)
        assert np.array_equal(_assemble_jacobian(blocks), J)
        b = rng.standard_normal(J.shape[0])
        x = np.linalg.solve(J, b)
        x_elim = _eliminate(blocks, b)
        assert np.max(np.abs(x_elim - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(_block_matvec(blocks, b) - J @ b)) <= 1e-12 * np.max(np.abs(J @ b))
        # regular diagonal blocks: the elimination passes its accuracy check
        assert np.array_equal(_solve_blocks(blocks, b), x_elim)

    @pytest.mark.parametrize("scale", [0.0, 1e-310, 1e-12],
                             ids=["singular", "subnormal", "nearly-singular"])
    def test_singular_diagonal_block_takes_dense_fallback(self, fpu, scale):
        # D_1 loses a column, or nearly: elimination breaks down (LinAlgError,
        # an overflowing inverse) or loses accuracy, while the whole matrix
        # stays regular
        sys, q0 = fpu
        p = 4
        grid = build_time_grid(0.3, p, 1)
        blocks = _jacobian_blocks(q0.q_slow, q0.q_slow + 0.1, np.tile(q0.q_fast, (p + 1, 1)),
                                  sys, MIDMID, grid)
        blocks.band[1][:, 0] *= scale
        J = _assemble_jacobian(blocks)
        assert np.linalg.cond(J) < 1e8
        b = np.random.default_rng(1).standard_normal(J.shape[0])
        x = np.linalg.solve(J, b)
        with np.errstate(all="ignore"):
            try:
                x_elim = _eliminate(blocks, b)
                breaks_down = not np.max(np.abs(x_elim - x)) <= 1e-10 * np.max(np.abs(x))
            except np.linalg.LinAlgError:
                breaks_down = True
        assert breaks_down
        assert np.array_equal(_solve_blocks(blocks, b), x)

    def test_finite_difference_jacobian_stays_dense(self, fpu):
        # FPU l=3, p=50: 153 unknowns, above the crossover
        sys, q0 = fpu
        grid = build_time_grid(0.3, 50, 1)
        sys_fd = without_hessians(sys)
        assert _linearization(sys, MIDMID, grid)[0] == "structured"
        assert _linearization(sys_fd, MIDMID, grid)[0] == "dense"
        _, stats = integrate(q0, sys_fd, MIDMID, grid, SolverConfig())
        assert stats.linear_solver == "dense"

    def test_dense_and_structured_integrations_agree(self, monkeypatch):
        sys, q0 = build_fpu(FpuConfig(l=10))
        grid = build_time_grid(0.3, 20, 5)
        cfg = SolverConfig(newton_tol=1e-9)
        t_blocks, s_blocks = integrate(q0, sys, MIDMID, grid, cfg)
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", math.inf)
        t_dense, s_dense = integrate(q0, sys, MIDMID, grid, cfg)
        assert (s_blocks.linear_solver, s_dense.linear_solver) == ("structured", "dense")
        assert s_blocks.newton_iters_total == s_dense.newton_iters_total
        assert max_diff(t_dense, t_blocks) <= 10 * cfg.newton_tol

    def test_small_systems_stay_dense_and_bit_identical(self, fpu, monkeypatch):
        # FPU l=3, dT=0.3, p=10: 33 unknowns, below the crossover
        sys, q0 = fpu
        grid = build_time_grid(0.3, 10, 667)
        cfg = SolverConfig(newton_tol=1e-9)
        t_default, s_default = integrate(q0, sys, MIDMID, grid, cfg)
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", math.inf)
        t_dense, s_dense = integrate(q0, sys, MIDMID, grid, cfg)
        assert s_default.linear_solver == "dense"
        assert s_default.newton_iters_total == s_dense.newton_iters_total
        assert max_diff(t_default, t_dense) == 0.0

    def test_pq_maps_solve_densely(self, fpu):
        # 153 unknowns, but the p/q maps have their own finite-difference solve
        sys, q0 = fpu
        _, stats = integrate(q0, sys, MIDMID, build_time_grid(0.01, 50, 2), SolverConfig(),
                             IntegratorMode.CLOSED_FORM_PQ)
        assert stats.linear_solver == "dense"


class TestInitialStep:
    def test_free_drift(self, free_particle, config):
        grid = build_time_grid(0.5, 4, 1)
        st = free_state()
        step, stats = initial_step(st, free_particle, MIDMID, grid, config)
        v_s = free_particle.mass_slow_inv @ st.p_slow
        v_f = free_particle.mass_fast_inv @ st.p_fast
        assert np.allclose(step.q_slow_end, st.q_slow + 0.5 * v_s, atol=1e-13)
        for m in range(5):
            assert np.allclose(step.fast[m], st.q_fast + m * grid.dt * v_f, atol=1e-13)

    def test_fpu_initial_step_converges(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 5, 1)
        step, stats = initial_step(q0, sys, MIDMID, grid, cfg)
        assert stats.residual_norm < 1e-9
        assert np.all(np.isfinite(step.fast))

    def test_first_step_matches_implicit_midpoint(self, toy_coupled, config):
        sys = toy_coupled
        st = toy_state()
        grid = build_time_grid(0.05, 1, 1)
        step, _ = initial_step(st, sys, MIDMID, grid, config)
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        qs, ps = implicit_midpoint_trajectory(
            gradU, Minv, np.concatenate([st.q_slow, st.q_fast]),
            np.concatenate([st.p_slow, st.p_fast]), 0.05, 1)
        assert np.max(np.abs(step.q_slow_end - qs[1][:1])) < 1e-11
        assert np.max(np.abs(step.fast[-1] - qs[1][1:])) < 1e-11
        assert np.max(np.abs(step.p_slow_end - ps[1][:1])) < 1e-11
        assert np.max(np.abs(step.p_fast_end - ps[1][1:])) < 1e-11


class TestMacroStep:
    def test_momentum_matching_at_all_nodes(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-10)
        for p in (1, 5, 10):
            grid = build_time_grid(0.3, p, 3)
            traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
            cert = verify_trajectory(traj, q0, sys, MIDMID, grid)
            assert cert.ok(1e-10)

    def test_certificate_checks_every_node_across_chunks(self, fpu):
        # verify_trajectory batches intervals in chunks; a defect planted at
        # any node, chunk boundaries included, must show as it does in a
        # one-interval-at-a-time recomputation
        sys, q0 = fpu
        C = _VERIFY_CHUNK
        cfg = SolverConfig(newton_tol=1e-10)
        grid = build_time_grid(0.3, 2, 2 * C + 8)
        traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
        for k in (1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, grid.n_macro - 1):
            bad = Trajectory(grid, traj.slow_q.copy(), traj.slow_p, traj.fast_q, traj.fast_p)
            bad.slow_q[k] += 1e-6
            cert = verify_trajectory(bad, q0, sys, MIDMID, grid)
            moms = [interval_momenta(bad.slow_q[j], bad.slow_q[j + 1], bad.interval_fast(j),
                                     sys, MIDMID, grid) for j in range(grid.n_macro)]
            macro = max(max(np.max(np.abs(a.p_s_plus - b.p_s_minus)),
                            np.max(np.abs(a.p_f_plus[-1] - b.p_f_minus[0])))
                        for a, b in zip(moms, moms[1:]))
            micro = max(np.max(np.abs(m.p_f_plus[:-1] - m.p_f_minus[1:])) for m in moms)
            assert cert.matching_macro_max == pytest.approx(macro, rel=1e-12)
            assert cert.matching_micro_max == pytest.approx(micro, rel=1e-12)
            assert cert.matching_macro_max > 1e-6

    def test_divergence_reports_partial_trajectory(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=8)
        grid = build_time_grid(0.3, 5, 50)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        with pytest.raises(IntegrationError) as exc_info:
            integrate(q0, sys, quad, grid, cfg)
        err = exc_info.value
        assert err.partial_trajectory is not None
        assert err.step_index is not None

    def test_divergence_reports_partial_trajectory_pq(self, fpu):
        # the closed-form path fails at the same first step as the DEL path
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=8)
        grid = build_time_grid(0.3, 5, 50)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        with pytest.raises(IntegrationError) as exc_info:
            integrate(q0, sys, quad, grid, cfg, IntegratorMode.CLOSED_FORM_PQ)
        err = exc_info.value
        assert err.step_index == 0
        traj = err.partial_trajectory
        assert np.array_equal(traj.slow_q[0], q0.q_slow)
        assert np.array_equal(traj.fast_q[0], q0.q_fast)
        assert np.array_equal(traj.slow_p[0], q0.p_slow)
        assert np.array_equal(traj.fast_p[0], q0.p_fast)


class TestExplicitStep:
    def test_rejects_non_explicit_quadrature(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.01, 5, 1)
        step, _ = initial_step(q0, sys, MIDMID, grid, config)
        with pytest.raises(ConfigurationError):
            explicit_macro_step(step, sys, MIDMID, grid)
        with pytest.raises(ConfigurationError):
            integrate(q0, sys, MIDMID, grid, config, IntegratorMode.EXPLICIT)

    def test_free_particle_drift(self, free_particle, config):
        grid = build_time_grid(0.5, 3, 4)
        quad = QuadratureSpec.explicit()
        traj, _ = integrate(free_state(), free_particle, quad, grid, config,
                            IntegratorMode.EXPLICIT)
        v_s = free_particle.mass_slow_inv @ np.array([2.0])
        assert np.allclose(traj.slow_q[:, 0], 0.0 + v_s[0] * grid.macro_times(), atol=1e-13)

    @pytest.mark.parametrize("alpha_v,alpha_w,gamma_w", [
        (1.0, 1.0, 1.0), (0.5, 0.5, 1.0), (0.3, 0.8, 0.0),
    ])
    def test_matches_implicit_path(self, fpu, alpha_v, alpha_w, gamma_w):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-12)
        quad = QuadratureSpec(alpha_v, 1.0, alpha_w, gamma_w, SlowPlacement.MACRO_NODES_ONLY)
        grid = build_time_grid(0.01, 5, 30)
        t_imp, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
        t_exp, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.EXPLICIT)
        assert np.max(np.abs(t_imp.slow_q - t_exp.slow_q)) < 1e-12
        assert np.max(np.abs(t_imp.fast_q - t_exp.fast_q)) < 1e-12
        assert np.max(np.abs(t_imp.fast_p - t_exp.fast_p)) < 1e-10


class TestIntegrate:
    def test_zero_intervals_returns_initial_state(self, fpu, config):
        sys, q0 = fpu
        grid = TimeGrid(dT=0.3, micro_per_macro=5, n_macro=0)
        traj, stats = integrate(q0, sys, MIDMID, grid, config)
        assert traj.slow_q.shape == (1, 3)
        assert np.array_equal(traj.slow_q[0], q0.q_slow)
        assert np.array_equal(traj.fast_p[0], q0.p_fast)
        assert stats.n_steps == 0

    @pytest.mark.parametrize("mode,quad", [
        (IntegratorMode.CLOSED_FORM_PQ, MIDMID),
        (IntegratorMode.EXPLICIT, QuadratureSpec.explicit()),
    ], ids=["pq", "explicit"])
    def test_zero_intervals_returns_initial_state_other_modes(self, fpu, config, mode, quad):
        sys, q0 = fpu
        grid = TimeGrid(dT=0.3, micro_per_macro=5, n_macro=0)
        traj, stats = integrate(q0, sys, quad, grid, config, mode)
        assert traj.slow_q.shape == (1, 3)
        assert np.array_equal(traj.slow_q[0], q0.q_slow)
        assert np.array_equal(traj.fast_p[0], q0.p_fast)
        assert stats.n_steps == 0

    @pytest.mark.parametrize("mode,quad", [
        (IntegratorMode.IMPLICIT_DEL, MIDMID),
        (IntegratorMode.CLOSED_FORM_PQ, MIDMID),
        (IntegratorMode.EXPLICIT, QuadratureSpec.explicit()),
    ], ids=["del", "pq", "explicit"])
    def test_row_zero_keeps_initial_state(self, fpu, config, mode, quad):
        # the first step's left momenta match q0 only to the tolerance; the
        # stored row 0 is q0 itself
        sys, q0 = fpu
        traj, _ = integrate(q0, sys, quad, build_time_grid(0.01, 5, 3), config, mode)
        for stored, given in zip((traj.slow_q, traj.fast_q, traj.slow_p, traj.fast_p),
                                 (q0.q_slow, q0.q_fast, q0.p_slow, q0.p_fast)):
            assert np.array_equal(stored[0], given)

    def test_deterministic(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 5, 10)
        t1, _ = integrate(q0, sys, MIDMID, grid, cfg)
        t2, _ = integrate(q0, sys, MIDMID, grid, cfg)
        assert np.array_equal(t1.slow_q, t2.slow_q)
        assert np.array_equal(t1.slow_p, t2.slow_p)
        assert np.array_equal(t1.fast_q, t2.fast_q)
        assert np.array_equal(t1.fast_p, t2.fast_p)

    def test_midpoint_single_rate_equals_implicit_midpoint(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-13)
        grid = build_time_grid(0.01, 1, 100)
        traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        qs, ps = implicit_midpoint_trajectory(
            gradU, Minv, np.concatenate([q0.q_slow, q0.q_fast]),
            np.concatenate([q0.p_slow, q0.p_fast]), 0.01, 100)
        q_all = np.hstack([traj.slow_q, traj.fast_q])
        p_all = np.hstack([traj.slow_p, traj.fast_p])
        assert np.max(np.abs(q_all - qs)) < 1e-8
        assert np.max(np.abs(p_all - ps)) < 1e-8

    def test_left_rectangle_single_rate_is_symplectic_euler(self, toy_coupled):
        sys = toy_coupled
        cfg = SolverConfig(newton_tol=1e-13)
        h = 0.02
        grid = build_time_grid(h, 1, 50)
        quad = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        traj, _ = integrate(toy_state(), sys, quad, grid, cfg)
        gradU = full_grad_potential(sys)
        Minv = block_mass_inv(sys)
        q = np.concatenate([toy_state().q_slow, toy_state().q_fast])
        p = np.concatenate([toy_state().p_slow, toy_state().p_fast])
        for k in range(50):
            q, p = symplectic_euler_momentum_first(gradU, Minv, q, p, h)
            assert np.max(np.abs(np.hstack([traj.slow_q[k + 1], traj.fast_q[k + 1]]) - q)) < 1e-10
            assert np.max(np.abs(np.hstack([traj.slow_p[k + 1], traj.fast_p[k + 1]]) - p)) < 1e-10


class TestSymplecticity:
    @pytest.mark.parametrize("quad", [
        QuadratureSpec.midpoint_midpoint(),
        QuadratureSpec.trapezoidal_midpoint(1.0),
        QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0),
    ])
    def test_flow_jacobian_preserves_canonical_form(self, toy_coupled, quad):
        sys = toy_coupled
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
        assert np.max(np.abs(D.T @ J @ D - J)) < 1e-6
