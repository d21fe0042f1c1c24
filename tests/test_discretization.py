import dataclasses

import numpy as np
import pytest

from multirate import (
    EvaluationError,
    MultirateSystem,
    QuadratureSpec,
    SlowPlacement,
    SolverConfig,
    build_fpu,
    build_spring_ring,
    build_time_grid,
    initial_step,
    interval_momenta,
)
from multirate.discretization import _check_finite, _StepForm, interval_kernel
from multirate.solver import _HeldMatrix

from _oracles import (
    affine_quadrature,
    central_diff,
    discrete_fast_potential,
    discrete_kinetic,
    discrete_lagrangian,
    discrete_lagrangian_micro,
    discrete_slow_potential,
    hessian_blocks_dense,
    kernel_momenta,
)
from conftest import make_fast_only, make_slow_only
from test_solver import QUADRATURES, QUADRATURE_IDS, with_full_masses


def scalar_system(V=None, gradV=None, W=None, gradW=None):
    """1 slow + 1 fast DOF with arbitrary scalar potentials."""
    zero = lambda *a: 0.0
    zgrad_s = lambda qs, qf: (np.zeros(1), np.zeros(1))
    zgrad_f = lambda qf: np.zeros(1)
    return MultirateSystem(
        1, 1, np.eye(1), np.eye(1),
        V or zero, gradV or zgrad_s,
        W or zero, gradW or zgrad_f,
    )


def lagrangian_gradient(s0, s1, fast, sys, quad, grid):
    """Partial derivatives ``(g_s0, g_s1, g_f)`` of L_d from the library's
    momenta, the discrete Legendre transforms read backwards: ``-p_minus``
    at the left end of each (macro or micro) interval, ``p_plus`` at the
    right end."""
    mom = interval_momenta(s0, s1, fast, sys, quad, grid)
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = (mom.p_s_minus, mom.p_s_plus, mom.p_f_minus,
                                                mom.p_f_plus)
    g_f = np.zeros((grid.micro_per_macro + 1, sys.n_fast))
    g_f[:-1] -= p_f_minus
    g_f[1:] += p_f_plus
    return -p_s_minus, p_s_plus, g_f


class TestDiscreteKinetic:
    def test_zero_displacement(self):
        sys = scalar_system()
        grid = build_time_grid(1.0, 3, 1)
        fast = np.zeros((4, 1))
        assert discrete_kinetic(np.zeros(1), np.zeros(1), fast, sys, grid) == 0.0

    def test_unit_case(self):
        sys = scalar_system()
        grid = build_time_grid(1.0, 1, 1)
        fast = np.array([[0.0], [1.0]])
        val = discrete_kinetic(np.zeros(1), np.ones(1), fast, sys, grid)
        assert val == pytest.approx(1.0)

    def test_single_micro_step_equals_single_rate_form(self, fpu):
        # p = 1 must coincide with (dT/2) v^T M v summed over the full config
        sys, q0 = fpu
        grid = build_time_grid(0.3, 1, 1)
        q1 = q0.q_slow + 0.1
        f1 = q0.q_fast - 0.05
        fast = np.vstack([q0.q_fast, f1])
        val = discrete_kinetic(q0.q_slow, q1, fast, sys, grid)
        v = np.concatenate([(q1 - q0.q_slow), (f1 - q0.q_fast)]) / 0.3
        expected = 0.5 * 0.3 * float(v @ v)  # unit masses
        assert val == pytest.approx(expected, rel=1e-14)

    def test_shape_mismatch(self):
        sys = scalar_system()
        grid = build_time_grid(1.0, 3, 1)
        with pytest.raises(ValueError):
            discrete_kinetic(np.zeros(1), np.zeros(1), np.zeros((2, 1)), sys, grid)


class TestDiscretePotentials:
    def test_zero_potential(self):
        sys = scalar_system()
        grid = build_time_grid(1.0, 2, 1)
        fast = np.zeros((3, 1))
        quad = QuadratureSpec.midpoint_midpoint()
        assert discrete_slow_potential(np.zeros(1), np.ones(1), fast, sys, quad, grid) == 0.0
        assert discrete_fast_potential(fast, sys, quad, grid) == 0.0

    def test_linear_slow_midpoint_exact(self):
        # V = q_s integrates exactly along the interpolant for any alpha
        sys = scalar_system(V=lambda qs, qf: float(qs[0]))
        grid = build_time_grid(1.0, 2, 1)
        fast = np.zeros((3, 1))
        for alpha in (0.0, 0.3, 0.5, 1.0):
            quad = QuadratureSpec(alpha_V=alpha, gamma_V=0.5)
            val = discrete_slow_potential(np.zeros(1), np.ones(1), fast, sys, quad, grid)
            assert val == pytest.approx(0.5, rel=1e-14)

    # quadratic integrand q^2 along q: 0 -> 1 over two micro intervals of 0.5
    @pytest.mark.parametrize("alpha,gamma,expected", [
        (1.0, 1.0, 0.125),   # left rectangle
        (0.0, 0.0, 0.125),   # left rectangle
        (1.0, 0.0, 0.625),   # right rectangle
        (0.0, 1.0, 0.625),   # right rectangle
        (0.5, 0.0, 0.375),   # trapezoidal
        (0.5, 1.0, 0.375),   # trapezoidal
        (0.5, 0.5, 0.3125),  # midpoint
    ])
    def test_quadratic_slow_table_values(self, alpha, gamma, expected):
        sys = scalar_system(V=lambda qs, qf: float(qs[0] ** 2))
        grid = build_time_grid(1.0, 2, 1)
        fast = np.zeros((3, 1))
        quad = QuadratureSpec(alpha_V=alpha, gamma_V=gamma)
        val = discrete_slow_potential(np.zeros(1), np.ones(1), fast, sys, quad, grid)
        assert val == pytest.approx(expected, rel=1e-14)
        # cross-check against the brute-force affine quadrature
        nodes = np.array([0.0, 0.5, 1.0])
        ref = affine_quadrature(lambda q: q ** 2, nodes, alpha, gamma, 0.5)
        assert val == pytest.approx(ref, rel=1e-14)

    def test_linear_fast_midpoint(self):
        sys = scalar_system(W=lambda qf: float(qf[0]))
        grid = build_time_grid(1.0, 1, 1)
        fast = np.array([[0.0], [1.0]])
        quad = QuadratureSpec.midpoint_midpoint()
        assert discrete_fast_potential(fast, sys, quad, grid) == pytest.approx(0.5)

    def test_fast_quadratic_at_constant_stretch(self):
        # W = 2500/2 q^2 at constant node value 1/50 gives dt/2 per interval
        w2 = 2500.0
        sys = scalar_system(W=lambda qf: 0.5 * w2 * float(qf[0] ** 2))
        grid = build_time_grid(0.3, 1, 1)
        fast = np.full((2, 1), 1.0 / 50.0)
        quad = QuadratureSpec.midpoint_midpoint()
        val = discrete_fast_potential(fast, sys, quad, grid)
        assert val == pytest.approx(grid.dt * 0.5, rel=1e-14)

    def test_macro_placement(self):
        sys = scalar_system(V=lambda qs, qf: float(qs[0] ** 2 + qf[0]))
        grid = build_time_grid(1.0, 4, 1)
        fast = np.linspace(0.0, 1.0, 5)[:, None]
        quad = QuadratureSpec(0.25, 1.0, 0.5, 0.5, SlowPlacement.MACRO_NODES_ONLY)
        val = discrete_slow_potential(np.zeros(1), np.ones(1), fast, sys, quad, grid)
        # dT * (alpha*V(q0, f0) + (1-alpha)*V(q1, fp))
        assert val == pytest.approx(1.0 * (0.25 * 0.0 + 0.75 * 2.0), rel=1e-14)

    def test_rectangle_exact_for_constants(self):
        sys = scalar_system(V=lambda qs, qf: 3.0)
        grid = build_time_grid(0.7, 3, 1)
        fast = np.zeros((4, 1))
        for alpha, gamma in ((1.0, 1.0), (1.0, 0.0)):
            quad = QuadratureSpec(alpha_V=alpha, gamma_V=gamma)
            val = discrete_slow_potential(np.zeros(1), np.ones(1), fast, sys, quad, grid)
            assert val == pytest.approx(3.0 * 0.7, rel=1e-14)


class TestDiscreteLagrangian:
    def test_rest_state_vanishes(self):
        sys = scalar_system()
        grid = build_time_grid(1.0, 3, 1)
        fast = np.zeros((4, 1))
        quad = QuadratureSpec.midpoint_midpoint()
        assert discrete_lagrangian(np.zeros(1), np.zeros(1), fast, sys, quad, grid) == 0.0

    def test_single_micro_step_equals_single_rate_midpoint(self, fpu):
        # p=1 midpoint reduces to dT*[T(v) - U(midpoint)] evaluated directly
        sys, q0 = fpu
        dT = 0.3
        grid = build_time_grid(dT, 1, 1)
        q1 = q0.q_slow + 0.05
        f1 = q0.q_fast + 0.01
        fast = np.vstack([q0.q_fast, f1])
        quad = QuadratureSpec.midpoint_midpoint()
        val = discrete_lagrangian(q0.q_slow, q1, fast, sys, quad, grid)
        v = np.concatenate([q1 - q0.q_slow, f1 - q0.q_fast]) / dT
        qm_s = 0.5 * (q0.q_slow + q1)
        qm_f = 0.5 * (q0.q_fast + f1)
        expected = dT * (0.5 * float(v @ v)
                         - float(sys.slow_potential(qm_s, qm_f))
                         - float(sys.fast_potential(qm_f)))
        assert val == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("quad", [
        QuadratureSpec.midpoint_midpoint(),
        QuadratureSpec.trapezoidal_midpoint(1.0),
        QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0),
        QuadratureSpec(0.5, 1.0, 0.5, 0.0),
        QuadratureSpec.explicit(),
    ])
    def test_micro_interval_sum(self, fpu, quad):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 1)
        rng = np.random.default_rng(7)
        q1 = q0.q_slow + rng.uniform(-0.1, 0.1, 3)
        fast = q0.q_fast + rng.uniform(-0.02, 0.02, (6, 3))
        total = discrete_lagrangian(q0.q_slow, q1, fast, sys, quad, grid)
        parts = sum(discrete_lagrangian_micro(q0.q_slow, q1, fast, sys, quad, grid, m)
                    for m in range(5))
        assert parts == pytest.approx(total, rel=1e-14)

    def test_gradients_match_finite_differences(self, fpu):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 1)
        quad = QuadratureSpec.midpoint_midpoint()
        rng = np.random.default_rng(11)
        s0 = q0.q_slow
        s1 = q0.q_slow + rng.uniform(-0.1, 0.1, 3)
        fast = q0.q_fast + rng.uniform(-0.02, 0.02, (6, 3))
        g_s0, g_s1, g_f = lagrangian_gradient(s0, s1, fast, sys, quad, grid)
        h = 5e-6
        fd_s0 = central_diff(lambda x: discrete_lagrangian(x, s1, fast, sys, quad, grid), s0, h)
        fd_s1 = central_diff(lambda x: discrete_lagrangian(s0, x, fast, sys, quad, grid), s1, h)
        assert np.max(np.abs(g_s0 - fd_s0)) < 1e-6
        assert np.max(np.abs(g_s1 - fd_s1)) < 1e-6
        for m in range(6):
            def f(x, m=m):
                ff = fast.copy()
                ff[m] = x
                return discrete_lagrangian(s0, s1, ff, sys, quad, grid)
            assert np.max(np.abs(g_f[m] - central_diff(f, fast[m].copy(), h))) < 1e-6


class TestDiscreteMomenta:
    def test_free_particle_momenta(self, free_particle):
        sys = free_particle
        grid = build_time_grid(0.5, 4, 1)
        s0, s1 = np.array([0.0]), np.array([1.0])
        fast = np.linspace(0.0, 2.0, 5)[:, None]
        quad = QuadratureSpec.midpoint_midpoint()
        mom = interval_momenta(s0, s1, fast, sys, quad, grid)
        assert np.allclose(mom.p_s_minus, (s1 - s0) / 0.5)
        assert np.allclose(mom.p_s_plus, (s1 - s0) / 0.5)
        v_f = (fast[1] - fast[0]) / grid.dt
        assert np.allclose(mom.p_f_minus[0], sys.mass_fast @ v_f)

    def test_momenta_match_lagrangian_differentiation(self, fpu):
        # closed forms against central differencing of the discrete action,
        # per micro interval for the fast momenta
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 1)
        quad = QuadratureSpec.midpoint_midpoint()
        rng = np.random.default_rng(13)
        s0 = q0.q_slow
        s1 = q0.q_slow + rng.uniform(-0.05, 0.05, 3)
        fast = q0.q_fast + rng.uniform(-0.02, 0.02, (6, 3))
        mom = interval_momenta(s0, s1, fast, sys, quad, grid)
        h = 5e-6
        fd_s0 = central_diff(lambda x: discrete_lagrangian(x, s1, fast, sys, quad, grid), s0.copy(), h)
        fd_s1 = central_diff(lambda x: discrete_lagrangian(s0, x, fast, sys, quad, grid), s1.copy(), h)
        assert np.max(np.abs(mom.p_s_minus - (-fd_s0))) < 1e-10
        assert np.max(np.abs(mom.p_s_plus - fd_s1)) < 1e-10
        for m in range(5):
            def f_left(x, m=m):
                ff = fast.copy()
                ff[m] = x
                return discrete_lagrangian_micro(s0, s1, ff, sys, quad, grid, m)
            fd = central_diff(f_left, fast[m].copy(), h)
            assert np.max(np.abs(mom.p_f_minus[m] - (-fd))) < 1e-10
        for m in range(1, 6):
            def f_right(x, m=m):
                ff = fast.copy()
                ff[m] = x
                return discrete_lagrangian_micro(s0, s1, ff, sys, quad, grid, m - 1)
            fd = central_diff(f_right, fast[m].copy(), h)
            assert np.max(np.abs(mom.p_f_plus[m - 1] - fd)) < 1e-10


def full_masses(sys: MultirateSystem, seed: int = 1) -> MultirateSystem:
    """The same potentials with non-diagonal mass matrices, of any n_slow
    and n_fast."""
    rng = np.random.default_rng(seed)

    def spd(n):
        A = rng.standard_normal((n, n))
        return A @ A.T + 3.0 * np.eye(n)

    return dataclasses.replace(sys, mass_slow=spd(sys.n_slow), mass_fast=spd(sys.n_fast))


# every family of QUADRATURES, macro-node rules with a slow term at either
# end and at the end alone, and a rule whose V and W evaluate at different
# points
FORM_RULES = QUADRATURES + [
    QuadratureSpec.explicit(0.5, 0.5),
    # gamma_W = 0: slow potential at the end node only, W right-rectangle
    QuadratureSpec(0.0, 1.0, 1.0, 0.0, SlowPlacement.MACRO_NODES_ONLY),
    QuadratureSpec(0.5, 0.5, 0.5, 1.0),
]
FORM_IDS = QUADRATURE_IDS + ["explicit-half", "gamma0", "midpoint-trapezoidal"]

FORM_SYSTEMS = {"fpu": lambda: build_fpu()[0], "fast-only": lambda: make_fast_only()[0],
                "slow-only": lambda: make_slow_only()[0]}

MAPS = ("points", "start", "forces", "momenta", "record", "T", "abs_T")


class TestMomentaMap:
    """The discrete momenta through the step's maps, dense and by terms,
    against the full four-product formula from the gradients at the
    kernel's quadrature points (``_oracles.kernel_momenta``) to rounding;
    a momentum whose weights are all zero is the kinetic momentum."""

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "terms"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", FORM_RULES, ids=FORM_IDS)
    def test_equal_to_full_formula(self, fpu, quad, p, batch, dense):
        # full mass matrices: the kinetic products sum several terms
        sys = with_full_masses(fpu[0])
        kern = interval_kernel(quad, build_time_grid(0.3, p, 1))
        rng = np.random.default_rng(p)
        n = sys.n_slow
        q0, q1 = 0.1 * rng.normal(size=(2,) + batch + (n,))
        fast = 0.1 * rng.normal(size=batch + (p + 1, n))
        got = _StepForm(kern, sys, dense).interval_momenta(q0, q1, fast)
        want = kernel_momenta(kern, q0, q1, fast, sys)
        # a few roundings of the largest momentum terms
        scale = max(float(np.max(np.abs(a))) for a in want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 8.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "terms"])
    @pytest.mark.parametrize("p", [1, 4])
    def test_explicit_rule_zero_weights_give_the_kinetic_momenta(self, fpu, p, dense):
        # the explicit rule weights left nodes only: the right momenta take
        # all-zero weights and are the kinetic momenta
        sys = with_full_masses(fpu[0])
        kern = interval_kernel(QuadratureSpec.explicit(), build_time_grid(0.3, p, 1))
        assert not (kern.w_c1.any() or kern.V.right.any() or kern.W.right.any())
        rng = np.random.default_rng(p)
        n = sys.n_slow
        q0, q1 = rng.normal(size=(2, n))
        fast = rng.normal(size=(p + 1, n))
        _, p_s_plus, _, p_f_plus = _StepForm(kern, sys, dense).interval_momenta(q0, q1, fast)
        for got, d, M, h in ((p_s_plus, q1 - q0, sys.mass_slow, kern.dT),
                             (p_f_plus, fast[1:] - fast[:-1], sys.mass_fast, kern.dt)):
            assert np.all(np.abs(got - (d / h) @ M.T)
                          <= 4.0 * np.finfo(float).eps * (np.abs(d) / h) @ np.abs(M).T)


class TestTermsAgainstDense:
    """Each of the step's maps applied term by term equals its ``np.kron``
    materialization to a few roundings of its terms, and every point of a
    batch gets the bits it gets alone, by terms and dense."""

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)], ids=["single", "batched", "batched-2d"])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("system", sorted(FORM_SYSTEMS))
    @pytest.mark.parametrize("quad", FORM_RULES, ids=FORM_IDS)
    def test_terms_equal_dense(self, quad, system, p, batch):
        sys = full_masses(FORM_SYSTEMS[system]())
        kern = interval_kernel(quad, build_time_grid(0.3, p, 1))
        terms, dense = _StepForm(kern, sys, False), _StepForm(kern, sys, True)
        rng = np.random.default_rng(p)
        for name in MAPS:
            by_terms, matrix = getattr(terms, name), getattr(dense, name).matrix
            assert matrix.shape == by_terms.shape
            x = rng.standard_normal(batch + matrix.shape[1:])
            got, want = by_terms.apply(x), getattr(dense, name).apply(x)
            assert got.shape == want.shape == batch + matrix.shape[:1]
            # the sum of the magnitudes of each entry's terms
            floor = np.abs(x) @ np.abs(matrix).T
            assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * floor), name
            for form, y in ((terms, got), (dense, want)):
                for x_1, y_1 in zip(x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])):
                    assert np.array_equal(getattr(form, name).apply(x_1), y_1), name
        # no array of a map's shape is made on the term path
        assert not any("matrix" in vars(getattr(terms, name)) for name in MAPS)

    def test_slow_point_of_a_start_node_term_is_all_zero_in_points(self, fpu):
        # macro-node slow placement: V's term at the start node takes its
        # slow point from q0 alone, a zero row block of points
        kern = interval_kernel(QuadratureSpec.explicit(0.5, 0.5), build_time_grid(0.3, 3, 1))
        form = _StepForm(kern, fpu[0], True)
        n_s = fpu[0].n_slow
        assert not form.points.matrix[:n_s].any() and form.start.matrix[:n_s].any()
        assert form.points.matrix[n_s:2 * n_s].any()


class TestEvaluationErrors:
    def test_nonfinite_gradient_carries_node_index(self):
        def bad_grad(qf):
            return np.full(1, np.inf) if qf[0] > 0.5 else np.zeros(1)

        sys = scalar_system(W=lambda qf: 0.0, gradW=bad_grad)
        grid = build_time_grid(1.0, 4, 1)
        fast = np.linspace(0.0, 1.0, 5)[:, None]
        quad = QuadratureSpec.midpoint_midpoint()
        with pytest.raises(EvaluationError) as info:
            lagrangian_gradient(np.zeros(1), np.ones(1), fast, sys, quad, grid)
        assert info.value.node_index is not None
        assert info.value.node_index >= 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_first_bad_micro_interval_is_named(self, batched):
        # midpoints 0.125, 0.375, 0.625, 0.875: intervals 2 and 3 go bad
        sys = dataclasses.replace(
            scalar_system(gradV=lambda qs, qf: (np.zeros_like(qs), np.zeros_like(qf)),
                          W=lambda qf: 0.0, gradW=lambda qf: np.where(qf > 0.5, np.inf, 0.0)),
            batched=batched)
        grid = build_time_grid(1.0, 4, 1)
        fast = np.linspace(0.0, 1.0, 5)[:, None]
        with pytest.raises(EvaluationError) as info:
            interval_momenta(np.zeros(1), np.ones(1), fast, sys, QuadratureSpec.midpoint_midpoint(),
                             grid)
        assert info.value.node_index == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_values_whose_sum_overflows_pass(self):
        # the check sums each array first; a sum that overflowed is looked
        # into entry by entry
        _check_finite((np.full((4, 2), 1e308),), np.arange(4), "gradient")
        bad = np.full((4, 2), 1e308)
        bad[3, 1] = np.inf
        with pytest.raises(EvaluationError) as info:
            _check_finite((bad,), np.arange(4), "gradient")
        assert info.value.node_index == 3


class TestHessianErrors:
    @staticmethod
    def with_nan_hessian(sys, which, m):
        """``sys`` whose fast-fast Hessian (slow potential) or fast-potential
        Hessian is NaN at the batch row m, the midpoint of micro interval m."""
        def slow(qs, qf):
            H_ss, H_sf, H_ff = sys.slow_potential_hessian(qs, qf)
            H_ff = np.array(H_ff)
            H_ff[m] = np.nan
            return H_ss, H_sf, H_ff

        def fast(qf):
            H = np.array(sys.fast_potential_hessian(qf))
            H[m] = np.nan
            return H

        if which == "slow":
            return dataclasses.replace(sys, slow_potential_hessian=slow)
        return dataclasses.replace(sys, fast_potential_hessian=fast)

    @pytest.mark.parametrize("which", ["slow", "fast"])
    @pytest.mark.parametrize("p,linear", [(10, "dense"), (50, "structured")])
    def test_nonfinite_hessian_names_its_micro_interval(self, which, p, linear):
        sys, q0 = build_fpu()
        grid = build_time_grid(0.3, p, 1)
        quad = QuadratureSpec.midpoint_midpoint()
        bad = self.with_nan_hessian(sys, which, 3)
        assert _HeldMatrix().bind(bad, quad, grid).linear.name == linear
        with pytest.raises(EvaluationError, match="Hessian") as info:
            initial_step(q0, bad, quad, grid, SolverConfig())
        assert info.value.node_index == 3


    @pytest.mark.parametrize("block", ["H_ss", "H_sf"])
    def test_nonfinite_slow_or_border_block_names_its_micro_interval(self, block):
        sys, q0 = build_fpu()
        grid = build_time_grid(0.3, 50, 1)

        def slow(qs, qf):
            H = [np.array(a) for a in sys.slow_potential_hessian(qs, qf)]
            H[["H_ss", "H_sf"].index(block)][3, 0, 1] = np.inf
            return tuple(H)

        bad = dataclasses.replace(sys, slow_potential_hessian=slow)
        with pytest.raises(EvaluationError, match="slow-potential Hessian") as info:
            initial_step(q0, bad, QuadratureSpec.midpoint_midpoint(), grid, SolverConfig())
        assert info.value.node_index == 3


HESSIAN_SYSTEMS = {
    "fpu": build_fpu,
    "spring_ring": build_spring_ring,
    "fast_only": make_fast_only,
    "slow_only": make_slow_only,
}


class TestHessianBlocks:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("system", sorted(HESSIAN_SYSTEMS))
    def test_interval_sums_match_dense_contraction(self, system, quad, p):
        sys, q0 = HESSIAN_SYSTEMS[system]()
        kern = interval_kernel(quad, build_time_grid(0.3, p, 1))
        if quad.slow_placement is SlowPlacement.MACRO_NODES_ONLY and p > 1:
            # terms on the first interval only: the index path
            assert kern.V.per_interval is None
        rng = np.random.default_rng(p)
        q1 = q0.q_slow + rng.uniform(-0.1, 0.1, sys.n_slow)
        fast = q0.q_fast + rng.uniform(-0.1, 0.1, (p + 1, sys.n_fast))
        got = kern.hessian_blocks(q0.q_slow, q1, fast, sys)
        want = hessian_blocks_dense(kern, q0.q_slow, q1, fast, sys)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * np.max(np.abs(b), initial=0.0)

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    def test_distinct_row_sums_equal_every_row_summed(self, quad, p):
        # each distinct weight row is summed once and repeated rows are
        # handed out from that sum: the blocks equal, bit for bit, the sums
        # of every row taken term by term
        sys, q0 = build_fpu()
        kern = interval_kernel(quad, build_time_grid(0.3, p, 1))
        rng = np.random.default_rng(p)
        q1 = q0.q_slow + rng.uniform(-0.1, 0.1, sys.n_slow)
        fast = q0.q_fast + rng.uniform(-0.1, 0.1, (p + 1, sys.n_fast))
        ss, border, ff = kern.hessian_blocks(q0.q_slow, q1, fast, sys)

        Qs, QfV, QfW = kern.points(q0.q_slow, q1, fast)
        H_ss, H_sf, H_ff = sys.evaluate_batch("slow_potential_hessian", Qs, QfV)
        H_W = sys.evaluate_batch("fast_potential_hessian", QfW)

        def left(terms):
            return terms.gather[np.arange(terms.m.size), terms.m]

        def second(terms):
            w, u_l = terms.w, left(terms)
            u_r = 1.0 - u_l
            return np.stack([w * u_l * u_l, w * u_l * u_r, w * u_r * u_r])

        def per_interval(terms, rows, H):
            out = np.zeros((len(rows), p) + H.shape[1:])
            for t, m in enumerate(terms.m):
                out[:, m] += rows[:, t, None, None] * H[t]
            return out

        u_l = left(kern.V)
        u_r = 1.0 - u_l
        w_c0, w_c1 = kern.V.w * kern.c0[:, 0], kern.V.w * kern.c1[:, 0]
        s = per_interval(kern.V, np.stack([w_c0 * u_r, w_c1 * u_l, w_c0 * u_l, w_c1 * u_r]),
                         H_sf)
        want_border = s[:2].copy()
        want_border[0, :-1] += s[2, 1:]
        want_border[1, 1:] += s[3, :-1]
        want_ff = per_interval(kern.V, second(kern.V), H_ff) + per_interval(kern.W, second(kern.W),
                                                                           H_W)
        k = H_ss.shape[0]
        assert np.array_equal(ss, (kern.w_c0c1 @ H_ss.reshape(k, -1)).reshape(H_ss.shape[1:]))
        assert np.array_equal(border, want_border)
        assert np.array_equal(ff, want_ff)
        if quad.gamma_V == quad.gamma_W == 0.5:
            # u_l = u_r: one fast-fast sum, and the border's shifted pair
            # repeats the unshifted one
            assert len(kern.ff_V) == 1 and np.shares_memory(ff[0], ff[2])
            assert kern.border_rows[2:] == kern.border_rows[:2]


class TestDerivativeConsistencyProperty:
    @pytest.mark.parametrize("quad", [
        QuadratureSpec.midpoint_midpoint(),
        QuadratureSpec.trapezoidal_midpoint(1.0),
        QuadratureSpec(0.5, 1.0, 0.5, 0.0),
    ])
    def test_gradients_at_50_random_points(self, toy_coupled, quad):
        sys = toy_coupled
        grid = build_time_grid(0.2, 3, 1)
        rng = np.random.default_rng(21)
        h = 5e-6
        for _ in range(50):
            s0 = rng.uniform(-0.5, 0.5, 1)
            s1 = rng.uniform(-0.5, 0.5, 1)
            fast = rng.uniform(-0.3, 0.3, (4, 1))
            g_s0, g_s1, g_f = lagrangian_gradient(s0, s1, fast, sys, quad, grid)
            fd_s0 = central_diff(lambda x: discrete_lagrangian(x, s1, fast, sys, quad, grid), s0.copy(), h)
            fd_s1 = central_diff(lambda x: discrete_lagrangian(s0, x, fast, sys, quad, grid), s1.copy(), h)
            scale = 1.0 + max(np.max(np.abs(g_s0)), np.max(np.abs(g_s1)))
            assert np.max(np.abs(g_s0 - fd_s0)) < 1e-6 * scale
            assert np.max(np.abs(g_s1 - fd_s1)) < 1e-6 * scale
            for m in range(4):
                def f(x, m=m):
                    ff = fast.copy()
                    ff[m] = x
                    return discrete_lagrangian(s0, s1, ff, sys, quad, grid)
                fd = central_diff(f, fast[m].copy(), h)
                assert np.max(np.abs(g_f[m] - fd)) < 1e-6 * (1.0 + np.max(np.abs(g_f[m])))


class TestBatchedCallbacks:
    CALLBACKS = ("slow_potential_grad", "fast_potential_grad",
                 "slow_potential_hessian", "fast_potential_hessian")

    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_batched_callbacks_match_per_point(self, request, system):
        sys, q0 = request.getfixturevalue(system)
        assert sys.batched
        rng = np.random.default_rng(3)
        Qs = q0.q_slow + rng.uniform(-0.3, 0.3, (7, sys.n_slow))
        Qf = q0.q_fast + rng.uniform(-0.3, 0.3, (7, sys.n_fast))
        looped = dataclasses.replace(sys, batched=False)
        for name in self.CALLBACKS:
            args = (Qs, Qf) if name.startswith("slow") else (Qf,)
            batch = sys.evaluate_batch(name, *args)
            per_point = looped.evaluate_batch(name, *args)
            if not name.startswith("slow"):
                batch, per_point = (batch,), (per_point,)
            for b, ref in zip(batch, per_point):
                assert b.shape == ref.shape and b.shape[0] == 7
                assert np.max(np.abs(b - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))

    def test_loop_adapter_stacks_per_point_results(self, toy_coupled):
        sys = toy_coupled
        assert not sys.batched
        Qs = np.array([[0.1], [0.4], [-0.2]])
        Qf = np.array([[0.0], [0.3], [0.5]])
        g_s, g_f = sys.evaluate_batch("slow_potential_grad", Qs, Qf)
        for i in range(3):
            ref_s, ref_f = sys.slow_potential_grad(Qs[i], Qf[i])
            assert np.array_equal(g_s[i], ref_s) and np.array_equal(g_f[i], ref_f)
        H = sys.evaluate_batch("fast_potential_hessian", Qf)
        assert H.shape == (3, 1, 1)
