import numpy as np
import pytest

from multirate import (
    FpuConfig,
    IntegratorMode,
    QuadratureSpec,
    SolverConfig,
    SpringRingConfig,
    State,
    build_fpu,
    build_spring_ring,
    build_time_grid,
    integrate,
    validate_system,
)
from multirate.errors import EvaluationError, IntegrationError

from _oracles import central_diff, fancy_index_ring


def random_probes(q0, n, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(State(
            q0.q_slow + rng.uniform(-scale, scale, q0.q_slow.size),
            q0.q_fast + rng.uniform(-scale, scale, q0.q_fast.size),
            np.zeros(q0.p_slow.size), np.zeros(q0.p_fast.size)))
    return out


class TestFpu:
    def test_default_configuration(self, fpu):
        sys, q0 = fpu
        assert sys.n_slow == sys.n_fast == 3
        assert np.array_equal(sys.mass_slow, np.eye(3))
        assert np.array_equal(sys.mass_fast, np.eye(3))
        assert np.allclose(q0.q_slow, [1.0, 0.0, 0.0])
        assert np.allclose(q0.q_fast, [1.0 / 50.0, 0.0, 0.0])
        assert np.allclose(q0.p_slow, [1.0, 0.0, 0.0])
        assert np.allclose(q0.p_fast, [1.0, 0.0, 0.0])

    def test_stiff_potential_value(self, fpu):
        sys, _ = fpu
        qf = np.array([1.0 / 50.0, 0.0, 0.0])
        assert sys.fast_potential(qf) == pytest.approx(1250.0 * (1.0 / 50.0) ** 2)
        assert sys.fast_potential(qf) == pytest.approx(0.5)

    def test_quartic_potential_even(self, fpu):
        sys, _ = fpu
        rng = np.random.default_rng(0)
        for _ in range(20):
            qs = rng.normal(size=3)
            qf = rng.normal(size=3)
            assert sys.slow_potential(-qs, -qf) == pytest.approx(sys.slow_potential(qs, qf), rel=1e-12)

    def test_stiff_potential_ignores_slow(self, fpu):
        sys, _ = fpu
        qf = np.array([0.3, -0.1, 0.2])
        assert sys.fast_potential(qf) == sys.fast_potential(qf.copy())

    def test_gradients_at_initial_state(self, fpu):
        sys, q0 = fpu
        rep = validate_system(sys, [q0], h=1e-6)
        assert rep.passed

    def test_gradients_at_random_probes(self, fpu):
        sys, q0 = fpu
        rep = validate_system(sys, random_probes(q0, 100, seed=1), h=1e-6)
        assert rep.passed

    def test_hessians_match_finite_differences(self, fpu):
        sys, q0 = fpu
        qs = q0.q_slow + 0.1
        qf = q0.q_fast - 0.05
        H_ss, H_sf, H_ff = sys.slow_potential_hessian(qs, qf)
        h = 1e-6
        for i in range(3):
            fd_row_s = central_diff(lambda x: sys.slow_potential_grad(x, qf)[0][i], qs.copy(), h)
            assert np.allclose(H_ss[i], fd_row_s, atol=1e-7)
            fd_row_f = central_diff(lambda x: sys.slow_potential_grad(qs, x)[0][i], qf.copy(), h)
            assert np.allclose(H_sf[i], fd_row_f, atol=1e-7)
            fd_ff = central_diff(lambda x: sys.slow_potential_grad(qs, x)[1][i], qf.copy(), h)
            assert np.allclose(H_ff[i], fd_ff, atol=1e-7)

    def test_oscillatory_energy_starts_at_one(self, fpu):
        sys, q0 = fpu
        I = sys.oscillatory_energy(q0.q_fast, sys.mass_fast_inv @ q0.p_fast)
        assert I[0] == pytest.approx(1.0)
        assert np.allclose(I[1:], 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FpuConfig(l=0)
        with pytest.raises(ValueError):
            FpuConfig(omega_sq=-1.0)
        with pytest.raises(ValueError):
            FpuConfig(masses=np.zeros(6))

    def test_other_chain_length(self):
        sys, q0 = build_fpu(FpuConfig(l=5))
        assert sys.n_slow == 5
        rep = validate_system(sys, random_probes(q0, 10, seed=2), h=1e-6)
        assert rep.passed


class TestSpringRing:
    def test_default_configuration(self, spring_ring):
        sys, q0 = spring_ring
        assert sys.n_slow == sys.n_fast == 9
        assert np.allclose(np.diag(sys.mass_slow), 2.0)
        qf = np.array([0.5, -1.0, 0.25] * 3)
        assert sys.fast_potential(qf) == pytest.approx(2000.0 * float(qf @ qf))

    def test_initial_position_of_first_mass(self, spring_ring):
        _, q0 = spring_ring
        assert np.allclose(q0.q_slow[:3], [0.0, -2.0, -2.0])

    def test_rotation_invariance_about_gravity_axis(self, spring_ring):
        sys, q0 = spring_ring
        for theta in (0.3, 1.2, 2.9):
            c, s = np.cos(theta), np.sin(theta)
            R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            qs = (q0.q_slow.reshape(3, 3) @ R.T).ravel()
            qf = (q0.q_fast.reshape(3, 3) @ R.T).ravel()
            assert sys.slow_potential(qs, qf) == pytest.approx(
                sys.slow_potential(q0.q_slow, q0.q_fast), rel=1e-12)
            assert sys.fast_potential(qf) == pytest.approx(
                sys.fast_potential(q0.q_fast), rel=1e-12)

    def test_gravity_term(self, spring_ring):
        sys, _ = spring_ring
        # moving mass 1 from the origin to z = -1 changes the potential by
        # gravity (-m g dz = +2*9.81), the two adjacent quartic ring springs
        # (2 * eps/4) and the soft radial spring (omega1/2)
        qs = np.zeros(9)
        qf = np.zeros(9)
        base = sys.slow_potential(qs, qf)
        qs2 = qs.copy()
        qs2[2] -= 1.0
        shifted = sys.slow_potential(qs2, qf)
        assert shifted - base == pytest.approx(2.0 * 9.81 + 2 * (5.0 / 4.0) + 1.0, rel=1e-12)

    def test_gradients_at_random_probes(self, spring_ring):
        sys, q0 = spring_ring
        rep = validate_system(sys, random_probes(q0, 100, seed=3), h=1e-6)
        assert rep.passed

    def test_hessians_match_finite_differences(self, spring_ring):
        sys, q0 = spring_ring
        rng = np.random.default_rng(4)
        qs = q0.q_slow + rng.uniform(-0.1, 0.1, 9)
        qf = q0.q_fast + rng.uniform(-0.1, 0.1, 9)
        H_ss, H_sf, H_ff = sys.slow_potential_hessian(qs, qf)
        h = 1e-6
        fd_ss = np.array([central_diff(lambda x: sys.slow_potential_grad(x, qf)[0][i], qs.copy(), h)
                          for i in range(9)])
        fd_sf = np.array([central_diff(lambda x: sys.slow_potential_grad(qs, x)[0][i], qf.copy(), h)
                          for i in range(9)])
        fd_ff = np.array([central_diff(lambda x: sys.slow_potential_grad(qs, x)[1][i], qf.copy(), h)
                          for i in range(9)])
        assert np.max(np.abs(H_ss - fd_ss)) < 1e-6
        assert np.max(np.abs(H_sf - fd_sf)) < 1e-6
        assert np.max(np.abs(H_ff - fd_ff)) < 1e-6

    def test_initial_angular_momentum_matches_direct_sum(self, spring_ring):
        sys, q0 = spring_ring
        # direct sum of m_i q_i x v_i over all six masses
        Q = np.empty((6, 3))
        V = np.empty((6, 3))
        Q[0::2] = q0.q_slow.reshape(3, 3)
        Q[1::2] = q0.q_fast.reshape(3, 3)
        V[0::2] = (sys.mass_slow_inv @ q0.p_slow).reshape(3, 3)
        V[1::2] = (sys.mass_fast_inv @ q0.p_fast).reshape(3, 3)
        L = sum(2.0 * np.cross(Q[i], V[i]) for i in range(6))
        qp = sum(np.cross(q, p) for q, p in zip(
            np.vstack([q0.q_slow.reshape(3, 3), q0.q_fast.reshape(3, 3)]),
            np.vstack([q0.p_slow.reshape(3, 3), q0.p_fast.reshape(3, 3)])))
        assert np.allclose(L, qp, rtol=1e-12)
        assert np.isfinite(L[2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpringRingConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SpringRingConfig(radius=-1.0)

    def test_other_ring_size(self):
        sys, q0 = build_spring_ring(SpringRingConfig(l=4))
        assert sys.n_slow == 12
        rep = validate_system(sys, random_probes(q0, 10, seed=5), h=1e-6)
        assert rep.passed


class TestRingEdgeMap:
    """The ring's slow-potential callbacks take the ring edges from one
    incidence product; written by fancy indexing instead
    (``_oracles.fancy_index_ring``), they give the same bits."""

    @pytest.mark.parametrize("l", [1, 3, 4], ids=["l1", "l3", "l4"])
    @pytest.mark.parametrize("where", ["reference", "batched"])
    def test_callbacks_equal_fancy_indexing(self, l, where):
        # l = 1: two masses, whose two ring edges join the same pair
        cfg = SpringRingConfig(l=l)
        sys, q0 = build_spring_ring(cfg)
        q_s, q_f = q0.q_slow, q0.q_fast
        if where == "batched":
            rng = np.random.default_rng(l)
            q_s = q_s + rng.uniform(-1.0, 1.0, (64, 3 * l))
            q_f = q_f + rng.uniform(-1.0, 1.0, (64, 3 * l))
        potential, grad, hessian = fancy_index_ring(cfg)
        pairs = [(sys.slow_potential(q_s, q_f), potential(q_s, q_f))]
        pairs += zip(sys.slow_potential_grad(q_s, q_f), grad(q_s, q_f))
        pairs += zip(sys.slow_potential_hessian(q_s, q_f), hessian(q_s, q_f))
        assert len(pairs) == 6
        for got, want in pairs:
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_slow_start_names_micro_interval(self, spring_ring, value):
        # a non-finite coordinate reaches every edge of the incidence
        # product, but the step still fails at its first slow gradient
        sys, q0 = spring_ring
        q_slow = q0.q_slow.copy()
        q_slow[4] = value
        with pytest.raises(IntegrationError) as info:
            integrate(State(q_slow, q0.q_fast, q0.p_slow, q0.p_fast), sys,
                      QuadratureSpec.explicit(), build_time_grid(0.01, 10, 3), SolverConfig(),
                      IntegratorMode.EXPLICIT)
        assert info.value.step_index == 0
        cause = info.value.cause
        assert isinstance(cause, EvaluationError) and "slow-potential" in str(cause)
        assert cause.node_index == 0
