import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multirate import (
    MultirateSystem,
    QuadratureSpec,
    SlowPlacement,
    State,
    TimeGrid,
    build_time_grid,
    momenta_from_velocities,
    validate_system,
)


class TestTimeGrid:
    def test_single_micro_step_collapses_grids(self):
        grid = build_time_grid(0.3, 1, 2)
        assert grid.dt == grid.dT
        assert np.allclose(grid.micro_times(), [0.0, 0.3, 0.6])
        assert np.array_equal(grid.micro_times(), grid.macro_times())

    def test_micro_nodes(self):
        grid = build_time_grid(0.3, 5, 1)
        assert grid.dt == pytest.approx(0.06)
        assert np.allclose(grid.micro_times(), [0.0, 0.06, 0.12, 0.18, 0.24, 0.3])

    def test_shared_node_is_bit_exact(self):
        grid = build_time_grid(0.3, 3, 2)
        assert grid.micro_time(0, 3) == grid.micro_time(1, 0) == grid.macro_time(1) == 0.3
        # 0.3/7*7 != 0.3 in floating point; the shared node must still coincide
        grid7 = build_time_grid(0.3, 7, 4)
        for k in range(3):
            assert grid7.micro_time(k, 7) == grid7.micro_time(k + 1, 0)

    def test_dt_is_derived(self):
        grid = build_time_grid(0.4, 8, 3)
        assert grid.dt == grid.dT / grid.micro_per_macro
        assert "dt" not in vars(grid)

    @pytest.mark.parametrize("bad", [
        dict(dT=0.0, micro_per_macro=1, n_macro=1),
        dict(dT=-0.1, micro_per_macro=1, n_macro=1),
        dict(dT=0.1, micro_per_macro=0, n_macro=1),
        dict(dT=0.1, micro_per_macro=1, n_macro=0),
    ])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            build_time_grid(**bad)

    @pytest.mark.parametrize("bad", [
        dict(dT=float("inf")),
        dict(dT=float("nan")),
        dict(dT=0.1, t0=float("nan")),
        dict(dT=0.1, t0=float("inf")),
    ], ids=["dT-inf", "dT-nan", "t0-nan", "t0-inf"])
    def test_non_finite_step_or_start_rejected(self, bad):
        # an infinite dT used to construct and fail later as a non-finite
        # gradient, and t0=nan gave all-NaN node times
        with pytest.raises(ValueError):
            TimeGrid(micro_per_macro=2, n_macro=1, **bad)

    def test_zero_interval_grid_allowed_directly(self):
        grid = TimeGrid(dT=0.1, micro_per_macro=2, n_macro=0)
        assert grid.micro_times().shape == (1,)

    @pytest.mark.parametrize("grid", [
        TimeGrid(dT=0.3, micro_per_macro=7, n_macro=40, t0=1.7),
        TimeGrid(dT=0.1, micro_per_macro=1, n_macro=30),
        TimeGrid(dT=0.1, micro_per_macro=4, n_macro=0, t0=-2.5),
    ], ids=["t0", "p1", "empty"])
    def test_micro_times_equal_micro_time(self, grid):
        p = grid.micro_per_macro
        nodes = [grid.micro_time(k, m) for k in range(grid.n_macro) for m in range(p)]
        nodes.append(grid.macro_time(grid.n_macro))
        assert np.array_equal(grid.micro_times(), nodes)

    def test_micro_index_sharing(self):
        grid = build_time_grid(0.5, 4, 3)
        assert grid.micro_index(0, 4) == grid.micro_index(1, 0)

    @given(st.integers(0, 20), st.integers(0, 6), st.integers(1, 7))
    def test_equivalent_indices_bit_exact(self, k, m, p):
        grid = TimeGrid(dT=0.7, micro_per_macro=p, n_macro=25)
        m = min(m, p)
        if m == p:
            assert grid.micro_time(k, p) == grid.micro_time(k + 1, 0)
        else:
            t = grid.micro_time(k, m)
            assert np.isfinite(t)

    def test_out_of_range_micro_index(self):
        grid = build_time_grid(0.1, 3, 1)
        with pytest.raises(ValueError):
            grid.micro_time(0, 4)


class TestQuadratureSpec:
    # every coefficient row resolves to its named rule and back
    @pytest.mark.parametrize("alpha,gamma,name", [
        (0.0, 0.5, "midpoint"),
        (0.5, 0.5, "midpoint"),
        (1.0, 0.5, "midpoint"),
        (0.5, 0.0, "trapezoidal"),
        (0.5, 1.0, "trapezoidal"),
        (1.0, 1.0, "left-rectangle"),
        (0.0, 0.0, "left-rectangle"),
        (1.0, 0.0, "right-rectangle"),
        (0.0, 1.0, "right-rectangle"),
    ])
    def test_classification(self, alpha, gamma, name):
        assert QuadratureSpec.classify_rule(alpha, gamma) == name

    def test_named_constructors_round_trip(self):
        assert QuadratureSpec.midpoint_midpoint().slow_rule == "midpoint"
        assert QuadratureSpec.midpoint_midpoint().fast_rule == "midpoint"
        q = QuadratureSpec.trapezoidal_midpoint(0.5)
        assert q.slow_rule == "trapezoidal"
        assert q.fast_rule == "midpoint"
        q = QuadratureSpec.trapezoidal_midpoint(1.0)
        assert q.slow_rule == "left-rectangle"
        q = QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0)
        assert q.slow_rule == q.fast_rule == "left-rectangle"

    def test_coefficients_validated(self):
        with pytest.raises(ValueError):
            QuadratureSpec(alpha_V=1.5)
        with pytest.raises(ValueError):
            QuadratureSpec(gamma_W=-0.1)

    def test_explicit_solvable(self):
        assert QuadratureSpec.explicit().explicit_solvable
        assert not QuadratureSpec.midpoint_midpoint().explicit_solvable
        # macro-node slow placement with midpoint fast stays implicit in the fast part
        q = QuadratureSpec(1.0, 1.0, 0.5, 0.5, SlowPlacement.MACRO_NODES_ONLY)
        assert not q.explicit_solvable


class TestMultirateSystem:
    def test_asymmetric_mass_rejected(self):
        M = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MultirateSystem(2, 1, M, np.eye(1),
                            lambda qs, qf: 0.0, lambda qs, qf: (np.zeros(2), np.zeros(1)),
                            lambda qf: 0.0, lambda qf: np.zeros(1))

    def test_indefinite_mass_rejected(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            MultirateSystem(2, 1, M, np.eye(1),
                            lambda qs, qf: 0.0, lambda qs, qf: (np.zeros(2), np.zeros(1)),
                            lambda qf: 0.0, lambda qf: np.zeros(1))

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-point"])
    def test_evaluate_batch_of_the_slow_potential_is_one_array(self, fpu, batched):
        # the slow potential is scalar-valued: k points give one (k,) array,
        # not a tuple as the slow gradient and Hessian do
        sys = dataclasses.replace(fpu[0], batched=batched)
        rng = np.random.default_rng(0)
        qs, qf = rng.normal(size=(4, sys.n_slow)), rng.normal(size=(4, sys.n_fast))
        values = sys.evaluate_batch("slow_potential", qs, qf)
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        each = [float(sys.slow_potential(a, b)) for a, b in zip(qs, qf)]
        assert np.allclose(values, each, rtol=1e-14, atol=0.0)

    def test_momenta_from_velocities(self, fpu):
        sys, _ = fpu
        ps, pf = momenta_from_velocities(sys, [1.0, 2.0, 3.0], [0.5, 0.0, -1.0])
        assert np.allclose(ps, [1.0, 2.0, 3.0])
        assert np.allclose(pf, [0.5, 0.0, -1.0])


class TestValidateSystem:
    def _quadratic_system(self, flip_sign=False):
        w2 = 2500.0
        sgn = -1.0 if flip_sign else 1.0
        return MultirateSystem(
            1, 2, np.eye(1), np.eye(2),
            lambda qs, qf: 0.5 * float(qs @ qs),
            lambda qs, qf: (qs, np.zeros(2)),
            lambda qf: 0.5 * w2 * float(qf @ qf),
            lambda qf: sgn * w2 * qf,
        )

    def test_quadratic_exact(self):
        sys = self._quadratic_system()
        probes = [State([0.4], [0.1, -0.2], [0.0], [0.0, 0.0])]
        rep = validate_system(sys, probes, h=1e-6)
        assert rep.passed
        assert rep.max_deviation < 1e-9

    def test_fpu_initial_state(self, fpu):
        sys, q0 = fpu
        rep = validate_system(sys, [q0], h=1e-6)
        assert rep.passed
        assert rep.max_deviation < 1e-5

    def test_sign_flip_detected(self):
        sys = self._quadratic_system(flip_sign=True)
        probes = [State([0.4], [0.1, -0.2], [0.0], [0.0, 0.0])]
        rep = validate_system(sys, probes, h=1e-6)
        assert not rep.passed
        # deviation is about 2|grad| relative to its own scale
        assert rep.probes[0].deviation_fast > 0.5

    def test_nonfinite_potential_is_diagnosed(self):
        sys = MultirateSystem(
            1, 1, np.eye(1), np.eye(1),
            lambda qs, qf: float("inf"),
            lambda qs, qf: (np.zeros(1), np.zeros(1)),
            lambda qf: 0.0, lambda qf: np.zeros(1))
        rep = validate_system(sys, [State([0.0], [0.0], [0.0], [0.0])], h=1e-6)
        assert not rep.passed
        assert rep.probes[0].note != ""

    def test_bad_step_rejected(self, fpu):
        sys, q0 = fpu
        with pytest.raises(ValueError):
            validate_system(sys, [q0], h=0.0)

    @pytest.mark.parametrize("probes,h", [("none", 1e-6), ("one", float("inf")),
                                          ("one", float("nan"))])
    def test_no_probes_or_non_finite_step_rejected(self, fpu, probes, h):
        # a report without probes or with an infinite step holds NaN
        sys, q0 = fpu
        with pytest.raises(ValueError):
            validate_system(sys, [] if probes == "none" else [q0], h=h)
