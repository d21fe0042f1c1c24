import dataclasses
import itertools
import math
import os
import subprocess
from sys import executable

import numpy as np
import pytest

from multirate import (
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    IntegrationError,
    IntegratorMode,
    MultirateSystem,
    QuadratureSpec,
    SlowPlacement,
    SolverConfig,
    State,
    TimeGrid,
    Trajectory,
    build_fpu,
    build_time_grid,
    explicit_macro_step,
    initial_step,
    integrate,
    interval_momenta,
    macro_flow_map,
    macro_step,
    verify_trajectory,
)
from multirate import discretization, schemes, solver, systems
from multirate.discretization import _Workspace, interval_kernel
from multirate.systems import FpuConfig, SpringRingConfig

from multirate.solver import (
    _VERIFY_CHUNK,
    _apply_blocks,
    _assemble_jacobian,
    _block_matvec,
    _eliminate,
    _factor_blocks,
    _jacobian_blocks,
)

from _oracles import (
    block_mass_inv,
    explicit_step_position_form,
    explicit_step_reference,
    full_grad_potential,
    implicit_midpoint_trajectory,
    momentum_mismatch_residual,
    oracle_record,
    pq_running_sums,
    symplectic_euler_momentum_first,
)
from conftest import count_points, make_coupled_toy, toy_state

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


def stacked(q_slow_next, fast_nodes):
    """Stacked unknowns of a step from its next slow node and fast nodes
    1..p (the layout of ``solver._step_nodes``)."""
    return np.concatenate([q_slow_next, np.ravel(fast_nodes)])


def step_jacobian(start, x, sys, quad, grid):
    """Dense Newton matrix of the step from ``start`` at x, as the solver
    builds it: analytic with Hessians, finite differences without."""
    residual = solver._step_residual(start, sys, quad, grid)
    step = solver._HeldMatrix().bind(sys, quad, grid)
    linear, jacobian = step.linear, step.jacobian
    J = jacobian(start, residual, x, residual(x)[0], _Workspace())
    return _assemble_jacobian(J) if linear is solver._STRUCTURED else J


def free_state():
    return State([0.0], [1.0], [2.0], [1.0])


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tolerance accepted the drift guess with no iteration
        with pytest.raises(ValueError, match="newton_tol"):
            SolverConfig(newton_tol=tol)


class TestResidual:
    def test_free_particle_drift_residual_vanishes(self, free_particle, config):
        grid = build_time_grid(0.5, 4, 2)
        step, _ = initial_step(free_state(), free_particle, MIDMID, grid, config)
        # exact continuation of the drift
        v_s = free_particle.mass_slow_inv @ step.p_slow_end
        v_f = free_particle.mass_fast_inv @ step.p_fast_end
        s2 = step.q_slow_end + 0.5 * v_s
        fast = step.fast[-1] + grid.dt * np.arange(1, 5)[:, None] * v_f
        res = solver._step_residual(step.end_state(), free_particle, MIDMID, grid)(
            stacked(s2, fast))[0]
        assert np.max(np.abs(res)) < 1e-14

    def test_converged_step_residual_below_tolerance(self, fpu):
        sys, q0 = fpu
        cfg = SolverConfig(newton_tol=1e-9)
        grid = build_time_grid(0.3, 5, 2)
        s0, _ = initial_step(q0, sys, MIDMID, grid, cfg)
        s1, stats = macro_step(s0, sys, MIDMID, grid, cfg)
        assert stats.residual_norm < 1e-9
        res = solver._step_residual(s0.end_state(), sys, MIDMID, grid)(
            stacked(s1.q_slow_end, s1.fast[1:]))[0]
        assert np.max(np.abs(res)) < 1e-9

    def test_local_linearity_of_residual(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        s0, _ = initial_step(q0, sys, MIDMID, grid, config)
        s1, _ = macro_step(s0, sys, MIDMID, grid, config)
        x = stacked(s1.q_slow_end, s1.fast[1:])
        residual = solver._step_residual(s0.end_state(), sys, MIDMID, grid)

        def norm_at(delta):
            xp = x.copy()
            xp[4] += delta
            return np.max(np.abs(residual(xp)[0]))

        r1, r2 = norm_at(1e-4), norm_at(5e-5)
        assert r1 / r2 == pytest.approx(2.0, rel=0.05)


# rules of the residual oracle: V and W at the same fast points with the same
# weights (the kernel's shared path) or not, one or two terms per interval,
# slow potential on the micro grid or at the macro nodes
RESIDUAL_RULES = {
    "midpoint-midpoint": QuadratureSpec.midpoint_midpoint(),
    "trapezoidal-midpoint": QuadratureSpec.trapezoidal_midpoint(1.0),
    "trapezoidal-trapezoidal-0": QuadratureSpec.trapezoidal_trapezoidal(0.0, 0.0),
    "trapezoidal-trapezoidal-half": QuadratureSpec.trapezoidal_trapezoidal(0.5, 0.5),
    "trapezoidal-trapezoidal-1": QuadratureSpec.trapezoidal_trapezoidal(1.0, 1.0),
    "macro-nodes": QuadratureSpec.explicit(0.5, 0.5),
}


def with_full_masses(sys: MultirateSystem) -> MultirateSystem:
    """The same potentials with non-diagonal mass matrices."""
    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((2, sys.n_slow, sys.n_slow))
    return dataclasses.replace(sys, mass_slow=A @ A.T + 3.0 * np.eye(sys.n_slow),
                               mass_fast=B @ B.T + 3.0 * np.eye(sys.n_fast))


class TestResidualOracle:
    """The residual in equation-weight form against the differences of the
    kernel's momenta (``_oracles.momentum_mismatch_residual``)."""

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("masses", ["diagonal", "full"])
    @pytest.mark.parametrize("rule", sorted(RESIDUAL_RULES))
    def test_matches_momentum_differences(self, fpu, rule, masses, p):
        sys, q0 = fpu
        if masses == "full":
            sys = with_full_masses(sys)
        quad = RESIDUAL_RULES[rule]
        grid = build_time_grid(0.3, p, 1)
        residual = solver._step_residual(q0, sys, quad, grid)
        rng = np.random.default_rng(7)
        x0 = solver._drift_guess(q0, sys, grid)
        X = x0 + 1e-2 * rng.standard_normal((3, x0.size))
        for x in (X[0], X):
            F = residual(x)[0]
            F_ref, scale = momentum_mismatch_residual(interval_kernel(quad, grid), q0, x, sys)
            assert F.shape == x.shape
            # a few roundings of the largest momentum terms apart
            assert np.max(np.abs(F - F_ref)) <= 4.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("p", [10, 50], ids=["dense", "terms"])
    def test_one_del_step_builds_the_momenta_once(self, p, monkeypatch):
        sys, q0 = build_fpu(FpuConfig(l=3))
        grid = build_time_grid(0.3, p, 2)
        cfg = SolverConfig(newton_tol=1e-9)
        first, _ = initial_step(q0, sys, MIDMID, grid, cfg)
        calls = {"record": 0, "residual": 0}
        points = {"slow": [], "fast": []}

        def slow(qs, qf):
            points["slow"].append(qf)
            return sys.slow_potential_grad(qs, qf)

        def fast(qf):
            points["fast"].append(qf)
            return sys.fast_potential_grad(qf)

        record_momenta = discretization._StepForm.record_momenta

        def counted_record(*args):
            calls["record"] += 1
            return record_momenta(*args)

        step_residual = solver._step_residual

        def counted_step_residual(*args):
            residual = step_residual(*args)

            def counted(x):
                calls["residual"] += 1
                return residual(x)
            return counted

        monkeypatch.setattr(discretization._StepForm, "record_momenta", counted_record)
        monkeypatch.setattr(solver, "_step_residual", counted_step_residual)
        counted_sys = dataclasses.replace(sys, slow_potential_grad=slow, fast_potential_grad=fast)
        step, stats = macro_step(first, counted_sys, MIDMID, grid, cfg)
        # 33 unknowns below the size rule, 153 from it on: at either size
        # the record's momenta are the record map of the accepted
        # residual's stacked vector, applied once
        assert solver._small(sys, grid) == (p == 10)
        assert calls["record"] == 1
        assert calls["residual"] == stats.newton_iters + 1
        assert len(points["slow"]) == len(points["fast"]) == calls["residual"]
        # midpoint-midpoint: the fast callback gets the slow callback's points
        assert all(f is s for s, f in zip(points["slow"], points["fast"]))
        ref, _ = macro_step(first, sys, MIDMID, grid, cfg)
        assert np.array_equal(step.p_fast, ref.p_fast)
        assert np.array_equal(step.p_slow, ref.p_slow)


# every family of QUADRATURES, a macro-node rule with a slow term at either
# end and a rule whose V and W evaluate at different points
FIXED_MAP_RULES = QUADRATURES + [QuadratureSpec.explicit(0.5, 0.5),
                                 QuadratureSpec(0.5, 0.5, 0.5, 1.0)]
FIXED_MAP_IDS = QUADRATURE_IDS + ["explicit-half", "midpoint-trapezoidal"]

# (alpha_V, alpha_W, gamma_W) of macro-node rules, as in TestIncrementForm.RULES
EXPLICIT_RULES = pytest.mark.parametrize(
    "rule", [(1.0, 1.0, 1.0), (0.5, 0.5, 1.0), (0.3, 0.8, 0.0)],
    ids=["1-1-1", "half-half-1", "0.3-0.8-0"])


def explicit_rule(rule) -> QuadratureSpec:
    alpha_v, alpha_w, gamma_w = rule
    return QuadratureSpec(alpha_v, 1.0, alpha_w, gamma_w, SlowPlacement.MACRO_NODES_ONLY)


def step_oracle_record(step, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid):
    """``_oracles.oracle_record`` of the interval of ``step``."""
    return oracle_record(interval_kernel(quad, grid), step.q_slow_start, step.q_slow_end,
                         step.fast, sys)


def record_floor(record, G):
    """The rounding floor of each entry of ``record G``: its terms'
    magnitudes, the kinetic momentum of one node difference and the
    weighted gradients, from the record map made dense here."""
    return np.abs(discretization._Map(record.shape, record.terms, True).matrix).dot(np.abs(G))


class TestFixedMaps:
    """A step is a few fixed linear maps around the callbacks
    (``discretization._StepForm``), dense matrices below
    ``_STRUCTURED_MIN_UNKNOWNS`` unknowns: F against the momentum
    differences, the Newton matrix against the structured path's blocks,
    the record's momenta against the oracle's full formula and the p/q
    maps' T against its running sums, each to rounding, and every point of
    a batch bit for bit as alone.  These maps are made once per
    ``integrate`` call, and every step records by one application of the
    record map."""

    @staticmethod
    def points(request, system, quad, p):
        sys, q0 = request.getfixturevalue(system)
        sys = with_full_masses(sys)
        grid = build_time_grid(0.05, p, 1)
        assert solver._small(sys, grid)
        x0 = solver._drift_guess(q0, sys, grid)
        X = x0 + 1e-2 * np.random.default_rng(p).standard_normal((3, x0.size))
        return sys, q0, grid, X

    @pytest.mark.parametrize("p", [1, 4, 10])
    @pytest.mark.parametrize("quad", FIXED_MAP_RULES, ids=FIXED_MAP_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_residual_matches_momentum_differences(self, request, system, quad, p):
        sys, q0, grid, X = self.points(request, system, quad, p)
        residual = solver._step_residual(q0, sys, quad, grid)
        F = residual(X)[0]
        for x, f in zip(X, F):
            assert np.array_equal(residual(x)[0], f)
        F_ref, scale = momentum_mismatch_residual(interval_kernel(quad, grid), q0, X, sys)
        # a few roundings of the largest momentum terms apart: one product
        # sums the kinetic terms of two node differences with the forces
        assert np.max(np.abs(F - F_ref)) <= 8.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("p", [1, 4, 10])
    @pytest.mark.parametrize("quad", FIXED_MAP_RULES, ids=FIXED_MAP_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_jacobian_matches_blocks(self, request, system, quad, p):
        sys, q0, grid, X = self.points(request, system, quad, p)
        residual = solver._step_residual(q0, sys, quad, grid)
        step = solver._HeldMatrix().bind(sys, quad, grid)
        linear, jacobian = step.linear, step.jacobian
        assert linear is solver._DENSE
        for x in X:
            J = jacobian(q0, residual, x, residual(x)[0], _Workspace())
            J_ref = _assemble_jacobian(_jacobian_blocks(
                q0.q_slow, *solver._step_nodes(q0, x, sys, p), sys, quad, grid))
            # the kinetic part, which the blocks also hold exactly
            kinetic = np.abs(step_jacobian(q0, x, potential_free(sys), quad, grid))
            assert np.array_equal(J == 0.0, J_ref == 0.0)
            assert np.all(np.abs(J - J_ref) <= 4.0 * np.finfo(float).eps
                          * (np.abs(J_ref) + kinetic))

    @pytest.mark.parametrize("p", [1, 4, 10])
    @pytest.mark.parametrize("quad", FIXED_MAP_RULES, ids=FIXED_MAP_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_record_matches_full_momenta(self, request, system, quad, p):
        # the record's momenta as one product of the residual's stacked
        # vector G, against the oracle's momenta from the gradients at x
        sys, q0, grid, X = self.points(request, system, quad, p)
        held = solver._HeldMatrix()
        residual = solver._step_residual(q0, sys, quad, grid, held)
        form = held.bind(sys, quad, grid).form
        assert form.record.dense
        kern = interval_kernel(quad, grid)
        for x in X:
            G = residual(x)[1]
            p_fast, p_slow = form.record_momenta(G)
            q1, fast = solver._step_nodes(q0, x, sys, p)
            ref_fast, ref_slow, _ = oracle_record(kern, q0.q_slow, q1, fast, sys)
            got = np.concatenate([p_slow.ravel(), p_fast.ravel()])
            want = np.concatenate([ref_slow.ravel(), ref_fast.ravel()])
            assert np.all(np.abs(got - want)
                          <= RECORD_ROUNDINGS * np.finfo(float).eps * record_floor(form.record, G))

    @pytest.mark.parametrize("p", [1, 4, 10])
    @EXPLICIT_RULES
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_explicit_record_matches_full_momenta(self, request, system, rule, p):
        # the explicit step's record as one product of its stacked vector G,
        # against the oracle's momenta from the gradients at the step's nodes
        sys, q0, grid, _ = self.points(request, system, MIDMID, p)
        quad, held = explicit_rule(rule), solver._HeldMatrix()
        step = solver._explicit_step(0, q0, sys, quad, grid, held)
        bound = held.step
        ref_fast, ref_slow, grads = step_oracle_record(step, sys, quad, grid)
        # G holds each term's gradient, gathered by its node where needed
        for got, want in zip(bound.grads, grads):
            assert np.array_equal(got, want)
        floor = record_floor(bound.form.record, bound.G)
        got = np.concatenate([step.p_slow.ravel(), step.p_fast.ravel()])
        want = np.concatenate([ref_slow.ravel(), ref_fast.ravel()])
        assert np.all(np.abs(got - want) <= RECORD_ROUNDINGS * np.finfo(float).eps * floor)

    @EXPLICIT_RULES
    def test_large_explicit_steps_record_by_the_terms(self, spring_ring, rule, monkeypatch):
        # 189 unknowns: the record map is applied term by term and never
        # made dense, its momenta are the oracle's from the term gradients
        # to rounding, and the positions are those of the small path's
        # recurrence
        sys, q0 = spring_ring
        quad, grid = explicit_rule(rule), build_time_grid(0.01, 20, 5)
        assert not solver._small(sys, grid)
        held, records = solver._HeldMatrix(), []
        for k in range(grid.n_macro):
            step = solver._explicit_step(k, records[-1].end_state() if records else q0, sys,
                                         quad, grid, held)
            record = held.step.form.record
            assert not record.dense and "matrix" not in vars(record)
            ref_fast, ref_slow, _ = step_oracle_record(step, sys, quad, grid)
            got = np.concatenate([step.p_slow.ravel(), step.p_fast.ravel()])
            want = np.concatenate([ref_slow.ravel(), ref_fast.ravel()])
            floor = record_floor(record, held.step.G)
            assert np.all(np.abs(got - want) <= RECORD_ROUNDINGS * np.finfo(float).eps * floor)
            records.append(step)
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", math.inf)
        small = solver._explicit_step(0, q0, sys, quad, grid)
        assert np.array_equal(small.q_slow_end, records[0].q_slow_end)
        assert np.array_equal(small.fast, records[0].fast)

    @pytest.mark.parametrize("size", ["dense", "terms"])
    @pytest.mark.parametrize("p", [1, 4, 10])
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_transform_matches_running_sums(self, request, system, p, size, monkeypatch):
        # T and |T| of the p/q maps, dense below the size rule and as terms
        # from it on, against the oracle's running sums
        sys, q0, grid, _ = self.points(request, system, MIDMID, p)
        if size == "terms":
            monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)
        form = solver._HeldMatrix().bind(sys, MIDMID, grid).form
        assert form.T.dense == (size == "dense")
        F = np.random.default_rng(p).standard_normal((3, form.N))
        for absolute in (False, True):
            for f in F:
                got = form.transform(f, absolute)
                # a sum of at most p + n_fast products per entry, in another order
                n_terms = p + sys.n_fast
                bound = n_terms * np.finfo(float).eps * pq_running_sums(sys, grid, np.abs(f), True)
                assert np.all(np.abs(got - pq_running_sums(sys, grid, f, absolute)) <= bound)

    @pytest.mark.parametrize("p", [10, 50], ids=["dense", "terms"])
    def test_pq_integrate_builds_its_maps_once(self, fpu, p, monkeypatch):
        # T and |T| are among the holder's fixed maps, made once per
        # integrate call at either size, dense below the size rule
        sys, q0 = fpu
        grid = build_time_grid(0.3, p, 4)
        forms, StepForm = [], discretization._StepForm

        class CountedStepForm(StepForm):
            def __init__(self, *args):
                super().__init__(*args)
                forms.append(self)

        monkeypatch.setattr(solver, "_StepForm", CountedStepForm)
        for _ in range(2):
            _, stats = integrate(q0, sys, MIDMID, grid, SolverConfig(newton_tol=1e-9),
                                 IntegratorMode.CLOSED_FORM_PQ)
            assert stats.n_steps == grid.n_macro
        assert [form.T.dense for form in forms] == [solver._small(sys, grid)] * 2

    @pytest.mark.parametrize("p", [10, 50], ids=["dense", "terms"])
    @pytest.mark.parametrize("mode,quad", [
        (IntegratorMode.IMPLICIT_DEL, MIDMID), (IntegratorMode.CLOSED_FORM_PQ, MIDMID),
        (IntegratorMode.EXPLICIT, QuadratureSpec.explicit()),
    ], ids=["del", "pq", "explicit"])
    def test_every_step_records_by_the_record_map(self, fpu, mode, quad, p, monkeypatch):
        # one application of the record map per step, at either size
        sys, q0 = fpu
        grid = build_time_grid(0.3, p, 4)
        calls, record_momenta = [], discretization._StepForm.record_momenta

        def counted(form, G):
            calls.append(form.record.dense)
            return record_momenta(form, G)

        monkeypatch.setattr(discretization._StepForm, "record_momenta", counted)
        _, stats = integrate(q0, sys, quad, grid, SolverConfig(newton_tol=1e-9), mode)
        assert stats.n_steps == grid.n_macro
        assert calls == [solver._small(sys, grid)] * grid.n_macro


def with_nan_gradient(sys: MultirateSystem, which: str, m: int, k: int) -> MultirateSystem:
    """``sys`` whose slow- or fast-potential gradient (``which``) is NaN at
    point m of every k stacked points, the midpoint of micro interval m of a
    step with k midpoint terms, in a batch or one point per call."""
    name = f"{which}_potential_grad"
    fn, calls = getattr(sys, name), itertools.count()

    def spoil(g, rows):
        g = np.array(g, dtype=float)
        g[rows] = np.nan
        return g

    def grad(*args):
        if sys.batched:
            rows = slice(m, None, k)
        else:
            rows = slice(None) if next(calls) % k == m else slice(0)
        out = fn(*args)
        return tuple(spoil(g, rows) for g in out) if which == "slow" else spoil(out, rows)

    return dataclasses.replace(sys, **{name: grad})


# tracemalloc peak of binding an FPU l=30, p=50 step (1,530 unknowns) and
# taking one initial and one macro step, by the run below: 9.1 MB with the
# kernel's products of the former large-step path and 9.6 MB by terms, on
# numpy 2.4.  A dense points map alone would take 56 MB (4,590 x 1,530),
# forces 75 MB.
LARGE_STEP_PEAK_BYTES = 16_000_000


def test_large_step_makes_no_dense_map():
    # in a fresh interpreter: the step's maps are applied term by term,
    # and nothing imports scipy
    code = "\n".join([
        "import sys, tracemalloc",
        "import multirate",
        "from multirate import solver, systems",
        "sysm, q0 = systems.build_fpu(systems.FpuConfig(l=30))",
        "grid = multirate.build_time_grid(0.3, 50, 2)",
        "quad, cfg = multirate.QuadratureSpec.midpoint_midpoint(), solver.SolverConfig()",
        "tracemalloc.start()",
        "held = solver._HeldMatrix()",
        "held.bind(sysm, quad, grid)",
        "first, _ = solver.initial_step(q0, sysm, quad, grid, cfg, held)",
        "solver.macro_step(first, sysm, quad, grid, cfg, held)",
        "print(tracemalloc.get_traced_memory()[1], 'scipy' in sys.modules, held.step.linear.name)",
    ])
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout.split()
    assert out[1:] == ["False", "structured"]
    assert int(out[0]) < LARGE_STEP_PEAK_BYTES


class TestBoundStep:
    """A holder binds the machinery of its steps once (``_HeldMatrix.bind``):
    a small step's fixed maps are resolved once per ``integrate`` call, a
    holder handed steps of other objects takes what a fresh one would, and
    the bound residual of one point is its row of a batch, bit for bit,
    failures included."""

    @pytest.mark.parametrize("mode", [IntegratorMode.IMPLICIT_DEL, IntegratorMode.CLOSED_FORM_PQ],
                             ids=["del", "pq"])
    def test_small_integrate_resolves_its_maps_once(self, fpu, mode, monkeypatch):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 10, 6)
        lookups, builds = [], []
        kernel, StepForm = solver.interval_kernel, discretization._StepForm

        def counted_kernel(*args):
            lookups.append(args)
            return kernel(*args)

        class CountedStepForm(StepForm):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(solver, "interval_kernel", counted_kernel)
        monkeypatch.setattr(solver, "_StepForm", CountedStepForm)
        _, stats = integrate(q0, sys, MIDMID, grid, SolverConfig(newton_tol=1e-9), mode)
        assert solver._small(sys, grid) and stats.n_steps == grid.n_macro
        # not once or more per step: the residual, each matrix build, the
        # record and the p/q maps' T all read the bound step
        assert (len(lookups), len(builds)) == (1, 1)

    @pytest.mark.parametrize("mode", [IntegratorMode.IMPLICIT_DEL, IntegratorMode.CLOSED_FORM_PQ],
                             ids=["del", "pq"])
    def test_hessian_free_small_step_makes_no_scatter(self, fpu, mode, monkeypatch):
        # its Newton matrix is differenced: the maps' Hessian scatter is not
        # made, and the trajectory is the one with it made
        sys, q0 = fpu
        sys = without_hessians(sys)
        grid = build_time_grid(0.3, 10, 6)     # FPU l=3: 33 unknowns
        assert solver._small(sys, grid)

        def run():
            return integrate(q0, sys, MIDMID, grid, SolverConfig(newton_tol=1e-9), mode)[0]

        def unmade(self):
            raise AssertionError(f"{type(self).__name__}.scatter made")

        with monkeypatch.context() as m:
            m.setattr(discretization._StepForm, "scatter", property(unmade))
            traj = run()
        StepForm = discretization._StepForm

        class EagerStepForm(StepForm):
            def __init__(self, *args):
                super().__init__(*args)
                assert len(self.scatter[0]) > 0

        monkeypatch.setattr(solver, "_StepForm", EagerStepForm)
        eager = run()
        for name in ("slow_q", "slow_p", "fast_q", "fast_p"):
            assert getattr(traj, name).tobytes() == getattr(eager, name).tobytes(), name

    @pytest.mark.parametrize("p", [10, 20], ids=["small", "large"])
    def test_explicit_integrate_binds_its_step_once(self, spring_ring, p, monkeypatch):
        # the kernel, the constants, G and the step's maps are made once per
        # integrate call, not once per step
        sys, q0 = spring_ring
        grid = build_time_grid(0.01, p, 6)
        made = {"kernel": 0, "step": 0, "form": 0}
        kernel, ExplicitStep, StepForm = (solver.interval_kernel, solver._ExplicitStep,
                                          solver._StepForm)

        def counted_kernel(*args):
            made["kernel"] += 1
            return kernel(*args)

        class CountedStep(ExplicitStep):
            def __init__(self, *args):
                made["step"] += 1
                super().__init__(*args)

        class CountedStepForm(StepForm):
            def __init__(self, *args):
                made["form"] += 1
                super().__init__(*args)

        monkeypatch.setattr(solver, "interval_kernel", counted_kernel)
        monkeypatch.setattr(solver, "_ExplicitStep", CountedStep)
        monkeypatch.setattr(solver, "_StepForm", CountedStepForm)
        for _ in range(2):
            _, stats = integrate(q0, sys, QuadratureSpec.explicit(), grid, SolverConfig(),
                                 IntegratorMode.EXPLICIT)
            assert stats.n_steps == grid.n_macro
        assert solver._small(sys, grid) == (p == 10)
        assert made == {"kernel": 2, "step": 2, "form": 2}

    @pytest.mark.parametrize("step_fn", ["del", "pq"])
    @pytest.mark.parametrize("change", ["grid", "quadrature", "system"])
    @pytest.mark.parametrize("linear", ["dense", "structured"])
    def test_holder_handed_other_steps_matches_a_fresh_one(self, fpu, linear, change, step_fn,
                                                            monkeypatch):
        # steps of the same size, so that a held matrix or dense array of
        # the other objects would fit, and change the step if kept
        if linear == "structured":
            monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)
        sys, q0 = fpu
        grid = build_time_grid(0.3, 4, 1)
        other = {"grid": (sys, MIDMID, build_time_grid(0.2, 4, 1)),
                 "quadrature": (sys, QuadratureSpec.trapezoidal_midpoint(1.0), grid),
                 "system": (with_full_masses(sys), MIDMID, grid)}[change]
        cfg = SolverConfig(newton_tol=1e-9)

        def step(args, held):
            if step_fn == "pq":
                return schemes.pq_step(q0, *args, cfg, held=held)
            return initial_step(q0, *args, cfg, held)

        held = solver._HeldMatrix()
        for args in ((sys, MIDMID, grid), other, (sys, MIDMID, grid)):
            got, got_stats = step(args, held)
            want, want_stats = step(args, solver._HeldMatrix())
            assert held.step.linear.name == linear
            assert (got_stats.newton_iters, got_stats.matrix_builds) == \
                (want_stats.newton_iters, want_stats.matrix_builds)
            for a, b in ((got.q_slow_end, want.q_slow_end), (got.fast, want.fast),
                         (got.p_fast, want.p_fast), (got.p_slow, want.p_slow)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", ["dense", "terms"])
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
    @pytest.mark.parametrize("quad", FIXED_MAP_RULES, ids=FIXED_MAP_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_one_point_is_its_row_of_a_batch(self, request, system, quad, batched, size,
                                             monkeypatch):
        sys, q0 = request.getfixturevalue(system)
        sys = dataclasses.replace(sys, batched=batched)
        grid = build_time_grid(0.05, 4, 1)
        if size == "terms":
            monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)
        assert solver._small(sys, grid) == (size == "dense")
        x0 = solver._drift_guess(q0, sys, grid)
        X = x0 + 1e-2 * np.random.default_rng(3).standard_normal((2, 3, x0.size))
        residual = solver._step_residual(q0, sys, quad, grid)
        F, G = residual(X)
        assert F.shape == X.shape and G.shape[:2] == X.shape[:2]
        for x, f, g in zip(X.reshape(-1, x0.size), F.reshape(6, -1), G.reshape(6, -1)):
            f1, g1 = residual(x)
            assert np.array_equal(f1, f) and np.array_equal(g1, g)

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
    @pytest.mark.parametrize("which", ["slow", "fast"])
    def test_nonfinite_gradient_names_its_micro_interval(self, fpu, which, batched):
        sys, q0 = fpu
        p, m = 10, 3
        grid = build_time_grid(0.3, p, 1)
        bad = with_nan_gradient(dataclasses.replace(sys, batched=batched), which, m, p)
        residual = solver._step_residual(q0, bad, MIDMID, grid)
        x = solver._drift_guess(q0, sys, grid)
        for point in (x, np.stack([x, x])):
            with pytest.raises(EvaluationError, match=f"{which}-potential gradient") as info:
                residual(point)
            assert info.value.node_index == m


# Roundings of a record entry's largest terms by which the one product and
# the kernel's momenta may differ: the kernel rounds the difference quotient,
# its product with the mass and the sums, in another order.
RECORD_ROUNDINGS = 4


def potential_free(sys: MultirateSystem) -> MultirateSystem:
    """The same masses with zero potentials: the Newton matrix is the
    kinetic one."""
    return dataclasses.replace(
        sys, slow_potential_hessian=lambda qs, qf: (
            np.zeros(qs.shape + qs.shape[-1:]), np.zeros(qs.shape + qf.shape[-1:]),
            np.zeros(qf.shape + qf.shape[-1:])),
        fast_potential_hessian=lambda qf: np.zeros(qf.shape + qf.shape[-1:]))


class TestJacobian:
    def test_analytic_matches_finite_difference(self, fpu, config):
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        step, _ = initial_step(q0, sys, MIDMID, grid, config)
        x = stacked(step.q_slow_end + 0.01, step.fast[1:] + 0.005)
        assert sys.has_hessians
        Ja = step_jacobian(step.end_state(), x, sys, MIDMID, grid)
        Jf = step_jacobian(step.end_state(), x, without_hessians(sys), MIDMID, grid)
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
        x = stacked(step.q_slow_end + rng.uniform(-0.01, 0.01, sys.n_slow),
                    step.fast[1:] + rng.uniform(-0.005, 0.005, (p, sys.n_fast)))
        assert sys.has_hessians
        Ja = step_jacobian(step.end_state(), x, sys, quad, grid)
        Jf = step_jacobian(step.end_state(), x, without_hessians(sys), quad, grid)
        assert np.max(np.abs(Ja - Jf) / (1.0 + np.abs(Ja))) < 1e-5

    def test_fast_chain_locality(self, fpu, config):
        # fast-fast blocks vanish beyond nearest micro neighbours
        sys, q0 = fpu
        grid = build_time_grid(0.3, 5, 2)
        step, _ = initial_step(q0, sys, MIDMID, grid, config)
        J = step_jacobian(step.end_state(), stacked(step.q_slow_end, step.fast[1:]), sys,
                          MIDMID, grid)
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
        J1 = step_jacobian(step.end_state(), stacked(s1.q_slow_end, s1.fast[1:]),
                           free_particle, MIDMID, grid)
        J2 = step_jacobian(step.end_state(), stacked(s1.q_slow_end + 3.0, s1.fast[1:] - 2.0),
                           free_particle, MIDMID, grid)
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
        q1 = step.q_slow_end + rng.uniform(-0.01, 0.01, sys.n_slow)
        fast = step.fast[1:] + rng.uniform(-0.005, 0.005, (p, sys.n_fast))
        blocks = _jacobian_blocks(step.q_slow_end, q1, np.vstack([step.fast[-1:], fast]),
                                  sys, quad, grid)
        # the dense path's own matrix agrees with the blocks to rounding
        # (TestFixedMaps)
        J = _assemble_jacobian(blocks)
        b = rng.standard_normal(J.shape[0])
        x = np.linalg.solve(J, b)
        factors = _factor_blocks(blocks)
        x_elim = _eliminate(factors, b)
        assert np.max(np.abs(x_elim - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(_block_matvec(blocks, b) - J @ b)) <= 1e-12 * np.max(np.abs(J @ b))
        # regular diagonal blocks: the elimination passes its accuracy check
        assert np.array_equal(_apply_blocks(factors, b), x_elim)

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
        factors = _factor_blocks(blocks)
        # a D_i that cannot be inverted leaves no elimination factors
        breaks_down = factors.d_inv is None
        if not breaks_down:
            with np.errstate(all="ignore"):
                x_elim = _eliminate(factors, b)
            breaks_down = not np.max(np.abs(x_elim - x)) <= 1e-10 * np.max(np.abs(x))
        assert breaks_down
        assert np.array_equal(_apply_blocks(factors, b), x)

    def test_finite_difference_jacobian_stays_dense(self, fpu):
        # FPU l=3, p=50: 153 unknowns, above the crossover
        sys, q0 = fpu
        grid = build_time_grid(0.3, 50, 1)
        sys_fd = without_hessians(sys)
        assert solver._HeldMatrix().bind(sys, MIDMID, grid).linear.name == "structured"
        assert solver._HeldMatrix().bind(sys_fd, MIDMID, grid).linear.name == "dense"
        _, stats = integrate(q0, sys_fd, MIDMID, grid, SolverConfig())
        assert stats.linear_solver == "dense"

    @pytest.mark.parametrize("mode", [IntegratorMode.IMPLICIT_DEL, IntegratorMode.CLOSED_FORM_PQ],
                             ids=["del", "pq"])
    def test_dense_and_structured_integrations_agree(self, mode, monkeypatch):
        sys, q0 = build_fpu(FpuConfig(l=10))
        grid = build_time_grid(0.3, 20, 5)
        cfg = SolverConfig(newton_tol=1e-9)
        t_blocks, s_blocks = integrate(q0, sys, MIDMID, grid, cfg, mode)
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", math.inf)
        t_dense, s_dense = integrate(q0, sys, MIDMID, grid, cfg, mode)
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

    def test_pq_maps_solve_with_the_del_solver(self, fpu):
        # FPU l=3, p=50: 153 unknowns, above the crossover in both implicit modes
        sys, q0 = fpu
        _, stats = integrate(q0, sys, MIDMID, build_time_grid(0.01, 50, 2), SolverConfig(),
                             IntegratorMode.CLOSED_FORM_PQ)
        assert stats.linear_solver == "structured"


def fpu_structured(monkeypatch):
    monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)
    return build_fpu()


REUSE_CASES = {
    "del-dense": (lambda mp: build_fpu(), MIDMID, IntegratorMode.IMPLICIT_DEL),
    "del-structured": (fpu_structured, MIDMID, IntegratorMode.IMPLICIT_DEL),
    "del-hessian-free": (lambda mp: (without_hessians(build_fpu()[0]), build_fpu()[1]), MIDMID,
                         IntegratorMode.IMPLICIT_DEL),
    "pq-midpoint": (lambda mp: build_fpu(), MIDMID, IntegratorMode.CLOSED_FORM_PQ),
    "pq-trapezoidal-midpoint": (lambda mp: build_fpu(), QuadratureSpec.trapezoidal_midpoint(1.0),
                                IntegratorMode.CLOSED_FORM_PQ),
    "pq-trapezoidal-trapezoidal": (lambda mp: build_fpu(),
                                   QuadratureSpec.trapezoidal_trapezoidal(0.5, 1.0),
                                   IntegratorMode.CLOSED_FORM_PQ),
    "pq-hessian-free": (lambda mp: (without_hessians(build_fpu()[0]), build_fpu()[1]), MIDMID,
                        IntegratorMode.CLOSED_FORM_PQ),
}


class TestWorkspace:
    @staticmethod
    def record_builds(monkeypatch):
        """Route structured builds through recorders: ``builds`` gets each
        build's factors with a copy of its blocks, ``intact`` tells for each
        solve whether the blocks it uses still hold those values."""
        builds, intact = [], []

        def blocks(J):
            return (J.slow, J.row, J.col, J.band)

        def factor(J):
            F = _factor_blocks(J)
            builds.append((F, [a.copy() for a in blocks(J)]))
            return F

        def apply(F, b):
            kept = next(copy for f, copy in builds if f is F)
            intact.append(all(np.array_equal(a, c) for a, c in zip(blocks(F.J), kept)))
            return _apply_blocks(F, b)

        monkeypatch.setattr(solver, "_STRUCTURED",
                            dataclasses.replace(solver._STRUCTURED, factor=factor, apply=apply))
        return builds, intact

    def test_builds_of_one_integrate_write_the_same_arrays(self, monkeypatch):
        builds, intact = self.record_builds(monkeypatch)
        sys, q0 = build_fpu()
        grid = build_time_grid(0.3, 50, 10)   # 153 unknowns: blocks
        _, stats = integrate(q0, sys, MIDMID, grid, SolverConfig())
        assert stats.linear_solver == "structured"
        assert len(builds) == stats.matrix_builds_total >= 2
        first = builds[0][0]
        for F, _ in builds[1:]:
            for a, b in [(first.J.row, F.J.row), (first.J.col, F.J.col),
                         (first.J.band, F.J.band), (first.ge, F.ge), (first.z, F.z)]:
                assert np.shares_memory(a, b)
        # every solve reads the blocks its factors were made from
        assert len(intact) == stats.newton_iters_total and all(intact)

    def test_holders_share_no_array(self, monkeypatch):
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)
        sys, q0 = build_fpu()
        grid = build_time_grid(0.3, 4, 1)
        held = [solver._HeldMatrix(), solver._HeldMatrix()]
        for h in held:
            initial_step(q0, sys, MIDMID, grid, SolverConfig(), h)
        arrays = [list(h.ws._arrays.values()) for h in held]
        assert arrays[0] and len(arrays[0]) == len(arrays[1])
        assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])


    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_dense_rebuilds_equal_a_fresh_build(self, request, system, quad, p):
        # a dense build at another iterate, after a build with the same
        # holder, equals a build with a fresh workspace
        sys, q0 = request.getfixturevalue(system)
        grid = build_time_grid(0.02, p, 1)
        step = solver._HeldMatrix().bind(sys, quad, grid)
        linear, jacobian = step.linear, step.jacobian
        assert linear is solver._DENSE
        rng = np.random.default_rng(p)
        held = solver._HeldMatrix()
        built = []
        # two steps from different starts, at different iterates
        for _ in range(2):
            start = State(*(a + 0.05 * rng.standard_normal(a.size) for a in (
                q0.q_slow, q0.q_fast, q0.p_slow, q0.p_fast)))
            residual = solver._step_residual(start, sys, quad, grid)
            x0 = solver._drift_guess(start, sys, grid)
            x = x0 + 0.05 * rng.standard_normal(x0.size)
            F = residual(x)[0]
            J = jacobian(start, residual, x, F, held.ws)
            assert np.array_equal(J, jacobian(start, residual, x, F, _Workspace()))
            built.append(J.copy())
        # the midpoint rule's matrices differ; under the others, F may weight
        # only terms at the start, and the matrix is then constant
        if quad == MIDMID:
            assert not np.array_equal(*built)


class TestMatrixReuse:
    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_agrees_with_a_fresh_matrix_every_iteration(self, case, monkeypatch):
        build, quad, mode = REUSE_CASES[case]
        sys, q0 = build(monkeypatch)
        grid = build_time_grid(0.3, 10, 20)
        cfg = SolverConfig(newton_tol=1e-9)
        t_reuse, s_reuse = integrate(q0, sys, quad, grid, cfg, mode)
        # full Newton: every iteration builds its matrix at its own iterate
        monkeypatch.setattr(solver, "_MAX_PREDICTED_ITERS", -1)
        t_fresh, s_fresh = integrate(q0, sys, quad, grid, cfg, mode)
        assert s_fresh.matrix_builds_total == s_fresh.newton_iters_total
        assert 0 < s_reuse.matrix_builds_total < s_reuse.newton_iters_total
        assert s_reuse.linear_solver == s_fresh.linear_solver
        assert max(s_reuse.residual_max, s_fresh.residual_max) <= 1e-4 * cfg.newton_tol
        # every node of the 20 steps
        assert max_diff(t_reuse, t_fresh) <= 10 * cfg.newton_tol

    @pytest.mark.parametrize("case", ["del-dense", "del-structured", "pq-midpoint"])
    def test_reruns_are_bit_identical(self, case, monkeypatch):
        build, quad, mode = REUSE_CASES[case]
        sys, q0 = build(monkeypatch)
        grid = build_time_grid(0.3, 10, 20)
        runs = [integrate(q0, sys, quad, grid, SolverConfig(), mode) for _ in range(2)]
        (t1, s1), (t2, s2) = runs
        assert max_diff(t1, t2) == 0.0
        assert (s1.newton_iters_total, s1.matrix_builds_total, s1.residual_max) == \
            (s2.newton_iters_total, s2.matrix_builds_total, s2.residual_max)

    def test_free_particle_builds_one_matrix(self, free_particle):
        # a linear residual with a constant Newton matrix: the matrix built
        # for the first iteration serves every later step
        grid = build_time_grid(0.5, 3, 10)
        _, stats = integrate(State([0.0], [1.0], [2.0], [3.0]), free_particle, MIDMID, grid,
                             SolverConfig())
        assert stats.newton_iters_total >= grid.n_macro - 1
        assert stats.matrix_builds_total == 1

    def test_polish_stops_at_the_rounding_floor(self, fpu):
        # criterion 3's reference step: momentum terms M q / dt of about 1e5
        # floor the residual near 1e-11, above 1e-4 * newton_tol; one polish
        # with the held matrix reaches that floor and ends the step
        sys, q0 = fpu
        grid = build_time_grid(0.02 / 2560, 1, 200)
        cfg = SolverConfig(newton_tol=1e-9)
        _, stats = integrate(q0, sys, MIDMID, grid, cfg)
        assert 1e-4 * cfg.newton_tol < stats.residual_max < 1e-10
        assert stats.newton_iters_total <= 2 * grid.n_macro
        assert stats.matrix_builds_total == 1

    def stale_setup(self, max_iters):
        sys, q0 = build_fpu()
        grid = build_time_grid(0.3, 4, 2)
        cfg = SolverConfig(newton_tol=1e-9, max_newton_iters=max_iters)
        step0, _ = initial_step(q0, sys, MIDMID, grid, SolverConfig(newton_tol=1e-9))
        J = step_jacobian(step0.end_state(), stacked(step0.q_slow_end, step0.fast[1:]), sys,
                          MIDMID, grid)
        # a held matrix 100 times too small: its updates overshoot 100-fold
        held = solver._HeldMatrix(solver._DENSE.factor(0.01 * J))
        return sys, grid, cfg, step0, held

    def test_stale_matrix_failure_restarts_with_a_fresh_one(self):
        sys, grid, cfg, step0, held = self.stale_setup(8)
        fresh, s_fresh = macro_step(step0, sys, MIDMID, grid, cfg)
        assert s_fresh.newton_iters < cfg.max_newton_iters
        step, stats = macro_step(step0, sys, MIDMID, grid, cfg, held)
        # the held matrix's attempt ran out of iterations; the restart from
        # the step's own guess is the fresh step, bit for bit
        assert stats.newton_iters == cfg.max_newton_iters + s_fresh.newton_iters
        assert stats.matrix_builds > s_fresh.matrix_builds
        for a, b in ((step.fast, fresh.fast), (step.q_slow_end, fresh.q_slow_end),
                     (step.p_fast, fresh.p_fast), (step.p_slow, fresh.p_slow)):
            assert np.array_equal(a, b)
        assert held.factors is not None

    def test_stale_matrix_leaving_the_domain_restarts(self):
        # the fast gradient is NaN beyond |q_f| = 1; a held matrix 1000 times
        # too small throws the first iterate there, and the step restarts
        toy = make_coupled_toy()
        grad = toy.fast_potential_grad
        sys = dataclasses.replace(toy, fast_potential_grad=lambda qf: np.where(
            np.abs(qf) > 1.0, np.nan, grad(qf)))
        grid = build_time_grid(0.1, 4, 2)
        cfg = SolverConfig(newton_tol=1e-9)
        step0, _ = initial_step(toy_state(), sys, MIDMID, grid, cfg)
        fresh, s_fresh = macro_step(step0, sys, MIDMID, grid, cfg)
        J = step_jacobian(step0.end_state(), stacked(step0.q_slow_end, step0.fast[1:]), sys,
                          MIDMID, grid)
        step, stats = macro_step(step0, sys, MIDMID, grid, cfg,
                                 solver._HeldMatrix(solver._DENSE.factor(1e-3 * J)))
        assert (stats.newton_iters, stats.matrix_builds) == \
            (s_fresh.newton_iters, s_fresh.matrix_builds)
        assert np.array_equal(step.fast, fresh.fast)
        assert np.array_equal(step.p_slow, fresh.p_slow)

    def test_failure_after_restart_is_explained(self):
        sys, grid, cfg, step0, held = self.stale_setup(2)
        with pytest.raises(DivergenceError) as info:
            macro_step(step0, sys, MIDMID, grid, cfg, held)
        err = info.value
        # two attempts of two iterations: the held matrix's and the fresh one's
        assert err.iterations == 4
        assert err.matrix_builds >= 2
        assert 0.0 < err.contraction < 1.0
        assert f"{err.matrix_builds} matrix builds" in str(err)
        assert f"last contraction {err.contraction:.3g}" in str(err)


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
        p = grid.micro_per_macro
        traj, _ = integrate(q0, sys, MIDMID, grid, cfg)
        for k in (1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, grid.n_macro - 1):
            bad = Trajectory(grid, traj.slow_q.copy(), traj.slow_p, traj.fast_q, traj.fast_p)
            bad.slow_q[k] += 1e-6
            cert = verify_trajectory(bad, q0, sys, MIDMID, grid)
            moms = [interval_momenta(bad.slow_q[j], bad.slow_q[j + 1],
                                     bad.fast_q[j * p:(j + 1) * p + 1], sys, MIDMID, grid)
                    for j in range(grid.n_macro)]
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
        (1.0, 1.0, 1.0), (0.5, 0.5, 1.0), (0.3, 0.8, 0.0), (0.0, 1.0, 1.0),
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

    @pytest.mark.parametrize("system", ["fast_only", "slow_only"])
    def test_matches_implicit_path_on_one_sided_systems(self, request, system):
        # no slow or no fast unknowns: empty blocks of the bound step's G
        sys, q0 = request.getfixturevalue(system)
        cfg = SolverConfig(newton_tol=1e-12)
        quad, grid = QuadratureSpec.explicit(0.5, 0.5), build_time_grid(0.01, 4, 10)
        t_imp, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.IMPLICIT_DEL)
        t_exp, _ = integrate(q0, sys, quad, grid, cfg, IntegratorMode.EXPLICIT)
        for name in ("slow_q", "fast_q", "slow_p", "fast_p"):
            a, b = getattr(t_imp, name), getattr(t_exp, name)
            assert np.max(np.abs(a - b), initial=0.0) < 1e-10, name

    @pytest.mark.parametrize("system", ["fpu", "toy"], ids=["batched", "per-point"])
    @pytest.mark.parametrize("alpha,slow,fast_extra", [(1.0, 1, 0), (0.5, 2, 1), (0.0, 1, 1)])
    def test_evaluates_each_point_once(self, fpu, system, alpha, slow, fast_extra):
        # the momenta come from the recurrence's gradients: one slow point
        # per step and one fast point per micro node, plus the end node where
        # a term of the rule sits there
        sys, q0 = fpu if system == "fpu" else (make_coupled_toy(), toy_state())
        counted, counts = count_points(sys)
        p, n = 5, 3
        grid = build_time_grid(0.01, p, n)
        integrate(q0, counted, QuadratureSpec.explicit(alpha, alpha), grid, SolverConfig(),
                  IntegratorMode.EXPLICIT)
        assert counts == {"slow": n * slow, "fast": n * (p + fast_extra)}

    @staticmethod
    def drifting(batched, slow_from=np.inf, fast_from=np.inf):
        """Free unit masses, q = t; the slow (fast) gradient is +inf where
        q >= ``slow_from`` (``fast_from``), else 0."""
        return MultirateSystem(
            n_slow=1, n_fast=1, mass_slow=np.eye(1), mass_fast=np.eye(1),
            slow_potential=lambda qs, qf: 0.0,
            slow_potential_grad=lambda qs, qf: (np.where(qs >= slow_from, np.inf, 0.0),
                                                np.zeros_like(qf)),
            fast_potential=lambda qf: 0.0,
            fast_potential_grad=lambda qf: np.where(qf >= fast_from, np.inf, 0.0),
            batched=batched,
        ), State([0.0], [0.0], [1.0], [1.0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_nonfinite_fast_gradient_names_micro_node(self, batched, m):
        p = 4
        grid = build_time_grid(1.0, p, 3)
        # fast node m of step 1 sits at q = (p + m) * dt
        sys, q0 = self.drifting(batched, fast_from=(p + m - 0.5) * grid.dt)
        with pytest.raises(IntegrationError) as info:
            integrate(q0, sys, QuadratureSpec.explicit(), grid, SolverConfig(),
                      IntegratorMode.EXPLICIT)
        assert info.value.step_index == 1
        cause = info.value.cause
        assert isinstance(cause, EvaluationError) and "fast-potential" in str(cause)
        assert cause.node_index == m

    @pytest.mark.parametrize("batched", [False, True])
    def test_nonfinite_slow_gradient_at_step_start(self, batched):
        grid = build_time_grid(1.0, 4, 3)
        sys, q0 = self.drifting(batched, slow_from=1.5)  # macro node 2
        with pytest.raises(IntegrationError) as info:
            integrate(q0, sys, QuadratureSpec.explicit(), grid, SolverConfig(),
                      IntegratorMode.EXPLICIT)
        assert info.value.step_index == 2
        cause = info.value.cause
        assert isinstance(cause, EvaluationError) and "slow-potential" in str(cause)
        assert cause.node_index == 0


class TestIncrementForm:
    """The explicit step's increment-form recurrence against the position
    form (``_oracles.explicit_step_position_form``)."""

    RULES = pytest.mark.parametrize("rule", [(1.0, 1.0, 1.0), (0.5, 0.5, 1.0), (0.3, 0.8, 0.0)],
                                    ids=["1-1-1", "half-half-1", "0.3-0.8-0"])

    @staticmethod
    def run(sys, q0, quad):
        return integrate(q0, sys, quad, build_time_grid(0.01, 10, 50), SolverConfig(),
                         IntegratorMode.EXPLICIT)[0]

    @RULES
    @pytest.mark.parametrize("system", ["fpu", "spring_ring"])
    def test_matches_position_form(self, request, monkeypatch, system, rule):
        sys, q0 = request.getfixturevalue(system)
        alpha_v, alpha_w, gamma_w = rule
        quad = QuadratureSpec(alpha_v, 1.0, alpha_w, gamma_w, SlowPlacement.MACRO_NODES_ONLY)
        traj = self.run(sys, q0, quad)
        # both the first step and explicit_macro_step go through _explicit_step
        monkeypatch.setattr(solver, "_explicit_step", explicit_step_position_form)
        ref = self.run(sys, q0, quad)
        for name in ("slow_q", "fast_q", "slow_p", "fast_p"):
            a, b = getattr(traj, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    @RULES
    def test_reruns_are_bit_identical(self, spring_ring, rule):
        sys, q0 = spring_ring
        alpha_v, alpha_w, gamma_w = rule
        quad = QuadratureSpec(alpha_v, 1.0, alpha_w, gamma_w, SlowPlacement.MACRO_NODES_ONLY)
        first, again = self.run(sys, q0, quad), self.run(sys, q0, quad)
        for name in ("slow_q", "fast_q", "slow_p", "fast_p"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name


class TestExplicitStepBits:
    """The explicit step against ``_oracles.explicit_step_reference``, its
    arithmetic before the step's lookups were bound once: 200-step
    trajectories are equal bit for bit.  The masses are not powers of two,
    so that a product whose association changed, such as dt M_f^-1 made
    once, would show."""

    SYSTEMS = {
        "fpu": lambda: systems.build_fpu(FpuConfig(masses=[1.3, 0.7, 2.9, 1.1, 0.35, 1.7])),
        "spring_ring": lambda: systems.build_spring_ring(
            SpringRingConfig(masses=[1.3, 2.7, 0.9, 3.1, 1.7, 2.3])),
    }

    # p = 1 has no micro step in the loop; the ring at p = 20 (189
    # unknowns) records by the terms of its map, the others with a dense one
    @TestIncrementForm.RULES
    @pytest.mark.parametrize("p", [1, 2, 10, 20])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_trajectory_equals_reference(self, monkeypatch, system, p, rule):
        sys, q0 = self.SYSTEMS[system]()
        assert not np.all(np.log2(np.diag(sys.mass_fast)) % 1 == 0)
        alpha_v, alpha_w, gamma_w = rule
        quad = QuadratureSpec(alpha_v, 1.0, alpha_w, gamma_w, SlowPlacement.MACRO_NODES_ONLY)
        grid = build_time_grid(1e-3 * p, p, 200)

        def run():
            return integrate(q0, sys, quad, grid, SolverConfig(), IntegratorMode.EXPLICIT)[0]

        traj = run()
        monkeypatch.setattr(solver, "_explicit_step", explicit_step_reference)
        ref = run()
        assert solver._small(sys, grid) == (system == "fpu" or p < 20)
        assert np.isfinite(ref.fast_p).all()
        for name in ("slow_q", "fast_q", "slow_p", "fast_p"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name

    def test_default_rule_is_covered(self):
        # QuadratureSpec.explicit() is the rule 1-1-1 of the cases above
        assert QuadratureSpec.explicit() == QuadratureSpec(1.0, 1.0, 1.0, 1.0,
                                                           SlowPlacement.MACRO_NODES_ONLY)


class TestIntegrate:
    @pytest.mark.parametrize("mode,quad", [
        (IntegratorMode.IMPLICIT_DEL, MIDMID),
        (IntegratorMode.IMPLICIT_DEL, QuadratureSpec.trapezoidal_trapezoidal(0.5, 1.0)),
        (IntegratorMode.CLOSED_FORM_PQ, MIDMID),
        (IntegratorMode.EXPLICIT, QuadratureSpec.explicit()),
    ], ids=["del-midpoint", "del-trapezoidal", "pq", "explicit"])
    def test_runs_with_other_masses_leave_nothing_behind(self, mode, quad):
        # the interval kernel is cached per (quadrature, dT, p) only: what
        # depends on the masses or the system's shape must not outlive a run
        grid = build_time_grid(0.02, 4, 10)

        def run(mass):
            sys, q0 = build_fpu(FpuConfig(l=3, masses=np.full(6, mass)))
            return integrate(q0, sys, quad, grid, SolverConfig(), mode)[0]

        def alone(mass):
            discretization._kernel.cache_clear()
            return run(mass)

        ref = {mass: alone(mass) for mass in (1.0, 2.0)}
        discretization._kernel.cache_clear()
        for mass in (1.0, 2.0, 1.0):
            assert max_diff(run(mass), ref[mass]) == 0.0
        assert max_diff(ref[1.0], ref[2.0]) > 0.0

    @pytest.mark.parametrize("mode", [IntegratorMode.IMPLICIT_DEL, IntegratorMode.CLOSED_FORM_PQ],
                             ids=["del", "pq"])
    def test_row_strided_gradients_give_the_same_bits(self, mode):
        # a batched slow gradient returned as two slices of one product,
        # views whose rows are strided, gives the stock chain's trajectory
        sys, q0 = build_fpu(FpuConfig(l=3))
        D_s, D_f = systems._fpu_difference_matrices(3)
        D = np.hstack([D_s, D_f])

        def sliced(q_s, q_f):
            d = q_s.dot(D_s.T) + q_f.dot(D_f.T)
            g = (d * d * d).dot(D)
            return g[..., :3], g[..., 3:]

        strided = dataclasses.replace(sys, slow_potential_grad=sliced)
        g_s, _ = strided.slow_potential_grad(np.ones((2, 3)), np.ones((2, 3)))
        assert not g_s.flags.c_contiguous
        grid = build_time_grid(0.3, 50, 20)
        assert not solver._small(sys, grid)
        cfg = SolverConfig(newton_tol=1e-9)
        ref, ref_stats = integrate(q0, sys, MIDMID, grid, cfg, mode)
        got, got_stats = integrate(q0, strided, MIDMID, grid, cfg, mode)
        assert ref_stats.linear_solver == "structured"
        assert got_stats.newton_iters_total == ref_stats.newton_iters_total
        assert max_diff(got, ref) == 0.0

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
