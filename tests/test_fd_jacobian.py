"""The batched finite-difference Newton matrix against the column loop.

``solver._fd_jacobian`` passes all perturbed points of a column chunk to the
residual in one call.  Every column must equal the one-column-at-a-time
forward difference of ``_oracles.fd_jacobian_loop`` bit for bit, for the DEL
residual and the p/q residual T F of the three closed-form maps
(``_oracles.pq_residual``) of systems without Hessians, with the step's
maps dense and applied term by term, and a non-finite value met by one
perturbed column must be reported as the loop reports it.
"""

import dataclasses

import numpy as np
import pytest

from multirate import (
    EvaluationError,
    IntegrationError,
    IntegratorMode,
    MultirateSystem,
    QuadratureSpec,
    SolverConfig,
    State,
    build_fpu,
    build_time_grid,
    integrate,
    pq_step,
)
from multirate import solver

from _oracles import fd_jacobian_loop, pq_residual
from conftest import make_coupled_toy, toy_state
from test_solver import QUADRATURES, QUADRATURE_IDS, with_full_masses, without_hessians

PQ_QUADRATURES = [
    QuadratureSpec.midpoint_midpoint(),
    QuadratureSpec.trapezoidal_midpoint(1.0),
    QuadratureSpec.trapezoidal_midpoint(0.5),
    QuadratureSpec.trapezoidal_trapezoidal(0.5, 1.0),
]
PQ_IDS = ["midpoint", "trapezoidal-midpoint", "trapezoidal-midpoint-half", "trapezoidal-trapezoidal"]


def fpu_nondiagonal_masses(batched):
    """FPU chain without Hessians, with full mass matrices, so that the
    mass products sum several nonzero terms in an order a batch could change."""
    sys, q0 = build_fpu()
    return dataclasses.replace(with_full_masses(without_hessians(sys)), batched=batched), q0


def toy_without_hessians():
    return without_hessians(make_coupled_toy()), toy_state()


SYSTEMS = {
    "fpu-batched": lambda: fpu_nondiagonal_masses(True),
    "fpu-per-point": lambda: fpu_nondiagonal_masses(False),
    "toy-per-point": toy_without_hessians,
}


def perturbed_guess(state, sys, grid, seed=3):
    rng = np.random.default_rng(seed)
    x = solver._drift_guess(state, sys, grid)
    return x + 1e-3 * rng.standard_normal(x.size)


def assert_matches_loop(residual, x):
    r0 = residual(x)[0]
    J = solver._fd_jacobian(residual, x, r0)
    assert np.array_equal(J, fd_jacobian_loop(residual, x, r0, solver._FD_STEP))


# column chunks: one call for all columns, or calls of 2 columns with a
# shorter last one (odd column counts)
@pytest.fixture(params=["one-chunk", "two-column-chunks"])
def chunking(request, monkeypatch):
    if request.param == "two-column-chunks":
        def two_columns(n):
            monkeypatch.setattr(solver, "_FD_CHUNK_ENTRIES", 2 * n)
        return two_columns
    return lambda n: None


# the step's maps dense, as below the size rule, or applied term by term
@pytest.fixture(params=["dense", "terms"])
def size(request, monkeypatch):
    if request.param == "terms":
        monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0)


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", QUADRATURES, ids=QUADRATURE_IDS)
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_del_residual(self, system, quad, p, chunking, size):
        sys, q0 = SYSTEMS[system]()
        grid = build_time_grid(0.05, p, 1)
        residual = solver._step_residual(q0, sys, quad, grid)
        x = perturbed_guess(q0, sys, grid)
        chunking(x.size)
        assert_matches_loop(residual, x)

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("quad", PQ_QUADRATURES, ids=PQ_IDS)
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_pq_maps(self, system, quad, p, chunking, size):
        sys, q0 = SYSTEMS[system]()
        grid = build_time_grid(0.05, p, 1)
        evaluate = pq_residual(quad, q0, sys, grid)
        x = perturbed_guess(q0, sys, grid)
        chunking(x.size)
        assert_matches_loop(evaluate, x)

    def test_batched_residual_rows_equal_single_calls(self):
        sys, q0 = fpu_nondiagonal_masses(True)
        grid = build_time_grid(0.05, 4, 1)
        # V and W at the same fast points (midpoint-midpoint) and at others
        for quad in (QuadratureSpec.midpoint_midpoint(), QuadratureSpec.trapezoidal_midpoint(1.0)):
            residual = solver._step_residual(q0, sys, quad, grid)
            X = np.stack([perturbed_guess(q0, sys, grid, seed) for seed in range(5)])
            F = residual(X)[0]
            assert F.shape == X.shape
            for x, f in zip(X, F):
                assert np.array_equal(residual(x)[0], f)

    @pytest.mark.parametrize("quad", PQ_QUADRATURES, ids=PQ_IDS)
    def test_pq_integration_with_loop_oracle(self, fpu, quad, monkeypatch):
        # without Hessians the p/q maps difference the DEL residual
        sys, q0 = fpu
        sys = without_hessians(sys)
        grid = build_time_grid(0.3, 10, 20)
        cfg = SolverConfig(newton_tol=1e-9)
        mode = IntegratorMode.CLOSED_FORM_PQ
        t_batched, s_batched = integrate(q0, sys, quad, grid, cfg, mode)
        calls = []

        def loop(residual, x0, r0):
            calls.append(x0.size)
            return fd_jacobian_loop(residual, x0, r0, solver._FD_STEP)

        monkeypatch.setattr(solver, "_fd_jacobian", loop)
        t_loop, s_loop = integrate(q0, sys, quad, grid, cfg, mode)
        # one difference matrix per matrix build, whose factors Newton keeps
        # across iterations and steps
        assert len(calls) == s_loop.matrix_builds_total > 0
        assert s_batched.matrix_builds_total == s_loop.matrix_builds_total
        assert s_batched.newton_iters_total == s_loop.newton_iters_total
        for a, b in ((t_batched.slow_q, t_loop.slow_q), (t_batched.slow_p, t_loop.slow_p),
                     (t_batched.fast_q, t_loop.fast_q), (t_batched.fast_p, t_loop.fast_p)):
            assert np.array_equal(a, b)

    def test_del_integration_with_loop_oracle(self, fpu, monkeypatch):
        sys, q0 = fpu
        sys = without_hessians(sys)
        grid = build_time_grid(0.3, 10, 10)
        cfg = SolverConfig(newton_tol=1e-9)
        t_batched, s_batched = integrate(q0, sys, QuadratureSpec.midpoint_midpoint(), grid, cfg)
        monkeypatch.setattr(solver, "_fd_jacobian", lambda residual, x0, r0: fd_jacobian_loop(
            residual, x0, r0, solver._FD_STEP))
        t_loop, s_loop = integrate(q0, sys, QuadratureSpec.midpoint_midpoint(), grid, cfg)
        assert s_batched.newton_iters_total == s_loop.newton_iters_total
        assert np.array_equal(t_batched.fast_q, t_loop.fast_q)
        assert np.array_equal(t_batched.slow_p, t_loop.slow_p)


# ---------------------------------------------------------------------------
# non-finite values


def fast_cliff_system(threshold, batched):
    """1 slow + 1 fast DOF; the fast-potential gradient is NaN above
    ``threshold`` and omega^2 q otherwise, the slow potential zero."""
    return MultirateSystem(
        n_slow=1, n_fast=1, mass_slow=np.eye(1), mass_fast=np.eye(1),
        slow_potential=lambda qs, qf: 0.0,
        slow_potential_grad=lambda qs, qf: (np.zeros_like(qs), np.zeros_like(qf)),
        fast_potential=lambda qf: 0.0,
        fast_potential_grad=lambda qf: np.where(qf > threshold, np.nan, 25.0 * qf),
        name="fast-cliff", batched=batched)


# fast nodes 0..4 of a p=4 interval: 0, 0.1, 0.2, 0.3, 0.9; unknowns
# [q_slow_next, fast nodes 1..4]
P = 4
X0 = np.array([0.5, 0.1, 0.2, 0.3, 0.9])
START = State([0.0], [0.0], [0.0], [0.0])


def h(i):
    return solver._FD_STEP * (1.0 + abs(X0[i]))


def cliff_on_last_interval(fast_rule):
    """A threshold that only the column perturbing fast node 4 crosses.

    Perturbing node 4 moves the last midpoint by h_4/2 and node 4 itself by
    h_4; node 3's column moves the last midpoint by h_3/2 < h_4/2.
    """
    if fast_rule == "midpoint":
        return 0.5 * (X0[3] + X0[4]) + 0.5 * (0.5 * h(3) + 0.5 * h(4))
    return X0[4] + 0.5 * h(4)


# a trapezoidal rule needs weight on right nodes for node 4 to be
# evaluated at all
DEL_QUADS = {"midpoint": QuadratureSpec.midpoint_midpoint(),
             "trapezoidal": QuadratureSpec.trapezoidal_trapezoidal(0.5, 0.5)}
PQ_CLIFF_QUADS = {"midpoint": QuadratureSpec.midpoint_midpoint(),
                  "trapezoidal-midpoint": QuadratureSpec.trapezoidal_midpoint(1.0),
                  "trapezoidal-trapezoidal": QuadratureSpec.trapezoidal_trapezoidal(0.5, 0.5)}


def evaluation_error(fn, *args):
    with pytest.raises(EvaluationError) as info:
        fn(*args)
    return info.value


def residual_of(kind, quad, sys, grid):
    if kind == "del":
        return solver._step_residual(START, sys, quad, grid)
    return pq_residual(quad, START, sys, grid)


CASES = [("del", name, quad) for name, quad in DEL_QUADS.items()] + \
        [("pq", name, quad) for name, quad in PQ_CLIFF_QUADS.items()]
CASE_IDS = [f"{kind}-{name}" for kind, name, _ in CASES]


class TestNonFinite:
    @pytest.mark.parametrize("batched", [False, True], ids=["per-point", "batched"])
    @pytest.mark.parametrize("kind,name,quad", CASES, ids=CASE_IDS)
    def test_one_perturbed_column_names_the_loops_interval(self, kind, name, quad, batched):
        grid = build_time_grid(1.0, P, 1)
        sys = fast_cliff_system(cliff_on_last_interval(quad.fast_rule), batched)
        residual = residual_of(kind, quad, sys, grid)
        r0 = residual(X0)[0]
        assert np.all(np.isfinite(r0))
        batch = evaluation_error(solver._fd_jacobian, residual, X0, r0)
        loop = evaluation_error(fd_jacobian_loop, residual, X0, r0, solver._FD_STEP)
        assert batch.node_index == loop.node_index == P - 1
        assert str(batch) == str(loop)

    @pytest.mark.parametrize("batched", [False, True], ids=["per-point", "batched"])
    @pytest.mark.parametrize("kind,name,quad", CASES, ids=CASE_IDS)
    def test_first_bad_interval_among_several_columns(self, kind, name, quad, batched,
                                                      monkeypatch):
        # every column after the slow one meets the cliff on some interval;
        # the first column's interval is reported, with any chunking
        grid = build_time_grid(1.0, P, 1)
        sys = fast_cliff_system(0.45, batched)
        x = np.array([0.5, 0.1, 0.2, 0.3, 0.4])
        residual = residual_of(kind, quad, sys, grid)
        r0 = residual(x)[0]
        monkeypatch.setattr(solver, "_FD_STEP", 1.0)
        loop = evaluation_error(fd_jacobian_loop, residual, x, r0, solver._FD_STEP)
        for entries in (1, 2 * x.size, 1 << 16):
            monkeypatch.setattr(solver, "_FD_CHUNK_ENTRIES", entries)
            batch = evaluation_error(solver._fd_jacobian, residual, x, r0)
            assert batch.node_index == loop.node_index

    @pytest.mark.parametrize("batched", [False, True], ids=["per-point", "batched"])
    @pytest.mark.parametrize("kind", ["del", "pq"])
    def test_slow_potential_error_wins_within_a_chunk(self, kind, batched, monkeypatch):
        # h = 1 + |x|: column 1 moves midpoints 0 and 1 to 0.6 and 0.7, into
        # the fast cliff; column 4 moves midpoint 3 to 1.05, past the slow
        # cliff, and no other column reaches either
        grid = build_time_grid(1.0, P, 1)
        sys = dataclasses.replace(
            fast_cliff_system(0.0, batched),
            slow_potential_grad=lambda qs, qf: (np.zeros_like(qs),
                                                np.where(qf > 1.02, np.nan, 0.0 * qf)),
            fast_potential_grad=lambda qf: np.where((qf > 0.55) & (qf < 0.72), np.nan, qf))
        x = np.array([0.5, 0.1, 0.2, 0.3, 0.4])
        residual = residual_of(kind, QuadratureSpec.midpoint_midpoint(), sys, grid)
        r0 = residual(x)[0]
        monkeypatch.setattr(solver, "_FD_STEP", 1.0)
        # the loop meets column 1's fast-potential error first
        loop = evaluation_error(fd_jacobian_loop, residual, x, r0, solver._FD_STEP)
        assert loop.node_index == 0
        assert str(loop) == "non-finite fast-potential gradient at micro interval 0"
        monkeypatch.setattr(solver, "_FD_CHUNK_ENTRIES", x.size)
        single = evaluation_error(solver._fd_jacobian, residual, x, r0)
        assert (single.node_index, str(single)) == (loop.node_index, str(loop))
        # one chunk checks every column's slow-potential gradients before any
        # fast-potential ones, so column 4's slow error is reported instead
        monkeypatch.setattr(solver, "_FD_CHUNK_ENTRIES", 1 << 16)
        chunk = evaluation_error(solver._fd_jacobian, residual, x, r0)
        assert chunk.node_index == 3
        assert str(chunk) == "non-finite slow-potential gradient at micro interval 3"

    @pytest.mark.parametrize("batched", [False, True], ids=["per-point", "batched"])
    @pytest.mark.parametrize("name,quad", PQ_CLIFF_QUADS.items(), ids=list(PQ_CLIFF_QUADS))
    def test_pq_map_names_first_bad_interval(self, name, quad, batched):
        # nodes 0, 0.1, 0.2, 0.3, 0.9 against a cliff at 0.5: the last
        # midpoint (0.6) and node 4 (interval 3) are bad
        grid = build_time_grid(1.0, P, 1)
        evaluate = pq_residual(quad, START, fast_cliff_system(0.5, batched), grid)
        assert evaluation_error(evaluate, X0).node_index == P - 1
        # stacked points: only the second one goes bad, at node 1 (0.6) and
        # from the midpoint of interval 1 on; a trapezoidal rule meets node 1
        # on interval 0, which it closes
        X = np.stack([0.1 * X0, np.array([0.5, 0.6, 0.7, 0.8, 0.9])])
        first_bad = 0 if name == "trapezoidal-trapezoidal" else 1
        assert evaluation_error(evaluate, X).node_index == first_bad

    def test_pq_step_reports_evaluation_error_not_aborted_step(self):
        # a NaN fast gradient on the toy system: before, Newton's iterate
        # went non-finite and the step was reported as aborted
        toy = make_coupled_toy()
        bad = dataclasses.replace(toy, fast_potential_grad=lambda qf: np.where(
            qf > 0.2, np.nan, 25.0 * qf))
        grid = build_time_grid(0.1, 4, 1)
        # fast nodes of the drift guess 0.1, 0.15, ..., 0.3: midpoint 2 is bad
        with pytest.raises(EvaluationError) as info:
            pq_step(State([0.3], [0.1], [-0.2], [4.0]), bad, QuadratureSpec.midpoint_midpoint(),
                    grid, SolverConfig())
        assert info.value.node_index == 2
        with pytest.raises(IntegrationError) as info:
            integrate(State([0.3], [0.1], [-0.2], [4.0]), bad, QuadratureSpec.midpoint_midpoint(),
                      build_time_grid(0.1, 4, 3), SolverConfig(), IntegratorMode.CLOSED_FORM_PQ)
        assert isinstance(info.value.cause, EvaluationError)
