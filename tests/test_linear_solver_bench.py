"""Micro-benchmark of the Newton linear algebra, dense vs block elimination,
and of one implicit macro step in each mode.

Newton builds a matrix (assembly plus ``factor``) now and then and solves
with it (``apply``) at every iteration, so the two are timed apart;
assembly is also timed alone, with the minor page faults per assembly
(``resource.getrusage``) in ``extra_info``.  As within one ``integrate``
call, every build of a case writes into one workspace.  The
matrix is the one of the first macro step of FPU chains, midpoint-midpoint
quadrature, at sizes on both sides of the crossover
(``solver._STRUCTURED_MIN_UNKNOWNS``), which each case moves to force its
path.  ``test_macro_step`` times a whole first step, its matrix builds
included, of the DEL equations and of the p/q map of the same
configuration, which share that linear algebra.  ``test_integrate`` times
whole ``integrate`` calls, with the Newton matrix that their steps share:
FPU l=3, p=10 over 50 steps, and single-rate steps at the reference step
dT = 0.02/2560 of acceptance criterion 3 over 2,000 steps; and 1,000
explicit steps of the spring ring (dT = 0.01, p = 10), which run no Newton
iteration.  The Newton totals and the gradient points per step, counted in
one more run outside the timing, go to ``extra_info``; an explicit step
calls each gradient callback with one point, so there they are its calls
(1 slow and 10 fast).  No case makes a speed assertion; for comparable
numbers pin BLAS to one thread::

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/test_linear_solver_bench.py \\
        --benchmark-group-by=func,param:l,param:p
"""

import math
import resource

import pytest

pytest.importorskip("pytest_benchmark")

from multirate import (IntegratorMode, QuadratureSpec, SolverConfig, build_fpu,  # noqa: E402
                       build_spring_ring, build_time_grid, initial_step, integrate, pq_step,
                       solver)
from multirate.discretization import _Workspace  # noqa: E402
from multirate.solver import _drift_guess, _linearization, _step_residual  # noqa: E402
from multirate.systems import FpuConfig  # noqa: E402

from conftest import count_points  # noqa: E402

pytestmark = pytest.mark.slow


def first_step(monkeypatch, l, p, structured):
    monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0 if structured else math.inf)
    sys, q0 = build_fpu(FpuConfig(l=l))
    quad = QuadratureSpec.midpoint_midpoint()
    grid = build_time_grid(0.3, p, 1)
    residual = _step_residual(q0, sys, quad, grid)
    linear, jacobian = _linearization(sys, quad, grid)
    assert linear.name == ("structured" if structured else "dense")
    x = _drift_guess(q0, sys, grid)
    F = residual(x)[0]
    ws = _Workspace()
    return linear, (lambda: jacobian(q0, residual, x, F, ws)), x, F


CASES = pytest.mark.parametrize("l,p", [(3, 10), (3, 50), (10, 10), (10, 20), (30, 50)])
SOLVERS = pytest.mark.parametrize("structured", [False, True], ids=["dense", "structured"])


@SOLVERS
@CASES
def test_matrix_build(benchmark, monkeypatch, l, p, structured):
    linear, jacobian, x, _ = first_step(monkeypatch, l, p, structured)
    benchmark.extra_info["unknowns"] = x.size
    benchmark(lambda: linear.factor(jacobian()))


@SOLVERS
@CASES
def test_matrix_assembly(benchmark, monkeypatch, l, p, structured):
    _, jacobian, x, _ = first_step(monkeypatch, l, p, structured)
    calls = 0

    def assemble():
        nonlocal calls
        calls += 1
        return jacobian()

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark(assemble)
    benchmark.extra_info["unknowns"] = x.size
    benchmark.extra_info["minor_faults_per_assembly"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / calls


@SOLVERS
@CASES
def test_newton_update(benchmark, monkeypatch, l, p, structured):
    linear, jacobian, x, F = first_step(monkeypatch, l, p, structured)
    factors = linear.factor(jacobian())
    benchmark.extra_info["unknowns"] = x.size
    dx = benchmark(lambda: linear.apply(factors, -F))
    assert dx.shape == x.shape


@pytest.mark.parametrize("mode", ["del", "pq"])
@pytest.mark.parametrize("l,p", [(3, 10), (30, 50)])
def test_macro_step(benchmark, l, p, mode):
    sys, q0 = build_fpu(FpuConfig(l=l))
    grid = build_time_grid(0.3, p, 1)
    step = initial_step if mode == "del" else pq_step
    config = SolverConfig()
    _, stats = benchmark(lambda: step(q0, sys, QuadratureSpec.midpoint_midpoint(), grid, config))
    benchmark.extra_info["unknowns"] = sys.n_slow + p * sys.n_fast
    benchmark.extra_info["newton_iters"] = stats.newton_iters
    benchmark.extra_info["matrix_builds"] = stats.matrix_builds


@pytest.mark.parametrize("system,p,dT,steps", [("fpu", 10, 0.3, 50), ("fpu", 1, 0.02 / 2560, 2000),
                                               ("ring", 10, 0.01, 1000)],
                         ids=["p10", "criterion3-reference", "ring-explicit"])
def test_integrate(benchmark, system, p, dT, steps):
    if system == "ring":
        sys, q0 = build_spring_ring()
        quad, mode = QuadratureSpec.explicit(), IntegratorMode.EXPLICIT
    else:
        sys, q0 = build_fpu(FpuConfig(l=3))
        quad, mode = QuadratureSpec.midpoint_midpoint(), IntegratorMode.IMPLICIT_DEL
    grid = build_time_grid(dT, p, steps)
    config = SolverConfig()
    _, stats = benchmark(lambda: integrate(q0, sys, quad, grid, config, mode))
    counted, points = count_points(sys)
    integrate(q0, counted, quad, grid, config, mode)
    benchmark.extra_info["unknowns"] = sys.n_slow + p * sys.n_fast
    benchmark.extra_info["steps"] = steps
    benchmark.extra_info["newton_iters_total"] = stats.newton_iters_total
    benchmark.extra_info["matrix_builds_total"] = stats.matrix_builds_total
    benchmark.extra_info["slow_grad_points_per_step"] = points["slow"] / steps
    benchmark.extra_info["fast_grad_points_per_step"] = points["fast"] / steps
