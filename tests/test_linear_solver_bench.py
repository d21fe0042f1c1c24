"""Micro-benchmark of the Newton linear algebra, dense vs block elimination.

Newton builds a matrix (assembly plus ``factor``) now and then and solves
with it (``apply``) at every iteration, so the two are timed apart;
assembly is also timed alone, with the minor page faults per assembly
(``resource.getrusage``) in ``extra_info``.  As within one ``integrate``
call, every build of a case writes into one workspace.  The
matrix is the one of the first macro step of FPU chains, midpoint-midpoint
quadrature, at sizes on both sides of the crossover
(``solver._STRUCTURED_MIN_UNKNOWNS``), which each case moves to force its
path.  It makes no speed assertion; for comparable numbers pin BLAS to one
thread::

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/test_linear_solver_bench.py \\
        --benchmark-group-by=func,param:l,param:p
"""

import math
import resource

import pytest

pytest.importorskip("pytest_benchmark")

from multirate import QuadratureSpec, build_fpu, build_time_grid, solver  # noqa: E402
from multirate.discretization import _Workspace  # noqa: E402
from multirate.solver import _drift_guess, _linearization, _step_residual  # noqa: E402
from multirate.systems import FpuConfig  # noqa: E402

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
