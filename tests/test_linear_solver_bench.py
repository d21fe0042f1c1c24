"""Micro-benchmark of one Newton iteration, dense LU vs block elimination.

One iteration is the Jacobian assembly plus the linear solve of the first
macro step of FPU chains, midpoint-midpoint quadrature, at sizes on both
sides of the AUTO crossover (``solver._STRUCTURED_MIN_UNKNOWNS``).  It makes
no speed assertion; for comparable numbers pin BLAS to one thread::

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/test_linear_solver_bench.py \\
        --benchmark-group-by=param:l,param:p
"""

import pytest

pytest.importorskip("pytest_benchmark")

from multirate import QuadratureSpec, SolverConfig, build_fpu, build_time_grid  # noqa: E402
from multirate.solver import _drift_guess, _step_linearization, _step_residual  # noqa: E402
from multirate.systems import FpuConfig  # noqa: E402

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("structured", [False, True], ids=["dense", "structured"])
@pytest.mark.parametrize("l,p", [(3, 10), (3, 50), (10, 10), (10, 20), (30, 50)])
def test_newton_iteration(benchmark, l, p, structured):
    sys, q0 = build_fpu(FpuConfig(l=l))
    quad = QuadratureSpec.midpoint_midpoint()
    grid = build_time_grid(0.3, p, 1)
    residual = _step_residual(q0, sys, quad, grid)
    jacobian, solve = _step_linearization(q0, residual, sys, quad, grid, SolverConfig(),
                                          structured)
    x = _drift_guess(q0, sys, grid)
    F = residual(x)[0]
    benchmark.extra_info["unknowns"] = x.size
    dx = benchmark(lambda: solve(jacobian(x, F), -F))
    assert dx.shape == x.shape
