"""Micro-benchmark of one Newton iteration, dense LU vs block elimination.

One iteration is the Jacobian assembly plus the linear solve of the first
macro step of FPU chains, midpoint-midpoint quadrature, at sizes on both
sides of the crossover (``solver._STRUCTURED_MIN_UNKNOWNS``), which each
case moves to force its path.  It makes no speed assertion; for comparable
numbers pin BLAS to one thread::

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/test_linear_solver_bench.py \\
        --benchmark-group-by=param:l,param:p
"""

import math

import pytest

pytest.importorskip("pytest_benchmark")

from multirate import QuadratureSpec, build_fpu, build_time_grid, solver  # noqa: E402
from multirate.solver import _drift_guess, _linearization, _step_residual  # noqa: E402
from multirate.systems import FpuConfig  # noqa: E402

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("structured", [False, True], ids=["dense", "structured"])
@pytest.mark.parametrize("l,p", [(3, 10), (3, 50), (10, 10), (10, 20), (30, 50)])
def test_newton_iteration(benchmark, monkeypatch, l, p, structured):
    monkeypatch.setattr(solver, "_STRUCTURED_MIN_UNKNOWNS", 0 if structured else math.inf)
    sys, q0 = build_fpu(FpuConfig(l=l))
    quad = QuadratureSpec.midpoint_midpoint()
    grid = build_time_grid(0.3, p, 1)
    residual = _step_residual(q0, sys, quad, grid)
    name, jacobian, solve = _linearization(sys, quad, grid)
    assert name == ("structured" if structured else "dense")
    x = _drift_guess(q0, sys, grid)
    F = residual(x)[0]
    benchmark.extra_info["unknowns"] = x.size
    dx = benchmark(lambda: solve(jacobian(q0, residual, x, F), -F))
    assert dx.shape == x.shape
