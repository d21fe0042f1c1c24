"""Position-momentum update maps.

For the three worked quadrature combinations the discrete Euler-Lagrange
equations can be rearranged into update formulas for configuration and
momentum, with an auxiliary half-updated slow momentum.  Those formulas are
the DEL equations rewritten through the discrete Legendre transforms
(Marsden & West, *Discrete mechanics and variational integrators*, Acta
Numerica 2001), so their residual is one fixed linear transform T of the
compound DEL residual F of :func:`multirate.solver._step_residual`:

- slow row: ``-dT M_s^-1 F_s``, the slow drift equation
  ``q_s1 - q_s0 - dT M_s^-1 p~`` with ``p~`` the half-updated slow momentum;
- fast row m: ``-dt M_f^-1 (F_f[0] + ... + F_f[m])``, a running sum over
  the micro nodes, the update of fast node m+1 from the fast momentum
  propagated by the node forces of intervals 0..m.

This module evaluates no potential and holds no quadrature weight: every
point and weight comes from the interval kernel of
:mod:`multirate.discretization` through F.  A point with zero weight is
therefore not evaluated (the left-rectangle trapezoidal-trapezoidal map does
not call the fast gradient at node p), and a non-finite gradient raises
:class:`~multirate.errors.EvaluationError` naming the first micro interval
whose weighted term uses that point, as the DEL residual does.  T F agrees
to rounding with the hand-derived closed forms, which the tests keep as the
reference, so trajectories differ from theirs at rounding level only.

The :class:`~multirate.model.QuadratureSpec` alone selects the map.  With
micro-grid slow placement, midpoint rules for both potentials give the
averaged-node map, a trapezoidal-family slow rule (gamma_V in {0, 1})
around a midpoint fast rule the kick-oscillate-kick map, and
trapezoidal-family rules for both the node-force map; both encodings of a
trapezoidal-family rule take identical steps.  Other quadratures raise
:class:`~multirate.errors.ConfigurationError`.  The maps stay implicit
through the interpolated slow values, so :func:`pq_step` solves them with
the shared Newton driver.  Since T is constant, their Newton matrix is T J,
J the DEL step's analytic Jacobian, where the system supplies both
Hessians; otherwise it is the forward-difference matrix of T F, whose
perturbed columns go to ``evaluate`` stacked as (..., n) in one call
(:func:`multirate.solver._linearization`).  Either is solved densely.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid
from .solver import (MacroStep, SolverConfig, StepStats, _drift_guess, _HeldMatrix, _linearization,
                     _newton, _step_record, _step_residual)

__all__ = ["pq_step"]


def _pq_transform(sys: MultirateSystem, grid: TimeGrid):
    """``transform(F) -> T F``, T applied along F's last axis, whose layout
    is that of the stacked unknowns; leading axes are transformed one by
    one.  The running sums are written into F's fast rows in place, so F
    must be an array that nothing else reads afterwards."""
    n_s = sys.n_slow
    fast_shape = (grid.micro_per_macro, sys.n_fast)
    T_s = -grid.dT * sys.mass_slow_inv
    T_f = -grid.dt * sys.mass_fast_inv.T

    def transform(F):
        res = np.empty(F.shape)
        res[..., :n_s] = (T_s @ F[..., :n_s, None])[..., 0]
        # the running sums in place, in F's fast rows (splitting the last axis is a view)
        F_f = F[..., n_s:].reshape(F.shape[:-1] + fast_shape)
        np.cumsum(F_f, axis=-2, out=F_f)
        res[..., n_s:] = (F_f @ T_f).reshape(res[..., n_s:].shape)
        return res

    return transform


def _pq_residual(quad: QuadratureSpec, state: State, sys: MultirateSystem, grid: TimeGrid):
    """``evaluate(x) -> (T F, aux)``: the p/q residual of the step from
    ``state``, T applied to the DEL residual ``(F, aux)`` at x.  Each point
    of a batch is transformed as it would be alone."""
    residual = _step_residual(state, sys, quad, grid)
    transform = _pq_transform(sys, grid)

    def evaluate(x):
        F, aux = residual(x)
        return transform(F), aux

    return evaluate


def _update_map(quad: QuadratureSpec):
    """The p/q map of a quadrature, as a function
    ``(state, sys, grid) -> evaluate`` (see :func:`pq_step`)."""
    if quad.slow_placement is not SlowPlacement.MICRO_GRID:
        raise ConfigurationError("closed-form maps require micro-grid slow placement")
    v_mid = quad.gamma_V == 0.5
    w_mid = quad.gamma_W == 0.5
    v_trap = quad.gamma_V in (0.0, 1.0)
    w_trap = quad.gamma_W in (0.0, 1.0)
    if (v_mid and w_mid) or (v_trap and (w_mid or w_trap)):
        return functools.partial(_pq_residual, quad)
    raise ConfigurationError(
        "no closed-form map for this quadrature (need midpoint or trapezoidal-family rules)")


def pq_step(state: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
            config: SolverConfig, index: int = 0, held: _HeldMatrix | None = None,
            ) -> tuple[MacroStep, StepStats]:
    """Macro step ``index`` from ``state`` by the p/q map of ``quad``.

    The map's ``evaluate(x)`` returns the residual of the stacked unknowns
    and the DEL residual's aux; Newton starts from the free-drift guess,
    with the matrix T J, or differences of T F for a system without
    Hessians (:func:`multirate.solver._linearization`), and the record is
    built as for a DEL step, the momenta once at the accepted iterate
    (:func:`multirate.solver._step_record`).  ``held`` is the Newton
    matrix holder that :func:`multirate.solver.integrate` shares between its
    steps; without one, the step builds its own matrix.
    """
    evaluate = _update_map(quad)(state, sys, grid)
    linear, jacobian = _linearization(sys, quad, grid, _pq_transform(sys, grid))
    x, aux, stats = _newton(evaluate, functools.partial(jacobian, state, evaluate),
                            _drift_guess(state, sys, grid), config, linear, held)
    return _step_record(index, state, x, aux, sys, quad, grid), stats
