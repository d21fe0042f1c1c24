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

A p/q step is therefore the DEL step of
:func:`multirate.solver._solve_step`, from the free-drift guess, with one
difference: its stop and refresh rules read the norm of T F instead of
F's.  Since T is constant and invertible, (T J)^-1 T F = J^-1 F, so the
Newton update, the Newton matrix (analytic blocks, a dense inverse, or
differences of F for a system without Hessians,
:func:`multirate.solver._linearization`) and the evaluated points are the
DEL step's, and so are the errors a non-finite gradient raises.  T F
agrees to rounding with the hand-derived closed forms, which the tests keep
as the reference.

The :class:`~multirate.model.QuadratureSpec` alone selects the map.  With
micro-grid slow placement, midpoint rules for both potentials give the
averaged-node map, a trapezoidal-family slow rule (gamma_V in {0, 1})
around a midpoint fast rule the kick-oscillate-kick map, and
trapezoidal-family rules for both the node-force map; both encodings of a
trapezoidal-family rule take identical steps.  Other quadratures raise
:class:`~multirate.errors.ConfigurationError`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid
from .solver import MacroStep, SolverConfig, StepStats, _drift_guess, _HeldMatrix, _solve_step

__all__ = ["pq_step"]


def _pq_transform(sys: MultirateSystem, grid: TimeGrid):
    """``transform(F, absolute=False) -> T F``, or |T| F with ``absolute``:
    T applied along F's last axis, whose layout is that of the stacked
    unknowns; leading axes are transformed one by one, and F is left as it
    was."""
    n_s = sys.n_slow
    fast_shape = (grid.micro_per_macro, sys.n_fast)
    T_s = -grid.dT * sys.mass_slow_inv
    T_f = -grid.dt * sys.mass_fast_inv.T
    abs_T_s, abs_T_f = np.abs(T_s), np.abs(T_f)

    def transform(F, absolute=False):
        res = np.empty(F.shape)
        res[..., :n_s] = ((abs_T_s if absolute else T_s) @ F[..., :n_s, None])[..., 0]
        # the running sums of F's fast rows (splitting the last axis is a view)
        sums = np.cumsum(F[..., n_s:].reshape(F.shape[:-1] + fast_shape), axis=-2)
        res[..., n_s:] = (sums @ (abs_T_f if absolute else T_f)).reshape(res[..., n_s:].shape)
        return res

    return transform


def _check_map(quad: QuadratureSpec):
    """Raise :class:`~multirate.errors.ConfigurationError` for a quadrature
    without a p/q map."""
    if quad.slow_placement is not SlowPlacement.MICRO_GRID:
        raise ConfigurationError("closed-form maps require micro-grid slow placement")
    v_mid = quad.gamma_V == 0.5
    w_mid = quad.gamma_W == 0.5
    v_trap = quad.gamma_V in (0.0, 1.0)
    w_trap = quad.gamma_W in (0.0, 1.0)
    if not ((v_mid and w_mid) or (v_trap and (w_mid or w_trap))):
        raise ConfigurationError(
            "no closed-form map for this quadrature (need midpoint or trapezoidal-family rules)")


def pq_step(state: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
            config: SolverConfig, index: int = 0, held: _HeldMatrix | None = None,
            ) -> tuple[MacroStep, StepStats]:
    """Macro step ``index`` from ``state`` by the p/q map of ``quad``.

    Newton starts from the free-drift guess and stops on the norm of T F;
    everything else is the DEL step's, the record included
    (:func:`multirate.solver._solve_step`).  ``held`` is the Newton matrix
    holder that :func:`multirate.solver.integrate` shares between its
    steps; without one, the step builds its own matrix.
    """
    _check_map(quad)
    return _solve_step(index, state, _drift_guess(state, sys, grid), sys, quad, grid, config,
                       held, _pq_transform(sys, grid))
