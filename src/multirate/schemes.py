"""Closed-form position-momentum update maps.

For the three worked quadrature combinations the discrete Euler-Lagrange
equations can be rearranged into explicit update formulas for configuration
and momentum (the transformed forms with an auxiliary half-updated slow
momentum).  These are solved here directly, independently of the compound
DEL residual in :mod:`multirate.solver`, which makes the two paths useful
cross-checks of each other.

The :class:`~multirate.model.QuadratureSpec` alone selects the map.  With
micro-grid slow placement, midpoint rules for both potentials give the
averaged-node map, a trapezoidal-family slow rule (gamma_V in {0, 1})
around a midpoint fast rule the kick-oscillate-kick map, and
trapezoidal-family rules for both the node-force map.  A trapezoidal-family
rule enters only through the total weight of its left micro node, so both
encodings of a rectangle rule take identical steps.  Macro-node slow
placement and other affine rules have no closed-form map and raise
:class:`~multirate.errors.ConfigurationError`.

All three maps remain implicit because the interpolated slow values at the
micro nodes depend on the unknown next slow configuration; the coupled
unknowns are solved with the shared Newton driver and the forward-difference
matrix of :func:`multirate.solver._fd_jacobian`.  Each map's ``evaluate``
therefore takes stacked unknowns of shape (..., n): a chunk of perturbed
columns is one call, whose gradients go to the callbacks in one batch.  The
gradients are checked once per call; a non-finite one raises
:class:`~multirate.errors.EvaluationError` naming its micro interval (a
value at node m belongs to interval min(m, p-1)).

:func:`pq_step` returns the step record shared by all modes
(:class:`multirate.solver.MacroStep`), and
:func:`multirate.solver.integrate` runs it as ``IntegratorMode.CLOSED_FORM_PQ``.
"""

from __future__ import annotations

import functools

import numpy as np

from .discretization import _fast_gradients, _left_weight, _slow_gradients
from .errors import ConfigurationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid
from .solver import (MacroStep, SolverConfig, StepStats, _drift_guess, _fd_jacobian, _HeldMatrix,
                     _newton, _step_nodes)

__all__ = ["pq_step"]


def _slow_nodes(s0, s1, p):
    # interpolated slow configuration at all micro nodes, shape (..., p+1, n_slow)
    frac = np.arange(p + 1)[:, None] / p
    return s0 + frac * (s1 - s0)[..., None, :]


def _fast_momenta(p0, decrements):
    # p0, p0 - d[0], (p0 - d[0]) - d[1], ... along the node axis: shape (..., p+1, n_fast)
    pf = np.empty(decrements.shape[:-2] + (decrements.shape[-2] + 1, decrements.shape[-1]))
    pf[..., 0, :] = p0
    pf[..., 1:, :] = decrements
    return np.subtract.accumulate(pf, axis=-2)


def _node_intervals(p):
    # micro interval of each node 0..p; the end node closes interval p-1
    return np.minimum(np.arange(p + 1), p - 1)


def _residual(x, sys, s0, s1, dT, slow_momentum, r_f):
    """Stacked residual, shaped like ``x``: the slow drift equation
    s1 - s0 - dT M_s^-1 slow_momentum, then the fast equations ``r_f``
    (..., p, n_fast).  M_s^-1 multiplies each point's momentum as one
    matrix-vector product, as in an unbatched call."""
    res = np.empty(x.shape)
    res[..., :sys.n_slow] = s1 - s0 - dT * (sys.mass_slow_inv @ slow_momentum[..., None])[..., 0]
    res[..., sys.n_slow:] = r_f.reshape(res[..., sys.n_slow:].shape)
    return res


def _midmid(state: State, sys: MultirateSystem, grid: TimeGrid):
    """Midpoint rule for both potentials: averaged-node implicit update."""
    p = grid.micro_per_macro
    dt = grid.dt
    dT = grid.dT
    s0 = state.q_slow
    a = (2.0 * np.arange(p) + 1.0) / p          # averaged interpolation weights
    intervals = np.arange(p)

    def evaluate(x):
        s1, fast = _step_nodes(state, x, sys, p)
        qs = _slow_nodes(s0, s1, p)
        qs_bar = 0.5 * (qs[..., :-1, :] + qs[..., 1:, :])
        qf_bar = 0.5 * (fast[..., :-1, :] + fast[..., 1:, :])
        G_s, G_f = _slow_gradients(sys, intervals, qs_bar, qf_bar)
        GW = _fast_gradients(sys, intervals, qf_bar)
        p_tilde = state.p_slow - dt * ((1.0 - a) @ G_s)
        p_s_next = p_tilde - dt * (a @ G_s)
        pf = _fast_momenta(state.p_fast, dt * (G_f + GW))
        r_f = (fast[..., 1:, :] - fast[..., :-1, :]
               - dt * (0.5 * (pf[..., :-1, :] + pf[..., 1:, :]) @ sys.mass_fast_inv.T))
        res = _residual(x, sys, s0, s1, dT, 0.5 * (p_tilde + p_s_next), r_f)
        return res, (s1, fast, pf, p_s_next)

    return evaluate


def _slow_momenta(state: State, G_s, alpha_V: float, dt: float, p: int):
    """Half-updated and next slow momenta of the trapezoidal-family slow
    rule, from the slow-potential gradients at nodes 0..p."""
    m_idx = np.arange(1, p)
    p_tilde = state.p_slow - dt * (((p - m_idx) / p) @ G_s[..., 1:p, :]
                                   + alpha_V * G_s[..., 0, :])
    p_s_next = p_tilde - dt * ((m_idx / p) @ G_s[..., 1:p, :] + (1.0 - alpha_V) * G_s[..., p, :])
    return p_tilde, p_s_next


def _trapmid(state: State, sys: MultirateSystem, grid: TimeGrid, alpha_V: float):
    """Trapezoidal-family slow forces around a midpoint fast oscillation.

    The fast update is a kick (slow force, weight alpha_V), an implicit
    midpoint oscillation under the fast potential, and a closing kick
    (weight 1 - alpha_V).
    """
    p = grid.micro_per_macro
    dt = grid.dt
    dT = grid.dT
    s0 = state.q_slow
    nodes = _node_intervals(p)
    intervals = np.arange(p)

    def evaluate(x):
        s1, fast = _step_nodes(state, x, sys, p)
        G_s, G_f = _slow_gradients(sys, nodes, _slow_nodes(s0, s1, p), fast)
        p_tilde, p_s_next = _slow_momenta(state, G_s, alpha_V, dt, p)
        kick = alpha_V * dt * G_f[..., :-1, :]
        osc = dt * _fast_gradients(sys, intervals, 0.5 * (fast[..., :-1, :] + fast[..., 1:, :]))
        pf = _fast_momenta(state.p_fast, kick + osc + (1.0 - alpha_V) * dt * G_f[..., 1:, :])
        pf_kick = pf[..., :-1, :] - kick
        pf_osc = pf_kick - osc
        r_f = (fast[..., 1:, :] - fast[..., :-1, :]
               - dt * ((0.5 * (pf_kick + pf_osc)) @ sys.mass_fast_inv.T))
        return _residual(x, sys, s0, s1, dT, p_tilde, r_f), (s1, fast, pf, p_s_next)

    return evaluate


def _traptrap(state: State, sys: MultirateSystem, grid: TimeGrid, alpha_V: float,
              alpha_W: float):
    """Trapezoidal-family rules for both potentials.

    The fast chain advances by node-force updates that are explicit once the
    interpolated slow values are fixed; the overall map stays implicit
    through the dependence on the next slow configuration.
    """
    p = grid.micro_per_macro
    dt = grid.dt
    dT = grid.dT
    s0 = state.q_slow
    nodes = _node_intervals(p)

    def evaluate(x):
        s1, fast = _step_nodes(state, x, sys, p)
        G_s, G_f = _slow_gradients(sys, nodes, _slow_nodes(s0, s1, p), fast)
        GW = _fast_gradients(sys, nodes, fast)
        p_tilde, p_s_next = _slow_momenta(state, G_s, alpha_V, dt, p)
        force_l = alpha_V * G_f[..., :-1, :] + alpha_W * GW[..., :-1, :]
        force_r = (1.0 - alpha_V) * G_f[..., 1:, :] + (1.0 - alpha_W) * GW[..., 1:, :]
        pf = _fast_momenta(state.p_fast, dt * (force_l + force_r))
        r_f = (fast[..., 1:, :] - fast[..., :-1, :]
               - dt * ((pf[..., :-1, :] - dt * force_l) @ sys.mass_fast_inv.T))
        return _residual(x, sys, s0, s1, dT, p_tilde, r_f), (s1, fast, pf, p_s_next)

    return evaluate


def _update_map(quad: QuadratureSpec):
    """The closed-form map of a quadrature, as a function
    ``(state, sys, grid) -> evaluate`` (see :func:`pq_step`)."""
    if quad.slow_placement is not SlowPlacement.MICRO_GRID:
        raise ConfigurationError("closed-form maps require micro-grid slow placement")
    v_mid = quad.gamma_V == 0.5
    w_mid = quad.gamma_W == 0.5
    v_trap = quad.gamma_V in (0.0, 1.0)
    w_trap = quad.gamma_W in (0.0, 1.0)
    if v_mid and w_mid:
        return _midmid
    if v_trap and w_mid:
        return functools.partial(_trapmid, alpha_V=_left_weight(quad.alpha_V, quad.gamma_V))
    if v_trap and w_trap:
        return functools.partial(_traptrap, alpha_V=_left_weight(quad.alpha_V, quad.gamma_V),
                                 alpha_W=_left_weight(quad.alpha_W, quad.gamma_W))
    raise ConfigurationError(
        "no closed-form map for this quadrature (need midpoint or trapezoidal-family rules)")


def pq_step(state: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
            config: SolverConfig, index: int = 0, held: _HeldMatrix | None = None,
            ) -> tuple[MacroStep, StepStats]:
    """Macro step ``index`` from ``state`` by the closed-form map of ``quad``.

    The map's ``evaluate(x)`` returns the residual of the stacked unknowns
    and the derived quantities ``(s1, fast, pf, p_s_next)``; Newton starts
    from the free-drift guess, and the derived quantities of its last
    evaluation, which is at the solution, fill the step record.  ``held``
    is the Newton matrix holder that :func:`multirate.solver.integrate`
    shares between its steps; without one, the step builds its own matrix.
    """
    evaluate = _update_map(quad)(state, sys, grid)

    def jacobian(x, F):
        return _fd_jacobian(evaluate, x, F)

    _, (s1, fast, pf, p_s_next), stats = _newton(evaluate, jacobian,
                                                 _drift_guess(state, sys, grid), config,
                                                 held=held)
    return MacroStep(index, state.q_slow, s1, fast, pf, np.stack([state.p_slow, p_s_next])), stats
