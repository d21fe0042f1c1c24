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
unknowns are solved with the shared Newton driver and a finite-difference
Jacobian.  :func:`pq_step` returns the step record shared by all modes
(:class:`multirate.solver.MacroStep`), and
:func:`multirate.solver.integrate` runs it as ``IntegratorMode.CLOSED_FORM_PQ``.
"""

from __future__ import annotations

import functools

import numpy as np

from .discretization import _left_weight
from .errors import ConfigurationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid
from .solver import MacroStep, SolverConfig, StepStats, _drift_guess, _fd_jacobian, _newton

__all__ = ["pq_step"]


def _split(x, sys, p):
    return x[: sys.n_slow], x[sys.n_slow :].reshape(p, sys.n_fast)


def _slow_nodes(s0, s1, p):
    # interpolated slow configuration at all micro nodes, shape (p+1, n_slow)
    frac = np.arange(p + 1)[:, None] / p
    return s0[None, :] + frac * (s1 - s0)[None, :]


def _fast_momenta(p0, decrements):
    # p0, p0 - d[0], (p0 - d[0]) - d[1], ...: shape (p+1, n_fast)
    return np.subtract.accumulate(np.vstack([p0[None, :], decrements]), axis=0)


def _midmid(state: State, sys: MultirateSystem, grid: TimeGrid):
    """Midpoint rule for both potentials: averaged-node implicit update."""
    p = grid.micro_per_macro
    dt = grid.dt
    dT = grid.dT
    s0, f0 = state.q_slow, state.q_fast
    a = (2.0 * np.arange(p) + 1.0) / p          # averaged interpolation weights

    def evaluate(x):
        s1, f_in = _split(x, sys, p)
        fast = np.vstack([f0[None, :], f_in])
        qs = _slow_nodes(s0, s1, p)
        qs_bar = 0.5 * (qs[:-1] + qs[1:])
        qf_bar = 0.5 * (fast[:-1] + fast[1:])
        G_s, G_f = sys.evaluate_batch("slow_potential_grad", qs_bar, qf_bar)
        GW = sys.evaluate_batch("fast_potential_grad", qf_bar)
        p_tilde = state.p_slow - dt * ((1.0 - a) @ G_s)
        p_s_next = p_tilde - dt * (a @ G_s)
        pf = _fast_momenta(state.p_fast, dt * (G_f + GW))
        res = np.empty_like(x)
        res[: sys.n_slow] = s1 - s0 - dT * (sys.mass_slow_inv @ (0.5 * (p_tilde + p_s_next)))
        r_f = fast[1:] - fast[:-1] - dt * (0.5 * (pf[:-1] + pf[1:]) @ sys.mass_fast_inv.T)
        res[sys.n_slow :] = r_f.ravel()
        return res, (s1, fast, pf, p_s_next)

    return evaluate


def _trapmid(state: State, sys: MultirateSystem, grid: TimeGrid, alpha_V: float):
    """Trapezoidal-family slow forces around a midpoint fast oscillation.

    The fast update is a kick (slow force, weight alpha_V), an implicit
    midpoint oscillation under the fast potential, and a closing kick
    (weight 1 - alpha_V).
    """
    p = grid.micro_per_macro
    dt = grid.dt
    dT = grid.dT
    s0, f0 = state.q_slow, state.q_fast
    m_idx = np.arange(1, p)

    def evaluate(x):
        s1, f_in = _split(x, sys, p)
        fast = np.vstack([f0[None, :], f_in])
        qs = _slow_nodes(s0, s1, p)
        G_s, G_f = sys.evaluate_batch("slow_potential_grad", qs, fast)
        p_tilde = state.p_slow - dt * (((p - m_idx) / p) @ G_s[1:p] + alpha_V * G_s[0])
        p_s_next = p_tilde - dt * ((m_idx / p) @ G_s[1:p] + (1.0 - alpha_V) * G_s[p])
        kick = alpha_V * dt * G_f[:-1]
        osc = dt * sys.evaluate_batch("fast_potential_grad", 0.5 * (fast[:-1] + fast[1:]))
        pf = _fast_momenta(state.p_fast, kick + osc + (1.0 - alpha_V) * dt * G_f[1:])
        pf_kick = pf[:-1] - kick
        pf_osc = pf_kick - osc
        r_f = fast[1:] - fast[:-1] - dt * ((0.5 * (pf_kick + pf_osc)) @ sys.mass_fast_inv.T)
        res = np.empty_like(x)
        res[: sys.n_slow] = s1 - s0 - dT * (sys.mass_slow_inv @ p_tilde)
        res[sys.n_slow :] = r_f.ravel()
        return res, (s1, fast, pf, p_s_next)

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
    s0, f0 = state.q_slow, state.q_fast
    m_idx = np.arange(1, p)

    def evaluate(x):
        s1, f_in = _split(x, sys, p)
        fast = np.vstack([f0[None, :], f_in])
        qs = _slow_nodes(s0, s1, p)
        G_s, G_f = sys.evaluate_batch("slow_potential_grad", qs, fast)
        GW = sys.evaluate_batch("fast_potential_grad", fast)
        p_tilde = state.p_slow - dt * (((p - m_idx) / p) @ G_s[1:p] + alpha_V * G_s[0])
        p_s_next = p_tilde - dt * ((m_idx / p) @ G_s[1:p] + (1.0 - alpha_V) * G_s[p])
        force_l = alpha_V * G_f[:-1] + alpha_W * GW[:-1]
        force_r = (1.0 - alpha_V) * G_f[1:] + (1.0 - alpha_W) * GW[1:]
        pf = _fast_momenta(state.p_fast, dt * (force_l + force_r))
        r_f = fast[1:] - fast[:-1] - dt * ((pf[:-1] - dt * force_l) @ sys.mass_fast_inv.T)
        res = np.empty_like(x)
        res[: sys.n_slow] = s1 - s0 - dT * (sys.mass_slow_inv @ p_tilde)
        res[sys.n_slow :] = r_f.ravel()
        return res, (s1, fast, pf, p_s_next)

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
            config: SolverConfig, index: int = 0) -> tuple[MacroStep, StepStats]:
    """Macro step ``index`` from ``state`` by the closed-form map of ``quad``.

    The map's ``evaluate(x)`` returns the residual of the stacked unknowns
    and the derived quantities ``(s1, fast, pf, p_s_next)``; Newton starts
    from the free-drift guess, and the derived quantities of its last
    evaluation, which is at the solution, fill the step record.
    """
    evaluate = _update_map(quad)(state, sys, grid)

    def jacobian(x, F):
        return _fd_jacobian(evaluate, x, F)

    _, (s1, fast, pf, p_s_next), stats = _newton(evaluate, jacobian,
                                                 _drift_guess(state, sys, grid), config)
    return MacroStep(index, state.q_slow, s1, fast, pf, np.stack([state.p_slow, p_s_next])), stats
