"""Closed-form position-momentum update maps.

For the three worked quadrature combinations the discrete Euler-Lagrange
equations can be rearranged into explicit update formulas for configuration
and momentum (the transformed forms with an auxiliary half-updated slow
momentum).  These are solved here directly, independently of the compound
DEL residual in :mod:`multirate.solver`, which makes the two paths useful
cross-checks of each other.

All three maps remain implicit because the interpolated slow values at the
micro nodes depend on the unknown next slow configuration; the coupled
unknowns are solved with the shared Newton driver and a finite-difference
Jacobian.  Trajectories run through the one integration loop of
:func:`multirate.solver.integrate`, which turns each :func:`pq_step` into the
step record (:class:`multirate.solver.MacroStep`) shared by all modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import _left_weight
from .errors import ConfigurationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid, Trajectory
from .solver import (IntegrationStats, IntegratorMode, SolverConfig, StepStats, _drift_guess,
                     _fd_jacobian, _newton, integrate)

__all__ = [
    "PQSchemeKind",
    "PQStepResult",
    "quad_to_scheme_kind",
    "scheme_kind_to_quad",
    "pq_step_midmid",
    "pq_step_trapmid",
    "pq_step_traptrap",
    "pq_step",
    "integrate_pq",
]


@dataclass(frozen=True)
class PQSchemeKind:
    """Which closed-form update map to use, with its node weights.

    ``alpha_V``/``alpha_W`` are the weights of the left micro node in the
    trapezoidal-family rules (unused for midpoint parts).
    """

    kind: str
    alpha_V: float = 0.5
    alpha_W: float = 0.5

    KINDS = ("midpoint-midpoint", "trapezoidal-midpoint", "trapezoidal-trapezoidal")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        for nm in ("alpha_V", "alpha_W"):
            v = float(getattr(self, nm))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{nm} must lie in [0, 1]")
            object.__setattr__(self, nm, v)

    @classmethod
    def midpoint_midpoint(cls):
        return cls("midpoint-midpoint")

    @classmethod
    def trapezoidal_midpoint(cls, alpha_V: float = 1.0):
        return cls("trapezoidal-midpoint", alpha_V=alpha_V)

    @classmethod
    def trapezoidal_trapezoidal(cls, alpha_V: float = 1.0, alpha_W: float = 1.0):
        return cls("trapezoidal-trapezoidal", alpha_V=alpha_V, alpha_W=alpha_W)


def quad_to_scheme_kind(quad: QuadratureSpec) -> PQSchemeKind:
    """Classify a quadrature choice as one of the closed-form schemes."""
    if quad.slow_placement is not SlowPlacement.MICRO_GRID:
        raise ConfigurationError("closed-form maps require micro-grid slow placement")
    v_mid = quad.gamma_V == 0.5
    w_mid = quad.gamma_W == 0.5
    v_trap = quad.gamma_V in (0.0, 1.0)
    w_trap = quad.gamma_W in (0.0, 1.0)
    if v_mid and w_mid:
        return PQSchemeKind.midpoint_midpoint()
    if v_trap and w_mid:
        return PQSchemeKind.trapezoidal_midpoint(_left_weight(quad.alpha_V, quad.gamma_V))
    if v_trap and w_trap:
        return PQSchemeKind.trapezoidal_trapezoidal(
            _left_weight(quad.alpha_V, quad.gamma_V),
            _left_weight(quad.alpha_W, quad.gamma_W))
    raise ConfigurationError(
        "no closed-form map for this quadrature (need midpoint or trapezoidal-family rules)")


def scheme_kind_to_quad(kind: PQSchemeKind) -> QuadratureSpec:
    """Quadrature specification matching a closed-form scheme."""
    if kind.kind == "midpoint-midpoint":
        return QuadratureSpec.midpoint_midpoint()
    if kind.kind == "trapezoidal-midpoint":
        return QuadratureSpec(kind.alpha_V, 1.0, 0.5, 0.5)
    return QuadratureSpec(kind.alpha_V, 1.0, kind.alpha_W, 1.0)


@dataclass
class PQStepResult:
    """One macro step of a closed-form map, with the micro-grid data."""

    state: State                 # state at the next macro node
    fast_q: np.ndarray           # (p+1, n_fast) fast configurations
    fast_p: np.ndarray           # (p+1, n_fast) matched fast momenta
    p_tilde_slow: np.ndarray     # auxiliary half-updated slow momentum
    stats: StepStats


def _split(x, sys, p):
    return x[: sys.n_slow], x[sys.n_slow :].reshape(p, sys.n_fast)


def _slow_nodes(s0, s1, p):
    # interpolated slow configuration at all micro nodes, shape (p+1, n_slow)
    frac = np.arange(p + 1)[:, None] / p
    return s0[None, :] + frac * (s1 - s0)[None, :]


def _fast_momenta(p0, decrements):
    # p0, p0 - d[0], (p0 - d[0]) - d[1], ...: shape (p+1, n_fast)
    return np.subtract.accumulate(np.vstack([p0[None, :], decrements]), axis=0)


def _solve_pq(state, sys, grid, config, evaluate) -> PQStepResult:
    """Newton-solve a transformed update map.

    ``evaluate(x)`` returns (residual, aux) where aux carries the update's
    derived quantities ``(s1, fast, pf, p_tilde, p_s_next)``; the aux of the
    last evaluation is the one at the solution.
    """
    def jacobian(x, F):
        return _fd_jacobian(evaluate, x, F, config.fd_step)

    _, aux, stats = _newton(evaluate, jacobian, _drift_guess(state, sys, grid), config)
    s1, fast, pf, p_tilde, p_s_next = aux
    return PQStepResult(State(s1, fast[-1], p_s_next, pf[-1]), fast, pf, p_tilde, stats)


def pq_step_midmid(state: State, sys: MultirateSystem, grid: TimeGrid,
                   config: SolverConfig) -> PQStepResult:
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
        return res, (s1, fast, pf, p_tilde, p_s_next)

    return _solve_pq(state, sys, grid, config, evaluate)


def pq_step_trapmid(state: State, sys: MultirateSystem, grid: TimeGrid, alpha_V: float,
                    config: SolverConfig) -> PQStepResult:
    """Trapezoidal-family slow forces around a midpoint fast oscillation.

    The fast update is a kick (slow force, weight alpha_V), an implicit
    midpoint oscillation under the fast potential, and a closing kick
    (weight 1 - alpha_V).
    """
    if not 0.0 <= alpha_V <= 1.0:
        raise ValueError("alpha_V must lie in [0, 1]")
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
        return res, (s1, fast, pf, p_tilde, p_s_next)

    return _solve_pq(state, sys, grid, config, evaluate)


def pq_step_traptrap(state: State, sys: MultirateSystem, grid: TimeGrid, alpha_V: float,
                     alpha_W: float, config: SolverConfig) -> PQStepResult:
    """Trapezoidal-family rules for both potentials.

    The fast chain advances by node-force updates that are explicit once the
    interpolated slow values are fixed; the overall map stays implicit
    through the dependence on the next slow configuration.
    """
    for nm, v in (("alpha_V", alpha_V), ("alpha_W", alpha_W)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{nm} must lie in [0, 1]")
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
        return res, (s1, fast, pf, p_tilde, p_s_next)

    return _solve_pq(state, sys, grid, config, evaluate)


def pq_step(state: State, sys: MultirateSystem, grid: TimeGrid, kind: PQSchemeKind,
            config: SolverConfig) -> PQStepResult:
    if kind.kind == "midpoint-midpoint":
        return pq_step_midmid(state, sys, grid, config)
    if kind.kind == "trapezoidal-midpoint":
        return pq_step_trapmid(state, sys, grid, kind.alpha_V, config)
    return pq_step_traptrap(state, sys, grid, kind.alpha_V, kind.alpha_W, config)


def integrate_pq(q0: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
                 config: SolverConfig) -> tuple[Trajectory, IntegrationStats]:
    """Integrate with the closed-form map matching the given quadrature."""
    return integrate(q0, sys, quad, grid, config, IntegratorMode.CLOSED_FORM_PQ)
