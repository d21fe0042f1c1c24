"""Diagnostics: energy and momentum-map series, error norms, convergence
orders and linear stability of the interpolated-slow-variable schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AlignmentError, IntegrationError
from .model import MultirateSystem, QuadratureSpec, State, TimeGrid, Trajectory
from .solver import IntegratorMode, SolverConfig, integrate

__all__ = [
    "EnergySeries",
    "energy_series",
    "angular_momentum_series",
    "ErrorNorms",
    "error_norms",
    "ConvergenceTable",
    "convergence_study",
    "StabilityReport",
    "propagation_matrix",
    "stability_report",
    "empirical_stability_probe",
]


# ---------------------------------------------------------------------------
# energies and momentum maps


@dataclass
class EnergySeries:
    """Continuous energies evaluated at the macro nodes of a trajectory."""

    times: np.ndarray
    kinetic: np.ndarray
    slow_potential: np.ndarray
    fast_potential: np.ndarray
    total: np.ndarray
    stiff_energies: Optional[np.ndarray] = None   # (N+1, n_fast) oscillatory energies
    stiff_total: Optional[np.ndarray] = None


def energy_series(traj: Trajectory, sys: MultirateSystem) -> EnergySeries:
    """Kinetic, potential and total energy at every macro node.

    Velocities are recovered from the stored momenta via the inverse mass
    matrices.  Systems that define per-degree-of-freedom oscillatory energies
    also get the stiff energy series and its sum.  The potentials and the
    oscillatory energy are evaluated at the stacked macro nodes
    (:meth:`MultirateSystem.evaluate_batch`): a ``batched`` system's in one
    call, another system's once per node.
    """
    grid = traj.grid
    n_nodes = grid.n_macro + 1
    p = grid.micro_per_macro
    q_s, p_s = traj.slow_q, traj.slow_p
    q_f, p_f = traj.fast_q[::p], traj.fast_p[::p]  # micro node (k, 0) of macro node k
    T_s, v_s = _kinetic(p_s, sys.mass_slow_inv)
    T_f, v_f = _kinetic(p_f, sys.mass_fast_inv)
    kin = 0.5 * T_s + 0.5 * T_f
    vpot = _per_node(sys, "slow_potential", (n_nodes,), q_s, q_f)
    wpot = _per_node(sys, "fast_potential", (n_nodes,), q_f)
    stiff = None
    if sys.oscillatory_energy:
        stiff = _per_node(sys, "oscillatory_energy", (n_nodes, sys.n_fast), q_f, v_f)
    total = kin + vpot + wpot
    return EnergySeries(grid.macro_times(), kin, vpot, wpot, total, stiff,
                        stiff.sum(axis=1) if stiff is not None else None)


def _kinetic(P: np.ndarray, M_inv: np.ndarray):
    """``(p . v, v)`` per row of momenta ``P`` (k, n), v = M_inv p.

    One matrix-vector and one inner product per row, as for a single node,
    so that a node's values do not depend on the nodes stacked with it.
    """
    V = M_inv @ P[:, :, None]
    return (P[:, None, :] @ V)[:, 0, 0], V[:, :, 0]


def _per_node(sys: MultirateSystem, name: str, shape: tuple, *points) -> np.ndarray:
    """Values of the callable ``name`` at the stacked macro nodes, which
    must come one per node."""
    values = sys.evaluate_batch(name, *points)
    if values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape} for "
                         f"{shape[0]} stacked points, expected {shape}")
    return values


def angular_momentum_series(traj: Trajectory, sys: MultirateSystem, axis=None) -> np.ndarray:
    """Angular momentum component about ``axis`` at every macro node.

    Requires the configuration to be a concatenation of 3-vectors per mass;
    the contribution of each mass is q x p, so mass values are not needed.
    """
    if sys.n_slow % 3 or sys.n_fast % 3:
        raise ValueError("configuration dimensions must be multiples of 3")
    axis = np.array([0.0, 0.0, 1.0]) if axis is None else np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    N, p = traj.grid.n_macro, traj.grid.micro_per_macro
    out = np.empty(N + 1)
    for k in range(N + 1):
        i = k * p
        L = np.zeros(3)
        for q, mom in ((traj.slow_q[k], traj.slow_p[k]), (traj.fast_q[i], traj.fast_p[i])):
            qm = q.reshape(-1, 3)
            pm = mom.reshape(-1, 3)
            L += np.sum(np.cross(qm, pm), axis=0)
        out[k] = float(L @ axis)
    return out


# ---------------------------------------------------------------------------
# errors against a reference trajectory


@dataclass
class ErrorNorms:
    e_q_mac: float
    e_p_mac: float
    e_q_mic: float
    e_p_mic: float


def _ref_index(t: float, ref: Trajectory, rel_tol: float = 1e-6) -> int:
    grid = ref.grid
    x = (t - grid.t0) / grid.dT
    j = int(round(x))
    if abs(x - j) > rel_tol or j < 0 or j > grid.n_macro:
        raise AlignmentError(f"time {t!r} is not a node of the reference trajectory")
    return j


def error_norms(traj: Trajectory, reference: Trajectory, include_micro: bool = True) -> ErrorNorms:
    """Sup-norm errors on macro and micro nodes against a finer reference.

    The macro error compares the full configuration/momentum at macro nodes;
    the micro error compares the fast variables only and excludes the shared
    macro nodes.  Every compared node time must exist in the reference grid.
    """
    grid = traj.grid
    N, p = grid.n_macro, grid.micro_per_macro
    e_q_mac = e_p_mac = e_q_mic = e_p_mic = 0.0
    for k in range(N + 1):
        j = _ref_index(grid.macro_time(k), reference)
        st = traj.macro_state(k)
        rf = reference.macro_state(j)
        dq = np.concatenate([st.q_slow - rf.q_slow, st.q_fast - rf.q_fast])
        dp = np.concatenate([st.p_slow - rf.p_slow, st.p_fast - rf.p_fast])
        e_q_mac = max(e_q_mac, float(np.linalg.norm(dq)))
        e_p_mac = max(e_p_mac, float(np.linalg.norm(dp)))
    if include_micro and p > 1:
        for k in range(N):
            for m in range(1, p):
                j = _ref_index(grid.micro_time(k, m), reference)
                i = grid.micro_index(k, m)
                ri = reference.grid.micro_index(j, 0)
                e_q_mic = max(e_q_mic, float(np.linalg.norm(traj.fast_q[i] - reference.fast_q[ri])))
                e_p_mic = max(e_p_mic, float(np.linalg.norm(traj.fast_p[i] - reference.fast_p[ri])))
    return ErrorNorms(e_q_mac, e_p_mac, e_q_mic, e_p_mic)


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceTable:
    """Errors and observed orders over a macro-step sweep.

    ``observed_orders[series]["pairwise"]`` holds the slopes between
    successive rows (log ratio of errors over log ratio of steps) and
    ``...["lsq"]`` the least-squares aggregate over all valid rows.
    """

    dT_values: np.ndarray
    errors_q_mac: np.ndarray
    errors_p_mac: np.ndarray
    errors_q_mic: np.ndarray
    errors_p_mic: np.ndarray
    observed_orders: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    SERIES = ("q_mac", "p_mac", "q_mic", "p_mic")

    def errors(self, series: str) -> np.ndarray:
        return getattr(self, f"errors_{series}")


def _orders(dT: np.ndarray, err: np.ndarray) -> dict:
    pair = []
    for i in range(len(dT) - 1):
        a, b = err[i], err[i + 1]
        if np.isfinite(a) and np.isfinite(b) and a > 0 and b > 0:
            pair.append(math.log(a / b) / math.log(dT[i] / dT[i + 1]))
        else:
            pair.append(float("nan"))
    mask = np.isfinite(err) & (err > 0)
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log(dT[mask]), np.log(err[mask]), 1)[0])
    else:
        slope = float("nan")
    return {"pairwise": pair, "lsq": slope}


def convergence_study(sys: MultirateSystem, quad: QuadratureSpec, q0: State, p_ratio: int,
                      dT_list, t_end: float, config: SolverConfig,
                      reference: Optional[Trajectory] = None, ref_dT: Optional[float] = None,
                      mode: IntegratorMode = IntegratorMode.IMPLICIT_DEL,
                      include_micro: bool = True) -> ConvergenceTable:
    """Numerical convergence orders against a fine single-rate reference.

    If no reference trajectory is supplied, one is computed at ``ref_dT``
    with one micro step per macro step using the same quadrature.  Sweep rows
    run one after another; failures are recorded per row instead of aborting
    the study.  A ``p_ratio``, ``t_end``, ``ref_dT`` or
    ``dT_list`` that no time grid can hold raises ValueError before any
    integration.
    """
    if int(p_ratio) != p_ratio or p_ratio < 1:
        raise ValueError(f"p_ratio must be a positive integer, got {p_ratio}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    dT_values = np.asarray(list(dT_list), dtype=float)
    if not np.all(np.isfinite(dT_values) & (dT_values > 0)):
        raise ValueError(f"every dT must be finite and positive, got {list(dT_values)}")
    if ref_dT is not None and not (math.isfinite(ref_dT) and ref_dT > 0):
        raise ValueError(f"ref_dT must be finite and positive, got {ref_dT}")
    if np.any(np.diff(dT_values) >= 0):
        raise ValueError("dT_list must be strictly decreasing")
    if reference is None:
        if ref_dT is None:
            raise ValueError("either a reference trajectory or ref_dT is required")
        n_ref = int(round(t_end / ref_dT))
        ref_grid = TimeGrid(dT=ref_dT, micro_per_macro=1, n_macro=n_ref, t0=0.0)
        reference, _ = integrate(q0, sys, quad, ref_grid, config)

    errs = np.full((4, len(dT_values)), np.nan)
    notes = [""] * len(dT_values)

    for i, dT in enumerate(dT_values):
        try:
            n_macro = round(t_end / dT)
            if abs(n_macro * dT - t_end) > 1e-9 * max(1.0, t_end):
                raise ValueError(f"dT={dT} does not divide t_end={t_end}")
            grid = TimeGrid(dT=dT, micro_per_macro=p_ratio, n_macro=int(n_macro), t0=0.0)
            traj, _ = integrate(q0, sys, quad, grid, config, mode)
            en = error_norms(traj, reference, include_micro=include_micro)
        except (IntegrationError, AlignmentError, ValueError) as exc:
            notes[i] = f"{type(exc).__name__}: {exc}"
            continue
        errs[:, i] = (en.e_q_mac, en.e_p_mac, en.e_q_mic, en.e_p_mic)

    table = ConvergenceTable(dT_values, errs[0], errs[1], errs[2], errs[3], notes=notes)
    for name, row in zip(ConvergenceTable.SERIES, errs):
        table.observed_orders[name] = _orders(dT_values, row)
    return table


# ---------------------------------------------------------------------------
# linear stability of the interpolated schemes


@dataclass
class StabilityReport:
    """Propagation-matrix data for a harmonic oscillator whose non-split
    variable is linearly interpolated between macro nodes."""

    omega_dT: float
    micro_per_macro: int
    rule: str
    trace: float
    determinant: float
    stable: bool
    analytic_bound: float   # stability bound on omega * dT


def propagation_matrix(omega_s: float, dT: float, p_ratio: int, rule: str,
                       alpha: float = 0.5) -> np.ndarray:
    """One-macro-step map (q, p) -> (q, p) of the interpolated linear scheme.

    ``rule`` selects the quadrature used on the micro grid: "trapezoidal"
    (affine node weights, left weight ``alpha``) or "midpoint".  The
    potential convention is V(q) = omega_s^2 q^2 / 2.  A non-finite
    ``omega_s``, or a ``dT`` that is not finite and positive, raises
    ValueError.
    """
    p = int(p_ratio)
    if p < 1:
        raise ValueError("p_ratio must be at least 1")
    if not math.isfinite(omega_s):
        raise ValueError(f"omega_s must be finite, got {omega_s}")
    if not (math.isfinite(dT) and dT > 0):
        raise ValueError(f"dT must be finite and positive, got {dT}")
    dt = dT / p
    w2 = omega_s ** 2
    u = w2 * dt * dt
    if rule == "trapezoidal":
        den = u * (p * p - 1.0) / 6.0 + 1.0
        A = p * p / 3.0 + (alpha - 0.5) * p + 1.0 / 6.0
        P11 = (1.0 - u * A) / den
        P12 = dt * p / den
        P21 = (dt * w2 * (u * A - 1.0) * (p / 2.0 - alpha + 0.5)) / den \
            - dt * w2 * (alpha + p / 2.0 - 0.5)
        P22 = 1.0 - dt * dt * p * w2 * (p / 2.0 - alpha + 0.5) / den
        return np.array([[P11, P12], [P21, P22]])
    if rule == "midpoint":
        den = 12.0 + 2.0 * u * p * p + u
        P11 = (12.0 - 4.0 * u * p * p + u) / den
        P12 = 12.0 * p * dt / den
        P21 = dt * w2 * p * (u * (p * p - 1.0) - 12.0) / den
        return np.array([[P11, P12], [P21, P11]])
    raise ValueError(f"unknown rule {rule!r}; expected 'trapezoidal' or 'midpoint'")


def stability_report(omega_s: float, dT: float, p_ratio: int, rule: str,
                     alpha: float = 0.5) -> StabilityReport:
    """Analytic linear stability classification from the propagation matrix.

    Both propagation matrices are unimodular, so the scheme is stable exactly
    when the trace magnitude stays below 2.  The closed-form bounds are
    omega^2 dT^2 < 12 p^2/(p^2+2) for the trapezoidal family and
    12 p^2/(p^2-1) for the midpoint rule with p >= 2 (unconditional at p=1).
    """
    p = int(p_ratio)
    P = propagation_matrix(omega_s, dT, p, rule, alpha)
    tr = float(np.trace(P))
    det = float(np.linalg.det(P))
    if rule == "trapezoidal":
        bound = math.sqrt(12.0 * p * p / (p * p + 2.0))
    elif p == 1:
        bound = math.inf
    else:
        bound = math.sqrt(12.0 * p * p / (p * p - 1.0))
    return StabilityReport(
        omega_dT=omega_s * dT,
        micro_per_macro=p,
        rule=rule,
        trace=tr,
        determinant=det,
        stable=abs(tr) < 2.0,
        analytic_bound=bound,
    )


def empirical_stability_probe(omega_s: float, dT: float, p_ratio: int, rule: str,
                              n_steps: int = 1000, alpha: float = 0.5) -> bool:
    """Iterate the linear one-step map and watch the amplitude.

    Returns True when the configuration amplitude stays within 10x its
    initial value over the whole run.
    """
    if n_steps < 1000:
        raise ValueError("n_steps must be at least 1000")
    P = propagation_matrix(omega_s, dT, p_ratio, rule, alpha)
    x = np.array([1.0, 0.0])
    limit = 10.0
    for _ in range(n_steps):
        x = P @ x
        if not np.all(np.isfinite(x)) or abs(x[0]) > limit:
            return False
    return True
