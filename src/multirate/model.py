"""Domain types: the multirate mechanical system, quadrature choices and time grids.

A multirate system separates the configuration into slow variables ``q_s``
(advanced on a coarse macro grid with step ``dT``) and fast variables ``q_f``
(advanced on a fine micro grid with step ``dt = dT / p``).  The potential
energy splits into a slow part ``V(q_s, q_f)`` coupling everything and a
stiff fast part ``W(q_f)`` depending on the fast variables only.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SlowPlacement",
    "QuadratureSpec",
    "TimeGrid",
    "State",
    "Trajectory",
    "MultirateSystem",
    "ValidationReport",
    "build_time_grid",
    "validate_system",
    "momenta_from_velocities",
]


class SlowPlacement(enum.Enum):
    """Where the slow-potential quadrature points live.

    MICRO_GRID evaluates the slow potential on every micro interval using the
    linearly interpolated slow configuration.  MACRO_NODES_ONLY uses an affine
    combination of the two macro-node configurations, which makes the slow
    forces explicit.
    """

    MICRO_GRID = "micro"
    MACRO_NODES_ONLY = "macro"


def _as_float_in_unit(value, name):
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return v


@dataclass(frozen=True)
class QuadratureSpec:
    """Affine quadrature coefficients for the slow and fast potentials.

    Each potential Z is approximated on a micro interval by

        dt * [alpha * Z(gamma*q_m + (1-gamma)*q_{m+1})
              + (1-alpha) * Z((1-gamma)*q_m + gamma*q_{m+1})]

    so gamma = 1/2 is the midpoint rule for any alpha, gamma in {0, 1} gives
    the trapezoidal family (alpha = 1/2 the Lobatto rule, the rectangle rules
    otherwise).
    """

    alpha_V: float = 0.5
    gamma_V: float = 0.5
    alpha_W: float = 0.5
    gamma_W: float = 0.5
    slow_placement: SlowPlacement = SlowPlacement.MICRO_GRID

    def __post_init__(self):
        object.__setattr__(self, "alpha_V", _as_float_in_unit(self.alpha_V, "alpha_V"))
        object.__setattr__(self, "gamma_V", _as_float_in_unit(self.gamma_V, "gamma_V"))
        object.__setattr__(self, "alpha_W", _as_float_in_unit(self.alpha_W, "alpha_W"))
        object.__setattr__(self, "gamma_W", _as_float_in_unit(self.gamma_W, "gamma_W"))
        if not isinstance(self.slow_placement, SlowPlacement):
            object.__setattr__(self, "slow_placement", SlowPlacement(self.slow_placement))

    # -- named constructors ------------------------------------------------

    @classmethod
    def midpoint_midpoint(cls) -> "QuadratureSpec":
        """Midpoint rule for both the slow and the fast potential."""
        return cls(0.5, 0.5, 0.5, 0.5)

    @classmethod
    def trapezoidal_midpoint(cls, alpha_V: float = 1.0) -> "QuadratureSpec":
        """Trapezoidal-family slow potential, midpoint fast potential.

        ``alpha_V`` is the weight of the left micro node; the default 1.0 is
        the left rectangle rule used in the reference experiments.
        """
        return cls(alpha_V, 1.0, 0.5, 0.5)

    @classmethod
    def trapezoidal_trapezoidal(cls, alpha_V: float = 1.0, alpha_W: float = 1.0) -> "QuadratureSpec":
        """Trapezoidal-family rule for both potentials (left weights alpha)."""
        return cls(alpha_V, 1.0, alpha_W, 1.0)

    @classmethod
    def explicit(cls, alpha_V: float = 1.0, alpha_W: float = 1.0) -> "QuadratureSpec":
        """Macro-node slow potential plus trapezoidal fast potential.

        This combination decouples the update equations so that each unknown
        follows from a single linear mass-matrix solve.
        """
        return cls(alpha_V, 1.0, alpha_W, 1.0, SlowPlacement.MACRO_NODES_ONLY)

    # -- classification ----------------------------------------------------

    @staticmethod
    def classify_rule(alpha: float, gamma: float) -> str:
        """Name of the quadrature rule encoded by an (alpha, gamma) pair."""
        if gamma == 0.5:
            return "midpoint"
        if gamma in (0.0, 1.0):
            if alpha == 0.5:
                return "trapezoidal"
            if (alpha, gamma) in ((1.0, 1.0), (0.0, 0.0)):
                return "left-rectangle"
            if (alpha, gamma) in ((1.0, 0.0), (0.0, 1.0)):
                return "right-rectangle"
            return "trapezoidal-family"
        return "affine"

    @property
    def slow_rule(self) -> str:
        return self.classify_rule(self.alpha_V, self.gamma_V)

    @property
    def fast_rule(self) -> str:
        return self.classify_rule(self.alpha_W, self.gamma_W)

    @functools.cached_property
    def explicit_solvable(self) -> bool:
        """True if the update equations decouple into sequential linear solves."""
        return (
            self.slow_placement is SlowPlacement.MACRO_NODES_ONLY
            and self.gamma_W in (0.0, 1.0)
        )


@dataclass(frozen=True)
class TimeGrid:
    """Nested macro/micro time grids.

    The micro step is derived as ``dt = dT / micro_per_macro`` and never
    stored independently, so the shared nodes of the two grids coincide
    exactly.  Micro node times are ``t_k^m = t0 + k*dT + m*dt`` except for
    ``m == micro_per_macro``, which is evaluated as the macro node
    ``t_{k+1}`` to keep shared node times bit-identical.
    """

    dT: float
    micro_per_macro: int
    n_macro: int
    t0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dT) and self.dT > 0):
            raise ValueError(f"dT must be finite and positive, got {self.dT}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if int(self.micro_per_macro) != self.micro_per_macro or self.micro_per_macro < 1:
            raise ValueError(f"micro_per_macro must be a positive integer, got {self.micro_per_macro}")
        if int(self.n_macro) != self.n_macro or self.n_macro < 0:
            raise ValueError(f"n_macro must be a non-negative integer, got {self.n_macro}")
        object.__setattr__(self, "dT", float(self.dT))
        object.__setattr__(self, "micro_per_macro", int(self.micro_per_macro))
        object.__setattr__(self, "n_macro", int(self.n_macro))
        object.__setattr__(self, "t0", float(self.t0))

    @property
    def dt(self) -> float:
        return self.dT / self.micro_per_macro

    @property
    def t_end(self) -> float:
        return self.macro_time(self.n_macro)

    def macro_time(self, k: int) -> float:
        return self.t0 + k * self.dT

    def micro_time(self, k: int, m: int) -> float:
        p = self.micro_per_macro
        if not 0 <= m <= p:
            raise ValueError(f"micro index m={m} outside [0, {p}]")
        if m == p:
            return self.macro_time(k + 1)
        return self.t0 + k * self.dT + m * self.dt

    def micro_index(self, k: int, m: int) -> int:
        """Flattened index of micro node (k, m); shared nodes stored once."""
        return k * self.micro_per_macro + m

    def micro_times(self) -> np.ndarray:
        """All micro node times, flattened with boundary sharing; each equal
        to :meth:`micro_time` (same operations in the same order)."""
        p = self.micro_per_macro
        k = np.arange(self.n_macro)[:, None]
        out = np.empty(self.n_macro * p + 1)
        out[:-1] = ((self.t0 + k * self.dT) + np.arange(p) * self.dt).ravel()
        out[-1] = self.macro_time(self.n_macro)
        return out

    def macro_times(self) -> np.ndarray:
        return self.t0 + self.dT * np.arange(self.n_macro + 1)


def build_time_grid(dT: float, micro_per_macro: int, n_macro: int, t0: float = 0.0) -> TimeGrid:
    """Construct the nested macro/micro grid, validating the step counts."""
    if n_macro < 1:
        raise ValueError(f"n_macro must be at least 1, got {n_macro}")
    return TimeGrid(dT=dT, micro_per_macro=micro_per_macro, n_macro=n_macro, t0=t0)


def _macro_steps(t_end: float, dT: float, name: str = "dT") -> int:
    """The number of steps of ``dT`` from 0 to ``t_end``; ValueError, naming
    dT ``name``, where no whole number of them ends within 1e-9 max(1, t_end)."""
    n = round(t_end / dT)
    if abs(n * dT - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"{name}={dT} does not divide t_end={t_end}")
    return n


@dataclass
class State:
    """Configuration and conjugate momentum at a single node."""

    q_slow: np.ndarray
    q_fast: np.ndarray
    p_slow: np.ndarray
    p_fast: np.ndarray

    def __post_init__(self):
        self.q_slow = np.atleast_1d(np.asarray(self.q_slow, dtype=float))
        self.q_fast = np.atleast_1d(np.asarray(self.q_fast, dtype=float))
        self.p_slow = np.atleast_1d(np.asarray(self.p_slow, dtype=float))
        self.p_fast = np.atleast_1d(np.asarray(self.p_fast, dtype=float))

    @classmethod
    def _of_arrays(cls, q_slow, q_fast, p_slow, p_fast) -> "State":
        """State of float arrays that the integrator made itself: stored as
        they are, without the conversions of ``__init__``."""
        state = cls.__new__(cls)
        state.q_slow, state.q_fast, state.p_slow, state.p_fast = q_slow, q_fast, p_slow, p_fast
        return state

    @property
    def finite(self) -> bool:
        return all(
            np.all(np.isfinite(a))
            for a in (self.q_slow, self.q_fast, self.p_slow, self.p_fast)
        )


@dataclass
class Trajectory:
    """Discrete trajectory on the two grids.

    Slow quantities live on the macro nodes (arrays of shape (N+1, n_slow)),
    fast quantities on the flattened micro grid (shape (N*p + 1, n_fast)) with
    the shared node of consecutive macro intervals stored once: the value of
    micro node (k, m) sits at row k*p + m.

    Momenta are the matched discrete momenta: at inner nodes the minus and
    plus values agree up to the solver tolerance and the minus value is
    stored; the final node stores the plus value.
    """

    grid: TimeGrid
    slow_q: np.ndarray
    slow_p: np.ndarray
    fast_q: np.ndarray
    fast_p: np.ndarray

    @property
    def n_macro(self) -> int:
        return self.grid.n_macro

    def macro_state(self, k: int) -> State:
        i = self.grid.micro_index(k, 0)
        return State(self.slow_q[k], self.fast_q[i], self.slow_p[k], self.fast_p[i])


GradV = Callable[[np.ndarray, np.ndarray], tuple]
HessV = Callable[[np.ndarray, np.ndarray], tuple]


def _check_mass_matrix(M: np.ndarray, name: str, rtol: float = 1e-14) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if M.size:
        scale = np.max(np.abs(M))
        if scale == 0.0 or np.max(np.abs(M - M.T)) > rtol * scale:
            raise ValueError(f"{name} must be symmetric")
        if np.min(np.linalg.eigvalsh(M)) <= 0.0:
            raise ValueError(f"{name} must be positive definite")
    return M


@dataclass
class MultirateSystem:
    """Mechanical system with an additive slow/fast potential split.

    The kinetic energy is separable with block-diagonal mass matrix
    diag(mass_slow, mass_fast).  ``slow_potential_grad`` returns the pair of
    gradients with respect to the slow and fast arguments.  Hessian callables
    are optional; when present they enable analytic Newton Jacobians
    (``slow_potential_hessian`` returns (H_ss, H_sf, H_ff)).

    The integrators evaluate gradients and Hessians at k quadrature points
    at once through :meth:`evaluate_batch`.  With ``batched=True`` the four
    gradient and Hessian callables must also accept stacked points: inputs
    of shape (k, n_slow) and (k, n_fast) map to gradients of shape
    (k, n_slow) and (k, n_fast) and to Hessians of shape (k, n, n), row i
    being the value at point i.  Otherwise :meth:`evaluate_batch` loops over
    the points and stacks the per-point results.  The same holds for
    ``slow_potential`` and ``fast_potential``, which then return k values,
    and for ``oscillatory_energy``, which returns (k, n_fast): the energy
    series calls them once on the stacked macro nodes.

    The package calls them from one thread at a time; it runs independent
    integrations one after another.
    """

    n_slow: int
    n_fast: int
    mass_slow: np.ndarray
    mass_fast: np.ndarray
    slow_potential: Callable[[np.ndarray, np.ndarray], float]
    slow_potential_grad: GradV
    fast_potential: Callable[[np.ndarray], float]
    fast_potential_grad: Callable[[np.ndarray], np.ndarray]
    slow_potential_hessian: Optional[HessV] = None
    fast_potential_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    oscillatory_energy: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "system"
    batched: bool = False
    mass_slow_inv: np.ndarray = field(init=False, repr=False)
    mass_fast_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_slow < 0 or self.n_fast < 0:
            raise ValueError("dimensions must be non-negative")
        self.mass_slow = _check_mass_matrix(self.mass_slow, "mass_slow")
        self.mass_fast = _check_mass_matrix(self.mass_fast, "mass_fast")
        if self.mass_slow.shape != (self.n_slow, self.n_slow):
            raise ValueError("mass_slow shape inconsistent with n_slow")
        if self.mass_fast.shape != (self.n_fast, self.n_fast):
            raise ValueError("mass_fast shape inconsistent with n_fast")
        self.mass_slow_inv = np.linalg.inv(self.mass_slow) if self.n_slow else np.zeros((0, 0))
        self.mass_fast_inv = np.linalg.inv(self.mass_fast) if self.n_fast else np.zeros((0, 0))

    @property
    def has_hessians(self) -> bool:
        return self.slow_potential_hessian is not None and self.fast_potential_hessian is not None

    def evaluate_batch(self, name: str, *points: np.ndarray):
        """Callable ``name`` at k points stacked along axis 0.

        Returns float arrays with a leading axis of length k (a tuple of them
        for ``slow_potential_grad`` and ``slow_potential_hessian``).
        """
        return self.batch_callable(name)(*points)

    def batch_callable(self, name: str) -> Callable:
        """:meth:`evaluate_batch` of ``name`` as a callable of the points alone."""
        fn = getattr(self, name)
        tuples = name in ("slow_potential_grad", "slow_potential_hessian")
        if self.batched:
            if tuples:
                # a list, not a generator: this runs once per residual
                return lambda *points: tuple([np.asarray(a, dtype=float) for a in fn(*points)])
            return lambda *points: np.asarray(fn(*points), dtype=float)
        if tuples:
            return lambda *points: tuple([np.array(col, dtype=float)
                                          for col in zip(*[fn(*pt) for pt in zip(*points)])])
        return lambda *points: np.array([fn(*pt) for pt in zip(*points)], dtype=float)


def momenta_from_velocities(sys: MultirateSystem, v_slow, v_fast) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate momenta of given velocities for the separable kinetic energy."""
    v_slow = np.atleast_1d(np.asarray(v_slow, dtype=float))
    v_fast = np.atleast_1d(np.asarray(v_fast, dtype=float))
    return sys.mass_slow @ v_slow, sys.mass_fast @ v_fast


@dataclass
class ProbeResult:
    index: int
    deviation_slow: float
    deviation_fast: float
    ok: bool
    note: str = ""


@dataclass
class ValidationReport:
    """Outcome of checking supplied gradients against finite differences."""

    tolerance: float
    h: float
    probes: list
    passed: bool

    @property
    def max_deviation(self) -> float:
        devs = [max(p.deviation_slow, p.deviation_fast) for p in self.probes if p.note == ""]
        return max(devs) if devs else float("nan")


def _fd_gradient(f, x, h):
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def validate_system(sys: MultirateSystem, probe_states: Sequence[State], h: float = 1e-6,
                    tolerance: float = 1e-5) -> ValidationReport:
    """Compare supplied potential gradients with central finite differences.

    Each probe records the maximum relative deviation over all components of
    both gradients.  Non-finite potential values at a probe produce a
    diagnostic entry instead of raising.  An empty probe list, or a step h
    that is not finite and positive, raises ValueError.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step h must be finite and positive, got {h}")
    if len(probe_states) == 0:
        raise ValueError("validation needs at least one probe state")
    probes = []
    for idx, st in enumerate(probe_states):
        if not st.finite:
            raise ValueError(f"probe state {idx} contains non-finite entries")
        qs, qf = st.q_slow, st.q_fast
        try:
            value = float(sys.slow_potential(qs, qf)) + float(sys.fast_potential(qf))
            if not np.isfinite(value):
                raise FloatingPointError("non-finite potential value")
            g_s, g_f_from_V = sys.slow_potential_grad(qs, qf)
            g_w = sys.fast_potential_grad(qf)
            fd_s = _fd_gradient(lambda x: float(sys.slow_potential(x, qf)), qs.copy(), h) if sys.n_slow else np.zeros(0)
            fd_fV = _fd_gradient(lambda x: float(sys.slow_potential(qs, x)), qf.copy(), h) if sys.n_fast else np.zeros(0)
            fd_w = _fd_gradient(lambda x: float(sys.fast_potential(x)), qf.copy(), h) if sys.n_fast else np.zeros(0)
        except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            probes.append(ProbeResult(idx, float("nan"), float("nan"), False, f"evaluation failed: {exc}"))
            continue

        def rel(a, b):
            if a.size == 0:
                return 0.0
            scale = max(1.0, float(np.max(np.abs(b))))
            return float(np.max(np.abs(a - b))) / scale

        dev_slow = rel(fd_s, np.asarray(g_s, dtype=float))
        dev_fast = max(rel(fd_fV, np.asarray(g_f_from_V, dtype=float)),
                       rel(fd_w, np.asarray(g_w, dtype=float)))
        probes.append(ProbeResult(idx, dev_slow, dev_fast, max(dev_slow, dev_fast) <= tolerance))
    passed = all(p.ok for p in probes)
    return ValidationReport(tolerance=tolerance, h=h, probes=probes, passed=passed)
