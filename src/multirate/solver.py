"""Compound Newton solver for the discrete Euler-Lagrange equations.

One macro step solves for the next slow configuration and all fast micro
nodes of the interval simultaneously.  The residual stacks the slow
stationarity equation, the matching equation at the shared fast node and the
interior fast stationarity equations.  Its Jacobian is an arrowhead: dense
slow row/column borders around a fast part that is block lower-triangular
with two sub-diagonals (the equation of fast node i couples the unknown
nodes i-1, i and i+1).  Large systems with analytic Jacobians solve it by
block elimination, the others with a dense inverse (:class:`_BoundStep`).
At every size the residual, the record and the p/q maps' transform are the
fixed maps of :class:`~multirate.discretization._StepForm`; the size rule
decides only whether they are dense matrices and which Newton matrix runs.

Newton is simplified Newton with a contraction monitor (Hairer & Wanner,
*Solving ODEs II*, IV.8).  Each linear solver splits into ``factor(J)``,
the work that depends on the matrix alone, and ``apply(factors, b)``
(:class:`_LinearSolver`).  One factored matrix serves many iterations and,
within one :func:`integrate` call, many steps:

- Refresh rule: after an iteration with contraction theta = ||F_new|| /
  ||F_old||, the matrix is rebuilt at the new iterate when theta predicts
  more than ``_MAX_PREDICTED_ITERS`` further iterations to the polish target,
  and always when the residual grew.  A step whose held matrix fails
  restarts from its own guess with a fresh one.
- Stop rule: the residual is within ``newton_tol`` and either at the polish
  target or reached by a polish iteration (one that started within
  tolerance) whose matrix was fresh.  That target is 1e-4 * newton_tol, or
  the residual's rounding floor, eps times its largest terms, where that
  is higher: at tiny steps the momentum terms M q / dt dominate, and an
  iterate at its floor is accepted without a polish.
- Timing: ``StepStats.jacobian_time`` is matrix assembly,
  ``StepStats.solve_time`` factoring plus all solves with the factors, and
  ``StepStats.matrix_builds`` counts the matrices built.

All integrator modes (this implicit DEL solve, the explicit recurrence and
the closed-form p/q maps of :mod:`multirate.schemes`) share one step record,
:class:`MacroStep`, and one integration loop, :func:`integrate`.  The p/q
maps run this implicit step and measure its residual as T F, a fixed
linear map of F (:func:`_newton`).
"""

from __future__ import annotations

import enum
import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .discretization import (_check_finite, _finite, _left_weight, _StepForm, _Workspace,
                             interval_kernel)
# no step calls it, but the benchmark's traced mode wraps it here by name
from .discretization import interval_momenta  # noqa: F401
from .errors import (
    AbortedStepError,
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    IntegrationError,
)
from .model import MultirateSystem, QuadratureSpec, State, TimeGrid, Trajectory

__all__ = [
    "IntegratorMode",
    "SolverConfig",
    "StepStats",
    "IntegrationStats",
    "MacroStep",
    "initial_step",
    "macro_step",
    "explicit_macro_step",
    "integrate",
    "macro_flow_map",
    "TrajectoryCertificate",
    "verify_trajectory",
]


# Unknowns n_slow + p*n_fast from which an analytic Newton matrix is factored
# by blocks (_BoundStep); below, a step's fixed maps are dense matrices and
# its Newton matrix one bincount with a dense inverse.  FPU
# chains, midpoint-midpoint, 2-vCPU Xeon, OpenBLAS 0.3.31, one BLAS thread,
# medians of one matrix build (assembly plus factor, into one workspace) and
# of one solve with it, dense vs blocks (tests/test_linear_solver_bench.py,
# the lowest of four runs):
#   l=3,  p=10,   33 unknowns: 0.11 ms + 1 us   vs 0.24 ms + 58 us
#   l=10, p=10,  110 unknowns: 0.77 ms + 4 us   vs 0.34 ms + 110 us
#   l=3,  p=50,  153 unknowns: 1.04 ms + 5 us   vs 0.29 ms + 272 us
#   l=10, p=20,  210 unknowns: 3.2 ms + 7 us    vs 0.49 ms + 93 us
#   l=30, p=50, 1530 unknowns: 360 ms + 0.87 ms vs 3.4 ms + 0.49 ms
# The break-even depends on p and n_fast, not on the unknowns alone: whole
# integrations (about one build and five solves per step) tie at l=10, p=10
# (110), run 1.1x faster dense at l=3, p=50 (153) and 1.2x faster by blocks
# at l=5, p=30 (155).  Other machines, BLAS builds or potentials may place
# it elsewhere.
_STRUCTURED_MIN_UNKNOWNS = 128

# Forward-difference step of unknown i, times 1 + |x_i|, for systems that
# supply no Hessians.
_FD_STEP = 1e-7

# Entries of the stacked perturbed points that _fd_jacobian passes to one
# residual call: 64 Ki float64 entries, 512 KiB.  The residual's temporaries
# (fast nodes, quadrature points, gradients, kinetic terms) are about a dozen
# times its input, so this bounds one call's memory near 6 MB: on an FPU
# chain with l=30, p=50 (1,530 columns, 42 per call) peak RSS rose by 6 MB
# over the one-column loop's.  Up to 256 unknowns, such as the 33 of
# l=3, p=10, take a single call.
_FD_CHUNK_ENTRIES = 1 << 16

# Simplified Newton rebuilds its matrix, at the current iterate, when the
# last contraction ||F_new|| / ||F_old|| predicts more than this many further
# iterations to the polish target (_iterate).  A larger bound trades matrix
# builds for iterations, which pays where a build costs many iterations.
# FPU chains, midpoint-midpoint, dT = 0.3, speed-up over -1 (a build at every
# iteration), medians of alternated runs on a 2-vCPU Xeon, one BLAS thread:
#   l=3,  p=10, bound 2 | 3 | 4:                      0.98 | 1.18 | 1.13
#   l=3,  p=10, p/q map (difference matrix), 2 | 3 | 4: 1.26 | 1.47 | 1.31
#   l=30, p=50, 20 steps, 3 | 6 | 8 | 12 | 20: 1.93 | 1.62 | 1.59 | 1.70 | 1.81,
#     with 21 | 19 | 10 | 4 | 1 builds and 97 | 102 | 153 | 207 | 265 iterations
# With 3, a step takes about one build and 4.5-5 iterations.  At l=3, p=10
# every larger bound moved the trajectory, by up to 9e-2 over 667 steps.
_MAX_PREDICTED_ITERS = 3

_EPS = float(np.finfo(float).eps)


class IntegratorMode(enum.Enum):
    IMPLICIT_DEL = "del"
    EXPLICIT = "explicit"
    CLOSED_FORM_PQ = "pq"


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration controls.

    Convergence is measured in the infinity norm of the stacked residual,
    whose entries are momentum mismatches computed in equation-weight form
    (``_step_residual``): the kinetic differences minus one weight matrix
    applied to the potential gradients, with the momenta themselves built
    once, at the accepted iterate.  ``newton_tol`` must be finite and
    positive: an infinite tolerance would accept any iterate without a
    Newton iteration.  The rest of the solve follows from the system and
    the grid:

    - The Newton matrix is analytic when the system supplies both Hessians
      (``MultirateSystem.has_hessians``), and forward differences with
      componentwise steps ``1e-7 * (1 + |x_i|)`` otherwise.  Which one, the
      linear solver and the p/q maps' T are decided once per ``integrate``
      call (``_BoundStep``).  A difference matrix costs one batched residual
      call per chunk of columns (``_fd_jacobian``), and each column is
      bit-identical to the one-unknown-at-a-time difference.
    - The closed-form p/q maps run the DEL step's Newton iteration on F;
      their stop and refresh rules read ||T F|| (:mod:`multirate.schemes`).
    - The iteration is simplified Newton: one factored matrix serves many
      iterations, and within one ``integrate`` call many steps.  It is
      rebuilt at the current iterate when the last contraction
      ||F_new|| / ||F_old|| predicts more than ``_MAX_PREDICTED_ITERS`` (3)
      further iterations to the polish target, and whenever the residual
      grew.  A step that fails with a held matrix restarts from its guess
      with a fresh one.
    - After the tolerance is met, polish iterations follow until the
      residual is four orders of magnitude below the tolerance, or at the
      rounding floor of its largest terms if that is higher; a polish with
      a freshly built matrix ends the step in any case.  An iterate within
      the tolerance that is already at its rounding floor is accepted
      without a polish, since a polish would land on the same value.
      Accepted residuals are thus parked far below ``newton_tol``, so
      long-run conservation certificates are limited by the discretization
      instead of the stopping rule.
    - Both implicit modes factor their matrices by block elimination when
      the Jacobian is analytic and the step has at least
      ``_STRUCTURED_MIN_UNKNOWNS`` (128) unknowns n_slow + p*n_fast, and as
      a dense inverse otherwise, the step's fixed maps then being dense
      matrices.  Elimination's cost grows linearly in p, dense factoring as
      p^3; with matrix reuse the two take the same time between about 110
      and 155 unknowns on the FPU chain, depending on p and n_fast.
      ``IntegrationStats.linear_solver`` records which ran.
    - ``jacobian_time`` counts matrix assembly (analytic or difference),
      ``solve_time`` factoring and every solve with the factors, and
      ``matrix_builds`` the matrices built.
    """

    newton_tol: float = 1e-9
    max_newton_iters: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")


@dataclass
class StepStats:
    """Work and timing record of one macro step."""

    newton_iters: int = 0
    residual_norm: float = 0.0
    # assembly of Newton matrices
    jacobian_time: float = 0.0
    # factoring them and solving with them
    solve_time: float = 0.0
    matrix_builds: int = 0


@dataclass
class IntegrationStats:
    """Aggregate work record of a trajectory integration."""

    n_steps: int = 0
    newton_iters_total: int = 0
    solve_time_total: float = 0.0
    jacobian_time_total: float = 0.0
    # in the step functions alone: not storing or writing their records
    wall_time_total: float = 0.0
    residual_max: float = 0.0
    matrix_builds_total: int = 0
    # "dense" or "structured" (see _BoundStep); None where no Newton
    # solve runs
    linear_solver: str | None = None

    def add(self, step: StepStats):
        self.n_steps += 1
        self.newton_iters_total += step.newton_iters
        self.solve_time_total += step.solve_time
        self.jacobian_time_total += step.jacobian_time
        self.matrix_builds_total += step.matrix_builds
        self.residual_max = max(self.residual_max, step.residual_norm)

    @property
    def solve_time_per_step(self) -> float:
        return self.solve_time_total / self.n_steps if self.n_steps else 0.0

    @property
    def jacobian_time_per_step(self) -> float:
        return self.jacobian_time_total / self.n_steps if self.n_steps else 0.0


@dataclass
class MacroStep:
    """Trajectory rows of one macro interval: the step record of every mode.

    ``fast`` and ``p_fast`` hold the fast configurations and momenta at micro
    nodes 0..p, ``p_slow`` the slow momenta at the start and the end node.
    The momenta at the start and interior nodes are the matched values; the
    end momenta are provisional until the next step's start momenta replace
    them.
    """

    index: int
    q_slow_start: np.ndarray
    q_slow_end: np.ndarray
    fast: np.ndarray                            # (p+1, n_fast)
    p_fast: np.ndarray = field(repr=False)      # (p+1, n_fast)
    p_slow: np.ndarray = field(repr=False)      # (2, n_slow)

    @property
    def p_slow_end(self) -> np.ndarray:
        return self.p_slow[1]

    @property
    def p_fast_end(self) -> np.ndarray:
        return self.p_fast[-1]

    def end_state(self) -> State:
        return State._of_arrays(self.q_slow_end, self.fast[-1], self.p_slow_end,
                                self.p_fast_end)


# ---------------------------------------------------------------------------
# residual and Jacobian


def _step_nodes(start: State, x: np.ndarray, sys: MultirateSystem, p: int):
    """Next slow node (..., n_slow) and fast nodes 0..p (..., p+1, n_fast)
    from the stacked unknowns ``x`` (..., n_slow + p*n_fast), whose layout
    this defines: ``[q_slow_next; fast node 1; ...; fast node p]``.  Fast
    node 0 is the start's; leading axes index independent points."""
    n_s, n_f = sys.n_slow, sys.n_fast
    fast = np.empty(x.shape[:-1] + (p + 1, n_f))
    # the nodes of each point side by side: a view, as fast is contiguous
    nodes = fast.reshape(x.shape[:-1] + ((p + 1) * n_f,))
    nodes[..., :n_f] = start.q_fast
    nodes[..., n_f:] = x[..., n_s:]
    return x[..., :n_s], fast


def _small(sys: MultirateSystem, grid: TimeGrid) -> bool:
    """Whether a step has fewer than ``_STRUCTURED_MIN_UNKNOWNS`` unknowns."""
    return sys.n_slow + grid.micro_per_macro * sys.n_fast < _STRUCTURED_MIN_UNKNOWNS


def _step_residual(start: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
                   held: _HeldMatrix | None = None):
    """Stacked equations of the interval that begins at ``start``.

    ``residual(x)`` returns ``(F, G)``, F with the shape of x and G the
    stacked vector of gradients, node differences and start momenta that
    :meth:`_BoundStep.record` builds an accepted iterate's momenta from.  x
    may carry leading batch axes, whose points go to the callbacks in one
    batch.

    Each entry of F is a momentum mismatch (incoming minus left momenta at
    the slow node and at fast node 0, right minus left momenta at the
    interior fast nodes), computed without the momenta themselves:

    - slow row: ``p_s0 - M_s (q1 - q0) / dT - w_c0 . g_s``;
    - fast rows: the kinetic differences ``p_f0 - M_f v_0`` at node 0 and
      ``M_f (v_{i-1} - v_i)`` at node i, v_i the velocity of micro interval
      i, minus the kernel's equation weights applied to the gradients.

    The step's fixed maps (:class:`~multirate.discretization._StepForm`)
    are bound once to the holder ``held`` (a new one by default).  F agrees
    with the difference of the momenta to within rounding of the largest
    momentum terms, and every point of a batch gets the F it gets alone.
    """
    return (_HeldMatrix() if held is None else held).bind(sys, quad, grid).residual(start)


class _BoundStep:
    """The implicit steps of one system, quadrature and grid, decided once
    per Newton matrix holder (:meth:`_HeldMatrix.bind`), the one place that
    reads the size rule and whether the system has Hessians for them: the
    fixed maps ``form`` (:class:`~multirate.discretization._StepForm`,
    dense below the rule), which give the residual, the record and the p/q
    maps' ``transform`` T (:func:`_newton`), and the Newton matrix.

    ``jacobian(start, residual, x, F, ws)`` builds the Newton matrix of the
    step from ``start`` at x, F being the value there of ``residual``
    (:func:`_step_residual`), and the :class:`_LinearSolver` ``linear``
    factors and applies it; both implicit modes take it, since the p/q maps' Newton
    update is the DEL one (:func:`_iterate`).  The matrix is forward
    differences of ``residual`` where the system lacks a Hessian
    (:func:`_fd_jacobian`, dense); else analytic, below the size rule
    ``form``'s one bincount, from it on kept as blocks (``"structured"``)
    in the :class:`~multirate.discretization._Workspace` ``ws``."""

    def __init__(self, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid):
        self.sys, self.quad, self.grid = sys, quad, grid
        kern, small = interval_kernel(quad, grid), _small(sys, grid)
        self.form = form = _StepForm(kern, sys, small)
        self.residual, self.transform = form.residual, form.transform
        self.linear = _DENSE
        if not sys.has_hessians:
            def jacobian(start, residual, x, F, ws):
                return _fd_jacobian(residual, x, F)
        elif small:
            def jacobian(start, residual, x, F, ws):
                return form.matrix(start, x)
        else:
            self.linear = _STRUCTURED

            def jacobian(start, residual, x, F, ws):
                return _jacobian_blocks(start.q_slow, *_step_nodes(start, x, sys, kern.p), sys,
                                        quad, grid, ws)
        self.jacobian = jacobian

    def record(self, index: int, start: State, x: np.ndarray, G: np.ndarray) -> MacroStep:
        """Record of the step from ``start`` at the accepted iterate x, G
        being what the residual returned there."""
        q_slow_next, fast = _step_nodes(start, x, self.sys, self.form.kern.p)
        return MacroStep(index, start.q_slow, q_slow_next, fast, *self.form.record_momenta(G))


@dataclass
class _JacobianBlocks:
    """Analytic Newton matrix of one macro step, kept as its nonzero blocks.

    ``slow`` (A), ``row`` (B) and ``col`` (C) form the dense slow border: the
    slow equation against the next slow node and against fast nodes 1..p,
    and the fast equations against the next slow node.  In the fast part,
    row block i is the equation of fast node i and column block j the
    unknown fast node j+1, so it is block lower-triangular with two
    sub-diagonals.  ``band`` stacks its distinct blocks:
    D_i = -M_f/dt - lr_i (node i+1) for i = 0..p-1, then
    E_i = 2 M_f/dt - ll_i - rr_{i-1} (node i) for i = 1..p-1.  The third
    block of row i, G_i = -M_f/dt - lr_{i-1} (node i-1) for i = 2..p-1, is
    D_{i-1} and is read from ``band[1:p-1]``.  ``ws`` is the workspace that
    holds the blocks and takes the arrays of their factors.
    """

    p: int
    slow: np.ndarray    # (n_slow, n_slow)
    row: np.ndarray     # (n_slow, p*n_fast)
    col: np.ndarray     # (p*n_fast, n_slow)
    band: np.ndarray    # (blocks, n_fast, n_fast)
    ws: _Workspace


def _jacobian_blocks(q_slow_k, q_slow_next, fast, sys: MultirateSystem, quad: QuadratureSpec,
                     grid: TimeGrid, ws: _Workspace | None = None) -> _JacobianBlocks:
    """Blocks of the analytic Jacobian of the stacked residual, written into
    the arrays of the workspace ``ws`` (a new one by default).

    The kinetic energy contributes the constant blocks -M_s/dT, 2 M_f/dt
    and -M_f/dt; the potentials their second-derivative sums from
    :meth:`~multirate.discretization._IntervalKernel.hessian_blocks`.
    """
    ws = _Workspace() if ws is None else ws
    p = grid.micro_per_macro
    n_s, n_f = sys.n_slow, sys.n_fast
    ss, (row, col), (ll, lr, rr) = interval_kernel(quad, grid).hessian_blocks(
        q_slow_k, q_slow_next, fast, sys, ws)
    M_dt = sys.mass_fast / grid.dt
    band = ws("band", (2 * p - 1, n_f, n_f))
    D, E = band[:p], band[p:]
    np.subtract(-M_dt, lr, out=D)
    np.subtract(2.0 * M_dt, ll[1:], out=E)
    E -= rr[:-1]
    J_row, J_col = ws("row", (n_s, p * n_f)), ws("col", (p * n_f, n_s))
    np.negative(row.transpose(1, 0, 2), out=J_row.reshape(n_s, p, n_f))
    np.negative(col.transpose(0, 2, 1), out=J_col.reshape(p, n_f, n_s))
    return _JacobianBlocks(p, -sys.mass_slow / grid.dT - ss, J_row, J_col, band, ws)


def _assemble_jacobian(J: _JacobianBlocks) -> np.ndarray:
    """Dense matrix of the blocks."""
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    A = np.zeros((n_s + p * n_f, n_s + p * n_f))
    A[:n_s, :n_s] = J.slow
    A[:n_s, n_s:] = J.row
    A[n_s:, :n_s] = J.col
    # row block i, column block j (node j+1) of the fast part
    fast = A[n_s:, n_s:].reshape(p, n_f, p, n_f)
    i = np.arange(p)
    fast[i, :, i] = J.band[:p]
    fast[i[1:], :, i[:-1]] = J.band[p:]
    fast[i[2:], :, i[:-2]] = J.band[1:p - 1]
    return A


@dataclass
class _BlockFactors:
    """Block elimination of a :class:`_JacobianBlocks` matrix, reusable for
    any number of right-hand sides.

    With y_i the update of fast node i+1 and s that of the slow node, row
    block i reads D_i y_i + E_i y_{i-1} + G_i y_{i-2} + C_i s = b_i.  Forward
    substitution writes every y_i as a_i - Z_i s, where only a depends on b;
    the slow row then gives the Schur complement (A - B Z) s = b_s - B a, and
    back-substitution the fast update.  ``d_inv`` is None where a D_i could
    not be inverted; every solve then takes the dense fallback.  ``absolute``
    holds |J| once :func:`_block_magnitude` has needed it; ``sweep`` the
    blocks of ``a``, which every solve overwrites after two zero blocks.
    """

    J: _JacobianBlocks
    d_inv: np.ndarray | None = None     # (p, n_fast, n_fast): D_i^-1
    ge: np.ndarray | None = None        # (p, n_fast, 2 n_fast): D_i^-1 [G_i | E_i]
    z: np.ndarray | None = None         # (p*n_fast, n_slow)
    schur_inv: np.ndarray | None = None  # (n_slow, n_slow): (A - B Z)^-1
    j_max: float = 0.0
    absolute: _JacobianBlocks | None = None
    a: np.ndarray | None = None         # (p + 2, n_fast)
    sweep: list | None = None           # _sweep(ge, a)


def _abs_max(a: np.ndarray) -> float:
    """max |a_ij| without an array of the magnitudes."""
    return max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0)))


def _sweep(ge: np.ndarray, Y: np.ndarray) -> list:
    """Per i, the views ge[i], [y_i; y_{i+1}] and y_{i+2} of Y (p+2, n_fast, ...)."""
    n = Y.shape[1]
    flat = Y.reshape((len(Y) * n,) + Y.shape[2:])
    return [(g, flat[i * n:(i + 2) * n], Y[i + 2]) for i, g in enumerate(ge)]


def _factor_blocks(J: _JacobianBlocks) -> _BlockFactors:
    """Everything of block elimination that depends on J alone, without
    pivoting across blocks."""
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    j_max = max(_abs_max(a) for a in (J.slow, J.row, J.col, J.band))
    # D_i^-1 times G_i, E_i and C_i, batched, straight into the slices of
    # ge and Z.  Inverting the D_i and multiplying takes a third of the
    # time of a batched np.linalg.solve with these 2 n_fast + n_slow
    # right-hand sides (2.1 vs 6.0 ms for 50 blocks of 30 x 30,
    # single-threaded OpenBLAS).
    try:
        with np.errstate(all="ignore"):
            d_inv = np.linalg.inv(J.band[:p])
            ge = J.ws("ge", (p, n_f, 2 * n_f))
            ge[:2, :, :n_f] = 0.0
            ge[:1, :, n_f:] = 0.0
            np.matmul(d_inv[2:], J.band[1:p - 1], out=ge[2:, :, :n_f])
            np.matmul(d_inv[1:], J.band[p:], out=ge[1:, :, n_f:])
            # Z_i after two leading zero blocks, so that every row block
            # subtracts [G_i | E_i] times the two blocks before it in one
            # product
            Z = J.ws("Z", (p + 2, n_f, n_s))
            Z[:2] = 0.0
            np.matmul(d_inv, J.col.reshape(p, n_f, n_s), out=Z[2:])
            for g, prev, y in _sweep(ge, Z):
                y -= g.dot(prev)
            Z = Z[2:].reshape(p * n_f, n_s)
            schur_inv = np.linalg.inv(J.slow - J.row @ Z)
    except np.linalg.LinAlgError:
        return _BlockFactors(J, j_max=j_max)
    # a's two leading blocks stay zero: solves write a[2:] only
    a = np.zeros((p + 2, n_f))
    return _BlockFactors(J, d_inv, ge, Z, schur_inv, j_max, a=a, sweep=_sweep(ge, a))


def _eliminate(F: _BlockFactors, b: np.ndarray) -> np.ndarray:
    """Solve ``J x = b`` with the elimination factors, without any check."""
    J = F.J
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    np.matmul(F.d_inv, b[n_s:].reshape(p, n_f, 1), out=F.a[2:, :, None])
    for g, prev, y in F.sweep:
        y -= g.dot(prev)
    a = F.a[2:].ravel()
    s = F.schur_inv @ (b[:n_s] - J.row @ a)
    return np.concatenate([s, a - F.z @ s])


def _block_matvec(J: _JacobianBlocks, x: np.ndarray) -> np.ndarray:
    """``J @ x`` from the blocks, summed into one output array."""
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    s, y = x[:n_s], x[n_s:].reshape(p, n_f, 1)
    out = np.empty(x.shape)
    np.add(J.slow @ s, J.row @ x[n_s:], out=out[:n_s])
    fast = np.matmul(J.band[:p], y, out=out[n_s:].reshape(p, n_f, 1))
    fast += (J.col @ s).reshape(fast.shape)
    fast[1:] += J.band[p:] @ y[:-1]
    fast[2:] += J.band[1:p - 1] @ y[:-2]
    return out


# Largest backward error ||J x - b|| / (max|J_ij| ||x||_1 + ||b||), infinity
# norms, accepted from block elimination.  Elimination is backward stable to
# about 1e-16 when the diagonal blocks are well conditioned; a nearly
# singular D_i lets errors grow by its condition number.
_ELIMINATION_BACKWARD_TOL = 1e-12


def _apply_blocks(F: _BlockFactors, b: np.ndarray) -> np.ndarray:
    """Newton update from the elimination factors.

    Elimination without pivoting across blocks breaks down on a singular
    diagonal block D_i, and loses accuracy on a nearly singular one, even
    where the whole matrix is regular.  An update that is not finite, or
    whose backward error exceeds ``_ELIMINATION_BACKWARD_TOL``, is solved
    again by dense LU of the same matrix.
    """
    if F.d_inv is not None:
        with np.errstate(all="ignore"):
            x = _eliminate(F, b)
            if np.all(np.isfinite(x)):
                scale = F.j_max * np.sum(np.abs(x)) + np.max(np.abs(b), initial=0.0)
                r = np.max(np.abs(_block_matvec(F.J, x) - b), initial=0.0)
                if r <= _ELIMINATION_BACKWARD_TOL * scale:
                    return x
    return np.linalg.solve(_assemble_jacobian(F.J), b)


def _block_magnitude(F: _BlockFactors, x: np.ndarray) -> np.ndarray:
    if F.absolute is None:
        J = F.J
        F.absolute = _JacobianBlocks(J.p, np.abs(J.slow), *(
            np.abs(a, out=J.ws(name, a.shape))
            for name, a in (("|row|", J.row), ("|col|", J.col), ("|band|", J.band))), J.ws)
    return _block_matvec(F.absolute, np.abs(x))


def _factor_dense(J: np.ndarray):
    # |J| for the polish checks (_polish_target), once per matrix
    return J, np.linalg.inv(J), np.abs(J)


# ndarray.dot: the BLAS matrix-vector product of @, at half its call cost
def _apply_dense(factors, b: np.ndarray) -> np.ndarray:
    return factors[1].dot(b)


def _dense_magnitude(factors, x: np.ndarray) -> np.ndarray:
    return factors[2].dot(np.abs(x))


@dataclass(frozen=True)
class _LinearSolver:
    """How Newton matrices of one kind are solved with.

    ``factor(J)`` does the work that depends on J alone, ``apply(factors,
    b)`` solves J x = b with its result, and ``magnitude(factors, x)`` is
    |J| |x|, row i the size of the largest terms that make up residual
    entry i near x, whose rounding floors that entry.
    """

    name: str
    factor: Callable
    apply: Callable
    magnitude: Callable


# A dense matrix is factored as its explicit inverse, so that each further
# solve costs one matrix-vector product.  numpy offers no reusable LU, and
# refactoring costs a full LU per solve (one BLAS thread, 2-vCPU Xeon):
#   unknowns   inverse   solve    inverse @ b
#        6     7.2 us    5.6 us    1.0 us
#       33    33 us     14 us      1.0 us
#      123   520 us    130 us      3.1 us
# so the inverse is ahead from about three solves per matrix on.
_DENSE = _LinearSolver("dense", _factor_dense, _apply_dense, _dense_magnitude)
_STRUCTURED = _LinearSolver("structured", _factor_blocks, _apply_blocks, _block_magnitude)


def _fd_jacobian(residual, x0: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian with componentwise steps
    ``h_i = _FD_STEP * (1 + |x_i|)``.

    ``residual(X)`` takes points X of shape (..., n) and returns ``(F, aux)``
    with F of the same shape; ``r0`` is F at ``x0``.  The perturbed points
    go in chunks of up to ``_FD_CHUNK_ENTRIES // n`` columns: row j of a
    chunk is x0 plus h_j in its entry j, so each chunk is one residual call.
    Column j equals the forward difference of the one-column-at-a-time loop
    bit for bit, provided the residual computes each point of a batch as it
    would alone.  A non-finite value that one column meets raises the loop's
    ``EvaluationError``.  When several columns of a chunk meet one, the
    residual checks every column's slow-potential gradients before any
    column's fast-potential ones: a later column's slow-potential error is
    then raised where the loop would raise an earlier column's
    fast-potential error.
    """
    n = x0.size
    h = _FD_STEP * (1.0 + np.abs(x0))
    J = np.empty((r0.size, n))
    chunk = max(1, _FD_CHUNK_ENTRIES // max(n, 1))
    for lo in range(0, n, chunk):
        cols = np.arange(lo, min(n, lo + chunk))
        X = np.tile(x0, (cols.size, 1))
        X[np.arange(cols.size), cols] += h[cols]
        J[:, cols] = ((residual(X)[0] - r0) / h[cols, None]).T
    return J


# ---------------------------------------------------------------------------
# Newton driver and step functions


@dataclass
class _HeldMatrix:
    """The factored Newton matrix that simplified Newton keeps across
    iterations and, when :func:`integrate` hands one holder to all its
    steps, across steps.  ``factors`` is None until the next build.

    ``step`` is the :class:`_BoundStep` or :class:`_ExplicitStep` its steps
    run on (:meth:`bind`): the size decision, maps, solver, T and record.
    ``ws`` holds the arrays that its block builds write: J's blocks, their
    interval sums, the elimination's ``ge`` and Z and |J|.  A build happens only once the held factors have
    been dropped, so one set serves every build of the holder, and its
    iterations read blocks that no build overwrites.  Each holder has its
    own.  A 20-step integration of an FPU chain with l=30, p=50 then takes
    about 105 minor page faults per build, most of them in the Hessian
    callback's own arrays, against about 370 with fresh arrays.
    """

    factors: object = None
    ws: _Workspace = field(default_factory=_Workspace)
    step: _BoundStep | _ExplicitStep | None = None

    def bind(self, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid, kind=_BoundStep):
        """The bound step of these objects, a ``kind``, made where the holder
        has none of them, whose matrix and arrays it then drops."""
        step = self.step
        if not (type(step) is kind and step.sys is sys and step.quad is quad and step.grid is grid):
            if step is not None:
                self.factors, self.ws = None, _Workspace()
            step = self.step = kind(sys, quad, grid)
        return step


def _inf_norm(F: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(F), axis=None)) if F.size else 0.0


def _polish_target(magnitude: Callable, factors, x: np.ndarray, norm: float, tol: float,
                   transform: Callable | None) -> float:
    """Residual that a polish iteration has to reach: four orders of
    magnitude below the tolerance, or the rounding floor of the residual's
    largest terms where that is higher.  The floor is only looked up for a
    residual within tolerance.  It is ``_EPS`` times the largest row of
    ``magnitude(factors, x)``, |J| |x|, or of |T| |J| |x| for a residual
    measured as T F (``transform``, see :func:`_newton`): T F is computed
    as T applied to the computed F, so the rounding of each entry of F
    reaches T F through |T|."""
    target = 1e-4 * tol
    if target < norm <= tol:
        rows = magnitude(factors, x)
        if transform is not None:
            rows = transform(rows, absolute=True)
        target = max(target, _EPS * float(np.maximum.reduce(rows, axis=None, initial=0.0)))
    return target


def _predicted_iters(theta: float, norm: float, target: float) -> float:
    """Further iterations from residual ``norm`` down to ``target`` if every
    iteration contracts by ``theta``."""
    if norm <= target:
        return 0.0
    if not theta < 1.0:
        return math.inf
    return math.log(target / norm) / math.log(theta)


def _newton(residual, jacobian, x0: np.ndarray, config: SolverConfig, linear: _LinearSolver,
            held: _HeldMatrix, transform: Callable | None = None):
    """Simplified Newton iteration on ``residual(x) -> (F, aux)``.

    ``jacobian(x, F, ws)`` builds the Newton matrix J at x, writing any
    blocks it keeps into the arrays of the holder's workspace ``ws``, and
    ``linear`` solves with it.  ``transform`` is a fixed invertible linear
    map T whose residual T F the stop and refresh rules measure instead of
    F, None for F itself: ``transform(F)`` applies T along F's last axis
    and ``transform(F, absolute=True)`` |T|.  Since (T J)^-1 T F = J^-1 F,
    the iterates are those of Newton on T F.  The factored matrix in
    ``held`` is kept across iterations and rebuilt at the current iterate
    when :func:`_iterate` asks for it; a holder that arrives with factors
    from earlier steps is used as it is.
    If the iteration then fails (no convergence within
    ``config.max_newton_iters``, a non-finite iterate or a non-finite value
    of the system at one), the step restarts from ``x0`` with a matrix built
    there, and only a failure of that attempt is raised.

    Returns the solution, the aux of the last residual evaluation (which is
    at the solution) and the step's work record.
    """
    stats = StepStats()
    F, aux = residual(x0)
    if held.factors is not None:
        try:
            return _iterate(residual, jacobian, linear, held, x0, F, aux, config, stats,
                            transform)
        except (DivergenceError, AbortedStepError, EvaluationError):
            held.factors = None
    return _iterate(residual, jacobian, linear, held, x0, F, aux, config, stats, transform)


def _iterate(residual, jacobian, linear: _LinearSolver, held: _HeldMatrix, x: np.ndarray,
             F: np.ndarray, aux, config: SolverConfig, stats: StepStats,
             transform: Callable | None):
    """One attempt of :func:`_newton` from x, where the residual is ``(F, aux)``.

    The rules read the infinity norm of the residual: of F, or of T F with
    ``transform``.  Stop rule: the residual is within ``newton_tol`` and either at the
    target of :func:`_polish_target` (four orders of magnitude below the
    tolerance, or the residual's rounding floor where that is higher) or
    reached by a polish, an iteration that started within tolerance, with
    a matrix built at its own iterate.  A residual within tolerance is also
    accepted once ``max_newton_iters`` iterations are spent.
    Refresh rule: after each iteration, the held matrix is dropped, to be
    rebuilt at the next iterate, when the contraction theta = ||F_new|| /
    ||F_old|| predicts more than ``_MAX_PREDICTED_ITERS`` further iterations
    to that target; so is every matrix whose iteration did not reduce the
    residual, unless the residual already sits at the target.
    """
    tol = config.newton_tol
    apply, magnitude = linear.apply, linear.magnitude
    norm = _inf_norm(F if transform is None else transform(F))
    theta = math.nan
    iters = 0
    settled = False
    while True:
        if norm <= tol:
            if norm <= 1e-4 * tol or settled or iters >= config.max_newton_iters:
                break
        elif iters >= config.max_newton_iters:
            raise DivergenceError(
                f"Newton did not reach tol={tol:g} in {config.max_newton_iters} iterations "
                f"(residual {norm:.3e}, {stats.matrix_builds} matrix builds, "
                f"last contraction {theta:.3g})",
                residual_norm=norm, iterations=stats.newton_iters,
                matrix_builds=stats.matrix_builds, contraction=theta)
        fresh = held.factors is None
        try:
            if fresh:
                t0 = time.perf_counter()
                J = jacobian(x, F, held.ws)
                t1 = time.perf_counter()
                stats.jacobian_time += t1 - t0
                stats.matrix_builds += 1
                held.factors = linear.factor(J)
                stats.solve_time += time.perf_counter() - t1
            # J u = F: x - u is x + dx for J dx = -F bit for bit
            t0 = time.perf_counter()
            u = apply(held.factors, F)
            stats.solve_time += time.perf_counter() - t0
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(
                f"singular Newton matrix: {exc} ({stats.matrix_builds} matrix builds)",
                residual_norm=norm, iterations=stats.newton_iters,
                matrix_builds=stats.matrix_builds, contraction=theta) from exc
        polish = norm <= tol
        x = x - u
        # an overflow of the test is looked into
        if not _finite(x) and not np.isfinite(x).all():
            raise AbortedStepError("Newton iterate became non-finite")
        F, aux = residual(x)
        iters += 1
        stats.newton_iters += 1
        new_norm = _inf_norm(F if transform is None else transform(F))
        theta, norm = new_norm / norm, new_norm
        target = _polish_target(magnitude, held.factors, x, norm, tol, transform)
        settled = (polish and fresh) or norm <= target
        if _predicted_iters(theta, norm, target) > _MAX_PREDICTED_ITERS:
            held.factors = None
    stats.residual_norm = norm
    return x, aux, stats


@functools.lru_cache(maxsize=64)
def _drift_times(grid: TimeGrid) -> np.ndarray:
    """``dt * [1, ..., p]`` as a column, the times of the fast nodes 1..p."""
    return grid.dt * np.arange(1, grid.micro_per_macro + 1)[:, None]


def _drift_guess(state: State, sys: MultirateSystem, grid: TimeGrid) -> np.ndarray:
    """Free-drift prediction of the stacked unknowns of the interval after ``state``."""
    n_s, shape = sys.n_slow, (grid.micro_per_macro, sys.n_fast)
    x = np.empty(n_s + math.prod(shape))
    np.add(state.q_slow, grid.dT * sys.mass_slow_inv.dot(state.p_slow), out=x[:n_s])
    np.add(state.q_fast, _drift_times(grid) * sys.mass_fast_inv.dot(state.p_fast),
           out=x[n_s:].reshape(shape))
    return x


def _solve_step(index: int, start: State, guess: np.ndarray, sys: MultirateSystem,
                quad: QuadratureSpec, grid: TimeGrid, config: SolverConfig,
                held: _HeldMatrix | None, transform: Callable | None = None,
                ) -> tuple[MacroStep, StepStats]:
    """The implicit step from ``start``: Newton on the DEL residual from
    ``guess``, its norm measured through ``transform`` (:func:`_newton`),
    on the machinery bound to ``held`` (a new holder by default)."""
    held = _HeldMatrix() if held is None else held
    step = held.bind(sys, quad, grid)
    residual = _step_residual(start, sys, quad, grid, held)
    x, aux, stats = _newton(residual, functools.partial(step.jacobian, start, residual),
                            guess, config, step.linear, held, transform)
    return step.record(index, start, x, aux), stats


def initial_step(q0: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
                 config: SolverConfig, held: _HeldMatrix | None = None,
                 ) -> tuple[MacroStep, StepStats]:
    """Solve the distinct first macro interval from an initial (q, p) state.

    The equations equate the left discrete momenta of the interval with the
    given initial momenta and impose stationarity at the interior fast nodes.
    ``held`` is the Newton matrix holder that :func:`integrate` shares
    between its steps; without one, the step builds its own matrix.
    """
    if not q0.finite:
        raise ValueError("initial state contains non-finite entries")
    return _solve_step(0, q0, _drift_guess(q0, sys, grid), sys, quad, grid, config, held)


def macro_step(prev: MacroStep, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
               config: SolverConfig, held: _HeldMatrix | None = None,
               ) -> tuple[MacroStep, StepStats]:
    """Advance one macro interval given the completed previous interval
    (``held`` as for :func:`initial_step`)."""
    # linear extrapolation for the slow node, constant continuation for fast
    n_s = sys.n_slow
    guess = np.empty(n_s + grid.micro_per_macro * sys.n_fast)
    np.subtract(2.0 * prev.q_slow_end, prev.q_slow_start, out=guess[:n_s])
    guess[n_s:].reshape(grid.micro_per_macro, sys.n_fast)[...] = prev.fast[-1]
    return _solve_step(prev.index + 1, prev.end_state(), guess, sys, quad, grid, config, held)


class _ExplicitStep:
    """The explicit steps of one system, quadrature and grid, bound once per
    holder (:meth:`_HeldMatrix.bind`): the kernel, K = dt^2 M_f^-1, a vector
    G = ``[g_s; g_fV; g_W; d; p_s0; p_f0]`` and the step's fixed maps
    (:class:`~multirate.discretization._StepForm`, dense below the size
    rule), whose record map it reads.  The fast chain advances in increment
    form (Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
    VIII.5): u = fast[m+1] - fast[m] takes ``u -= K @ g_m``.  The node
    gradients go into G, or one gather takes the terms' from them; the
    record is the record map applied to G.

    What a step looks up is bound here once: the callbacks, the products
    with K and the inverse masses, the step sizes and kick weights, the rows
    of G the micro steps write, and the record.  Every product keeps its
    association: the first increment is ``dt * (M_f^-1 p)`` and the slow
    drift ``dT * (M_s^-1 p_s)``, not a product with dt M_f^-1 or dT M_s^-1,
    which would round differently wherever a mass is not a power of two."""

    def __init__(self, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid):
        if not quad.explicit_solvable:
            raise ConfigurationError(
                "explicit stepping requires macro-node slow placement and a "
                "trapezoidal-family fast quadrature (gamma_W in {0, 1})")
        self.sys, self.quad, self.grid = sys, quad, grid
        self.kern = kern = interval_kernel(quad, grid)
        p, n_s, n_f, k_V, k_W = kern.p, sys.n_slow, sys.n_fast, kern.V.m.size, kern.W.m.size
        self.K = (kern.dt * kern.dt) * sys.mass_fast_inv
        # the kick weights of the gradients at node 0; whether V's term is node 0, W's t node t
        self.kick_V = kern.dT * quad.alpha_V
        self.kick_W = kern.dt * _left_weight(quad.alpha_W, quad.gamma_W)
        self.node_terms = (np.array_equal(kern.V.node, [0])
                           and np.array_equal(kern.W.node, np.arange(p)))
        self.form = form = _StepForm(kern, sys, _small(sys, grid))
        a, b = k_V * n_s, k_V * (n_s + n_f)
        c = form.kinetic_cols.start
        # the record map's columns of p_s0 and p_f0 are zero: so are these
        self.G = np.zeros(form.record.shape[1])
        self.grads = (self.G[:a].reshape(k_V, n_s), self.G[a:b].reshape(k_V, n_f),
                      self.G[b:c].reshape(k_W, n_f))
        self.node_grads = self.G[:c]
        self.d = self.G[c:c + n_s], self.G[c + n_s:form.kinetic_cols.stop].reshape(p, n_f)
        self.at_nodes = self.grads if self.node_terms else (
            np.empty((p + 1, n_s)), np.empty((p + 1, n_f)), np.empty((p + 1, n_f)))
        # ndarray.dot makes matmul's BLAS call at about half its overhead on
        # a small matrix
        self.K_dot, self.M_f_inv_dot = self.K.dot, sys.mass_fast_inv.dot
        self.M_s_inv_dot = sys.mass_slow_inv.dot
        self.fast_grad, self.slow_grad = sys.fast_potential_grad, sys.slow_potential_grad
        self.dt, self.dT, self.fast_shape = kern.dt, kern.dT, (p + 1, n_f)
        self.micro_grads = list(self.at_nodes[2][1:p])
        self.record_momenta = form.record_momenta

    def __call__(self, index: int, start: State) -> MacroStep:
        """The step from ``start``."""
        q0, f0 = start.q_slow, start.q_fast
        fast_grad, K_dot = self.fast_grad, self.K_dot
        slow_s, slow_f, g_W_node = self.at_nodes

        # the slow gradient at the start enters through its kicks and the slow
        # term at node 0, both there exactly where alpha_V != 0
        p_s, p_f = start.p_slow, start.p_fast
        if self.kick_V:
            slow_s[0], slow_f[0] = self.slow_grad(q0, f0)
            p_s, p_f = p_s - self.kick_V * slow_s[0], p_f - self.kick_V * slow_f[0]
        g_W_node[0] = fast_grad(f0)
        fast = np.empty(self.fast_shape)
        fast[0] = f0
        u = self.dt * self.M_f_inv_dot(p_f - self.kick_W * g_W_node[0])
        np.add(f0, u, out=fast[1])
        # three numpy calls per micro step
        for f, f_next, g in zip(fast[1:-1], fast[2:], self.micro_grads):
            g[:] = fast_grad(f)
            u -= K_dot(g)
            np.add(f, u, out=f_next)
        q1 = q0 + self.dT * self.M_s_inv_dot(p_s)

        if not self.node_terms:
            # each term's gradient by its node: a row no term uses is never read
            kern = self.kern
            p = kern.p
            if kern.V.at_end:
                slow_s[p], slow_f[p] = self.slow_grad(q1, fast[p])
            if kern.W.at_end:
                g_W_node[p] = fast_grad(fast[p])
            for rows, terms, out in zip(self.at_nodes, (kern.V, kern.V, kern.W), self.grads):
                np.take(rows, terms.node, axis=0, out=out)
        if not _finite(self.node_grads):
            g_s, g_fV, g_W = self.grads
            _check_finite((g_s, g_fV), self.kern.V.m, "slow-potential gradient")
            _check_finite((g_W,), self.kern.W.m, "fast-potential gradient")
        d_s, d_f = self.d
        np.subtract(q1, q0, out=d_s)
        np.subtract(fast[1:], fast[:-1], out=d_f)
        return MacroStep(index, q0, q1, fast, *self.record_momenta(self.G))


def _explicit_step(index: int, start: State, sys: MultirateSystem, quad: QuadratureSpec,
                   grid: TimeGrid, held: _HeldMatrix | None = None) -> MacroStep:
    """Macro step ``index`` from ``start`` (:func:`explicit_macro_step`)."""
    return (_HeldMatrix() if held is None else held).bind(sys, quad, grid, _ExplicitStep)(
        index, start)


def explicit_macro_step(prev: MacroStep, sys: MultirateSystem, quad: QuadratureSpec,
                        grid: TimeGrid, held: _HeldMatrix | None = None) -> MacroStep:
    """Iteration-free macro step; requires an explicit-solvable quadrature.

    The shared-node equation yields the first fast node, the interior
    equations advance the fast chain, and the slow equation gives the next
    macro configuration, each by a single mass-matrix solve.  The step
    evaluates the slow gradient at the start node where alpha_V != 0 and
    the fast gradient at micro nodes 0..p-1; a rule that weights the end
    node (alpha_V != 1 for the slow potential, alpha_W != 1 for gamma_W = 1
    or alpha_W != 0 for gamma_W = 0) adds one evaluation there, by the
    :class:`_ExplicitStep` bound to ``held`` (a new holder by default)."""
    return _explicit_step(prev.index + 1, prev.end_state(), sys, quad, grid, held)


# ---------------------------------------------------------------------------
# trajectory integration


def _step_functions(sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
                    config: SolverConfig, mode: IntegratorMode, held: _HeldMatrix):
    """``(first, advance, linear_solver)`` of an integrator mode.

    ``first(q0)`` steps from the initial State, ``advance(prev)`` from the
    previous MacroStep; both return ``(MacroStep, StepStats)``, and the
    Newton steps among them share the matrix in ``held``.
    ``linear_solver`` names the Newton linear solver the steps use, None
    where they run no Newton iteration.  Except for
    the explicit first step, they call the public step functions through
    their module attributes, so that a wrapper installed on one sees every
    call.
    """
    if mode is IntegratorMode.EXPLICIT:
        held.bind(sys, quad, grid, _ExplicitStep)  # raises for a rule that is not explicit
        none = StepStats()  # of every explicit step: no Newton work
        return ((lambda q0: (_explicit_step(0, q0, sys, quad, grid, held), none)),
                (lambda prev: (explicit_macro_step(prev, sys, quad, grid, held), none)), None)
    linear_solver = held.bind(sys, quad, grid).linear.name
    if mode is IntegratorMode.CLOSED_FORM_PQ:
        from . import schemes
        schemes._check_map(quad)
        return ((lambda q0: schemes.pq_step(q0, sys, quad, grid, config, held=held)),
                (lambda prev: schemes.pq_step(prev.end_state(), sys, quad, grid, config,
                                              prev.index + 1, held)),
                linear_solver)
    return ((lambda q0: initial_step(q0, sys, quad, grid, config, held)),
            (lambda prev: macro_step(prev, sys, quad, grid, config, held)), linear_solver)


def _empty_trajectory(q0: State, grid: TimeGrid, sys: MultirateSystem) -> Trajectory:
    N, p = grid.n_macro, grid.micro_per_macro
    traj = Trajectory(grid, np.zeros((N + 1, sys.n_slow)), np.zeros((N + 1, sys.n_slow)),
                      np.zeros((N * p + 1, sys.n_fast)), np.zeros((N * p + 1, sys.n_fast)))
    traj.slow_q[0], traj.slow_p[0] = q0.q_slow, q0.p_slow
    traj.fast_q[0], traj.fast_p[0] = q0.q_fast, q0.p_fast
    return traj


def _store_step(traj: Trajectory, step: MacroStep, k: int):
    """Write the rows of one step record as interval ``k`` of ``traj``.

    Its start momenta replace the previous interval's provisional end
    momenta; row 0 keeps the given initial state.
    """
    p = traj.grid.micro_per_macro
    lo = 1 if k == 0 else 0
    traj.slow_q[k + 1] = step.q_slow_end
    traj.fast_q[k * p + 1 : (k + 1) * p + 1] = step.fast[1:]
    traj.slow_p[k + lo : k + 2] = step.p_slow[lo:]
    traj.fast_p[k * p + lo : (k + 1) * p + 1] = step.p_fast[lo:]


def integrate(q0: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
              config: SolverConfig, mode: IntegratorMode = IntegratorMode.IMPLICIT_DEL,
              store: Callable[[MacroStep], None] | None = None,
              ) -> tuple[Trajectory | None, IntegrationStats]:
    """Integrate the full trajectory over ``grid.n_macro`` macro steps.

    Every mode runs through this loop: its step functions return one
    :class:`MacroStep` record per interval, stored the same way.  The Newton
    matrix is held here, for the steps of this call only, so identical
    inputs produce bit-identical trajectories.  On a step failure an
    :class:`IntegrationError` carrying the partial trajectory is raised.

    ``store``, where given, takes each record in order instead, and None
    stands for the trajectory.  ``IntegrationStats.wall_time_total`` counts
    the step functions alone, not the stores.
    """
    # the caller's state is converted here, once: the loop makes every later
    # start itself, from the float arrays of its records (MacroStep.end_state)
    q0 = State(q0.q_slow, q0.q_fast, q0.p_slow, q0.p_fast)
    step_fn, advance, linear_solver = _step_functions(sys, quad, grid, config, mode,
                                                      _HeldMatrix())
    traj = _empty_trajectory(q0, grid, sys) if store is None else None
    store = store or (lambda step: _store_step(traj, step, step.index))
    stats = IntegrationStats(linear_solver=linear_solver)
    prev = q0
    for k in range(grid.n_macro):
        t0 = time.perf_counter()
        try:
            step, sstats = step_fn(prev)
        except Exception as exc:
            stats.wall_time_total += time.perf_counter() - t0
            raise IntegrationError(f"macro step {k} failed: {exc}",
                                   partial_trajectory=traj, step_index=k, cause=exc) from exc
        stats.wall_time_total += time.perf_counter() - t0
        store(step)
        stats.add(sstats)
        prev, step_fn = step, advance
    return traj, stats


def macro_flow_map(state: State, sys: MultirateSystem, quad: QuadratureSpec, dT: float,
                   micro_per_macro: int, config: SolverConfig) -> State:
    """One application of the macro-step flow map (q, p) -> (q, p)."""
    grid = TimeGrid(dT=dT, micro_per_macro=micro_per_macro, n_macro=1)
    step, _ = initial_step(state, sys, quad, grid, config)
    return step.end_state()


# ---------------------------------------------------------------------------
# certificates


@dataclass
class TrajectoryCertificate:
    """Residual and momentum-matching checks over a whole trajectory."""

    residual_max: float
    matching_macro_max: float
    matching_micro_max: float
    initial_max: float

    def ok(self, newton_tol: float, matching_factor: float = 10.0) -> bool:
        return (
            self.residual_max <= newton_tol
            and self.initial_max <= newton_tol
            and self.matching_macro_max <= matching_factor * newton_tol
            and self.matching_micro_max <= matching_factor * newton_tol
        )


# intervals per batch in verify_trajectory; bounds its temporaries
_VERIFY_CHUNK = 64


def verify_trajectory(traj: Trajectory, q0: State | None, sys: MultirateSystem,
                      quad: QuadratureSpec, grid: TimeGrid) -> TrajectoryCertificate:
    """Recompute the discrete equations along a trajectory.

    The stacked residual at each interior macro node equals the mismatch of
    left and right discrete momenta, so the certificate reports both the
    residual norm and the per-node matching norms.  The momenta of up to
    ``_VERIFY_CHUNK`` intervals come from one batch through the step's fixed
    maps, applied by terms
    (:meth:`~multirate.discretization._StepForm.interval_momenta`);
    consecutive chunks overlap by one interval so that every macro node is
    checked.  ``q0`` is the initial state, or None for a part of a
    trajectory that does not begin there (``initial_max`` is then 0).
    """
    N, p = grid.n_macro, grid.micro_per_macro
    form = _StepForm(interval_kernel(quad, grid), sys, False)

    def inf(a):
        return float(np.max(np.abs(a))) if a.size else 0.0

    initial_max = match_macro = match_micro = 0.0
    starts = range(0, N - 1, _VERIFY_CHUNK - 1) if N > 1 else range(N)
    for lo in starts:
        hi = min(N, lo + _VERIFY_CHUNK)
        nodes = np.arange(lo, hi)[:, None] * p + np.arange(p + 1)
        p_s_minus, p_s_plus, p_f_minus, p_f_plus = form.interval_momenta(
            traj.slow_q[lo:hi], traj.slow_q[lo + 1:hi + 1], traj.fast_q[nodes])
        if lo == 0 and q0 is not None:
            initial_max = max(inf(p_s_minus[0] - q0.p_slow), inf(p_f_minus[0, 0] - q0.p_fast))
        match_macro = max(match_macro, inf(p_s_plus[:-1] - p_s_minus[1:]),
                          inf(p_f_plus[:-1, -1] - p_f_minus[1:, 0]))
        match_micro = max(match_micro, inf(p_f_plus[:, :-1] - p_f_minus[:, 1:]))
    return TrajectoryCertificate(max(match_macro, match_micro), match_macro, match_micro,
                                 initial_max)
