"""Compound Newton solver for the discrete Euler-Lagrange equations.

One macro step solves for the next slow configuration and all fast micro
nodes of the interval simultaneously.  The residual stacks the slow
stationarity equation, the matching equation at the shared fast node and the
interior fast stationarity equations.  Its Jacobian is an arrowhead: dense
slow row/column borders around a fast part that is block lower-triangular
with two sub-diagonals (the equation of fast node i couples the unknown
nodes i-1, i and i+1).  Large systems with analytic Jacobians solve it by
block elimination, the others with a dense inverse (:func:`_linearization`).

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

from .discretization import _check_finite, _finite, _Workspace, interval_kernel
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
# by blocks (_linearization).  FPU chains, midpoint-midpoint, 2-vCPU Xeon,
# OpenBLAS 0.3.31, one BLAS thread, medians of one matrix build (assembly
# plus factor, into one workspace) and of one solve with it, dense vs blocks
# (tests/test_linear_solver_bench.py, the lower of two runs):
#   l=3,  p=10,   33 unknowns: 0.10 ms + 1 us   vs 0.15 ms + 59 us
#   l=10, p=10,  110 unknowns: 0.48 ms + 3 us   vs 0.20 ms + 92 us
#   l=3,  p=50,  153 unknowns: 0.96 ms + 6 us   vs 0.44 ms + 267 us
#   l=10, p=20,  210 unknowns: 2.11 ms + 8 us   vs 0.27 ms + 90 us
#   l=30, p=50, 1530 unknowns: 296 ms + 0.81 ms vs 3.2 ms + 0.40 ms
# A solve by blocks loops over the p row blocks, so the break-even depends
# on p, not on the unknowns alone: whole integrations (about one build and
# five solves per step) ran 1.3x faster by blocks at l=10, p=10 and 1.1x
# faster dense at l=3, p=50.  Other machines, BLAS builds or potentials
# may place it elsewhere.
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
# FPU chains, midpoint-midpoint, dT = 0.3, speed-up over a matrix built at
# every iteration, medians of 3 alternated pairs on a 2-vCPU Xeon, one BLAS
# thread, bound 2 | 3 | 4:
#   l=3,  p=10 (build ~2 iterations):       0.98 | 1.18 | 1.13
#   l=3,  p=10, p/q map (difference matrix): 1.26 | 1.47 | 1.31
#   l=30, p=50 (blocks, build ~10 iterations): 1.48 | 1.77 | 1.96
# With 3, these take about one build and 4.5-5 iterations per step, against
# 3.2 iterations and builds before.  -1 rebuilds at every iteration.
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
      componentwise steps ``1e-7 * (1 + |x_i|)`` otherwise
      (``_linearization``).  A difference matrix costs one batched residual
      call per chunk of columns (``_fd_jacobian``), and each column is
      bit-identical to the one-unknown-at-a-time difference.
    - Both implicit modes run the same Newton iteration on the DEL
      residual F.  The closed-form p/q maps solve T F = 0 for a fixed
      invertible linear map T of F, whose Newton update is the DEL one;
      their stop and refresh rules read the norm of T F instead of F's.
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
      a dense inverse otherwise.  Elimination's cost grows linearly in p,
      dense factoring as p^3; with matrix reuse the two take the same time
      between about 110 and 210 unknowns on the FPU chain, depending on p.
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
    wall_time_total: float = 0.0
    residual_max: float = 0.0
    matrix_builds_total: int = 0
    # "dense" or "structured" (see _linearization); None where no Newton
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


def _interval_record(index: int, q_slow_k, q_slow_next, fast, momenta) -> MacroStep:
    """Step record of an interval from its discrete momenta
    ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)``: the left values at nodes
    0..p-1 and the right values at the end node."""
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = momenta
    p_slow = np.empty((2,) + p_s_minus.shape)
    p_slow[0], p_slow[1] = p_s_minus, p_s_plus
    p_fast = np.empty((len(p_f_minus) + 1,) + p_f_minus.shape[1:])
    p_fast[:-1], p_fast[-1] = p_f_minus, p_f_plus[-1]
    return MacroStep(index, q_slow_k, q_slow_next, fast, p_fast, p_slow)


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


def _step_residual(start: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid):
    """Stacked equations of the interval that begins at ``start``.

    ``residual(x)`` returns ``(F, (fast, gradients, kinetic))``, F with the
    shape of x, ``fast`` the fast nodes 0..p, ``gradients`` the kernel's
    ``(g_s, g_fV, g_W)`` and ``kinetic`` its kinetic momenta at x, from
    which :meth:`~multirate.discretization._IntervalKernel.momenta_from`
    builds the momenta of an accepted iterate.  x may carry leading batch
    axes, whose points go to the callbacks in one batch.

    Each entry of F is a momentum mismatch (incoming minus left momenta at
    the slow node and at fast node 0, right minus left momenta at the
    interior fast nodes), computed without the momenta themselves:

    - slow row: ``p_s0 - M_s (q1 - q0) / dT - w_c0 . g_s``;
    - fast rows: the kinetic differences ``p_f0 - M_f v_0`` at node 0 and
      ``M_f (v_{i-1} - v_i)`` at node i, v_i the velocity of micro interval
      i, minus the kernel's equation weights applied to the gradients
      (:meth:`~multirate.discretization._IntervalKernel.fast_forces`).

    F agrees with the difference of the momenta to within rounding of the
    largest momentum terms, and every point of a batch gets the F it would
    get alone.  What depends on the start alone, its share ``c0 q0`` of the
    slow quadrature points, is computed once per step.
    """
    kern = interval_kernel(quad, grid)
    p = grid.micro_per_macro
    n_s = sys.n_slow
    q0, p_s0, p_f0 = start.q_slow, start.p_slow, start.p_fast
    Qs0 = kern.start_points(q0)

    def residual(x):
        q_slow_next, fast = _step_nodes(start, x, sys, p)
        grads = g_s, g_fV, g_W = kern.gradients(kern.points(q0, q_slow_next, fast, Qs0), sys)
        # p_f0 above the fast kinetic momenta: the kinetic differences of all
        # fast rows are then one subtraction
        P_f = np.empty(fast.shape)
        P_f[..., 0, :] = p_f0
        kinetic = Mv_s, Mv_f = kern.kinetic_momenta(q0, q_slow_next, fast, sys,
                                                    out=P_f[..., 1:, :])
        F = np.empty(x.shape)
        F[..., :n_s] = p_s0 - Mv_s - kern.w_c0 @ g_s
        # the fast rows as (..., p, n_fast): splitting the last axis is a view
        F_f = F[..., n_s:].reshape(Mv_f.shape)
        np.subtract(P_f[..., :-1, :], Mv_f, out=F_f)
        F_f -= kern.fast_forces(g_fV, g_W)
        return F, (fast, grads, kinetic)

    return residual


def _linearization(sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid):
    """``(linear, jacobian)`` of the implicit steps on ``grid``.

    ``jacobian(start, residual, x, F, ws)`` builds the Newton matrix of the
    step from ``start`` at x, F being the value there of ``residual``
    (:func:`_step_residual`), and the :class:`_LinearSolver` ``linear``
    factors and applies it.  Both implicit modes take it: the p/q maps'
    Newton update is the DEL one (:func:`_iterate`).  The matrix is
    analytic where the system supplies both Hessians and forward
    differences of ``residual`` otherwise (:func:`_fd_jacobian`, dense,
    from batched residual calls).  An analytic matrix is kept as blocks
    (``"structured"``) from ``_STRUCTURED_MIN_UNKNOWNS`` unknowns on and
    assembled densely below.  Its blocks, and the dense matrix, are written
    into arrays of the :class:`~multirate.discretization._Workspace` ``ws``.
    """
    p = grid.micro_per_macro

    if not sys.has_hessians:
        def fd_jacobian(start, residual, x, F, ws):
            return _fd_jacobian(residual, x, F)
        return _DENSE, fd_jacobian

    def jacobian_blocks(start, residual, x, F, ws):
        return _jacobian_blocks(start.q_slow, *_step_nodes(start, x, sys, p), sys, quad, grid, ws)

    if sys.n_slow + p * sys.n_fast >= _STRUCTURED_MIN_UNKNOWNS:
        return _STRUCTURED, jacobian_blocks

    def jacobian(start, residual, x, F, ws):
        return _assemble_jacobian(jacobian_blocks(start, residual, x, F, ws))
    return _DENSE, jacobian


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
    """Dense matrix of the blocks in the workspace's array ``"dense"``, which
    is zero-filled where it is allocated: each assembly writes only the
    nonzero pattern, the fast band by flat positions (:func:`_band_positions`)."""
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    A = J.ws.zeros("dense", (n_s + p * n_f, n_s + p * n_f))
    A[:n_s, :n_s] = J.slow
    A[:n_s, n_s:] = J.row
    A[n_s:, :n_s] = J.col
    band_at, g_at = _band_positions(p, n_s, n_f)
    flat = A.reshape(-1)
    flat[band_at] = J.band
    flat[g_at] = J.band[1:p - 1]
    return A


@functools.lru_cache(maxsize=64)
def _band_positions(p: int, n_s: int, n_f: int):
    """Flat positions in the dense matrix of the fast chain's nonzero
    blocks: of ``band`` (D_i at row block i, node i+1; E_i at row block i,
    node i), and of G_i = D_{i-1} = ``band[i-1]`` at row block i, node i-1
    for i = 2..p-1; each (blocks, n_fast, n_fast)."""
    n = n_s + p * n_f
    i, a = np.arange(p), np.arange(n_f)

    def at(rows, cols):
        return ((n_s + n_f * rows[:, None, None] + a[:, None]) * n
                + n_s + n_f * cols[:, None, None] + a)

    return at(np.concatenate([i, i[1:]]), np.concatenate([i, i[:-1]])), at(i[2:], i[:-2])


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
    holds |J| once :func:`_block_magnitude` has needed it.
    """

    J: _JacobianBlocks
    d_inv: np.ndarray | None = None     # (p, n_fast, n_fast): D_i^-1
    ge: np.ndarray | None = None        # (p, n_fast, 2 n_fast): D_i^-1 [G_i | E_i]
    z: np.ndarray | None = None         # (p*n_fast, n_slow)
    schur_inv: np.ndarray | None = None  # (n_slow, n_slow): (A - B Z)^-1
    j_max: float = 0.0
    absolute: _JacobianBlocks | None = None


def _abs_max(a: np.ndarray) -> float:
    """max |a_ij| without an array of the magnitudes."""
    return max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0)))


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
            for i in range(p):
                Z[i + 2] -= ge[i] @ Z[i:i + 2].reshape(2 * n_f, n_s)
            Z = Z[2:].reshape(p * n_f, n_s)
            schur_inv = np.linalg.inv(J.slow - J.row @ Z)
    except np.linalg.LinAlgError:
        return _BlockFactors(J, j_max=j_max)
    return _BlockFactors(J, d_inv, ge, Z, schur_inv, j_max)


def _eliminate(F: _BlockFactors, b: np.ndarray) -> np.ndarray:
    """Solve ``J x = b`` with the elimination factors, without any check."""
    J = F.J
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    a = np.zeros((p + 2, n_f))
    np.matmul(F.d_inv, b[n_s:].reshape(p, n_f, 1), out=a[2:, :, None])
    for i in range(p):
        a[i + 2] -= F.ge[i] @ a[i:i + 2].ravel()
    a = a[2:].ravel()
    s = F.schur_inv @ (b[:n_s] - J.row @ a)
    return np.concatenate([s, a - F.z @ s])


def _block_matvec(J: _JacobianBlocks, x: np.ndarray) -> np.ndarray:
    """``J @ x`` from the blocks."""
    p, n_s, n_f = J.p, J.slow.shape[0], J.band.shape[1]
    s, y = x[:n_s], x[n_s:].reshape(p, n_f, 1)
    fast = (J.col @ s).reshape(p, n_f) + (J.band[:p] @ y)[..., 0]
    fast[1:] += (J.band[p:] @ y[:-1])[..., 0]
    fast[2:] += (J.band[1:p - 1] @ y[:-2])[..., 0]
    return np.concatenate([J.slow @ s + J.row @ x[n_s:], fast.ravel()])


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
    return J, np.linalg.inv(J)


# ndarray.dot: the BLAS matrix-vector product of @, at half its call cost
def _apply_dense(factors, b: np.ndarray) -> np.ndarray:
    return factors[1].dot(b)


def _dense_magnitude(factors, x: np.ndarray) -> np.ndarray:
    return np.abs(factors[0]).dot(np.abs(x))


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

    ``ws`` holds the arrays that its builds write: J's blocks, their
    interval sums, the elimination's ``ge`` and Z, |J|, and the dense
    matrix that :func:`_assemble_jacobian` writes.  A build
    happens only once the held factors have been dropped, so one set serves
    every build of the holder, and its iterations read blocks that no build
    overwrites.  Each holder has its own.  A 20-step integration of an FPU
    chain with l=30, p=50 then takes about 105 minor page faults per build,
    most of them in the Hessian callback's own arrays, against about 370
    with fresh arrays.
    """

    factors: object = None
    ws: _Workspace = field(default_factory=_Workspace)


def _inf_norm(F: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(F), axis=None)) if F.size else 0.0


def _polish_target(linear: _LinearSolver, held: _HeldMatrix, x: np.ndarray, norm: float,
                   tol: float, transform: Callable | None) -> float:
    """Residual that a polish iteration has to reach: four orders of
    magnitude below the tolerance, or the rounding floor of the residual's
    largest terms where that is higher.  The floor is only looked up for a
    residual within tolerance.  It is ``_EPS`` times the largest row of
    ``linear.magnitude``, |J| |x|, or of |T| |J| |x| for a residual
    measured as T F (``transform``, see :func:`_newton`): T F is computed
    as T applied to the computed F, so the rounding of each entry of F
    reaches T F through |T|."""
    target = 1e-4 * tol
    if target < norm <= tol:
        rows = linear.magnitude(held.factors, x)
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


def _newton(residual, jacobian, x0: np.ndarray, config: SolverConfig,
            linear: _LinearSolver = _DENSE, held: _HeldMatrix | None = None,
            transform: Callable | None = None):
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
    if held is None:
        held = _HeldMatrix()
    elif held.factors is not None:
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

    def measure(F):
        return _inf_norm(F if transform is None else transform(F))

    norm = measure(F)
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
            u = linear.apply(held.factors, F)
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
        new_norm = measure(F)
        theta, norm = new_norm / norm, new_norm
        target = _polish_target(linear, held, x, norm, tol, transform)
        settled = (polish and fresh) or norm <= target
        if _predicted_iters(theta, norm, target) > _MAX_PREDICTED_ITERS:
            held.factors = None
    stats.residual_norm = norm
    return x, aux, stats


def _drift_guess(state: State, sys: MultirateSystem, grid: TimeGrid) -> np.ndarray:
    """Free-drift prediction of the stacked unknowns of the interval after ``state``."""
    p = grid.micro_per_macro
    s1 = state.q_slow + grid.dT * (sys.mass_slow_inv @ state.p_slow)
    v_f = sys.mass_fast_inv @ state.p_fast
    fast = state.q_fast[None, :] + grid.dt * np.arange(1, p + 1)[:, None] * v_f[None, :]
    return np.concatenate([s1, fast.ravel()])


def _step_record(index: int, start: State, x: np.ndarray, aux, sys: MultirateSystem,
                 quad: QuadratureSpec, grid: TimeGrid) -> MacroStep:
    """Record of the step from ``start`` at the accepted iterate x, ``aux``
    being the ``(fast, gradients, kinetic)`` of :func:`_step_residual`
    there: the momenta are built once, from those gradients and kinetic
    momenta."""
    fast, grads, kinetic = aux
    q_slow_next = x[:sys.n_slow]
    mom = interval_kernel(quad, grid).momenta_from(start.q_slow, q_slow_next, fast, sys, *grads,
                                                   kinetic)
    return _interval_record(index, start.q_slow, q_slow_next, fast, mom)


def _solve_step(index: int, start: State, guess: np.ndarray, sys: MultirateSystem,
                quad: QuadratureSpec, grid: TimeGrid, config: SolverConfig,
                held: _HeldMatrix | None, transform: Callable | None = None,
                ) -> tuple[MacroStep, StepStats]:
    """The implicit step from ``start``: Newton on the DEL residual from
    ``guess``, its norm measured through ``transform`` (:func:`_newton`)."""
    residual = _step_residual(start, sys, quad, grid)
    linear, jacobian = _linearization(sys, quad, grid)
    x, aux, stats = _newton(residual, functools.partial(jacobian, start, residual),
                            guess, config, linear, held, transform)
    return _step_record(index, start, x, aux, sys, quad, grid), stats


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


def _explicit_step(index: int, start: State, sys: MultirateSystem, quad: QuadratureSpec,
                   grid: TimeGrid) -> MacroStep:
    """Macro step of the explicit recurrence (:func:`explicit_macro_step`).

    The fast chain advances in increment form (Hairer, Lubich & Wanner,
    *Geometric Numerical Integration*, VIII.5): u = fast[m+1] - fast[m]
    takes ``u -= K @ g_m`` with K = dt^2 M_f^-1, and fast[m+1] = fast[m] + u.
    Every quadrature point of an explicit-solvable rule is a node, so the
    momenta are combined from the gradients the recurrence evaluated, taken
    per term by its node.
    """
    kern = interval_kernel(quad, grid)
    p, dt = kern.p, kern.dt
    q0, f0 = start.q_slow, start.q_fast
    fast_grad = sys.fast_potential_grad

    g_s, g_f = sys.slow_potential_grad(q0, f0)
    g_s, g_f = np.asarray(g_s, dtype=float), np.asarray(g_f, dtype=float)
    g_W_node = np.empty((p + 1, sys.n_fast))  # fast-potential gradient per node
    g_W_node[0] = fast_grad(f0)
    fast = np.empty((p + 1, sys.n_fast))
    fast[0] = f0
    u = dt * sys.mass_fast_inv.dot(start.p_fast - kern.kick_V * g_f - kern.kick_W * g_W_node[0])
    np.add(f0, u, out=fast[1])
    K = (dt * dt) * sys.mass_fast_inv
    # three numpy calls per micro step; ndarray.dot makes matmul's BLAS call
    # at about half its overhead on a small matrix
    for f, f_next, g in zip(fast[1:p], fast[2:], g_W_node[1:p]):
        g[:] = fast_grad(f)
        u -= K.dot(g)
        np.add(f, u, out=f_next)
    q1 = q0 + kern.dT * sys.mass_slow_inv.dot(start.p_slow - kern.kick_V * g_s)

    if kern.node_terms:
        g_sV, g_fV, g_W = g_s[None], g_f[None], g_W_node[:p]
    else:
        # each term's gradient by its node: a row no term uses is never read
        slow_at = {0: (g_s, g_f)}
        if kern.V.at_end:
            slow_at[p] = sys.slow_potential_grad(q1, fast[p])
        if kern.W.at_end:
            g_W_node[p] = fast_grad(fast[p])
        g_sV = np.array([slow_at[n][0] for n in kern.V.node], dtype=float)
        g_fV = np.array([slow_at[n][1] for n in kern.V.node], dtype=float)
        g_W = g_W_node[kern.W.node]
    if not _finite(g_sV, g_fV, g_W):
        _check_finite((g_sV, g_fV), kern.V.m, "slow-potential gradient")
        _check_finite((g_W,), kern.W.m, "fast-potential gradient")
    return _interval_record(index, q0, q1, fast,
                            kern.momenta_from(q0, q1, fast, sys, g_sV, g_fV, g_W))


def explicit_macro_step(prev: MacroStep, sys: MultirateSystem, quad: QuadratureSpec,
                        grid: TimeGrid) -> MacroStep:
    """Iteration-free macro step; requires an explicit-solvable quadrature.

    The shared-node equation yields the first fast node, the interior
    equations advance the fast chain, and the slow equation gives the next
    macro configuration, each by a single mass-matrix solve.  The step
    evaluates the slow gradient once and the fast gradient at micro nodes
    0..p-1; a rule that weights the end node (alpha_V != 1 for the slow
    potential, alpha_W != 1 for gamma_W = 1 or alpha_W != 0 for gamma_W = 0)
    adds one evaluation there.
    """
    if not quad.explicit_solvable:
        raise ConfigurationError(
            "explicit stepping requires macro-node slow placement and a "
            "trapezoidal-family fast quadrature (gamma_W in {0, 1})")
    return _explicit_step(prev.index + 1, prev.end_state(), sys, quad, grid)


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
        if not quad.explicit_solvable:
            raise ConfigurationError("quadrature is not explicit-solvable")
        none = StepStats()  # of every explicit step: no Newton work
        return ((lambda q0: (_explicit_step(0, q0, sys, quad, grid), none)),
                (lambda prev: (explicit_macro_step(prev, sys, quad, grid), none)), None)
    linear_solver = _linearization(sys, quad, grid)[0].name
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
    slow_q = np.zeros((N + 1, sys.n_slow))
    slow_p = np.zeros((N + 1, sys.n_slow))
    fast_q = np.zeros((N * p + 1, sys.n_fast))
    fast_p = np.zeros((N * p + 1, sys.n_fast))
    slow_q[0] = q0.q_slow
    slow_p[0] = q0.p_slow
    fast_q[0] = q0.q_fast
    fast_p[0] = q0.p_fast
    return Trajectory(grid, slow_q, slow_p, fast_q, fast_p)


def _store_step(traj: Trajectory, step: MacroStep):
    """Write the rows of one step record.

    Its start momenta replace the previous step's provisional end momenta;
    row 0 keeps the given initial state.
    """
    k, p = step.index, traj.grid.micro_per_macro
    lo = 1 if k == 0 else 0
    traj.slow_q[k + 1] = step.q_slow_end
    traj.fast_q[k * p + 1 : (k + 1) * p + 1] = step.fast[1:]
    traj.slow_p[k + lo : k + 2] = step.p_slow[lo:]
    traj.fast_p[k * p + lo : (k + 1) * p + 1] = step.p_fast[lo:]


def integrate(q0: State, sys: MultirateSystem, quad: QuadratureSpec, grid: TimeGrid,
              config: SolverConfig, mode: IntegratorMode = IntegratorMode.IMPLICIT_DEL,
              ) -> tuple[Trajectory, IntegrationStats]:
    """Integrate the full trajectory over ``grid.n_macro`` macro steps.

    Every mode runs through this loop: its step functions return one
    :class:`MacroStep` record per interval, stored the same way.  The Newton
    matrix is held here, for the steps of this call only, so identical
    inputs produce bit-identical trajectories.  On a step failure an
    :class:`IntegrationError` carrying the partial trajectory is raised.
    """
    # the caller's state is converted here, once: the loop makes every later
    # start itself, from the float arrays of its records (MacroStep.end_state)
    q0 = State(q0.q_slow, q0.q_fast, q0.p_slow, q0.p_fast)
    step_fn, advance, linear_solver = _step_functions(sys, quad, grid, config, mode,
                                                      _HeldMatrix())
    traj = _empty_trajectory(q0, grid, sys)
    stats = IntegrationStats(linear_solver=linear_solver)
    t_wall = time.perf_counter()
    prev = q0
    for k in range(grid.n_macro):
        try:
            step, sstats = step_fn(prev)
        except Exception as exc:
            stats.wall_time_total = time.perf_counter() - t_wall
            raise IntegrationError(f"macro step {k} failed: {exc}",
                                   partial_trajectory=traj, step_index=k, cause=exc) from exc
        _store_step(traj, step)
        stats.add(sstats)
        prev, step_fn = step, advance
    stats.wall_time_total = time.perf_counter() - t_wall
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


# intervals per kernel call in verify_trajectory; bounds its temporaries
_VERIFY_CHUNK = 64


def verify_trajectory(traj: Trajectory, q0: State, sys: MultirateSystem, quad: QuadratureSpec,
                      grid: TimeGrid) -> TrajectoryCertificate:
    """Recompute the discrete equations along a trajectory.

    The stacked residual at each interior macro node equals the mismatch of
    left and right discrete momenta, so the certificate reports both the
    residual norm and the per-node matching norms.  The momenta of up to
    ``_VERIFY_CHUNK`` intervals come from one kernel call; consecutive chunks
    overlap by one interval so that every macro node is checked.
    """
    N, p = grid.n_macro, grid.micro_per_macro
    kern = interval_kernel(quad, grid)

    def inf(a):
        return float(np.max(np.abs(a))) if a.size else 0.0

    initial_max = match_macro = match_micro = 0.0
    starts = range(0, N - 1, _VERIFY_CHUNK - 1) if N > 1 else range(N)
    for lo in starts:
        hi = min(N, lo + _VERIFY_CHUNK)
        nodes = np.arange(lo, hi)[:, None] * p + np.arange(p + 1)
        p_s_minus, p_s_plus, p_f_minus, p_f_plus = kern.momenta(
            traj.slow_q[lo:hi], traj.slow_q[lo + 1:hi + 1], traj.fast_q[nodes], sys)
        if lo == 0:
            initial_max = max(inf(p_s_minus[0] - q0.p_slow), inf(p_f_minus[0, 0] - q0.p_fast))
        match_macro = max(match_macro, inf(p_s_plus[:-1] - p_s_minus[1:]),
                          inf(p_f_plus[:-1, -1] - p_f_minus[1:, 0]))
        match_micro = max(match_micro, inf(p_f_plus[:, :-1] - p_f_minus[:, 1:]))
    return TrajectoryCertificate(max(match_macro, match_micro), match_macro, match_micro,
                                 initial_max)
