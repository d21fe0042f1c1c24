"""Discrete Lagrangian ingredients on the two-level grid.

The action over one macro interval is approximated by a discrete Lagrangian
``L_d = T_d - V_d - W_d`` built from linear interpolation of the slow
variables between macro nodes, piecewise-linear fast variables on the micro
grid, and affine quadrature rules per potential (see
:class:`multirate.model.QuadratureSpec`).

Every potential contribution is represented uniformly as quadrature terms.
A term evaluates the potential at a point that is an affine combination of
the two nodes bounding micro interval ``m``:

* fast component: ``u_l * f[m] + u_r * f[m+1]`` with ``u_l + u_r = 1``
* slow component: ``c0 * q_s_k + c1 * q_s_next`` (interpolation folded in)

Macro-node-only placement of the slow potential is expressed in the same
representation with weights attached to the first and last micro interval.
The term geometry is cached as arrays per (quadrature, dT, p) in one
interval kernel, which gathers all quadrature points with one matrix product,
requests each potential's gradients (or Hessians) once per batch of points,
scatters the gradients back to the nodes by matrix products and sums the
Hessians per micro interval.  The discrete
momenta, the Lagrangian gradient, the DEL residual and the Newton Jacobian
of :mod:`multirate.solver` all derive from it.  Where both potentials place
their fast points alike (midpoint-midpoint), one set of points and one
scatter serve both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, TimeGrid

__all__ = [
    "MacroStepUnknowns",
    "interp_slow",
    "discrete_kinetic",
    "discrete_slow_potential",
    "discrete_fast_potential",
    "discrete_lagrangian",
    "discrete_lagrangian_micro",
    "grad_discrete_lagrangian",
    "IntervalMomenta",
    "interval_momenta",
]


@dataclass
class MacroStepUnknowns:
    """Unknowns of one macro step in the fixed stacking order.

    The flat vector is ``[q_slow_next; q_fast_micro[0]; ...; q_fast_micro[p-1]]``
    where ``q_fast_micro[i]`` is the fast configuration at micro node i+1.
    """

    q_slow_next: np.ndarray
    q_fast_micro: np.ndarray  # shape (p, n_fast), nodes 1..p

    def pack(self) -> np.ndarray:
        return np.concatenate([self.q_slow_next, self.q_fast_micro.ravel()])

    @classmethod
    def unpack(cls, x: np.ndarray, n_slow: int, n_fast: int, p: int) -> "MacroStepUnknowns":
        if x.size != n_slow + p * n_fast:
            raise ValueError(f"unknown vector has size {x.size}, expected {n_slow + p * n_fast}")
        return cls(x[:n_slow].copy(), x[n_slow:].reshape(p, n_fast).copy())


def interp_slow(q_slow_k, q_slow_next, grid: TimeGrid, m: int):
    """Linearly interpolated slow configuration at micro node m."""
    p = grid.micro_per_macro
    if not 0 <= m <= p:
        raise ValueError(f"micro index m={m} outside [0, {p}]")
    q0 = np.asarray(q_slow_k, dtype=float)
    q1 = np.asarray(q_slow_next, dtype=float)
    return q0 + (m / p) * (q1 - q0)


def _branches(alpha: float, gamma: float):
    """Quadrature branches as (weight, left-node coefficient) pairs.

    gamma = 1/2 collapses the two affine points onto the interval midpoint;
    alpha in {0, 1} drops the zero-weight branch.
    """
    if gamma == 0.5:
        return ((1.0, 0.5),)
    out = []
    if alpha != 0.0:
        out.append((alpha, gamma))
    if alpha != 1.0:
        out.append((1.0 - alpha, 1.0 - gamma))
    return tuple(out)


def _left_weight(alpha: float, gamma: float) -> float:
    """Total weight of the left node in a trapezoidal-family rule (gamma in {0, 1})."""
    return alpha * gamma + (1.0 - alpha) * (1.0 - gamma)


def _slow_coeffs(u_l: float, m: int, p: int) -> tuple[float, float]:
    """Coefficients (c0, c1) of the macro nodes in the slow evaluation point."""
    c1 = u_l * (m / p) + (1.0 - u_l) * ((m + 1) / p)
    return 1.0 - c1, c1


def _check_finite(values, intervals: np.ndarray, what: str):
    """Raise naming the micro interval of the first point with a non-finite value.

    ``values`` hold one row per point, points ordered batch-major over a
    trailing term axis of length ``intervals.size``; ``intervals[t]`` is the
    micro interval of term t.
    """
    # a sum is finite only if every entry is; one that overflowed is
    # looked into and passes
    if all(math.isfinite(a.sum()) for a in values):
        return
    bad = np.zeros(values[0].shape[0], dtype=bool)
    for a in values:
        bad |= ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    if bad.any():
        m = int(intervals[int(np.argmax(bad)) % intervals.size])
        raise EvaluationError(f"non-finite {what} at micro interval {m}", node_index=m)


def _slow_gradients(sys: MultirateSystem, intervals: np.ndarray, qs, qf):
    """Slow-potential gradients ``(g_s, g_f)`` at slow and fast points of
    shape (..., k, n_slow) and (..., k, n_fast), k being ``intervals.size``,
    in one :meth:`MultirateSystem.evaluate_batch` call; a non-finite one
    raises naming its micro interval (:func:`_check_finite`)."""
    lead = qs.shape[:-1]
    g_s, g_f = sys.evaluate_batch("slow_potential_grad", _rows(qs), _rows(qf))
    _check_finite((g_s, g_f), intervals, "slow-potential gradient")
    return g_s.reshape(lead + (sys.n_slow,)), g_f.reshape(lead + (sys.n_fast,))


def _fast_gradients(sys: MultirateSystem, intervals: np.ndarray, qf):
    """Fast-potential gradients at points of shape (..., k, n_fast), as
    :func:`_slow_gradients`."""
    g = sys.evaluate_batch("fast_potential_grad", _rows(qf))
    _check_finite((g,), intervals, "fast-potential gradient")
    return g.reshape(qf.shape)


class _Terms:
    """Quadrature terms of one potential on a macro interval, as arrays.

    Term t evaluates the potential at ``gather[t] @ fast`` (fast nodes of
    shape (p+1, n_fast)) on micro interval ``m[t]`` with weight ``w[t]``.
    Where every term's point is a node (trapezoidal-family rules),
    ``node[t]`` is that node, else ``node`` is None; ``at_end`` tells
    whether a term's point is node p.
    ``left``/``right`` (p, k) carry ``w*u_l``/``w*u_r`` to the left and right
    node of each micro interval; ``equations`` (p, k) carries them to the
    fast equations of nodes 0..p-1 of the DEL step: equation i takes the
    left weights of interval i plus the right weights of interval i-1.
    ``second`` (3, k, 1, 1) holds each term's
    weights ``w*u_l*u_l``, ``w*u_l*u_r`` and ``w*u_r*u_r`` of the Hessian
    blocks of its interval.

    Second derivatives are summed per micro interval (:meth:`interval_sums`).
    On the micro grid every interval carries the same b terms, ordered
    interval-major, so the weighted Hessians form a (p, b) grid summed over
    b, for b = 1 already the result.  Otherwise (slow potential at the macro
    nodes only: terms on the first and last interval) each term is added to
    its own interval; no term without a point of its own enters a sum.
    """

    def __init__(self, m, w, u_l, p: int):
        self.m = np.asarray(m, dtype=int)
        self.w = w = np.asarray(w, dtype=float)
        u_l = np.asarray(u_l, dtype=float)
        u_r = 1.0 - u_l
        rows = np.arange(self.m.size)
        self.gather = np.zeros((self.m.size, p + 1))
        self.gather[rows, self.m] = u_l
        self.gather[rows, self.m + 1] = u_r
        onto = np.zeros((p, self.m.size))
        onto[self.m, rows] = w
        self.left = onto * u_l
        self.right = onto * u_r
        # a term's left and right weight go to different rows: no sum rounds
        self.equations = self.left.copy()
        self.equations[1:] += self.right[:-1]
        self.second = np.stack([w * u_l * u_l, w * u_l * u_r, w * u_r * u_r])[..., None, None]
        on_node = (u_l == 0.0) | (u_l == 1.0)
        self.node = self.m + (u_l == 0.0) if on_node.all() else None
        self.at_end = self.node is not None and bool((self.node == p).any())
        self.p = p
        # terms per interval where every interval has the same ones, else None
        b = self.m.size // p
        self.per_interval = b if np.array_equal(self.m, np.repeat(np.arange(p), b)) else None

    def interval_sums(self, c: np.ndarray, H: np.ndarray) -> np.ndarray:
        """Sum of ``c[r, t] * H[t]`` over the terms t of each micro interval:
        weight rows ``c`` (r, k, 1, 1) and Hessians ``H`` (k, a, b) give
        (r, p, a, b)."""
        prod = c * H
        b = self.per_interval
        if b == 1:
            return prod
        if b is not None:
            return prod.reshape((c.shape[0], self.p, b) + H.shape[1:]).sum(axis=2)
        out = np.zeros((c.shape[0], self.p) + H.shape[1:])
        for t, m in enumerate(self.m):
            out[:, m] += prod[:, t]
        return out


class _IntervalKernel:
    """Batched quadrature sums of one macro interval for fixed (quad, dT, p).

    The slow potential V is evaluated at the terms of ``V`` with slow point
    ``c0 * q_s_k + c1 * q_s_next`` (``c0``, ``c1`` as (k, 1) columns), the
    fast potential W at the terms of ``W``.  Each potential's gradients (or Hessians) are requested once per
    batch of points through :meth:`MultirateSystem.evaluate_batch`.

    ``shared`` tells whether V and W evaluate at the same fast points with
    the same weights, as the midpoint-midpoint rule does.  Then the points
    are gathered once, both callbacks receive that one array, and the fast
    equations scatter g_fV + g_W with a single product (:meth:`fast_forces`).
    """

    def __init__(self, quad: QuadratureSpec, dT: float, p: int):
        self.p = p
        self.dT = dT
        self.dt = dT / p
        if quad.slow_placement is SlowPlacement.MACRO_NODES_ONLY:
            v_terms = []
            if quad.alpha_V != 0.0:
                v_terms.append((0, dT * quad.alpha_V, 1.0, 0.0, 1.0))
            if quad.alpha_V != 1.0:
                v_terms.append((p - 1, dT * (1.0 - quad.alpha_V), 0.0, 1.0, 0.0))
        else:
            v_terms = [(m, self.dt * w, *_slow_coeffs(u_l, m, p), u_l)
                       for m in range(p) for w, u_l in _branches(quad.alpha_V, quad.gamma_V)]
        m, w, c0, c1, u_l = (np.array(col) for col in zip(*v_terms))
        self.V = _Terms(m, w, u_l, p)
        self.c0, self.c1 = c0[:, None], c1[:, None]
        self.w_c0, self.w_c1, self.w_c0c1 = w * c0, w * c1, w * c0 * c1
        # weights of H_sf per term: rows 0 and 2 couple the slow equation to
        # the right and the left node of the term's interval, rows 1 and 3
        # the equations of its left and right node to the next slow node
        u_r = 1.0 - u_l
        self.border = np.stack([self.w_c0 * u_r, self.w_c1 * u_l, self.w_c0 * u_l,
                                self.w_c1 * u_r])[..., None, None]
        w_terms = [(m, self.dt * w, u_l)
                   for m in range(p) for w, u_l in _branches(quad.alpha_W, quad.gamma_W)]
        self.W = _Terms(*zip(*w_terms), p)
        self.shared = (np.array_equal(self.V.gather, self.W.gather)
                       and np.array_equal(self.V.equations, self.W.equations))

    def points(self, q0, q1, fast):
        """Slow and fast quadrature points ``(Qs, QfV, QfW)``; arguments may
        carry leading batch axes.  QfW is QfV itself where ``shared``."""
        Qs = self.c0 * q0[..., None, :] + self.c1 * q1[..., None, :]
        QfV = self.V.gather @ fast
        return Qs, QfV, QfV if self.shared else self.W.gather @ fast

    def momenta(self, q0, q1, fast, sys: MultirateSystem):
        """Discrete momenta ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)``.

        ``q0``/``q1`` have shape (..., n_slow) and ``fast`` (..., p+1, n_fast);
        leading axes index independent intervals, whose points all go to the
        callbacks in one batch.
        """
        return self.momenta_from(q0, q1, fast, sys, *self.gradients(q0, q1, fast, sys))

    def gradients(self, q0, q1, fast, sys: MultirateSystem):
        """Potential gradients ``(g_s, g_fV, g_W)`` at the quadrature points,
        of shape (..., k, n) with the terms of ``V`` resp. ``W`` on axis -2.
        Both callbacks run before one sum tests all gradients for
        finiteness; a non-finite one raises naming its micro interval, slow
        before fast (:func:`_check_finite`)."""
        Qs, QfV, QfW = self.points(q0, q1, fast)
        g_s, g_fV = sys.evaluate_batch("slow_potential_grad", _rows(Qs), _rows(QfV))
        g_W = sys.evaluate_batch("fast_potential_grad", _rows(QfW))
        # a sum is finite only if every entry is (see _check_finite)
        if not math.isfinite(g_s.sum() + g_fV.sum() + g_W.sum()):
            _check_finite((g_s, g_fV), self.V.m, "slow-potential gradient")
            _check_finite((g_W,), self.W.m, "fast-potential gradient")
        return g_s.reshape(Qs.shape), g_fV.reshape(QfV.shape), g_W.reshape(QfW.shape)

    def kinetic_momenta(self, q0, q1, fast, sys: MultirateSystem):
        """Mass times the difference quotients: slow (..., n_slow) over the
        macro interval, fast (..., p, n_fast) over each micro interval."""
        # one vector-matrix product per interval, as for a single interval,
        # so that a point's momenta do not depend on the batch it comes in
        Mv_s = (((q1 - q0) / self.dT)[..., None, :] @ sys.mass_slow.T)[..., 0, :]
        Mv_f = ((fast[..., 1:, :] - fast[..., :-1, :]) / self.dt) @ sys.mass_fast.T
        return Mv_s, Mv_f

    def fast_forces(self, g_fV, g_W):
        """Weighted gradient sums of the fast equations of nodes 0..p-1,
        (..., p, n_fast): ``equations`` of V and W applied to the gradients,
        in one product where the two share their points (``shared``)."""
        if self.shared:
            return self.V.equations @ (g_fV + g_W)
        return self.V.equations @ g_fV + self.W.equations @ g_W

    def momenta_from(self, q0, q1, fast, sys: MultirateSystem, g_s, g_fV, g_W):
        """Discrete momenta as :meth:`momenta`, from the gradients at the
        quadrature points (as :meth:`gradients` returns them)."""
        Mv_s, Mv_f = self.kinetic_momenta(q0, q1, fast, sys)
        return (Mv_s + self.w_c0 @ g_s,
                Mv_s - self.w_c1 @ g_s,
                Mv_f + (self.V.left @ g_fV + self.W.left @ g_W),
                Mv_f - (self.V.right @ g_fV + self.W.right @ g_W))

    def hessian_blocks(self, q0, q1, fast, sys: MultirateSystem):
        """Potential second-derivative sums of one interval, for the Newton Jacobian.

        Returns ``(ss, border, ff)``: ``ss`` = sum of w*c0*c1*H_ss;
        ``border[0, j-1]`` (n_slow, n_fast) couples the slow equation to fast
        node j = 1..p, ``border[1, i]`` the equation of fast node i = 0..p-1
        to the next slow node (to be transposed); ``ff`` (3, p, n_fast,
        n_fast) holds the left-left, left-right and right-right blocks of
        each micro interval.  Every block is a sum over the terms of one
        micro interval (:meth:`_Terms.interval_sums`); a fast node's border
        block adds the sums of the two intervals it bounds.  A non-finite
        Hessian raises :class:`~multirate.errors.EvaluationError` naming its
        micro interval.
        """
        Qs, QfV, QfW = self.points(q0, q1, fast)
        H_ss, H_sf, H_ff = sys.evaluate_batch("slow_potential_hessian", Qs, QfV)
        H_W = sys.evaluate_batch("fast_potential_hessian", QfW)
        # a sum is finite only if every entry is (see _check_finite)
        if not math.isfinite(H_ss.sum() + H_sf.sum() + H_ff.sum() + H_W.sum()):
            _check_finite((H_ss, H_sf, H_ff), self.V.m, "slow-potential Hessian")
            _check_finite((H_W,), self.W.m, "fast-potential Hessian")
        k = H_ss.shape[0]
        ss = (self.w_c0c1 @ H_ss.reshape(k, math.prod(H_ss.shape[1:]))).reshape(H_ss.shape[1:])
        # few and small temporaries: the shifted border halves apart, the
        # fast potential's terms after the slow potential's Hessians are
        # released.  A large step's build then stays within memory the
        # allocator has mapped already (FPU chain, l=30, p=50: 230-480 minor
        # page faults per build, 650-950 with whole-array temporaries)
        border = self.V.interval_sums(self.border[:2], H_sf)
        shifted = self.V.interval_sums(self.border[2:], H_sf)
        border[0, :-1] += shifted[0, 1:]
        border[1, 1:] += shifted[1, :-1]
        del shifted
        ff = self.V.interval_sums(self.V.second, H_ff)
        del H_ss, H_sf, H_ff
        ff += self.W.interval_sums(self.W.second, H_W)
        return ss, border, ff


def _rows(a: np.ndarray) -> np.ndarray:
    """Stack all leading axes into one row axis; a 2-D array is returned as it is."""
    if a.ndim == 2:
        return a
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


@functools.lru_cache(maxsize=64)
def _kernel(quad: QuadratureSpec, dT: float, p: int) -> _IntervalKernel:
    return _IntervalKernel(quad, dT, p)


def interval_kernel(quad: QuadratureSpec, grid: TimeGrid) -> _IntervalKernel:
    """Quadrature kernel of one macro interval, cached per (quad, dT, p)."""
    return _kernel(quad, grid.dT, grid.micro_per_macro)


# ---------------------------------------------------------------------------
# scalar energies


def discrete_kinetic(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                     grid: TimeGrid) -> float:
    """Discrete kinetic energy of one macro interval.

    Slow velocity is the macro difference quotient, fast velocities the micro
    difference quotients; both are constant per (macro resp. micro) interval.
    """
    q0 = np.asarray(q_slow_k, dtype=float)
    q1 = np.asarray(q_slow_next, dtype=float)
    fast = np.asarray(fast_nodes, dtype=float)
    p = grid.micro_per_macro
    if fast.shape != (p + 1, sys.n_fast):
        raise ValueError(f"fast_nodes must have shape {(p + 1, sys.n_fast)}, got {fast.shape}")
    if q0.shape != (sys.n_slow,) or q1.shape != (sys.n_slow,):
        raise ValueError("slow configuration dimension mismatch")
    v_s = (q1 - q0) / grid.dT
    total = 0.5 * grid.dT * float(v_s @ (sys.mass_slow @ v_s))
    dt = grid.dt
    for m in range(p):
        v_f = (fast[m + 1] - fast[m]) / dt
        total += 0.5 * dt * float(v_f @ (sys.mass_fast @ v_f))
    return total


def _slow_potential_terms(q_slow_k, q_slow_next, fast_nodes, sys, quad, grid):
    """(micro interval, weighted value) of every slow-potential term."""
    kern = interval_kernel(quad, grid)
    Qs, QfV, _ = kern.points(np.asarray(q_slow_k, dtype=float),
                             np.asarray(q_slow_next, dtype=float),
                             np.asarray(fast_nodes, dtype=float))
    return [(m, w * float(sys.slow_potential(qs, qf)))
            for m, w, qs, qf in zip(kern.V.m, kern.V.w, Qs, QfV)]


def _fast_potential_terms(fast_nodes, sys, quad, grid):
    """(micro interval, weighted value) of every fast-potential term."""
    kern = interval_kernel(quad, grid)
    QfW = kern.W.gather @ np.asarray(fast_nodes, dtype=float)
    return [(m, w * float(sys.fast_potential(qf))) for m, w, qf in zip(kern.W.m, kern.W.w, QfW)]


def discrete_slow_potential(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                            quad: QuadratureSpec, grid: TimeGrid) -> float:
    """Quadrature approximation of the slow-potential action contribution."""
    return sum(val for _, val in _slow_potential_terms(q_slow_k, q_slow_next, fast_nodes,
                                                       sys, quad, grid))


def discrete_fast_potential(fast_nodes, sys: MultirateSystem, quad: QuadratureSpec,
                            grid: TimeGrid) -> float:
    """Quadrature approximation of the fast-potential action contribution."""
    return sum(val for _, val in _fast_potential_terms(fast_nodes, sys, quad, grid))


def discrete_lagrangian(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                        quad: QuadratureSpec, grid: TimeGrid) -> float:
    """Discrete Lagrangian T_d - V_d - W_d of one macro interval."""
    return (
        discrete_kinetic(q_slow_k, q_slow_next, fast_nodes, sys, grid)
        - discrete_slow_potential(q_slow_k, q_slow_next, fast_nodes, sys, quad, grid)
        - discrete_fast_potential(fast_nodes, sys, quad, grid)
    )


def discrete_lagrangian_micro(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                              quad: QuadratureSpec, grid: TimeGrid, m: int) -> float:
    """Contribution of micro interval m; these sum to the full discrete Lagrangian.

    The slow kinetic term is split evenly over the p micro intervals.
    """
    q0 = np.asarray(q_slow_k, dtype=float)
    q1 = np.asarray(q_slow_next, dtype=float)
    fast = np.asarray(fast_nodes, dtype=float)
    p = grid.micro_per_macro
    if not 0 <= m < p:
        raise ValueError(f"micro interval m={m} outside [0, {p})")
    dt = grid.dt
    v_s = (q1 - q0) / grid.dT
    v_f = (fast[m + 1] - fast[m]) / dt
    val = 0.5 * dt * float(v_s @ (sys.mass_slow @ v_s))
    val += 0.5 * dt * float(v_f @ (sys.mass_fast @ v_f))
    for mm, term in _slow_potential_terms(q0, q1, fast, sys, quad, grid):
        if mm == m:
            val -= term
    for mm, term in _fast_potential_terms(fast, sys, quad, grid):
        if mm == m:
            val -= term
    return val


# ---------------------------------------------------------------------------
# momenta and gradients (closed form)


@dataclass
class IntervalMomenta:
    """Discrete momenta of one macro interval.

    ``p_f_minus[m]`` is the left discrete fast momentum at micro node m
    (m = 0..p-1), ``p_f_plus[m]`` the right discrete fast momentum at micro
    node m+1 (m = 0..p-1), both defined through the per-micro-interval
    Lagrangian contributions.
    """

    p_s_minus: np.ndarray
    p_s_plus: np.ndarray
    p_f_minus: np.ndarray
    p_f_plus: np.ndarray


def interval_momenta(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                     quad: QuadratureSpec, grid: TimeGrid) -> IntervalMomenta:
    """Closed-form discrete momenta of one macro interval."""
    return IntervalMomenta(*interval_kernel(quad, grid).momenta(
        np.asarray(q_slow_k, dtype=float), np.asarray(q_slow_next, dtype=float),
        np.asarray(fast_nodes, dtype=float), sys))


def grad_discrete_lagrangian(q_slow_k, q_slow_next, fast_nodes, sys: MultirateSystem,
                             quad: QuadratureSpec, grid: TimeGrid):
    """Closed-form partial derivatives of the discrete Lagrangian.

    Returns ``(g_s0, g_s1, g_f)`` where ``g_s0``/``g_s1`` are the derivatives
    with respect to the slow configuration at the interval start/end and
    ``g_f`` has shape (p+1, n_fast) with the derivative per fast micro node.
    These are the discrete Legendre transforms read backwards: ``-p_minus``
    at the left end of each (macro or micro) interval, ``p_plus`` at the
    right end.
    """
    mom = interval_momenta(q_slow_k, q_slow_next, fast_nodes, sys, quad, grid)
    g_f = np.zeros((grid.micro_per_macro + 1, sys.n_fast))
    g_f[:-1] -= mom.p_f_minus
    g_f[1:] += mom.p_f_plus
    return -mom.p_s_minus, mom.p_s_plus, g_f
