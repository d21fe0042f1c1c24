"""Discrete Lagrangian ingredients on the two-level grid.

The action over one macro interval is approximated by a discrete Lagrangian
``L_d = T_d - V_d - W_d`` built from linear interpolation of the slow
variables between macro nodes, piecewise-linear fast variables on the micro
grid, and affine quadrature rules per potential (see
:class:`multirate.model.QuadratureSpec`).  The library evaluates only the
derivatives of L_d; the tests difference the scalar L_d to check them.

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
Hessians per micro interval.  The discrete momenta, the DEL residual and
the Newton Jacobian of :mod:`multirate.solver`, and through the DEL
residual the p/q maps of :mod:`multirate.schemes`, all derive from it.
Where both potentials place their fast points alike (midpoint-midpoint),
one set of points and one scatter serve both.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, TimeGrid

__all__ = [
    "IntervalMomenta",
    "interval_momenta",
]


def _branches(alpha: float, gamma: float):
    """Quadrature branches as (weight, left-node coefficient) pairs.

    gamma = 1/2 collapses the two affine points onto the interval midpoint;
    alpha in {0, 1} drops the zero-weight branch.  A gamma = 0 rule is
    written as the gamma = 1 rule with the same left-node weight, so a
    rule's left-node branch comes first and both encodings of a
    trapezoidal-family rule give the same terms.
    """
    if gamma == 0.5:
        return ((1.0, 0.5),)
    if gamma == 0.0:
        alpha, gamma = _left_weight(alpha, gamma), 1.0
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


def _finite(*arrays: np.ndarray) -> bool:
    """True only if every entry of ``arrays`` is finite: an inf or NaN makes
    the sum of the squares of a contiguous array's entries (one dot product,
    a third of the cost of ``ndarray.sum`` on a few dozen entries), or of
    the entries of another array, inf or NaN.  False may also mean overflow,
    so the caller then looks into the entries (:func:`_check_finite`)."""
    total = 0.0
    for a in arrays:
        if a.flags.c_contiguous:
            a = a.ravel()
            total += a.dot(a)
        else:
            total += np.add.reduce(a, axis=None)
    return math.isfinite(total)


def _check_finite(values, intervals: np.ndarray, what: str):
    """Raise naming the micro interval of the first point with a non-finite value.

    ``values`` hold one row per point, points ordered batch-major over a
    trailing term axis of length ``intervals.size``; ``intervals[t]`` is the
    micro interval of term t.
    """
    # one that overflowed is looked into and passes
    if _finite(*values):
        return
    bad = np.zeros(values[0].shape[0], dtype=bool)
    for a in values:
        bad |= ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    if bad.any():
        m = int(intervals[int(np.argmax(bad)) % intervals.size])
        raise EvaluationError(f"non-finite {what} at micro interval {m}", node_index=m)


class _Workspace:
    """Arrays that a sequence of Newton matrix builds writes into, by name.

    ``ws(name, shape)`` returns the array kept under ``name``, allocated
    only where it is missing or has another shape; its contents are what
    the last build left there.  Reusing the arrays keeps a large build from
    taking fresh megabytes, page by page, from the system.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = np.empty(shape)
        return a

    def zeros(self, name: str, shape: tuple) -> np.ndarray:
        """As a call, but zero-filled where the array is allocated."""
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = np.zeros(shape)
        return a

    def rows(self, name: str, a: np.ndarray, index) -> np.ndarray:
        """``a[index]`` for an ``index`` from :func:`_distinct`: ``a`` itself
        where it holds every row, a view that repeats its one row where it
        holds one, else a copy.  The view is made once per array ``a`` and
        kept under ``name``: a small build would otherwise spend a few
        microseconds on it."""
        if len(a) == len(index):
            return a
        if len(a) > 1:
            return a[index]
        v = self._arrays.get(name)
        if v is None or v.base is not a:
            v = self._arrays[name] = np.ndarray((len(index),) + a.shape[1:], a.dtype, a,
                                                strides=(0,) + a.strides[1:])
        return v


def _distinct(rows: np.ndarray):
    """``(distinct, index)``: the distinct rows of ``rows`` (r, k), bit for
    bit, in order of first appearance, as (d, k, 1, 1) weight rows; and for
    each row the position of its equal among them."""
    keys = [r.tobytes() for r in rows]
    first = list(dict.fromkeys(keys))
    return rows[[keys.index(k) for k in first]][..., None, None], [first.index(k) for k in keys]


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
    ``second`` (3, k) holds each term's weights ``w*u_l*u_l``, ``w*u_l*u_r``
    and ``w*u_r*u_r`` of the Hessian blocks of its interval.

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
        self.second = np.stack([w * u_l * u_l, w * u_l * u_r, w * u_r * u_r])
        on_node = (u_l == 0.0) | (u_l == 1.0)
        self.node = self.m + (u_l == 0.0) if on_node.all() else None
        self.at_end = self.node is not None and bool((self.node == p).any())
        self.p = p
        # terms per interval where every interval has the same ones, else None
        b = self.m.size // p
        self.per_interval = b if np.array_equal(self.m, np.repeat(np.arange(p), b)) else None

    def interval_sums(self, c: np.ndarray, H: np.ndarray, ws: _Workspace, name: str) -> np.ndarray:
        """Sum of ``c[r, t] * H[t]`` over the terms t of each micro interval,
        written into the workspace array ``name``: weight rows ``c``
        (r, k, 1, 1) and Hessians ``H`` (k, a, b) give (r, p, a, b)."""
        out = ws(name, (c.shape[0], self.p) + H.shape[1:])
        b = self.per_interval
        if b == 1:
            return np.multiply(c, H, out=out)
        prod = np.multiply(c, H, out=ws(name + " terms", c.shape[:2] + H.shape[1:]))
        if b is not None:
            return np.sum(prod.reshape(out.shape[:2] + (b,) + H.shape[1:]), axis=2, out=out)
        out[...] = 0.0
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
        w_terms = [(m, self.dt * w, u_l)
                   for m in range(p) for w, u_l in _branches(quad.alpha_W, quad.gamma_W)]
        self.W = _Terms(*zip(*w_terms), p)
        # The Hessian weights, each distinct row summed once: of H_sf per
        # term, rows 0 and 2 couple the slow equation to the right and the
        # left node of the term's interval, rows 1 and 3 the equations of
        # its left and right node to the next slow node; of H_ff and H_W the
        # left-left, left-right and right-right rows of ``second``.  Under a
        # midpoint rule (u_l = u_r) rows 2 and 3 repeat rows 0 and 1, and
        # the three fast rows are one.
        u_r = 1.0 - u_l
        self.border, self.border_rows = _distinct(np.stack(
            [self.w_c0 * u_r, self.w_c1 * u_l, self.w_c0 * u_l, self.w_c1 * u_r]))
        k_V = self.V.m.size
        second, self.ff_rows = _distinct(np.hstack([self.V.second, self.W.second]))
        self.ff_V, self.ff_W = second[:, :k_V], second[:, k_V:]
        self.shared = (np.array_equal(self.V.gather, self.W.gather)
                       and np.array_equal(self.V.equations, self.W.equations))
        # Constants of the explicit recurrence, read only for explicit-solvable
        # rules (slow potential at the macro nodes, trapezoidal-family W): the
        # weights of the slow and of the fast gradient at node 0 in its kicks,
        # and whether V's one term sits at node 0 and W's term m at node m, so
        # that the node gradients serve as the term gradients.
        self.kick_V = dT * quad.alpha_V
        self.kick_W = self.dt * _left_weight(quad.alpha_W, quad.gamma_W)
        self.node_terms = (np.array_equal(self.V.node, [0])
                           and np.array_equal(self.W.node, np.arange(p)))
        # The weights of the four momenta with the gradient each applies to (0:
        # g_s, 1: g_fV, 2: g_W), less the all-zero ones: they add only zeros.
        self.momentum_terms = [[(a, i) for a, i in terms if a.any()] for terms in (
            [(self.w_c0, 0)], [(self.w_c1, 0)], [(self.V.left, 1), (self.W.left, 2)],
            [(self.V.right, 1), (self.W.right, 2)])]

    def start_points(self, q0):
        """The start node's share ``c0 * q0`` of the slow quadrature points,
        (..., k, n_slow): the same for every iterate of one step."""
        return self.c0 * q0[..., None, :]

    def points(self, q0, q1, fast, start=None):
        """Slow and fast quadrature points ``(Qs, QfV, QfW)``; arguments may
        carry leading batch axes.  QfW is QfV itself where ``shared``.
        ``start`` is :meth:`start_points` of q0 where the caller keeps it."""
        Qs = (self.start_points(q0) if start is None else start) + self.c1 * q1[..., None, :]
        QfV = self.V.gather @ fast
        return Qs, QfV, QfV if self.shared else self.W.gather @ fast

    def momenta(self, q0, q1, fast, sys: MultirateSystem):
        """Discrete momenta ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)``.

        ``q0``/``q1`` have shape (..., n_slow) and ``fast`` (..., p+1, n_fast);
        leading axes index independent intervals, whose points all go to the
        callbacks in one batch.
        """
        return self.momenta_from(q0, q1, fast, sys,
                                 *self.gradients(self.points(q0, q1, fast), sys))

    def gradients(self, points, sys: MultirateSystem):
        """Potential gradients ``(g_s, g_fV, g_W)`` at the quadrature points
        ``points`` (as :meth:`points` returns them), of shape (..., k, n)
        with the terms of ``V`` resp. ``W`` on axis -2.  Both callbacks run
        before one test of all gradients for finiteness (:func:`_finite`);
        a non-finite one raises naming its micro interval, slow before fast
        (:func:`_check_finite`)."""
        Qs, QfV, QfW = points
        g_s, g_fV = sys.evaluate_batch("slow_potential_grad", _rows(Qs), _rows(QfV))
        g_W = sys.evaluate_batch("fast_potential_grad", _rows(QfW))
        if not _finite(g_s, g_fV, g_W):
            _check_finite((g_s, g_fV), self.V.m, "slow-potential gradient")
            _check_finite((g_W,), self.W.m, "fast-potential gradient")
        if Qs.ndim == 2:
            return g_s, g_fV, g_W
        return g_s.reshape(Qs.shape), g_fV.reshape(QfV.shape), g_W.reshape(QfW.shape)

    def kinetic_momenta(self, q0, q1, fast, sys: MultirateSystem, out=None):
        """Mass times the difference quotients: slow (..., n_slow) over the
        macro interval, fast (..., p, n_fast) over each micro interval,
        written into ``out`` where given."""
        # one vector-matrix product per interval, as for a single interval,
        # so that a point's momenta do not depend on the batch it comes in
        Mv_s = (((q1 - q0) / self.dT)[..., None, :] @ sys.mass_slow.T)[..., 0, :]
        Mv_f = np.matmul((fast[..., 1:, :] - fast[..., :-1, :]) / self.dt, sys.mass_fast.T,
                         out=out)
        return Mv_s, Mv_f

    def fast_forces(self, g_fV, g_W):
        """Weighted gradient sums of the fast equations of nodes 0..p-1,
        (..., p, n_fast): ``equations`` of V and W applied to the gradients,
        in one product where the two share their points (``shared``)."""
        if self.shared:
            return self.V.equations @ (g_fV + g_W)
        return self.V.equations @ g_fV + self.W.equations @ g_W

    def momenta_from(self, q0, q1, fast, sys: MultirateSystem, g_s, g_fV, g_W, kinetic=None):
        """Discrete momenta as :meth:`momenta`, from the gradients at the
        quadrature points (as :meth:`gradients` returns them); ``kinetic``
        is :meth:`kinetic_momenta` at these nodes where the caller has it.
        A momentum whose weights are all zero (:attr:`momentum_terms`) is
        the kinetic momentum array itself."""
        Mv_s, Mv_f = self.kinetic_momenta(q0, q1, fast, sys) if kinetic is None else kinetic
        g = (g_s, g_fV, g_W)
        s0, s1, f0, f1 = [_weighted_sum(terms, g) for terms in self.momentum_terms]
        return (Mv_s if s0 is None else Mv_s + s0,
                Mv_s if s1 is None else Mv_s - s1,
                Mv_f if f0 is None else Mv_f + f0,
                Mv_f if f1 is None else Mv_f - f1)

    def hessian_blocks(self, q0, q1, fast, sys: MultirateSystem, ws: _Workspace | None = None):
        """Potential second-derivative sums of one interval, for the Newton Jacobian.

        Returns ``(ss, border, ff)``: ``ss`` = sum of w*c0*c1*H_ss;
        ``border[0, j-1]`` (n_slow, n_fast) couples the slow equation to fast
        node j = 1..p, ``border[1, i]`` the equation of fast node i = 0..p-1
        to the next slow node (to be transposed); ``ff`` (3, p, n_fast,
        n_fast) holds the left-left, left-right and right-right blocks of
        each micro interval.  Every block is a sum over the terms of one
        micro interval (:meth:`_Terms.interval_sums`), computed once per
        distinct weight row; ``ff`` hands out repeated rows from that one
        sum (:meth:`_Workspace.rows`).  A fast node's border block adds the
        sums of the two intervals it bounds.  A non-finite Hessian raises
        :class:`~multirate.errors.EvaluationError` naming its micro interval.

        The results are written into arrays of the workspace ``ws`` (a new
        one by default), which the next call with it overwrites; the arrays
        that the Hessian callbacks return are only read.
        """
        ws = _Workspace() if ws is None else ws
        Qs, QfV, QfW = self.points(q0, q1, fast)
        H_ss, H_sf, H_ff = sys.evaluate_batch("slow_potential_hessian", Qs, QfV)
        H_W = sys.evaluate_batch("fast_potential_hessian", QfW)
        k = H_ss.shape[0]
        # the terms' H_ss side by side, for one vector-matrix product
        H = ws("H_ss", H_ss.shape)
        H[...] = H_ss
        if not _finite(H, H_sf, H_ff, H_W):
            _check_finite((H_ss, H_sf, H_ff), self.V.m, "slow-potential Hessian")
            _check_finite((H_W,), self.W.m, "fast-potential Hessian")
        ss = (self.w_c0c1 @ H.reshape(k, -1)).reshape(H_ss.shape[1:])
        sums = self.V.interval_sums(self.border, H_sf, ws, "border sums")
        s0, s1, s2, s3 = (sums[j] for j in self.border_rows)
        border = ws("border", (2,) + sums.shape[1:])
        np.add(s0[:-1], s2[1:], out=border[0, :-1])
        border[0, -1] = s0[-1]
        border[1, 0] = s1[0]
        np.add(s1[1:], s3[:-1], out=border[1, 1:])
        ff = self.V.interval_sums(self.ff_V, H_ff, ws, "ff")
        ff += self.W.interval_sums(self.ff_W, H_W, ws, "ff W")
        return ss, border, ws.rows("ff rows", ff, self.ff_rows)


def _weighted_sum(terms, g):
    """Sum of ``a @ g[i]`` over the (weights a, gradient index i) of
    ``terms``, in their order; None where there is no term."""
    s = None
    for a, i in terms:
        s = a @ g[i] if s is None else s + a @ g[i]
    return s


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
# momenta of one interval


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
