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
one set of points and one scatter serve both.  A small DEL step uses the
same terms as fixed maps (:class:`_StepMaps`): one product of the unknowns
gives the points, one product of the gradients the residual, and fixed
indices scatter each term's Hessian block into the Newton matrix.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .model import MultirateSystem, QuadratureSpec, SlowPlacement, State, TimeGrid

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
    uninitialized only where it is missing or has another shape; its
    contents are what the last build left there.  Reusing the arrays keeps
    a large build from taking fresh megabytes, page by page, from the
    system.  Only the block builds of large steps use one: a small step's
    Newton matrix is one fresh ``np.bincount`` (:meth:`_DenseStep.matrix`).
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = np.empty(shape)
        return a


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
        # contiguous: numpy rounds products with row-strided views otherwise
        g_s, g_fV = map(np.ascontiguousarray,
                        sys.evaluate_batch("slow_potential_grad", _rows(Qs), _rows(QfV)))
        g_W = np.ascontiguousarray(sys.evaluate_batch("fast_potential_grad", _rows(QfW)))
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

    def momenta_from(self, q0, q1, fast, sys: MultirateSystem, g_s, g_fV, g_W):
        """Discrete momenta as :meth:`momenta`, from the gradients at the
        quadrature points (as :meth:`gradients` returns them)."""
        Mv_s, Mv_f = self.kinetic_momenta(q0, q1, fast, sys)
        V, W = self.V, self.W
        return (Mv_s + self.w_c0 @ g_s, Mv_s - self.w_c1 @ g_s,
                Mv_f + (V.left @ g_fV + W.left @ g_W), Mv_f - (V.right @ g_fV + W.right @ g_W))

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
        sum, as a read-only view where the three rows are one.  A fast
        node's border block adds the sums of the two intervals it bounds.
        A non-finite Hessian raises
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
        if len(ff) == 1:
            return ss, border, np.broadcast_to(ff, (3,) + ff.shape[1:])
        return ss, border, ff if len(ff) == 3 else ff[self.ff_rows]


def _rows(a: np.ndarray) -> np.ndarray:
    """Stack all leading axes into one row axis; a 2-D array is returned as it is."""
    if a.ndim == 2:
        return a
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


class _StepMaps:
    """The DEL step of one macro interval as fixed linear maps around the
    potential callbacks, for the terms of the kernel ``kern`` and given
    n_slow, n_fast.  No map carries a mass.

    With x the stacked unknowns ``[q1; f_1; ...; f_p]`` (N entries) and z0
    = ``[q0; f_0; p_s0; p_f0]`` the start, ``points @ x + start @ z0`` is z
    = ``[y; d; p_s0; p_f0]``: the quadrature points y = ``[Qs; QfV; QfW]``,
    a row per term, raveled (QfW only where V and W do not share their
    points; ``split`` holds the three lengths), and the node differences d
    = ``[q1 - q0; f_1 - f_0; ...; f_p - f_{p-1}]``.  The residual is
    ``forces @ G``, G = ``[g_s; g_fV; g_W; d; p_s0; p_f0]`` with the
    gradients taken at y: minus the slow weights ``w_c0`` and the equation
    weights of V and W, the kinetic terms of d from the columns
    ``kinetic_cols`` (zero here, they carry the masses) and the start
    momenta in the rows of the slow node and fast node 0 (the record of G:
    :class:`_StepRecord`, which an explicit step makes without these maps).

    The potential part of the Newton matrix, -sum_t S_t H_t P_t, is
    ``coef * h[src]`` summed, term by term in order, into the flat
    positions ``dest`` of the (N, N) matrix (:attr:`scatter`).  h holds
    the terms' Hessian blocks ``H_ss, H_sf, H_ff, H_W`` raveled (and, in
    :class:`_DenseStep`, a final 1 for the kinetic entries).  A term adds at most (n_slow + 2
    n_fast)^2 entries, at the equations and unknowns of its interval, so a
    build costs O(p).
    """

    def __init__(self, kern: _IntervalKernel, n_s: int, n_f: int):
        p, V, W = kern.p, kern.V, kern.W
        k_V, k_W = V.m.size, W.m.size
        self.n_s, self.n_f, self.k_V, self.k_W = n_s, n_f, k_V, k_W
        self.N = N = n_s + p * n_f
        self.shared = kern.shared
        self.split = (k_V * n_s, k_V * n_f, 0 if kern.shared else k_W * n_f)
        M, n_0 = sum(self.split), n_s + n_f
        I_s, I_f = np.eye(n_s), np.eye(n_f)
        at_fV, at_gW = k_V * n_s, k_V * n_0     # g_fV and g_W in the gradients
        at_fW = at_fV if kern.shared else at_gW  # W's points in y
        self.points = np.zeros((M + N + n_0, N))
        self.start = np.zeros((M + N + n_0, 2 * n_0))
        for pot, at in ((V, at_fV),) if kern.shared else ((V, at_fV), (W, at_fW)):
            span = slice(at, at + pot.m.size * n_f)
            self.points[span, n_s:] = np.kron(pot.gather[:, 1:], I_f)
            self.start[span, n_s:n_0] = np.kron(pot.gather[:, :1], I_f)
        self.points[:at_fV, :n_s] = np.kron(kern.c1, I_s)
        self.start[:at_fV, :n_s] = np.kron(kern.c0, I_s)
        self.points[M:M + n_s, :n_s] = I_s
        self.points[M + n_s:M + N, n_s:] = np.kron(np.eye(p) - np.eye(p, k=-1), I_f)
        self.start[M:M + n_0, :n_0] = -np.eye(n_0)
        self.start[M + N:, n_0:] = np.eye(n_0)
        self.kinetic_cols = slice(at_gW + k_W * n_f, at_gW + k_W * n_f + N)
        self.forces = np.zeros((N, self.kinetic_cols.stop + n_0))
        self.forces[:n_s, :at_fV] = np.kron(-kern.w_c0, I_s)
        self.forces[n_s:, at_fV:at_gW] = np.kron(-V.equations, I_f)
        self.forces[n_s:, at_gW:self.kinetic_cols.start] = np.kron(-W.equations, I_f)
        self.forces[:n_0, self.kinetic_cols.stop:] = np.eye(n_0)

        self.h_shapes = [(k_V, n_s, n_s), (k_V, n_s, n_f), (k_V, n_f, n_f), (k_W, n_f, n_f)]
        self.h_at = [0, *itertools.accumulate(math.prod(shape) for shape in self.h_shapes)]

    @functools.cached_property
    def scatter(self):
        """``(src, dest, coef)``, made on first use: a step whose Newton
        matrix is differenced never reads them."""
        n_s, n_f, k_V, k_W, N = self.n_s, self.n_f, self.k_V, self.k_W, self.N
        n_0, at_fV, at_gW = n_s + n_f, k_V * n_s, k_V * (n_s + n_f)
        at_fW = at_fV if self.shared else at_gW
        # each term's gradient entries, point entries and second derivatives
        # as positions in h: of V, the (n_s + n_f)^2 Hessian in the order of
        # its point, H_fs being H_sf transposed; of W, the n_f^2 block
        s, f = np.arange(n_s), np.arange(n_f)
        at_sf, at_ff, at_W = self.h_at[1:-1]
        terms = []
        for t in range(k_V):
            h = np.empty((n_0, n_0), dtype=int)
            h[:n_s, :n_s] = t * n_s * n_s + s[:, None] * n_s + s
            h[:n_s, n_s:] = at_sf + t * n_s * n_f + s[:, None] * n_f + f
            h[n_s:, :n_s] = h[:n_s, n_s:].T
            h[n_s:, n_s:] = at_ff + t * n_f * n_f + f[:, None] * n_f + f
            at = np.concatenate([t * n_s + s, at_fV + t * n_f + f])
            terms.append((at, at, h))
        for t in range(k_W):
            terms.append((at_gW + t * n_f + f, at_fW + t * n_f + f,
                          at_W + t * n_f * n_f + f[:, None] * n_f + f))
        src, dest, coef = [], [], []
        for g_at, y_at, h in terms:
            rows, cols = self.forces[:, g_at], self.points[y_at]
            e, a = np.nonzero(rows)
            b, u = np.nonzero(cols)
            src.append(h[a[:, None], b].ravel())
            dest.append((e[:, None] * N + u).ravel())
            coef.append((rows[e, a][:, None] * cols[b, u]).ravel())
        return tuple(map(np.concatenate, (src, dest, coef)))


@functools.lru_cache(maxsize=64)
def step_maps(kern: _IntervalKernel, n_s: int, n_f: int) -> _StepMaps:
    """The :class:`_StepMaps` of ``kern``, cached per (kernel, n_slow, n_fast)."""
    return _StepMaps(kern, n_s, n_f)


class _StepRecord:
    """The record of a small DEL or explicit step: ``momenta @ G`` is
    ``[p_s-; p_s+; p_f-(0..p-1); p_f+(p-1)]`` for G = ``[g_s; g_fV; g_W; d;
    p_s0; p_f0]`` as in :class:`_StepMaps`: the slow, left and right weights,
    M_s/dT on q1 - q0, M_f/dt on d_m at node m < p and d_{p-1} at p (the
    columns ``d``), and zero on the start momenta."""

    def __init__(self, kern: _IntervalKernel, sys: MultirateSystem):
        self.kern, self.sys = kern, sys
        p, V, W, n_s, n_f = kern.p, kern.V, kern.W, sys.n_slow, sys.n_fast
        at_fV, at_gW = V.m.size * n_s, V.m.size * (n_s + n_f)
        self.d = slice(at_gW + W.m.size * n_f, at_gW + W.m.size * n_f + n_s + p * n_f)
        self.momenta = np.zeros((2 * n_s + (p + 1) * n_f, self.d.stop + n_s + n_f))
        self.momenta[:2 * n_s, :at_fV] = np.kron(np.stack([kern.w_c0, -kern.w_c1]), np.eye(n_s))
        for pot, at in ((V, at_fV), (W, at_gW)):
            self.momenta[2 * n_s:, at:at + pot.m.size * n_f] = np.kron(
                np.vstack([pot.left, -pot.right[-1:]]), np.eye(n_f))
        kinetic = self.momenta[:, self.d]
        kinetic[:2 * n_s, :n_s] = np.vstack([sys.mass_slow, sys.mass_slow]) / kern.dT
        kinetic[2 * n_s:, n_s:] = np.kron(np.eye(p)[np.r_[:p, p - 1]], sys.mass_fast / kern.dt)

    def record_momenta(self, G: np.ndarray):
        """``(p_fast, p_slow)`` in the step record's order: views of ``momenta @ G``."""
        mom, n_s, n_f = self.momenta.dot(G), self.sys.n_slow, self.sys.n_fast
        return mom[2 * n_s:].reshape(self.kern.p + 1, n_f), mom[:2 * n_s].reshape(2, n_s)


class _DenseStep(_StepRecord):
    """A DEL step below ``solver._STRUCTURED_MIN_UNKNOWNS`` unknowns as
    fixed linear maps around the potential callbacks: the kernel's
    :class:`_StepMaps` with the masses of ``sys`` in the kinetic columns of
    ``forces``, -M_s/dT on q1 - q0 in the slow row and -M_f/dt on d_i in
    fast row i, plus it in row i+1.  Written in node differences, the
    kinetic terms keep the accuracy of difference quotients at small steps.
    The Newton matrix is ``A - sum_t S_t H_t P_t``, A the kinetic matrix,
    taken into ``coef`` as the entries at A's nonzeros, first, so that they
    start each position's sum.  Everything that carries a mass is made
    here, once per Newton matrix holder: also the record, of the G that
    :meth:`residual` returns, and the p/q maps' T and |T| (:mod:`multirate.schemes`).
    """

    def __init__(self, kern: _IntervalKernel, sys: MultirateSystem):
        super().__init__(kern, sys)
        self.maps = maps = step_maps(kern, sys.n_slow, sys.n_fast)
        n_s, p, N = sys.n_slow, kern.p, maps.N
        self.forces = maps.forces.copy()
        kinetic = self.forces[:, maps.kinetic_cols]
        kinetic[:n_s, :n_s] = -sys.mass_slow / kern.dT
        kinetic[n_s:, n_s:] = np.kron(np.eye(p, k=-1) - np.eye(p), sys.mass_fast / kern.dt)
        self.T = np.zeros((N, N))
        self.T[:n_s, :n_s] = -kern.dT * sys.mass_slow_inv
        self.T[n_s:, n_s:] = np.kron(np.tri(p), -kern.dt * sys.mass_fast_inv)
        self.abs_T = np.abs(self.T)
        # (start, x, z) of the last residual: Newton builds its matrix at the
        # iterate it has just evaluated, and takes the points from there
        # instead of from a product of O(p^2) work
        self.last = None

    def _shift(self, start: State) -> np.ndarray:
        """``start @ z0``: what the start adds to z."""
        return self.maps.start.dot(np.concatenate(
            (start.q_slow, start.q_fast, start.p_slow, start.p_fast)))

    def residual(self, start: State):
        """:func:`multirate.solver._step_residual` of the step from ``start``: a
        product for z, slices of z, the callbacks, a concatenation, a
        finiteness test and a product for F."""
        maps, kern, forces = self.maps, self.kern, self.forces
        points, N, k_V, k_W, n_s, n_f = maps.points, maps.N, maps.k_V, maps.k_W, maps.n_s, maps.n_f
        a, b, M = itertools.accumulate(maps.split)
        shift = self._shift(start)
        slow, fast = map(self.sys.batch_callable, ("slow_potential_grad", "fast_potential_grad"))

        def residual(x):
            single, n = x.ndim == 1, x.size // N
            z = points.dot(x) if single else (points @ x[..., None])[..., 0]
            z += shift
            QfV = z[..., a:b].reshape(n * k_V, n_f)
            g_s, g_fV = slow(z[..., :a].reshape(n * k_V, n_s), QfV)
            g_W = fast(QfV if maps.shared else z[..., b:M].reshape(n * k_W, n_f))
            if single:
                G = np.concatenate((g_s, g_fV, g_W, z[M:]), axis=None)
                self.last = start, x, z
            else:
                lead = x.shape[:-1]
                G = np.concatenate([g.reshape(lead + (g.size // n,)) for g in (g_s, g_fV, g_W)]
                                   + [z[..., M:]], axis=-1)
            # a non-finite gradient makes G non-finite
            if not _finite(G):
                _check_finite((g_s, g_fV), kern.V.m, "slow-potential gradient")
                _check_finite((g_W,), kern.W.m, "fast-potential gradient")
            return (forces.dot(G) if single else (forces @ G[..., None])[..., 0]), G

        return residual

    def transform(self, F, absolute=False):
        """T F, or |T| F with ``absolute``, of a vector F."""
        return (self.abs_T if absolute else self.T).dot(F)

    @functools.cached_property
    def scatter(self):
        """``(src, dest, coef, h, h_blocks)``, made at the first
        :meth:`matrix`: the maps' scatter with A's entries first, and h,
        the terms' Hessians side by side and then the 1 of A's entries,
        with views of its blocks."""
        maps, sys, kern = self.maps, self.sys, self.kern
        n_s, p, N = sys.n_slow, kern.p, maps.N
        # equation i against nodes i+1, i and i-1: -M_f/dt, 2 M_f/dt, -M_f/dt
        A = np.zeros((N, N))
        A[:n_s, :n_s] = -sys.mass_slow / kern.dT
        A[n_s:, n_s:] = np.kron(2.0 * np.eye(p, k=-1) - np.eye(p) - np.eye(p, k=-2),
                                sys.mass_fast / kern.dt)
        at_A = np.flatnonzero(A)
        src, dest, coef = maps.scatter
        h = np.empty(maps.h_at[-1] + 1)
        h[-1] = 1.0
        return (np.concatenate((np.full(at_A.size, maps.h_at[-1]), src)),
                np.concatenate((at_A, dest)), np.concatenate((A.reshape(-1)[at_A], coef)), h,
                [h[at:at + math.prod(shape)].reshape(shape)
                 for at, shape in zip(maps.h_at, maps.h_shapes)])

    def matrix(self, start: State, x: np.ndarray) -> np.ndarray:
        """The Newton matrix at x: one ``np.bincount`` of the entries into
        their flat positions, which adds each position's entries in order,
        the kinetic one first."""
        maps, sys, kern = self.maps, self.sys, self.kern
        if self.last is not None and self.last[0] is start and self.last[1] is x:
            z = self.last[2]
        else:
            z = maps.points @ x + self._shift(start)
        a, b, M = itertools.accumulate(maps.split)
        QfV = z[a:b].reshape(maps.k_V, maps.n_f)
        H_ss, H_sf, H_ff = sys.evaluate_batch("slow_potential_hessian",
                                              z[:a].reshape(maps.k_V, maps.n_s), QfV)
        H_W = sys.evaluate_batch("fast_potential_hessian",
                                 QfV if maps.shared else z[b:M].reshape(maps.k_W, maps.n_f))
        src, dest, coef, h, h_blocks = self.scatter
        for block, H in zip(h_blocks, (H_ss, H_sf, H_ff, H_W)):
            block[...] = H
        if not _finite(h):
            _check_finite((H_ss, H_sf, H_ff), kern.V.m, "slow-potential Hessian")
            _check_finite((H_W,), kern.W.m, "fast-potential Hessian")
        N = maps.N
        return np.bincount(dest, h.take(src) * coef, N * N).reshape(N, N)


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
