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
The term geometry is cached as arrays per (quad, dT, p) in one interval
kernel.  From its weights, the step of one macro interval is a few fixed
linear maps around the potential callbacks (:class:`_StepForm`): the
quadrature points and node differences, the DEL forces, the discrete
momenta and the p/q maps' transform, each written once as Kronecker terms
C ⊗ B of a small weight matrix C and an identity or mass block B
(:class:`_Map`).  Below the size rule of :mod:`multirate.solver` each map
is materialized with ``np.kron`` and is one product; from it on its terms
are applied one at a time.  The DEL residual, the step records, the p/q
maps, ``verify_trajectory`` and :func:`interval_momenta` all run through
these maps.  The Newton matrix adds the Hessians at the same points, into
fixed positions of a dense matrix (:meth:`_StepForm.matrix`) or summed per
micro interval into blocks (:meth:`_IntervalKernel.hessian_blocks`).
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
    Newton matrix is one fresh ``np.bincount`` (:meth:`_StepForm.matrix`).
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = np.empty(shape)
        return a


# the weight matrix C of a term that is its block B alone
_ONE = np.ones((1, 1))


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
    """Quadrature terms of one macro interval for fixed (quad, dT, p).

    The slow potential V is evaluated at the terms of ``V`` with slow point
    ``c0 * q_s_k + c1 * q_s_next`` (``c0``, ``c1`` as (k, 1) columns), the
    fast potential W at the terms of ``W``.  Their weights write the step's
    fixed maps (:class:`_StepForm`); the kernel itself computes the points
    and the Hessian sums of the block Newton matrix, with each potential's
    Hessians requested once per batch of points through
    :meth:`MultirateSystem.evaluate_batch`.

    ``shared`` tells whether V and W evaluate at the same fast points with
    the same weights, as the midpoint-midpoint rule does.  Then the points
    are gathered once and both callbacks receive that one array.
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


class _Map:
    """A fixed linear map of shape ``shape``, written once as Kronecker terms.

    Term ``(r, c, C, B)`` is the block C ⊗ B whose first entry sits at row r
    and column c: C a small matrix of the kernel's weights, B an identity,
    given by its order, or a mass block.  No two terms share an entry.  A
    ``dense`` map is materialized with ``np.kron`` on first use
    (:attr:`matrix`), and :meth:`apply` is one product with it.  Otherwise
    :meth:`apply` runs the terms one at a time, C V B^T with V a term's
    columns of x as a (columns of C, order of B) matrix, and no array of
    the map's shape is made.
    """

    def __init__(self, shape: tuple, terms: list, dense: bool):
        self.shape, self.terms, self.dense = shape, terms, dense

    @functools.cached_property
    def plan(self) -> list:
        """Per term: its rows with the shape of its product there, its
        columns with the shape of V there, the factors that take V to the
        product in turn, and whether it is the first term on its rows, which
        its last factor then writes instead of adding to them."""
        plan, covered = [], np.zeros(self.shape[0], dtype=bool)
        for r, c, C, B in self.terms:
            b, b_rows = (B, B) if isinstance(B, int) else B.shape[::-1]
            rows, h, factors = slice(r, r + len(C) * b_rows), C.shape[1] // 2, []
            plan.append((rows, (len(C), b_rows), slice(c, c + C.shape[1] * b), (C.shape[1], b),
                         factors, not covered[rows].any()))
            covered[rows] = True
            if h and 2 * h == C.shape[1] and (C[:, :h] == C[:, h:]).all():
                # C = [A, A], as where V and W share their points and weights:
                # A applied to the sum of the two blocks of V
                factors.append(lambda v, out=None, h=h: np.add(v[:, :h], v[:, h:], out=out))
                C = C[:, :h]
            identity = len(C) == C.shape[1] and (C == np.eye(len(C))).all()
            if not identity or isinstance(B, int):
                # a copy for C = B = I; one product per entry where C has one column
                factors.append(np.positive if identity else functools.partial(
                    np.multiply if C.shape[1] == 1 else np.matmul, C))
            if not isinstance(B, int):
                factors.append(lambda v, out=None, B_T=B.T: np.matmul(v, B_T, out=out))
        return plan

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for r, c, C, B in self.terms:
            block = np.kron(C, np.eye(B) if isinstance(B, int) else B)
            out[r:r + block.shape[0], c:c + block.shape[1]] = block
        return out

    def apply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """The map applied along the last axis of x, added into y where given.
        Every point of a batch gets the bits it gets alone: a dense map
        takes one matrix-vector product per point, and the terms take the
        same stacked products for a batch of one as for many."""
        if self.dense:
            out = self.matrix.dot(x) if x.ndim == 1 else (self.matrix @ x[..., None])[..., 0]
            return out if y is None else np.add(y, out, out=y)
        X = x.reshape(-1, x.shape[-1])
        n = len(X)
        Y = np.zeros((n, self.shape[0])) if y is None else y.reshape(n, self.shape[0])
        for rows, out_shape, cols, v_shape, factors, first in self.plan:
            v = X[:, cols].reshape((n,) + v_shape)
            for factor in factors[:-1]:
                v = factor(v)
            # the term's rows of Y, split like its product: a view
            out = Y[:, rows].reshape((n,) + out_shape)
            if first and y is None:
                factors[-1](v, out=out)
            else:
                out += factors[-1](v)
        return Y.reshape(x.shape[:-1] + self.shape[:1])


class _StepForm:
    """The DEL step of one macro interval as fixed linear maps around the
    potential callbacks, for the kernel ``kern`` and the system ``sys``:
    each a :class:`_Map`, materialized where ``dense``.

    With x the stacked unknowns ``[q1; f_1; ...; f_p]`` (N entries) and z0
    = ``[q0; f_0; p_s0; p_f0]`` the start, ``points x + start z0`` is z =
    ``[y; d; p_s0; p_f0]``: the quadrature points y = ``[Qs; QfV; QfW]``, a
    row per term, raveled (QfW only where V and W do not share their
    points; ``bounds`` holds where the three end), and the node differences d
    = ``[q1 - q0; f_1 - f_0; ...; f_p - f_{p-1}]``.  With G = ``[g_s; g_fV;
    g_W; d; p_s0; p_f0]``, the gradients taken at y, ``forces G`` is the
    residual F: minus the slow weights ``w_c0`` and the equation weights of
    V and W, -M_s/dT on q1 - q0 in the slow row, -M_f/dt on d_i in fast row
    i and plus it in row i+1 (kinetic terms in node differences keep the
    accuracy of difference quotients at small steps), and the start momenta
    in the rows of the slow node and fast node 0.  ``momenta G`` is the
    discrete momenta ``[p_s-; p_s+; p_f-(0..p-1); p_f+(0..p-1)]``, ``record
    G`` its rows of a step record, ``[p_s-; p_s+; p_f-(0..p-1); p_f+(p-1)]``,
    and ``T``, ``abs_T`` the p/q maps' T and |T| (:mod:`multirate.schemes`):
    -dT M_s^-1 on the slow row, -dt M_f^-1 on running sums of the fast rows.
    """

    def __init__(self, kern: _IntervalKernel, sys: MultirateSystem, dense: bool):
        self.kern, self.sys = kern, sys
        self.callbacks = tuple(map(sys.batch_callable, ("slow_potential_grad",
                                                        "fast_potential_grad")))
        p, V, W, n_s, n_f = kern.p, kern.V, kern.W, sys.n_slow, sys.n_fast
        self.n_s, self.n_f, self.k_V, self.k_W = n_s, n_f, V.m.size, W.m.size
        self.N = N = n_s + p * n_f
        n_0, at_fV, at_gW = n_s + n_f, self.k_V * n_s, self.k_V * (n_s + n_f)
        self.bounds = a, b, M = tuple(itertools.accumulate(
            (at_fV, self.k_V * n_f, 0 if kern.shared else self.k_W * n_f)))
        # the columns of d in G, W's gradients having their own in any case
        self.kinetic_cols = slice(at_gW + self.k_W * n_f, at_gW + self.k_W * n_f + N)
        d, n_G = self.kinetic_cols.start, self.kinetic_cols.stop + n_0
        # V's fast points and gradients sit right before W's: one term for both
        gather = V.gather if kern.shared else np.vstack([V.gather, W.gather])
        self.points = _Map((M + N + n_0, N), [
            (0, 0, kern.c1, n_s), (at_fV, n_s, gather[:, 1:], n_f),
            (M, 0, _ONE, n_s), (M + n_s, n_s, np.eye(p) - np.eye(p, k=-1), n_f)], dense)
        self.start = _Map((M + N + n_0, 2 * n_0), [
            (0, 0, kern.c0, n_s), (at_fV, n_s, gather[:, :1], n_f),
            (M, 0, -_ONE, n_0), (M + N, n_0, _ONE, n_0)], dense)
        self.forces = _Map((N, n_G), [
            (0, 0, -kern.w_c0[None], n_s), (0, d, _ONE, -sys.mass_slow / kern.dT),
            (n_s, at_fV, -np.hstack([V.equations, W.equations]), n_f),
            (n_s, d + n_s, np.eye(p, k=-1) - np.eye(p), sys.mass_fast / kern.dt),
            (0, d + N, _ONE, n_0)], dense)

        def momenta(plus):
            # p_s-, p_s+, p_f-(0..p-1) and the rows of p_f+(0..p-1) that
            # ``plus`` picks
            left, right = np.hstack([V.left, W.left]), np.hstack([V.right, W.right])
            at_plus = 2 * n_s + p * n_f
            return _Map((at_plus + len(plus) * n_f, n_G), [
                (0, 0, np.stack([kern.w_c0, -kern.w_c1]), n_s),
                (2 * n_s, at_fV, np.vstack([left, -right[plus]]), n_f),
                (0, d, np.ones((2, 1)), sys.mass_slow / kern.dT),
                (2 * n_s, d + n_s, np.eye(p), sys.mass_fast / kern.dt),
                (at_plus, d + n_s, np.eye(p)[plus], sys.mass_fast / kern.dt)], dense)

        self.momenta, self.record = momenta(np.arange(p)), momenta([p - 1])
        T = [(0, 0, _ONE, -kern.dT * sys.mass_slow_inv),
             (n_s, n_s, np.tri(p), -kern.dt * sys.mass_fast_inv)]
        self.T = _Map((N, N), T, dense)
        self.abs_T = _Map((N, N), [(r, c, np.abs(C), np.abs(B)) for r, c, C, B in T], dense)
        # (start, x, z) of the last residual of one point, whose Hessian
        # points a Newton matrix built at the same iterate reads
        self.last = None

    def shift(self, start: State) -> np.ndarray:
        """``start z0``: what the start adds to z."""
        return self.start.apply(np.concatenate(
            (start.q_slow, start.q_fast, start.p_slow, start.p_fast)))

    def gradients(self, z: np.ndarray, slow, fast) -> np.ndarray:
        """G of z (..., rows of ``points``): the gradients at the quadrature
        points of every z of the batch from one call of each batch callable
        (``slow``, ``fast``), then z's tail.  A non-finite gradient raises
        naming its micro interval, slow before fast (:func:`_check_finite`)."""
        (a, b, M), lead = self.bounds, z.shape[:-1]
        n = math.prod(lead)
        QfV = z[..., a:b].reshape(n * self.k_V, self.n_f)
        g_s, g_fV = slow(z[..., :a].reshape(n * self.k_V, self.n_s), QfV)
        g_W = fast(QfV if self.kern.shared else z[..., b:M].reshape(n * self.k_W, self.n_f))
        G = (np.concatenate((g_s, g_fV, g_W, z[M:]), axis=None) if z.ndim == 1 else
             np.concatenate([g.reshape(lead + (-1,)) for g in (g_s, g_fV, g_W)] + [z[..., M:]],
                            axis=-1))
        # a non-finite gradient makes G non-finite
        if not _finite(G):
            _check_finite((g_s, g_fV), self.kern.V.m, "slow-potential gradient")
            _check_finite((g_W,), self.kern.W.m, "fast-potential gradient")
        return G

    def residual(self, start: State):
        """``residual(x) -> (F, G)`` of the step from ``start``
        (:func:`multirate.solver._step_residual`)."""
        points, forces, gradients = self.points.apply, self.forces.apply, self.gradients
        shift, (slow, fast) = self.shift(start), self.callbacks

        def residual(x):
            z = points(x)
            z += shift
            if x.ndim == 1:
                self.last = start, x, z
            G = gradients(z, slow, fast)
            return forces(G), G

        return residual

    def interval_momenta(self, q0, q1, fast):
        """Discrete momenta ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)`` of
        the intervals with slow nodes ``q0``, ``q1`` (..., n_slow) and fast
        nodes ``fast`` (..., p+1, n_fast): ``momenta G`` at their z, all
        points of the batch in one call of each callback.  The start
        momenta are zero, which no momentum reads."""
        lead, p, n_s, n_f = q0.shape[:-1], self.kern.p, self.n_s, self.n_f
        x = np.concatenate((q1, fast[..., 1:, :].reshape(lead + (p * n_f,))), axis=-1)
        z0 = np.concatenate((q0, fast[..., 0, :], np.zeros(lead + (n_s + n_f,))), axis=-1)
        z = self.start.apply(z0, self.points.apply(x))
        mom = self.momenta.apply(self.gradients(z, *self.callbacks))
        return (mom[..., :n_s], mom[..., n_s:2 * n_s], *(mom[..., at:at + p * n_f].reshape(
            lead + (p, n_f)) for at in (2 * n_s, self.N + n_s)))

    def record_momenta(self, G: np.ndarray):
        """``(p_fast, p_slow)`` in the step record's order: views of ``record G``."""
        mom, n_s = self.record.apply(G), self.n_s
        return mom[2 * n_s:].reshape(self.kern.p + 1, self.n_f), mom[:2 * n_s].reshape(2, n_s)

    def transform(self, F, absolute=False):
        """T F, or |T| F with ``absolute``, of a vector F."""
        return (self.abs_T if absolute else self.T).apply(F)

    @functools.cached_property
    def scatter(self):
        """``(src, dest, coef, h, h_blocks)``, made at the first
        :meth:`matrix`: the Newton matrix ``A - sum_t S_t H_t P_t``, A the
        kinetic matrix, is ``coef * h[src]`` summed in order into the flat
        positions ``dest``.  h holds the terms' Hessian blocks ``H_ss, H_sf,
        H_ff, H_W`` raveled (``h_blocks`` views them) and a final 1 for A's
        entries, which come first.  A term adds at most (n_slow + 2
        n_fast)^2 entries, at its interval's equations and unknowns."""
        n_s, n_f, k_V, k_W, N = self.n_s, self.n_f, self.k_V, self.k_W, self.N
        n_0, at_fV, at_gW = n_s + n_f, k_V * n_s, k_V * (n_s + n_f)
        at_fW = at_fV if self.kern.shared else at_gW
        forces, points = self.forces.matrix, self.points.matrix
        shapes = [(k_V, n_s, n_s), (k_V, n_s, n_f), (k_V, n_f, n_f), (k_W, n_f, n_f)]
        h_at = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
        # each term's gradient entries, point entries and second derivatives
        # as positions in h: of V, the (n_s + n_f)^2 Hessian in the order of
        # its point, H_fs being H_sf transposed; of W, the n_f^2 block
        s, f = np.arange(n_s), np.arange(n_f)
        at_sf, at_ff, at_W = h_at[1:-1]
        # A is forces' kinetic columns times points' node-difference rows:
        # one or two products of +-1 and an entry of M/dt per position, exact
        at_d = self.bounds[2]
        A = forces[:, self.kinetic_cols] @ points[at_d:at_d + N]
        at_A = np.flatnonzero(A)
        src, dest, coef = [np.full(at_A.size, h_at[-1])], [at_A], [A.reshape(-1)[at_A]]

        def add(g_at, y_at, h):
            rows, cols = forces[:, g_at], points[y_at]
            e, a = np.nonzero(rows)
            b, u = np.nonzero(cols)
            src.append(h[a[:, None], b].ravel())
            dest.append((e[:, None] * N + u).ravel())
            coef.append((rows[e, a][:, None] * cols[b, u]).ravel())

        for t in range(k_V):
            h = np.empty((n_0, n_0), dtype=int)
            h[:n_s, :n_s] = t * n_s * n_s + s[:, None] * n_s + s
            h[:n_s, n_s:] = at_sf + t * n_s * n_f + s[:, None] * n_f + f
            h[n_s:, :n_s] = h[:n_s, n_s:].T
            h[n_s:, n_s:] = at_ff + t * n_f * n_f + f[:, None] * n_f + f
            at = np.concatenate([t * n_s + s, at_fV + t * n_f + f])
            add(at, at, h)
        for t in range(k_W):
            add(at_gW + t * n_f + f, at_fW + t * n_f + f, at_W + (t * n_f + f[:, None]) * n_f + f)
        h = np.ones(h_at[-1] + 1)
        return (*map(np.concatenate, (src, dest, coef)), h,
                [h[at:at + math.prod(shape)].reshape(shape) for at, shape in zip(h_at, shapes)])

    def matrix(self, start: State, x: np.ndarray) -> np.ndarray:
        """The Newton matrix at x of a dense step: one ``np.bincount`` of the
        entries into their flat positions, which adds each position's
        entries in order, the kinetic one first."""
        if self.last is not None and self.last[0] is start and self.last[1] is x:
            z = self.last[2]
        else:
            z = self.points.apply(x) + self.shift(start)
        a, b, M = self.bounds
        QfV = z[a:b].reshape(self.k_V, self.n_f)
        H_ss, H_sf, H_ff = self.sys.evaluate_batch(
            "slow_potential_hessian", z[:a].reshape(self.k_V, self.n_s), QfV)
        H_W = self.sys.evaluate_batch(
            "fast_potential_hessian",
            QfV if self.kern.shared else z[b:M].reshape(self.k_W, self.n_f))
        src, dest, coef, h, h_blocks = self.scatter
        for block, H in zip(h_blocks, (H_ss, H_sf, H_ff, H_W)):
            block[...] = H
        if not _finite(h):
            _check_finite((H_ss, H_sf, H_ff), self.kern.V.m, "slow-potential Hessian")
            _check_finite((H_W,), self.kern.W.m, "fast-potential Hessian")
        return np.bincount(dest, h.take(src) * coef, self.N ** 2).reshape(self.N, self.N)


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
    """Discrete momenta of one macro interval, by the step's maps applied
    term by term (:meth:`_StepForm.interval_momenta`)."""
    return IntervalMomenta(*_StepForm(interval_kernel(quad, grid), sys, False).interval_momenta(
        np.asarray(q_slow_k, dtype=float), np.asarray(q_slow_next, dtype=float),
        np.asarray(fast_nodes, dtype=float)))
