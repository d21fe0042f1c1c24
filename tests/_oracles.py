"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas (or uses
scipy's generic root finder) so that agreement with the package is a real
cross-check rather than a tautology.
"""

import csv
import math

import numpy as np
import scipy.optimize

from multirate import MultirateSystem, QuadratureSpec, TimeGrid
from multirate.discretization import (_check_finite, _finite, _left_weight, _StepForm,
                                     interval_kernel)
from multirate.solver import MacroStep, _HeldMatrix, _small, _step_residual


def central_diff(f, x, h):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def full_grad_potential(sys):
    """Gradient of V + W on the stacked configuration (q_slow, q_fast)."""
    def gradU(q):
        qs, qf = q[: sys.n_slow], q[sys.n_slow :]
        gs, gf = sys.slow_potential_grad(qs, qf)
        return np.concatenate([np.asarray(gs), np.asarray(gf) + np.asarray(sys.fast_potential_grad(qf))])
    return gradU


def block_mass_inv(sys):
    n = sys.n_slow + sys.n_fast
    Minv = np.zeros((n, n))
    Minv[: sys.n_slow, : sys.n_slow] = sys.mass_slow_inv
    Minv[sys.n_slow :, sys.n_slow :] = sys.mass_fast_inv
    return Minv


def implicit_midpoint_step(gradU, Minv, q, p, h, tol=1e-13):
    """One implicit-midpoint step of q' = Minv p, p' = -gradU(q)."""
    n = q.size

    def F(z):
        q1, p1 = z[:n], z[n:]
        return np.concatenate([
            q1 - q - h * (Minv @ (0.5 * (p + p1))),
            p1 - p + h * gradU(0.5 * (q + q1)),
        ])

    guess = np.concatenate([q + h * (Minv @ p), p])
    sol = scipy.optimize.root(F, guess, tol=tol)
    assert sol.success or np.max(np.abs(F(sol.x))) < 1e-10
    return sol.x[:n], sol.x[n:]


def implicit_midpoint_trajectory(gradU, Minv, q0, p0, h, n_steps, tol=1e-13):
    qs = [np.asarray(q0, dtype=float)]
    ps = [np.asarray(p0, dtype=float)]
    for _ in range(n_steps):
        q, p = implicit_midpoint_step(gradU, Minv, qs[-1], ps[-1], h, tol)
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


def stormer_verlet_step(gradU, Minv, q, p, h):
    """Kick-drift-kick with half-step force kicks."""
    p_half = p - 0.5 * h * gradU(q)
    q1 = q + h * (Minv @ p_half)
    p1 = p_half - 0.5 * h * gradU(q1)
    return q1, p1


def symplectic_euler_momentum_first(gradU, Minv, q, p, h):
    p1 = p - h * gradU(q)
    q1 = q + h * (Minv @ p1)
    return q1, p1


def symplectic_euler_position_first(gradU, Minv, q, p, h):
    q1 = q + h * (Minv @ p)
    p1 = p - h * gradU(q1)
    return q1, p1


def affine_quadrature(zfun, nodes, alpha, gamma, dt):
    """Direct evaluation of the affine two-point quadrature over micro intervals."""
    total = 0.0
    for m in range(len(nodes) - 1):
        qa = gamma * nodes[m] + (1.0 - gamma) * nodes[m + 1]
        qb = (1.0 - gamma) * nodes[m] + gamma * nodes[m + 1]
        total += dt * (alpha * zfun(qa) + (1.0 - alpha) * zfun(qb))
    return total


def spectral_radius(P):
    return float(np.max(np.abs(np.linalg.eigvals(P))))


def fd_jacobian_loop(residual, x0, r0, step):
    """Forward-difference Jacobian one column at a time, with componentwise
    steps ``step * (1 + |x_i|)``; ``residual(x)`` returns ``(F, aux)``."""
    J = np.empty((r0.size, x0.size))
    for i in range(x0.size):
        h = step * (1.0 + abs(x0[i]))
        xp = x0.copy()
        xp[i] += h
        J[:, i] = (residual(xp)[0] - r0) / h
    return J


def hessian_blocks_dense(kern, q0, q1, fast, sys):
    """``(ss, border, ff)`` of ``_IntervalKernel.hessian_blocks``, contracting
    all k term Hessians against dense (3p, k) and (2p, k) weight matrices.

    The weights come from the kernel's term geometry: term t sits on micro
    interval ``m[t]`` with weight ``w[t]``, evaluates the fast point
    ``gather[t] @ fast`` and the slow point ``c0[t] q0 + c1[t] q1``.
    """
    p = kern.p
    Qs, QfV, QfW = kern.points(q0, q1, fast)
    H_ss, H_sf, H_ff = sys.evaluate_batch("slow_potential_hessian", Qs, QfV)
    H_W = sys.evaluate_batch("fast_potential_hessian", QfW)

    def contract(C, H):
        k = H.shape[0]
        return (C @ H.reshape(k, -1)).reshape(C.shape[:-1] + H.shape[1:])

    def second(terms):
        rows = np.arange(terms.m.size)
        u_l, u_r = terms.gather[rows, terms.m], terms.gather[rows, terms.m + 1]
        onto = np.zeros((p, terms.m.size))
        onto[terms.m, rows] = terms.w
        left, right = onto * u_l, onto * u_r
        return np.vstack([left * u_l, left * u_r, right * u_r])

    w_c0, w_c1 = kern.V.w * kern.c0[:, 0], kern.V.w * kern.c1[:, 0]
    border = contract(np.vstack([w_c0 * kern.V.gather[:, 1:].T, w_c1 * kern.V.gather[:, :-1].T]),
                      H_sf)
    ff = contract(second(kern.V), H_ff) + contract(second(kern.W), H_W)
    return (contract(w_c0 * kern.c1[:, 0], H_ss), border.reshape((2, p) + border.shape[1:]),
            ff.reshape((3, p) + ff.shape[1:]))


def momentum_mismatch_residual(kern, start, x, sys):
    """The DEL step residual as differences of the discrete momenta.

    :func:`kernel_momenta` gives the four momentum arrays at the stacked
    unknowns x (..., n_slow + p*n_fast); F is incoming minus left momenta
    at the slow node and at fast node 0, and right minus left momenta at
    the interior fast nodes.  Returns ``(F, scale)``, scale being the largest magnitude
    of the momentum terms that enter F: the incoming momenta, the kinetic
    terms M v and the discrete momenta.
    """
    n_s, n_f, p = sys.n_slow, sys.n_fast, kern.p
    q1 = x[..., :n_s]
    fast = np.empty(x.shape[:-1] + (p + 1, n_f))
    fast[..., 0, :] = start.q_fast
    fast[..., 1:, :] = x[..., n_s:].reshape(x.shape[:-1] + (p, n_f))
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = kernel_momenta(kern, start.q_slow, q1, fast, sys)
    F = np.empty(x.shape)
    F[..., :n_s] = start.p_slow - p_s_minus
    fast_rows = np.concatenate([(start.p_fast - p_f_minus[..., 0, :])[..., None, :],
                                p_f_plus[..., :-1, :] - p_f_minus[..., 1:, :]], axis=-2)
    F[..., n_s:] = fast_rows.reshape(x.shape[:-1] + (p * n_f,))
    Mv_s = ((q1 - start.q_slow) / kern.dT) @ sys.mass_slow.T
    Mv_f = ((fast[..., 1:, :] - fast[..., :-1, :]) / kern.dt) @ sys.mass_fast.T
    scale = max(float(np.max(np.abs(a), initial=0.0))
                for a in (start.p_slow, start.p_fast, Mv_s, Mv_f,
                          p_s_minus, p_s_plus, p_f_minus, p_f_plus))
    return F, scale


def closed_form_pq_residual(quad, state, sys, grid, x):
    """Residual of the closed-form p/q map of ``quad`` at one point x of
    stacked unknowns, from the callbacks at the micro nodes or midpoints.

    Midpoint rules for both potentials give the averaged-node map; a
    trapezoidal-family slow rule (gamma_V in {0, 1}) around a midpoint fast
    rule the kick-oscillate-kick map; trapezoidal-family rules for both the
    node-force map.  A trapezoidal-family rule enters through the total
    weight of its left node.  The slow row is the drift equation
    ``q_s1 - q_s0 - dT M_s^-1 p~`` with the half-updated slow momentum p~,
    fast row m the update of fast node m+1 by the fast momenta of that map.
    """
    p, dt, dT = grid.micro_per_macro, grid.dt, grid.dT
    n_s, n_f = sys.n_slow, sys.n_fast
    s0, s1 = state.q_slow, x[:n_s]
    fast = np.vstack([state.q_fast, x[n_s:].reshape(p, n_f)])
    qs = s0 + (np.arange(p + 1)[:, None] / p) * (s1 - s0)

    def grad_V(qs, qf):
        pairs = [sys.slow_potential_grad(a, b) for a, b in zip(qs, qf)]
        return (np.array([g for g, _ in pairs], dtype=float),
                np.array([g for _, g in pairs], dtype=float))

    def grad_W(qf):
        return np.array([sys.fast_potential_grad(f) for f in qf], dtype=float)

    def mid(a):
        return 0.5 * (a[:-1] + a[1:])

    def fast_momenta(decrements):
        # p0, p0 - d[0], (p0 - d[0]) - d[1], ... at nodes 0..p
        return np.subtract.accumulate(np.vstack([state.p_fast, decrements]), axis=0)

    def left_weight(alpha, gamma):
        return alpha * gamma + (1.0 - alpha) * (1.0 - gamma)

    Minv_f = sys.mass_fast_inv
    if quad.gamma_V == 0.5:
        a = (2.0 * np.arange(p) + 1.0) / p          # averaged interpolation weights
        G_s, G_f = grad_V(mid(qs), mid(fast))
        pf = fast_momenta(dt * (G_f + grad_W(mid(fast))))
        p_tilde = state.p_slow - dt * ((1.0 - a) @ G_s)
        p_slow = 0.5 * (p_tilde + (p_tilde - dt * (a @ G_s)))
        r_f = fast[1:] - fast[:-1] - dt * (mid(pf) @ Minv_f.T)
    else:
        alpha_V = left_weight(quad.alpha_V, quad.gamma_V)
        G_s, G_f = grad_V(qs, fast)
        m = np.arange(1, p)
        p_slow = state.p_slow - dt * (((p - m) / p) @ G_s[1:p] + alpha_V * G_s[0])
        if quad.gamma_W == 0.5:
            # kick, implicit midpoint oscillation under W, closing kick
            kick = alpha_V * dt * G_f[:-1]
            osc = dt * grad_W(mid(fast))
            pf = fast_momenta(kick + osc + (1.0 - alpha_V) * dt * G_f[1:])
            pf_kick = pf[:-1] - kick
            r_f = fast[1:] - fast[:-1] - dt * ((0.5 * (pf_kick + (pf_kick - osc))) @ Minv_f.T)
        else:
            alpha_W = left_weight(quad.alpha_W, quad.gamma_W)
            G_W = grad_W(fast)
            force_l = alpha_V * G_f[:-1] + alpha_W * G_W[:-1]
            force_r = (1.0 - alpha_V) * G_f[1:] + (1.0 - alpha_W) * G_W[1:]
            pf = fast_momenta(dt * (force_l + force_r))
            r_f = fast[1:] - fast[:-1] - dt * ((pf[:-1] - dt * force_l) @ Minv_f.T)
    return np.concatenate([s1 - s0 - dT * (sys.mass_slow_inv @ p_slow), r_f.ravel()])


def pq_residual(quad, state, sys, grid):
    """``evaluate(x) -> (T F, aux)``: the p/q residual of the step from
    ``state``, the transform T that the p/q step uses (dense below the
    size rule, running sums above) applied to its DEL residual ``(F, aux)``
    at x.  Each point of a batch is transformed alone, as the library
    transforms the one vector of a step.  Not independent of the library:
    the tests hold it against :func:`closed_form_pq_residual`, and measure
    the p/q stop rule with it."""
    held = _HeldMatrix()
    residual = _step_residual(state, sys, quad, grid, held)
    transform = held.bind(sys, quad, grid).transform

    def evaluate(x):
        F, aux = residual(x)
        rows = F.reshape(-1, F.shape[-1])
        return np.array([transform(f) for f in rows]).reshape(F.shape), aux

    return evaluate


def explicit_step_position_form(index, start, sys, quad, grid, held=None):
    """Macro step of the explicit recurrence in position form, as the
    library's ``solver._explicit_step`` (same signature, a ``MacroStep``;
    the holder ``held`` of the library's bound step is not read).

    The interior fast nodes follow the two-step recurrence
    ``fast[m+1] = 2 fast[m] - fast[m-1] - dt^2 M_f^-1 g_W(fast[m])``; the
    first fast node and the next slow node from one kick at node 0 with
    the rule's left weights.  The momenta come from the kernel, from the
    gradients at the terms' nodes gathered per term.
    """
    kern = interval_kernel(quad, grid)
    p, dt, dT = grid.micro_per_macro, grid.dt, grid.dT
    q0, f0 = start.q_slow, start.q_fast

    def slow_gradient(q_s, q_f):
        g_s, g_f = sys.slow_potential_grad(q_s, q_f)
        return np.asarray(g_s, dtype=float), np.asarray(g_f, dtype=float)

    slow_at = {0: slow_gradient(q0, f0)}
    g_s, g_f = slow_at[0]
    g_W_node = np.empty((p + 1, sys.n_fast))
    g_W_node[0] = sys.fast_potential_grad(f0)
    w_left = quad.alpha_W * quad.gamma_W + (1.0 - quad.alpha_W) * (1.0 - quad.gamma_W)
    fast = np.empty((p + 1, sys.n_fast))
    fast[0] = f0
    kick0 = start.p_fast - dT * quad.alpha_V * g_f - dt * w_left * g_W_node[0]
    fast[1] = f0 + dt * (sys.mass_fast_inv @ kick0)
    for m in range(1, p):
        g_W_node[m] = sys.fast_potential_grad(fast[m])
        fast[m + 1] = 2.0 * fast[m] - fast[m - 1] - dt * dt * (sys.mass_fast_inv @ g_W_node[m])
    q1 = q0 + dT * (sys.mass_slow_inv @ (start.p_slow - dT * quad.alpha_V * g_s))
    if kern.V.at_end:
        slow_at[p] = slow_gradient(q1, fast[p])
    if kern.W.at_end:
        g_W_node[p] = sys.fast_potential_grad(fast[p])
    g_sV = np.array([slow_at[n][0] for n in kern.V.node])
    g_fV = np.array([slow_at[n][1] for n in kern.V.node])
    g_W = g_W_node[kern.W.node]
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = full_momenta(kern, q0, q1, fast, sys,
                                                            g_sV, g_fV, g_W)
    return MacroStep(index, q0, q1, fast, np.concatenate([p_f_minus, p_f_plus[-1:]]),
                     np.stack([p_s_minus, p_s_plus]))


class _ExplicitStepReference:
    """The explicit step's arithmetic as written before its per-step
    lookups were bound once: every product in the same order and with the
    same association, so that the library's step must give the same bits
    (:func:`explicit_step_reference`)."""

    def __init__(self, sys, quad, grid):
        self.sys, self.quad, self.grid = sys, quad, grid
        self.kern = kern = interval_kernel(quad, grid)
        p, n_s, n_f, k_V, k_W = kern.p, sys.n_slow, sys.n_fast, kern.V.m.size, kern.W.m.size
        self.K = (kern.dt * kern.dt) * sys.mass_fast_inv
        self.kick_V = kern.dT * quad.alpha_V
        self.kick_W = kern.dt * _left_weight(quad.alpha_W, quad.gamma_W)
        self.node_terms = (np.array_equal(kern.V.node, [0])
                           and np.array_equal(kern.W.node, np.arange(p)))
        self.form = form = _StepForm(kern, sys, _small(sys, grid))
        a, b = k_V * n_s, k_V * (n_s + n_f)
        self.n_grads = c = form.kinetic_cols.start
        self.G = np.zeros(form.record.shape[1])
        self.grads = (self.G[:a].reshape(k_V, n_s), self.G[a:b].reshape(k_V, n_f),
                      self.G[b:c].reshape(k_W, n_f))
        self.d = self.G[c:c + n_s], self.G[c + n_s:form.kinetic_cols.stop].reshape(p, n_f)
        self.at_nodes = self.grads if self.node_terms else (
            np.empty((p + 1, n_s)), np.empty((p + 1, n_f)), np.empty((p + 1, n_f)))

    def __call__(self, index, start):
        kern, sys, K, p, dt = self.kern, self.sys, self.K, self.kern.p, self.kern.dt
        q0, f0 = start.q_slow, start.q_fast
        fast_grad = sys.fast_potential_grad
        slow_s, slow_f, g_W_node = self.at_nodes

        p_s, p_f = start.p_slow, start.p_fast
        if self.kick_V:
            slow_s[0], slow_f[0] = sys.slow_potential_grad(q0, f0)
            p_s, p_f = p_s - self.kick_V * slow_s[0], p_f - self.kick_V * slow_f[0]
        g_W_node[0] = fast_grad(f0)
        fast = np.empty((p + 1, sys.n_fast))
        fast[0] = f0
        u = dt * sys.mass_fast_inv.dot(p_f - self.kick_W * g_W_node[0])
        np.add(f0, u, out=fast[1])
        for f, f_next, g in zip(fast[1:p], fast[2:], g_W_node[1:p]):
            g[:] = fast_grad(f)
            u -= K.dot(g)
            np.add(f, u, out=f_next)
        q1 = q0 + kern.dT * sys.mass_slow_inv.dot(p_s)

        g_s, g_fV, g_W = self.grads
        if not self.node_terms:
            if kern.V.at_end:
                slow_s[p], slow_f[p] = sys.slow_potential_grad(q1, fast[p])
            if kern.W.at_end:
                g_W_node[p] = fast_grad(fast[p])
            for rows, terms, out in zip(self.at_nodes, (kern.V, kern.V, kern.W), self.grads):
                np.take(rows, terms.node, axis=0, out=out)
        if not _finite(self.G[:self.n_grads]):
            _check_finite((g_s, g_fV), kern.V.m, "slow-potential gradient")
            _check_finite((g_W,), kern.W.m, "fast-potential gradient")
        np.subtract(q1, q0, out=self.d[0])
        np.subtract(fast[1:], fast[:-1], out=self.d[1])
        return MacroStep(index, q0, q1, fast, *self.form.record_momenta(self.G))


def explicit_step_reference(index, start, sys, quad, grid, held=None):
    """Macro step ``index`` from ``start`` by the explicit step's reference
    arithmetic, with the signature of ``solver._explicit_step``: the
    reference step is bound once per holder ``held`` (kept beside the
    library's bound step, which it does not read) and system, quadrature
    and grid."""
    step = getattr(held, "reference", None)
    if not (step is not None and step.sys is sys and step.quad is quad and step.grid is grid):
        step = _ExplicitStepReference(sys, quad, grid)
        if held is not None:
            held.reference = step
    return step(index, start)


def full_momenta(kern, q0, q1, fast, sys, g_s, g_fV, g_W):
    """Discrete momenta ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)`` of
    the interval kernel ``kern`` by the full four-product formula: every
    weight matrix applied, all-zero ones included, and the kinetic momenta
    as one vector-matrix product (matmul) per interval."""
    Mv_s = (((q1 - q0) / kern.dT)[..., None, :] @ sys.mass_slow.T)[..., 0, :]
    Mv_f = np.matmul((fast[..., 1:, :] - fast[..., :-1, :]) / kern.dt, sys.mass_fast.T)
    return (Mv_s + kern.w_c0 @ g_s,
            Mv_s - kern.w_c1 @ g_s,
            Mv_f + (kern.V.left @ g_fV + kern.W.left @ g_W),
            Mv_f - (kern.V.right @ g_fV + kern.W.right @ g_W))


def term_gradients(kern, q0, q1, fast, sys):
    """Gradients ``(g_s, g_fV, g_W)`` of the potentials at the quadrature
    points of the interval kernel ``kern`` on the intervals (q0, q1, fast),
    of shape (..., k, n) with the terms of V resp. W on axis -2: the
    callbacks on the points of all intervals stacked."""
    Qs, QfV, QfW = kern.points(q0, q1, fast)

    def rows(a):
        return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])

    g_s, g_fV = sys.evaluate_batch("slow_potential_grad", rows(Qs), rows(QfV))
    g_W = sys.evaluate_batch("fast_potential_grad", rows(QfW))
    return g_s.reshape(Qs.shape), g_fV.reshape(QfV.shape), g_W.reshape(QfW.shape)


def kernel_momenta(kern, q0, q1, fast, sys):
    """Discrete momenta ``(p_s_minus, p_s_plus, p_f_minus, p_f_plus)`` of
    the intervals (q0, q1, fast), leading axes kept: :func:`full_momenta`
    of the gradients at the kernel's quadrature points."""
    return full_momenta(kern, q0, q1, fast, sys, *term_gradients(kern, q0, q1, fast, sys))


def oracle_record(kern, q0, q1, fast, sys):
    """``(p_fast, p_slow, grads)``: the momenta of the step record of the
    interval (q0, q1, fast) in the order of ``MacroStep``, the left values
    at nodes 0..p-1 and the right ones at the end node, by
    :func:`full_momenta` from the gradients ``grads`` at the kernel's
    quadrature points."""
    grads = term_gradients(kern, q0, q1, fast, sys)
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = full_momenta(kern, q0, q1, fast, sys, *grads)
    return np.concatenate([p_f_minus, p_f_plus[-1:]]), np.stack([p_s_minus, p_s_plus]), grads


def pq_running_sums(sys, grid, F, absolute=False):
    """T F of the p/q maps for a vector F laid out as the stacked unknowns,
    or |T| F with ``absolute``: the slow row ``-dT M_s^-1 F_s`` and fast
    row m ``-dt M_f^-1 (F_f[0] + ... + F_f[m])``, as running sums."""
    n_s, shape = sys.n_slow, (grid.micro_per_macro, sys.n_fast)
    T_s, T_f = -grid.dT * sys.mass_slow_inv, -grid.dt * sys.mass_fast_inv
    if absolute:
        T_s, T_f = np.abs(T_s), np.abs(T_f)
    fast = np.cumsum(F[n_s:].reshape(shape), axis=0) @ T_f.T
    return np.concatenate([T_s @ F[:n_s], fast.ravel()])


def fancy_index_ring(cfg):
    """Slow-potential callbacks ``(potential, gradient, hessian)`` of the
    spring ring of ``cfg`` (a ``SpringRingConfig``), batched like the
    library's, written by fancy indexing: the stacked coordinates are
    scattered into per-mass 3-vectors, the ring edges gathered as
    ``Q[j+1] - Q[j]``, and the edge forces and Hessian blocks scattered back
    onto the masses."""
    l, eps = cfg.l, cfg.epsilon
    n_masses, n = 2 * l, 3 * l
    slow_idx = np.arange(0, n_masses, 2)
    fast_idx = np.arange(1, n_masses, 2)
    g_vec = np.array([0.0, 0.0, -cfg.g_mag])
    grav_slow = np.repeat(cfg.masses[slow_idx], 3) * np.tile(g_vec, l)
    grav_fast = np.repeat(cfg.masses[fast_idx], 3) * np.tile(g_vec, l)
    next_idx = (np.arange(n_masses) + 1) % n_masses
    prev_idx = (np.arange(n_masses) - 1) % n_masses

    def assemble(q_s, q_f):
        lead = q_s.shape[:-1]
        Q = np.empty(lead + (n_masses, 3))
        Q[..., slow_idx, :] = q_s.reshape(lead + (l, 3))
        Q[..., fast_idx, :] = q_f.reshape(lead + (l, 3))
        return Q

    def edges(Q):
        return Q[..., next_idx, :] - Q

    def potential(q_s, q_f):
        u = edges(assemble(q_s, q_f))
        ring = 0.25 * eps * np.sum(np.sum(u * u, axis=-1) ** 2, axis=-1)
        radial = 0.5 * cfg.omega1 * np.sum(q_s * q_s, axis=-1)
        gravity = np.sum(grav_slow * q_s, axis=-1) + np.sum(grav_fast * q_f, axis=-1)
        return radial + ring + gravity

    def gradient(q_s, q_f):
        lead = q_s.shape[:-1]
        u = edges(assemble(q_s, q_f))
        su = np.sum(u * u, axis=-1)[..., None] * u
        dQ = eps * (su[..., prev_idx, :] - su)
        g_s = dQ[..., slow_idx, :].reshape(lead + (n,)) + cfg.omega1 * q_s + grav_slow
        g_f = dQ[..., fast_idx, :].reshape(lead + (n,)) + grav_fast
        return g_s, g_f

    def block_view(B, rows, cols):
        sub = B[..., rows[:, None], cols[None, :], :, :]
        lead = sub.shape[:-4]
        return np.swapaxes(sub, -3, -2).reshape(lead + (3 * len(rows), 3 * len(cols)))

    def hessian(q_s, q_f):
        Q = assemble(q_s, q_f)
        u = edges(Q)
        Bedge = eps * (2.0 * u[..., :, None] * u[..., None, :]
                       + np.sum(u * u, axis=-1)[..., None, None] * np.eye(3))
        B = np.zeros(Q.shape[:-2] + (n_masses, n_masses, 3, 3))
        j = np.arange(n_masses)
        B[..., j, j, :, :] += Bedge
        B[..., next_idx, next_idx, :, :] += Bedge
        B[..., j, next_idx, :, :] -= Bedge
        B[..., next_idx, j, :, :] -= Bedge
        H_ss = block_view(B, slow_idx, slow_idx)
        H_ss[..., np.arange(n), np.arange(n)] += cfg.omega1
        return H_ss, block_view(B, slow_idx, fast_idx), block_view(B, fast_idx, fast_idx)

    return potential, gradient, hessian


def write_trajectory_rows(path, traj, sys):
    """trajectory.csv as the ``simulate`` command writes it, row by row
    with per-row conversions: one row per micro node, slow columns filled
    at macro nodes only (at node 0 alone when the grid has no interval)."""
    grid = traj.grid
    p, N = grid.micro_per_macro, grid.n_macro
    header = (["t", "k", "m"]
              + [f"qs_{i}" for i in range(sys.n_slow)]
              + [f"qf_{i}" for i in range(sys.n_fast)]
              + [f"ps_{i}" for i in range(sys.n_slow)]
              + [f"pf_{i}" for i in range(sys.n_fast)])
    slow, fast = ["%.17g"] * sys.n_slow, ["%.17g"] * sys.n_fast
    macro_row = ",".join(["%.17g", "%d", "%d"] + slow + fast + slow + fast) + "\r\n"
    micro_row = ",".join(["%.17g", "%d", "%d"] + [""] * sys.n_slow + fast
                         + [""] * sys.n_slow + fast) + "\r\n"
    times = grid.micro_times()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(times.size):
            k, m = divmod(i, p)
            if k == N > 0:  # the end node closes the last interval
                k, m = N - 1, p
            q_f, p_f = traj.fast_q[i].tolist(), traj.fast_p[i].tolist()
            if m == 0 or m == p:
                j = k + 1 if m == p else k
                fh.write(macro_row % (times[i], k, m, *traj.slow_q[j].tolist(), *q_f,
                                      *traj.slow_p[j].tolist(), *p_f))
            else:
                fh.write(micro_row % (times[i], k, m, *q_f, *p_f))


def write_energy_rows(path, es):
    """energy.csv as the ``simulate`` command writes it from the energy
    series ``es`` of a whole trajectory: one row per macro node."""
    header = ["t", "kinetic", "slow_potential", "fast_potential", "total"]
    stiff = es.stiff_energies is not None
    if stiff:
        header += [f"stiff_{j}" for j in range(es.stiff_energies.shape[1])] + ["stiff_total"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, t in enumerate(es.times):
            row = [t, es.kinetic[i], es.slow_potential[i], es.fast_potential[i], es.total[i]]
            if stiff:
                row += [*es.stiff_energies[i], es.stiff_total[i]]
            w.writerow([format(float(v), ".17g") for v in row])


# ---------------------------------------------------------------------------
# scalar discrete Lagrangian L_d = T_d - V_d - W_d of one macro interval.
# The library evaluates only its derivatives (the interval kernel's momenta
# and Hessian sums); these sum the potential values at the kernel's
# quadrature points, so differencing them checks the kernel's gradient sums
# and weights, though not the term geometry they share.


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
