"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas (or uses
scipy's generic root finder) so that agreement with the package is a real
cross-check rather than a tautology.
"""

import numpy as np
import scipy.optimize


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

    ``kern.momenta`` gives the four momentum arrays at the stacked unknowns
    x (..., n_slow + p*n_fast); F is incoming minus left momenta at the slow
    node and at fast node 0, and right minus left momenta at the interior
    fast nodes.  Returns ``(F, scale)``, scale being the largest magnitude
    of the momentum terms that enter F: the incoming momenta, the kinetic
    terms M v and the discrete momenta.
    """
    n_s, n_f, p = sys.n_slow, sys.n_fast, kern.p
    q1 = x[..., :n_s]
    fast = np.empty(x.shape[:-1] + (p + 1, n_f))
    fast[..., 0, :] = start.q_fast
    fast[..., 1:, :] = x[..., n_s:].reshape(x.shape[:-1] + (p, n_f))
    p_s_minus, p_s_plus, p_f_minus, p_f_plus = kern.momenta(start.q_slow, q1, fast, sys)
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
