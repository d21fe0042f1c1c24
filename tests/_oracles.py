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
