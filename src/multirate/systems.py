"""Bundled benchmark systems.

Both systems split into soft (slow) and stiff (fast) parts:

* an alternating soft/stiff spring chain in scaled centre/stretch
  coordinates, where the slow variables are the stiff-spring centres and the
  fast variables the stiff-spring stretches;
* a ring of masses connected by soft ring springs and attached to the origin
  by alternating soft and stiff radial springs, under gravity.

Analytic gradients and Hessians are supplied so the Newton solver can run
with exact Jacobians.  They are written for stacked points as well
(``batched=True``, see :class:`multirate.model.MultirateSystem`): every
configuration argument may carry leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MultirateSystem, State, momenta_from_velocities

__all__ = [
    "FpuConfig",
    "SpringRingConfig",
    "build_fpu",
    "build_spring_ring",
]


@dataclass(frozen=True)
class FpuConfig:
    """Alternating soft/stiff chain: l stiff springs, 2l unit masses by default."""

    l: int = 3
    omega_sq: float = 2500.0
    masses: np.ndarray = None

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be at least 1")
        if not self.omega_sq > 0:
            raise ValueError("omega_sq must be positive")
        masses = np.ones(2 * self.l) if self.masses is None else np.asarray(self.masses, dtype=float)
        if masses.shape != (2 * self.l,):
            raise ValueError(f"masses must have length {2 * self.l}")
        if np.any(masses <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "masses", masses)


def _fpu_difference_matrices(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices mapping (q_s, q_f) to the l+1 quartic spring elongations."""
    D_s = np.zeros((l + 1, l))
    D_f = np.zeros((l + 1, l))
    D_s[0, 0] = 1.0
    D_f[0, 0] = -1.0
    for i in range(1, l):
        D_s[i, i] = 1.0
        D_s[i, i - 1] = -1.0
        D_f[i, i] = -1.0
        D_f[i, i - 1] = -1.0
    D_s[l, l - 1] = 1.0
    D_f[l, l - 1] = 1.0
    return D_s, D_f


def build_fpu(config: FpuConfig = None) -> tuple[MultirateSystem, State]:
    """Build the chain system and its reference initial state.

    The default excites the first stiff spring: unit centre displacement and
    velocity, stretch 1/omega with unit stretch velocity, so the oscillatory
    energy of the first stiff spring starts at 1.
    """
    cfg = config or FpuConfig()
    l = cfg.l
    omega_sq = cfg.omega_sq
    D_s, D_f = _fpu_difference_matrices(l)
    mass_slow = np.diag(cfg.masses[:l])
    mass_fast = np.diag(cfg.masses[l:])

    # configurations are row vectors, so leading batch axes pass through
    def elongations(q_s, q_f):
        return q_s @ D_s.T + q_f @ D_f.T

    # powers as products: on a (10, 4) array d ** 3 takes about four times as
    # long as d * d * d (3.3 vs 0.8 us on a 2-vCPU Xeon)
    def slow_potential(q_s, q_f):
        d = elongations(q_s, q_f)
        d2 = d * d
        return 0.25 * np.sum(d2 * d2, axis=-1)

    def slow_potential_grad(q_s, q_f):
        d = elongations(q_s, q_f)
        d3 = d * d * d
        return d3 @ D_s, d3 @ D_f

    D = np.hstack([D_s, D_f])

    def slow_potential_hessian(q_s, q_f):
        # the full (2l, 2l) Hessian D^T diag(w) D in one product, then its blocks
        H = D.T @ (3.0 * elongations(q_s, q_f)[..., :, None] ** 2 * D)
        return H[..., :l, :l], H[..., :l, l:], H[..., l:, l:]

    def fast_potential(q_f):
        return 0.5 * omega_sq * np.sum(q_f * q_f, axis=-1)

    def fast_potential_grad(q_f):
        return omega_sq * q_f

    eye_f = omega_sq * np.eye(l)

    def fast_potential_hessian(q_f):
        return np.zeros(q_f.shape[:-1] + eye_f.shape) + eye_f

    fast_masses = cfg.masses[l:]

    def oscillatory_energy(q_f, v_f):
        return 0.5 * fast_masses * v_f ** 2 + 0.5 * omega_sq * q_f ** 2

    sys = MultirateSystem(
        n_slow=l,
        n_fast=l,
        mass_slow=mass_slow,
        mass_fast=mass_fast,
        slow_potential=slow_potential,
        slow_potential_grad=slow_potential_grad,
        fast_potential=fast_potential,
        fast_potential_grad=fast_potential_grad,
        slow_potential_hessian=slow_potential_hessian,
        fast_potential_hessian=fast_potential_hessian,
        oscillatory_energy=oscillatory_energy,
        name="fpu",
        batched=True,
    )

    omega = float(np.sqrt(omega_sq))
    e1 = np.zeros(l)
    e1[0] = 1.0
    q_slow = e1.copy()
    q_fast = e1 / omega
    v_slow = e1.copy()
    v_fast = e1.copy()
    p_slow, p_fast = momenta_from_velocities(sys, v_slow, v_fast)
    return sys, State(q_slow, q_fast, p_slow, p_fast)


@dataclass(frozen=True)
class SpringRingConfig:
    """Ring of 2l masses with alternating soft/stiff radial springs."""

    l: int = 3
    epsilon: float = 5.0
    omega1: float = 2.0
    omega2: float = 4000.0
    radius: float = 2.0
    depth: float = 2.0
    g_mag: float = 9.81
    masses: np.ndarray = None

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be at least 1")
        for name in ("epsilon", "omega1", "omega2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        masses = np.full(2 * self.l, 2.0) if self.masses is None else np.asarray(self.masses, dtype=float)
        if masses.shape != (2 * self.l,):
            raise ValueError(f"masses must have length {2 * self.l}")
        if np.any(masses <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "masses", masses)


def build_spring_ring(config: SpringRingConfig = None) -> tuple[MultirateSystem, State]:
    """Build the ring system and its reference initial state.

    Odd-numbered masses (soft radial springs) carry the slow variables,
    even-numbered masses (stiff radial springs) the fast variables, each
    concatenated in mass order as 3-vectors.  Gravity acts along -e3 through
    the potential term q^T M g with the per-mass acceleration vector tiled
    over all masses.
    """
    cfg = config or SpringRingConfig()
    l = cfg.l
    n_masses = 2 * l
    n = 3 * l
    eps = cfg.epsilon

    slow_mass_idx = np.arange(0, n_masses, 2)   # masses 1, 3, 5, ... (1-based)
    fast_mass_idx = np.arange(1, n_masses, 2)
    mass_slow = np.diag(np.repeat(cfg.masses[slow_mass_idx], 3))
    mass_fast = np.diag(np.repeat(cfg.masses[fast_mass_idx], 3))

    g_vec = np.array([0.0, 0.0, -cfg.g_mag])
    grav_slow = np.repeat(cfg.masses[slow_mass_idx], 3) * np.tile(g_vec, l)
    grav_fast = np.repeat(cfg.masses[fast_mass_idx], 3) * np.tile(g_vec, l)

    # Ring spring j joins mass j to mass j+1 (mod 2l): edge u_j = Q[j+1] - Q[j].
    # The incidence matrix E takes the stacked coordinates [q_s; q_f] to the
    # edges, and E^T the edge forces back to the masses.  Each edge joins a
    # slow and a fast mass and each mass ends two edges, so every entry of
    # either product is one rounded difference, as by indexing.  E is dense,
    # so a product costs O(l^2) per point: below indexing's call overhead
    # up to rings of some 30 cells, several times it at l = 100.
    j = np.arange(n_masses)
    pos = j // 2 + l * (j % 2)                  # position of mass j in [q_s; q_f]
    nxt = pos[(j + 1) % n_masses]               # ... and of mass j+1
    inc = np.zeros((n_masses, n_masses))
    inc[j, nxt] = 1.0
    inc[j, pos] = -1.0
    eye3 = np.eye(3)
    E = np.kron(inc, eye3)
    diag_s = np.arange(n)

    # ndarray.dot and np.add.reduce: half the overhead of matmul and np.sum
    def edges(q_s, q_f):
        x = np.concatenate((q_s, q_f), axis=-1)
        return x.dot(E.T).reshape(x.shape[:-1] + (n_masses, 3))

    def slow_potential(q_s, q_f):
        u = edges(q_s, q_f)
        ring = 0.25 * eps * np.sum(np.sum(u * u, axis=-1) ** 2, axis=-1)
        radial = 0.5 * cfg.omega1 * np.sum(q_s * q_s, axis=-1)
        gravity = np.sum(grav_slow * q_s, axis=-1) + np.sum(grav_fast * q_f, axis=-1)
        return radial + ring + gravity

    def slow_potential_grad(q_s, q_f):
        u = edges(q_s, q_f)
        su = np.add.reduce(u * u, axis=-1)[..., None] * u     # |u_j|^2 u_j per edge
        # edge j pulls mass j+1 and pushes mass j
        g = eps * su.reshape(q_s.shape[:-1] + (2 * n,)).dot(E)
        return g[..., :n] + cfg.omega1 * q_s + grav_slow, g[..., n:] + grav_fast

    def slow_potential_hessian(q_s, q_f):
        u = edges(q_s, q_f)
        lead = u.shape[:-2]
        Bedge = eps * (2.0 * u[..., :, None] * u[..., None, :]
                       + np.sum(u * u, axis=-1)[..., None, None] * eye3)
        # edge j's block onto its two masses, by position in [q_s; q_f]
        B = np.zeros(lead + (n_masses, n_masses, 3, 3))
        B[..., pos, pos, :, :] += Bedge
        B[..., nxt, nxt, :, :] += Bedge
        B[..., pos, nxt, :, :] -= Bedge
        B[..., nxt, pos, :, :] -= Bedge
        H = np.swapaxes(B, -3, -2).reshape(lead + (2 * n, 2 * n))
        H[..., diag_s, diag_s] += cfg.omega1
        return H[..., :n, :n], H[..., :n, n:], H[..., n:, n:]

    def fast_potential(q_f):
        return 0.5 * cfg.omega2 * np.sum(q_f * q_f, axis=-1)

    def fast_potential_grad(q_f):
        return cfg.omega2 * q_f

    eye_f = cfg.omega2 * np.eye(n)

    def fast_potential_hessian(q_f):
        return np.zeros(q_f.shape[:-1] + eye_f.shape) + eye_f

    sys = MultirateSystem(
        n_slow=n,
        n_fast=n,
        mass_slow=mass_slow,
        mass_fast=mass_fast,
        slow_potential=slow_potential,
        slow_potential_grad=slow_potential_grad,
        fast_potential=fast_potential,
        fast_potential_grad=fast_potential_grad,
        slow_potential_hessian=slow_potential_hessian,
        fast_potential_hessian=fast_potential_hessian,
        name="spring-ring",
        batched=True,
    )

    # circle positions; mass i (1-based) sits at angle (i-1)*pi/l
    angles = np.arange(n_masses) * np.pi / l
    Q0 = np.stack([cfg.radius * np.sin(angles),
                   -cfg.radius * np.cos(angles),
                   np.full(n_masses, -cfg.depth)], axis=1)
    V0 = np.zeros((n_masses, 3))
    if l == 3:
        # initial stretch offsets and velocities of the reference experiment
        Q0[2] += [0.3, 0.3, 0.0]
        Q0[1] += [0.2, -0.2, 0.0]
        Q0[4] += [0.2, -0.3, -0.3]
        Q0[3] += [-0.3, 0.4, 0.0]
        d12 = Q0[0] - Q0[1]
        d12 /= np.linalg.norm(d12)
        d36 = Q0[2] - Q0[5]
        d36 /= np.linalg.norm(d36)
        V0[0] = 5.0 * d12
        V0[1] = -30.0 * d12
        V0[2] = -5.0 * d36
        V0[3] = [50.0, 40.0, -10.0]
        V0[5] = [50.0, 40.0, 10.0]

    q_slow = Q0[slow_mass_idx].ravel()
    q_fast = Q0[fast_mass_idx].ravel()
    p_slow, p_fast = momenta_from_velocities(sys, V0[slow_mass_idx].ravel(), V0[fast_mass_idx].ravel())
    return sys, State(q_slow, q_fast, p_slow, p_fast)
