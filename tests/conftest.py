import numpy as np
import pytest

from multirate import MultirateSystem, SolverConfig, State, build_fpu, build_spring_ring


@pytest.fixture(scope="session")
def fpu():
    return build_fpu()


@pytest.fixture(scope="session")
def spring_ring():
    return build_spring_ring()


@pytest.fixture
def config():
    return SolverConfig(newton_tol=1e-11)


def make_free_particle():
    """1 slow + 1 fast degree of freedom, no potentials."""
    z1 = np.zeros(1)
    z11 = np.zeros((1, 1))
    return MultirateSystem(
        n_slow=1, n_fast=1, mass_slow=np.eye(1), mass_fast=2.0 * np.eye(1),
        slow_potential=lambda qs, qf: 0.0,
        slow_potential_grad=lambda qs, qf: (z1, z1),
        fast_potential=lambda qf: 0.0,
        fast_potential_grad=lambda qf: z1,
        slow_potential_hessian=lambda qs, qf: (z11, z11, z11),
        fast_potential_hessian=lambda qf: z11,
        name="free",
    )


def make_coupled_toy(omega_sq=25.0, m_fast=2.0):
    """1 slow + 1 fast DOF with a quartic coupling and a stiff fast spring."""
    def V(qs, qf):
        return 0.25 * float((qs[0] - qf[0]) ** 4) + 0.5 * float(qs[0] ** 2)

    def gradV(qs, qf):
        c = (qs[0] - qf[0]) ** 3
        return np.array([c + qs[0]]), np.array([-c])

    def hessV(qs, qf):
        c = 3.0 * (qs[0] - qf[0]) ** 2
        return np.array([[c + 1.0]]), np.array([[-c]]), np.array([[c]])

    return MultirateSystem(
        n_slow=1, n_fast=1, mass_slow=np.eye(1), mass_fast=m_fast * np.eye(1),
        slow_potential=V, slow_potential_grad=gradV,
        fast_potential=lambda qf: 0.5 * omega_sq * float(qf[0] ** 2),
        fast_potential_grad=lambda qf: omega_sq * qf,
        slow_potential_hessian=hessV,
        fast_potential_hessian=lambda qf: omega_sq * np.eye(1),
        name="toy",
    )


def make_harmonic_slow(omega_s):
    """Harmonic oscillator in the slow variable; decoupled free fast DOF.

    Matches the setting of the linear stability analysis: the interpolated
    variable feels V(q) = omega_s^2 q^2 / 2, the fast block carries no forces.
    """
    w2 = omega_s ** 2
    z1 = np.zeros(1)
    z11 = np.zeros((1, 1))
    return MultirateSystem(
        n_slow=1, n_fast=1, mass_slow=np.eye(1), mass_fast=np.eye(1),
        slow_potential=lambda qs, qf: 0.5 * w2 * float(qs @ qs),
        slow_potential_grad=lambda qs, qf: (w2 * qs, z1),
        fast_potential=lambda qf: 0.0,
        fast_potential_grad=lambda qf: z1,
        slow_potential_hessian=lambda qs, qf: (w2 * np.eye(1), z11, z11),
        fast_potential_hessian=lambda qf: z11,
        name="harmonic-slow",
    )


def make_fast_only(n_fast=2):
    """No slow variables; quartic-plus-harmonic fast potential."""
    z = np.zeros
    return MultirateSystem(
        n_slow=0, n_fast=n_fast, mass_slow=np.eye(0), mass_fast=np.diag(np.arange(1.0, n_fast + 1)),
        slow_potential=lambda qs, qf: 0.0,
        slow_potential_grad=lambda qs, qf: (z(0), z(n_fast)),
        fast_potential=lambda qf: 0.25 * float(np.sum(qf ** 4)) + 0.5 * float(qf @ qf),
        fast_potential_grad=lambda qf: qf ** 3 + qf,
        slow_potential_hessian=lambda qs, qf: (z((0, 0)), z((0, n_fast)), z((n_fast, n_fast))),
        fast_potential_hessian=lambda qf: np.diag(3.0 * qf ** 2 + 1.0),
        name="fast-only",
    ), State(z(0), np.linspace(-0.2, 0.3, n_fast), z(0), np.full(n_fast, 0.4))


def make_slow_only(n_slow=2):
    """No fast variables; quartic slow potential."""
    z = np.zeros
    return MultirateSystem(
        n_slow=n_slow, n_fast=0, mass_slow=np.diag(np.arange(1.0, n_slow + 1)), mass_fast=np.eye(0),
        slow_potential=lambda qs, qf: 0.25 * float(np.sum(qs ** 4)),
        slow_potential_grad=lambda qs, qf: (qs ** 3, z(0)),
        fast_potential=lambda qf: 0.0,
        fast_potential_grad=lambda qf: z(0),
        slow_potential_hessian=lambda qs, qf: (np.diag(3.0 * qs ** 2), z((n_slow, 0)), z((0, 0))),
        fast_potential_hessian=lambda qf: z((0, 0)),
        name="slow-only",
    ), State(np.linspace(0.3, -0.1, n_slow), z(0), np.full(n_slow, 0.1), z(0))


@pytest.fixture
def fast_only():
    return make_fast_only()


@pytest.fixture
def slow_only():
    return make_slow_only()


@pytest.fixture
def free_particle():
    return make_free_particle()


@pytest.fixture
def toy_coupled():
    return make_coupled_toy()


def toy_state():
    return State([0.3], [0.1], [-0.2], [0.4])
