from __future__ import annotations

import numpy as np
import pytest

from vanvleck import LagrangianModel, one_dim_potential


def make_quartic(mass: float = 1.0, hbar: float = 1.0):
    """Anharmonic 1D benchmark V(x) = x^4 / 4 with analytic derivatives."""
    return one_dim_potential(
        potential=lambda x, t: 0.25 * x ** 4,
        potential_grad=lambda x, t: x ** 3,
        potential_hess=lambda x, t: 3.0 * x * x,
        mass=mass,
        hbar=hbar,
        label="quartic",
    )


def make_polar_free_particle(mass: float = 1.0, hbar: float = 1.0):
    """Free particle in plane polar coordinates q = (r, phi).

    g = diag(m, m r^2) depends on position, so this model runs the
    ``kinetic_gradients_constant=False`` branch of the linearization.
    """
    zero2 = np.zeros(2)
    zero22 = np.zeros((2, 2))

    def metric_grad(q, t):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * mass * q[0]
        return dg

    return LagrangianModel(
        dim=2,
        metric=lambda q, t: np.diag([mass, mass * q[0] ** 2]),
        metric_grad=metric_grad,
        vector_potential=lambda q, t: zero2,
        vector_potential_grad=lambda q, t: zero22,
        potential=lambda q, t: 0.0,
        potential_grad=lambda q, t: zero2,
        potential_hess=lambda q, t: zero22,
        hbar=hbar,
        label="polar_free_particle",
    )


@pytest.fixture
def quartic():
    return make_quartic()


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.3 * np.eye(dim)


CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    CRITERION_LINES.append(f"[criterion-{number}] {verdict} {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
