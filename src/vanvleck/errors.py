"""Exception hierarchy shared by every module of the toolkit.

All numerical-domain failures derive from :class:`VanVleckError` so callers
(and the command line driver) can separate them from programming errors.
"""


class VanVleckError(Exception):
    """Base class for numerical-domain failures."""


class SingularMetric(VanVleckError):
    """Kinetic metric g(x, t) is singular at a queried point."""


class NonSPDMass(VanVleckError):
    """A mass matrix that must be symmetric positive definite is not."""


class NoConvergence(VanVleckError):
    """Newton shooting exhausted its iteration budget."""

    def __init__(self, iterations: int, best_residual: float):
        self.iterations = iterations
        self.best_residual = best_residual
        super().__init__(
            f"shooting did not converge in {iterations} iterations, "
            f"best endpoint residual {best_residual:.3e}"
        )


class SingularShootingJacobian(VanVleckError):
    """The ddx(t_b)/ddv0 matrix became singular during Newton shooting."""


class ConjugatePoint(VanVleckError):
    """The boundary Jacobi matrix is singular: endpoints are conjugate."""


class FocalPoint(VanVleckError):
    """det Bdot(t_a) vanished or changed sign: a focal time was crossed."""


class CausticRegion(VanVleckError):
    """A determinant that must be positive for the principal branch is not."""


class TurningPoint(VanVleckError):
    """The one dimensional velocity vanishes somewhere along the path."""


class NotQuadraticModel(VanVleckError):
    """A route valid only on ``affine_flow`` models got a model without it."""


class NonConstantMetric(VanVleckError):
    """An operation that assumes a constant kinetic metric got one that
    depends on position."""


class VectorPotentialPresent(VanVleckError):
    """An operation restricted to a zero magnetic field (the antisymmetric
    part of the vector potential's gradient) met a nonzero one."""


class SeriesDivergence(VanVleckError):
    """Iterated-integral series terms stopped decreasing at this horizon."""


class NonFiniteResult(VanVleckError):
    """A value a report must carry is infinite or NaN."""


class ConfigError(VanVleckError):
    """Invalid configuration document handed to the command line driver."""
