"""Exception types shared across the package."""


class IntervalDivisionError(ZeroDivisionError):
    """Divisor interval contains zero; caller decides whether this means a collision."""


class DomainError(ValueError):
    """Argument interval lies outside the domain of the requested function."""


class ShapeError(ValueError):
    """Interval matrix/vector shapes do not conform."""


class CollisionPossible(ValueError):
    """A pairwise distance enclosure contains zero, so the expression is singular on the box."""


class SingularMidpoint(ValueError):
    """Midpoint Jacobian is zero, not finite, singular to `np.linalg.inv` or
    so ill-conditioned that its inverse exceeds `krawczyk.GROWTH_MAX`."""


class RefusedUnequalMasses(ValueError):
    """The requested normalization is only valid for equal masses."""
