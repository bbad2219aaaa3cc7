"""Exception hierarchy.

Every anticipated failure of a library operation derives from DomainError so
the CLI can map them to a dedicated exit status; genuine misuse (bad argument
grammar) stays a plain TypeError/usage error.
"""


class DomainError(ValueError):
    """Input is well-formed but outside the operation's mathematical domain."""


class OutOfRangeError(DomainError):
    """Power index or vertex index outside the valid range for the figure."""


class InvalidAverageError(DomainError):
    """Supplied averages violate a structural inequality (e.g. S2 < R^2)."""


class NegativeDiscriminantError(DomainError):
    """Recovery discriminant is negative: the averages are inconsistent."""


class UnattainableError(DomainError):
    """Requested first distance cannot occur for the given R and L."""


class InconsistentDistancesError(DomainError):
    """A distance multiset fails the cross-checks of a recovery formula."""


class DegenerateQuarticError(DomainError):
    """Quartic witness undefined: fourth-power average collapses onto S2^2."""


class NoCertificateFoundError(DomainError):
    """Certificate search exhausted its budget without a sound conclusion."""


class NonRationalInputError(DomainError):
    """Operation requires exact rational inputs."""


class InexactSqrtError(DomainError):
    """Exact backend needed a square root that is not rational."""


class MixedRadicandError(DomainError):
    """Arithmetic combined two different irrational radicands."""


class NoAntipodesError(DomainError):
    """Figure has no diametrically opposite vertex pairs (tetrahedron)."""
