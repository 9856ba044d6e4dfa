"""Exception types shared across the package, and the base of its
immutable value classes."""


class Immutable:
    """Base of the package's value classes: an instance refuses attribute
    assignment, so its constructor sets each slot with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class LcpError(Exception):
    """Base class for every error raised by this package."""


class InputError(LcpError, ValueError):
    """Malformed parameters, text grammar, or JSON payloads."""


class ReduciblePolynomialError(LcpError, ValueError):
    """A polynomial required to be irreducible has a proven factor."""


class InconclusiveIrreducibilityError(LcpError):
    """Irreducibility could be neither proven nor refuted by the heuristics.

    field_new refuses such a polynomial; a caller that knows it irreducible
    builds NumberField(poly, witness) and names the reason in the witness.
    """


class NonUnitError(LcpError, ValueError):
    """An element required to be an algebraic unit is not one."""


class NonIntegralError(LcpError, ValueError):
    """An element required to have integer coordinates does not."""


class PrecisionError(LcpError):
    """A numeric decision stayed unstable after precision escalation."""


class NeedsEscalation(LcpError):
    """Internal signal: enclosures too wide at this precision, retry higher.

    Each escalation loop chooses its own next precision.
    """


class StructureError(LcpError):
    """Input matrices or groups lack the structure a pipeline requires
    (commutation, diagonalizability, spectral shape, lattice rank)."""


class CheckFailureError(LcpError):
    """A verification check failed where the pipeline cannot continue."""
