"""Exception types shared across the package."""


class LcpError(Exception):
    """Base class for every error raised by this package."""


class InputError(LcpError, ValueError):
    """Malformed parameters, text grammar, or JSON payloads."""


class ReduciblePolynomialError(LcpError, ValueError):
    """A polynomial required to be irreducible has a proven factor."""


class InconclusiveIrreducibilityError(LcpError):
    """Irreducibility could be neither proven nor refuted by the heuristics.

    Callers may retry with force=True, which records the gap in the field's
    irreducibility witness instead of silently assuming the answer.
    """


class NotCyclicError(LcpError):
    """A field map does not return to the identity within the field degree."""


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
