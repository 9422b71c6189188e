"""Exception hierarchy shared by all chaintop modules."""


class ChainTopError(Exception):
    """Base class for every error raised by this package."""


class AxiomViolation(ChainTopError):
    """An order axiom fails; carries the axiom name and a witness pair."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}")


class IndexOutOfRange(ChainTopError):
    pass


class CapExceeded(ChainTopError):
    """An exhaustive (2^n) computation was requested above its size cap."""

    def __init__(self, n, cap):
        self.n = n
        self.cap = cap
        super().__init__(f"size {n} exceeds exhaustive cap {cap}")


class NotAChain(ChainTopError):
    pass


class CarrierMismatch(ChainTopError):
    pass


class NotALattice(ChainTopError):
    pass


class NotATopology(ChainTopError, ValueError):
    """A set family or neighbourhood vector that is not a topology."""


class NotOpen(ChainTopError):
    pass


class UnknownCatalogId(ChainTopError):
    pass


class MalformedElement(ChainTopError):
    pass


class NotStrictlyOrdered(ChainTopError):
    pass


class SampleTooLarge(ChainTopError):
    pass


class NotLowerSet(ChainTopError):
    pass


class PointInsideA(ChainTopError):
    pass


class NotClosed(ChainTopError):
    pass


class UnknownTarget(ChainTopError):
    pass


class CoverageGap(ChainTopError):
    """A selected suite claim ran zero instances."""


class ParseError(ChainTopError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SchemaError(ChainTopError):
    def __init__(self, message, path=""):
        self.path = path
        if path:
            message = f"{message} (at {path})"
        super().__init__(message)
