"""Exception types shared across the package."""


class ArtinKitError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ArtinKitError):
    """Malformed diagram or element text. Carries the 1-based line number."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class LabelError(ArtinKitError):
    """An explicit edge label below 3 (label 2 is expressed by omitting the edge)."""


class NotConnected(ArtinKitError):
    """Operation requires a connected diagram."""


class InfiniteLabel(ArtinKitError):
    """Operation requires all edge labels finite."""


class SubgraphNotInDiagram(ArtinKitError):
    """A vertex set refers to vertices outside the diagram."""


class NotATree(ArtinKitError):
    """Operation requires the diagram to be a tree."""


class EdgeNotInDiagram(ArtinKitError):
    """An edge reference does not match any edge of the diagram."""


class UnknownGenerator(ArtinKitError):
    """A word uses a letter that is not a vertex of the diagram."""


class CapExceeded(ArtinKitError):
    """Enumeration exceeded the caller-supplied cap. `needed` is the size
    that would suffice, when it is known."""

    def __init__(self, cap, needed=None):
        super().__init__(f"enumeration exceeded cap {cap}" if needed is None
                         else f"enumeration needs {needed:,} > {cap:,} elements")
        self.cap = cap
        self.needed = needed


class NotSpherical(ArtinKitError):
    """Operation requires a diagram whose Coxeter group is finite."""


class NotPositive(ArtinKitError):
    """Operation requires positive elements (nonnegative Garside power)."""


class GroupMismatch(ArtinKitError):
    """Operands live over different diagrams."""


class PreconditionFailed(ArtinKitError):
    """A documented operation precondition does not hold for the inputs."""


class InvariantViolated(ArtinKitError):
    """A mathematical invariant of a computation failed: a fault in the
    program or its tables, never in the input."""


class BoundTooLarge(ArtinKitError):
    """Resource guard: the requested enumeration does not fit the chamber cap."""

    def __init__(self, limit, detail=""):
        msg = f"enumeration does not fit within max_chambers={limit}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.limit = limit


class InvalidFolding(ArtinKitError):
    """A folding fails the structural conditions."""


class VertexNotInner(ArtinKitError):
    """Link extraction requires an inner vertex."""


class NotAdmissible(ArtinKitError):
    """The selected type subgraph is not admissible in the ambient diagram."""


class SearchBudgetExceeded(ArtinKitError):
    """A bounded search ran out of budget before reaching a decision."""

    def __init__(self, budget):
        super().__init__(f"search budget {budget} exhausted")
        self.budget = budget
