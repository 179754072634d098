"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(Error):
    """A parameter is outside its documented domain."""


def check_k(k) -> int:
    """k as an int; InvalidParam unless it is a positive integer (an
    integral float such as 2.0 counts)."""
    try:
        valid = int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise InvalidParam(f"k must be a positive integer, got {k!r}")
    return int(k)


class EmptyGraph(Error):
    """The graph has no edges where at least one is required."""


class NotBiregular(Error):
    """Some vertex degree deviates from the claimed biregular profile."""

    def __init__(self, vertex, expected, actual):
        self.vertex = vertex
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"vertex {vertex} has degree {actual}, expected {expected}"
        )


class DegreeEquationViolated(InvalidParam):
    """a*|X| != b*|Y|, so no (a,b)-biregular graph on these parts exists."""


class RetriesExhausted(Error):
    """Rejection sampling failed to produce a simple graph within the retry budget."""


class IndexOutOfRange(InvalidParam):
    """An edge endpoint or vertex index is outside its part."""


class DuplicateEdge(InvalidParam):
    """The same (x, y) pair appears more than once."""


class ParseError(InvalidParam):
    """Malformed text input."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class PartMismatch(InvalidParam):
    """A vertex belongs to the wrong side of the bipartition for this operation."""


class ConvergenceFailure(Error):
    """The LAPACK singular value decomposition did not converge."""


class TooLarge(Error):
    """Input exceeds a hard enumeration guard."""


class TooSmall(Error):
    """Input is below the minimum size the operation is defined for."""


class MixingViolation(Error):
    """A mixing inequality failed; this signals an implementation bug."""

    def __init__(self, a_side, b_side, lhs, rhs):
        self.a_side = a_side
        self.b_side = b_side
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"mixing bound violated: lhs={lhs!r} > rhs={rhs!r}")


class AuditUnsound(Error):
    """A certified property was contradicted by its exact oracle."""

    def __init__(self, record, seed):
        self.record = record
        self.seed = seed
        super().__init__(
            f"unsound record {record!r}; reproduce with seed {seed}"
        )


class UsageError(InvalidParam):
    """Bad command-line usage."""
