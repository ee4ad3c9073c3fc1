"""Exception types shared across the package."""


class DiskApproxError(Exception):
    """Base class for every error raised by this library."""


class IdOutOfRange(DiskApproxError):
    pass


class SelfLoop(DiskApproxError):
    pass


class NotConnected(DiskApproxError):
    pass


class NonPositiveRadius(DiskApproxError):
    pass


class BadParameter(DiskApproxError):
    pass


class ModelMismatch(DiskApproxError):
    pass


class ClassCertificateError(DiskApproxError):
    """The input lies outside the graph class a guarantee assumes.

    ``witness`` carries the vertices that certify the violation, so a
    caller can inspect why the input was rejected.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class MinDegreeExceeded(ClassCertificateError):
    """Some induced subgraph has minimum degree above the peeling bound."""


class NoEligibleVertex(ClassCertificateError):
    """No remaining vertex has a small enough neighborhood independence number."""


class InducedStar(ClassCertificateError):
    """A vertex has six pairwise non-adjacent neighbors: an induced K_{1,6},
    which no unit disk graph contains."""


class IsolatedVertex(DiskApproxError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} is isolated")
        self.vertex = vertex


class TooLarge(DiskApproxError):
    pass


class Timeout(DiskApproxError):
    pass


class ParseError(DiskApproxError):
    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason
