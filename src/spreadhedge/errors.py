"""Exception types shared across the library."""


class SpreadHedgeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SpreadHedgeError):
    """Input document is not syntactically valid."""


class ValidationError(SpreadHedgeError):
    """Input parses but violates a structural invariant."""


class UnknownNode(SpreadHedgeError):
    """A node id does not exist in the tree."""


class NotAnAntichain(SpreadHedgeError):
    """A node set contains a strict ancestor of one of its members."""


class ShapeMismatch(SpreadHedgeError):
    """An object is not indexed by the nodes of the tree it is used with."""


class BadFriction(SpreadHedgeError):
    """Friction parameters out of range (e.g. target rate above the source rate)."""


class BadFrictionGap(SpreadHedgeError):
    """Bridge rate is not strictly inside the required friction gap."""


class UnverifiedInput(SpreadHedgeError):
    """An input price system failed verification at its declared friction."""


class MismatchedTrees(SpreadHedgeError):
    """Two node-indexed objects do not live on the same tree."""


class PreconditionViolated(SpreadHedgeError):
    """A stated hypothesis of the check does not hold for the given inputs."""


class TooLarge(SpreadHedgeError):
    """Instance exceeds the size the exhaustive routine accepts."""


class NumericalBreakdown(SpreadHedgeError):
    """Solver lost numerical control (persistently tiny pivots or a bad factorization)."""


class CertificateFailure(SpreadHedgeError):
    """A computed object failed its own post-hoc certificate."""


class DualInfeasible(SpreadHedgeError):
    """No consistent price system exists: the market admits arbitrage at this friction."""
