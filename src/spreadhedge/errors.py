"""Exception types shared across the library."""


class SpreadHedgeError(Exception):
    """Base class for every error raised by this package.

    ``reason`` names the domain finding an error is (the CLI's exit-2
    ``reason``); ``None`` means unusable input."""

    reason: str | None = None


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

    reason = "cps_invalid"


class MismatchedTrees(SpreadHedgeError):
    """Two node-indexed objects do not live on the same tree."""


class PreconditionViolated(SpreadHedgeError):
    """A stated hypothesis of the check does not hold for the given inputs."""

    reason = "certificate_failure"


class NumericalBreakdown(SpreadHedgeError):
    """Solver lost numerical control (persistently tiny pivots or a bad factorization)."""


class CertificateFailure(SpreadHedgeError):
    """A computed object failed its own post-hoc certificate."""

    reason = "certificate_failure"


class DualInfeasible(SpreadHedgeError):
    """No consistent price system exists: the market admits arbitrage at this friction."""

    reason = "dual_infeasible"
