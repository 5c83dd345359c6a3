"""Exception hierarchy shared across the package."""


class ButsonError(Exception):
    """Base class for all errors raised by this package."""


class OrderMismatch(ButsonError):
    """Two cyclotomic values with different root orders were combined."""


class NotOdd(ButsonError):
    """Gauss sums are only defined for odd n."""


class NoDecomposition(ButsonError):
    """No vanishing sum of the requested length exists."""


class NoSolution(ButsonError):
    """No unit sum of the requested length exists (or search cap hit)."""


class InvalidAction(ButsonError):
    """Semidirect product action t does not satisfy t^k = 1 mod m."""


class NotAGroup(ButsonError):
    """A Cayley table failed the group axioms."""


class NotASubgroup(ButsonError):
    """The given element set is not a subgroup."""


class NotAbelian(ButsonError):
    """Character machinery requires an abelian group in factor form."""


class GroupMismatch(ButsonError):
    """Group-ring operands live over different groups."""


class NotAUnit(ButsonError):
    """Inverse requested for a non-unit ring element."""


class UnsupportedRing(ButsonError):
    """Ring parameters outside the supported families or constructions."""


class InvalidParams(ButsonError):
    """Parameters of a builder, a sum or the building blocks are out of range."""


class BadH(ButsonError):
    """Root order h is incompatible with the group order."""


class WrongSubgroupOrder(ButsonError):
    """The normal cyclic subgroup does not have the required order."""


class NotNormal(ButsonError):
    """The chosen cyclic subgroup is not normal."""


class BadT(ButsonError):
    """Partition parameter t outside 1..d."""


class BadEtaSum(ButsonError):
    """The supplied roots of unity do not sum to zero."""


class NoScheme(ButsonError):
    """No coefficient scheme exists for the requested ring and h."""


class SchemeViolation(ButsonError):
    """A coefficient failed to collapse to a single root of unity."""


class NonUnimodular(ButsonError):
    """A group-ring element has a coefficient that is not a root of unity."""


class NotAbelianFactored(ButsonError):
    """Array export needs an abelian group in explicit factor form."""


class SelfCheckFailed(ButsonError):
    """A constructor's exact check of its own output failed."""
