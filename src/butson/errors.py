"""Exception hierarchy shared across the package, and the memory bound behind `TooLarge`.

`_check_fits` lives here, next to the error it raises, so that `rings` and
`sums` can bound their arrays without importing `groups` and numpy.
"""

import os


class ButsonError(Exception):
    """Base class for all errors raised by this package."""


class OrderMismatch(ButsonError):
    """Two cyclotomic values with different root orders were combined."""


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


class NotAUnit(ButsonError):
    """Inverse requested for a non-unit ring element."""


class UnsupportedRing(ButsonError):
    """Ring parameters outside the supported families or constructions."""


class InvalidParams(ButsonError):
    """Parameters of a builder, a sum, the building blocks or an array are out of range."""


class BadH(ButsonError):
    """Root order h is incompatible with the group order."""


class WrongSubgroupOrder(ButsonError):
    """The normal cyclic subgroup does not have the required order."""


class NotNormal(ButsonError):
    """The chosen cyclic subgroup is not normal."""


class UnsupportedAction(ButsonError):
    """No deal of construction 1's blocks to the cosets suits how they act on the subgroup."""


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


class TooLarge(ButsonError):
    """An array the input asks for would not fit in the machine's physical memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, e.g. on Windows
        return None
    return pages * size if pages > 0 and size > 0 else None  # -1: indeterminate


def _check_fits(n: int, what: str) -> None:
    """Refuse `what`, an (n, n) array of 8-byte entries, if it exceeds physical memory."""
    phys = _physical_memory()
    if phys is not None and n * n * 8 > phys:
        raise TooLarge(f"{what} would not fit in physical memory")
