"""Shared exception types and the int64 overflow bound."""

from math import prod


class StabsymError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(StabsymError):
    """An enumeration or search would exceed the configured size/time cap."""


def fits_int64(terms, *bounds):
    """Whether every sum of at most `terms` products, each of one factor of
    absolute value <= b for every b in bounds, has absolute value below 2^63,
    so that int64 computes it, and each of its partial sums, exactly.  The
    product is taken over Python ints, so numpy scalars cannot wrap it."""
    return prod(map(int, bounds), start=int(terms)) < 2 ** 63


def guard_int64(terms, bound, k):
    """Raise BudgetExceeded unless a sum of `terms` products of k factors of
    absolute value <= bound fits the int64 numpy arrays it is computed in."""
    if not fits_int64(terms, *(bound,) * k):
        raise BudgetExceeded(
            f"{terms} products of {k} entries up to {bound} may overflow int64"
        )


class SingularMatrix(StabsymError):
    """Matrix inversion requested for a rank-deficient matrix."""


class ConductorTooSmall(StabsymError):
    """The cyclotomic field does not contain the requested element."""


class Unsupported(StabsymError):
    """The arguments name a case the library does not implement (the CLI's
    usage error)."""


class OddOnly(Unsupported):
    """Operation is defined only for odd prime d."""


class InconsistentSigns(StabsymError):
    """Qubit sign data does not describe a valid stabilizer group."""


class WordDecompositionFailure(StabsymError):
    """The matrix S given to the metaplectic section is not in SL(2, d)."""


class Mismatch(StabsymError):
    """A verification found a counterexample; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotBasisPreserving(StabsymError):
    """A permutation breaks the n=1 basis partition (signals a Gram bug)."""


class SearchTimeout(StabsymError):
    """Automorphism search hit its time budget; carries how far it got: the
    nodes visited, the depth of the node it stopped at and the partial group
    (None before the first leaf), and prints them."""

    def __init__(self, message, partial=None, nodes=None, depth=None):
        progress = []
        if nodes is not None:
            progress.append(f"{nodes} nodes visited")
        if depth is not None:
            progress.append(f"depth {depth}")
        if partial is not None:
            progress.append(f"partial order {partial.order()}")
        super().__init__(f"{message} ({', '.join(progress)})" if progress else message)
        self.partial = partial
        self.nodes = nodes
        self.depth = depth
