"""Shared exception types."""


class StabsymError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(StabsymError):
    """An enumeration or search would exceed the configured size/time cap."""


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
