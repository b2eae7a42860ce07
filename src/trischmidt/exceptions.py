"""Exception types raised across the package."""


class TrischmidtError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TrischmidtError):
    """Shapes, dimensions or party indices do not fit together."""


class NotNormalized(TrischmidtError):
    """A state or vector that must have unit norm does not."""


class NotHermitian(TrischmidtError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NoConvergence(TrischmidtError):
    """An iterative kernel exhausted its budget without converging."""


class ZeroVector(TrischmidtError):
    """An operation that needs a nonzero vector received the zero vector."""


class RankNotOne(TrischmidtError):
    """Construction requires every slice to have Schmidt rank one."""


class Indeterminate(TrischmidtError):
    """The degenerate-eigenspace refinement could not settle the verdict.

    Distinct from a negative verdict: the state was neither accepted nor
    provably rejected.  ``verdict`` is the rejection that could not be made
    sound, with ``decomposable`` None: its analysis is the unrefined one.
    """

    def __init__(self, message, verdict):
        super().__init__(message)
        self.verdict = verdict


class BadWeights(TrischmidtError):
    """Generator weights are empty, non-positive, or too many for the dims."""


class BadDims(TrischmidtError):
    """Generator dimensions are unusable for the requested state family."""
