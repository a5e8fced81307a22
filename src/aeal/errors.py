"""Exception types shared across the package."""


class AealError(Exception):
    """Base class for all package errors."""


# -- dataset ingestion / views ------------------------------------------------

class MissingId(AealError):
    """The declared identifier column is absent from a CSV file."""


class DuplicateId(AealError):
    """The same identifier occurs twice within one file."""


class MalformedCsv(AealError):
    """A CSV row has the wrong number of cells, or a cell is not a finite number."""


class RankDeficientView(AealError):
    """An owner's design matrix is numerically rank deficient."""

    def __init__(self, owner, column):
        self.owner = owner
        self.column = column
        super().__init__(f"design of owner {owner} is rank deficient at column {column!r}")


# -- loss families ------------------------------------------------------------

class UnsupportedResponse(AealError):
    """Response value outside the loss family's support."""


class NotAGlm(AealError):
    """Operation requires a likelihood-backed family."""


# -- solver -------------------------------------------------------------------

class SingularHessian(AealError):
    """Newton system singular with no ridge term; signals rank deficiency."""


class SolverFailure(AealError):
    """An inner minimization did not converge."""


# -- sketching / privacy ------------------------------------------------------

class BadDimensions(AealError):
    """Projection dimensions violate 1 <= t <= p_B."""


class BadEpsilon(AealError):
    """Privacy budget must be strictly positive."""


class BadFlipProb(AealError):
    """Randomized-response flip probability must lie in (0, 0.5)."""


# -- screening ----------------------------------------------------------------

class RankDeficientAugmented(AealError):
    """Augmented screening design is rank deficient."""


class SingularCovarianceBlock(AealError):
    """The tested covariance block is not positive definite."""


# -- statistics ---------------------------------------------------------------

class DomainError(AealError):
    """Argument outside a function's mathematical domain."""


class OneClassOnly(AealError):
    """AUC needs both classes present."""


# -- protocol / transport -----------------------------------------------------

class DimensionMismatch(AealError):
    """Vector lengths disagree between the two agents."""


class TransportFailure(AealError):
    """The channel failed mid-session."""


class ProtocolError(AealError):
    """Malformed, unexpected, or version-incompatible message."""


class SingularVariance(AealError):
    """Per-agent sandwich variance could not be formed."""
