"""Exception types shared across the package."""


class AealError(Exception):
    """Base class for all package errors; the CLI exits with exit_code."""

    exit_code = 1  # an input error


class NumericFailure(AealError):
    """Base class of the failures of a computation on well-formed input."""

    exit_code = 3


# -- dataset ingestion / views ------------------------------------------------

class MissingId(AealError):
    """The declared identifier column is absent from a CSV file."""


class DuplicateId(AealError):
    """The same identifier occurs twice within one file."""


class MalformedCsv(AealError):
    """A CSV row has the wrong number of cells, or a cell is not a finite number."""


class RankDeficientView(NumericFailure):
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


class UnknownFamily(AealError, ValueError):
    """A loss-family name or sharpness that parse_family cannot build."""


# -- solver -------------------------------------------------------------------

class SingularHessian(NumericFailure):
    """Newton system not positive definite: a rank-deficient design, ridge 0 or tiny."""


class SolverFailure(NumericFailure):
    """An inner minimization did not converge."""


# -- sketching / privacy ------------------------------------------------------

class BadDimensions(AealError):
    """Projection dimensions violate 1 <= t <= p_B."""


class BadEpsilon(AealError):
    """Privacy budget must be strictly positive."""


class BadFlipProb(AealError):
    """Randomized-response flip probability must lie in (0, 0.5)."""


# -- screening ----------------------------------------------------------------

class RankDeficientAugmented(NumericFailure):
    """Augmented screening design is rank deficient."""


class SingularCovarianceBlock(NumericFailure):
    """The tested covariance block is not positive definite."""


# -- statistics ---------------------------------------------------------------

class DomainError(NumericFailure):
    """Argument outside a function's mathematical domain."""


class OneClassOnly(NumericFailure):
    """AUC needs both classes present."""


# -- protocol / transport -----------------------------------------------------

class DimensionMismatch(AealError):
    """Vector lengths disagree between the two agents."""


class TransportFailure(AealError):
    """The channel failed mid-session."""

    exit_code = 2


class ProtocolError(AealError):
    """Malformed, unexpected, or version-incompatible message."""

    exit_code = 2


class SingularVariance(NumericFailure):
    """Per-agent sandwich variance could not be formed."""
