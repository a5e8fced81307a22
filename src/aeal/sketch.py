"""B-side release mechanisms: random projections, clipping, Laplace noising,
and randomized-response masking of binary labels.

The projection matrix stays local to B (only the projected data is ever
transmitted); the Laplace scale 2 * t * c2 / epsilon gives epsilon-local
differential privacy per row once rows are norm-clipped at c2.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimensions, BadEpsilon, BadFlipProb


@dataclass(frozen=True)
class SketchOffer:
    """B's release and its wire message: projected (optionally noised) covariates,
    less the rows_excluded that clipping dropped. p_b is never serialized.
    """

    projected: np.ndarray
    t: int
    noised: bool = False
    epsilon: float = None
    c2: float = None
    rows_excluded: tuple = ()
    p_b: int = field(default=None, repr=False)

    def __post_init__(self):
        # column-major: the screen reads the sketch by columns
        arr = np.array(self.projected, dtype=float, order="F")
        arr.flags.writeable = False
        object.__setattr__(self, "projected", arr)
        if arr.ndim != 2 or arr.shape[1] != self.t or self.t < 1:
            raise BadDimensions("projected matrix must be n x t with t >= 1")
        if self.p_b is not None and self.t > self.p_b:
            raise BadDimensions("t cannot exceed the number of B's columns")
        if self.noised and (self.epsilon is None or self.c2 is None):
            raise ValueError("noised sketches must record epsilon and the clip bound")
        excluded, rows = self.rows_excluded, self.n + len(self.rows_excluded)
        if len(set(excluded)) != len(excluded) or not all(0 <= i < rows for i in excluded):
            raise ValueError("excluded rows must be distinct rows of the sketched data")

    @property
    def n(self):
        return self.projected.shape[0]


SketchPackage = SketchOffer


@dataclass(frozen=True)
class MaskedResponse:
    y_prime: np.ndarray
    flip_prob: float

    def __post_init__(self):
        arr = np.array(self.y_prime, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "y_prime", arr)
        if not 0.0 < self.flip_prob < 0.5:
            raise BadFlipProb("flip probability must lie strictly in (0, 0.5)")

    @property
    def implied_epsilon(self):
        """Smallest epsilon for which the flip satisfies epsilon-LDP: p' >= 1/(1+e^eps)."""
        return float(np.log((1.0 - self.flip_prob) / self.flip_prob))


def make_projection(p_b, t, rng):
    """Draw a p_b x t matrix whose columns are independent uniform unit vectors
    (standard normal draws normalized to unit l2 norm)."""
    if not 1 <= t <= p_b:
        raise BadDimensions(f"need 1 <= t <= p_b, got t={t}, p_b={p_b}")
    U = rng.standard_normal((p_b, t))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return U


def project(X_b, U):
    """Sketch X_b through the projection matrix."""
    X_b = np.asarray(X_b, dtype=float)
    return X_b @ np.asarray(U, dtype=float)


def clip_rows(X_b, c2):
    """Keep rows with l2 norm <= c2 (boundary inclusive); report the rest."""
    X_b = np.asarray(X_b, dtype=float)
    norms = np.linalg.norm(X_b, axis=1)
    keep = norms <= c2
    excluded = tuple(int(i) for i in np.nonzero(~keep)[0])
    return X_b[keep], excluded


def laplace_matrix(shape, scale, rng):
    """Inverse-CDF Laplace(0, scale) draws; exact and reproducible under seeding."""
    h = rng.uniform(size=shape) - 0.5
    return -scale * np.sign(h) * np.log1p(-2.0 * np.abs(h))


def laplace_scale(epsilon, c2, t):
    """The per-entry noise scale 2*t*c2/epsilon of the release mechanism."""
    if epsilon is None or epsilon <= 0:
        raise BadEpsilon("epsilon must be positive")
    if c2 is None or c2 <= 0:
        raise BadEpsilon("clip bound must be positive")
    return 2.0 * t * c2 / epsilon


def make_sketch(X_b, t, rng, noise_scale=0.0, epsilon=None, c2=None):
    """Convenience constructor used by the simulation harness and the agent CLI.

    Rows with norm over c2 are dropped (rows_excluded) and c2 is recorded,
    noised or not. Either pass epsilon for a privacy-calibrated release, or
    noise_scale to add Laplace noise of a raw scale (the implied epsilon is
    recorded so the offer's invariant holds); a noised release without c2
    takes the max row norm, which clips no row. noise_scale=0 with no
    epsilon produces a clean sketch.
    """
    X_b = np.asarray(X_b, dtype=float)
    p_b = X_b.shape[1]
    U = make_projection(p_b, t, rng)
    noised = epsilon is not None or noise_scale > 0.0
    excluded = ()
    if c2 is not None:
        if not c2 > 0:
            raise BadEpsilon("clip bound must be positive")
        c2 = float(c2)
        X_b, excluded = clip_rows(X_b, c2)
    elif noised:  # the max row norm clips no row
        c2 = float(np.max(np.linalg.norm(X_b, axis=1)))
    M = project(X_b, U)
    if not noised:
        return SketchOffer(projected=M, t=t, c2=c2, rows_excluded=excluded, p_b=p_b)
    # scale * epsilon = 2 t c2, so one formula gives either from the other
    if epsilon is None:
        scale, epsilon = noise_scale, laplace_scale(noise_scale, c2, t)
    else:
        scale = laplace_scale(epsilon, c2, t)
    return SketchOffer(projected=M + laplace_matrix(M.shape, scale, rng), t=t, noised=True,
                       epsilon=float(epsilon), c2=c2, rows_excluded=excluded, p_b=p_b)


def mask_response(y, flip_prob, rng):
    """Flip each 0/1 label independently with probability flip_prob in (0, 0.5)."""
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise BadFlipProb("masking applies to 0/1 responses only")
    flips = rng.uniform(size=len(y)) < flip_prob
    return MaskedResponse(y_prime=np.where(flips, 1.0 - y, y), flip_prob=float(flip_prob))


def unmask_probability(p_hat_prime, flip_prob):
    """Invert the label-flip bias: (p' - flip)/(1 - 2 flip), clamped to [0, 1]."""
    if not 0.0 < flip_prob < 0.5:
        raise BadFlipProb("flip probability must lie strictly in (0, 0.5)")
    p = np.asarray(p_hat_prime, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    out = (p - flip_prob) / (1.0 - 2.0 * flip_prob)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(p_hat_prime) else out
