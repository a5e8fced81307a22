"""B-side release mechanisms: the sketch release (random projection,
clipping, Laplace noising) and randomized-response masking of binary labels.

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


def make_sketch(X_b, t, rng, noise_scale=0.0, epsilon=None, c2=None):
    """B's one release: X_b through a p_b x t projection U drawn from rng.

    Rows with norm over c2 are dropped (rows_excluded) and c2 is recorded,
    noised or not. Either pass epsilon for a privacy-calibrated release, or
    noise_scale to add Laplace noise of a raw scale (the implied epsilon is
    recorded so the offer's invariant holds); a noised release without c2
    takes the max row norm, which clips no row. noise_scale=0 with no
    epsilon produces a clean sketch. Every input is checked before any draw.
    """
    X_b = np.asarray(X_b, dtype=float)
    p_b = X_b.shape[1]
    if not 1 <= t <= p_b:
        raise BadDimensions(f"need 1 <= t <= p_b, got t={t}, p_b={p_b}")
    if not 0.0 <= noise_scale < np.inf:  # NaN fails too
        raise BadEpsilon(f"noise scale must be finite and nonnegative, got {noise_scale}")
    if epsilon is not None and not epsilon > 0:
        raise BadEpsilon("epsilon must be positive")
    noised = epsilon is not None or noise_scale > 0.0
    clip = c2 is not None
    if not clip and noised:  # the max row norm clips no row
        c2 = float(np.max(np.linalg.norm(X_b, axis=1)))
    if c2 is not None and not c2 > 0:
        raise BadEpsilon("clip bound must be positive")
    # U's columns are independent uniform unit vectors; U never leaves B
    U = rng.standard_normal((p_b, t))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    excluded = ()
    if clip:  # keep rows with norm <= c2, boundary inclusive
        c2 = float(c2)
        keep = np.linalg.norm(X_b, axis=1) <= c2
        excluded = tuple(int(i) for i in np.nonzero(~keep)[0])
        X_b = X_b[keep]
    M = X_b @ U
    if not noised:
        return SketchOffer(projected=M, t=t, c2=c2, rows_excluded=excluded, p_b=p_b)
    # scale * epsilon = 2 t c2, so one formula gives either from the other
    if epsilon is None:
        scale, epsilon = noise_scale, 2.0 * t * c2 / noise_scale
    else:
        scale = 2.0 * t * c2 / epsilon
    # inverse-CDF Laplace(0, scale) draws, added in place through two n x t buffers
    h = rng.uniform(size=M.shape)
    h -= 0.5
    noise = np.sign(h)
    noise *= -scale
    noise *= np.log1p(np.multiply(np.abs(h, out=h), -2.0, out=h), out=h)
    M += noise
    del h, noise  # dead before the offer copies M
    return SketchOffer(projected=M, t=t, noised=True, epsilon=float(epsilon),
                       c2=c2, rows_excluded=excluded, p_b=p_b)


def check_flip_prob(flip_prob):
    """Refuse a label-flip probability outside (0, 0.5), NaN included."""
    if not 0.0 < flip_prob < 0.5:
        raise BadFlipProb(f"flip probability must lie strictly in (0, 0.5), got {flip_prob}")


def mask_response(y, flip_prob, rng):
    """Flip each 0/1 label independently with probability flip_prob in (0, 0.5)
    and return the flipped labels."""
    check_flip_prob(flip_prob)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise BadFlipProb("masking applies to 0/1 responses only")
    flips = rng.uniform(size=len(y)) < flip_prob
    return np.where(flips, 1.0 - y, y)


def unmask_probability(p_hat_prime, flip_prob):
    """Invert the label-flip bias: (p' - flip)/(1 - 2 flip), clamped to [0, 1]."""
    check_flip_prob(flip_prob)
    p = np.asarray(p_hat_prime, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    out = (p - flip_prob) / (1.0 - 2.0 * flip_prob)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(p_hat_prime) else out
