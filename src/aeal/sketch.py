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
class SketchPackage:
    """Projected (optionally noised) covariates ready for transmission.

    p_b is B-side bookkeeping and is never serialized.
    """

    projected: np.ndarray
    t: int
    noised: bool = False
    epsilon: float = None
    c2: float = None
    rows_excluded: tuple = ()
    p_b: int = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.array(self.projected, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "projected", arr)
        if arr.ndim != 2 or arr.shape[1] != self.t:
            raise BadDimensions("projected matrix must be n x t")
        if self.p_b is not None and self.t > self.p_b:
            raise BadDimensions("t cannot exceed the number of B's columns")
        if self.noised and (self.epsilon is None or self.c2 is None):
            raise ValueError("noised sketches must record epsilon and the clip bound")

    @property
    def n(self):
        return self.projected.shape[0]


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
    u = rng.uniform(size=shape)
    return -scale * np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))


def laplace_noise(M, epsilon, c2, rng):
    """Add iid Laplace(0, 2*t*c2/epsilon) noise to every entry of an n x t sketch.

    The caller attests that every underlying row had l2 norm <= c2; under that
    bound the release is epsilon-LDP per row.
    """
    if epsilon is None or epsilon <= 0:
        raise BadEpsilon("epsilon must be positive")
    if c2 is None or c2 <= 0:
        raise BadEpsilon("clip bound must be positive")
    M = np.asarray(M, dtype=float)
    return M + laplace_matrix(M.shape, laplace_scale(epsilon, c2, M.shape[1]), rng)


def laplace_scale(epsilon, c2, t):
    """The per-entry noise scale 2*t*c2/epsilon of the release mechanism."""
    return 2.0 * t * c2 / epsilon


def make_sketch(X_b, t, rng, noise_scale=0.0, epsilon=None, c2=None):
    """Convenience constructor used by the simulation harness and the agent CLI.

    Either pass epsilon (rows are clipped at c2, defaulting to the max row
    norm) for a privacy-calibrated release, or noise_scale to add Laplace
    noise of a raw scale (the implied epsilon is recorded so the package
    invariant holds). noise_scale=0 with no epsilon produces a clean sketch.
    """
    X_b = np.asarray(X_b, dtype=float)
    p_b = X_b.shape[1]
    U = make_projection(p_b, t, rng)
    excluded = ()
    if epsilon is not None:
        if c2 is None:
            c2 = float(np.max(np.linalg.norm(X_b, axis=1)))
        X_b, excluded = clip_rows(X_b, c2)
        M = laplace_noise(project(X_b, U), epsilon, c2, rng)
        return SketchPackage(projected=M, t=t, noised=True, epsilon=float(epsilon),
                             c2=float(c2), rows_excluded=excluded, p_b=p_b)
    M = project(X_b, U)
    if noise_scale > 0.0:
        c2_eff = float(np.max(np.linalg.norm(X_b, axis=1)))
        eps_eff = 2.0 * t * c2_eff / noise_scale
        M = M + laplace_matrix(M.shape, noise_scale, rng)
        return SketchPackage(projected=M, t=t, noised=True, epsilon=eps_eff,
                             c2=c2_eff, rows_excluded=(), p_b=p_b)
    return SketchPackage(projected=M, t=t, noised=False, p_b=p_b)


def mask_response(y, flip_prob, rng):
    """Flip each 0/1 label independently with probability flip_prob."""
    if not 0.0 < flip_prob < 0.5:
        raise BadFlipProb("flip probability must lie strictly in (0, 0.5)")
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
