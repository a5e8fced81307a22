"""B-side release mechanisms: the sketch release and randomized-response
masking of binary labels.

make_sketch releases X_b U for a p_b x t projection U of unit-norm columns
that never leaves B. Given the caller's clip bound c2, each row x is scaled
to x * min(1, c2 / ||x||), so its projected row lies in [-c2, c2]^t and one
row moves the release by at most 2 t c2 in L1. Laplace noise of scale
2 t c2 / epsilon then makes each row of the SketchOffer epsilon-LDP (Dwork &
Roth 2014, Thm 3.6). Besides the n x t matrix, the offer carries only t, the
noised flag, and epsilon and c2 as the caller gave them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, BadEpsilon, BadFlipProb


@dataclass(frozen=True)
class SketchOffer:
    """B's release and its wire message. rows_excluded is not sent, and must
    stay empty: no release drops a row."""

    projected: np.ndarray
    t: int
    noised: bool = False
    epsilon: float = None
    c2: float = None
    rows_excluded: tuple = ()

    def __post_init__(self):
        # column-major: the screen reads the sketch by columns
        arr = np.array(self.projected, dtype=float, order="F")
        arr.flags.writeable = False
        object.__setattr__(self, "projected", arr)
        if arr.ndim != 2 or arr.shape[1] != self.t or self.t < 1:
            raise BadDimensions("projected matrix must be n x t with t >= 1")
        if (self.epsilon is not None) != (self.noised and self.c2 is not None):
            raise ValueError("an offer records epsilon exactly when it is noised and has c2")
        check_release(epsilon=self.epsilon, c2=self.c2)  # a peer's budget too
        if self.rows_excluded:
            raise ValueError("no release drops a row, so rows_excluded must be empty")

    @property
    def n(self):
        return self.projected.shape[0]


SketchPackage = SketchOffer  # the benchmark's name for it; delete once perfbench stops using it


def check_release(noise_scale=0.0, epsilon=None, c2=None):
    """Refuse a noise scale that is not finite and >= 0, an epsilon or clip
    bound that is not finite and > 0 (NaN fails each), an epsilon with no clip
    bound, whose sensitivity nothing would bound, and an epsilon beside a noise
    scale, since epsilon and c2 set the scale."""
    if not 0.0 <= noise_scale < np.inf:
        raise BadEpsilon(f"noise scale must be finite and nonnegative, got {noise_scale}")
    for name, value in (("epsilon", epsilon), ("clip bound", c2)):
        if value is not None and not 0.0 < value < np.inf:
            raise BadEpsilon(f"{name} must be finite and positive, got {value}")
    if epsilon is not None and c2 is None:
        raise BadEpsilon("an epsilon release needs a clip bound")
    if epsilon is not None and noise_scale > 0.0:
        raise BadEpsilon("pass a noise scale or an epsilon, not both")


def make_sketch(X_b, t, rng, noise_scale=0.0, epsilon=None, c2=None):
    """B's one release: X_b through a p_b x t projection U drawn from rng.

    Given c2, rows are scaled into the c2-ball, none dropped, and c2 is
    recorded. Pass epsilon with c2 for a calibrated release, or noise_scale for
    a raw Laplace scale, which records epsilon = 2 t c2 / noise_scale only given
    c2 and else claims no privacy; not both. With neither the sketch is clean.
    Every input is checked before any draw.
    """
    X_b = np.asarray(X_b, dtype=float)
    p_b = X_b.shape[1]
    if not 1 <= t <= p_b:
        raise BadDimensions(f"need 1 <= t <= p_b, got t={t}, p_b={p_b}")
    check_release(noise_scale, epsilon, c2)
    # U's columns are independent uniform unit vectors; U never leaves B
    U = rng.standard_normal((p_b, t))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    if c2 is not None:  # a row inside the ball is scaled by exactly 1
        X_b = X_b * (c2 / np.maximum(np.linalg.norm(X_b, axis=1), c2))[:, None]
    M = X_b @ U
    if epsilon is None and noise_scale == 0.0:
        return SketchOffer(projected=M, t=t, c2=c2)
    # scale * epsilon = 2 t c2, so one gives the other once c2 is known
    scale = noise_scale if epsilon is None else 2.0 * t * c2 / epsilon
    if epsilon is None and c2 is not None:
        epsilon = 2.0 * t * c2 / scale
    # inverse-CDF Laplace draws in two n x t buffers (Generator.laplace: 1.5-2.6x slower)
    h = rng.uniform(size=M.shape)
    h -= 0.5
    noise = np.sign(h)
    noise *= -scale
    np.maximum(np.multiply(np.abs(h, out=h), -2.0, out=h), 2.0 ** -53 - 1.0, out=h)
    noise *= np.log1p(h, out=h)  # finite: a uniform of 0 would give log1p(-1) = -inf
    M += noise
    del h, noise  # dead before the offer copies M
    return SketchOffer(projected=M, t=t, noised=True, epsilon=epsilon, c2=c2)


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
