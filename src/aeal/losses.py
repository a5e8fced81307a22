"""Loss families m(y, nu) with analytic derivatives in the linear predictor.

Gaussian, logistic and Poisson negative log-likelihoods (additive constants
in y dropped throughout, so reported loss values match references only up to
that convention; differences of losses are unaffected; the dispersion
parameter is treated as known and fixed at one), plus the smooth robust
log-cosh loss. All derivatives are with respect to nu.
"""

import numpy as np

from .errors import NotAGlm, UnknownFamily, UnsupportedResponse

GAUSSIAN = "gaussian"
LOGISTIC = "logistic"
POISSON = "poisson"
LOGCOSH = "logcosh"

_GLM_KINDS = (GAUSSIAN, LOGISTIC, POISSON)


def _sigmoid(v):
    # 1/(1+e^-v) for v >= 0, e^v/(1+e^v) below: the two-branch form's exact operations
    e = np.exp(-np.abs(v))
    out = np.maximum(e, v >= 0)
    e += 1.0
    out /= e
    return out[()]  # a scalar for a scalar input


class LossFamily:
    """A loss m(y, nu), its first two nu-derivatives, and the GLM mean map.

    Instances are immutable and stateless; every method is vectorized over
    numpy arrays and safe to share across threads.
    """

    def __init__(self, kind, alpha=0.3):
        if kind not in (_GLM_KINDS + (LOGCOSH,)):
            raise UnknownFamily(f"unknown loss family {kind!r}")
        if kind == LOGCOSH and not alpha > 0:
            raise UnknownFamily("logcosh sharpness must be positive")
        self.kind = kind
        self.alpha = float(alpha)

    def __repr__(self):
        if self.kind == LOGCOSH:
            return f"LossFamily({self.kind!r}, alpha={self.alpha})"
        return f"LossFamily({self.kind!r})"

    def __eq__(self, other):
        return (isinstance(other, LossFamily)
                and self.kind == other.kind and self.alpha == other.alpha)

    @property
    def is_glm(self):
        return self.kind in _GLM_KINDS

    @property
    def name(self):
        """Config-string form, parseable by parse_family."""
        if self.kind == LOGCOSH:
            return f"logcosh:{self.alpha:g}"
        return self.kind

    def validate_response(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == LOGISTIC:
            if not np.all((y == 0.0) | (y == 1.0)):
                raise UnsupportedResponse("logistic responses must be 0/1")
        elif self.kind == POISSON:
            if not np.all((y >= 0.0) & (y == np.floor(y))):
                raise UnsupportedResponse("poisson responses must be nonnegative integers")
        return y

    # apart from derivatives: grad 13 us, derivatives 27 us (logistic, n = 2e3; ~900 per unit)
    def value(self, y, nu):
        y = np.asarray(y, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if self.kind == GAUSSIAN:
            return 0.5 * (y - nu) ** 2
        if self.kind == LOGISTIC:  # softplus(nu) - y nu, stable for large |nu|
            return np.maximum(nu, 0.0) + np.log1p(np.exp(-np.abs(nu))) - y * nu
        if self.kind == POISSON:
            return np.exp(nu) - y * nu
        z = self.alpha * (y - nu)
        # log cosh(z) = |z| + log1p(e^{-2|z|}) - log 2
        return (np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)) / self.alpha

    def grad(self, y, nu):
        y = np.asarray(y, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if self.is_glm:  # a canonical link: the mean minus y
            return self.inverse_link(nu) - y
        return np.tanh(self.alpha * (nu - y))

    def hess(self, y, nu):
        return self.derivatives(y, nu)[2]

    def derivatives(self, y, nu):
        """(value, grad, hess), bit for bit, from one pass of the transcendental."""
        y = np.asarray(y, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if self.kind == GAUSSIAN:
            r = nu - y  # (y - nu)**2 has the same bits
            return 0.5 * r ** 2, r, np.ones_like(nu)
        if self.kind == LOGISTIC:
            # value's, grad's and hess's operations in their order, each written
            # into one of the three outputs; h holds e = exp(-|nu|) until m needs it no more
            shape = np.broadcast(y, nu).shape
            m, g, h = np.empty(shape), np.empty(shape), np.empty(shape)
            np.exp(np.negative(np.abs(nu, out=h), out=h), out=h)
            np.maximum(h, np.greater_equal(nu, 0, out=g), out=g)
            np.log1p(h, out=m)
            h += 1.0
            g /= h  # the sigmoid s
            np.add(np.maximum(nu, 0.0, out=h), m, out=m)
            m -= np.multiply(y, nu, out=h)
            np.multiply(g, np.subtract(1.0, g, out=h), out=h)  # s (1 - s)
            g -= y
            return m[()], g[()], h[()]  # scalars for scalar inputs
        if self.kind == POISSON:
            e = np.exp(nu)
            return e - y * nu, e - y, e
        a = self.alpha * (nu - y)  # |a| = |alpha * (y - nu)| bit for bit
        t = np.tanh(a)
        m = (np.abs(a) + np.log1p(np.exp(-2.0 * np.abs(a))) - np.log(2.0)) / self.alpha
        return m, t, self.alpha * (1.0 - t * t)

    def inverse_link(self, nu):
        """Map the linear predictor to the mean scale (GLM kinds only)."""
        if not self.is_glm:
            raise NotAGlm("log-cosh has no canonical mean map; predict on the nu scale")
        nu = np.asarray(nu, dtype=float)
        if self.kind == GAUSSIAN:
            return nu
        if self.kind == LOGISTIC:
            return _sigmoid(nu)
        return np.exp(nu)


def parse_family(name):
    """Build a LossFamily from its config string: gaussian|logistic|poisson|logcosh:<alpha>."""
    name = name.strip().lower()
    kind, colon, alpha = name.partition(":")
    if kind != LOGCOSH or not colon:
        return LossFamily(name)
    try:
        alpha = float(alpha)
    except ValueError:
        raise UnknownFamily(f"logcosh sharpness {alpha!r} is not a number") from None
    return LossFamily(LOGCOSH, alpha=alpha)
