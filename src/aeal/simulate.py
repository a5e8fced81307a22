"""Synthetic data generators for the three ownership settings, plus the
pooled-data oracles used as test references (pooled fits, coefficient-space
mapping, and the geometric contraction bound).

A replication (SimData) holds the pooled design as one read-only,
column-major array: simulate draws the covariates straight into it and keeps
it. A's columns lead the pooled order and B's form one contiguous run in every
setting, so X_a and X_b are views of that array, not copies of their own.
"""

from dataclasses import dataclass, field

import numpy as np

from .losses import LOGISTIC, POISSON
from .solver import fit_offset, weighted_gram


@dataclass(frozen=True)
class Ownership:
    """Which pooled columns each agent holds (1-based names x1..xp)."""

    a_names: tuple
    b_names: tuple

    @property
    def pooled_names(self):
        return self.a_names + tuple(n for n in self.b_names if n not in self.a_names)

    @property
    def shared_names(self):
        return tuple(n for n in self.a_names if n in self.b_names)


def _names(lo, hi):
    return tuple(f"x{j}" for j in range(lo, hi + 1))


SETTINGS = {
    "s1": Ownership(a_names=_names(1, 6), b_names=_names(7, 12)),
    "s2": Ownership(a_names=_names(1, 8), b_names=_names(5, 12)),
    "s3": Ownership(a_names=_names(1, 10), b_names=_names(3, 12)),
}


@dataclass(frozen=True)
class SimDesign:
    setting: str = "s1"
    n: int = 2000
    rho: float = 0.0
    family: object = None            # LossFamily
    centered: bool = False           # subtract the 0.5 mean from uniform covariates


def ar1_sqrt(p, rho):
    """Symmetric square root of the AR(1) matrix V_ij = rho^|i-j|."""
    idx = np.arange(p)
    V = rho ** np.abs(idx[:, None] - idx[None, :])
    w, Q = np.linalg.eigh(V)
    return Q @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ Q.T


def gen_covariates(n, p, rho, rng, centered=False):
    """n x p column-major covariates: iid Uniform(0,1) entries through sqrt of AR(1)."""
    X = rng.uniform(0.0, 1.0, (n, p))
    if centered:
        X -= 0.5
    if rho == 0.0:
        return np.asfortranarray(X)
    return np.matmul(X, ar1_sqrt(p, rho), out=np.empty((n, p), order="F"))


RESPONSE_ROWS = 1024  # rows per C-order block of X beta


def gen_response(fam, X, beta, rng):
    """Sample responses from the family's data-generating model at X beta.
    X beta is formed over C-order row blocks, so it rounds alike for either
    layout of X (a column-major product rounds differently)."""
    X = np.asarray(X, dtype=float)
    nu = np.empty(len(X))
    for s in range(0, len(X), RESPONSE_ROWS):
        rows = slice(s, s + RESPONSE_ROWS)
        np.matmul(np.ascontiguousarray(X[rows]), beta, out=nu[rows])
    if fam.kind == LOGISTIC:
        prob = 1.0 / (1.0 + np.exp(-nu))
        return (rng.uniform(size=len(nu)) < prob).astype(float)
    if fam.kind == POISSON:
        return rng.poisson(np.exp(nu)).astype(float)
    return nu + rng.standard_normal(len(nu))  # gaussian and log-cosh


def null_beta(setting, fam, p=12):
    """Coefficients with signal on A's covariates only (B adds nothing)."""
    own = SETTINGS[setting]
    level = 0.1 if fam.kind == POISSON else 0.5
    beta = np.zeros(p)
    for name in own.a_names:
        beta[int(name[1:]) - 1] = level
    return beta


def alt_beta(fam, rng, p=12):
    """Fresh random coefficients per replication (avoids cherry-picking)."""
    sd = 0.1 if fam.kind == POISSON else 0.5
    return rng.normal(0.0, sd, p)


@dataclass
class SimData:
    X: np.ndarray                 # pooled design x1..xp: one read-only column-major array
    y: np.ndarray
    beta_true: np.ndarray
    ownership: Ownership
    X_a: np.ndarray = field(init=False)  # view of X's leading columns
    X_b: np.ndarray = field(init=False)  # view of B's columns; a copy unless they are one run

    def __post_init__(self):
        X = np.asarray(self.X)  # kept when already frozen; a writeable one is copied
        if X.dtype != float or not X.flags.f_contiguous or X.flags.writeable:
            X = np.array(X, dtype=float, order="F")
            X.flags.writeable = False  # a write into one block would change the other
        self.X = X
        own = self.ownership
        pos = [own.pooled_names.index(nm) for nm in own.b_names]
        self.X_a = self.X[:, :len(own.a_names)]
        run = pos == list(range(pos[0], pos[0] + len(pos)))
        self.X_b = self.X[:, pos[0]:pos[-1] + 1] if run else self.X[:, pos]


def simulate(design, rng, hypothesis="h1"):
    """Draw one replication of a design; hypothesis selects the coefficient law."""
    own = SETTINGS[design.setting]
    p = len(own.pooled_names)
    X = gen_covariates(design.n, p, design.rho, rng, centered=design.centered)
    X.flags.writeable = False  # SimData keeps it: no copy
    if hypothesis == "h0":
        beta = null_beta(design.setting, design.family, p)
    else:
        beta = alt_beta(design.family, rng, p)
    y = gen_response(design.family, X, beta, rng)
    return SimData(X=X, y=y, beta_true=beta, ownership=own)


def oracle_fit(X_pooled, y, fam, ridge=0.0):
    """M-estimator on the (infeasible) pooled deduplicated design."""
    return fit_offset(X_pooled, y, None, fam, ridge)


def map_T(beta_a, beta_b, ownership):
    """Map per-agent coefficients into the pooled space: shared entries add."""
    beta_a = np.asarray(beta_a, dtype=float)
    beta_b = np.asarray(beta_b, dtype=float)
    pos_a = {nm: j for j, nm in enumerate(ownership.a_names)}
    pos_b = {nm: j for j, nm in enumerate(ownership.b_names)}
    out = np.zeros(len(ownership.pooled_names))
    for j, nm in enumerate(ownership.pooled_names):
        if nm in pos_a:
            out[j] += beta_a[pos_a[nm]]
        if nm in pos_b:
            out[j] += beta_b[pos_b[nm]]
    return out


def eta_bound(X_pooled, y, fam, beta):
    """Per-half-round loss-gap contraction bound 1 - lmin^3 / (4 lmax^3).

    Eigen-extremes are taken from the pooled Hessian at beta (a proxy for the
    extremes over the relevant neighborhood; exact for the Gaussian loss).
    """
    X_pooled = np.asarray(X_pooled, dtype=float)
    n = X_pooled.shape[0]
    nu = X_pooled @ np.asarray(beta, dtype=float)
    w = fam.hess(np.asarray(y, dtype=float), nu)
    H = weighted_gram(X_pooled, w) / n
    eig = np.linalg.eigvalsh(H)
    lmin, lmax = float(eig[0]), float(eig[-1])
    if lmin <= 0:
        raise ValueError("pooled Hessian is not positive definite")
    return 1.0 - lmin ** 3 / (4.0 * lmax ** 3)


def spawn_rngs(seed, count):
    """Independent child generators for parallel replications."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]
