"""Statistical special functions and evaluation metrics.

Keeps the screening path free of scipy.special: chi-squared upper tails in
closed form for integer degrees of freedom, normal quantiles from the
standard library.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError, OneClassOnly

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class TestDecision:
    """Outcome of a chi-squared screening test."""

    statistic: float
    df: int
    p_value: float
    reject: bool
    alpha: float


def chi2_sf(x, df):
    """Upper-tail probability P(chi2_df > x) for an integer df.

    With h = x/2, Q(df/2, h) is a finite sum of exp(j log h - h - lgamma(j+1))
    over j = 0, 1, ..., df/2 - 1 for even df; for odd df the sum runs over
    j = 1/2, 3/2, ..., df/2 - 1 and adds erfc(sqrt(h)). Every term is
    positive, so nothing cancels.
    """
    if x < 0:
        raise DomainError("chi-squared statistic must be nonnegative")
    if df < 1 or df != int(df):
        raise DomainError("degrees of freedom must be a positive integer")
    if x == 0.0:
        return 1.0
    df = int(df)
    h = 0.5 * x
    log_h = math.log(h)
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for k in range(df // 2):
        j = k + 0.5 * (df % 2)
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
    return min(1.0, total)


def normal_quantile(p):
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise DomainError("normal quantile defined on (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(p)


def auc(scores, labels):
    """Area under the ROC curve as the Mann-Whitney statistic, ties counted 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("both classes required for AUC")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    n = len(s)
    starts_new = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(starts_new) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)                    # 1-based last rank per tie group
    mid = ends - (counts - 1) / 2.0             # midrank per tie group
    ranks = np.empty(n, dtype=float)
    ranks[order] = mid[group]
    rank_sum_pos = float(ranks[pos].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _kolmogorov_sf(lam):
    """Asymptotic Kolmogorov survival function Q(lam) = 2 sum (-1)^(j-1) exp(-2 j^2 lam^2).

    The alternating series converges slowly for small lam, so below lam = 1
    the dual (theta-function) form of the CDF, 1 - Q = sqrt(2 pi)/lam
    sum exp(-(2j-1)^2 pi^2 / (8 lam^2)), is used. Either way four terms
    leave a tail below 1e-20.
    """
    if lam <= 0:
        return 1.0
    if lam < 1.0:
        q = 1.0 - math.sqrt(2.0 * math.pi) / lam * sum(
            math.exp(-((2 * j - 1) * math.pi / lam) ** 2 / 8.0) for j in range(1, 5))
    else:
        q = 2.0 * sum((-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
                      for j in range(1, 5))
    return min(1.0, max(0.0, q))


def ks_uniform(p_values):
    """Kolmogorov-Smirnov distance of a sample to Uniform(0,1) with asymptotic p-value.

    Returns (distance, p_value). Uses Stephens' finite-sample adjustment of
    the Kolmogorov asymptotic law.
    """
    u = np.sort(np.asarray(p_values, dtype=float))
    m = len(u)
    if m == 0:
        raise DomainError("empty sample")
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - u)
    d_minus = np.max(u - (i - 1) / m)
    d = float(max(d_plus, d_minus))
    sqrt_m = math.sqrt(m)
    lam = (sqrt_m + 0.12 + 0.11 / sqrt_m) * d
    return d, _kolmogorov_sf(lam)


def make_decision(statistic, df, alpha):
    """Bundle a chi-squared test outcome at significance level alpha."""
    p = chi2_sf(statistic, df)
    return TestDecision(statistic=float(statistic), df=int(df), p_value=p,
                        reject=bool(p < alpha), alpha=float(alpha))
