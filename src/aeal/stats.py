"""Statistical special functions and evaluation metrics.

Free of scipy, like the rest of the package: chi-squared upper tails in
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
class ScreenResult:
    """Outcome of a chi-squared screening test: A's decision and its wire message."""

    statistic: float
    df: int
    p_value: float
    reject: bool
    alpha: float

    def __post_init__(self):  # as make_decision builds it; a NaN fails the first test
        if not (self.statistic >= 0 and self.df >= 1 and 0 <= self.p_value <= 1
                and 0 < self.alpha < 1 and self.reject == (self.p_value < self.alpha)):
            raise ValueError("impossible values: need statistic >= 0, df >= 1, p_value in "
                             "[0, 1], alpha in (0, 1) and reject == (p_value < alpha)")


def chi2_sf(x, df):
    """Upper-tail probability P(chi2_df > x) for an integer df.

    With h = x/2, Q(df/2, h) is a finite sum of exp(j log h - h - lgamma(j+1))
    over j = 0, 1, ..., df/2 - 1 for even df; for odd df the sum runs over
    j = 1/2, 3/2, ..., df/2 - 1 and adds erfc(sqrt(h)). Every term is
    positive, so nothing cancels. NaN raises DomainError; x = inf gives 0.
    """
    if not x >= 0:  # NaN fails too
        raise DomainError(f"chi-squared statistic must be nonnegative, got {x}")
    if df < 1 or df != int(df):
        raise DomainError("degrees of freedom must be a positive integer")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
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
    """Area under the ROC curve as the Mann-Whitney statistic, ties counted 1/2.

    A tie group shares its midrank, so any sort order gives the same ranks.
    Non-finite scores have no rank and raise DomainError."""
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise DomainError("AUC scores must be finite")
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("both classes required for AUC")
    order = np.argsort(scores)
    s = scores[order]
    starts_new = np.r_[True, s[1:] != s[:-1]]
    if starts_new.all():  # no ties: the 1-based positions are the ranks, an exact integer sum
        rank_sum_pos = float(np.flatnonzero(pos[order]).sum() + n_pos)
    else:
        group = np.cumsum(starts_new) - 1
        counts = np.bincount(group)
        ends = np.cumsum(counts)                # 1-based last rank per tie group
        mid = ends - (counts - 1) / 2.0         # midrank per tie group
        ranks = np.empty(len(s), dtype=float)
        ranks[order] = mid[group]
        rank_sum_pos = float(ranks[pos].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def make_decision(statistic, df, alpha):
    """Bundle a chi-squared test outcome at significance level alpha."""
    p = chi2_sf(statistic, df)
    return ScreenResult(statistic=float(statistic), df=int(df), p_value=p,
                        reject=bool(p < alpha), alpha=float(alpha))
