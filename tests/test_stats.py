import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from aeal.errors import DomainError, OneClassOnly
from aeal.stats import auc, chi2_sf, make_decision, normal_quantile


def bisect_inverse(func, target, lo, hi, iters=200):
    """Generic bisection oracle for monotone-decreasing func."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if func(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2:
    def test_at_zero(self):
        for df in (1, 2, 5, 12):
            assert chi2_sf(0.0, df) == 1.0

    def test_upper_quantile_df1(self):
        # frozen: 3.8414588 is the 0.95 quantile of chi2(1)
        assert chi2_sf(3.8414588, 1) == pytest.approx(0.05, abs=1e-6)

    def test_df2_closed_form(self):
        for x in (0.5, 2.0, 7.3):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_against_independent_gamma(self):
        # the implementation is a closed-form finite sum; the oracle is
        # scipy's regularized incomplete gamma
        rng = np.random.default_rng(7)
        cases = [(int(rng.integers(1, 40)), float(rng.uniform(0, 80))) for _ in range(300)]
        cases += [(int(rng.integers(1, 81)), float(np.exp(rng.uniform(-14, np.log(1e6)))))
                  for _ in range(300)]
        for df, x in cases:
            want = float(scipy.special.gammaincc(df / 2.0, x / 2.0))
            assert chi2_sf(x, df) == pytest.approx(want, abs=1e-10)

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 30, 200)
        vals = [chi2_sf(float(x), 3) for x in xs]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))

    def test_quantile_roundtrip(self):
        for alpha in (0.01, 0.05, 0.2):
            for df in (1, 3, 7):
                q = bisect_inverse(lambda x: chi2_sf(x, df), alpha, 0.0, 200.0)
                assert chi2_sf(q, df) == pytest.approx(alpha, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_sf(-1.0, 2)

    @pytest.mark.parametrize("df", [1, 2, 3, 6])
    def test_non_finite_statistic(self, df):
        # an infinite statistic rejects at any level; NaN has no tail at all
        assert chi2_sf(math.inf, df) == 0.0
        decision = make_decision(math.inf, df, 0.05)
        assert decision.p_value == 0.0 and decision.reject
        with pytest.raises(DomainError, match="nonnegative"):
            chi2_sf(math.nan, df)
        for df in (0, 2.5):
            with pytest.raises(DomainError):
                chi2_sf(1.0, df)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_0975(self):
        # oracle: bisection on the erf-based CDF
        cdf = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
        want = bisect_inverse(lambda z: 1 - cdf(z), 1 - 0.975, -10, 10)
        assert normal_quantile(0.975) == pytest.approx(want, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_symmetry(self):
        for p in (0.01, 0.12, 0.33, 0.461):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-11)

    def test_accuracy_grid(self):
        for p in np.concatenate([np.linspace(1e-6, 1 - 1e-6, 101), np.logspace(-300, -2)]):
            assert normal_quantile(float(p)) == pytest.approx(
                float(scipy.stats.norm.ppf(p)), abs=1e-9)

    def test_domain(self):
        for p in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(DomainError):
                normal_quantile(p)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 1, 0]) == 0.5

    def test_four_point_example(self):
        # pairs (pos, neg): (.35,.1)+, (.35,.4)-, (.8,.1)+, (.8,.4)+ -> 3/4
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=60)
        labels = (rng.uniform(size=60) < 0.4).astype(int)
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-15)
        assert auc(3 * scores - 7, labels) == pytest.approx(base, abs=1e-15)

    def test_one_class(self):
        with pytest.raises(OneClassOnly):
            auc([1.0, 2.0], [1, 1])

    def test_non_finite_scores_rejected(self):
        # a NaN has no rank; sorting it last would read as a score
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                auc([bad, 0.1, 0.2, 0.3], [1, 0, 1, 0])

    def test_tie_order_does_not_matter(self):
        # every tie group gets one midrank, so the sort's order inside a tie
        # cannot reach the result
        rng = np.random.default_rng(21)
        scores = np.round(rng.normal(size=5000), 1)
        labels = (rng.uniform(size=5000) < 1.0 / (1.0 + np.exp(-scores))).astype(int)
        base = auc(scores, labels)
        for _ in range(5):
            perm = rng.permutation(5000)
            assert auc(scores[perm], labels[perm]).hex() == base.hex()
        s, lab = scores[:300], labels[:300]
        diff = s[lab == 1][:, None] - s[lab == 0][None, :]
        brute = (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size
        assert auc(s, lab) == brute

    def test_untied_scores_match_pair_count(self):
        # untied scores are ranked by position; the result is the exact pair
        # count whatever the input order
        rng = np.random.default_rng(22)
        scores = rng.normal(size=3000)
        labels = (rng.uniform(size=3000) < 1.0 / (1.0 + np.exp(-scores))).astype(int)
        assert len(np.unique(scores)) == 3000
        diff = scores[labels == 1][:, None] - scores[labels == 0][None, :]
        base = auc(scores, labels)
        assert base == np.sum(diff > 0) / diff.size
        for _ in range(5):
            perm = rng.permutation(3000)
            assert auc(scores[perm], labels[perm]).hex() == base.hex()
        # one tied pair takes the midrank path
        tied = scores.copy()
        i, j = np.flatnonzero(labels == 1)[0], np.flatnonzero(labels == 0)[0]
        tied[j] = tied[i]
        diff = tied[labels == 1][:, None] - tied[labels == 0][None, :]
        assert np.sum(diff == 0) == 1
        assert auc(tied, labels) == (np.sum(diff > 0) + 0.5) / diff.size


def test_make_decision_consistency():
    d = make_decision(3.0, 2, alpha=0.05)
    assert d.p_value == pytest.approx(chi2_sf(3.0, 2))
    assert d.reject == (d.p_value < d.alpha)
    assert d.df == 2
