import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from aeal.errors import DomainError, OneClassOnly
from aeal.stats import (_kolmogorov_sf, auc, chi2_sf, ks_uniform, make_decision,
                        normal_quantile)


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


class TestKsUniform:
    def test_centered_grid(self):
        for m in (4, 25, 100, 10_000):
            u = (np.arange(1, m + 1) - 0.5) / m
            d, p = ks_uniform(u)
            assert d == pytest.approx(1.0 / (2 * m), abs=1e-14)
            assert p == pytest.approx(1.0, abs=1e-6)

    def test_kolmogorov_tail_against_scipy(self):
        for lam in np.concatenate([np.linspace(0.001, 3.0, 600), [0.01, 0.05, 1.0]]):
            assert _kolmogorov_sf(float(lam)) == pytest.approx(
                float(scipy.special.kolmogorov(lam)), abs=1e-12)

    def test_point_mass(self):
        d, p = ks_uniform([0.5] * 40)
        assert d == pytest.approx(0.5)
        assert p < 1e-6

    def test_calibration_monte_carlo(self):
        # seeded uniforms should rarely trip the 0.01 threshold
        ok = 0
        for seed in range(100):
            u = np.random.default_rng(seed).uniform(size=1000)
            _, p = ks_uniform(u)
            ok += int(p > 0.01)
        assert ok >= 99


def test_make_decision_consistency():
    d = make_decision(3.0, 2, alpha=0.05)
    assert d.p_value == pytest.approx(chi2_sf(3.0, 2))
    assert d.reject == (d.p_value < d.alpha)
    assert d.df == 2
