import hashlib
import importlib

import numpy as np
import pytest

from aeal.losses import LossFamily
from aeal.simulate import (SETTINGS, Ownership, SimData, SimDesign, alt_beta, ar1_sqrt,
                           eta_bound, gen_covariates, gen_response, map_T,
                           null_beta, oracle_fit, simulate, spawn_rngs)

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")
POIS = LossFamily("poisson")


class TestSettings:
    def test_ownership_shapes(self):
        assert SETTINGS["s1"].shared_names == ()
        assert len(SETTINGS["s2"].shared_names) == 4
        assert len(SETTINGS["s3"].shared_names) == 8
        for s in ("s1", "s2", "s3"):
            assert len(SETTINGS[s].pooled_names) == 12

    def test_null_beta_puts_signal_on_a_only(self):
        b = null_beta("s2", LOGIT)
        assert list(np.nonzero(b)[0]) == list(range(8))
        assert set(b[:8]) == {0.5}
        assert set(null_beta("s1", POIS)[:6]) == {0.1}


class TestCovariates:
    def test_rho_zero_is_raw_uniforms(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        X = gen_covariates(50, 4, 0.0, rng1)
        raw = rng2.uniform(0, 1, (50, 4))
        assert np.array_equal(X, raw)

    def test_single_column_unchanged(self):
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        X = gen_covariates(30, 1, 0.5, rng1)
        raw = rng2.uniform(0, 1, (30, 1))
        assert np.max(np.abs(X - raw)) <= 1e-12

    def test_adjacent_correlation_matches_analytic(self):
        # Cov(X) = sqrtV Cov(raw) sqrtV = V/12, so adjacent correlation = rho
        rng = np.random.default_rng(2)
        X = gen_covariates(100_000, 6, 0.25, rng)
        corr = np.corrcoef(X[:, 2], X[:, 3])[0, 1]
        assert abs(corr - 0.25) <= 0.02

    def test_entries_bounded_by_sqrtv_l1_norms(self):
        rng = np.random.default_rng(3)
        p, rho = 8, 0.4
        X = gen_covariates(5000, p, rho, rng)
        bound = np.abs(ar1_sqrt(p, rho)).sum(axis=0)  # |row| <= l1 norm of column
        assert np.all(np.abs(X) <= bound[None, :] + 1e-12)

    def test_deterministic_under_seed(self):
        X1 = gen_covariates(40, 5, 0.3, np.random.default_rng(4))
        X2 = gen_covariates(40, 5, 0.3, np.random.default_rng(4))
        assert np.array_equal(X1, X2)

    def test_centered_option(self):
        X = gen_covariates(20_000, 3, 0.0, np.random.default_rng(5), centered=True)
        assert abs(X.mean()) <= 0.01


class TestResponses:
    def test_logistic_balanced_at_zero_beta(self):
        rng = np.random.default_rng(6)
        X = gen_covariates(10_000, 4, 0.0, rng)
        y = gen_response(LOGIT, X, np.zeros(4), rng)
        assert abs(y.mean() - 0.5) <= 0.02

    def test_gaussian_unit_noise(self):
        rng = np.random.default_rng(7)
        X = gen_covariates(10_000, 4, 0.0, rng)
        y = gen_response(GAUSS, X, np.zeros(4), rng)
        assert 0.95 <= y.var() <= 1.05

    def test_poisson_rates_moderate_at_small_coefficients(self):
        rng = np.random.default_rng(8)
        X = gen_covariates(10_000, 12, 0.0, rng)
        y = gen_response(POIS, X, np.full(12, 0.1), rng)
        assert np.all(y >= 0)
        assert y.mean() < 10.0

    def test_logcosh_uses_gaussian_generator(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        X = np.zeros((100, 2))
        y1 = gen_response(LossFamily("logcosh"), X, np.zeros(2), rng1)
        y2 = gen_response(GAUSS, X, np.zeros(2), rng2)
        assert np.array_equal(y1, y2)


class TestOracle:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        fit = oracle_fit(X, y, GAUSS)
        want = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(fit.beta - want)) <= 1e-10


class TestMapT:
    def test_disjoint_concatenation(self):
        own = SETTINGS["s1"]
        ba = np.arange(6.0)
        bb = np.arange(6.0, 12.0)
        assert np.array_equal(map_T(ba, bb, own), np.arange(12.0))

    def test_shared_block_addition(self):
        own = Ownership(a_names=("x1", "c1", "c2"), b_names=("c1", "c2", "x2"))
        ba = np.array([7.0, 1.0, 0.0])
        bb = np.array([0.5, 2.0, 9.0])
        got = map_T(ba, bb, own)
        # pooled order: x1, c1, c2, x2; shared entries add: (1.5, 2.0)
        assert np.array_equal(got, np.array([7.0, 1.5, 2.0, 9.0]))


class TestEtaBound:
    def test_orthonormal_design(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(100, 4)))
        X = q * np.sqrt(100)  # X'X/n = I
        y = rng.normal(size=100)
        eta = eta_bound(X, y, GAUSS, np.zeros(4))
        assert eta == pytest.approx(0.75, abs=1e-10)

    def test_zero_design_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            eta_bound(np.zeros((10, 3)), np.zeros(10), GAUSS, np.zeros(3))

    def test_limit_towards_one(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 3))
        X[:, 0] *= 10.0  # growing lmax/lmin pushes the bound towards 1
        eta = eta_bound(X, rng.normal(size=200), GAUSS, np.zeros(3))
        assert 0.99 < eta < 1.0

    def test_against_power_iteration(self):
        def power_extremes(H, iters=50_000):
            v = np.ones(H.shape[0]) / np.sqrt(H.shape[0])
            for _ in range(iters):
                v = H @ v
                v /= np.linalg.norm(v)
            lmax = float(v @ H @ v)
            # invert the spectrum around lmax to expose the smallest eigenvalue
            M = lmax * 1.0001 * np.eye(H.shape[0]) - H
            w = np.ones(H.shape[0]) / np.sqrt(H.shape[0])
            for _ in range(iters):
                w = M @ w
                w /= np.linalg.norm(w)
            lmin = float(w @ H @ w)
            return lmin, lmax

        design = SimDesign(setting="s1", n=400, rho=0.0, family=GAUSS)
        sim = simulate(design, np.random.default_rng(13), hypothesis="h1")
        H = sim.X.T @ sim.X / 400
        lmin, lmax = power_extremes(H)
        want = 1 - lmin ** 3 / (4 * lmax ** 3)
        got = eta_bound(sim.X, sim.y, GAUSS, np.zeros(12))
        assert got == pytest.approx(want, abs=1e-8)


class TestHarness:
    def test_simulate_h0_vs_h1(self):
        design = SimDesign(setting="s1", n=50, rho=0.1, family=LOGIT)
        h0 = simulate(design, np.random.default_rng(14), hypothesis="h0")
        assert np.array_equal(h0.beta_true, null_beta("s1", LOGIT))
        h1 = simulate(design, np.random.default_rng(14), hypothesis="h1")
        assert not np.array_equal(h1.beta_true, h0.beta_true)

    def test_views_match_ownership(self):
        design = SimDesign(setting="s2", n=30, rho=0.0, family=GAUSS)
        sim = simulate(design, np.random.default_rng(15))
        pos = {nm: j for j, nm in enumerate(sim.ownership.pooled_names)}
        assert np.array_equal(sim.X_a, sim.X[:, [pos[n] for n in sim.ownership.a_names]])
        assert np.array_equal(sim.X_b, sim.X[:, [pos[n] for n in sim.ownership.b_names]])

    @pytest.mark.parametrize("setting", ["s1", "s2", "s3"])
    def test_replication_is_one_read_only_column_major_copy(self, setting):
        design = SimDesign(setting=setting, n=40, rho=0.1, family=GAUSS)
        sim = simulate(design, np.random.default_rng(16))
        assert sim.X.flags.f_contiguous and not sim.X.flags.writeable
        assert np.shares_memory(sim.X, sim.X_a) and np.shares_memory(sim.X, sim.X_b)
        with pytest.raises(ValueError):  # a write would change B's shared columns too
            sim.X_a[0, -1] = 0.0

    def test_b_columns_out_of_one_run_are_gathered_by_name(self):
        own = Ownership(a_names=("x1", "x2", "x3"), b_names=("x1", "x4"))
        X = np.arange(20.0).reshape(5, 4)  # pooled order x1, x2, x3, x4
        sim = SimData(X=X, y=np.zeros(5), beta_true=np.zeros(4), ownership=own)
        assert np.array_equal(sim.X_a, X[:, :3])
        assert np.array_equal(sim.X_b, X[:, [0, 3]])
        assert X.flags.writeable  # the caller's array is copied, not frozen

    def test_simulate_keeps_the_array_it_draws(self, monkeypatch):
        captured = []

        def draw(*args, **kwargs):
            captured.append(gen_covariates(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(importlib.import_module("aeal.simulate"), "gen_covariates", draw)
        for rho in (0.1, 0.0):
            design = SimDesign(setting="s2", n=30, rho=rho, family=GAUSS)
            sim = simulate(design, np.random.default_rng(17))
            assert sim.X is captured[-1]

    def test_frozen_column_major_array_is_kept_and_any_other_copied(self):
        own = SETTINGS["s1"]
        frozen = np.asfortranarray(np.arange(24.0).reshape(2, 12))
        frozen.flags.writeable = False
        c_order = np.ascontiguousarray(frozen)
        c_order.flags.writeable = False
        assert SimData(X=frozen, y=np.zeros(2), beta_true=np.zeros(12), ownership=own).X is frozen
        for X in (frozen.copy(order="F"), c_order, frozen.astype(np.float32)):
            sim = SimData(X=X, y=np.zeros(2), beta_true=np.zeros(12), ownership=own)
            assert sim.X is not X and not np.shares_memory(sim.X, X)
            assert sim.X.dtype == float and sim.X.flags.f_contiguous
            assert not sim.X.flags.writeable and np.array_equal(sim.X, X)

    def test_spawned_rngs_independent_and_reproducible(self):
        a = [r.uniform() for r in spawn_rngs(1, 3)]
        b = [r.uniform() for r in spawn_rngs(1, 3)]
        assert a == b
        assert len(set(a)) == 3

    def test_alt_beta_variances(self):
        rng = np.random.default_rng(16)
        draws = np.array([alt_beta(LOGIT, rng) for _ in range(4000)])
        assert abs(draws.var() - 0.25) <= 0.02
        draws_p = np.array([alt_beta(POIS, rng) for _ in range(4000)])
        assert abs(draws_p.var() - 0.01) <= 0.002


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# sha256 prefixes of the C-order bytes of sim.X and of sim.y for n = 2 500 (three
# 1 024-row response blocks) at seed 2024, fixed before the replication was drawn
# into its column-major array; logcosh shares the gaussian generator
X_RHO_01 = "531b47b993ed6235"
Y_DIGESTS = {  # (setting, family): (h0, h1)
    ("s1", "gaussian"): ("0c2fd4c31bcc0f51", "3a14fd043a7ca72c"),
    ("s1", "logistic"): ("5a91f1d03e368707", "4e9c8d167bbc9984"),
    ("s1", "poisson"): ("31f9952729ceff52", "66ef121ee8488e26"),
    ("s1", "logcosh"): ("0c2fd4c31bcc0f51", "3a14fd043a7ca72c"),
    ("s2", "gaussian"): ("f924dfe7830a9005", "3a14fd043a7ca72c"),
    ("s2", "logistic"): ("43c7a7a7bab697b1", "4e9c8d167bbc9984"),
    ("s2", "poisson"): ("24f2e62f49819219", "66ef121ee8488e26"),
    ("s2", "logcosh"): ("f924dfe7830a9005", "3a14fd043a7ca72c"),
    ("s3", "gaussian"): ("a51aa6b73f7d0613", "3a14fd043a7ca72c"),
    ("s3", "logistic"): ("2abefe7454c6451a", "4e9c8d167bbc9984"),
    ("s3", "poisson"): ("822d1b9cdf1ec14a", "66ef121ee8488e26"),
    ("s3", "logcosh"): ("a51aa6b73f7d0613", "3a14fd043a7ca72c"),
}


@pytest.mark.parametrize("setting, family", list(Y_DIGESTS))
def test_simulated_bits_are_pinned(setting, family):
    design = SimDesign(setting=setting, n=2500, rho=0.1, family=LossFamily(family))
    for hypothesis, want in zip(("h0", "h1"), Y_DIGESTS[setting, family]):
        sim = simulate(design, np.random.default_rng(2024), hypothesis=hypothesis)
        assert (digest(sim.X), digest(sim.y)) == (X_RHO_01, want), hypothesis


def test_centered_uncorrelated_bits_are_pinned():
    design = SimDesign(setting="s2", n=2500, rho=0.0, family=GAUSS, centered=True)
    for hypothesis, want in (("h0", "9b4ffb4c43d20347"), ("h1", "73a79ec429c64f87")):
        sim = simulate(design, np.random.default_rng(2024), hypothesis=hypothesis)
        assert (digest(sim.X), digest(sim.y)) == ("cbd9f6a8e867ccfd", want), hypothesis
