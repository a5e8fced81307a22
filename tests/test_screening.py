import numpy as np
import pytest
import scipy.linalg

from aeal.data import AgentView, Owner
from aeal.errors import (NotAGlm, RankDeficientAugmented, SingularCovarianceBlock)
from aeal.losses import LossFamily
from aeal.screening import lrt_screen, wald_screen
from aeal.simulate import SimDesign, simulate, spawn_rngs
from aeal.sketch import SketchPackage, make_projection, make_sketch, project
from aeal.solver import fit_offset, sandwich_pieces

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")


def make_view(X, owner=Owner.A, prefix="a"):
    return AgentView(design=X, column_names=tuple(f"{prefix}{j}" for j in range(X.shape[1])),
                     owner=owner)


def gaussian_fixture(seed=0, n=300, p_a=3, p_b=2, signal_b=0.0):
    rng = np.random.default_rng(seed)
    X_a = rng.normal(size=(n, p_a))
    X_b = rng.normal(size=(n, p_b))
    beta_a = rng.normal(size=p_a)
    y = X_a @ beta_a + signal_b * X_b.sum(axis=1) + rng.normal(size=n)
    return X_a, X_b, y, rng


def direct_wald(X_full, y, fam, block):
    """Reference Wald statistic for the last `block` columns of X_full."""
    n = X_full.shape[0]
    fit = fit_offset(X_full, y, None, fam)
    V1, V2 = sandwich_pieces(X_full, y, None, fam, fit.beta)
    V1_inv = np.linalg.inv(V1)
    V = (V1_inv @ V2 @ V1_inv)[-block:, -block:]
    b = fit.beta[-block:]
    return float(n * b @ np.linalg.solve(V, b))


class TestWald:
    def test_equivalence_at_t_equals_pb(self):
        # with t = p_B and no noise the sketch test is the nested-model Wald
        # test after an invertible reparameterization of the tested block
        X_a, X_b, y, rng = gaussian_fixture(seed=3, signal_b=0.2)
        t = X_b.shape[1]
        U = make_projection(t, t, rng)
        sketch = SketchPackage(projected=project(X_b, U), t=t)
        got = wald_screen(make_view(X_a), y, sketch, GAUSS).decision.statistic
        want = direct_wald(np.hstack([X_a, X_b]), y, GAUSS, t)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_null_calibration_gaussian(self):
        # pure-noise B columns: rejection at the 5% level stays in a
        # binomial band over 200 replications
        rejects = 0
        for rng in spawn_rngs(777, 200):
            n = 2000
            X_a = rng.normal(size=(n, 3))
            X_b = rng.normal(size=(n, 4))
            y = X_a @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=n)
            sketch = make_sketch(X_b, 2, rng)
            rep = wald_screen(make_view(X_a), y, sketch, GAUSS)
            rejects += int(rep.decision.reject)
        assert 0.02 <= rejects / 200 <= 0.09

    def test_zero_sketch_rejected(self):
        X_a, _, y, _ = gaussian_fixture(seed=4)
        sketch = SketchPackage(projected=np.zeros((len(y), 2)), t=2)
        with pytest.raises(SingularCovarianceBlock):
            wald_screen(make_view(X_a), y, sketch, GAUSS)

    def test_scale_invariance(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=5, signal_b=0.1)
        U = make_projection(2, 2, rng)
        S = project(X_b, U)
        base = wald_screen(make_view(X_a), y, SketchPackage(projected=S, t=2), GAUSS)
        scaled = wald_screen(make_view(X_a), y,
                             SketchPackage(projected=3.7 * S, t=2), GAUSS)
        rel = abs(scaled.decision.statistic - base.decision.statistic)
        assert rel <= 1e-8 * max(1.0, base.decision.statistic)

    def test_report_fields(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=6)
        sketch = make_sketch(X_b, 2, rng)
        rep = wald_screen(make_view(X_a), y, sketch, GAUSS, alpha=0.1)
        assert rep.decision.df == 2
        assert rep.beta_u_t.shape == (2,)
        assert rep.v_hat_t.shape == (2, 2)
        assert np.allclose(rep.v_hat_t, rep.v_hat_t.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rep.v_hat_t)) > 0
        assert rep.n_used == len(y)

    def test_statistic_grows_with_n(self):
        # under signal the statistic diverges; compare matched seeds
        wins = 0
        for seed in range(100):
            rng_small = np.random.default_rng((seed, 1))
            rng_big = np.random.default_rng((seed, 2))
            stats = []
            for n, rng in ((500, rng_small), (4000, rng_big)):
                X_a = rng.normal(size=(n, 2))
                X_b = rng.normal(size=(n, 2))
                y = X_a @ np.array([0.5, -0.5]) + 0.3 * X_b.sum(axis=1) + rng.normal(size=n)
                sketch = make_sketch(X_b, 2, rng)
                stats.append(wald_screen(make_view(X_a), y, sketch,
                                         GAUSS).decision.statistic)
            wins += int(stats[1] > stats[0])
        assert wins >= 95

    def test_ridge_screen_runs(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=8)
        sketch = make_sketch(X_b, 2, rng)
        rep = wald_screen(make_view(X_a), y, sketch, GAUSS, ridge=1e-4)
        assert 0.0 <= rep.decision.p_value <= 1.0


class TestLrt:
    def test_zero_incremental_signal(self):
        rng = np.random.default_rng(9)
        X_a = rng.normal(size=(50, 2))
        beta = np.array([1.0, 2.0])
        y = X_a @ beta  # exact fit: both nested losses are zero
        S = rng.normal(size=(50, 1))
        rep = lrt_screen(make_view(X_a), y, SketchPackage(projected=S, t=1), GAUSS)
        assert rep.decision.statistic == pytest.approx(0.0, abs=1e-9)
        assert rep.decision.p_value == pytest.approx(1.0, abs=1e-9)

    def test_statistic_nonnegative(self):
        for seed in range(20):
            X_a, X_b, y, rng = gaussian_fixture(seed=seed, n=120)
            sketch = make_sketch(X_b, 1, rng)
            rep = lrt_screen(make_view(X_a), y, sketch, GAUSS)
            assert rep.decision.statistic >= 0.0

    def test_null_calibration(self):
        rejects = 0
        for rng in spawn_rngs(778, 200):
            n = 2000
            X_a = rng.normal(size=(n, 3))
            X_b = rng.normal(size=(n, 4))
            y = X_a @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=n)
            sketch = make_sketch(X_b, 2, rng)
            rep = lrt_screen(make_view(X_a), y, sketch, GAUSS)
            rejects += int(rep.decision.reject)
        assert 0.02 <= rejects / 200 <= 0.09

    def test_monotone_in_t_for_nested_prefixes(self):
        X_a, X_b, y, _ = gaussian_fixture(seed=10, p_b=4, signal_b=0.15)
        U = make_projection(4, 3, np.random.default_rng(99))
        stats = []
        for t in (1, 2, 3):
            sketch = SketchPackage(projected=project(X_b, U[:, :t]), t=t)
            stats.append(lrt_screen(make_view(X_a), y, sketch, GAUSS).decision.statistic)
        assert stats[0] <= stats[1] + 1e-9 and stats[1] <= stats[2] + 1e-9

    def test_requires_glm(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=11)
        sketch = make_sketch(X_b, 1, rng)
        with pytest.raises(NotAGlm):
            lrt_screen(make_view(X_a), y, sketch, LossFamily("logcosh"))

    def test_warns_when_t_not_below_pb(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=12)
        sketch = make_sketch(X_b, 2, rng)  # t == p_b, recorded in the package
        with pytest.warns(UserWarning):
            lrt_screen(make_view(X_a), y, sketch, GAUSS)


class TestSubset:
    def test_full_subset_identical(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=13)
        sketch = make_sketch(X_b, 2, rng)
        full = wald_screen(make_view(X_a), y, sketch, GAUSS)
        sub = wald_screen(make_view(X_a), y, sketch, GAUSS, 0.05,
                          row_indices=np.arange(len(y)))
        assert sub.decision.statistic == pytest.approx(full.decision.statistic, rel=1e-12)
        assert sub.n_used == full.n_used

    def test_underdetermined_subset(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=14)
        sketch = make_sketch(X_b, 2, rng)
        with pytest.raises(RankDeficientAugmented):
            wald_screen(make_view(X_a), y, sketch, GAUSS, 0.05,
                        row_indices=np.arange(4))  # fewer rows than columns

    def test_lrt_on_subset(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=20, n=400, signal_b=0.3)
        sketch = make_sketch(X_b, 1, rng)
        rep = lrt_screen(make_view(X_a), y, sketch, GAUSS, 0.05,
                         row_indices=np.arange(200))
        assert rep.n_used == 200
        assert rep.decision.statistic >= 0.0

    def test_clipped_epsilon_sketch_drops_excluded_rows(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=22, n=500, p_b=3, signal_b=0.2)
        sketch = make_sketch(X_b, 2, rng, epsilon=5.0, c2=1.5)
        assert len(sketch.rows_excluded) > 0
        keep = np.setdiff1d(np.arange(len(y)), sketch.rows_excluded)
        aligned = SketchPackage(projected=sketch.projected, t=2)
        for screen in (wald_screen, lrt_screen):
            got = screen(make_view(X_a), y, sketch, GAUSS)
            want = screen(make_view(X_a[keep]), y[keep], aligned, GAUSS)
            assert got.n_used == len(keep)
            assert got.decision.statistic == want.decision.statistic

    def test_excluded_rows_outside_view_rejected(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=23)
        sketch = SketchPackage(projected=X_b[1:] @ make_projection(2, 2, rng), t=2,
                               rows_excluded=(len(y),))
        with pytest.raises(ValueError):
            wald_screen(make_view(X_a), y, sketch, GAUSS)

    def test_poisson_wald_runs(self):
        rng = np.random.default_rng(21)
        n = 500
        X_a = rng.uniform(size=(n, 3)) - 0.5
        X_b = rng.uniform(size=(n, 2)) - 0.5
        y = rng.poisson(np.exp(X_a @ np.full(3, 0.1))).astype(float)
        fam = LossFamily("poisson")
        rep = wald_screen(make_view(X_a), y, make_sketch(X_b, 2, rng), fam)
        assert 0.0 <= rep.decision.p_value <= 1.0

    def test_half_subset_still_rejects_strong_signal(self):
        design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
        rng = np.random.default_rng(15)
        sim = simulate(design, rng, hypothesis="h0")
        # overwrite with a strong alternative: all coefficients large
        beta = np.full(12, 0.8)
        nu = sim.X @ beta
        y = (rng.uniform(size=2000) < 1 / (1 + np.exp(-nu))).astype(float)
        view_a = AgentView(design=sim.X_a, column_names=sim.ownership.a_names,
                           owner=Owner.A)
        sketch = make_sketch(sim.X_b, 3, rng)
        half = rng.choice(2000, size=1000, replace=False)
        rep = wald_screen(view_a, y, sketch, LOGIT, 0.05, row_indices=half)
        assert rep.n_used == 1000
        assert rep.decision.reject
