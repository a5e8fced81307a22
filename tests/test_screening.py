import numpy as np
import pytest

from aeal import screening, solver
from aeal.data import AgentView, Owner
from aeal.errors import (NotAGlm, RankDeficientAugmented, SingularCovarianceBlock)
from aeal.losses import LossFamily
from aeal.screening import lrt_screen, screen_context, wald_screen
from aeal.simulate import SimDesign, simulate, spawn_rngs
from aeal.sketch import SketchPackage, make_sketch
from aeal.solver import fit_offset, sandwich_pieces

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")


def make_view(X, owner=Owner.A, prefix="a"):
    return AgentView(design=X, column_names=tuple(f"{prefix}{j}" for j in range(X.shape[1])),
                     owner=owner)


def sliced(X_a, y, sketch, rows):
    """A's view, response and B's sketch, all restricted to the same rows."""
    return make_view(X_a[rows]), y[rows], SketchPackage(projected=sketch.projected[rows],
                                                       t=sketch.t)


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
        sketch = make_sketch(X_b, t, rng)
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
        # a ridge screen penalizes the residual-basis coordinates, which do not
        # depend on the sketch's scale or on an orthogonal rotation of it
        X_a, X_b, y, rng = gaussian_fixture(seed=5, signal_b=0.1)
        S = make_sketch(X_b, 2, rng).projected
        O = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        for ridge in (0.0, 1e-2):
            base = wald_screen(make_view(X_a), y, SketchPackage(projected=S, t=2), GAUSS,
                               ridge=ridge)
            for other in (3.7 * S, S @ O):
                alt = wald_screen(make_view(X_a), y, SketchPackage(projected=other, t=2),
                                  GAUSS, ridge=ridge)
                rel = abs(alt.decision.statistic - base.decision.statistic)
                assert rel <= 1e-8 * max(1.0, base.decision.statistic), ridge

    def test_singular_covariance_pieces_raise(self, monkeypatch):
        # exactly singular V1 or tested block: the screen's own error type
        X_a, X_b, y, rng = gaussian_fixture(seed=7)
        sketch = make_sketch(X_b, 2, rng)
        real = screening.sandwich_pieces
        for piece, what in ((0, "Hessian piece V1"), (1, "tested covariance block")):
            def singular(*args, piece=piece):
                pieces = list(real(*args))
                pieces[piece] = np.zeros_like(pieces[piece])
                return tuple(pieces)
            monkeypatch.setattr(screening, "sandwich_pieces", singular)
            with pytest.raises(SingularCovarianceBlock, match=what):
                wald_screen(make_view(X_a), y, sketch, GAUSS)

    def test_report_fields(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=6)
        sketch = make_sketch(X_b, 2, rng)
        rep = wald_screen(make_view(X_a), y, sketch, GAUSS, alpha=0.1)
        assert rep.decision.df == 2
        assert rep.fit.beta.shape == (X_a.shape[1] + 2,)
        assert rep.identified_rank == X_a.shape[1] + 2 and not rep.degenerate
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


class TestOverlap:
    def test_clean_sketch_tests_b_exclusive_directions(self):
        # s2 shares x5..x8, so B holds x9..x12 alone: a clean sketch of t >= 4
        # columns adds exactly their span to X_A, and t = 5 overlaps span(X_A)
        design = SimDesign(setting="s2", n=20000, rho=0.1, family=LOGIT)
        rng = spawn_rngs(11, 1)[0]
        sim = simulate(design, rng, hypothesis="h1")
        view_a = make_view(sim.X_a)
        want = direct_wald(np.hstack([sim.X_a, sim.X_b[:, -4:]]), sim.y, LOGIT, 4)
        for t in (4, 5):
            rep = wald_screen(view_a, sim.y, make_sketch(sim.X_b, t, rng), LOGIT)
            assert rep.decision.df == 4
            assert rep.degenerate == (t == 5)
            assert rep.identified_rank == sim.X_a.shape[1] + 4
            assert rep.fit.beta.shape == (sim.X_a.shape[1] + 4,)
            assert abs(rep.decision.statistic - want) <= 1e-6 * want

    def test_sketch_inside_span_tests_nothing(self):
        X_a, _, y, _ = gaussian_fixture(seed=24, signal_b=0.0)
        sketch = SketchPackage(projected=X_a[:, :2] @ np.array([[1.0, 2.0], [-1.0, 0.5]]),
                               t=2)
        for screen in (wald_screen, lrt_screen):
            rep = screen(make_view(X_a), y, sketch, GAUSS)
            assert rep.degenerate and rep.decision.df == 1
            assert rep.decision.statistic == 0.0 and not rep.decision.reject


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
        U = make_sketch(np.eye(4), 3, np.random.default_rng(99)).projected  # U itself
        stats = []
        for t in (1, 2, 3):
            sketch = SketchPackage(projected=X_b @ U[:, :t], t=t)
            stats.append(lrt_screen(make_view(X_a), y, sketch, GAUSS).decision.statistic)
        assert stats[0] <= stats[1] + 1e-9 and stats[1] <= stats[2] + 1e-9

    def test_requires_glm(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=11)
        sketch = make_sketch(X_b, 1, rng)
        with pytest.raises(NotAGlm):
            lrt_screen(make_view(X_a), y, sketch, LossFamily("logcosh"))


class TestSubset:
    def test_full_subset_identical(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=13)
        sketch = make_sketch(X_b, 2, rng)
        full = wald_screen(make_view(X_a), y, sketch, GAUSS)
        sub = wald_screen(*sliced(X_a, y, sketch, np.arange(len(y))), GAUSS)
        assert sub.decision.statistic == pytest.approx(full.decision.statistic, rel=1e-12)
        assert sub.n_used == full.n_used

    def test_underdetermined_subset(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=14)
        sketch = make_sketch(X_b, 2, rng)
        with pytest.raises(RankDeficientAugmented):  # fewer rows than columns
            wald_screen(*sliced(X_a, y, sketch, np.arange(4)), GAUSS)
        # on the first 50 rows, a view that passes its rank check but whose Gram
        # matrix fails the solver's pivot floor
        X_a[:50, 0] = X_a[:50, 1] + 1e-9 * rng.normal(size=50)
        with pytest.raises(RankDeficientAugmented, match="A's view"):
            wald_screen(*sliced(X_a, y, sketch, np.arange(50)), GAUSS)

    def test_lrt_on_subset(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=20, n=400, signal_b=0.3)
        sketch = make_sketch(X_b, 1, rng)
        rep = lrt_screen(*sliced(X_a, y, sketch, np.arange(200)), GAUSS)
        assert rep.n_used == 200
        assert rep.decision.statistic >= 0.0

    def test_clipped_epsilon_sketch_keeps_every_row(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=22, n=500, p_b=3, signal_b=0.2)
        assert np.any(np.linalg.norm(X_b, axis=1) > 1.5)  # the bound scales some rows
        sketch = make_sketch(X_b, 2, rng, epsilon=5.0, c2=1.5)
        # the recorded budget plays no part in the screen
        bare = SketchPackage(projected=sketch.projected, t=2)
        for screen in (wald_screen, lrt_screen):
            got = screen(make_view(X_a), y, sketch, GAUSS)
            want = screen(make_view(X_a), y, bare, GAUSS)
            assert got.n_used == len(y)
            assert got.decision.statistic == want.decision.statistic

    def test_excluded_rows_outside_view_rejected(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=23)
        projected = make_sketch(X_b, 2, rng).projected
        # an offer lists no excluded row, and a sketch of n + 1 rows pairs no
        # view of n rows
        with pytest.raises(ValueError, match="rows_excluded must be empty"):
            SketchPackage(projected=projected, t=2, rows_excluded=(len(y),))
        longer = SketchPackage(projected=np.vstack([projected, projected[:1]]), t=2)
        with pytest.raises(ValueError, match="sketch rows do not match"):
            wald_screen(make_view(X_a), y, longer, GAUSS)

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
        sketch = make_sketch(sim.X_b, 3, rng)
        half = rng.choice(2000, size=1000, replace=False)
        rep = wald_screen(*sliced(sim.X_a, y, sketch, half), LOGIT)
        assert rep.n_used == 1000
        assert rep.decision.reject


class TestContext:
    def test_parametrization_pair_agrees(self):
        # S against S M (M nonsingular) is the same test; a stationarity floor
        # of 1e-7 leaves this pair 7.7e-6 relative apart, since one fit stops a
        # Newton step earlier than the other
        fam = LOGIT
        rng = np.random.default_rng(2373)
        sim = simulate(SimDesign(setting="s1", n=2000, rho=0.1, family=fam), rng,
                       hypothesis="h0")
        view_a = AgentView(design=sim.X_a, column_names=sim.ownership.a_names,
                           owner=Owner.A)
        sketch = make_sketch(sim.X_b, 4, rng, noise_scale=0.1)
        M = rng.normal(size=(4, 4))
        other = SketchPackage(projected=sketch.projected @ M, t=4)
        context = screen_context(view_a, sim.y, fam)
        for ctx in (None, context):
            a, b = (wald_screen(view_a, sim.y, s, fam, context=ctx).decision.statistic
                    for s in (sketch, other))
            assert abs(a - b) <= 9.6e-7 * a

    def test_context_warm_start_matches_cold_screen(self):
        # a screen passed no context builds the one screen_context returns, so
        # both reports are one, for clipped sketches too
        design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
        rng = np.random.default_rng(41)
        sim = simulate(design, rng, hypothesis="h1")
        view_a = AgentView(design=sim.X_a, column_names=sim.ownership.a_names,
                           owner=Owner.A)
        context = screen_context(view_a, sim.y, LOGIT)
        assert context.fit_a.converged
        c2 = float(np.quantile(np.linalg.norm(sim.X_b, axis=1), 0.9))
        sketches = [make_sketch(sim.X_b, t, rng, noise_scale=0.1) for t in (1, 3, 5)]
        sketches.append(make_sketch(sim.X_b, 2, rng, noise_scale=0.1, c2=c2))
        assert np.any(np.linalg.norm(sim.X_b, axis=1) > c2)
        for sketch in sketches:
            for screen in (wald_screen, lrt_screen):
                cold = screen(view_a, sim.y, sketch, LOGIT)
                warm = screen(view_a, sim.y, sketch, LOGIT, context=context)
                assert warm.fit.iterations == cold.fit.iterations
                assert warm.n_used == cold.n_used == 2000
                for got, want in ((warm.decision.statistic, cold.decision.statistic),
                                  (warm.decision.p_value, cold.decision.p_value),
                                  (warm.fit.beta, cold.fit.beta)):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_mismatched_context_raises(self):
        X_a, X_b, y, rng = gaussian_fixture(seed=30)
        sketch = make_sketch(X_b, 1, rng)
        context = screen_context(make_view(X_a), y, GAUSS)
        # another view of the same design and an equal response are the same screen
        same = wald_screen(make_view(X_a), y.copy(), sketch, GAUSS, context=context)
        assert same.decision.statistic == wald_screen(
            make_view(X_a), y, sketch, GAUSS, context=context).decision.statistic
        for view, resp in ((make_view(X_a.copy()), y), (make_view(X_a), y + 1.0),
                           (make_view(X_a[::-1]), y)):
            for screen in (wald_screen, lrt_screen):
                with pytest.raises(ValueError, match="screen context"):
                    screen(view, resp, sketch, GAUSS, context=context)

    def test_clipped_sketch_starts_from_the_context(self, monkeypatch):
        # no release drops a row, so a clipped sketch pairs all of A's rows and
        # its augmented fit starts from the context's beta_A, as a clean one's does
        X_a, X_b, y, rng = gaussian_fixture(seed=22, n=500, p_b=3, signal_b=0.2)
        view = make_view(X_a)
        context = screen_context(view, y, GAUSS)
        inits = []
        real = screening.fit_offset
        monkeypatch.setattr(screening, "fit_offset",
                            lambda *a, init=None: inits.append(init) or real(*a, init=init))
        start = np.concatenate([context.fit_a.beta, [0.0, 0.0]]).tobytes()
        for sketch in (make_sketch(X_b, 2, rng, epsilon=5.0, c2=1.5), make_sketch(X_b, 2, rng)):
            for screen in (wald_screen, lrt_screen):
                inits.clear()
                screen(view, y, sketch, GAUSS, context=context)
                assert [i.tobytes() for i in inits] == [start]


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_wald_screen_above_one_gram_block_matches_the_unblocked_product(monkeypatch, ridge):
    # at n = 20 000 the augmented design (4 + 3 columns) spans three row
    # blocks of the weighted Gram; one product over all rows is the reference
    n = 20_000
    X_a, X_b, y, rng = gaussian_fixture(seed=8, n=n, p_a=4, p_b=3)
    assert n * (4 + 3) * 8 > solver._GRAM_BLOCK_BYTES
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-0.3 * (X_a.sum(axis=1) + X_b[:, 0])))
         ).astype(float)
    sketch = make_sketch(X_b, 3, np.random.default_rng(9))
    view = make_view(X_a)
    got = wald_screen(view, y, sketch, LOGIT, ridge=ridge)
    monkeypatch.setattr(solver, "weighted_gram", lambda X, w: (X * w[:, None]).T @ X)
    want = wald_screen(view, y, sketch, LOGIT, ridge=ridge)
    assert got.fit.iterations == want.fit.iterations > 0
    assert np.max(np.abs(got.fit.beta - want.fit.beta)) <= 1e-12 * np.max(np.abs(want.fit.beta))
    assert abs(got.decision.statistic - want.decision.statistic) <= (
        1e-12 * want.decision.statistic)
