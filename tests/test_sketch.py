import numpy as np
import pytest

from aeal.errors import BadDimensions, BadEpsilon, BadFlipProb
from aeal.sketch import (MaskedResponse, SketchPackage, clip_rows, laplace_noise,
                         laplace_scale, make_projection, make_sketch, mask_response,
                         project, unmask_probability)


class TestProjection:
    def test_unit_columns(self):
        U = make_projection(8, 3, np.random.default_rng(0))
        assert np.max(np.abs(np.linalg.norm(U, axis=0) - 1.0)) <= 1e-12

    def test_scalar_case(self):
        U = make_projection(1, 1, np.random.default_rng(1))
        assert abs(abs(U[0, 0]) - 1.0) <= 1e-15

    def test_full_rank_monte_carlo(self):
        # continuous law makes rank deficiency a measure-zero event
        for seed in range(10_000):
            U = make_projection(5, 5, np.random.default_rng(seed))
            assert np.linalg.matrix_rank(U) == 5

    def test_distinct_seeds_distinct_matrices(self):
        mats = [make_projection(4, 2, np.random.default_rng(s)) for s in range(100)]
        flat = {m.tobytes() for m in mats}
        assert len(flat) == 100

    def test_bad_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BadDimensions):
            make_projection(3, 4, rng)
        with pytest.raises(BadDimensions):
            make_projection(3, 0, rng)


class TestProject:
    def test_basis_direction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 3))
        U = np.array([[1.0], [0.0], [0.0]])
        assert np.array_equal(project(X, U)[:, 0], X[:, 0])

    def test_zero_matrix(self):
        U = make_projection(3, 2, np.random.default_rng(3))
        assert np.all(project(np.zeros((4, 3)), U) == 0.0)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 3))
        U = rng.normal(size=(3, 2))
        got = project(X, U)
        want = np.zeros((6, 2))
        for i in range(6):
            for j in range(2):
                for k in range(3):
                    want[i, j] += X[i, k] * U[k, j]
        assert np.max(np.abs(got - want)) <= 1e-14


class TestClip:
    def test_identity_when_within(self):
        X = np.eye(3) * 0.5
        kept, excluded = clip_rows(X, 1.0)
        assert np.array_equal(kept, X) and excluded == ()

    def test_boundary_inclusive(self):
        X = np.array([[1.0, 0.0]])
        kept, excluded = clip_rows(X, 1.0)
        assert kept.shape[0] == 1 and excluded == ()

    def test_excludes_large_rows(self):
        X = np.diag([0.5, 1.5, 0.9])
        kept, excluded = clip_rows(X, 1.0)
        assert excluded == (1,)
        assert kept.shape == (2, 3)


class TestLaplace:
    def test_scale_formula(self):
        assert laplace_scale(epsilon=1.0, c2=1.0, t=2) == 4.0

    def test_huge_epsilon_vanishing_noise(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(50, 2))
        noisy = laplace_noise(M, epsilon=1e9, c2=1.0, rng=rng)
        assert np.max(np.abs(noisy - M)) < 1e-6

    def test_moments_at_b4(self):
        rng = np.random.default_rng(7)
        M = np.zeros((500_000, 2))  # 1e6 entries
        draws = laplace_noise(M, epsilon=1.0, c2=1.0, rng=rng)
        b = 4.0
        assert abs(draws.mean()) <= 0.01 * b
        assert 1.9 * b * b <= draws.var() <= 2.1 * b * b

    def test_bad_epsilon(self):
        rng = np.random.default_rng(8)
        with pytest.raises(BadEpsilon):
            laplace_noise(np.zeros((2, 2)), epsilon=0.0, c2=1.0, rng=rng)
        with pytest.raises(BadEpsilon):
            laplace_noise(np.zeros((2, 2)), epsilon=1.0, c2=-1.0, rng=rng)


class TestPackage:
    def test_noised_requires_metadata(self):
        with pytest.raises(ValueError):
            SketchPackage(projected=np.zeros((3, 1)), t=1, noised=True)

    def test_t_within_p_b(self):
        with pytest.raises(BadDimensions):
            SketchPackage(projected=np.zeros((3, 4)), t=4, p_b=3)

    def test_make_sketch_noise_scale_records_implied_epsilon(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(20, 4))
        pkg = make_sketch(X, 2, rng, noise_scale=0.5)
        assert pkg.noised and pkg.epsilon is not None and pkg.c2 is not None
        assert laplace_scale(pkg.epsilon, pkg.c2, pkg.t) == pytest.approx(0.5)

    def test_make_sketch_epsilon_clips(self):
        rng = np.random.default_rng(10)
        X = np.vstack([np.full((5, 2), 0.1), [[5.0, 5.0]]])
        pkg = make_sketch(X, 1, rng, epsilon=2.0, c2=1.0)
        assert pkg.rows_excluded == (5,)
        assert pkg.n == 5


class TestMasking:
    def test_tiny_flip_prob_is_identity(self):
        rng = np.random.default_rng(11)
        y = (rng.uniform(size=10_000) < 0.5).astype(float)
        masked = mask_response(y, 1e-12, np.random.default_rng(12))
        assert np.array_equal(masked.y_prime, y)

    def test_unmask_fixed_point(self):
        for p in (0.05, 0.2, 0.45):
            assert unmask_probability(0.5, p) == pytest.approx(0.5)

    def test_unmask_extreme(self):
        for p in (0.1, 0.3):
            assert unmask_probability(1 - p, p) == pytest.approx(1.0)
            assert unmask_probability(p, p) == pytest.approx(0.0)

    def test_statistical_consistency(self):
        rng = np.random.default_rng(13)
        y = (rng.uniform(size=100_000) < 0.7).astype(float)
        masked = mask_response(y, 0.25, rng)
        est = unmask_probability(float(masked.y_prime.mean()), 0.25)
        assert abs(est - 0.7) <= 0.02

    def test_bad_flip_prob(self):
        rng = np.random.default_rng(14)
        for p in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(BadFlipProb):
                mask_response(np.array([0.0, 1.0]), p, rng)
            with pytest.raises(BadFlipProb):
                unmask_probability(0.3, p)

    def test_implied_epsilon(self):
        m = MaskedResponse(y_prime=np.array([0.0, 1.0]), flip_prob=0.25)
        # p' >= 1/(1+e^eps) at equality
        assert 1.0 / (1.0 + np.exp(m.implied_epsilon)) == pytest.approx(0.25)
