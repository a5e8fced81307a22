import hashlib

import numpy as np
import pytest

from aeal.errors import BadDimensions, BadEpsilon, BadFlipProb
from aeal.messages import SketchOffer, decode, encode
from aeal.sketch import SketchPackage, make_sketch, mask_response, unmask_probability


def projection(p_b, t, rng):
    """The projection U a clean sketch draws from rng: the sketch of the identity."""
    return make_sketch(np.eye(p_b), t, rng).projected


class TestProjection:
    @pytest.mark.parametrize("p_b, t", [(1, 1), (2, 1), (4, 2), (5, 5), (8, 3)])
    def test_identity_sketch_is_the_projection(self, p_b, t):
        # unit normal columns, bit for bit: the identity adds no rounding
        for seed in range(200):
            rng = np.random.default_rng(seed)
            U = rng.standard_normal((p_b, t))
            U /= np.linalg.norm(U, axis=0, keepdims=True)
            assert projection(p_b, t, np.random.default_rng(seed)).tobytes() == U.tobytes()

    def test_unit_columns(self):
        U = projection(8, 3, np.random.default_rng(0))
        assert np.max(np.abs(np.linalg.norm(U, axis=0) - 1.0)) <= 1e-12

    def test_scalar_case(self):
        U = projection(1, 1, np.random.default_rng(1))
        assert abs(abs(U[0, 0]) - 1.0) <= 1e-15

    def test_full_rank_monte_carlo(self):
        # continuous law makes rank deficiency a measure-zero event
        for seed in range(10_000):
            U = projection(5, 5, np.random.default_rng(seed))
            assert np.linalg.matrix_rank(U) == 5

    def test_distinct_seeds_distinct_matrices(self):
        mats = [projection(4, 2, np.random.default_rng(s)) for s in range(100)]
        flat = {m.tobytes() for m in mats}
        assert len(flat) == 100

    def test_bad_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BadDimensions):
            make_sketch(np.zeros((2, 3)), 4, rng)
        with pytest.raises(BadDimensions):
            make_sketch(np.zeros((2, 3)), 0, rng)


class TestProject:
    def test_basis_direction(self):
        # the sketch of a basis row e_k is row k of U
        X = np.eye(3)[[2, 0, 0, 1]]
        got = make_sketch(X, 2, np.random.default_rng(2)).projected
        assert np.array_equal(got, projection(3, 2, np.random.default_rng(2))[[2, 0, 0, 1]])

    def test_zero_matrix(self):
        assert np.all(make_sketch(np.zeros((4, 3)), 2, np.random.default_rng(3)).projected
                      == 0.0)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 3))
        got = make_sketch(X, 2, np.random.default_rng(5)).projected
        U = projection(3, 2, np.random.default_rng(5))
        want = np.zeros((6, 2))
        for i in range(6):
            for j in range(2):
                for k in range(3):
                    want[i, j] += X[i, k] * U[k, j]
        assert np.max(np.abs(got - want)) <= 1e-14


class TestClip:
    def test_identity_when_within(self):
        X = np.eye(3) * 0.5
        pkg = make_sketch(X, 3, np.random.default_rng(0), c2=1.0)
        assert pkg.rows_excluded == ()
        assert np.array_equal(pkg.projected, X @ projection(3, 3, np.random.default_rng(0)))

    def test_boundary_inclusive(self):
        pkg = make_sketch(np.array([[1.0, 0.0]]), 1, np.random.default_rng(0), c2=1.0)
        assert pkg.n == 1 and pkg.rows_excluded == ()

    def test_excludes_large_rows(self):
        pkg = make_sketch(np.diag([0.5, 1.5, 0.9]), 2, np.random.default_rng(0), c2=1.0)
        assert pkg.rows_excluded == (1,)
        assert pkg.projected.shape == (2, 2)


class TestLaplace:
    def test_scale_formula(self):
        # scale = 2 t c2 / epsilon: scale 4 at t = 2 and c2 = 1 records epsilon 1
        pkg = make_sketch(np.eye(2), 2, np.random.default_rng(0), noise_scale=4.0, c2=1.0)
        assert pkg.epsilon == 1.0

    def test_huge_epsilon_vanishing_noise(self):
        rng = np.random.default_rng(6)
        noise = make_sketch(np.zeros((50, 2)), 2, rng, epsilon=1e9, c2=1.0).projected
        assert np.max(np.abs(noise)) < 1e-6

    def test_moments_at_b4(self):
        rng = np.random.default_rng(7)
        M = np.zeros((500_000, 2))  # 1e6 entries
        draws = make_sketch(M, 2, rng, epsilon=1.0, c2=1.0).projected
        b = 4.0
        assert abs(draws.mean()) <= 0.01 * b
        assert 1.9 * b * b <= draws.var() <= 2.1 * b * b

    def test_bad_epsilon(self):
        rng = np.random.default_rng(8)
        with pytest.raises(BadEpsilon):
            make_sketch(np.zeros((2, 2)), 2, rng, epsilon=0.0, c2=1.0)
        with pytest.raises(BadEpsilon):
            make_sketch(np.zeros((2, 2)), 2, rng, epsilon=1.0, c2=-1.0)
        with pytest.raises(BadEpsilon):  # the max row norm of zero rows is no bound
            make_sketch(np.zeros((2, 2)), 2, rng, noise_scale=0.5)

    @pytest.mark.parametrize("scale", [-0.5, np.nan, np.inf])
    def test_bad_noise_scale(self, scale):
        # a scale that is not a finite number >= 0 releases nothing, not a clean sketch
        with pytest.raises(BadEpsilon, match="noise scale"):
            make_sketch(np.ones((4, 3)), 2, np.random.default_rng(8), noise_scale=scale)

    @pytest.mark.parametrize("kw, digest, epsilon, c2, excluded", [
        ({}, "d50e9664509a3dbc4f3c1607fd9677f84f520543533e137ee77ccc516a9704f6",
         None, None, 0),
        ({"noise_scale": 0.5},
         "912d62acb0a65eced1610af33aa4f080453ee8f0dd14c68e8e19736198cf262b",
         44.913259840238744, 3.7427716533532287, 0),
        ({"epsilon": 2.0},
         "2dd2f24416bf8e64b2d95907e7e3066a3c161401df0f706f171bfb42ccb2610f",
         2.0, 3.7427716533532287, 0),
        ({"epsilon": 2.0, "c2": 2.2},
         "3926dee3270ac0e846e65e73ea687b62561e9f7f4bb7b8cd3b71e8530a9fd387", 2.0, 2.2, 22),
    ], ids=["clean", "noise-scale", "epsilon", "epsilon-c2"])
    def test_release_paths_pinned(self, kw, digest, epsilon, c2, excluded):
        # every release path keeps its draws and its recorded budget to the bit
        X = np.random.default_rng(7).normal(size=(60, 5))
        pkg = make_sketch(X, 3, np.random.default_rng(11), **kw)
        assert hashlib.sha256(pkg.projected.tobytes()).hexdigest() == digest
        assert (pkg.noised, pkg.epsilon, pkg.c2) == (bool(kw), epsilon, c2)
        assert len(pkg.rows_excluded) == excluded and pkg.n + excluded == 60

    def test_raw_scale_honours_clip_bound(self):
        # a raw scale with a given bound clips at it and records the epsilon it
        # implies: the release is the calibrated one at that epsilon
        X = np.random.default_rng(0).normal(size=(50, 4))
        pkg = make_sketch(X, 2, np.random.default_rng(1), noise_scale=0.5, c2=1.0)
        excluded = tuple(np.nonzero(np.linalg.norm(X, axis=1) > 1.0)[0])
        assert excluded and pkg.rows_excluded == excluded and pkg.n + len(excluded) == 50
        assert (pkg.c2, pkg.epsilon) == (1.0, 8.0)
        calibrated = make_sketch(X, 2, np.random.default_rng(1), epsilon=8.0, c2=1.0)
        assert pkg.projected.tobytes() == calibrated.projected.tobytes()


class TestPackage:
    def test_column_major_with_unchanged_wire_bytes(self):
        M = np.random.default_rng(3).normal(size=(6, 2))
        pkg = SketchPackage(projected=M, t=2)
        assert pkg.projected.flags.f_contiguous and not pkg.projected.flags.writeable
        offer = dict(t=2, noised=False, epsilon=None, c2=None, rows_excluded=())
        line = encode(SketchOffer(projected=pkg.projected, **offer))
        assert line == encode(SketchOffer(projected=M, **offer))
        assert decode(line).projected.tobytes() == M.tobytes()

    def test_zero_columns_rejected(self):
        with pytest.raises(BadDimensions):
            SketchPackage(projected=np.zeros((5, 0)), t=0)

    def test_noised_requires_metadata(self):
        with pytest.raises(ValueError):
            SketchPackage(projected=np.zeros((3, 1)), t=1, noised=True)

    @pytest.mark.parametrize("excluded", [(5,), (-1,), (1, 1)])
    def test_excluded_rows_are_distinct_rows_of_the_sketched_data(self, excluded):
        # 3 released rows and len(excluded) clipped ones: indices lie in [0, 3 + len)
        with pytest.raises(ValueError):
            SketchPackage(projected=np.zeros((3, 1)), t=1, rows_excluded=excluded)
        assert SketchPackage(projected=np.zeros((3, 1)), t=1, rows_excluded=(3, 0)).n == 3

    def test_t_within_p_b(self):
        with pytest.raises(BadDimensions):
            SketchPackage(projected=np.zeros((3, 4)), t=4, p_b=3)

    def test_make_sketch_noise_scale_records_implied_epsilon(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(20, 4))
        pkg = make_sketch(X, 2, rng, noise_scale=0.5)
        assert pkg.noised and pkg.epsilon is not None and pkg.c2 is not None
        assert 2.0 * pkg.t * pkg.c2 / pkg.epsilon == pytest.approx(0.5)

    def test_make_sketch_epsilon_clips(self):
        rng = np.random.default_rng(10)
        X = np.vstack([np.full((5, 2), 0.1), [[5.0, 5.0]]])
        pkg = make_sketch(X, 1, rng, epsilon=2.0, c2=1.0)
        assert pkg.rows_excluded == (5,)
        assert pkg.n == 5

    def test_clean_sketch_honours_clip_bound(self):
        # a clip bound without noise still drops the rows over it and records it
        X = np.vstack([np.full((5, 2), 0.1), [[5.0, 5.0]], np.full((2, 2), 0.3)])
        pkg = make_sketch(X, 2, np.random.default_rng(10), c2=1.0)
        assert (pkg.noised, pkg.epsilon, pkg.c2, pkg.rows_excluded) == (False, None, 1.0, (5,))
        U = projection(2, 2, np.random.default_rng(10))
        assert pkg.projected.tobytes() == (np.delete(X, 5, axis=0) @ U).tobytes()
        with pytest.raises(BadEpsilon):
            make_sketch(X, 2, np.random.default_rng(10), c2=0.0)


class TestMasking:
    def test_tiny_flip_prob_is_identity(self):
        rng = np.random.default_rng(11)
        y = (rng.uniform(size=10_000) < 0.5).astype(float)
        assert np.array_equal(mask_response(y, 1e-12, np.random.default_rng(12)), y)

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
        est = unmask_probability(float(mask_response(y, 0.25, rng).mean()), 0.25)
        assert abs(est - 0.7) <= 0.02

    def test_bad_flip_prob(self):
        rng = np.random.default_rng(14)
        for p in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(BadFlipProb):
                mask_response(np.array([0.0, 1.0]), p, rng)
            with pytest.raises(BadFlipProb):
                unmask_probability(0.3, p)
