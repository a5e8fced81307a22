import hashlib
import json

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
        assert np.array_equal(pkg.projected, X @ projection(3, 3, np.random.default_rng(0)))

    def test_boundary_inclusive(self):
        # a row on the sphere is scaled by exactly 1
        pkg = make_sketch(np.array([[1.0, 0.0]]), 1, np.random.default_rng(0), c2=1.0)
        assert pkg.projected.tobytes() == projection(2, 1, np.random.default_rng(0))[:1].tobytes()

    def test_scales_large_rows(self):
        # the row of norm 2 is scaled onto the unit sphere, and no row is dropped
        pkg = make_sketch(np.diag([0.5, 2.0, 0.9]), 2, np.random.default_rng(0), c2=1.0)
        U = projection(3, 2, np.random.default_rng(0))
        assert pkg.projected.tobytes() == (np.diag([0.5, 1.0, 0.9]) @ U).tobytes()

    @pytest.mark.parametrize("p_b, t", [(1, 1), (3, 2), (6, 3)])
    def test_one_row_moves_the_release_by_at_most_2_t_c2(self, p_b, t):
        # the L1 sensitivity the Laplace scale 2 t c2 / epsilon assumes: rows
        # inside, on and outside the c2-ball, every pair of them, up to the
        # rounding of the scaling
        c2 = 1.8
        directions = np.random.default_rng(p_b).normal(size=(8, p_b))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        X = np.vstack([directions * r for r in (0.0, 0.5 * c2, c2, 3.0 * c2, 1e6)])
        X = np.vstack([X, -X])
        for seed in range(20):
            M = make_sketch(X, t, np.random.default_rng(seed), c2=c2).projected
            gaps = np.abs(M[:, None, :] - M[None, :, :]).sum(axis=2)
            assert gaps.max() <= 2.0 * t * c2 * (1.0 + 1e-12)
        if p_b == 1:  # x and -x outside the ball attain the bound
            assert gaps.max() == pytest.approx(2.0 * c2, rel=1e-12)


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
        for kw in ({"epsilon": np.inf, "c2": 1.0}, {"epsilon": 1.0, "c2": np.nan}):
            with pytest.raises(BadEpsilon, match="must be finite and positive"):
                make_sketch(np.zeros((2, 2)), 2, rng, **kw)
        with pytest.raises(BadEpsilon, match="needs a clip bound"):  # nothing bounds its rows
            make_sketch(np.zeros((2, 2)), 2, rng, epsilon=1.0)
        with pytest.raises(BadEpsilon, match="not both"):  # epsilon and c2 set the scale
            make_sketch(np.zeros((2, 2)), 2, rng, noise_scale=100.0, epsilon=5.0, c2=1.0)

    @pytest.mark.parametrize("scale", [-0.5, np.nan, np.inf])
    def test_bad_noise_scale(self, scale):
        # a scale that is not a finite number >= 0 releases nothing, not a clean sketch
        with pytest.raises(BadEpsilon, match="noise scale"):
            make_sketch(np.ones((4, 3)), 2, np.random.default_rng(8), noise_scale=scale)

    @pytest.mark.parametrize("kw, digest, epsilon, c2, clipped", [
        ({}, "d50e9664509a3dbc4f3c1607fd9677f84f520543533e137ee77ccc516a9704f6",
         None, None, 0),
        ({"noise_scale": 0.5},
         "912d62acb0a65eced1610af33aa4f080453ee8f0dd14c68e8e19736198cf262b", None, None, 0),
        # a bound at the largest row norm scales every row by exactly 1
        ({"epsilon": 2.0, "c2": 3.7427716533532287},
         "2dd2f24416bf8e64b2d95907e7e3066a3c161401df0f706f171bfb42ccb2610f",
         2.0, 3.7427716533532287, 0),
        ({"epsilon": 2.0, "c2": 2.2},
         "bb1c9e1171a0fcba95cf96d29f359a3fc3c9e272c3e3820a8f2b9069005c659b", 2.0, 2.2, 22),
    ], ids=["clean", "noise-scale", "epsilon", "epsilon-c2"])
    def test_release_paths_pinned(self, kw, digest, epsilon, c2, clipped):
        # every release path keeps its draws to the bit and records only the
        # caller's budget; c2 scales the rows over it and drops none
        X = np.random.default_rng(7).normal(size=(60, 5))
        pkg = make_sketch(X, 3, np.random.default_rng(11), **kw)
        assert hashlib.sha256(pkg.projected.tobytes()).hexdigest() == digest
        assert (pkg.noised, pkg.epsilon, pkg.c2) == (bool(kw), epsilon, c2)
        assert pkg.n == 60 and np.sum(np.linalg.norm(X, axis=1) > (c2 or np.inf)) == clipped

    def test_a_uniform_of_zero_releases_a_finite_draw(self):
        # Generator.uniform can return 0.0, where the inverse CDF meets log1p(-1)
        class FirstUniformZero:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                return self.rng.standard_normal(size)

            def uniform(self, size):
                u = self.rng.uniform(size=size)
                u.flat[0] = 0.0
                return u

        X = np.ones((1, 3))
        pkg = make_sketch(X, 2, FirstUniformZero(np.random.default_rng(0)), noise_scale=1.0)
        assert np.isfinite(pkg.projected).all()
        clean = make_sketch(X, 2, np.random.default_rng(0)).projected
        assert pkg.projected[0, 0] == clean[0, 0] + np.log1p(2.0 ** -53 - 1.0)

    def test_raw_scale_honours_clip_bound(self):
        # a raw scale with a given bound clips at it and records the epsilon it
        # implies: the release is the calibrated one at that epsilon
        X = np.random.default_rng(0).normal(size=(50, 4))
        pkg = make_sketch(X, 2, np.random.default_rng(1), noise_scale=0.5, c2=1.0)
        assert np.any(np.linalg.norm(X, axis=1) > 1.0) and pkg.n == 50
        assert (pkg.c2, pkg.epsilon) == (1.0, 8.0)
        calibrated = make_sketch(X, 2, np.random.default_rng(1), epsilon=8.0, c2=1.0)
        assert pkg.projected.tobytes() == calibrated.projected.tobytes()


class TestPackage:
    def test_column_major_with_unchanged_wire_bytes(self):
        M = np.random.default_rng(3).normal(size=(6, 2))
        pkg = SketchPackage(projected=M, t=2)
        assert pkg.projected.flags.f_contiguous and not pkg.projected.flags.writeable
        offer = dict(t=2, noised=False, epsilon=None, c2=None)
        line = encode(SketchOffer(projected=pkg.projected, **offer))
        assert line == encode(SketchOffer(projected=M, **offer))
        assert decode(line).projected.tobytes() == M.tobytes()

    def test_zero_columns_rejected(self):
        with pytest.raises(BadDimensions):
            SketchPackage(projected=np.zeros((5, 0)), t=0)

    def test_noised_requires_metadata(self):
        # an offer records epsilon exactly when it is noised and records c2; a
        # noised one with neither is a raw scale that claims no privacy
        for kw in ({"noised": True, "c2": 1.0}, {"noised": True, "epsilon": 1.0},
                   {"epsilon": 1.0, "c2": 1.0}):
            with pytest.raises(ValueError, match="records epsilon exactly when"):
                SketchPackage(projected=np.zeros((3, 1)), t=1, **kw)
        assert SketchPackage(projected=np.zeros((3, 1)), t=1, noised=True).epsilon is None

    @pytest.mark.parametrize("excluded", [(5,), (-1,), (1, 1)])
    def test_excluded_rows_are_distinct_rows_of_the_sketched_data(self, excluded):
        # no release drops a row, so an offer lists none: neither these nor two
        # distinct rows such as (3, 0)
        for rows in (excluded, (3, 0)):
            with pytest.raises(ValueError, match="rows_excluded must be empty"):
                SketchPackage(projected=np.zeros((3, 1)), t=1, rows_excluded=rows)

    def test_make_sketch_noise_scale_records_implied_epsilon(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(20, 4))
        pkg = make_sketch(X, 2, rng, noise_scale=0.5, c2=2.0)
        assert pkg.noised and pkg.c2 == 2.0
        assert 2.0 * pkg.t * pkg.c2 / pkg.epsilon == pytest.approx(0.5)
        # with no bound from the caller the offer records no budget at all
        bare = make_sketch(X, 2, rng, noise_scale=0.5)
        assert bare.noised and (bare.epsilon, bare.c2) == (None, None)

    def test_make_sketch_epsilon_clips(self):
        X = np.vstack([np.full((5, 2), 0.1), [[6.0, 8.0]]])
        pkg = make_sketch(X, 1, np.random.default_rng(10), epsilon=2.0, c2=1.0)
        # the same draws on the row already scaled to the unit sphere
        X[5] = [0.6, 0.8]
        want = make_sketch(X, 1, np.random.default_rng(10), epsilon=2.0, c2=1.0)
        assert pkg.n == 6 and np.allclose(pkg.projected, want.projected, rtol=0, atol=1e-15)

    def test_clean_sketch_honours_clip_bound(self):
        # a clip bound without noise still scales the rows over it and records it
        X = np.vstack([np.full((5, 2), 0.1), [[6.0, 8.0]], np.full((2, 2), 0.3)])
        pkg = make_sketch(X, 2, np.random.default_rng(10), c2=1.0)
        assert (pkg.noised, pkg.epsilon, pkg.c2, pkg.n) == (False, None, 1.0, 8)
        U = projection(2, 2, np.random.default_rng(10))
        X[5] = [0.6, 0.8]
        assert np.allclose(pkg.projected, X @ U, rtol=0, atol=1e-15)
        with pytest.raises(BadEpsilon):
            make_sketch(X, 2, np.random.default_rng(10), c2=0.0)


    @pytest.mark.parametrize("kw", [{}, {"noise_scale": 0.5}, {"epsilon": 2.0, "c2": 1.0},
                                    {"c2": 1.0}],
                             ids=["clean", "noise-scale", "epsilon-c2", "clip-only"])
    def test_zero_rows_release_a_0_by_t_offer(self, kw):
        X = np.random.default_rng(12).normal(size=(5, 4))
        pkg = make_sketch(X[:0], 2, np.random.default_rng(13), **kw)
        assert pkg.projected.shape == (0, 2) and pkg.n == 0

    def test_offer_line_carries_only_the_matrix_and_the_callers_budget(self):
        # the encoded offer of a clipped epsilon-release: the noised matrix, t,
        # the flag, and epsilon and c2 exactly as the caller gave them
        X = np.random.default_rng(14).normal(size=(40, 4))
        line = json.loads(encode(make_sketch(X, 3, np.random.default_rng(15), epsilon=20.0,
                                             c2=1.8)))
        assert set(line) == {"type", "projected", "t", "noised", "epsilon", "c2"}
        assert (line["t"], line["noised"], line["epsilon"], line["c2"]) == (3, True, 20.0, 1.8)
        assert line["projected"]["shape"] == [40, 3]
        # a raw scale with no bound records neither
        raw = json.loads(encode(make_sketch(X, 3, np.random.default_rng(15), noise_scale=0.5)))
        assert set(raw) == set(line) and (raw["epsilon"], raw["c2"]) == (None, None)


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

    @pytest.mark.parametrize("call, error", [
        (lambda: mask_response(np.array([0.0, 2.0]), 0.2, np.random.default_rng(0)),
         BadFlipProb),
        (lambda: unmask_probability(np.array([0.3, 1.2]), 0.2), ValueError),
        (lambda: unmask_probability(-0.1, 0.2), ValueError),
    ], ids=["mask-non-binary", "unmask-above-1", "unmask-below-0"])
    def test_refuses_values_off_its_domain(self, call, error):
        with pytest.raises(error, match=r"0/1 responses|must lie in \[0, 1\]"):
            call()

    def test_bad_flip_prob(self):
        rng = np.random.default_rng(14)
        for p in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(BadFlipProb):
                mask_response(np.array([0.0, 1.0]), p, rng)
            with pytest.raises(BadFlipProb):
                unmask_probability(0.3, p)
