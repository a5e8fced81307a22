import math

import numpy as np
import pytest

from aeal.errors import NotAGlm, UnknownFamily, UnsupportedResponse
from aeal.losses import LossFamily, _sigmoid, parse_family

FAMILIES = [
    LossFamily("gaussian"),
    LossFamily("logistic"),
    LossFamily("poisson"),
    LossFamily("logcosh", alpha=0.3),
]


def sample_domain(fam, rng, size):
    nu = rng.uniform(-4, 4, size)
    if fam.kind == "logistic":
        y = (rng.uniform(size=size) < 0.5).astype(float)
    elif fam.kind == "poisson":
        y = rng.integers(0, 8, size).astype(float)
    else:
        y = rng.normal(0, 2, size)
    return y, nu


class TestValues:
    def test_logistic_symmetric_point(self):
        fam = LossFamily("logistic")
        assert fam.value(1.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_poisson(self):
        fam = LossFamily("poisson")
        assert fam.value(2.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_logcosh_zero_residual(self):
        fam = LossFamily("logcosh", alpha=0.3)
        assert fam.value(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian(self):
        fam = LossFamily("gaussian")
        assert fam.value(3.0, 1.0) == pytest.approx(2.0)


class TestDerivs:
    def test_logistic_grad_at_zero(self):
        assert LossFamily("logistic").grad(1.0, 0.0) == pytest.approx(-0.5)

    def test_gaussian_hess_is_one(self):
        fam = LossFamily("gaussian")
        rng = np.random.default_rng(0)
        y, nu = sample_domain(fam, rng, 50)
        assert np.all(fam.hess(y, nu) == 1.0)

    def test_logcosh_grad_example(self):
        # finite-difference oracle on the loss itself
        fam = LossFamily("logcosh", alpha=0.3)
        h = 1e-5
        fd = (fam.value(0.0, 2.0 + h) - fam.value(0.0, 2.0 - h)) / (2 * h)
        g = fam.grad(0.0, 2.0)
        assert g == pytest.approx(fd, abs=1e-9)
        assert g == pytest.approx(math.tanh(0.6), abs=1e-12)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_grad_matches_finite_differences(self, fam):
        rng = np.random.default_rng(11)
        y, nu = sample_domain(fam, rng, 1000)
        h = 1e-5
        fd = (fam.value(y, nu + h) - fam.value(y, nu - h)) / (2 * h)
        g = fam.grad(y, nu)
        assert np.all(np.abs(g - fd) <= 1e-6 * (1 + np.abs(g)))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_hess_matches_finite_differences(self, fam):
        rng = np.random.default_rng(12)
        y, nu = sample_domain(fam, rng, 1000)
        h = 1e-5
        fd = (fam.grad(y, nu + h) - fam.grad(y, nu - h)) / (2 * h)
        hess = fam.hess(y, nu)
        assert np.all(np.abs(hess - fd) <= 1e-6 * (1 + np.abs(hess)))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_strict_convexity(self, fam):
        rng = np.random.default_rng(13)
        y, nu = sample_domain(fam, rng, 1000)
        assert np.all(fam.hess(y, nu) > 0)


def test_logistic_stabilized_tails():
    fam = LossFamily("logistic")
    for nu in (50.0, -50.0):
        for y in (0.0, 1.0):
            val = float(fam.value(y, nu))
            assert math.isfinite(val)
            asymptote = max(nu, 0.0) - y * nu
            assert abs(val - asymptote) <= 1e-12


def test_sigmoid_bitwise_two_branch():
    def two_branch(v):
        out = np.empty_like(v, dtype=float)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    rng = np.random.default_rng(17)
    edges = [0.0, 709.8, 745.2, 1e-300, np.inf]
    v = np.concatenate([rng.normal(0.0, scale, 2000) for scale in (1, 10, 100, 800)]
                       + [np.array(edges), -np.array(edges)])
    got = _sigmoid(v)
    assert got.dtype == np.float64 and got.shape == v.shape
    assert got.tobytes() == two_branch(v).tobytes()
    assert np.signbit(v[-5])  # -0.0 is among the inputs
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()
    for x in (0.3, -0.3, 0.0):  # the scalar path of inverse_link
        scalar = LossFamily("logistic").inverse_link(x)
        assert np.ndim(scalar) == 0
        assert np.float64(scalar).tobytes() == two_branch(np.array([x])).tobytes()



@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_derivatives_bitwise_equal_to_value_grad_hess(fam):
    rng = np.random.default_rng(23)
    edges = np.array([-800.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 800.0])
    y_rand, nu_rand = sample_domain(fam, rng, 400)
    for y, nu in ((sample_domain(fam, rng, edges.size)[0], edges), (y_rand, nu_rand),
                  (y_rand, rng.normal(0.0, 30.0, 400))):
        with np.errstate(over="ignore"):  # e^800 is inf for poisson
            got = fam.derivatives(y, nu)
            want = (fam.value(y, nu), fam.grad(y, nu), fam.hess(y, nu))
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == nu.shape
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_derivatives_of_scalars_are_scalars_with_the_array_bits(fam):
    # the logistic branch writes into preallocated outputs; a scalar or 0-d
    # input still gets scalars back, with the bits of a one-row array
    for y, nu in ((1.0, 0.3), (0.0, -2.5), (np.float64(1.0), np.array(0.0))):
        got = fam.derivatives(y, nu)
        want = fam.derivatives(np.array([y]), np.array([nu]))
        for g, w in zip(got, want):
            assert np.ndim(g) == 0
            assert np.float64(g).tobytes() == w.tobytes()


class TestInverseLink:
    def test_values(self):
        assert LossFamily("logistic").inverse_link(0.0) == pytest.approx(0.5)
        assert LossFamily("gaussian").inverse_link(3.2) == 3.2
        assert LossFamily("poisson").inverse_link(1.0) == pytest.approx(math.e, abs=1e-12)

    def test_logcosh_rejected(self):
        with pytest.raises(NotAGlm):
            LossFamily("logcosh").inverse_link(0.0)


class TestResponseSupport:
    def test_logistic_rejects_nonbinary(self):
        with pytest.raises(UnsupportedResponse):
            LossFamily("logistic").validate_response([0.0, 0.5, 1.0])

    def test_poisson_rejects_negative_and_fractional(self):
        with pytest.raises(UnsupportedResponse):
            LossFamily("poisson").validate_response([-1.0])
        with pytest.raises(UnsupportedResponse):
            LossFamily("poisson").validate_response([1.5])

    def test_gaussian_accepts_reals(self):
        LossFamily("gaussian").validate_response([-2.3, 0.0, 11.0])


def test_parse_family_roundtrip():
    for name in ("gaussian", "logistic", "poisson", "logcosh:0.3", "logcosh:1.5"):
        fam = parse_family(name)
        assert parse_family(fam.name) == fam
    assert parse_family("logcosh").alpha == 0.3
    with pytest.raises(ValueError):
        parse_family("student-t")
    for name in ("student-t", "logcoshx", "logcosh:wide", "logcosh:-1", "logcosh:nan"):
        with pytest.raises(UnknownFamily):  # an input error as well as a ValueError
            parse_family(name)
