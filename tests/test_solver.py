import math
import tracemalloc

import numpy as np
import pytest

from aeal import solver
from aeal.errors import SingularHessian
from aeal.losses import LossFamily
from aeal.solver import fit_offset, sandwich_pieces, spd_inverse, weighted_gram

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")
FAMILIES = [GAUSS, LOGIT, LossFamily("poisson"), LossFamily("logcosh", alpha=0.3)]


def reference_newton(X, y, offset, fam, lam, init=None):
    """The Newton loop written with separate value, grad and hess calls, one
    objective evaluation per candidate and the gradient taken afresh at each
    accepted point: (beta, iterations, grad_inf, final_loss)."""
    n, p = X.shape

    def objective(beta):
        val = float(np.mean(fam.value(y, X @ beta + offset)))
        if lam > 0:
            val += lam * float(beta @ beta)
        return val

    beta = np.zeros(p) if init is None else np.array(init, dtype=float)
    obj = objective(beta)
    it = 0
    while True:
        nu = X @ beta + offset
        g = X.T @ fam.grad(y, nu) / n
        if lam > 0:
            g = g + 2.0 * lam * beta
        grad_inf = float(np.max(np.abs(g)))
        if grad_inf <= solver._TOL or it == solver._MAX_ITER:
            break
        it += 1
        H = (X * fam.hess(y, nu)[:, None]).T @ X / n
        if lam > 0:
            H = H + 2.0 * lam * np.eye(p)
        step = spd_inverse(H, SingularHessian, "Newton system", 1e-14) @ g
        slope = float(g @ step)
        slack = 4.0 * np.finfo(float).eps * abs(obj)
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            cand_obj = objective(cand)
            if cand_obj <= obj - 1e-4 * t * slope + slack:
                beta, obj = cand, cand_obj
                break
            t *= 0.5
        else:
            break
    return beta, it, grad_inf, obj


def grid_search_2d(objective, lo=-5.0, hi=5.0):
    """Coarse-to-fine grid minimization, independent of the Newton path.

    Three refinement levels end at step 1e-3; the objective is convex so the
    restriction to a shrinking box around the running best is sound.
    """
    best = (np.inf, None)
    span = (lo, hi, lo, hi)
    step = 0.1
    for _ in range(3):
        xs = np.arange(span[0], span[1] + step / 2, step)
        ys = np.arange(span[2], span[3] + step / 2, step)
        for b0 in xs:
            for b1 in ys:
                val = objective(np.array([b0, b1]))
                if val < best[0]:
                    best = (val, np.array([b0, b1]))
        c = best[1]
        span = (c[0] - 2 * step, c[0] + 2 * step, c[1] - 2 * step, c[1] + 2 * step)
        step /= 10.0
    return best[1]


class TestFitOffset:
    def test_intercept_only_mean(self):
        X = np.ones((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        fit = fit_offset(X, y, None, GAUSS)
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.converged

    def test_offset_shifts_mean(self):
        X = np.ones((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        fit = fit_offset(X, y, np.ones(3), GAUSS)
        assert fit.beta[0] == pytest.approx(1.0, abs=1e-12)

    def test_logistic_against_grid_search(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])

        def objective(beta):
            return float(np.mean(LOGIT.value(y, X @ beta)))

        ref = grid_search_2d(objective)
        fit = fit_offset(X, y, None, LOGIT)
        assert np.max(np.abs(fit.beta - ref)) <= 1e-3

    def test_zero_init_default_and_warm_start(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        cold = fit_offset(X, y, None, GAUSS)
        warm = fit_offset(X, y, None, GAUSS, init=cold.beta)
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.beta, cold.beta, atol=1e-12)

    def test_uniqueness_across_inits(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(80, 4))
        y = (rng.uniform(size=80) < 0.5).astype(float)
        fits = [fit_offset(X, y, None, LOGIT, init=rng.normal(size=4) * 2)
                for _ in range(2)]
        assert np.max(np.abs(fits[0].beta - fits[1].beta)) <= 1e-8

    @pytest.mark.parametrize("ridge, n_y, message", [
        (-1e-3, 4, "ridge must be nonnegative"),
        (np.nan, 4, "ridge must be nonnegative and finite"),
        (np.inf, 4, "ridge must be nonnegative and finite"),
        (0.0, 5, "inconsistent lengths"),
    ], ids=["negative-ridge", "nan-ridge", "inf-ridge", "y-of-another-length"])
    def test_bad_arguments_rejected(self, ridge, n_y, message):
        with pytest.raises(ValueError, match=message):
            fit_offset(np.ones((4, 1)), np.zeros(n_y), None, GAUSS, ridge)

    def test_singular_hessian_without_ridge(self):
        x = np.arange(1.0, 7.0)
        X = np.column_stack([x, 2 * x])
        y = np.arange(6.0)
        with pytest.raises(SingularHessian):
            fit_offset(X, y, None, GAUSS)
        # ridge regularizes the same problem
        fit = fit_offset(X, y, None, GAUSS, ridge=1e-3)
        assert fit.converged

    def test_singular_hessian_under_a_ridge_below_rounding(self):
        # a ridge too small to lift equal columns off singular: the solver's
        # own error, not numpy's
        x = np.arange(1.0, 7.0)
        with pytest.raises(SingularHessian, match="Newton system is not positive definite"):
            fit_offset(np.column_stack([x, x]), np.arange(6.0), None, GAUSS, ridge=1e-20)

    def test_monotone_objective_over_iterations(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = (rng.uniform(size=60) < 0.3).astype(float)

        def objective(beta):
            return float(np.mean(LOGIT.value(y, X @ beta)))

        vals = []
        monkeypatch.setattr(solver, "_TOL", 1e-300)
        for j in range(1, 8):
            monkeypatch.setattr(solver, "_MAX_ITER", j)
            vals.append(objective(fit_offset(X, y, None, LOGIT).beta))
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))

    def test_gaussian_offset_equals_residualized(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        o = rng.normal(size=40)
        with_offset = fit_offset(X, y, o, GAUSS).beta
        residualized = fit_offset(X, y - o, None, GAUSS).beta
        assert np.max(np.abs(with_offset - residualized)) <= 1e-12

    def test_ridge_closed_form(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        o = rng.normal(size=30)
        lam = 0.05
        n = 30
        want = np.linalg.solve(X.T @ X + 2 * n * lam * np.eye(4), X.T @ (y - o))
        got = fit_offset(X, y, o, GAUSS, ridge=lam).beta
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_not_converged_flagged(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 5))
        y = (rng.uniform(size=200) < 0.5).astype(float)
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        monkeypatch.setattr(solver, "_TOL", 1e-14)
        fit = fit_offset(X, y, None, LOGIT)
        assert not fit.converged

    def test_last_step_within_tol_reports_converged(self, monkeypatch):
        # a Gaussian Newton step lands on the minimum: the one step max_iter
        # allows is counted, converged judges the returned beta, and the
        # reported loss and gradient are those of that beta
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        o = rng.normal(size=50)
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        fit = fit_offset(X, y, o, GAUSS)
        assert fit.converged and fit.iterations == 1
        nu = X @ fit.beta + o
        assert fit.final_loss == float(np.mean(GAUSS.value(y, nu)))
        assert fit.grad_norm_inf == float(np.max(np.abs(X.T @ GAUSS.grad(y, nu) / 50)))


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_one_evaluation_per_point_is_bitwise_the_reference_loop(fam, ridge):
    # the accepted candidate's derivatives serve the next step: every
    # FitResult field keeps the bits of the loop that evaluated each point anew
    rng = np.random.default_rng(31)
    n = 400
    X = np.asfortranarray(rng.normal(size=(n, 4)) * 0.5)
    nu = X @ np.array([0.4, -0.3, 0.2, 0.1])
    y = {"gaussian": nu + rng.normal(size=n),
         "logistic": (rng.uniform(size=n) < 1 / (1 + np.exp(-nu))).astype(float),
         "poisson": rng.poisson(np.exp(nu)).astype(float),
         "logcosh": nu + rng.standard_t(3, size=n)}[fam.kind]
    offset = 0.3 * rng.normal(size=n)
    cases = [(np.zeros(n), None), (offset, None), (offset, rng.normal(size=4))]
    for off, init in cases:
        fit = fit_offset(X, y, off, fam, ridge, init=init)
        beta, it, grad_inf, obj = reference_newton(X, y, off, fam, ridge, init=init)
        assert fit.beta.tobytes() == beta.tobytes()
        assert (fit.iterations, fit.grad_norm_inf, fit.final_loss) == (it, grad_inf, obj)
        assert fit.converged and it > 0


class TestSandwich:
    def test_gaussian_v1_exact(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        beta = fit_offset(X, y, None, GAUSS).beta
        V1, _ = sandwich_pieces(X, *GAUSS.derivatives(y, X @ beta)[1:])
        assert np.array_equal(V1, X.T @ X / 25) or np.allclose(V1, X.T @ X / 25, atol=1e-15)

    def test_single_row_rank_one(self):
        X = np.array([[2.0, -1.0]])
        y = np.array([0.5])
        V1, V2 = sandwich_pieces(X, *GAUSS.derivatives(y, X @ np.zeros(2))[1:])
        assert np.linalg.matrix_rank(V1) == 1
        assert np.allclose(V1, np.outer(X[0], X[0]))

    def test_logistic_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 2))
        y = (rng.uniform(size=7) < 0.5).astype(float)
        beta = np.array([0.3, -0.8])
        V1, V2 = sandwich_pieces(X, *LOGIT.derivatives(y, X @ beta)[1:])
        n = 7
        v1 = np.zeros((2, 2))
        v2 = np.zeros((2, 2))
        for i in range(n):
            nu = float(X[i] @ beta)
            v1 += float(LOGIT.hess(y[i], nu)) * np.outer(X[i], X[i]) / n
            v2 += float(LOGIT.grad(y[i], nu)) ** 2 * np.outer(X[i], X[i]) / n
        assert np.max(np.abs(V1 - v1)) <= 1e-12
        assert np.max(np.abs(V2 - v2)) <= 1e-12

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_bitwise_separate_grad_and_hess(self, fam):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        y = rng.poisson(1.0, size=60).astype(float) if fam.kind == "poisson" else (
            rng.uniform(size=60) < 0.5).astype(float)
        offset = rng.normal(size=60)
        beta = np.array([0.3, -0.8, 0.1])
        nu = X @ beta + offset
        V1, V2 = sandwich_pieces(X, *fam.derivatives(y, nu)[1:])
        g = fam.grad(y, nu)
        assert V1.tobytes() == ((X * fam.hess(y, nu)[:, None]).T @ X / 60).tobytes()
        assert V2.tobytes() == ((X * (g * g)[:, None]).T @ X / 60).tobytes()


def unblocked_gram(X, w):
    """The weighted Gram as one product over all rows."""
    return (X * w[:, None]).T @ X


def block_rows(p):
    """The most rows weighted_gram takes in one block for p columns."""
    return solver._GRAM_BLOCK_BYTES // (8 * max(p, 1))


class TestWeightedGram:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n,p", [(1, 3), (50, 0), (300, 4), (5000, 13), (65536, 1)])
    def test_one_block_is_the_plain_product(self, n, p, order):
        assert n <= block_rows(p)
        rng = np.random.default_rng(n + p)
        X = np.asarray(rng.normal(size=(n, p)), order=order)
        w = rng.uniform(size=n)
        G = weighted_gram(X, w)
        assert G.shape == (p, p)
        assert G.tobytes() == unblocked_gram(X, w).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n,p", [(20001, 11), (65537, 1), (30000, 5)])
    def test_several_blocks_match_an_exact_sum(self, n, p, order):
        # 20001 rows make four blocks of 5001 rows and a last one of 4998
        assert n > block_rows(p)
        rng = np.random.default_rng(n + p)
        X = np.asarray(rng.normal(size=(n, p)), order=order)
        w = rng.uniform(size=n)
        G = weighted_gram(X, w)
        ref = np.array([[math.fsum(X[:, j] * w * X[:, k]) for k in range(p)]
                        for j in range(p)])
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_fit_and_sandwich_peaks_stay_below_the_design(self):
        # a full weighted copy of X, as the unblocked product makes, would
        # already push either peak past X.nbytes
        rng = np.random.default_rng(41)
        n, p = 200_000, 11
        X = np.asfortranarray(rng.normal(size=(n, p)) / np.sqrt(p))
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-X @ np.ones(p)))).astype(float)
        tracemalloc.start()
        try:
            fit = fit_offset(X, y, None, LOGIT)
            fit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sandwich_pieces(X, fit.grad_rows, fit.hess_rows)
            sandwich_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged
        assert fit_peak < X.nbytes and sandwich_peak < X.nbytes


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("with_offset", [False, True])
@pytest.mark.parametrize("fam", [LOGIT, LossFamily("poisson")], ids=lambda f: f.kind)
def test_fit_above_one_block_matches_the_unblocked_product(monkeypatch, fam, with_offset,
                                                           ridge):
    rng = np.random.default_rng(43)
    n, p = 20_000, 6
    assert n > block_rows(p)
    X = np.asfortranarray(rng.normal(size=(n, p)) * 0.4)
    nu = X @ np.linspace(-0.5, 0.5, p)
    y = ((rng.uniform(size=n) < 1 / (1 + np.exp(-nu))).astype(float) if fam is LOGIT
         else rng.poisson(np.exp(nu)).astype(float))
    offset = 0.3 * rng.normal(size=n) if with_offset else None
    fit = fit_offset(X, y, offset, fam, ridge)
    monkeypatch.setattr(solver, "weighted_gram", unblocked_gram)
    ref = fit_offset(X, y, offset, fam, ridge)
    assert fit.converged and fit.iterations == ref.iterations > 0
    assert np.max(np.abs(fit.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))


def pieces_from_the_point(X, y, offset, fam, beta):
    """V1 and V2 as formed from the point itself, the derivatives taken afresh
    at X beta (+ offset): the reference for a fit's handed-on rows."""
    nu = X @ beta
    if offset is not None:
        nu += offset
    _, g, w = fam.derivatives(y, nu)
    n = X.shape[0]
    return weighted_gram(X, w) / n, weighted_gram(X, g * g) / n


@pytest.mark.parametrize("blocks", [1, 5])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("with_offset", [False, True])
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
def test_fit_hands_on_the_derivative_rows_at_its_beta(monkeypatch, fam, with_offset, ridge,
                                                      blocks):
    # the rows of the fit's last evaluation are the loss derivatives at its
    # beta, so a sandwich from them is the one from the point, bit for bit
    rng = np.random.default_rng(47)
    n, p = 600, 4
    monkeypatch.setattr(solver, "_GRAM_BLOCK_BYTES", 8 * p * (n // blocks))
    X = np.asfortranarray(rng.normal(size=(n, p)) * 0.5)
    nu = X @ np.array([0.4, -0.3, 0.2, 0.1])
    y = {"gaussian": nu + rng.normal(size=n),
         "logistic": (rng.uniform(size=n) < 1 / (1 + np.exp(-nu))).astype(float),
         "poisson": rng.poisson(np.exp(nu)).astype(float),
         "logcosh": nu + rng.standard_t(3, size=n)}[fam.kind]
    offset = 0.3 * rng.normal(size=n) if with_offset else None
    fit = fit_offset(X, y, offset, fam, ridge)
    assert fit.converged and fit.iterations > 0
    nu = X @ fit.beta if offset is None else X @ fit.beta + offset
    _, g, w = fam.derivatives(y, nu)
    assert fit.grad_rows.tobytes() == g.tobytes()
    assert fit.hess_rows.tobytes() == w.tobytes()
    got = sandwich_pieces(X, fit.grad_rows, fit.hess_rows)
    want = pieces_from_the_point(X, y, offset, fam, fit.beta)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    kept = fit.without_rows()
    assert kept.grad_rows is None and kept.hess_rows is None
    assert kept == fit and kept.beta is fit.beta
