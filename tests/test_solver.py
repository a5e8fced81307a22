import numpy as np
import pytest

from aeal.errors import SingularHessian
from aeal.losses import LossFamily
from aeal.solver import SolverConfig, fit_offset, sandwich_pieces

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")


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

    def test_singular_hessian_without_ridge(self):
        x = np.arange(1.0, 7.0)
        X = np.column_stack([x, 2 * x])
        y = np.arange(6.0)
        with pytest.raises(SingularHessian):
            fit_offset(X, y, None, GAUSS)
        # ridge regularizes the same problem
        fit = fit_offset(X, y, None, GAUSS, SolverConfig(ridge=1e-3))
        assert fit.converged

    def test_monotone_objective_over_iterations(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = (rng.uniform(size=60) < 0.3).astype(float)

        def objective(beta):
            return float(np.mean(LOGIT.value(y, X @ beta)))

        vals = []
        for j in range(1, 8):
            cfg = SolverConfig(max_iter=j, tol=1e-300)
            vals.append(objective(fit_offset(X, y, None, LOGIT, cfg).beta))
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
        got = fit_offset(X, y, o, GAUSS, SolverConfig(ridge=lam)).beta
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_not_converged_flagged(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 5))
        y = (rng.uniform(size=200) < 0.5).astype(float)
        fit = fit_offset(X, y, None, LOGIT, SolverConfig(max_iter=1, tol=1e-14))
        assert not fit.converged

    def test_last_step_within_tol_reports_converged(self):
        # a Gaussian Newton step lands on the minimum: the one step max_iter
        # allows is counted, converged judges the returned beta, and the
        # reported loss and gradient are those of that beta
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        o = rng.normal(size=50)
        fit = fit_offset(X, y, o, GAUSS, SolverConfig(max_iter=1))
        assert fit.converged and fit.iterations == 1
        nu = X @ fit.beta + o
        assert fit.final_loss == float(np.mean(GAUSS.value(y, nu)))
        assert fit.grad_norm_inf == float(np.max(np.abs(X.T @ GAUSS.grad(y, nu) / 50)))


class TestSandwich:
    def test_gaussian_v1_exact(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        beta = fit_offset(X, y, None, GAUSS).beta
        V1, _ = sandwich_pieces(X, y, None, GAUSS, beta)
        assert np.array_equal(V1, X.T @ X / 25) or np.allclose(V1, X.T @ X / 25, atol=1e-15)

    def test_single_row_rank_one(self):
        X = np.array([[2.0, -1.0]])
        y = np.array([0.5])
        V1, V2 = sandwich_pieces(X, y, None, GAUSS, np.zeros(2))
        assert np.linalg.matrix_rank(V1) == 1
        assert np.allclose(V1, np.outer(X[0], X[0]))

    def test_logistic_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 2))
        y = (rng.uniform(size=7) < 0.5).astype(float)
        beta = np.array([0.3, -0.8])
        V1, V2 = sandwich_pieces(X, y, None, LOGIT, beta)
        n = 7
        v1 = np.zeros((2, 2))
        v2 = np.zeros((2, 2))
        for i in range(n):
            nu = float(X[i] @ beta)
            v1 += float(LOGIT.hess(y[i], nu)) * np.outer(X[i], X[i]) / n
            v2 += float(LOGIT.grad(y[i], nu)) ** 2 * np.outer(X[i], X[i]) / n
        assert np.max(np.abs(V1 - v1)) <= 1e-12
        assert np.max(np.abs(V2 - v2)) <= 1e-12
