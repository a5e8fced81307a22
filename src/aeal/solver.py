"""Newton minimization of offset M-estimation objectives.

The objective is (1/n) sum_i m(y_i, x_i' beta + o_i) + lam * sum_j beta_j^2
(penalty without the 1/2; the Gaussian closed form is then
beta = (X'X + 2 n lam I)^{-1} X'(y - o)). One solver serves every family:
offsets plus the log-cosh loss break the weighted-least-squares identity, so
Newton steps with Armijo backtracking are used instead of fixed-step IRLS;
for GLM families the step coincides with IRLS.

spd_inverse, the package's one inverse of a positive definite matrix, raises
the caller's error type where Cholesky fails or a pivot falls under its floor.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularHessian

_EPS = np.finfo(float).eps
_ARMIJO = 1e-4    # sufficient-decrease fraction of the predicted descent
_SHRINK = 0.5     # backtracking factor on the step length
_TOL = 1e-9       # on the inf-norm of the penalized gradient
_MAX_ITER = 100
# weighted_gram's bytes per row block: the block and its weighted copy stay in a
# core's 2 MiB L2, which one n x p copy overflows at n = 2e4 (memory-bound then)
_GRAM_BLOCK_BYTES = 1 << 19


@dataclass
class FitResult:
    beta: np.ndarray
    iterations: int
    grad_norm_inf: float
    converged: bool
    final_loss: float        # penalized objective value
    # m' and m'' per row at beta, for the caller's sandwich_pieces; without_rows drops them
    grad_rows: np.ndarray = field(default=None, repr=False, compare=False)
    hess_rows: np.ndarray = field(default=None, repr=False, compare=False)

    def without_rows(self):
        """This fit without its n-row derivatives, for a caller that keeps it."""
        return replace(self, grad_rows=None, hess_rows=None)


def spd_inverse(M, error, what, floor=None):
    """L^-T L^-1 from the Cholesky factor L of M. Raises error("<what> is not
    positive definite") if M does not factor or, given a floor, if its squared
    smallest pivot is at most floor * max(diag M): rounding can let a singular M factor."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = None
    if L is None or floor is not None and M.size and (
            np.min(np.diag(L)) ** 2 <= floor * np.max(np.diag(M))):
        raise error(f"{what} is not positive definite")
    L_inv = np.linalg.inv(L)
    return L_inv.T @ L_inv


def weighted_gram(X, w):
    """X' diag(w) X summed over equal row blocks, each weighted copy within
    _GRAM_BLOCK_BYTES; rows that fit in one block give (X * w[:, None]).T @ X."""
    n, p = X.shape
    rows = _GRAM_BLOCK_BYTES // (X.itemsize * max(p, 1))
    if n <= rows:
        return (X * w[:, None]).T @ X
    rows = -(-n // -(-n // rows))  # as many blocks as the budget needs, equal in size
    G = np.zeros((p, p))
    for s in range(0, n, rows):
        Xs = X[s:s + rows]
        G += (Xs * w[s:s + rows, None]).T @ Xs
    return G


def _predictor(X, beta, offset):
    """X beta, plus the offset only when one is given: no n-vector of zeros."""
    nu = X @ beta
    if offset is not None:
        nu += offset  # the same addition as X @ beta + offset
    return nu


def fit_offset(X, y, offset, fam, ridge=0.0, init=None):
    """Minimize the offset objective with lam = ridge by damped Newton;
    returns the unique stationary point when the objective is strictly convex.

    Requires X of full column rank or ridge > 0. A singular Newton system
    raises SingularHessian, also under a ridge below rounding. Running out of
    _MAX_ITER steps or a stalled line search returns the last iterate;
    converged reports whether its gradient is within _TOL.
    """
    if not 0.0 <= ridge < np.inf:  # NaN fails too
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge}")
    X = np.asarray(X, dtype=float)
    y = fam.validate_response(y)
    n, p = X.shape
    if len(y) != n or (offset is not None and len(offset) != n):
        raise ValueError("inconsistent lengths")

    def evaluate(beta):
        # the objective at beta, and the loss derivatives its Newton step needs
        m, m1, m2 = fam.derivatives(y, _predictor(X, beta, offset))
        return float(np.mean(m)) + ridge * float(beta @ beta), m1, m2

    beta = np.zeros(p) if init is None else np.array(init, dtype=float)
    obj, m1, w = evaluate(beta)
    it = 0
    while True:
        g = X.T @ m1 / n + 2.0 * ridge * beta
        grad_inf = float(np.max(np.abs(g))) if p else 0.0
        if grad_inf <= _TOL or it == _MAX_ITER:
            break
        it += 1
        H = weighted_gram(X, w) / n + 2.0 * ridge * np.eye(p)
        step = spd_inverse(H, SingularHessian, "Newton system", 1e-14) @ g
        slope = float(g @ step)  # descent amount predicted by the model
        # near the minimum the predicted decrease falls below the rounding of
        # the objective itself; a step is accepted within that rounding, so a
        # warm start just above tol still takes its Newton step
        slack = 4.0 * _EPS * abs(obj)
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            cand_obj, c1, c2 = evaluate(cand)
            if cand_obj <= obj - _ARMIJO * t * slope + slack:
                beta, obj, m1, w = cand, cand_obj, c1, c2
                break
            t *= _SHRINK
        else:
            break  # stalled at numerical precision; grad_inf is still beta's

    return FitResult(beta=beta, iterations=it, grad_norm_inf=grad_inf,
                     converged=grad_inf <= _TOL, final_loss=obj, grad_rows=m1, hess_rows=w)


def sandwich_pieces(X, g, w):
    """Hessian and outer-product pieces of the robust covariance from the loss
    derivatives g = m'(y_i, nu_i) and w = m''(y_i, nu_i) at the point:

    V1 = (1/n) sum w_i x_i x_i', V2 = (1/n) sum g_i^2 x_i x_i'.
    A fit's grad_rows and hess_rows are these rows at its beta. Ridge
    penalties never enter these.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    return weighted_gram(X, w) / n, weighted_gram(X, g * g) / n
