"""Newton minimization of offset M-estimation objectives.

The objective is (1/n) sum_i m(y_i, x_i' beta + o_i) + lam * sum_j beta_j^2
(penalty without the 1/2; the Gaussian closed form is then
beta = (X'X + 2 n lam I)^{-1} X'(y - o)). One solver serves every family:
offsets plus the log-cosh loss break the weighted-least-squares identity, so
Newton steps with Armijo backtracking are used instead of fixed-step IRLS;
for GLM families the step coincides with IRLS.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularHessian

_EPS = np.finfo(float).eps
_ARMIJO = 1e-4    # sufficient-decrease fraction of the predicted descent
_SHRINK = 0.5     # backtracking factor on the step length


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9          # on the inf-norm of the penalized gradient
    max_iter: int = 100
    ridge: float = 0.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")


@dataclass
class FitResult:
    beta: np.ndarray
    iterations: int
    grad_norm_inf: float
    converged: bool
    final_loss: float        # penalized objective value


def _objective(X, y, offset, fam, lam, beta):
    nu = X @ beta + offset
    val = float(np.mean(fam.value(y, nu)))
    if lam > 0:
        val += lam * float(beta @ beta)
    return val


def fit_offset(X, y, offset, fam, cfg=None, init=None):
    """Minimize the offset objective by damped Newton; returns the unique
    stationary point when the objective is strictly convex.

    Requires X of full column rank or ridge > 0. A singular Newton system at
    ridge = 0 raises SingularHessian. Running out of max_iter or a stalled
    line search returns the last iterate; converged reports whether its
    gradient is within tol.
    """
    cfg = cfg or SolverConfig()
    X = np.asarray(X, dtype=float)
    y = fam.validate_response(y)
    n, p = X.shape
    if offset is None:
        offset = np.zeros(n)
    offset = np.asarray(offset, dtype=float)
    if len(y) != n or len(offset) != n:
        raise ValueError("inconsistent lengths")
    lam = cfg.ridge

    beta = np.zeros(p) if init is None else np.array(init, dtype=float)
    obj = _objective(X, y, offset, fam, lam, beta)
    it = 0
    while True:
        nu = X @ beta + offset
        g = X.T @ fam.grad(y, nu) / n
        if lam > 0:
            g = g + 2.0 * lam * beta
        grad_inf = float(np.max(np.abs(g))) if p else 0.0
        if grad_inf <= cfg.tol or it == cfg.max_iter:
            break
        it += 1
        w = fam.hess(y, nu)
        H = (X * w[:, None]).T @ X / n
        if lam > 0:
            H = H + 2.0 * lam * np.eye(p)
        try:
            chol = scipy.linalg.cho_factor(H, lower=True)
            # rounding can let an exactly singular Gram matrix factor; the
            # squared smallest pivot exposes it
            d = np.diag(chol[0])
            if np.min(d) ** 2 <= 1e-14 * np.max(np.diag(H)):
                raise scipy.linalg.LinAlgError("numerically singular")
        except scipy.linalg.LinAlgError:
            if lam == 0:
                raise SingularHessian("Newton system singular; design may be rank deficient")
            raise
        step = scipy.linalg.cho_solve(chol, g)
        slope = float(g @ step)  # descent amount predicted by the model
        # near the minimum the predicted decrease falls below the rounding of
        # the objective itself; a step is accepted within that rounding, so a
        # warm start just above tol still takes its Newton step
        slack = 4.0 * _EPS * abs(obj)
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            cand_obj = _objective(X, y, offset, fam, lam, cand)
            if cand_obj <= obj - _ARMIJO * t * slope + slack:
                beta, obj = cand, cand_obj
                break
            t *= _SHRINK
        else:
            break  # stalled at numerical precision; grad_inf is still beta's

    return FitResult(beta=beta, iterations=it, grad_norm_inf=grad_inf,
                     converged=grad_inf <= cfg.tol, final_loss=obj)


def sandwich_pieces(X, y, offset, fam, beta):
    """Hessian and outer-product pieces of the robust covariance at beta.

    V1 = (1/n) sum m''(y_i, nu_i) x_i x_i', V2 = (1/n) sum m'(y_i, nu_i)^2 x_i x_i'
    with nu_i = x_i' beta + o_i. Ridge penalties never enter these.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if offset is None:
        offset = np.zeros(n)
    nu = X @ np.asarray(beta, dtype=float) + np.asarray(offset, dtype=float)
    w1 = fam.hess(y, nu)
    g = fam.grad(y, nu)
    V1 = (X * w1[:, None]).T @ X / n
    V2 = (X * (g * g)[:, None]).T @ X / n
    return V1, V2
