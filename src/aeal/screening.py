"""A-side usefulness screening of Bob's sketch S against Alice's columns X_A.

Both tests run on one reparametrization of the augmented design (X_A | S).
S is projected off span(X_A) twice through one Cholesky of X_A'X_A, and the
residual S_perp is factored by a thin SVD U Sigma V'. Its r singular values
at or above RANK_TOL times S's largest column norm give an orthonormal basis
U_r of what the sketch adds beyond X_A. The model is then fit once on
(X_A | sqrt(n) U_r), so the tested block has unit mean-square columns
whatever the sketch's scale; when r = t, sqrt(n) V Sigma^-1 maps its
coefficients back to sketch coordinates.

The Wald test compares n * gamma' V_r^{-1} gamma against the chi-squared(df)
upper tail, where gamma holds the last r coefficients and V_r is their block
of the robust covariance V1^{-1} V2 V1^{-1} from the unpenalized pieces. The
likelihood-ratio variant compares the A-only and augmented losses. Both test
df = max(1, r) restrictions. Since the Wald form is invariant under a
nonsingular reparametrization of the tested block and the column space is
that of (X_A | S), the statistics are those of the sketch coordinates; with
ridge > 0 the penalty falls on the residual-basis coordinates, so a ridge
screen does not depend on the sketch's arbitrary scale either.

r < t (the report's `degenerate`) happens when the sketch overlaps span(X_A):
with shared covariates a noise-free sketch of more columns than B holds
exclusively tests only those exclusive directions. A sketch of rank below t
(SingularCovarianceBlock), fewer rows than p_A + t or an X_A'X_A that fails
the solver's pivot floor (RankDeficientAugmented) raise. Both tests drop the
rows B clipped out of the sketch (rows_excluded) before pairing rows.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .data import numerical_rank
from .errors import (NotAGlm, RankDeficientAugmented, SingularCovarianceBlock,
                     SolverFailure)
from .solver import SolverConfig, fit_offset, sandwich_pieces, spd_inverse
from .stats import make_decision

# a decision needs fewer digits than training: the looser stationarity floor
# saves one Newton step in about thirteen over a power sweep
_SCREEN_CFG_ARGS = dict(tol=1e-7, max_iter=200)


@dataclass
class ScreenReport:
    decision: object          # TestDecision; decision.df = max(1, r)
    beta_u_t: np.ndarray      # t sketch coefficients if r = t, else r residual-basis ones
    v_hat_t: np.ndarray       # robust covariance block of beta_u_t, same coordinates
    fit: object               # FitResult of the model on (X_A | sqrt(n) U_r)
    n_used: int
    identified_rank: int      # p_A + r
    degenerate: bool          # r < t: the sketch overlaps span(X_A)


def _spd_inverse(M, what):
    try:
        return spd_inverse(M, 1e-12)
    except np.linalg.LinAlgError:
        raise SingularCovarianceBlock(f"{what} is not positive definite")


def _residual_design(X_a, S):
    """(X_A | sqrt(n) U_r), column-major for the fit's products and X_A itself
    if r = 0, and the map sqrt(n) V Sigma^-1 to sketch coordinates if r = t
    (else None). The n-row temporaries die on return, before the fit."""
    try:  # the solver's floor: a Gram matrix it could not invert fails here
        G_inv = spd_inverse(X_a.T @ X_a, 1e-14)
    except np.linalg.LinAlgError:
        raise RankDeficientAugmented("A's view is rank deficient on these rows")
    # one pass through the normal equations leaves an error of order
    # cond(X_A)^2 eps in span(X_A); the second pass removes it
    S_perp = S - X_a @ (G_inv @ (X_a.T @ S))
    S_perp -= X_a @ (G_inv @ (X_a.T @ S_perp))
    U, sigma, Vt = np.linalg.svd(S_perp, full_matrices=False)
    r = numerical_rank(sigma, np.max(np.linalg.norm(S, axis=0), initial=0.0))
    n, p_a = X_a.shape
    to_sketch = np.sqrt(n) * Vt.T / sigma if r == S.shape[1] else None
    if r == 0:
        return X_a, to_sketch
    X = np.empty((n, p_a + r), order="F")
    X[:, :p_a] = X_a
    np.multiply(U[:, :r], np.sqrt(n), out=X[:, p_a:])
    return X, to_sketch


def _screen_fit(view_a, y, sketch, fam, cfg, row_indices):
    """The preamble both tests share.

    Aligns A's rows with the sketch's: rows B clipped out of the sketch
    (rows_excluded) are dropped first, then row_indices select among the
    remaining rows. Builds the residual basis, fits (X_A | sqrt(n) U_r) and
    returns (X_a, y, fit, lam, to_sketch): lam is the robust covariance block
    of the last r coefficients, and to_sketch maps them back to sketch
    coordinates when r = t (None otherwise).
    """
    X_a = view_a.design
    y = np.asarray(y, dtype=float)
    if sketch.rows_excluded:
        excluded = np.asarray(sketch.rows_excluded, dtype=int)
        if excluded.min() < 0 or excluded.max() >= X_a.shape[0]:
            raise ValueError("excluded sketch rows lie outside the view")
        keep = np.ones(X_a.shape[0], dtype=bool)
        keep[excluded] = False
        X_a, y = X_a[keep], y[keep]
    S = sketch.projected
    if row_indices is not None:
        idx = np.asarray(row_indices, dtype=int)
        X_a, y, S = X_a[idx], y[idx], S[idx]
    if X_a.shape[0] != S.shape[0]:
        raise ValueError("sketch rows do not match the view rows")
    n, p_a = X_a.shape
    t = sketch.t
    X, to_sketch = _residual_design(X_a, S)
    r = X.shape[1] - p_a
    if r < t and numerical_rank(np.linalg.svd(S, compute_uv=False)) < t:
        raise SingularCovarianceBlock("sketch block is numerically rank deficient")
    if n < p_a + t:
        raise RankDeficientAugmented("fewer rows than augmented columns")
    fit = fit_offset(X, y, None, fam, cfg)
    if not fit.converged:
        raise SolverFailure("augmented fit did not converge")
    V1, V2 = sandwich_pieces(X, y, None, fam, fit.beta)
    V1_inv = _spd_inverse(V1, "Hessian piece V1")
    lam = (V1_inv @ V2 @ V1_inv)[p_a:, p_a:]
    return X_a, y, fit, lam, to_sketch


def _report(X_a, fit, lam, to_sketch, stat, alpha):
    """The report of r = len(lam) tested restrictions, in sketch coordinates if r = t."""
    n, p_a = X_a.shape
    r = len(lam)
    coef = fit.beta[p_a:]
    if to_sketch is not None:
        coef, lam = to_sketch @ coef, to_sketch @ lam @ to_sketch.T
    return ScreenReport(decision=make_decision(stat, max(1, r), alpha), beta_u_t=coef,
                        v_hat_t=lam, fit=fit, n_used=n, identified_rank=p_a + r,
                        degenerate=to_sketch is None)


def wald_screen(view_a, y, sketch, fam, alpha=0.05, ridge=0.0, row_indices=None):
    """Robust Wald screening of the sketch block at significance level alpha.

    With ridge > 0 the augmented fit is penalized but the covariance pieces
    stay unpenalized. Noised sketches are treated identically to clean ones.
    """
    cfg = SolverConfig(ridge=ridge, **_SCREEN_CFG_ARGS)
    X_a, y, fit, lam, to_sketch = _screen_fit(view_a, y, sketch, fam, cfg, row_indices)
    gamma = fit.beta[X_a.shape[1]:]
    stat = 0.0 if gamma.size == 0 else float(
        len(y) * gamma @ _spd_inverse(lam, "tested covariance block") @ gamma)
    return _report(X_a, fit, lam, to_sketch, stat, alpha)


def lrt_screen(view_a, y, sketch, fam, alpha=0.05, row_indices=None):
    """Likelihood-ratio screening: 2n * (A-only loss - augmented loss).

    Valid only for likelihood-backed families; both fits are unpenalized.
    """
    if not fam.is_glm:
        raise NotAGlm("likelihood-ratio screening needs a GLM family")
    if sketch.p_b is not None and sketch.t >= sketch.p_b:
        warnings.warn("likelihood-ratio screening is designed for t < p_B",
                      stacklevel=2)
    cfg = SolverConfig(**_SCREEN_CFG_ARGS)
    X_a, y, fit_u, lam, to_sketch = _screen_fit(view_a, y, sketch, fam, cfg, row_indices)
    fit_a = fit_offset(X_a, y, None, fam, cfg)
    if not fit_a.converged:
        raise SolverFailure("A-only screening fit did not converge")
    stat = max(0.0, 2.0 * len(y) * (fit_a.final_loss - fit_u.final_loss))
    return _report(X_a, fit_u, lam, to_sketch, stat, alpha)
