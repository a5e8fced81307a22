"""A-side usefulness screening on the augmented design (X_A | sketch).

The main test fits the augmented model, forms the robust covariance
V = V1^{-1} V2 V1^{-1} from the unpenalized pieces, extracts the lower-right
t x t block for the sketch coefficients, and compares
n * beta_t' V_t^{-1} beta_t against the chi-squared(t) upper tail. The
likelihood-ratio variant compares the A-only and augmented fits directly.
Both pair A's rows with the sketch's after dropping the rows B clipped out
of the sketch (rows_excluded).

Shared covariates make the noise-free augmented design structurally rank
deficient once t exceeds the number of columns B holds exclusively (every
sketch column then equals an X_A-spanned part plus a combination of B's few
unique columns). For exactly this overlap geometry the test switches to the
identified submodel: directions of the tested block lying in the null
space's shadow carry only representation ambiguity and are annihilated (the
infinite-variance limit of the sandwich form), and the surviving directions
are tested with the identified covariance against a chi-squared whose
degrees of freedom equal the number of restrictions actually tested. The
report discloses the reduced identified rank. Degenerate sketches and
underdetermined row subsets raise.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import RANK_TOL, pivoted_qr_diag
from .errors import (NotAGlm, RankDeficientAugmented, SingularCovarianceBlock,
                     SolverFailure)
from .solver import FitResult, SolverConfig, fit_offset, sandwich_pieces
from .stats import make_decision

# screening decisions tolerate a looser stationarity floor than training;
# ill-scaled reduced designs can stall a few ulps above the solver default
_SCREEN_CFG_ARGS = dict(tol=1e-7, max_iter=200)


@dataclass
class ScreenReport:
    decision: object          # TestDecision
    beta_u_t: np.ndarray      # sketch-block coefficients
    v_hat_t: np.ndarray       # t x t covariance block (identified part if degenerate)
    fit: object               # FitResult of the augmented model
    n_used: int
    identified_rank: int = None   # < p_A + t when the overlap fallback ran

    @property
    def degenerate(self):
        return (self.identified_rank is not None
                and self.identified_rank < len(self.fit.beta))


def _numerical_rank(M):
    diag, _ = pivoted_qr_diag(M)
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag >= RANK_TOL * diag[0]))


def _classify_rank(X_aug, X_a, S, t):
    """Full-rank check with attribution of any deficiency.

    Returns the identified rank; raises for invalid geometries (degenerate
    sketch block, underdetermined subset, deficient A view).
    """
    p_aug = X_aug.shape[1]
    rank = _numerical_rank(X_aug)
    if rank == p_aug:
        return rank
    if _numerical_rank(S) < t:
        raise SingularCovarianceBlock("sketch block is numerically rank deficient")
    if X_aug.shape[0] < p_aug:
        raise RankDeficientAugmented("fewer rows than augmented columns")
    if _numerical_rank(X_a) < X_a.shape[1]:
        raise RankDeficientAugmented("A's view is rank deficient on these rows")
    return rank  # sketch overlaps span(X_A): identified-subspace fallback


def _robust_covariance(X, y, fam, beta, what):
    """V1^{-1} V2 V1^{-1} from the unpenalized sandwich pieces at beta."""
    V1, V2 = sandwich_pieces(X, y, None, fam, beta)
    V1_inv = _spd_inverse(V1, what)
    return V1_inv @ V2 @ V1_inv


def _spd_inverse(M, what):
    try:
        chol = scipy.linalg.cho_factor(M, lower=True)
        d = np.diag(chol[0])
        if np.min(d) ** 2 <= 1e-12 * np.max(np.diag(M)):
            raise scipy.linalg.LinAlgError("numerically singular")
    except scipy.linalg.LinAlgError:
        raise SingularCovarianceBlock(f"{what} is not positive definite")
    return scipy.linalg.cho_solve(chol, np.eye(M.shape[0]))


class _IdentifiedModel:
    """Rank-deficient augmented design reduced to its identified subspace.

    The fit runs on X Z for an orthonormal row-space basis Z; the expanded
    coefficient Z theta is the minimum-norm representative of the solution
    set. Under the null the tested block's component inside the null space's
    shadow is pure representation ambiguity of shared covariates; the
    statistic keeps only its orthocomplement, matching the infinite-variance
    limit of the sandwich quadratic form.
    """

    def __init__(self, X_aug):
        _, s, vt = scipy.linalg.svd(X_aug, full_matrices=False)
        keep = s >= RANK_TOL * s[0]
        self.Z = vt[keep].T                 # p x r identified basis
        self.N = vt[~keep].T                # p x m null-space basis
        self.X_red = X_aug @ self.Z

    def fit(self, y, fam, cfg):
        fit_red = fit_offset(self.X_red, y, None, fam, cfg)
        if not fit_red.converged:
            raise SolverFailure("identified augmented fit did not converge")
        self._fit_red = fit_red
        return FitResult(beta=self.Z @ fit_red.beta, iterations=fit_red.iterations,
                         grad_norm_inf=fit_red.grad_norm_inf,
                         converged=True, final_loss=fit_red.final_loss)

    def block_covariance(self, y, fam, t):
        Vr = _robust_covariance(self.X_red, y, fam, self._fit_red.beta,
                                "identified Hessian piece")
        Z_t = self.Z[-t:, :]
        return Z_t @ Vr @ Z_t.T

    def testable_directions(self, t):
        """Orthonormal sketch-block directions outside the null space's shadow."""
        N_t = self.N[-t:, :]
        u, s, _ = scipy.linalg.svd(N_t, full_matrices=True)
        m_eff = int(np.sum(s >= RANK_TOL * max(float(s[0]), 1.0))) if s.size else 0
        return u[:, m_eff:]                 # t x (t - m_eff)


def _screen_fit(view_a, y, sketch, fam, cfg, row_indices):
    """The preamble both tests share.

    Aligns A's rows with the sketch's: rows B clipped out of the sketch
    (rows_excluded) are dropped first, then row_indices select among the
    remaining rows. Builds the augmented design, classifies its rank and fits
    it, on the identified submodel when it is rank deficient. Returns
    (X_aug, y, rank, K, fit, lam, df): K holds the testable directions of the
    sketch block (None at full rank: all of them), lam is the tested
    covariance block and df the number of restrictions tested.
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
    X_aug = np.hstack([X_a, S])
    t = sketch.t
    rank = _classify_rank(X_aug, X_a, S, t)
    if rank == X_aug.shape[1]:
        fit = fit_offset(X_aug, y, None, fam, cfg)
        if not fit.converged:
            raise SolverFailure("augmented fit did not converge")
        lam = _robust_covariance(X_aug, y, fam, fit.beta, "Hessian piece V1")[-t:, -t:]
        return X_aug, y, rank, None, fit, lam, t
    ident = _IdentifiedModel(X_aug)
    fit = ident.fit(y, fam, cfg)
    K = ident.testable_directions(t)
    # the surviving quadratic form tests exactly t - m' restrictions
    return X_aug, y, rank, K, fit, ident.block_covariance(y, fam, t), max(1, K.shape[1])


def wald_screen(view_a, y, sketch, fam, alpha=0.05, ridge=0.0, row_indices=None):
    """Robust Wald screening of the sketch block at significance level alpha.

    With ridge > 0 the augmented fit is penalized but the covariance pieces
    stay unpenalized. Noised sketches are treated identically to clean ones.
    """
    cfg = SolverConfig(ridge=ridge, **_SCREEN_CFG_ARGS)
    _, y, rank, K, fit, lam, df = _screen_fit(view_a, y, sketch, fam, cfg, row_indices)
    n = len(y)
    beta_t = fit.beta[-sketch.t:]
    # on the identified submodel only the testable directions enter the form
    b, lam_b = (beta_t, lam) if K is None else (K.T @ beta_t, K.T @ lam @ K)
    stat = 0.0 if b.size == 0 else float(
        n * b @ _spd_inverse(lam_b, "tested covariance block") @ b)
    return ScreenReport(decision=make_decision(stat, df, alpha), beta_u_t=beta_t,
                        v_hat_t=lam, fit=fit, n_used=n, identified_rank=rank)


def lrt_screen(view_a, y, sketch, fam, alpha=0.05, row_indices=None):
    """Likelihood-ratio screening: 2n * (A-only loss - augmented loss).

    Valid only for likelihood-backed families; both fits are unpenalized.
    The augmented loss is well defined even on the overlap-degenerate
    geometry (all minimizers share it).
    """
    if not fam.is_glm:
        raise NotAGlm("likelihood-ratio screening needs a GLM family")
    if sketch.p_b is not None and sketch.t >= sketch.p_b:
        warnings.warn("likelihood-ratio screening is designed for t < p_B",
                      stacklevel=2)
    cfg = SolverConfig(**_SCREEN_CFG_ARGS)
    X_aug, y, rank, _, fit_u, lam, df = _screen_fit(view_a, y, sketch, fam, cfg,
                                                    row_indices)
    fit_a = fit_offset(X_aug[:, :view_a.p], y, None, fam, cfg)
    if not fit_a.converged:
        raise SolverFailure("A-only screening fit did not converge")
    n = len(y)
    stat = max(0.0, 2.0 * n * (fit_a.final_loss - fit_u.final_loss))
    return ScreenReport(decision=make_decision(stat, df, alpha),
                        beta_u_t=fit_u.beta[-sketch.t:], v_hat_t=lam, fit=fit_u,
                        n_used=n, identified_rank=rank)
