"""A-side usefulness screening of Bob's sketch S against Alice's columns X_A.

Both tests run on one reparametrization of the augmented design (X_A | S).
S is projected off span(X_A) twice through one Cholesky of X_A'X_A, and the
residual S_perp is factored by a thin SVD U Sigma V'. Its r singular values
at or above RANK_TOL times S's largest column norm give an orthonormal basis
U_r of what the sketch adds beyond X_A. The model is then fit once on
(X_A | sqrt(n) U_r), so the tested block has unit mean-square columns
whatever the sketch's scale.

The Wald test compares n * gamma' V_r^{-1} gamma against the chi-squared(df)
upper tail, where gamma holds the last r coefficients and V_r is their block
of the robust covariance V1^{-1} V2 V1^{-1} from the unpenalized pieces. The
likelihood-ratio variant compares the A-only and augmented losses. Both test
df = max(1, r) restrictions. Since the Wald form is invariant under a
nonsingular reparametrization of the tested block and the column space is
that of (X_A | S), the statistics are those of the sketch coordinates; with
ridge > 0 the penalty falls on the residual-basis coordinates, so a ridge
screen does not depend on the sketch's arbitrary scale either.

Every fit stops at the solver's default tolerance, and every screen fits from
an A-side ScreenContext of the rows it pairs: the inverse of X_A'X_A and the
unpenalized A-only fit. The augmented fit starts at (beta_A, 0), whose A-block
gradient is already at tolerance. screen_context builds the context once for
all screens of one (view_a, y); a screen passed none builds the same one, so
one input gives one report bit for bit.

r < t (the report's `degenerate`) happens when the sketch overlaps span(X_A):
with shared covariates a noise-free sketch of more columns than B holds
exclusively tests only those exclusive directions. A sketch of rank below t
(SingularCovarianceBlock), fewer rows than p_A + t or an X_A'X_A that fails
the solver's pivot floor (RankDeficientAugmented) raise.

The sketch is B's SketchOffer, and its row i pairs A's row i. If it records
epsilon, each of its rows is an epsilon-LDP release of B's row; besides the
n x t matrix it carries only t, the noised flag and B's epsilon and clip
bound (sketch.py). Both tests treat noised and clean sketches alike.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import numerical_rank
from .errors import (NotAGlm, RankDeficientAugmented, SingularCovarianceBlock,
                     SolverFailure)
from .solver import fit_offset, sandwich_pieces, spd_inverse
from .stats import make_decision


@dataclass
class ScreenReport:
    decision: object          # ScreenResult; decision.df = max(1, r)
    fit: object               # FitResult of the model on (X_A | sqrt(n) U_r)
    n_used: int
    identified_rank: int      # p_A + r
    degenerate: bool          # r < t: the sketch overlaps span(X_A)


# gram_inv: the pivot-floored inverse of X_A'X_A; fit_a: the unpenalized A-only fit
ScreenContext = namedtuple("ScreenContext", "X_a y gram_inv fit_a")


def screen_context(view_a, y, fam):
    """The A-side state every screen of (view_a, y) shares; pass it as context."""
    X_a, y = view_a.design, np.asarray(y, dtype=float)
    # the solver's floor: a Gram matrix it could not invert fails here
    gram_inv = spd_inverse(X_a.T @ X_a, RankDeficientAugmented,
                           "the Gram matrix of A's view on these rows", 1e-14)
    return ScreenContext(X_a, y, gram_inv, fit_offset(X_a, y, None, fam).without_rows())


def _residual_design(X_a, S, gram_inv):
    """(X_A | sqrt(n) U_r), column-major for the fit's products, or X_A itself
    if r = 0. The n-row temporaries die on return, before the fit."""
    # one pass through the normal equations leaves an error of order
    # cond(X_A)^2 eps in span(X_A); the second pass removes it
    S_perp = S - X_a @ (gram_inv @ (X_a.T @ S))
    S_perp -= X_a @ (gram_inv @ (X_a.T @ S_perp))
    U, sigma, _ = np.linalg.svd(S_perp, full_matrices=False)
    del S_perp  # dead before the augmented design is allocated
    r = numerical_rank(sigma, np.max(np.linalg.norm(S, axis=0), initial=0.0))
    if r == 0:
        return X_a
    n, p_a = X_a.shape
    X = np.empty((n, p_a + r), order="F")
    X[:, :p_a] = X_a
    np.multiply(U[:, :r], np.sqrt(n), out=X[:, p_a:])
    return X


def _aligned(view_a, y, sketch, fam, context):
    """The sketch and the context of A's rows it pairs row for row: the
    caller's context, or one built here."""
    X_a = view_a.design
    y = np.asarray(y, dtype=float)
    if context and (context.X_a is not X_a or not np.array_equal(context.y, y)):
        raise ValueError("the screen context was built from another view or response")
    if X_a.shape[0] != sketch.n:
        raise ValueError("sketch rows do not match the view rows")
    return sketch.projected, context or screen_context(view_a, y, fam)


def _screen_fit(S, fam, ridge, context):
    """The fit both tests share, from (beta_A, 0), and its design
    (X_A | sqrt(n) U_r); the fit still holds its derivative rows."""
    X_a, y = context.X_a, context.y
    n, p_a = X_a.shape
    t = S.shape[1]
    X = _residual_design(X_a, S, context.gram_inv)
    r = X.shape[1] - p_a
    if r < t and numerical_rank(np.linalg.svd(S, compute_uv=False)) < t:
        raise SingularCovarianceBlock("sketch block is numerically rank deficient")
    if n < p_a + t:
        raise RankDeficientAugmented("fewer rows than augmented columns")
    init = np.concatenate([context.fit_a.beta, np.zeros(r)])
    fit = fit_offset(X, y, None, fam, ridge, init=init)
    if not fit.converged:
        raise SolverFailure("augmented fit did not converge")
    return fit, X


def _report(context, fit, X, t, stat, alpha):
    """The report of the r = X.shape[1] - p_A tested restrictions on a sketch
    of t columns; it keeps the fit without its derivative rows."""
    n, p_a = context.X_a.shape
    r = X.shape[1] - p_a
    return ScreenReport(decision=make_decision(stat, max(1, r), alpha),
                        fit=fit.without_rows(), n_used=n, identified_rank=p_a + r,
                        degenerate=r < t)


def wald_screen(view_a, y, sketch, fam, alpha=0.05, ridge=0.0, context=None):
    """Robust Wald screening of the sketch block at significance level alpha.

    With ridge > 0 the augmented fit is penalized but the covariance pieces
    stay unpenalized. context is screen_context(view_a, y, fam), shared across
    screens; a screen given none builds the same one.
    """
    S, context = _aligned(view_a, y, sketch, fam, context)
    fit, X = _screen_fit(S, fam, ridge, context)
    # the covariance at the fit's own point, from the rows its last step evaluated
    V1, V2 = sandwich_pieces(X, fit.grad_rows, fit.hess_rows)
    V1_inv = spd_inverse(V1, SingularCovarianceBlock, "Hessian piece V1", 1e-12)
    p_a = context.X_a.shape[1]
    lam = (V1_inv @ V2 @ V1_inv)[p_a:, p_a:]
    gamma = fit.beta[p_a:]
    stat = 0.0 if gamma.size == 0 else float(len(context.y) * gamma @ spd_inverse(
        lam, SingularCovarianceBlock, "tested covariance block", 1e-12) @ gamma)
    return _report(context, fit, X, S.shape[1], stat, alpha)


def lrt_screen(view_a, y, sketch, fam, alpha=0.05, context=None):
    """Likelihood-ratio screening: 2n * (A-only loss - augmented loss).

    Valid only for likelihood-backed families; both fits are unpenalized, and
    the A-only fit is the context's. It forms no robust covariance.
    """
    if not fam.is_glm:
        raise NotAGlm("likelihood-ratio screening needs a GLM family")
    S, context = _aligned(view_a, y, sketch, fam, context)
    if not context.fit_a.converged:
        raise SolverFailure("A-only screening fit did not converge")
    fit_u, X = _screen_fit(S, fam, 0.0, context)
    stat = max(0.0, 2.0 * len(context.y) * (context.fit_a.final_loss - fit_u.final_loss))
    return _report(context, fit_u, X, S.shape[1], stat, alpha)
