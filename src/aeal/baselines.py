"""Gradient-exchange baselines sharing the agent views, wire format, and
transmission accounting.

Per synchronization round, B sends his linear predictor and A answers with
the per-row loss gradient at the combined predictor; both then apply local
gradient steps of size step0 / sqrt(1 + k) on the full batch, one for FedSGD
and _Q_LOCAL for the block-descent variant, whose steps carry a proximal
pull of weight _MU towards the round's sync point.
"""

from dataclasses import dataclass

import numpy as np

from .messages import GradShare, Offset
from .transport import Tally

FEDSGD = "fedsgd"
FEDBCD = "fedbcd"
_Q_LOCAL = 5                       # FedBCD's local updates per sync
_MU = 0.1                          # FedBCD's proximal weight on ||beta - beta_sync||^2


@dataclass
class BaselineSession:
    beta_a: np.ndarray
    beta_b: np.ndarray
    loss_log: list                 # full-data joint loss per sync round (index 0 = start)
    rounds: int
    rounds_transmitted: int
    bytes_transmitted: int
    diverged: bool
    stop_reason: str
    history: list = None           # [(beta_a, beta_b)] per sync round (index 0 = start)
    transcript: tuple = ()         # always empty: nothing read the lines, so none are kept;
                                   # the field stays for the benchmark's session hook


def train_baseline(view_a, y, view_b, fam, algorithm, step0, max_rounds):
    """Run a baseline session; on divergence (loss above 10x initial or
    non-finite) the best visited iterate is returned with the flag set."""
    if algorithm not in (FEDSGD, FEDBCD):
        raise ValueError(f"unknown baseline {algorithm!r}")
    if step0 < 0:
        raise ValueError("step0 must be nonnegative")
    # one C-ordered copy serves every product: a matvec on an F-ordered view
    # rounds differently, so the caller's layout must not reach a bit
    X_a, X_b = (np.ascontiguousarray(v.design) for v in (view_a, view_b))
    y = np.ascontiguousarray(fam.validate_response(y))
    n = len(y)
    tally = Tally()
    q_steps, mu = (_Q_LOCAL, _MU) if algorithm == FEDBCD else (1, 0.0)

    beta_a = np.zeros(X_a.shape[1])
    beta_b = np.zeros(X_b.shape[1])
    # each round's predictors give its loss and the next round's send and gradient
    nu_a, nu_b = X_a @ beta_a, X_b @ beta_b
    loss_log = [float(np.mean(fam.value(y, nu_a + nu_b)))]
    history = [(beta_a, beta_b)]
    best = (loss_log[0], beta_a.copy(), beta_b.copy())
    diverged = False
    guard = 10.0 * loss_log[0]

    k = 0
    for k in range(1, max_rounds + 1):
        lr = step0 / np.sqrt(1.0 + k)

        # B -> A: predictor; A -> B: per-row gradient at the sync point (counted only)
        tally.count("B", Offset(round=k, vector=nu_b))
        grad_rows = fam.grad(y, nu_a + nu_b)
        tally.count("A", GradShare(round=k, vector=grad_rows))

        sync_a, sync_b = beta_a.copy(), beta_b.copy()
        for j in range(q_steps):
            # the first step starts at the sync point, where grad_rows was taken
            g_rows = grad_rows if j == 0 else fam.grad(y, X_a @ beta_a + nu_b)
            g_a = X_a.T @ g_rows / n + 2.0 * mu * (beta_a - sync_a)
            beta_a = beta_a - lr * g_a
        g_b_stale = X_b.T @ grad_rows / n  # the same at every local step
        for _ in range(q_steps):
            g_b = g_b_stale + 2.0 * mu * (beta_b - sync_b)
            beta_b = beta_b - lr * g_b

        nu_a, nu_b = X_a @ beta_a, X_b @ beta_b
        cur = float(np.mean(fam.value(y, nu_a + nu_b)))
        loss_log.append(cur)
        history.append((beta_a, beta_b))
        if np.isfinite(cur) and cur < best[0]:
            best = (cur, beta_a.copy(), beta_b.copy())
        if not np.isfinite(cur) or cur > guard:
            diverged = True
            break

    if diverged:
        _, beta_a, beta_b = best
    return BaselineSession(beta_a=beta_a, beta_b=beta_b, loss_log=loss_log, rounds=k,
                           rounds_transmitted=tally.vector_sends,
                           bytes_transmitted=tally.bytes_transmitted, diverged=diverged,
                           stop_reason="Divergence" if diverged else "MaxRounds",
                           history=history)


def default_step_grid(count=20):
    """Log-spaced candidate initial steps, matching the tuning protocol shape."""
    return list(np.logspace(np.log10(0.01), np.log10(5.0), count))


def tune_step(view_a, y, view_b, fam, algorithm, grid, budget_rounds, score_fn=None):
    """Run the baseline once per candidate step and return the session with
    the lowest score.

    The default score is the best full-data loss reached within the budget;
    pass score_fn(session) for other selection rules (scores are minimized).
    """
    if not grid:
        raise ValueError("empty tuning grid")
    sessions = [train_baseline(view_a, y, view_b, fam, algorithm, float(step0), budget_rounds)
                for step0 in grid]
    scores = [float(score_fn(sess) if score_fn is not None
                    else min(v for v in sess.loss_log if np.isfinite(v)))
              for sess in sessions]
    return sessions[int(np.argmin(scores))]  # the first NaN if any, else the first minimum
