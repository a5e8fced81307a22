"""Gradient-exchange baselines sharing the agent views, wire format, and
transmission accounting.

Per synchronization round, B sends his batch linear predictor and A answers
with the per-row loss gradient at the combined predictor; both then apply
(possibly several, for the block-descent variant) local gradient steps. The
step schedule "sqrt" uses step0 / sqrt(1 + k) as the decay strategy.
"""

from dataclasses import dataclass, replace

import numpy as np

from .messages import GradShare, Offset
from .transport import Recorder, local_pair

FEDSGD = "fedsgd"
FEDBCD = "fedbcd"


@dataclass(frozen=True)
class BaselineConfig:
    algorithm: str = FEDSGD
    step0: float = 0.1
    decay: str = "constant"        # "constant" | "sqrt"
    batch: int = None              # None = full batch
    q_local: int = 5               # local updates per sync (block-descent variant only)
    mu: float = 0.1                # proximal weight on ||beta - beta_sync||^2
    max_rounds: int = 50

    def __post_init__(self):
        if self.algorithm not in (FEDSGD, FEDBCD):
            raise ValueError(f"unknown baseline {self.algorithm!r}")
        if self.decay not in ("constant", "sqrt"):
            raise ValueError(f"unknown decay {self.decay!r}")
        if self.step0 < 0:
            raise ValueError("step0 must be nonnegative")


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
    history: list = None           # [(beta_a, beta_b)] per sync round when recorded
    transcript: list = None        # ordered (sender, wire line)


def _step(cfg, k):
    if cfg.decay == "sqrt":
        return cfg.step0 / np.sqrt(1.0 + k)
    return cfg.step0


def train_baseline(view_a, y, view_b, fam, cfg, batch_seed=0, record_history=False):
    """Run a baseline session; on divergence (loss above 10x initial or
    non-finite) the best visited iterate is returned with the flag set."""
    X_a, X_b = view_a.design, view_b.design
    y = fam.validate_response(y)
    n = len(y)
    batch_rng = np.random.default_rng(batch_seed)  # both sides share the schedule
    recorder = Recorder()
    chan_a, chan_b = local_pair(recorder)

    beta_a = np.zeros(X_a.shape[1])
    beta_b = np.zeros(X_b.shape[1])

    def full_loss(ba, bb):
        nu = X_a @ ba + X_b @ bb
        return float(np.mean(fam.value(y, nu)))

    loss_log = [full_loss(beta_a, beta_b)]
    history = [(beta_a.copy(), beta_b.copy())] if record_history else None
    best = (loss_log[0], beta_a.copy(), beta_b.copy())
    diverged = False
    guard = 10.0 * loss_log[0]
    q_steps = cfg.q_local if cfg.algorithm == FEDBCD else 1
    mu = cfg.mu if cfg.algorithm == FEDBCD else 0.0

    k = 0
    for k in range(1, cfg.max_rounds + 1):
        if cfg.batch is None:
            idx = np.arange(n)
        else:
            idx = batch_rng.choice(n, size=min(cfg.batch, n), replace=False)
        Xa_k, Xb_k, y_k = X_a[idx], X_b[idx], y[idx]
        m = len(idx)
        lr = _step(cfg, k)

        # B -> A: batch predictor; A -> B: per-row gradient at the sync point
        chan_b.send(Offset(round=k, vector=Xb_k @ beta_b))
        nu_b_stale = chan_a.recv().vector
        grad_rows = fam.grad(y_k, Xa_k @ beta_a + nu_b_stale)
        chan_a.send(GradShare(round=k, vector=grad_rows))
        grad_stale = chan_b.recv().vector

        sync_a, sync_b = beta_a.copy(), beta_b.copy()
        for _ in range(q_steps):
            g_rows = fam.grad(y_k, Xa_k @ beta_a + nu_b_stale)
            g_a = Xa_k.T @ g_rows / m + 2.0 * mu * (beta_a - sync_a)
            beta_a = beta_a - lr * g_a
        for _ in range(q_steps):
            g_b = Xb_k.T @ grad_stale / m + 2.0 * mu * (beta_b - sync_b)
            beta_b = beta_b - lr * g_b

        cur = full_loss(beta_a, beta_b)
        loss_log.append(cur)
        if record_history:
            history.append((beta_a.copy(), beta_b.copy()))
        if np.isfinite(cur) and cur < best[0]:
            best = (cur, beta_a.copy(), beta_b.copy())
        if not np.isfinite(cur) or cur > guard:
            diverged = True
            break

    if diverged:
        _, beta_a, beta_b = best
    return BaselineSession(beta_a=beta_a, beta_b=beta_b, loss_log=loss_log, rounds=k,
                           rounds_transmitted=recorder.vector_sends,
                           bytes_transmitted=recorder.bytes_transmitted,
                           diverged=diverged,
                           stop_reason="Divergence" if diverged else "MaxRounds",
                           history=history, transcript=list(recorder.lines))


def default_step_grid(low=0.01, high=5.0, count=20):
    """Log-spaced candidate initial steps, matching the tuning protocol shape."""
    return list(np.logspace(np.log10(low), np.log10(high), count))


@dataclass
class TuneResult:
    best_step0: float
    best_score: float
    total_vector_sends: int
    scores: list                   # (step0, score) per candidate


def tune_step(view_a, y, view_b, fam, cfg, grid, budget_rounds, batch_seed=0,
              score_fn=None, record_history=False):
    """Run the baseline once per candidate step and keep the lowest score.

    The default score is the best full-data loss reached within the budget;
    pass score_fn(session) for other selection rules (scores are minimized).
    Tuning multiplies the transmission bill by the grid size, which the
    returned total makes explicit.
    """
    if not grid:
        raise ValueError("empty tuning grid")
    scores = []
    sessions = []
    total_sends = 0
    for step0 in grid:
        run_cfg = replace(cfg, step0=float(step0), max_rounds=budget_rounds)
        sess = train_baseline(view_a, y, view_b, fam, run_cfg, batch_seed=batch_seed,
                              record_history=record_history)
        total_sends += sess.rounds_transmitted
        score = (score_fn(sess) if score_fn is not None
                 else min(v for v in sess.loss_log if np.isfinite(v)))
        scores.append((float(step0), float(score)))
        sessions.append(sess)
    best_idx = int(np.argmin([s for _, s in scores]))
    result = TuneResult(best_step0=scores[best_idx][0], best_score=scores[best_idx][1],
                        total_vector_sends=total_sends, scores=scores)
    return result, sessions[best_idx]
