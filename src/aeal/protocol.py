"""Alternating two-agent training and joint prediction.

A initializes by fitting her own columns, then the agents alternate: each
re-minimizes its local loss treating the other's transmitted linear
predictor as a fixed per-row offset. Every transmitted vector is a full
length-n linear predictor; transmission counting makes the cost visible.

Message order per round k: B sends his update, A sends hers. When a stop
criterion fires after A's update, A sends Stop *before* her final offset so
B never starts a speculative extra round; B reads the trailing offset (it
carries A's final predictor, which B needs for his variance pieces) and
exits. A session with k rounds therefore contains exactly 2k+1 offset
sends, including A's initial one.
"""

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (DimensionMismatch, ProtocolError, SingularVariance,
                     SolverFailure, TransportFailure)
from .losses import parse_family
from .messages import (PROTOCOL_VERSION, Handshake, Offset, ResponseShare,
                       Stop, decode)
from .sketch import mask_response, unmask_probability
from .solver import SolverConfig, fit_offset, sandwich_pieces
from .stats import normal_quantile
from .transport import Recorder, local_pair

STOP_OFFSET = "OffsetDelta"
STOP_COEF = "CoefDelta"
STOP_MAX = "MaxRounds"


@dataclass(frozen=True)
class StopCriterion:
    """Round-to-round stopping rules; delta rules compare consecutive full
    rounds and therefore first apply at k = 2."""

    offset_tol: float = None     # on ||nu_A^k + nu_B^k - nu_A^{k-1} - nu_B^{k-1}||_2
    coef_tol: float = 1e-8       # on ||beta_A^k - beta_A^{k-1}||_2
    max_rounds: int = 200

    def __post_init__(self):
        if self.offset_tol is None and self.coef_tol is None and self.max_rounds is None:
            raise ValueError("at least one stop criterion must be active")

    @classmethod
    def default(cls, n):
        return cls(offset_tol=1e-8 * math.sqrt(n), coef_tol=1e-8, max_rounds=200)


@dataclass
class TrainSession:
    beta_a: np.ndarray
    beta_b: np.ndarray
    nu_a: np.ndarray
    nu_b: np.ndarray
    rounds: int
    loss_log: list
    rounds_transmitted: int
    bytes_transmitted: int
    stop_reason: str
    ridge: float
    family_name: str
    n: int
    y_train: np.ndarray          # the response the session was trained on (masked if masking)
    transcript: list             # ordered (sender, wire line)
    max_block_grad_inf: float
    cov_a: np.ndarray            # x' cov x = variance of x' beta_A (already /n)
    cov_b: np.ndarray
    mask_flip_prob: float = None
    history: list = None         # [(beta_a, beta_b)] per round, round 0 first


@dataclass
class Prediction:
    nu: float
    nu_lo: float
    nu_hi: float
    point: float
    lo: float
    hi: float
    alpha: float


def _fit_or_fail(X, y, offset, fam, cfg, init, who):
    res = fit_offset(X, y, offset, fam, cfg, init=init)
    if not res.converged:
        raise SolverFailure(f"{who}'s local fit did not converge")
    return res


def _predictor_covariance(X, y, offset, fam, beta):
    """Sandwich variance of x' beta_hat: V1^-1 V2 V1^-1 / n."""
    V1, V2 = sandwich_pieces(X, y, offset, fam, beta)
    try:
        chol = scipy.linalg.cho_factor(V1, lower=True)
    except scipy.linalg.LinAlgError:
        raise SingularVariance("Hessian piece V1 is not positive definite")
    V1_inv = scipy.linalg.cho_solve(chol, np.eye(V1.shape[0]))
    return V1_inv @ V2 @ V1_inv / X.shape[0]


def _check_handshake(msg, n):
    """Validate the peer's handshake against this side's version and row count."""
    if not isinstance(msg, Handshake):
        raise ProtocolError("expected handshake")
    if msg.version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {msg.version!r}")
    if msg.n != n:
        raise ProtocolError("peer row count differs")
    return msg


class _PeerTracker:
    """Enforces strictly increasing offset round numbers per sender."""

    def __init__(self, n):
        self.n = n
        self.last_round = -1

    def take(self, msg):
        if not isinstance(msg, Offset):
            raise ProtocolError(f"expected Offset, got {type(msg).__name__}")
        if msg.round <= self.last_round:
            raise ProtocolError("offset round numbers must increase")
        if len(msg.vector) != self.n:
            raise ProtocolError("offset vector length does not match the session")
        self.last_round = msg.round
        return np.asarray(msg.vector, dtype=float)


def run_alice(view_a, y, fam, chan, cfg=None, stop=None, ridge=0.0,
              mask_flip_prob=None, rng=None):
    """A's side of the training session over an arbitrary channel.

    Returns a dict with A's state plus the per-entry loss log; the log holds
    the data term plus A's own penalty, tagged with B's round index so the
    in-process driver can add B's (locally unknowable) penalty term.
    """
    X_a = view_a.design
    n = X_a.shape[0]
    cfg = replace(cfg or SolverConfig(), ridge=ridge)
    stop = stop or StopCriterion.default(n)

    chan.send(Handshake(version=PROTOCOL_VERSION, n=n, family=fam.name, lam=ridge))
    _check_handshake(chan.recv(), n)

    masked = mask_flip_prob is not None
    if masked:
        y_train = mask_response(y, mask_flip_prob, rng).y_prime
    else:
        y_train = np.asarray(y, dtype=float)
    chan.send(ResponseShare(y=y_train, masked=masked, flip_prob=mask_flip_prob))

    def data_loss(nu):
        return float(np.mean(fam.value(y_train, nu)))

    peer = _PeerTracker(n)
    fit = _fit_or_fail(X_a, y_train, None, fam, cfg, None, "A")
    beta_a = fit.beta
    max_grad = fit.grad_norm_inf
    nu_a = X_a @ beta_a
    nu_b = np.zeros(n)
    own_pen = ridge * float(beta_a @ beta_a)
    loss_entries = [(data_loss(nu_a) + own_pen, 0)]
    history = [beta_a]

    # A's offset for round k doubles as the continue signal for round k+1,
    # so it is sent only once the next round is certain to happen; on stop,
    # Stop precedes the final offset and B never fits speculatively.
    k = 0
    stop_reason = None
    prev_total = nu_a + nu_b
    while True:
        if stop.max_rounds is not None and k >= stop.max_rounds:
            stop_reason = STOP_MAX
            break
        chan.send(Offset(round=k, vector=nu_a))
        nu_b = peer.take(chan.recv())
        k += 1
        loss_entries.append((data_loss(nu_a + nu_b) + own_pen, k))

        fit = _fit_or_fail(X_a, y_train, nu_b, fam, cfg, beta_a, "A")
        prev_beta_a, beta_a = beta_a, fit.beta
        max_grad = max(max_grad, fit.grad_norm_inf)
        nu_a = X_a @ beta_a
        own_pen = ridge * float(beta_a @ beta_a)
        loss_entries.append((data_loss(nu_a + nu_b) + own_pen, k))
        history.append(beta_a)

        fired = None
        if k >= 2:  # delta rules need two full-round iterates
            if (stop.coef_tol is not None
                    and float(np.linalg.norm(beta_a - prev_beta_a)) <= stop.coef_tol):
                fired = STOP_COEF
            elif (stop.offset_tol is not None
                    and float(np.linalg.norm(nu_a + nu_b - prev_total)) <= stop.offset_tol):
                fired = STOP_OFFSET
        prev_total = nu_a + nu_b
        if fired is not None:
            stop_reason = fired
            break

    chan.send(Stop(reason=stop_reason))
    chan.send(Offset(round=k, vector=nu_a))

    cov_a = _predictor_covariance(X_a, y_train, nu_b, fam, beta_a)
    return {"beta_a": beta_a, "nu_a": nu_a, "nu_b": nu_b, "rounds": k,
            "stop_reason": stop_reason, "loss_entries": loss_entries,
            "max_grad": max_grad, "cov_a": cov_a, "y_train": y_train,
            "history": history, "mask_flip_prob": mask_flip_prob}


def run_bob(view_b, fam, chan, cfg=None, ridge=0.0):
    """B's side: adopt the handshake's family and penalty, receive the
    response, then answer each of A's offsets with a local fit."""
    X_b = view_b.design
    n = X_b.shape[0]

    hs = _check_handshake(chan.recv(), n)
    fam = parse_family(hs.family) if fam is None else fam
    if fam.name != hs.family:
        raise ProtocolError("family mismatch between handshake and local config")
    ridge = hs.lam
    cfg = replace(cfg or SolverConfig(), ridge=ridge)
    chan.send(Handshake(version=PROTOCOL_VERSION, n=n, family=fam.name, lam=ridge))

    share = chan.recv()
    if not isinstance(share, ResponseShare):
        raise ProtocolError("expected the response share")
    if len(share.y) != n:
        raise ProtocolError("response length does not match the session")
    y_train = np.asarray(share.y, dtype=float)

    peer = _PeerTracker(n)
    beta_b = np.zeros(X_b.shape[1])
    nu_b = np.zeros(n)
    penalties = [0.0]            # ridge * ||beta_B^k||^2 per B round, index 0 = init
    history = [beta_b]
    max_grad = 0.0
    k = 0
    msg = chan.recv()
    while not isinstance(msg, Stop):
        nu_a = peer.take(msg)
        k += 1
        fit = _fit_or_fail(X_b, y_train, nu_a, fam, cfg, beta_b, "B")
        beta_b = fit.beta
        max_grad = max(max_grad, fit.grad_norm_inf)
        nu_b = X_b @ beta_b
        penalties.append(ridge * float(beta_b @ beta_b))
        history.append(beta_b)
        chan.send(Offset(round=k, vector=nu_b))
        msg = chan.recv()
    stop_reason = msg.reason
    nu_a = peer.take(chan.recv())  # A's final predictor

    cov_b = _predictor_covariance(X_b, y_train, nu_a, fam, beta_b) if X_b.shape[1] else None
    return {"beta_b": beta_b, "nu_b": nu_b, "nu_a": nu_a, "rounds": k,
            "penalties": penalties, "max_grad": max_grad, "cov_b": cov_b,
            "stop_reason": stop_reason, "y_train": y_train, "history": history}


def train(view_a, y, view_b, fam, cfg=None, stop=None, ridge=0.0,
          mask_flip_prob=None, rng=None):
    """Run a full in-process session (two threads, serialized channel) and
    merge both agents' states into one TrainSession. Each side closes its
    channel when it stops, so a failure on either side reaches the caller
    at once: Bob's own error first, else Alice's."""
    y = np.asarray(y, dtype=float)
    if view_a.n != view_b.n or len(y) != view_a.n:
        raise DimensionMismatch("agents must hold the same aligned rows")
    recorder = Recorder()
    chan_a, chan_b = local_pair(recorder)

    bob_box = {}

    def bob_main():
        try:
            bob_box["result"] = run_bob(view_b, fam, chan_b, cfg=cfg, ridge=ridge)
        except Exception as exc:  # propagated after join
            bob_box["error"] = exc
        finally:
            chan_b.close()

    worker = threading.Thread(target=bob_main, daemon=True)
    worker.start()
    try:
        alice = run_alice(view_a, y, fam, chan_a, cfg=cfg, stop=stop, ridge=ridge,
                          mask_flip_prob=mask_flip_prob, rng=rng)
    finally:
        chan_a.close()
        worker.join(timeout=120.0)
        bob_error = bob_box.get("error")
        if bob_error is not None and not isinstance(bob_error, TransportFailure):
            raise bob_error  # Bob's own failure; Alice then saw the closed channel
    if bob_error is not None:
        raise bob_error
    bob = bob_box["result"]

    loss_log = [val + bob["penalties"][kb] for val, kb in alice["loss_entries"]]

    return TrainSession(
        beta_a=alice["beta_a"], beta_b=bob["beta_b"],
        nu_a=alice["nu_a"], nu_b=bob["nu_b"],
        rounds=alice["rounds"], loss_log=loss_log,
        rounds_transmitted=recorder.offset_count(),
        bytes_transmitted=recorder.bytes_transmitted,
        stop_reason=alice["stop_reason"], ridge=ridge, family_name=fam.name,
        n=view_a.n, y_train=alice["y_train"], transcript=list(recorder.lines),
        max_block_grad_inf=max(alice["max_grad"], bob["max_grad"]),
        cov_a=alice["cov_a"], cov_b=bob["cov_b"],
        mask_flip_prob=mask_flip_prob,
        history=list(zip(alice["history"], bob["history"])))


def joint_loss(session, view_a, view_b, y, fam):
    """(1/n) sum m(y_i, nu_A_i + nu_B_i), plus both ridge penalties if any."""
    nu = view_a.design @ session.beta_a + view_b.design @ session.beta_b
    val = float(np.mean(fam.value(np.asarray(y, dtype=float), nu)))
    if session.ridge > 0:
        val += session.ridge * (float(session.beta_a @ session.beta_a)
                                + float(session.beta_b @ session.beta_b))
    return val


def predict(x_a, x_b, session, fam, alpha=0.05, unmask=False):
    """Joint point prediction with a conservative two-sided interval.

    The interval is joint_interval's Bonferroni split across the two
    agents. For masked logistic sessions, unmask=True inverts the
    label-flip bias on the probability scale.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    nu = float(x_a @ session.beta_a + x_b @ session.beta_b)
    var_a = float(x_a @ session.cov_a @ x_a)
    var_b = float(x_b @ session.cov_b @ x_b) if session.cov_b is not None else 0.0
    if var_a < 0 or var_b < 0:
        raise SingularVariance("negative variance estimate")
    pred = joint_interval(nu, math.sqrt(var_a), math.sqrt(var_b), fam, alpha)
    if unmask:
        if session.mask_flip_prob is None:
            raise ValueError("session was not trained on a masked response")
        p = session.mask_flip_prob
        pred = replace(pred, point=unmask_probability(pred.point, p),
                       lo=unmask_probability(pred.lo, p),
                       hi=unmask_probability(pred.hi, p))
    return pred


def joint_interval(nu, sigma_a, sigma_b, fam, alpha):
    """Bonferroni interval nu +/- z_{1-alpha/4} (sigma_A + sigma_B) on the
    linear predictor; for GLM families the point and both endpoints are
    mapped through the monotone inverse link."""
    half = normal_quantile(1.0 - alpha / 4.0) * (sigma_a + sigma_b)
    nu_lo, nu_hi = nu - half, nu + half
    if fam.is_glm:
        point, lo, hi = (float(fam.inverse_link(v)) for v in (nu, nu_lo, nu_hi))
    else:
        point, lo, hi = nu, nu_lo, nu_hi
    return Prediction(nu=nu, nu_lo=nu_lo, nu_hi=nu_hi, point=point, lo=lo, hi=hi,
                      alpha=alpha)


def replay(session, view_a, view_b, fam):
    """Recompute both coefficient tracks from the recorded offsets.

    Feeds B's recorded vectors to fresh A-side fits and vice versa; a
    deterministic implementation reproduces the session's final coefficients
    exactly.
    """
    offsets_a, offsets_b = [], []
    for sender, line in session.transcript:
        msg = decode(line)
        if isinstance(msg, Offset):
            (offsets_a if sender == "A" else offsets_b).append(msg.vector)
    cfg = SolverConfig(ridge=session.ridge)
    y = session.y_train
    beta_a = fit_offset(view_a.design, y, None, fam, cfg).beta
    for nu_b in offsets_b:
        beta_a = fit_offset(view_a.design, y, nu_b, fam, cfg, init=beta_a).beta
    beta_b = np.zeros(view_b.design.shape[1])
    for nu_a in offsets_a[:-1]:  # B never fits against A's final send
        beta_b = fit_offset(view_b.design, y, nu_a, fam, cfg, init=beta_b).beta
    return beta_a, beta_b
