"""Every session step, one role function per side, each opening its own session:
stage 1 (offer_sketch, screen_offer), training (run_alice, run_bob) and joint
prediction (send_contribution, joint_prediction).

In training, A initializes by fitting her own columns, then the agents alternate: each
re-minimizes its local loss treating the other's transmitted linear
predictor as a fixed per-row offset. Every transmitted vector is a full
length-n linear predictor; transmission counting makes the cost visible.

Message order per round k: B sends his update, A sends hers. When a stop
criterion fires after A's update, A sends Stop *before* her final offset so
B never starts a speculative extra round; B reads the trailing offset (it
carries A's final predictor, which B needs for his variance pieces) and
exits. A session with k rounds therefore contains exactly 2k+1 offset
sends, including A's initial one. A's offsets carry rounds 0..k, and B's reply
to round j carries j + 1; any other round or row count is a protocol error.
"""

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BadFlipProb, DimensionMismatch, ProtocolError, SingularVariance,
                     SolverFailure, TransportFailure, UnsupportedResponse)
from .messages import (PROTOCOL_VERSION, Handshake, Offset, PredictContribution,
                       ResponseShare, Stop, decode)
from .screening import lrt_screen, wald_screen
from .sketch import SketchOffer, make_sketch, mask_response, unmask_probability
from .solver import fit_offset, sandwich_pieces, spd_inverse
from .stats import ScreenResult, normal_quantile
from .transport import Recorder, local_pair

STOP_OFFSET = "OffsetDelta"
STOP_COEF = "CoefDelta"
STOP_MAX = "MaxRounds"


@dataclass(frozen=True)
class StopCriterion:
    """Round-to-round stopping rules; delta rules compare consecutive full
    rounds and therefore first apply at k = 2. max_rounds, an integer >= 0,
    bounds every session; a tolerance of None turns its rule off."""

    offset_tol: float = None     # on ||nu_A^k + nu_B^k - nu_A^{k-1} - nu_B^{k-1}||_2
    coef_tol: float = 1e-8       # on ||beta_A^k - beta_A^{k-1}||_2
    max_rounds: int = 200

    def __post_init__(self):
        if not isinstance(self.max_rounds, (int, np.integer)) or self.max_rounds < 0:
            raise ValueError(f"max_rounds must be at least 0 and an integer, "
                             f"got {self.max_rounds!r}")

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


def _fit_or_fail(X, y, offset, fam, ridge, init, who):
    res = fit_offset(X, y, offset, fam, ridge, init=init)
    if not res.converged:
        raise SolverFailure(f"{who}'s local fit did not converge")
    return res


def _predictor_covariance(X, y, offset, fam, beta):
    """Sandwich variance of x' beta_hat: V1^-1 V2 V1^-1 / n."""
    V1, V2 = sandwich_pieces(X, y, offset, fam, beta)
    V1_inv = spd_inverse(V1, SingularVariance, "Hessian piece V1")
    return V1_inv @ V2 @ V1_inv / X.shape[0]


def expect(chan, kind, what):
    """Receive one message and return it if it is a kind (a class or a tuple of
    classes); any other message is a protocol error naming what the step expects."""
    msg = chan.recv()
    if not isinstance(msg, kind):
        raise ProtocolError(f"expected {what}, got {type(msg).__name__}")
    return msg


def _check_handshake(msg, view, family):
    """Validate the peer's handshake against this side's version, row count,
    loss family and row-id digest."""
    if msg.version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {msg.version!r}")
    if msg.n != view.n:
        raise ProtocolError("peer row count differs")
    if msg.family != family:
        raise ProtocolError("family mismatch between handshake and local config")
    if msg.id_digest != view.id_digest:
        raise ProtocolError("peer row ids differ (digest of the sorted ids)")
    return msg


def open_session(chan, view, family, lam=None):
    """The exchange every session opens with. Alice passes her ridge and sends
    first; Bob (lam None) echoes with her ridge before he checks hers, so that
    a mismatch stops both sides with a protocol error. Returns the peer's
    handshake."""
    def own(lam):
        return Handshake(version=PROTOCOL_VERSION, n=view.n, family=family, lam=lam,
                         id_digest=view.id_digest)
    if lam is not None:
        chan.send(own(lam))
        return _check_handshake(expect(chan, Handshake, "handshake"), view, family)
    msg = expect(chan, Handshake, "handshake")
    chan.send(own(msg.lam))
    return _check_handshake(msg, view, family)


def offer_sketch(view_b, fam, chan, t, rng, rows=None, noise_scale=0.0, epsilon=None, c2=None):
    """Bob's stage 1: send make_sketch's release of his leading rows (all when
    rows is None) and return Alice's ScreenResult. The release is drawn before
    the handshake, so a bad t, noise scale, epsilon or c2 sends no line."""
    offer = make_sketch(view_b.design[:rows], t, rng, noise_scale=noise_scale,
                        epsilon=epsilon, c2=c2)
    open_session(chan, view_b, fam.name)
    chan.send(offer)
    return expect(chan, ScreenResult, "a screening result")


def screen_offer(view_a, y, fam, chan, test="wald", alpha=0.05, ridge=0.0):
    """Alice's stage 1: screen Bob's sketch offer on her leading rows with the
    Wald test (ridge applies) or the LRT, send him the decision, return the report."""
    open_session(chan, view_a, fam.name, ridge)
    sketch = expect(chan, SketchOffer, "a sketch offer")
    n = sketch.n  # B sketched his leading rows; A pairs as many of hers
    if n > view_a.n:
        raise ProtocolError("sketch carries more rows than this agent holds")
    rows = replace(view_a, design=view_a.design[:n]), np.asarray(y, dtype=float)[:n]
    if test == "lrt":
        report = lrt_screen(*rows, sketch, fam, alpha=alpha)
    else:
        report = wald_screen(*rows, sketch, fam, alpha=alpha, ridge=ridge)
    chan.send(report.decision)
    return report


def _offset_vector(msg, k, n):
    """The vector of the peer's Offset msg, which must be for round k with n rows."""
    if msg.round != k:
        raise ProtocolError(f"offset is for round {msg.round}, but round {k} is due")
    if len(msg.vector) != n:
        raise ProtocolError("offset vector length does not match the session")
    return np.asarray(msg.vector, dtype=float)


def run_alice(view_a, y, fam, chan, stop=None, ridge=0.0,
              mask_flip_prob=None, rng=None):
    """A's side of the training session over an arbitrary channel.

    Returns a dict with A's final state and ``fits``, her local fit per
    round, round 0 first. Each fit's ``final_loss`` is the data loss at the
    joint predictor plus A's own penalty; ``train`` adds B's.
    """
    X_a = view_a.design
    n = X_a.shape[0]
    stop = stop or StopCriterion.default(n)

    masked = mask_flip_prob is not None
    if masked and fam.kind != "logistic":  # only a probability's flip bias can be undone
        raise BadFlipProb(f"label masking needs the logistic family, not {fam.name}")
    y_train = mask_response(y, mask_flip_prob, rng) if masked else np.asarray(y, dtype=float)

    open_session(chan, view_a, fam.name, ridge)
    chan.send(ResponseShare(y=y_train, masked=masked, flip_prob=mask_flip_prob))

    fits = [_fit_or_fail(X_a, y_train, None, fam, ridge, None, "A")]
    beta_a = fits[0].beta
    nu_a = X_a @ beta_a
    nu_b = np.zeros(n)

    # A's offset for round k doubles as the continue signal for round k+1,
    # so it is sent only once the next round is certain to happen; on stop,
    # Stop precedes the final offset and B never fits speculatively.
    k = 0
    stop_reason = None
    prev_total = nu_a + nu_b
    while True:
        if k >= stop.max_rounds:
            stop_reason = STOP_MAX
            break
        chan.send(Offset(round=k, vector=nu_a))
        nu_b = _offset_vector(expect(chan, Offset, "Offset"), k + 1, n)
        k += 1

        fits.append(_fit_or_fail(X_a, y_train, nu_b, fam, ridge, beta_a, "A"))
        prev_beta_a, beta_a = beta_a, fits[-1].beta
        nu_a = X_a @ beta_a

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
            "stop_reason": stop_reason, "fits": fits, "cov_a": cov_a,
            "y_train": y_train}


def run_bob(view_b, fam, chan):
    """B's side: adopt the handshake's penalty, receive the response, then
    answer each of A's offsets with a local fit.

    Returns a dict with B's final state and ``fits``, his local fit for
    rounds 1..k; each ``final_loss`` adds only B's own penalty.
    """
    X_b = view_b.design
    n = X_b.shape[0]

    hs = open_session(chan, view_b, fam.name)

    share = expect(chan, ResponseShare, "the response share")
    if len(share.y) != n:
        raise ProtocolError("response length does not match the session")
    try:
        y_train = fam.validate_response(share.y)
    except UnsupportedResponse as exc:
        raise ProtocolError(f"response share: {exc}") from None

    beta_b = np.zeros(X_b.shape[1])
    nu_b = np.zeros(n)
    fits = []
    while not isinstance(msg := expect(chan, (Offset, Stop), "Offset or Stop"), Stop):
        nu_a = _offset_vector(msg, len(fits), n)
        fits.append(_fit_or_fail(X_b, y_train, nu_a, fam, hs.lam, beta_b, "B"))
        beta_b = fits[-1].beta
        nu_b = X_b @ beta_b
        chan.send(Offset(round=len(fits), vector=nu_b))
    stop_reason = msg.reason
    nu_a = _offset_vector(expect(chan, Offset, "Offset"), len(fits), n)  # A's final one

    cov_b = _predictor_covariance(X_b, y_train, nu_a, fam, beta_b)
    return {"beta_b": beta_b, "nu_b": nu_b, "nu_a": nu_a, "rounds": len(fits),
            "fits": fits, "cov_b": cov_b, "stop_reason": stop_reason,
            "y_train": y_train}


def train(view_a, y, view_b, fam, stop=None, ridge=0.0,
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
            bob_box["result"] = run_bob(view_b, fam, chan_b)
        except Exception as exc:  # propagated after join
            bob_box["error"] = exc
        finally:
            chan_b.close()

    worker = threading.Thread(target=bob_main, daemon=True)
    worker.start()
    try:
        alice = run_alice(view_a, y, fam, chan_a, stop=stop, ridge=ridge,
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

    # each fit's objective holds the joint data loss and that side's own
    # penalty at its half-round; the other side's penalty is added here
    fits_a, fits_b = alice["fits"], bob["fits"]
    loss_log = [fits_a[0].final_loss]
    for a_prev, b, a in zip(fits_a, fits_b, fits_a[1:]):
        loss_log += [b.final_loss + ridge * float(a_prev.beta @ a_prev.beta),
                     a.final_loss + ridge * float(b.beta @ b.beta)]
    betas_b = [np.zeros(len(bob["beta_b"]))] + [f.beta for f in fits_b]

    return TrainSession(
        beta_a=alice["beta_a"], beta_b=bob["beta_b"],
        nu_a=alice["nu_a"], nu_b=bob["nu_b"],
        rounds=alice["rounds"], loss_log=loss_log,
        rounds_transmitted=recorder.vector_sends,
        bytes_transmitted=recorder.bytes_transmitted,
        stop_reason=alice["stop_reason"], ridge=ridge,
        y_train=alice["y_train"], transcript=list(recorder.lines),
        max_block_grad_inf=max(f.grad_norm_inf for f in fits_a + fits_b),
        cov_a=alice["cov_a"], cov_b=bob["cov_b"],
        mask_flip_prob=mask_flip_prob,
        history=list(zip([f.beta for f in fits_a], betas_b)))


def joint_loss(session, view_a, view_b, y, fam):
    """(1/n) sum m(y_i, nu_A_i + nu_B_i) plus both ridge penalties."""
    nu = view_a.design @ session.beta_a + view_b.design @ session.beta_b
    val = float(np.mean(fam.value(np.asarray(y, dtype=float), nu)))
    return val + session.ridge * (float(session.beta_a @ session.beta_a)
                                  + float(session.beta_b @ session.beta_b))


def contribution(x, beta, cov):
    """One side's share of a prediction for one row or a matrix of rows:
    (x' beta, sqrt(x' cov x)). A negative variance estimate raises SingularVariance."""
    x = np.asarray(x, dtype=float)
    nu = x @ beta
    var = np.sum((x @ cov) * x, axis=-1)
    if np.any(var < 0):
        raise SingularVariance("negative variance estimate")
    return nu, np.sqrt(var)


def predict(x_a, x_b, session, fam, alpha=0.05, unmask=False):
    """Joint point prediction with a conservative two-sided interval, for one
    row (scalar fields) or a matrix of rows (one vector per field).

    The interval is joint_interval's Bonferroni split across the two
    agents. For masked logistic sessions, unmask=True inverts the
    label-flip bias on the probability scale.
    """
    if unmask and session.mask_flip_prob is None:
        raise BadFlipProb("session was not trained on a masked response")
    nu_a, sigma_a = contribution(x_a, session.beta_a, session.cov_a)
    nu_b, sigma_b = contribution(x_b, session.beta_b, session.cov_b)
    return joint_interval(nu_a + nu_b, sigma_a, sigma_b, fam, alpha,
                          session.mask_flip_prob if unmask else None)


def send_contribution(view_b, fam, chan, beta, cov):
    """Bob's predict step: his contribution for all his predict rows in one message."""
    open_session(chan, view_b, fam.name)
    nu, sigma = contribution(view_b.design, beta, cov)
    chan.send(PredictContribution(nu=nu, sigma=sigma))


def joint_prediction(view_a, fam, chan, beta, cov, alpha=0.05, flip_prob=None):
    """Alice's predict step: joint_interval of her contribution and Bob's."""
    open_session(chan, view_a, fam.name, 0.0)
    nu, sigma = contribution(view_a.design, beta, cov)
    peer = expect(chan, PredictContribution, "a prediction contribution")
    if len(peer.nu) != view_a.n:
        raise ProtocolError("contribution row count differs from the predict file")
    return joint_interval(nu + peer.nu, sigma, peer.sigma, fam, alpha, flip_prob)


def joint_interval(nu, sigma_a, sigma_b, fam, alpha, flip_prob=None):
    """Bonferroni interval nu +/- z_{1-alpha/4} (sigma_A + sigma_B) on the
    linear predictor, elementwise; for GLM families the point and both
    endpoints are mapped through the monotone inverse link, and with the
    flip_prob of a session trained on flipped labels, from the flipped
    label's probability back to the true label's."""
    half = normal_quantile(1.0 - alpha / 4.0) * (sigma_a + sigma_b)
    nu_lo, nu_hi = nu - half, nu + half
    if fam.is_glm:  # [()] turns the link's 0-d array for one row into a scalar
        point, lo, hi = (fam.inverse_link(v)[()] for v in (nu, nu_lo, nu_hi))
    else:
        point, lo, hi = nu, nu_lo, nu_hi
    if flip_prob is not None:
        point, lo, hi = (unmask_probability(v, flip_prob) for v in (point, lo, hi))
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
    ridge, y = session.ridge, session.y_train
    beta_a = fit_offset(view_a.design, y, None, fam, ridge).beta
    for nu_b in offsets_b:
        beta_a = fit_offset(view_a.design, y, nu_b, fam, ridge, init=beta_a).beta
    beta_b = np.zeros(view_b.design.shape[1])
    for nu_a in offsets_a[:-1]:  # B never fits against A's final send
        beta_b = fit_offset(view_b.design, y, nu_a, fam, ridge, init=beta_b).beta
    return beta_a, beta_b
