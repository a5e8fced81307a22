import ast
import math
import pathlib
import socket
import threading
import time

import numpy as np
import pytest
from conftest import fixed_beta_replication

import aeal
from aeal import protocol
from aeal.data import AgentView, Owner
from aeal.errors import (BadDimensions, BadEpsilon, BadFlipProb, DimensionMismatch,
                         ProtocolError, SingularVariance, SolverFailure)
from aeal.losses import LossFamily
from aeal.messages import (_SCHEMAS, PROTOCOL_VERSION, Handshake, Offset,
                           PredictContribution, ResponseShare, Stop, decode, encode)
from aeal.protocol import (StopCriterion, TrainSession, joint_loss, joint_prediction,
                           offer_sketch, predict, replay, run_alice, run_bob, screen_offer,
                           train)
from aeal.screening import lrt_screen, wald_screen
from aeal.sketch import SketchOffer, make_sketch
from aeal.simulate import SimDesign, eta_bound, map_T, oracle_fit, simulate
from aeal.solver import _GRAM_BLOCK_BYTES
from aeal.stats import ScreenResult, normal_quantile
from aeal.transport import Recorder, SocketChannel, Tally, local_pair

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")


def views_from(sim):
    return (AgentView(design=sim.X_a, column_names=sim.ownership.a_names, owner=Owner.A),
            AgentView(design=sim.X_b, column_names=sim.ownership.b_names, owner=Owner.B))


def orthogonal_fixture(seed=5, n=40):
    """Disjoint row support makes the two blocks exactly orthogonal in sample."""
    rng = np.random.default_rng(seed)
    X_a = np.zeros((n, 2))
    X_a[: n // 2] = rng.normal(size=(n // 2, 2))
    X_b = np.zeros((n, 2))
    X_b[n // 2:] = rng.normal(size=(n // 2, 2))
    y = X_a @ np.array([1.0, -0.5]) + rng.normal(0, 0.1, n)
    va = AgentView(design=X_a, column_names=("a1", "a2"), owner=Owner.A)
    vb = AgentView(design=X_b, column_names=("b1", "b2"), owner=Owner.B)
    return va, vb, y


def setting1_fixture(seed=0, n=500):
    design = SimDesign(setting="s1", n=n, rho=0.0, family=GAUSS, centered=True)
    sim = simulate(design, np.random.default_rng(seed), hypothesis="h1")
    return sim


class TestTrainLoop:
    def test_orthogonal_stops_fast_by_coef(self):
        va, vb, y = orthogonal_fixture()
        sess = train(va, y, vb, GAUSS)
        assert sess.rounds == 2
        assert sess.stop_reason == "CoefDelta"
        b_only = np.linalg.lstsq(va.design, y, rcond=None)[0]
        assert np.max(np.abs(sess.beta_a - b_only)) <= 1e-12

    def test_max_rounds_zero_returns_initial_fit(self):
        va, vb, y = orthogonal_fixture()
        sess = train(va, y, vb, GAUSS, stop=StopCriterion(max_rounds=0))
        assert sess.rounds == 0
        assert sess.stop_reason == "MaxRounds"
        assert sess.rounds_transmitted == 1
        assert np.all(sess.beta_b == 0.0)
        b_only = np.linalg.lstsq(va.design, y, rcond=None)[0]
        assert np.max(np.abs(sess.beta_a - b_only)) <= 1e-10

    def test_reaches_pooled_oracle_setting1(self):
        sim = setting1_fixture()
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=60))
        oracle = oracle_fit(sim.X, sim.y, GAUSS)
        mapped = map_T(sess.beta_a, sess.beta_b, sim.ownership)
        assert np.max(np.abs(mapped - oracle.beta)) <= 1e-8

    def test_transcript_structure(self):
        va, vb, y = orthogonal_fixture()
        sess = train(va, y, vb, GAUSS, stop=StopCriterion(max_rounds=3))
        k = sess.rounds
        assert sess.rounds_transmitted == 2 * k + 1
        lines = sess.transcript
        offsets = [(s, decode(l)) for s, l in lines if '"type":"Offset"' in l]
        rounds_a = [m.round for s, m in offsets if s == "A"]
        rounds_b = [m.round for s, m in offsets if s == "B"]
        assert rounds_a == list(range(k + 1))
        assert rounds_b == list(range(1, k + 1))
        assert sess.bytes_transmitted > 0

    def test_replay_reproduces_final_coefficients(self):
        sim = setting1_fixture(seed=3, n=120)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=5))
        ba, bb = replay(sess, va, vb, GAUSS)
        assert np.array_equal(ba, sess.beta_a)
        assert np.array_equal(bb, sess.beta_b)

    def test_loss_log_monotone_and_strict_before_stationarity(self):
        sim = setting1_fixture(seed=4, n=200)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=30))
        log = sess.loss_log
        assert all(log[i + 1] <= log[i] + 1e-14 for i in range(len(log) - 1))
        assert log[2] < log[0]  # strict progress early on

    def test_block_stationarity(self):
        sim = setting1_fixture(seed=5, n=200)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=10))
        assert sess.max_block_grad_inf <= 1e-8

    def test_nu_consistency(self):
        sim = setting1_fixture(seed=6, n=100)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=4))
        assert np.max(np.abs(sess.nu_a - va.design @ sess.beta_a)) <= 1e-12
        assert np.max(np.abs(sess.nu_b - vb.design @ sess.beta_b)) <= 1e-12

    def test_dimension_mismatch(self):
        va, vb, y = orthogonal_fixture()
        with pytest.raises(DimensionMismatch):
            train(va, y[:-1], vb, GAUSS)

    def test_offset_delta_stop_reason(self):
        sim = setting1_fixture(seed=20, n=200)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS,
                     stop=StopCriterion(offset_tol=1e-6 * np.sqrt(200),
                                        coef_tol=None, max_rounds=100))
        assert sess.stop_reason == "OffsetDelta"
        assert 2 <= sess.rounds < 100

    def test_stop_criterion_refuses_unbounded_session(self):
        with pytest.raises(ValueError, match="max_rounds must be at least 0"):
            StopCriterion(max_rounds=None)

    def test_stop_criterion_refuses_negative_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds must be at least 0"):
            StopCriterion(max_rounds=-1)
        assert StopCriterion(max_rounds=0).max_rounds == 0

    def test_eta_envelope_per_half_round(self):
        sim = setting1_fixture(seed=7, n=400)
        va, vb = views_from(sim)
        oracle = oracle_fit(sim.X, sim.y, GAUSS)
        eta = eta_bound(sim.X, sim.y, GAUSS, oracle.beta)
        assert 0.0 < eta < 1.0
        sess = train(va, sim.y, vb, GAUSS,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=30))
        gaps = [v - oracle.final_loss for v in sess.loss_log]
        for g0, g1 in zip(gaps, gaps[1:]):
            if g0 > 1e-12:
                assert g1 <= eta * g0 + 1e-15

    def test_shared_covariate_fitted_values_converge(self):
        design = SimDesign(setting="s2", n=400, rho=0.1, family=GAUSS)
        sim = simulate(design, np.random.default_rng(8), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=100))
        oracle = oracle_fit(sim.X, sim.y, GAUSS)
        gap = np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta))
        assert gap <= 1e-6

    def test_logistic_session(self):
        design = SimDesign(setting="s2", n=500, rho=0.1, family=LOGIT)
        sim = simulate(design, np.random.default_rng(9), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, LOGIT, stop=StopCriterion(max_rounds=60))
        oracle = oracle_fit(sim.X, sim.y, LOGIT)
        gap = np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta))
        assert gap <= 1e-4

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "logcosh"])
    def test_exact_coef_stop_is_a_fixed_point(self, family):
        # once beta_A repeats bit for bit, every later round repeats too, so
        # stopping there and holding the last entry loses nothing
        fam = LossFamily(family)
        design = SimDesign(setting="s2", n=500, rho=0.1, family=fam)
        sim = simulate(design, np.random.default_rng(31), hypothesis="h1")
        va, vb = views_from(sim)
        runs = [train(va, sim.y, vb, fam,
                      stop=StopCriterion(offset_tol=None, coef_tol=tol, max_rounds=40))
                for tol in (0.0, None)]
        stopped, full = runs[0].history, runs[1].history
        assert len(full) == 41
        assert runs[0].rounds < 40 and runs[0].stop_reason == "CoefDelta"
        padded = stopped + [stopped[-1]] * (len(full) - len(stopped))
        for (a1, b1), (a2, b2) in zip(padded, full):
            assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "logcosh"])
    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_loss_log_per_half_round(self, family, ridge):
        # entry 0 is A's initial fit; round k adds B's fit against a_{k-1},
        # then A's fit against b_k, each with both agents' penalties
        fam = LossFamily(family)
        design = SimDesign(setting="s2", n=500, rho=0.1, family=fam)
        sim = simulate(design, np.random.default_rng(32), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, fam, ridge=ridge,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=15))

        def joint(a, b):
            val = float(np.mean(fam.value(sim.y, va.design @ a + vb.design @ b)))
            if ridge > 0:
                val += ridge * float(a @ a) + ridge * float(b @ b)
            return val

        hist = sess.history
        want = [joint(*hist[0])]
        for (a_prev, _), (a, b) in zip(hist, hist[1:]):
            want += [joint(a_prev, b), joint(a, b)]
        assert len(sess.loss_log) == len(want) == 31
        if ridge == 0.0:
            assert sess.loss_log == want
        else:
            assert sess.loss_log == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_warm_start_just_above_tolerance_converges(self, monkeypatch):
        # a warm-started fit here starts with its gradient just above the
        # solver tolerance, where the predicted decrease is below the
        # objective's rounding; it must take its step, not fail the session
        monkeypatch.setattr("aeal.transport.RECV_TIMEOUT", 10.0)
        design = SimDesign(setting="s1", n=2000, rho=0.1, family=LOGIT)
        sim = simulate(design, np.random.default_rng([10, 1]), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, LOGIT, stop=StopCriterion.default(2000))
        assert sess.stop_reason == "OffsetDelta"
        oracle = oracle_fit(sim.X, sim.y, LOGIT)
        assert np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta)) <= 1e-6


class TestFailFast:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_failure_reaches_caller_at_once(self, monkeypatch, side):
        # one side's warm-started fit fails mid-session; the caller must get
        # that error, not the other side's receive timeout
        monkeypatch.setattr("aeal.transport.RECV_TIMEOUT", 10.0)
        fit_or_fail = protocol._fit_or_fail

        def failing(X, y, offset, fam, ridge, init, who):
            if who == side and init is not None:
                raise SolverFailure(f"{who}'s local fit did not converge")
            return fit_or_fail(X, y, offset, fam, ridge, init, who)

        monkeypatch.setattr(protocol, "_fit_or_fail", failing)
        va, vb, y = orthogonal_fixture()
        start = time.perf_counter()
        with pytest.raises(SolverFailure, match=f"^{side}'s"):
            train(va, y, vb, GAUSS)
        assert time.perf_counter() - start < 1.0

    def test_singular_predictor_covariance(self):
        # a zero column makes V1 exactly singular
        X = np.column_stack([np.ones(10), np.zeros(10)])
        with pytest.raises(SingularVariance):
            protocol._predictor_covariance(X, np.arange(10.0), None, GAUSS, np.zeros(2))


class TestRidge:
    def test_penalized_gap_within_envelope(self):
        sim = setting1_fixture(seed=10, n=300)
        va, vb = views_from(sim)
        for lam in (1e-4, 1e-2):
            sess = train(va, sim.y, vb, GAUSS, ridge=lam,
                         stop=StopCriterion(offset_tol=None, coef_tol=None,
                                            max_rounds=80))
            oracle = oracle_fit(sim.X, sim.y, GAUSS, ridge=lam)
            gap = abs(joint_loss(sess, va, vb, sim.y, GAUSS) - oracle.final_loss)
            assert gap <= 1e-6 + 10 * lam

    def test_loss_log_includes_both_penalties(self):
        sim = setting1_fixture(seed=11, n=150)
        va, vb = views_from(sim)
        lam = 1e-3
        sess = train(va, sim.y, vb, GAUSS, ridge=lam, stop=StopCriterion(max_rounds=10))
        want = joint_loss(sess, va, vb, sim.y, GAUSS)
        assert sess.loss_log[-1] == pytest.approx(want, rel=1e-12)
        assert all(sess.loss_log[i + 1] <= sess.loss_log[i] + 1e-14
                   for i in range(len(sess.loss_log) - 1))


class TestJointLoss:
    def test_zero_coefficients_logistic(self):
        n = 8
        va = AgentView(design=np.eye(n, 2), column_names=("a0", "a1"), owner=Owner.A)
        vb = AgentView(design=np.eye(n, 3), column_names=("b0", "b1", "b2"), owner=Owner.B)
        y = np.array([0.0, 1.0] * 4)
        sess = TrainSession(beta_a=np.zeros(2), beta_b=np.zeros(3), nu_a=np.zeros(n),
                            nu_b=np.zeros(n), rounds=0, loss_log=[],
                            rounds_transmitted=0, bytes_transmitted=0,
                            stop_reason="MaxRounds", ridge=0.0, y_train=y, transcript=[],
                            max_block_grad_inf=0.0, cov_a=np.zeros((2, 2)),
                            cov_b=np.zeros((3, 3)))
        assert joint_loss(sess, va, vb, y, LOGIT) == pytest.approx(math.log(2), abs=1e-12)

    def test_equals_last_solver_objective(self):
        sim = setting1_fixture(seed=12, n=100)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=6))
        assert joint_loss(sess, va, vb, sim.y, GAUSS) == pytest.approx(
            sess.loss_log[-1], rel=1e-13)


class TestMasking:
    def test_recovers_probabilities_on_large_fixture(self):
        rng = np.random.default_rng(13)
        n = 20_000
        design = SimDesign(setting="s2", n=n, rho=0.1, family=LOGIT)
        sim = simulate(design, rng, hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, LOGIT, mask_flip_prob=0.1, rng=rng,
                     stop=StopCriterion(max_rounds=40))
        # truth on fresh points
        X_eval = sim.X[:5000]
        truth = 1 / (1 + np.exp(-(X_eval @ sim.beta_true)))
        preds = []
        own = sim.ownership
        pos = {nm: j for j, nm in enumerate(own.pooled_names)}
        Xe_a = X_eval[:, [pos[nm] for nm in own.a_names]]
        Xe_b = X_eval[:, [pos[nm] for nm in own.b_names]]
        for i in range(len(X_eval)):
            preds.append(predict(Xe_a[i], Xe_b[i], sess, LOGIT, unmask=True).point)
        assert float(np.mean(np.abs(np.array(preds) - truth))) <= 0.03

    def test_masking_needs_the_logistic_family(self, monkeypatch):
        # a gaussian point can leave [0, 1], where no flip bias can be undone:
        # Alice refuses before her handshake, and train raises it at once
        monkeypatch.setattr("aeal.transport.RECV_TIMEOUT", 5.0)
        va, vb, y = orthogonal_fixture()
        labels = (y > 0).astype(float)
        recorder = Recorder()
        chan_a, _ = local_pair(recorder)
        with pytest.raises(BadFlipProb, match="logistic family"):
            run_alice(va, labels, GAUSS, chan_a, mask_flip_prob=0.1,
                      rng=np.random.default_rng(0))
        assert recorder.lines == []
        start = time.monotonic()
        with pytest.raises(BadFlipProb, match="logistic family"):
            train(va, labels, vb, GAUSS, mask_flip_prob=0.1, rng=np.random.default_rng(0))
        assert time.monotonic() - start < 1.0

    def test_unmasking_needs_a_masked_session(self):
        va, vb, y = orthogonal_fixture()
        sess = train(va, y, vb, GAUSS, stop=StopCriterion(max_rounds=3))
        with pytest.raises(BadFlipProb, match="not trained on a masked response"):
            predict(va.design[0], vb.design[0], sess, GAUSS, unmask=True)


class TestPredict:
    def make_session(self, seed=14, n=300):
        sim = setting1_fixture(seed=seed, n=n)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=40))
        return sim, sess

    def test_zero_point_logistic(self):
        design = SimDesign(setting="s1", n=300, rho=0.0, family=LOGIT)
        sim = simulate(design, np.random.default_rng(15), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, LOGIT, stop=StopCriterion(max_rounds=20))
        pred = predict(np.zeros(6), np.zeros(6), sess, LOGIT)
        assert pred.nu == 0.0
        assert pred.point == pytest.approx(0.5)

    def test_gaussian_half_width(self):
        sim, sess = self.make_session()
        x_a = np.full(6, 0.3)
        x_b = np.full(6, -0.2)
        pred = predict(x_a, x_b, sess, GAUSS, alpha=0.05)
        z = normal_quantile(1 - 0.05 / 4)
        assert z == pytest.approx(2.2414, abs=1e-4)
        sig_a = math.sqrt(float(x_a @ sess.cov_a @ x_a))
        sig_b = math.sqrt(float(x_b @ sess.cov_b @ x_b))
        assert pred.hi - pred.lo == pytest.approx(2 * z * (sig_a + sig_b), rel=1e-12)

    def test_interval_contains_point(self):
        sim, sess = self.make_session(seed=16)
        rng = np.random.default_rng(17)
        for _ in range(10):
            pred = predict(rng.normal(size=6), rng.normal(size=6), sess, GAUSS)
            assert pred.lo <= pred.point <= pred.hi

    def test_logcosh_predicts_on_nu_scale(self):
        fam = LossFamily("logcosh", alpha=0.3)
        design = SimDesign(setting="s1", n=300, rho=0.0, family=fam, centered=True)
        sim = simulate(design, np.random.default_rng(18), hypothesis="h1")
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, fam, stop=StopCriterion(max_rounds=40))
        x_a, x_b = np.full(6, 0.2), np.full(6, -0.1)
        pred = predict(x_a, x_b, sess, fam)
        assert pred.point == pred.nu  # no mean map for the robust loss
        assert pred.lo == pred.nu_lo and pred.hi == pred.nu_hi

    def test_poisson_session_matches_oracle_predictor(self):
        fam = LossFamily("poisson")
        sim = fixed_beta_replication("s1", 400, fam, np.full(12, 0.1),
                                     np.random.default_rng(19))
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, fam, stop=StopCriterion(max_rounds=60))
        oracle = oracle_fit(sim.X, sim.y, fam)
        gap = np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta))
        assert gap <= 1e-6

    @pytest.mark.parametrize("bare", ["alice", "bob"])
    def test_side_without_columns_predicts_with_sigma_zero(self, bare):
        # Alice holding only the labels, or a Bob holding no column
        design = SimDesign(setting="s1", n=500, rho=0.0, family=LOGIT)
        sim = simulate(design, np.random.default_rng(20), hypothesis="h1")
        va, vb = views_from(sim)
        if bare == "alice":
            va = AgentView(design=np.empty((500, 0)), column_names=(), owner=Owner.A)
        else:
            vb = AgentView(design=np.empty((500, 0)), column_names=(), owner=Owner.B)
        sess = train(va, sim.y, vb, LOGIT, stop=StopCriterion(max_rounds=20))
        cov, beta = (sess.cov_a, sess.beta_a) if bare == "alice" else (sess.cov_b, sess.beta_b)
        assert cov.shape == (0, 0)
        rows = np.random.default_rng(21)
        x_a, x_b = (rows.normal(size=(4, v.design.shape[1])) for v in (va, vb))
        nu, sigma = protocol.contribution(x_a if bare == "alice" else x_b, beta, cov)
        assert np.all(nu == 0.0) and np.all(sigma == 0.0)
        pred = predict(x_a, x_b, sess, LOGIT)
        assert np.all(pred.lo < pred.point) and np.all(pred.point < pred.hi)
        beta_a, beta_b = replay(sess, va, vb, LOGIT)
        assert beta_a.tobytes() == sess.beta_a.tobytes()
        assert beta_b.tobytes() == sess.beta_b.tobytes()


def test_contribution_refuses_a_negative_variance():
    with pytest.raises(SingularVariance, match="negative variance estimate"):
        protocol.contribution(np.array([1.0, 0.5]), np.zeros(2), -np.eye(2))


class TestProtocolValidation:
    def test_version_mismatch(self):
        va, vb, y = orthogonal_fixture()
        chan_a, chan_b = local_pair()
        chan_a.send(Handshake(version="aeal/0", n=vb.n, family="gaussian", lam=0.0))
        with pytest.raises(ProtocolError):
            run_bob(vb, GAUSS, chan_b)

    @pytest.mark.parametrize("digests", [("a" * 64, "b" * 64), ("a" * 64, None)],
                             ids=["different", "one-missing"])
    def test_row_id_digests_must_match(self, digests):
        # Bob echoes before he checks, so both sides stop on the mismatch
        va, vb, y = orthogonal_fixture()
        va = AgentView(va.design, va.column_names, Owner.A, id_digest=digests[0])
        vb = AgentView(vb.design, vb.column_names, Owner.B, id_digest=digests[1])
        chan_a, chan_b = local_pair()
        bob_errors = []

        def bob():
            try:
                run_bob(vb, GAUSS, chan_b)
            except ProtocolError as exc:
                bob_errors.append(str(exc))

        th = threading.Thread(target=bob)
        th.start()
        with pytest.raises(ProtocolError, match="row ids differ"):
            run_alice(va, y, GAUSS, chan_a)
        th.join(10)
        assert len(bob_errors) == 1 and "row ids differ" in bob_errors[0]


# the role under test ("alice" and "bob" train): its side and its call on that
# side's end of the channel, for the views and response of orthogonal_fixture
ROLES = {
    "alice": ("A", lambda chan, va, vb, y: run_alice(va, y, GAUSS, chan)),
    "bob": ("B", lambda chan, va, vb, y: run_bob(vb, GAUSS, chan)),
    "alice-screen": ("A", lambda chan, va, vb, y: screen_offer(va, y, GAUSS, chan)),
    "bob-screen": ("B", lambda chan, va, vb, y: offer_sketch(vb, GAUSS, chan, 2,
                                                             np.random.default_rng(0))),
    "alice-predict": ("A", lambda chan, va, vb, y: joint_prediction(va, GAUSS, chan,
                                                                    np.zeros(2), np.eye(2))),
}


def scripted_peer_error(monkeypatch, role, script):
    """Queue the scripted peer's messages on a local pair, or on a socket pair
    if one is a raw wire line (a str), run the role against them and return its
    ProtocolError and how long it took to arrive."""
    monkeypatch.setattr("aeal.transport.RECV_TIMEOUT", 5.0)
    va, vb, y = orthogonal_fixture()
    side, call = ROLES[role]
    msgs = script(va.n)

    def error_and_seconds(chan):
        start = time.monotonic()
        with pytest.raises(ProtocolError) as err:
            call(chan, va, vb, y)
        return str(err.value), time.monotonic() - start

    if any(isinstance(msg, str) for msg in msgs):  # no object holds what its class refuses
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall("".join((msg if isinstance(msg, str) else encode(msg)) + "\n"
                                   for msg in msgs).encode())
            return error_and_seconds(SocketChannel(ours))
    chan_a, chan_b = local_pair()
    chan, peer = (chan_a, chan_b) if side == "A" else (chan_b, chan_a)
    for msg in msgs:
        peer.send(msg)
    return error_and_seconds(chan)


def handshake(n, family="gaussian"):
    return Handshake(version=PROTOCOL_VERSION, n=n, family=family, lam=0.0)


def response(n):
    return ResponseShare(y=np.zeros(n), masked=False, flip_prob=None)


def offer(rows):
    return SketchOffer(projected=np.ones((rows, 2)), t=2)


# (role, the peer's messages for a session of n rows, the error's message)
SCRIPTED_PEERS = {
    "expected-handshake": ("bob", lambda n: [Offset(round=0, vector=np.zeros(n))],
                           "expected handshake"),
    "family-mismatch": ("bob", lambda n: [handshake(n, family="logistic")],
                        "family mismatch"),
    "expected-offset": ("alice", lambda n: [handshake(n), Stop(reason="MaxRounds")],
                        "expected Offset, got Stop"),
    "offset-length": ("bob", lambda n: [handshake(n), response(n),
                                        Offset(round=0, vector=np.zeros(n - 1))],
                      "offset vector length does not match"),
    "expected-response-share": ("bob", lambda n: [handshake(n),
                                                  Offset(round=0, vector=np.zeros(n))],
                                "expected the response share"),
    "response-length": ("bob", lambda n: [handshake(n), response(n - 1)],
                        "response length does not match"),
    "alice-expected-handshake": ("alice", lambda n: [Stop(reason="MaxRounds")],
                                 "expected handshake, got Stop"),
    "bob-expected-offset-or-stop": ("bob", lambda n: [handshake(n), response(n),
                                                      Offset(round=0, vector=np.zeros(n)),
                                                      response(n)],
                                    "expected Offset or Stop, got ResponseShare"),
    "bob-expected-final-offset": ("bob", lambda n: [handshake(n), response(n),
                                                    Offset(round=0, vector=np.zeros(n)),
                                                    Stop(reason="MaxRounds"),
                                                    Stop(reason="MaxRounds")],
                                  "expected Offset, got Stop"),
    # Alice's offsets carry rounds 0, 1, ... and Bob's reply to round j carries j + 1
    "bob-repeated-round": ("bob", lambda n: [handshake(n), response(n),
                                             Offset(round=0, vector=np.zeros(n)),
                                             Offset(round=0, vector=np.zeros(n))],
                           "offset is for round 0, but round 1 is due"),
    "bob-skipped-round": ("bob", lambda n: [handshake(n), response(n),
                                            Offset(round=0, vector=np.zeros(n)),
                                            Offset(round=2, vector=np.zeros(n))],
                          "offset is for round 2, but round 1 is due"),
    "bob-final-round-skipped": ("bob", lambda n: [handshake(n), response(n),
                                                  Offset(round=0, vector=np.zeros(n)),
                                                  Stop(reason="MaxRounds"),
                                                  Offset(round=2, vector=np.zeros(n))],
                                "offset is for round 2, but round 1 is due"),
    "alice-skipped-round": ("alice", lambda n: [handshake(n),
                                                Offset(round=2, vector=np.zeros(n))],
                            "offset is for round 2, but round 1 is due"),
    "alice-offset-for-offer": ("alice-screen", lambda n: [handshake(n),
                                                          Offset(round=0, vector=np.zeros(n))],
                               "expected a sketch offer, got Offset"),
    "alice-offer-of-too-many-rows": ("alice-screen", lambda n: [handshake(n), offer(n + 1)],
                                     "sketch carries more rows than this agent holds"),
    "bob-stop-for-result": ("bob-screen", lambda n: [handshake(n), Stop(reason="MaxRounds")],
                            "expected a screening result, got Stop"),
    "bob-impossible-result": ("bob-screen", lambda n: [
        handshake(n), '{"type":"ScreenResult","statistic":-3.0,"df":-2,"p_value":7.5,'
                      '"reject":false,"alpha":4.0}'], "malformed ScreenResult"),
    "alice-contribution-rows": ("alice-predict", lambda n: [
        handshake(n), PredictContribution(nu=np.zeros(n - 1), sigma=np.zeros(n - 1))],
        "contribution row count differs from the predict file"),
}


@pytest.mark.parametrize("role, script, message", SCRIPTED_PEERS.values(),
                         ids=list(SCRIPTED_PEERS))
def test_peer_breaking_the_session_order_fails_at_once(monkeypatch, role, script, message):
    error, seconds = scripted_peer_error(monkeypatch, role, script)
    assert message in error
    assert seconds < 1.0  # not after the receive timeout


def package_sites(matches, kind=ast.Call, skip=("transport.py",)):
    """(module, enclosing function) of every node of type kind in the package,
    the modules in skip aside, that matches(node) accepts."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kind) and matches(child):
                found.add((module, where))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if is_def else where)

    for path in sorted(pathlib.Path(aeal.__file__).parent.glob("*.py")):
        if path.name not in skip:
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def test_only_expect_receives_a_message():
    # every session step receives through protocol.expect, the one place that
    # checks a message's type, so no step can forget that check
    def receives(call):
        return isinstance(call.func, ast.Attribute) and call.func.attr == "recv"

    def raises_expected(call):
        first = call.args[0] if call.args else None
        text = (first.values[0] if isinstance(first, ast.JoinedStr) and first.values
                else first)
        return (isinstance(call.func, ast.Name) and call.func.id == "ProtocolError"
                and isinstance(text, ast.Constant) and str(text.value).startswith("expected"))

    assert package_sites(receives) == {("protocol.py", "expect")}
    assert package_sites(raises_expected) == {("protocol.py", "expect")}


def test_only_sketch_reads_rows_excluded():
    # no release drops a row: SketchOffer keeps rows_excluded only to refuse a
    # non-empty one, and no other module reads it
    def reads(node):
        return node.attr == "rows_excluded"

    assert {module for module, _ in package_sites(reads, ast.Attribute, skip=())} == {
        "sketch.py"}
    assert not any("rows_excluded" in schema for schema in _SCHEMAS.values())


def test_only_protocol_sends_a_message():
    # protocol.py holds every session step: no other module sends a message,
    # and the agent in cli.py neither receives one through expect nor builds one
    def sends(call):
        return isinstance(call.func, ast.Attribute) and call.func.attr == "send"

    def expects_or_builds(call):
        return isinstance(call.func, ast.Name) and call.func.id in {"expect", *_SCHEMAS}

    assert {module for module, _ in package_sites(sends)} == {"protocol.py"}
    assert "cli.py" not in {module for module, _ in package_sites(expects_or_builds)}


def test_only_spd_inverse_and_the_cli_catch_linalg_errors():
    # spd_inverse raises each caller's own error type, so no caller maps numpy's
    # LinAlgError by hand; cli.main keeps a net for the other numpy calls
    def catches_linalg(handler):
        return handler.type is not None and any(
            isinstance(node, ast.Attribute) and node.attr == "LinAlgError"
            for node in ast.walk(handler.type))

    assert package_sites(catches_linalg, ast.ExceptHandler, skip=()) == {
        ("solver.py", "spd_inverse"), ("cli.py", "main")}


def test_socket_session_equals_in_process_above_one_gram_block():
    # at n = 10 000 each side's 8 columns span two row blocks of the weighted
    # Gram; the socket agents still reproduce the in-process session bit for bit
    sim = simulate(SimDesign(setting="s2", n=10_000, rho=0.1, family=LOGIT),
                   np.random.default_rng(13))
    va, vb = views_from(sim)
    assert min(va.design.nbytes, vb.design.nbytes) > _GRAM_BLOCK_BYTES
    stop = StopCriterion.default(va.n)
    sess = train(va, sim.y, vb, LOGIT, stop=stop)

    left, right = socket.socketpair()
    rec_a, tally_b = Recorder(), Tally()
    chan_a = SocketChannel(left, name="A", peer="B", recorder=rec_a)
    chan_b = SocketChannel(right, name="B", peer="A", recorder=tally_b)
    bob = {}
    worker = threading.Thread(target=lambda: bob.update(run_bob(vb, LOGIT, chan_b)),
                              daemon=True)
    worker.start()
    try:
        alice = run_alice(va, sim.y, LOGIT, chan_a, stop=stop)
    finally:
        worker.join(timeout=120.0)
        chan_a.close()
        chan_b.close()

    assert alice["beta_a"].tobytes() == sess.beta_a.tobytes()
    assert bob["beta_b"].tobytes() == sess.beta_b.tobytes()
    assert alice["cov_a"].tobytes() == sess.cov_a.tobytes()
    assert bob["cov_b"].tobytes() == sess.cov_b.tobytes()
    assert alice["rounds"] == bob["rounds"] == sess.rounds
    assert rec_a.lines == sess.transcript
    assert (rec_a.bytes_transmitted == tally_b.bytes_transmitted
            == sess.bytes_transmitted)
    # an alternating session sends no GradShare: every vector send is an Offset
    assert (rec_a.vector_sends == rec_a.counts["Offset"] == tally_b.vector_sends
            == sess.rounds_transmitted)


def stage1(chan_a, chan_b, view_a, y, view_b, fam, test, release):
    """Alice's screen_offer against Bob's offer_sketch on the two channel ends;
    returns Alice's report and Bob's result."""
    bob = {}
    worker = threading.Thread(target=lambda: bob.update(result=offer_sketch(
        view_b, fam, chan_b, 2, np.random.default_rng(3), **release)), daemon=True)
    worker.start()
    try:
        report = screen_offer(view_a, y, fam, chan_a, test=test)
    finally:
        worker.join(timeout=60.0)
        chan_a.close()
        chan_b.close()
    return report, bob["result"]


# stage-1 releases that offer_sketch refuses, with the error, before its handshake
BAD_RELEASES = {
    "t-0": (0, {}, BadDimensions),
    "t-above-p_b": (3, {}, BadDimensions),
    "noise-scale-beside-epsilon": (2, {"noise_scale": 100.0, "epsilon": 5.0, "c2": 1.0},
                                   BadEpsilon),
    "epsilon-without-c2": (2, {"epsilon": 5.0}, BadEpsilon),
}


@pytest.mark.parametrize("t, release, error", BAD_RELEASES.values(), ids=list(BAD_RELEASES))
def test_offer_sketch_refuses_a_bad_release_before_any_line(monkeypatch, t, release, error):
    monkeypatch.setattr("aeal.transport.RECV_TIMEOUT", 5.0)
    _, vb, _ = orthogonal_fixture()
    recorder = Recorder()
    ours, alice = local_pair(recorder)  # the recording end serves Bob
    alice.send(handshake(vb.n))  # Alice has opened: only the release check stops Bob
    with pytest.raises(error):
        offer_sketch(vb, GAUSS, ours, t, np.random.default_rng(0), **release)
    assert recorder.lines == []  # Bob neither took her handshake nor sent a line


@pytest.mark.parametrize("release", [{"rows": 150}, {"rows": 150, "epsilon": 5.0, "c2": 1.5}],
                         ids=["rows", "clipped-epsilon"])
@pytest.mark.parametrize("test", ["wald", "lrt"])
def test_stage1_is_the_same_over_both_transports(test, release):
    sim = simulate(SimDesign(setting="s2", n=200, rho=0.1, family=LOGIT),
                   np.random.default_rng(8), hypothesis="h1")
    va, vb = views_from(sim)
    sketch = make_sketch(vb.design[:150], 2, np.random.default_rng(3),
                         epsilon=release.get("epsilon"), c2=release.get("c2"))
    # the bound scales some of Bob's rows, and none is dropped
    assert "c2" not in release or np.any(np.linalg.norm(vb.design[:150], axis=1) > 1.5)
    lead = AgentView(design=va.design[:150], column_names=va.column_names, owner=Owner.A)
    screen = lrt_screen if test == "lrt" else wald_screen
    want = screen(lead, sim.y[:150], sketch, LOGIT).decision

    rec_local = Recorder()
    local = stage1(*local_pair(rec_local), va, sim.y, vb, LOGIT, test, release)
    left, right = socket.socketpair()
    rec_socket, tally_b = Recorder(), Tally()
    over_socket = stage1(SocketChannel(left, name="A", peer="B", recorder=rec_socket),
                         SocketChannel(right, name="B", peer="A", recorder=tally_b),
                         va, sim.y, vb, LOGIT, test, release)
    for report, result in (local, over_socket):
        assert report.decision.statistic.hex() == want.statistic.hex()
        assert report.decision == want == result
    assert rec_local.lines == rec_socket.lines
    assert [type(decode(line)) for _, line in rec_socket.lines] == [
        Handshake, Handshake, SketchOffer, ScreenResult]
    assert (rec_local.bytes_transmitted == rec_socket.bytes_transmitted
            == tally_b.bytes_transmitted)
