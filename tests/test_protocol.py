import math

import numpy as np
import pytest

from aeal.data import AgentView, Owner
from aeal.errors import DimensionMismatch, ProtocolError
from aeal.losses import LossFamily
from aeal.messages import PROTOCOL_VERSION, Handshake, Offset, decode
from aeal.protocol import (StopCriterion, TrainSession, joint_loss, predict,
                           replay, run_bob, train)
from aeal.simulate import SimDesign, eta_bound, map_T, oracle_fit, simulate
from aeal.stats import normal_quantile
from aeal.transport import local_pair

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

    def test_stop_criterion_needs_one_active_rule(self):
        with pytest.raises(ValueError):
            StopCriterion(offset_tol=None, coef_tol=None, max_rounds=None)

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
                            stop_reason="MaxRounds", ridge=0.0,
                            family_name="logistic", n=n, y_train=y, transcript=[],
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
        design = SimDesign(setting="s1", n=400, rho=0.0, family=fam, centered=True,
                           beta=np.full(12, 0.1))
        sim = simulate(design, np.random.default_rng(19))
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, fam, stop=StopCriterion(max_rounds=60))
        oracle = oracle_fit(sim.X, sim.y, fam)
        gap = np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta))
        assert gap <= 1e-6


class TestProtocolValidation:
    def test_version_mismatch(self):
        va, vb, y = orthogonal_fixture()
        chan_a, chan_b = local_pair()
        chan_a.send(Handshake(version="aeal/0", n=vb.n, family="gaussian", lam=0.0))
        with pytest.raises(ProtocolError):
            run_bob(vb, GAUSS, chan_b)

    def test_rounds_must_increase(self):
        va, vb, y = orthogonal_fixture()
        chan_a, chan_b = local_pair()
        chan_a.send(Handshake(version=PROTOCOL_VERSION, n=vb.n, family="gaussian", lam=0.0))
        import threading

        def bob():
            try:
                run_bob(vb, GAUSS, chan_b)
            except ProtocolError as exc:
                results.append(exc)

        results = []
        th = threading.Thread(target=bob)
        th.start()
        chan_a.recv()  # bob's handshake echo
        from aeal.messages import ResponseShare
        chan_a.send(ResponseShare(y=tuple(y), masked=False, flip_prob=None))
        chan_a.send(Offset(round=1, vector=tuple(np.zeros(vb.n))))
        chan_a.recv()  # bob's reply
        chan_a.send(Offset(round=1, vector=tuple(np.zeros(vb.n))))  # repeated round
        th.join(10)
        assert results and isinstance(results[0], ProtocolError)
