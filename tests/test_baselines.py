import tracemalloc

import numpy as np
import pytest

from aeal import baselines
from aeal.baselines import (BaselineConfig, default_step_grid, train_baseline,
                            tune_step)
from aeal.data import AgentView, Owner
from aeal.losses import LossFamily
from aeal.messages import decode
from aeal.protocol import StopCriterion, train
from aeal.simulate import SimDesign, oracle_fit, simulate
from aeal.transport import Recorder

GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")


def fixture(seed=0, n=300, family=GAUSS, setting="s1", rho=0.0, centered=True):
    design = SimDesign(setting=setting, n=n, rho=rho, family=family, centered=centered)
    sim = simulate(design, np.random.default_rng(seed), hypothesis="h1")
    va = AgentView(design=sim.X_a, column_names=sim.ownership.a_names, owner=Owner.A)
    vb = AgentView(design=sim.X_b, column_names=sim.ownership.b_names, owner=Owner.B)
    return sim, va, vb


@pytest.fixture
def kept(monkeypatch):
    """Line-keeping recorders of the baseline sessions a test runs, in order; a
    session itself counts its traffic but keeps no line."""
    recorders = []

    def keeping():
        recorders.append(Recorder())
        return recorders[-1]

    monkeypatch.setattr(baselines, "Tally", keeping)
    return recorders


class TestFedSgd:
    def test_zero_step_freezes_everything(self):
        sim, va, vb = fixture()
        cfg = BaselineConfig(algorithm="fedsgd", step0=0.0, max_rounds=5)
        sess = train_baseline(va, sim.y, vb, GAUSS, cfg)
        assert np.all(sess.beta_a == 0.0) and np.all(sess.beta_b == 0.0)
        assert len(set(round(v, 15) for v in sess.loss_log)) == 1

    def test_round_accounting(self):
        sim, va, vb = fixture()
        cfg = BaselineConfig(algorithm="fedsgd", step0=0.05, max_rounds=7)
        sess = train_baseline(va, sim.y, vb, GAUSS, cfg)
        assert sess.rounds == 7
        assert sess.rounds_transmitted == 14  # two vector sends per round
        assert sess.bytes_transmitted > 0

    def test_transmitted_gradient_matches_loss_grad(self, kept):
        sim, va, vb = fixture(seed=1, n=60)
        cfg = BaselineConfig(algorithm="fedsgd", step0=0.05, max_rounds=3)
        sess = train_baseline(va, sim.y, vb, GAUSS, cfg)
        offsets = {}
        grads = {}
        [recorder] = kept
        for sender, line in recorder.lines:
            msg = decode(line)
            if type(msg).__name__ == "Offset":
                offsets[msg.round] = np.asarray(msg.vector)
            elif type(msg).__name__ == "GradShare":
                grads[msg.round] = np.asarray(msg.vector)
        assert sorted(grads) == [1, 2, 3]  # one GradShare per round
        for k in sorted(grads):
            beta_a, _ = sess.history[k - 1]
            nu = va.design @ beta_a + offsets[k]
            want = GAUSS.grad(sim.y, nu)
            assert np.max(np.abs(grads[k] - want)) <= 1e-14

    def test_small_step_monotone_loss(self):
        sim, va, vb = fixture(seed=2)
        cfg = BaselineConfig(algorithm="fedsgd", step0=0.02, decay="constant",
                             max_rounds=40)
        sess = train_baseline(va, sim.y, vb, GAUSS, cfg)
        log = sess.loss_log
        assert all(log[i + 1] <= log[i] + 1e-12 for i in range(len(log) - 1))

    def test_minibatch_runs(self):
        sim, va, vb = fixture(seed=3)
        cfg = BaselineConfig(algorithm="fedsgd", step0=0.05, batch=32, max_rounds=10)
        sess = train_baseline(va, sim.y, vb, GAUSS, cfg, batch_seed=4)
        assert sess.rounds == 10


class TestFedBcd:
    def test_reduces_to_fedsgd(self):
        sim, va, vb = fixture(seed=5)
        kw = dict(step0=0.05, decay="sqrt", batch=None, max_rounds=15)
        sgd = train_baseline(va, sim.y, vb, GAUSS,
                             BaselineConfig(algorithm="fedsgd", **kw),
                             batch_seed=1)
        bcd = train_baseline(va, sim.y, vb, GAUSS,
                             BaselineConfig(algorithm="fedbcd", q_local=1, mu=0.0, **kw),
                             batch_seed=1)
        for (a1, b1), (a2, b2) in zip(sgd.history, bcd.history):
            assert np.max(np.abs(a1 - a2)) <= 1e-12
            assert np.max(np.abs(b1 - b2)) <= 1e-12

    def test_local_updates_make_progress(self):
        sim, va, vb = fixture(seed=6)
        cfg1 = BaselineConfig(algorithm="fedbcd", step0=0.05, q_local=1, mu=0.0,
                              max_rounds=10)
        cfg5 = BaselineConfig(algorithm="fedbcd", step0=0.05, q_local=5, mu=0.0,
                              max_rounds=10)
        s1 = train_baseline(va, sim.y, vb, GAUSS, cfg1)
        s5 = train_baseline(va, sim.y, vb, GAUSS, cfg5)
        assert s5.loss_log[-1] < s1.loss_log[-1]

    def test_divergence_guard(self):
        sim, va, vb = fixture(seed=7, family=LOGIT)
        cfg = BaselineConfig(algorithm="fedbcd", step0=500.0, q_local=25, mu=0.0,
                             max_rounds=30)
        sess = train_baseline(va, sim.y, vb, LOGIT, cfg)
        assert sess.diverged
        assert sess.stop_reason == "Divergence"
        assert np.all(np.isfinite(sess.beta_a)) and np.all(np.isfinite(sess.beta_b))


@pytest.mark.parametrize("algorithm", ["fedsgd", "fedbcd"])
def test_full_batch_ignores_design_layout(algorithm, kept):
    # a matvec on an F-ordered design may round differently from one on a
    # C-ordered copy; the full batch must not let the layout reach a bit
    sim, _, _ = fixture(seed=9, n=300, family=LOGIT, setting="s2", rho=0.1)
    cfg = BaselineConfig(algorithm=algorithm, step0=0.5, decay="sqrt", batch=None,
                         max_rounds=20)
    runs = []
    for order in (np.asfortranarray, np.ascontiguousarray):
        va = AgentView(design=order(sim.X_a), column_names=sim.ownership.a_names,
                       owner=Owner.A)
        vb = AgentView(design=order(sim.X_b), column_names=sim.ownership.b_names,
                       owner=Owner.B)
        assert va.design.flags.f_contiguous != va.design.flags.c_contiguous
        runs.append(train_baseline(va, sim.y, vb, LOGIT, cfg))
    f_run, c_run = runs
    f_lines, c_lines = (recorder.lines for recorder in kept)
    assert f_lines and f_lines == c_lines
    for (a1, b1), (a2, b2) in zip(f_run.history, c_run.history, strict=True):
        assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()


def test_session_memory_flat_in_rounds():
    # a session counts its lines without keeping them, so its traced peak does
    # not grow with the rounds it runs
    sim, va, vb = fixture(seed=12, n=2000, family=LOGIT, setting="s2", rho=0.1)
    peaks = []
    for rounds in (5, 50):
        cfg = BaselineConfig(algorithm="fedbcd", step0=0.1, decay="sqrt", max_rounds=rounds)
        tracemalloc.start()
        try:
            sess = train_baseline(va, sim.y, vb, LOGIT, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sess.rounds == rounds and not sess.diverged
        assert sess.transcript == ()
    assert peaks[1] <= 1.25 * peaks[0], peaks


class TestComparative:
    def test_alternating_beats_gradient_exchange(self):
        # tuned full-batch gradient exchange after 50 rounds still trails the
        # alternating protocol after 10
        sim, va, vb = fixture(seed=8, n=400, setting="s2", rho=0.1, centered=False)
        oracle = oracle_fit(sim.X, sim.y, GAUSS)

        sess = train(va, sim.y, vb, GAUSS,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=10))
        aeal_gap = (sess.loss_log[-1] - oracle.final_loss)

        cfg = BaselineConfig(algorithm="fedsgd", decay="sqrt", max_rounds=50)
        _, best = tune_step(va, sim.y, vb, GAUSS, cfg, default_step_grid(),
                            budget_rounds=50)
        sgd_gap = best.loss_log[-1] - oracle.final_loss
        assert 0 <= aeal_gap < sgd_gap


class TestTuning:
    def test_single_candidate(self):
        sim, va, vb = fixture(seed=9)
        cfg = BaselineConfig(algorithm="fedsgd", max_rounds=5)
        result, sess = tune_step(va, sim.y, vb, GAUSS, cfg, [0.07], 5)
        assert result.best_step0 == 0.07
        assert result.total_vector_sends == sess.rounds_transmitted

    def test_never_selects_zero_when_progress_possible(self):
        sim, va, vb = fixture(seed=10)
        cfg = BaselineConfig(algorithm="fedsgd", max_rounds=10)
        result, _ = tune_step(va, sim.y, vb, GAUSS, cfg, [0.0, 0.05], 10)
        assert result.best_step0 == 0.05

    def test_default_grid_shape(self):
        grid = default_step_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(5.0)
        ratios = [grid[i + 1] / grid[i] for i in range(19)]
        assert max(ratios) - min(ratios) < 1e-9  # log-spaced

    def test_tuning_bill_accounts_grid(self):
        sim, va, vb = fixture(seed=11)
        cfg = BaselineConfig(algorithm="fedsgd", max_rounds=4)
        result, _ = tune_step(va, sim.y, vb, GAUSS, cfg, [0.01, 0.1, 1.0], 4)
        assert result.total_vector_sends == 3 * 2 * 4
