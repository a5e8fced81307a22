import hashlib
import tracemalloc

import numpy as np
import pytest

from aeal import baselines
from aeal.baselines import default_step_grid, train_baseline, tune_step
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
        sess = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.0, 5)
        assert np.all(sess.beta_a == 0.0) and np.all(sess.beta_b == 0.0)
        assert len(set(round(v, 15) for v in sess.loss_log)) == 1

    def test_round_accounting(self):
        sim, va, vb = fixture()
        sess = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.05, 7)
        assert sess.rounds == 7
        assert sess.rounds_transmitted == 14  # two vector sends per round
        assert sess.bytes_transmitted > 0

    def test_transmitted_gradient_matches_loss_grad(self, kept):
        sim, va, vb = fixture(seed=1, n=60)
        sess = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.05, 3)
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
        sess = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.02, 40)
        log = sess.loss_log
        assert all(log[i + 1] <= log[i] + 1e-12 for i in range(len(log) - 1))


class TestFedBcd:
    def test_reduces_to_fedsgd(self, monkeypatch):
        sim, va, vb = fixture(seed=5)
        monkeypatch.setattr(baselines, "_Q_LOCAL", 1)
        monkeypatch.setattr(baselines, "_MU", 0.0)
        sgd = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.05, 15)
        bcd = train_baseline(va, sim.y, vb, GAUSS, "fedbcd", 0.05, 15)
        for (a1, b1), (a2, b2) in zip(sgd.history, bcd.history):
            assert np.max(np.abs(a1 - a2)) <= 1e-12
            assert np.max(np.abs(b1 - b2)) <= 1e-12

    def test_local_updates_make_progress(self, monkeypatch):
        sim, va, vb = fixture(seed=6)
        monkeypatch.setattr(baselines, "_MU", 0.0)
        monkeypatch.setattr(baselines, "_Q_LOCAL", 1)
        s1 = train_baseline(va, sim.y, vb, GAUSS, "fedbcd", 0.05, 10)
        monkeypatch.setattr(baselines, "_Q_LOCAL", 5)
        s5 = train_baseline(va, sim.y, vb, GAUSS, "fedbcd", 0.05, 10)
        assert s5.loss_log[-1] < s1.loss_log[-1]

    def test_divergence_guard(self, monkeypatch):
        sim, va, vb = fixture(seed=7, family=LOGIT)
        monkeypatch.setattr(baselines, "_Q_LOCAL", 25)
        monkeypatch.setattr(baselines, "_MU", 0.0)
        sess = train_baseline(va, sim.y, vb, LOGIT, "fedbcd", 500.0, 30)
        assert sess.diverged
        assert sess.stop_reason == "Divergence"
        assert np.all(np.isfinite(sess.beta_a)) and np.all(np.isfinite(sess.beta_b))


@pytest.mark.parametrize("algorithm", ["fedsgd", "fedbcd"])
def test_full_batch_ignores_design_layout(algorithm, kept):
    # a matvec on an F-ordered design may round differently from one on a
    # C-ordered copy; the full batch must not let the layout reach a bit
    sim, _, _ = fixture(seed=9, n=300, family=LOGIT, setting="s2", rho=0.1)
    runs = []
    for order in (np.asfortranarray, np.ascontiguousarray):
        va = AgentView(design=order(sim.X_a), column_names=sim.ownership.a_names,
                       owner=Owner.A)
        vb = AgentView(design=order(sim.X_b), column_names=sim.ownership.b_names,
                       owner=Owner.B)
        assert va.design.flags.f_contiguous != va.design.flags.c_contiguous
        runs.append(train_baseline(va, sim.y, vb, LOGIT, algorithm, 0.5, 20))
    f_run, c_run = runs
    f_lines, c_lines = (recorder.lines for recorder in kept)
    assert f_lines and f_lines == c_lines
    for (a1, b1), (a2, b2) in zip(f_run.history, c_run.history, strict=True):
        assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()


@pytest.mark.parametrize("algorithm, digest", [
    ("fedsgd", "d708df8af2ece1e72fa1ab90425dbcd0ffd4930ca059d324d7a553675b5b09e2"),
    ("fedbcd", "6eeb686f950dcca76f6fe2a03f2c25ee49645e6061e7552270fce4ca0a7b4a9b"),
])
def test_session_pinned(algorithm, digest):
    # each round's predictors serve its loss and the next round's send and
    # gradient; the iterates and the wire bill stay the same to the bit
    sim, va, vb = fixture(seed=9, n=300, family=LOGIT, setting="s2", rho=0.1)
    sess = train_baseline(va, sim.y, vb, LOGIT, algorithm, 0.5, 20)
    history = b"".join(a.tobytes() + b.tobytes() for a, b in sess.history)
    assert hashlib.sha256(history).hexdigest() == digest
    assert (sess.rounds_transmitted, sess.bytes_transmitted) == (40, 129682)
    assert sess.rounds == 20 and not sess.diverged


@pytest.mark.parametrize("algorithm, step0", [("fedavg", 0.1), ("fedsgd", -0.1)])
def test_bad_arguments_rejected(algorithm, step0):
    sim, va, vb = fixture(n=60)
    with pytest.raises(ValueError):
        train_baseline(va, sim.y, vb, GAUSS, algorithm, step0, 3)


def test_session_memory_flat_in_rounds():
    # a session counts its lines without keeping them, so its traced peak does
    # not grow with the rounds it runs
    sim, va, vb = fixture(seed=12, n=2000, family=LOGIT, setting="s2", rho=0.1)
    peaks = []
    for rounds in (5, 50):
        tracemalloc.start()
        try:
            sess = train_baseline(va, sim.y, vb, LOGIT, "fedbcd", 0.1, rounds)
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

        best = tune_step(va, sim.y, vb, GAUSS, "fedsgd", default_step_grid(),
                         budget_rounds=50)
        sgd_gap = best.loss_log[-1] - oracle.final_loss
        assert 0 <= aeal_gap < sgd_gap


def history_bytes(sess):
    return b"".join(a.tobytes() + b.tobytes() for a, b in sess.history)


class TestTuning:
    def test_single_candidate(self):
        sim, va, vb = fixture(seed=9)
        sess = tune_step(va, sim.y, vb, GAUSS, "fedsgd", [0.07], 5)
        want = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.07, 5)
        assert history_bytes(sess) == history_bytes(want)

    def test_never_selects_zero_when_progress_possible(self):
        sim, va, vb = fixture(seed=10)
        sess = tune_step(va, sim.y, vb, GAUSS, "fedsgd", [0.0, 0.05], 10)
        want = train_baseline(va, sim.y, vb, GAUSS, "fedsgd", 0.05, 10)
        assert history_bytes(sess) == history_bytes(want)

    def test_empty_grid_rejected(self):
        sim, va, vb = fixture(n=60)
        with pytest.raises(ValueError, match="empty tuning grid"):
            tune_step(va, sim.y, vb, GAUSS, "fedsgd", [], 3)

    def test_default_grid_shape(self):
        grid = default_step_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(5.0)
        ratios = [grid[i + 1] / grid[i] for i in range(19)]
        assert max(ratios) - min(ratios) < 1e-9  # log-spaced
