"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s or --capture=tee-sys to see them live).

Fixtures reproducing the published simulation designs use the uniform(0,1)
covariate generator; the training-convergence fixtures (criteria 4, 9, 11)
use its centered variant, where the two blocks are not coupled through a
common mean direction and the alternating loop contracts fast enough for
the stated round budgets.
"""

import json
import socket
import subprocess
import sys

import numpy as np
import scipy.stats
from conftest import fixed_beta_replication, write_agent_csv

from aeal.baselines import default_step_grid, tune_step
from aeal.data import AgentView, Owner, load_agent_csv
from aeal.losses import LossFamily
from aeal.messages import format_float
from aeal.protocol import StopCriterion, predict, train
from aeal.screening import wald_screen
from aeal.simulate import (SimDesign, eta_bound, gen_covariates, map_T,
                           oracle_fit, simulate, spawn_rngs)
from aeal.sketch import make_sketch
from aeal.solver import fit_offset, sandwich_pieces
from aeal.stats import auc

SEED = 20260809
GAUSS = LossFamily("gaussian")
LOGIT = LossFamily("logistic")

SESSIONS = []  # sessions recorded for the block-stationarity criterion


def views_from(sim):
    return (AgentView(design=sim.X_a, column_names=sim.ownership.a_names, owner=Owner.A),
            AgentView(design=sim.X_b, column_names=sim.ownership.b_names, owner=Owner.B))


def report(name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def test_criterion_01_null_calibration():
    """Setting 2 logistic nulls with noised sketches stay chi-squared."""
    design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
    pvals = {t: [] for t in range(1, 6)}
    for rng in spawn_rngs(SEED, 200):
        sim = simulate(design, rng, hypothesis="h0")
        view_a, _ = views_from(sim)
        for t in range(1, 6):
            sketch = make_sketch(sim.X_b, t, rng, noise_scale=0.5)
            rep = wald_screen(view_a, sim.y, sketch, LOGIT)
            pvals[t].append(rep.decision.p_value)
    rates = {t: float(np.mean(np.asarray(p) < 0.05)) for t, p in pvals.items()}
    ks = {t: float(scipy.stats.kstest(p, "uniform").pvalue) for t, p in pvals.items()}
    ok = all(0.02 <= rates[t] <= 0.09 for t in rates) and all(ks[t] > 0.01 for t in ks)
    line = report("criterion 1 (null calibration)", ok,
                  f"rates={ {t: round(r, 3) for t, r in rates.items()} } "
                  f"ks_p={ {t: round(v, 3) for t, v in ks.items()} }")
    assert ok, line


def test_criterion_02_power_ordering():
    """Fewer shared covariates and larger sketches buy power (0.05 margins)."""
    rates = {}
    for setting in ("s1", "s3"):
        design = SimDesign(setting=setting, n=2000, rho=0.1, family=LOGIT)
        rej = {1: 0, 5: 0}
        for rng in spawn_rngs(SEED, 200):
            sim = simulate(design, rng, hypothesis="h1")
            view_a, _ = views_from(sim)
            for t in (1, 5):
                sketch = make_sketch(sim.X_b, t, rng)
                rej[t] += int(wald_screen(view_a, sim.y, sketch, LOGIT).decision.reject)
        rates[setting] = {t: r / 200 for t, r in rej.items()}
    m_settings = rates["s1"][5] - rates["s3"][5]
    m_s1 = rates["s1"][5] - rates["s1"][1]
    m_s3 = rates["s3"][5] - rates["s3"][1]
    ok = m_settings >= 0.05 and m_s1 >= 0.05 and m_s3 >= 0.05
    line = report("criterion 2 (power ordering)", ok,
                  f"rates={rates} margins: settings={m_settings:.3f} "
                  f"s1={m_s1:.3f} s3={m_s3:.3f}")
    assert ok, line


def test_criterion_03_wald_equivalence_at_full_t():
    """Sketch test with t = p_B equals the direct nested-model Wald test."""
    rng = np.random.default_rng(SEED)
    n, p_a, p_b = 600, 4, 3
    X_a = rng.normal(size=(n, p_a))
    X_b = rng.normal(size=(n, p_b))
    y = X_a @ rng.normal(size=p_a) + 0.2 * X_b.sum(axis=1) + rng.normal(size=n)
    sketch = make_sketch(X_b, p_b, rng)
    view_a = AgentView(design=X_a, column_names=tuple(f"a{j}" for j in range(p_a)),
                       owner=Owner.A)
    got = wald_screen(view_a, y, sketch, GAUSS).decision.statistic

    X_full = np.hstack([X_a, X_b])
    fit = fit_offset(X_full, y, None, GAUSS)
    V1, V2 = sandwich_pieces(X_full, y, None, GAUSS, fit.beta)
    V1_inv = np.linalg.inv(V1)
    V_b = (V1_inv @ V2 @ V1_inv)[-p_b:, -p_b:]
    b = fit.beta[-p_b:]
    want = float(n * b @ np.linalg.solve(V_b, b))
    rel = abs(got - want) / max(1.0, abs(want))
    ok = rel <= 1e-8
    line = report("criterion 3 (Wald equivalence)", ok,
                  f"sketch={got:.10f} direct={want:.10f} rel={rel:.2e}")
    assert ok, line


def test_criterion_04_oracle_convergence_with_envelope():
    """Alternating fits reach the pooled least-squares solution geometrically."""
    design = SimDesign(setting="s1", n=500, rho=0.0, family=GAUSS, centered=True)
    sim = simulate(design, np.random.default_rng(SEED), hypothesis="h1")
    va, vb = views_from(sim)
    oracle = oracle_fit(sim.X, sim.y, GAUSS)
    eta = eta_bound(sim.X, sim.y, GAUSS, oracle.beta)
    sess = train(va, sim.y, vb, GAUSS,
                 stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=60))
    SESSIONS.append(sess)
    gap = float(np.max(np.abs(map_T(sess.beta_a, sess.beta_b, sim.ownership)
                              - oracle.beta)))
    gaps = [v - oracle.final_loss for v in sess.loss_log]
    envelope_ok = all(g1 <= eta * g0 + 1e-15
                      for g0, g1 in zip(gaps, gaps[1:]) if g0 > 1e-12)
    ok = gap <= 1e-8 and envelope_ok and 0.0 < eta < 1.0
    line = report("criterion 4 (oracle convergence)", ok,
                  f"coef gap={gap:.2e} within 60 rounds, eta_hat={eta:.4f}, "
                  f"envelope={'holds' if envelope_ok else 'violated'}")
    assert ok, line


def test_criterion_05_shared_covariate_fitted_values():
    """Combined predictors converge even with a rank-deficient stacked design."""
    design = SimDesign(setting="s2", n=2000, rho=0.1, family=GAUSS)
    sim = simulate(design, np.random.default_rng(SEED + 1), hypothesis="h1")
    va, vb = views_from(sim)
    oracle = oracle_fit(sim.X, sim.y, GAUSS)
    sess = train(va, sim.y, vb, GAUSS,
                 stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=100))
    SESSIONS.append(sess)
    gap = float(np.max(np.abs(sess.nu_a + sess.nu_b - sim.X @ oracle.beta)))
    ok = gap <= 1e-6
    line = report("criterion 5 (fitted-value convergence)", ok,
                  f"sup-norm gap={gap:.2e} within 100 rounds")
    assert ok, line


def _auc_curves_one_seed(rng):
    design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
    sim = simulate(design, rng, hypothesis="h1")
    va, vb = views_from(sim)
    X_eval = gen_covariates(100_000, 12, 0.1, rng)
    nu_true = X_eval @ sim.beta_true
    y_eval = (rng.uniform(size=100_000) < 1 / (1 + np.exp(-nu_true))).astype(float)
    own = sim.ownership
    pos = {nm: j for j, nm in enumerate(own.pooled_names)}
    Xe_a = X_eval[:, [pos[nm] for nm in own.a_names]]
    Xe_b = X_eval[:, [pos[nm] for nm in own.b_names]]

    def metric(beta_a, beta_b):
        return auc(Xe_a @ beta_a + Xe_b @ beta_b, y_eval)

    oracle = oracle_fit(sim.X, sim.y, LOGIT)
    auc_oracle = auc(X_eval @ oracle.beta, y_eval)

    sess = train(va, sim.y, vb, LOGIT,
                 stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=25))
    SESSIONS.append(sess)
    aeal_curve = [metric(a, b) for a, b in sess.history]

    best = tune_step(va, sim.y, vb, LOGIT, "fedbcd", default_step_grid(), 50,
                     score_fn=lambda s: -metric(s.beta_a, s.beta_b))
    bcd_curve = [metric(a, b) for a, b in best.history]
    return auc_oracle, aeal_curve, bcd_curve


def test_criterion_06_auc_convergence_and_round_advantage():
    """Evaluation AUC reaches the pooled fit fast; gradient exchange trails."""
    diffs, aeal_sends, bcd_sends = [], [], []
    for rng in spawn_rngs(SEED + 2, 20):
        auc_oracle, aeal_curve, bcd_curve = _auc_curves_one_seed(rng)
        diffs.append(abs(aeal_curve[-1] - auc_oracle))
        k_a = next((k for k, v in enumerate(aeal_curve)
                    if abs(v - auc_oracle) <= 0.005), None)
        k_b = next((k for k, v in enumerate(bcd_curve)
                    if abs(v - auc_oracle) <= 0.005), None)
        aeal_sends.append(2 * k_a + 1 if k_a is not None else 2 * 25 + 3)
        bcd_sends.append(2 * k_b if k_b is not None else 2 * 50 + 2)
    mean_diff = float(np.mean(diffs))
    mean_aeal = float(np.mean(aeal_sends))
    mean_bcd = float(np.mean(bcd_sends))
    ok = mean_diff <= 0.002 and mean_aeal < mean_bcd
    line = report("criterion 6 (AUC convergence)", ok,
                  f"|AUC(25)-oracle| mean={mean_diff:.5f}; vector sends to within "
                  f"0.005: aeal={mean_aeal:.1f} vs fedbcd={mean_bcd:.1f}")
    assert ok, line


def test_criterion_07_laplace_scale():
    """Release noise at eps=1, t=2, c2=1 has scale 4 and variance 2 b^2."""
    rng = np.random.default_rng(SEED + 3)
    draws = make_sketch(np.zeros((500_000, 2)), 2, rng, epsilon=1.0, c2=1.0).projected
    var = float(draws.var())
    ok = 30.4 <= var <= 33.6
    line = report("criterion 7 (Laplace mechanism)", ok,
                  f"sample variance={var:.3f} over 1e6 draws (target [30.4, 33.6])")
    assert ok, line


def test_criterion_09_interval_coverage():
    """Conservative joint intervals cover the true linear predictor."""
    beta = np.full(12, 0.5)
    point_rng = np.random.default_rng(SEED + 4)
    x_point = point_rng.uniform(0, 1, 12) - 0.5
    nu_true = float(x_point @ beta)
    x_a, x_b = x_point[:6], x_point[6:]
    covered = 0
    for rng in spawn_rngs(SEED + 5, 500):
        sim = fixed_beta_replication("s1", 2000, GAUSS, beta, rng)
        va, vb = views_from(sim)
        sess = train(va, sim.y, vb, GAUSS, stop=StopCriterion(max_rounds=60))
        pred = predict(x_a, x_b, sess, GAUSS, alpha=0.05)
        covered += int(pred.lo <= nu_true <= pred.hi)
    coverage = covered / 500
    ok = coverage >= 0.93
    line = report("criterion 9 (interval coverage)", ok,
                  f"coverage={coverage:.3f} of nominal 0.95 over 500 replications")
    assert ok, line


def test_criterion_10_projection_robustness():
    """Decisions rarely flip across independent projection draws."""
    design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
    results = {}
    for scenario, t, noise, floor in (("h0", 1, 0.1, 75), ("h1", 5, 0.0, 100)):
        matches = 0
        for rng in spawn_rngs(SEED + 6, 100):
            sim = simulate(design, rng, hypothesis=scenario)
            view_a, _ = views_from(sim)
            decisions = []
            for _ in range(6):
                sketch = make_sketch(sim.X_b, t, rng, noise_scale=noise)
                decisions.append(wald_screen(view_a, sim.y, sketch,
                                             LOGIT).decision.reject)
            matches += int(all(decisions) or not any(decisions))
        results[scenario] = matches
    ok = results["h0"] >= 75 and results["h1"] == 100
    line = report("criterion 10 (projection robustness)", ok,
                  f"h0 t=1 Lap(0.1): {results['h0']}/100 (floor 75); "
                  f"h1 t=5 clean: {results['h1']}/100 (need 100)")
    assert ok, line


def test_criterion_11_ridge_bias_envelope():
    """Penalized sessions land within 1e-6 + 10*lambda of the ridge oracle."""
    design = SimDesign(setting="s1", n=500, rho=0.0, family=GAUSS, centered=True)
    sim = simulate(design, np.random.default_rng(SEED + 7), hypothesis="h1")
    va, vb = views_from(sim)
    gaps = {}
    for lam in (1e-4, 1e-2):
        sess = train(va, sim.y, vb, GAUSS, ridge=lam,
                     stop=StopCriterion(offset_tol=None, coef_tol=None, max_rounds=80))
        SESSIONS.append(sess)
        oracle = oracle_fit(sim.X, sim.y, GAUSS, ridge=lam)
        from aeal.protocol import joint_loss
        gaps[lam] = abs(joint_loss(sess, va, vb, sim.y, GAUSS) - oracle.final_loss)
    ok = all(gaps[lam] <= 1e-6 + 10 * lam for lam in gaps)
    line = report("criterion 11 (ridge bias)", ok,
                  f"gaps={ {lam: f'{g:.2e}' for lam, g in gaps.items()} } "
                  f"bounds={ {lam: f'{1e-6 + 10 * lam:.2e}' for lam in gaps} }")
    assert ok, line


def test_criterion_12_randomized_response():
    """Training on flipped labels and unmasking recovers the clean model."""
    rng = np.random.default_rng(SEED + 8)
    design = SimDesign(setting="s2", n=2000, rho=0.1, family=LOGIT)
    sim = simulate(design, rng, hypothesis="h1")
    va, vb = views_from(sim)
    stop = StopCriterion(max_rounds=60)
    clean = train(va, sim.y, vb, LOGIT, stop=stop)
    masked = train(va, sim.y, vb, LOGIT, stop=stop, mask_flip_prob=0.1, rng=rng)
    SESSIONS.extend([clean, masked])

    X_eval = gen_covariates(10_000, 12, 0.1, rng)
    own = sim.ownership
    pos = {nm: j for j, nm in enumerate(own.pooled_names)}
    Xe_a = X_eval[:, [pos[nm] for nm in own.a_names]]
    Xe_b = X_eval[:, [pos[nm] for nm in own.b_names]]
    p_clean = 1 / (1 + np.exp(-(Xe_a @ clean.beta_a + Xe_b @ clean.beta_b)))
    p_masked = 1 / (1 + np.exp(-(Xe_a @ masked.beta_a + Xe_b @ masked.beta_b)))
    p_unmasked = np.clip((p_masked - 0.1) / 0.8, 0.0, 1.0)
    mae = float(np.mean(np.abs(p_unmasked - p_clean)))
    ok = mae <= 0.03
    line = report("criterion 12 (randomized response)", ok,
                  f"mean absolute probability error={mae:.4f} at flip 0.1 (limit 0.03)")
    assert ok, line


def test_criterion_13_transport_equivalence(tmp_path):
    """Socket agents reproduce the in-process session bitwise on the wire."""
    rng = np.random.default_rng(SEED + 9)
    n = 200
    ids = [f"{i:05d}" for i in range(n)]
    y = rng.normal(size=n)
    a_columns = [("u1", rng.uniform(size=n)), ("u2", rng.uniform(size=n))]
    b_columns = [("v1", rng.uniform(size=n)), ("v2", rng.uniform(size=n)),
                 ("v3", rng.uniform(size=n))]
    path_a = write_agent_csv(tmp_path / "a.csv", ids, a_columns, y=y)
    path_b = write_agent_csv(tmp_path / "b.csv", ids, b_columns)

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    bob = subprocess.Popen([sys.executable, "-m", "aeal.cli", "agent", "--role", "bob",
                            "--listen", f"127.0.0.1:{port}", "--data", path_b,
                            "--mode", "train", "--family", "gaussian"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    alice = subprocess.Popen([sys.executable, "-m", "aeal.cli", "agent", "--role",
                              "alice", "--connect", f"127.0.0.1:{port}", "--data",
                              path_a, "--mode", "train", "--family", "gaussian",
                              "--max-rounds", "20"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    a_out, a_err = alice.communicate(timeout=120)
    b_out, b_err = bob.communicate(timeout=120)
    assert alice.returncode == 0, a_err
    assert bob.returncode == 0, b_err
    a, b = json.loads(a_out), json.loads(b_out)

    # the reference runs on the agents' own rows, row order and id digest
    _, view_a, y_a = load_agent_csv(path_a, "id", Owner.A, response_column="y")
    _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
    sess = train(view_a, y_a, view_b, GAUSS,
                 stop=StopCriterion(offset_tol=1e-8 * np.sqrt(n), coef_tol=1e-8,
                                    max_rounds=20))
    ok = (a["beta"] == [format_float(v) for v in sess.beta_a]
          and b["beta"] == [format_float(v) for v in sess.beta_b]
          and a["rounds"] == sess.rounds
          and a["rounds_transmitted"] == sess.rounds_transmitted
          and a["bytes_transmitted"] == sess.bytes_transmitted == b["bytes_transmitted"])
    line = report("criterion 13 (transport equivalence)", ok,
                  f"socket rounds={a['rounds']} in-process rounds={sess.rounds}, "
                  f"bytes={a['bytes_transmitted']}/{sess.bytes_transmitted}, "
                  f"coefficients bitwise equal={ok}")
    assert ok, line


def test_criterion_08_block_stationarity():
    """Every local update in the recorded acceptance sessions is stationary."""
    assert SESSIONS, "earlier criteria must have recorded sessions"
    worst = max(s.max_block_grad_inf for s in SESSIONS)
    ok = worst <= 1e-8
    line = report("criterion 8 (block stationarity)", ok,
                  f"worst block-gradient sup norm across {len(SESSIONS)} "
                  f"sessions={worst:.2e} (limit 1e-8)")
    assert ok, line
