import base64
import csv
import dataclasses
import gc
import json
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import HANDSHAKE, write_agent_csv

from aeal import baselines, cli, errors, protocol
from aeal.cli import main
from aeal.data import AgentView, Owner, load_agent_csv
from aeal.losses import parse_family
from aeal.messages import Offset, SketchOffer, encode, format_float
from aeal.screening import lrt_screen, screen_context, wald_screen
from aeal.simulate import (SimData, SimDesign, gen_covariates, gen_response, oracle_fit,
                           simulate, spawn_rngs)
from aeal.sketch import make_sketch, mask_response
from aeal.stats import auc
from aeal.transport import SocketChannel


def read_output(path):
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        assert comment.startswith("# ")
        config = json.loads(comment[2:])
        rows = list(csv.DictReader(fh))
    return config, rows


def body(path):
    """A command's CSV less its configuration line (whose out path differs)."""
    return path.read_text().split("\n", 1)[1]


def replay(designs, cells, n, seed, reps, test="wald"):
    """The screening commands' rng stream replayed through the library: per
    (setting, hypothesis) design, one generator per replication draws the data,
    then one sketch per (t, noise) cell, all screened with one context. Yields
    each replication's decisions."""
    fam = parse_family("logistic")
    screen = lrt_screen if test == "lrt" else wald_screen
    for setting, hypothesis in designs:
        design = SimDesign(setting=setting, n=n, rho=0.1, family=fam)
        for rng in spawn_rngs(seed, reps):
            sim = simulate(design, rng, hypothesis=hypothesis)
            view_a = AgentView(design=sim.X_a, column_names=sim.ownership.a_names,
                               owner=Owner.A)
            context = screen_context(view_a, sim.y, fam)
            yield [screen(view_a, sim.y, make_sketch(sim.X_b, t, rng, noise_scale=noise),
                          fam, alpha=0.05, context=context).decision for t, noise in cells]


def replay_power(settings, cells, n, seed, reps, test="wald"):
    """The power CSV body the replay gives."""
    decisions = list(replay([(s, "h1") for s in settings], cells, n, seed, reps, test))
    lines = ["setting,n,t,noise_scale,reject_rate"]
    for i, setting in enumerate(settings):
        block = decisions[i * reps:(i + 1) * reps]
        for j, (t, noise) in enumerate(cells):
            rejects = sum(int(rep[j].reject) for rep in block)
            lines.append(f"{setting},{n},{t},{noise},{format_float(rejects / reps)}")
    return "\n".join(lines) + "\n"


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestQq:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "qq.csv"
        assert main(["qq", "--reps", "4", "--t-max", "5", "--n", "300",
                     "--seed", "9", "--out", str(out)]) == 0
        config, rows = read_output(out)
        assert len(rows) == 20
        assert config["seed"] == 9 and config["command"] == "qq"
        assert all(0.0 <= float(r["p_value"]) <= 1.0 for r in rows)

    def test_same_seed_identical_files(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["qq", "--reps", "3", "--t-max", "2", "--n", "300",
                  "--seed", "4", "--out", str(out)])
            outs.append(out.read_text().split("\n", 1)[1])  # skip config (out path differs)
        assert outs[0] == outs[1]

    def test_p_values_match_library_screens(self, tmp_path):
        out = tmp_path / "qq.csv"
        assert main(["qq", "--reps", "3", "--t-max", "3", "--n", "400", "--seed", "9",
                     "--out", str(out)]) == 0
        cells = [(t, 0.5) for t in (1, 2, 3)]
        want = ["replication,t,p_value"] + [
            f"{rep},{t},{format_float(d.p_value)}"
            for rep, decisions in enumerate(replay([("s2", "h0")], cells, 400, 9, 3))
            for (t, _), d in zip(cells, decisions)]
        assert body(out) == "\n".join(want) + "\n"


class TestPower:
    def test_rates_in_unit_interval(self, tmp_path):
        out = tmp_path / "pw.csv"
        assert main(["power", "--reps", "5", "--settings", "s1", "--t-list", "1,2",
                     "--noise-list", "0,0.5", "--n", "300", "--seed", "2",
                     "--out", str(out)]) == 0
        _, rows = read_output(out)
        assert len(rows) == 4
        assert all(0.0 <= float(r["reject_rate"]) <= 1.0 for r in rows)

    def test_noise_costs_power(self, tmp_path):
        # matched (t, n): the noised sketch cannot beat the clean one
        out = tmp_path / "pw.csv"
        assert main(["power", "--reps", "60", "--settings", "s1", "--t-list", "5",
                     "--noise-list", "0,0.5", "--n", "600", "--seed", "8",
                     "--out", str(out)]) == 0
        _, rows = read_output(out)
        rates = {float(r["noise_scale"]): float(r["reject_rate"]) for r in rows}
        assert rates[0.5] <= rates[0.0]

    def test_rates_match_library_screens(self, tmp_path):
        out = tmp_path / "pw.csv"
        assert main(["power", "--reps", "2", "--settings", "s1,s2", "--t-list", "1,3",
                     "--noise-list", "0,2", "--n", "1000", "--seed", "1",
                     "--out", str(out)]) == 0
        cells = [(t, noise) for t in (1, 3) for noise in (0.0, 2.0)]
        want = replay_power(["s1", "s2"], cells, 1000, 1, 2)
        assert body(out) == want
        rates = {line.rsplit(",", 1)[1] for line in want.splitlines()[1:]}
        assert len(rates) > 1  # the grid does not reject uniformly

    def test_lrt_rates_match_library_screens(self, tmp_path):
        out = tmp_path / "pw.csv"
        assert main(["power", "--test", "lrt", "--reps", "2", "--settings", "s1,s2",
                     "--t-list", "1,2", "--noise-list", "0,0.1", "--n", "500",
                     "--seed", "5", "--out", str(out)]) == 0
        cells = [(t, noise) for t in (1, 2) for noise in (0.0, 0.1)]
        assert body(out) == replay_power(["s1", "s2"], cells, 500, 5, 2, test="lrt")

    def test_near_collinear_sketch_completes(self, tmp_path):
        # seed 2828282983 draws an s2 replication whose clean t = 4 sketch is
        # nearly inside span(X_A) (pivoted-QR diagonal ratio 2.3e-5 of the
        # augmented design); the screen must still decide instead of exiting 3
        out = tmp_path / "pw.csv"
        assert main(["power", "--settings", "s2", "--t-list", "1,2,3,4",
                     "--noise-list", "0,0.1,0.5", "--n", "20000", "--reps", "1",
                     "--rho", "0.1", "--seed", "2828282983", "--out", str(out)]) == 0
        _, rows = read_output(out)
        assert len(rows) == 12

    def test_leaves_scipy_unloaded(self, tmp_path):
        # importing scipy costs most of the package's start-up and megabytes of
        # memory; neither the screening path nor a train session needs it
        script = ("import sys\nimport numpy as np\nfrom aeal.cli import main\n"
                  "from aeal.data import AgentView, Owner\n"
                  "from aeal.losses import parse_family\n"
                  "from aeal.protocol import train\n"
                  "from aeal.simulate import SimDesign, simulate\n"
                  "main(['power', '--reps', '1', '--settings', 's2', '--t-list', '1,5', "
                  f"'--noise-list', '0', '--n', '300', '--out', {str(tmp_path / 'p.csv')!r}])\n"
                  "fam = parse_family('logistic')\n"
                  "sim = simulate(SimDesign(setting='s2', n=300, family=fam),\n"
                  "               np.random.default_rng(1))\n"
                  "own = sim.ownership\n"
                  "train(AgentView(sim.X_a, own.a_names, Owner.A), sim.y,\n"
                  "      AgentView(sim.X_b, own.b_names, Owner.B), fam)\n"
                  "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                  "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestTrainCompare:
    def test_oracle_constant_and_methods_present(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert main(["train-compare", "--reps", "1", "--rounds", "4", "--n", "300",
                     "--eval-size", "1000", "--grid-size", "3", "--seed", "3",
                     "--out", str(out)]) == 0
        _, rows = read_output(out)
        methods = {r["method"] for r in rows}
        assert methods == {"aeal", "fedsgd", "fedbcd", "oracle"}
        oracle_vals = {r["metric"] for r in rows if r["method"] == "oracle"}
        assert len(oracle_vals) == 1
        for m in methods:
            assert [int(r["round"]) for r in rows if r["method"] == m] == list(range(5))

    @pytest.mark.parametrize("family", ["logistic", "gaussian"])
    def test_fixed_point_stop_leaves_csv_unchanged(self, tmp_path, monkeypatch, family):
        # the AEAL session stops once its coefficients repeat exactly; running
        # every round instead must write the same bytes
        argv = ["train-compare", "--setting", "s2", "--family", family, "--n", "400",
                "--rounds", "30", "--eval-size", "1000", "--grid-size", "2",
                "--reps", "2", "--seed", "8"]
        assert main(argv + ["--out", str(tmp_path / "stop.csv")]) == 0
        train, shipped_tols = protocol.train, []

        def train_all_rounds(*args, stop, **kw):
            shipped_tols.append(stop.coef_tol)
            return train(*args, stop=dataclasses.replace(stop, coef_tol=None), **kw)

        monkeypatch.setattr(protocol, "train", train_all_rounds)
        assert main(argv + ["--out", str(tmp_path / "full.csv")]) == 0
        assert shipped_tols == [0.0, 0.0]  # one session per replication
        bodies = [(tmp_path / name).read_text().split("\n", 1)[1]
                  for name in ("stop.csv", "full.csv")]
        assert bodies[0] == bodies[1]

    def test_pooled_scores_give_the_two_view_auc_every_round(self, monkeypatch):
        # the reference scores each round from the two views, X_a beta_a + X_b beta_b,
        # on the evaluation rows _metric_curves draws; s2 shares x5..x8
        fam = parse_family("logistic")
        sim = simulate(SimDesign(setting="s2", n=400, rho=0.1, family=fam),
                       np.random.default_rng(5))
        rng = np.random.default_rng(6)
        X_eval = gen_covariates(1000, 12, 0.1, rng)
        ev = SimData(X=X_eval, y=gen_response(fam, X_eval, sim.beta_true, rng),
                     beta_true=sim.beta_true, ownership=sim.ownership)
        histories = {}
        train, tune_step = protocol.train, baselines.tune_step

        def kept_train(*args, **kw):
            sess = train(*args, **kw)
            histories["aeal"] = sess.history
            return sess

        def kept_tune(*args, **kw):
            best = tune_step(*args, **kw)
            histories[args[4]] = best.history
            return best

        monkeypatch.setattr(protocol, "train", kept_train)
        monkeypatch.setattr(baselines, "tune_step", kept_tune)
        curves = cli._metric_curves(sim, fam, 12, 1000, np.random.default_rng(6),
                                    [0.05, 0.5, 2.0], rho=0.1)
        assert set(histories) == {"aeal", "fedsgd", "fedbcd"}
        for method, history in histories.items():
            assert curves[method] == [auc(ev.X_a @ ba + ev.X_b @ bb, ev.y)
                                      for ba, bb in history], method
        oracle = oracle_fit(sim.X, sim.y, fam)
        assert curves["oracle"] == [auc(ev.X @ oracle.beta, ev.y)] * 13


class TestRobustU:
    def test_single_projection_always_matches(self, tmp_path):
        out = tmp_path / "ru.csv"
        assert main(["robust-u", "--reps", "6", "--u-count", "1", "--n", "300",
                     "--seed", "5", "--out", str(out)]) == 0
        _, rows = read_output(out)
        assert all(int(r["matches_out_of_reps"]) == 6 for r in rows)
        assert {r["scenario"] for r in rows} == {"h0", "h1"}

    def test_matches_library_screens(self, tmp_path):
        out = tmp_path / "ru.csv"
        assert main(["robust-u", "--reps", "3", "--n", "500", "--seed", "3",
                     "--out", str(out)]) == 0
        want = ["scenario,noise,matches_out_of_reps"]
        for scenario in ("h0", "h1"):
            reps = replay([("s2", scenario)], [(1, 0.1)] * 6, 500, 3, 3)
            agree = sum(len({d.reject for d in decisions}) == 1 for decisions in reps)
            want.append(f"{scenario},0.1,{agree}")
        assert body(out) == "\n".join(want) + "\n"


class TestConfigFile:
    def test_json_presets_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 2, "t-max": 3, "n": 300}))
        out = tmp_path / "qq.csv"
        assert main(["--config", str(cfg), "qq", "--seed", "1", "--out", str(out)]) == 0
        config, rows = read_output(out)
        assert config["reps"] == 2 and len(rows) == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 50}))
        out = tmp_path / "qq.csv"
        assert main(["--config", str(cfg), "qq", "--reps", "2", "--t-max", "1",
                     "--n", "300", "--seed", "1", "--out", str(out)]) == 0
        _, rows = read_output(out)
        assert len(rows) == 2

    def test_misspelt_key_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rep": 3}))
        out = tmp_path / "qq.csv"
        assert main(["--config", str(cfg), "qq", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --config keys ['rep']")
        assert not out.exists()

    def test_keys_of_another_subcommand_are_allowed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 1, "t-max": 1, "n": 300, "rounds": 3,
                                   "screen-rows": 5}))
        out = tmp_path / "qq.csv"
        assert main(["--config", str(cfg), "qq", "--out", str(out)]) == 0
        assert len(read_output(out)[1]) == 1


# the exit code and standard-error prefix README gives each kind of failure
PROTOCOL_FAILURES = {errors.ProtocolError, errors.TransportFailure}
NUMERIC_FAILURES = {errors.NumericFailure, errors.SolverFailure, errors.SingularHessian,
                    errors.SingularCovarianceBlock, errors.RankDeficientAugmented,
                    errors.RankDeficientView, errors.SingularVariance, errors.OneClassOnly,
                    errors.DomainError, np.linalg.LinAlgError}
FAILURE_TYPES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.AealError)]


@pytest.mark.parametrize("cls", FAILURE_TYPES + [np.linalg.LinAlgError],
                         ids=lambda cls: cls.__name__)
def test_failure_exit_code_and_prefix(tmp_path, monkeypatch, capsys, cls):
    exc = cls.__new__(cls)
    Exception.__init__(exc, "boom")  # RankDeficientView's own arguments are not needed

    def fail(args):
        raise exc

    monkeypatch.setattr("aeal.cli.cmd_qq", fail)
    code = main(["qq", "--out", str(tmp_path / "qq.csv")])
    want, prefix = ((2, "protocol error") if cls in PROTOCOL_FAILURES else
                    (3, "numeric failure") if cls in NUMERIC_FAILURES else (1, "error"))
    assert code == want
    assert capsys.readouterr().err == f"{prefix}: boom\n"


@pytest.mark.parametrize("argv", [
    ["power", "--reps", "3", "--settings", "s1,s3", "--t-list", "1,2", "--noise-list", "0,0.5"],
    ["qq", "--reps", "3", "--t-max", "2"],
    ["robust-u", "--reps", "2", "--u-count", "2"],
    ["train-compare", "--reps", "2", "--rounds", "2", "--eval-size", "300",
     "--grid-size", "1"],
], ids=lambda argv: argv[0])
def test_a_study_holds_one_replication_at_a_time(tmp_path, monkeypatch, argv):
    drawn = []  # weak references to every design drawn so far

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in drawn), "an earlier replication is alive"
        sim = simulate(*args, **kwargs)
        drawn.append(weakref.ref(sim.X))
        return sim

    monkeypatch.setattr(cli, "simulate", tracked)
    assert main(argv + ["--n", "200", "--seed", "4", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(drawn) >= 2


def test_power_peak_memory_is_one_replication_and_one_screen(tmp_path):
    n = 20_000
    argv = ["power", "--settings", "s3", "--t-list", "5", "--noise-list", "0.5",
            "--reps", "2", "--out", str(tmp_path / "power.csv")]
    assert main(argv + ["--n", "200"]) == 0  # imports and lazy state before tracing
    tracemalloc.start()
    try:
        assert main(argv + ["--n", str(n)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in n-vectors of float64: the one live pooled design (12) and y, the sketch
    # (5), the augmented design (10 + 5) and the Newton and sandwich temporaries
    # of the augmented fit, about 42 in all; copies of A's and B's blocks beside
    # the pooled design (20 more) cross the bound
    assert peak <= 52 * 8 * n


SMALL = ["--n", "200", "--reps", "1"]
# flags that must end in an input error with no CSV written; a negative or NaN
# noise scale would otherwise screen a clean sketch under its name
BAD_FLAGS = {
    "qq-reps-0": ["qq", "--n", "200", "--reps", "0"],
    "power-reps-0": ["power", "--settings", "s1", "--t-list", "1", "--noise-list", "0",
                     "--n", "200", "--reps", "0"],
    "robust-u-reps-negative": ["robust-u", "--n", "200", "--reps", "-1"],
    "train-compare-reps-negative": ["train-compare", "--n", "200", "--reps", "-1"],
    "qq-n-0": ["qq", "--n", "0", "--reps", "1"],
    "power-negative-noise": ["power", "--settings", "s1", "--t-list", "1",
                             "--noise-list=-0.5,0"] + SMALL,
    "qq-nan-laplace-scale": ["qq", "--t-max", "1", "--laplace-scale", "nan"] + SMALL,
    "power-unknown-setting": ["power", "--settings", "s1,s9", "--t-list", "1",
                              "--noise-list", "0"] + SMALL,
    "qq-unknown-family": ["qq", "--family", "student-t"] + SMALL,
    "robust-u-bad-logcosh": ["robust-u", "--family", "logcosh:wide"] + SMALL,
    "train-compare-grid-size-0": ["train-compare", "--grid-size", "0"] + SMALL,
    "train-compare-rounds-negative": ["train-compare", "--rounds", "-1"] + SMALL,
    # train-compare screens nothing, so it takes no screen flag
    "train-compare-alpha": ["train-compare", "--alpha", "2"] + SMALL,
    "train-compare-test": ["train-compare", "--test", "lrt"] + SMALL,
    "agent-unknown-family": ["agent", "--role", "bob", "--connect", "127.0.0.1:1",
                             "--data", "absent.csv", "--family", "student-t"],
    "agent-screen-rows-negative": ["agent", "--role", "bob", "--connect", "127.0.0.1:1",
                                   "--data", "absent.csv", "--screen-rows", "-1"],
    "power-t-list-not-an-int": ["power", "--settings", "s1", "--t-list", "1,x",
                                "--noise-list", "0"] + SMALL,
    "power-noise-list-not-a-number": ["power", "--settings", "s1", "--t-list", "1",
                                      "--noise-list", "0,y"] + SMALL,
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=list(BAD_FLAGS))
def test_bad_flag_is_an_input_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    argv = argv if argv[0] == "agent" else argv + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


# an empty or impossible screen grid: refused before any replication is drawn
EMPTY_GRIDS = {
    "qq-t-max-0": ["qq", "--t-max", "0"] + SMALL,
    "robust-u-u-count-0": ["robust-u", "--u-count", "0"] + SMALL,
    "power-t-list-0": ["power", "--settings", "s1", "--t-list", "0",
                       "--noise-list", "0"] + SMALL,
}


@pytest.mark.parametrize("argv", EMPTY_GRIDS.values(), ids=list(EMPTY_GRIDS))
def test_empty_screen_grid_fails_before_any_data(tmp_path, monkeypatch, capsys, argv):
    def no_data(*args, **kwargs):
        raise AssertionError("a replication was drawn")

    monkeypatch.setattr("aeal.cli.simulate", no_data)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


# a significance level outside (0, 1): refused before any replication is drawn
BAD_ALPHAS = {
    "power-alpha-2": ["power", "--settings", "s1", "--t-list", "1", "--noise-list", "0",
                      "--alpha", "2"] + SMALL,
    "qq-alpha-0": ["qq", "--t-max", "1", "--alpha", "0"] + SMALL,
    "robust-u-alpha-nan": ["robust-u", "--alpha", "nan"] + SMALL,
}


@pytest.mark.parametrize("argv", BAD_ALPHAS.values(), ids=list(BAD_ALPHAS))
def test_alpha_outside_the_unit_interval_fails_before_any_data(tmp_path, monkeypatch,
                                                               capsys, argv):
    def no_data(*args, **kwargs):
        raise AssertionError("a replication was drawn")

    monkeypatch.setattr("aeal.cli.simulate", no_data)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha must lie strictly in (0, 1)"), err
    assert err.count("\n") == 1
    assert not out.exists()


COUNTS = "--screen-rows and --max-rounds must be at least 0 and --t at least 1"

# agent flags outside their range, and what the error names: each is refused
# before the agent reads its file or connects
BAD_AGENT_RANGES = {
    "alpha-2": (["--alpha", "2"], "--alpha must lie strictly in (0, 1)"),
    "alpha-nan": (["--alpha", "nan"], "--alpha must lie strictly in (0, 1)"),
    "ridge-negative": (["--ridge", "-1"], "--ridge must be finite and nonnegative"),
    "ridge-nan": (["--ridge", "nan"], "--ridge must be finite and nonnegative"),
    "mask-flip-0.7": (["--mask-flip", "0.7"], "flip probability must lie strictly in (0, 0.5)"),
    "mask-flip-0": (["--mask-flip", "0"], "flip probability must lie strictly in (0, 0.5)"),
    "t-0": (["--t", "0"], COUNTS),
    "max-rounds-negative": (["--max-rounds", "-1"], COUNTS),
    "laplace-scale-negative": (["--laplace-scale", "-1"], "noise scale must be finite"),
    "laplace-scale-nan": (["--laplace-scale", "nan"], "noise scale must be finite"),
    "epsilon-0": (["--epsilon", "0", "--clip-bound", "1"], "epsilon must be finite"),
    "epsilon-nan": (["--epsilon", "nan", "--clip-bound", "1"], "epsilon must be finite"),
    "epsilon-without-clip-bound": (["--epsilon", "5"], "an epsilon release needs a clip bound"),
    "epsilon-beside-laplace-scale": (["--laplace-scale", "100", "--epsilon", "5",
                                      "--clip-bound", "1"],
                                     "pass a noise scale or an epsilon, not both"),
    "clip-bound-negative": (["--clip-bound", "-1"], "clip bound must be finite and positive"),
    "clip-bound-nan": (["--clip-bound", "nan"], "clip bound must be finite and positive"),
}


@pytest.mark.parametrize("mode", ["screen", "train"])
@pytest.mark.parametrize("flags, reason", BAD_AGENT_RANGES.values(), ids=list(BAD_AGENT_RANGES))
def test_agent_range_flag_fails_before_any_work(monkeypatch, capsys, flags, reason, mode):
    def no_work(*args, **kwargs):
        raise AssertionError("the agent read its file or connected")

    monkeypatch.setattr("aeal.cli.load_agent_csv", no_work)
    monkeypatch.setattr("aeal.cli._agent_channel", no_work)
    code = main(["agent", "--role", "alice", "--connect", "127.0.0.1:1", "--data", "a.csv",
                 "--mode", mode] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1, err


def test_bob_refuses_range_flags_before_any_work(monkeypatch, capsys):
    # the checks do not depend on the role: Bob refuses the same flags
    def no_work(*args, **kwargs):
        raise AssertionError("the agent read its file or connected")

    monkeypatch.setattr("aeal.cli.load_agent_csv", no_work)
    monkeypatch.setattr("aeal.cli._agent_channel", no_work)
    for flags, reason in BAD_AGENT_RANGES.values():
        code = main(["agent", "--role", "bob", "--listen", "127.0.0.1:1", "--data", "b.csv"]
                    + flags)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {reason}"), (flags, err)


def config_file(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


# usage mistakes argparse itself detects, and --config files it cannot use
USAGE_MISTAKES = {
    "agent-unknown-flag": lambda tmp: ["agent", "--role", "bob", "--data", "x.csv",
                                       "--bogus"],
    "power-reps-not-an-int": lambda tmp: ["power", "--reps", "x", "--out", "f"],
    "config-missing": lambda tmp: ["--config", str(tmp / "absent.json"), "qq",
                                   "--out", "f"],
    "config-not-json": lambda tmp: ["--config", config_file(tmp, "{bad"), "qq",
                                    "--out", "f"],
    "config-not-an-object": lambda tmp: ["--config", config_file(tmp, "[1, 2]"), "qq",
                                         "--out", "f"],
    "config-without-a-path": lambda tmp: ["qq", "--out", "f", "--config"],
}


@pytest.mark.parametrize("argv", USAGE_MISTAKES.values(), ids=list(USAGE_MISTAKES))
def test_usage_mistake_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv", [["--help"], ["qq", "--help"], ["agent", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aeal")


@pytest.fixture
def owner_csvs(tmp_path):
    rng = np.random.default_rng(21)
    n = 80
    ids = [f"{i:04d}" for i in range(n)]
    y = (rng.uniform(size=n) < 0.5).astype(float)
    a_columns = [("u1", rng.uniform(size=n)), ("u2", rng.uniform(size=n))]
    b_columns = [("v1", rng.uniform(size=n)), ("v2", rng.uniform(size=n))]
    return (write_agent_csv(tmp_path / "alice.csv", ids, a_columns, y=y),
            write_agent_csv(tmp_path / "bob.csv", ids, b_columns))


def rewrite_rows(path, out, edit):
    """Copy an agent file line by line through edit(line_number, cells)."""
    with open(path) as src, open(out, "w") as dst:
        for i, line in enumerate(src):
            cells = edit(i, line.rstrip("\n").split(","))
            if cells is not None:
                dst.write(",".join(cells) + "\n")
    return str(out)


def covariates_only(path_a, out, rows=None):
    """Alice's file less its response column (a predict file), and only its
    first `rows` rows when given."""
    return rewrite_rows(path_a, out, lambda i, cells: (
        cells[:1] + cells[2:] if rows is None or i <= rows else None))


def with_foreign_id(path, out):
    """A copy of an agent file as long as the original whose first row
    carries an id that no other file holds."""
    return rewrite_rows(path, out, lambda i, cells: ["foreign"] + cells[1:] if i == 1 else cells)


def digest_of(path):
    """The id digest a peer pairing with this file sends, as a JSON literal."""
    return json.dumps(load_agent_csv(path, "id", Owner.A)[1].id_digest)


def spawn_agent(args):
    return subprocess.Popen([sys.executable, "-m", "aeal.cli", "agent"] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def send_to_training_bob(path_b, data):
    """Start Bob in train mode, send him raw bytes as his peer, and return his
    exit code and standard error."""
    port = free_port()
    bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                       "--data", path_b, "--mode", "train"])
    deadline = time.time() + 10
    while True:
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=5)
            break
        except OSError:
            if time.time() > deadline:
                raise
            time.sleep(0.1)
    with s:
        s.sendall(data)
        s.recv(1)  # wait for bob to act (connection closes)
    _, err = bob.communicate(timeout=30)
    return bob.returncode, err


def wait_listening(port, timeout=10.0):
    # NB: probing with a connection would consume the single accept; the
    # client side retries instead, so tests just pause briefly
    time.sleep(0.3)


class TestAgent:
    def test_screen_over_loopback(self, owner_csvs):
        path_a, path_b = owner_csvs
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "screen", "--t", "2",
                           "--seed", "3"])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "screen"])
        a_out, a_err = alice.communicate(timeout=60)
        b_out, b_err = bob.communicate(timeout=60)
        assert alice.returncode == 0, a_err
        assert bob.returncode == 0, b_err
        a = json.loads(a_out)
        b = json.loads(b_out)
        assert a["df"] == 2
        assert a["p_value"] == b["p_value"]
        # the screen explains itself: rows, identified rank, overlap, Newton steps
        assert (a["n_used"], a["identified_rank"], a["degenerate"]) == (80, 4, False)
        assert a["iterations"] > 0

    def test_train_matches_in_process_bitwise(self, owner_csvs):
        from aeal.losses import parse_family
        from aeal.messages import format_float
        from aeal.protocol import StopCriterion, train

        path_a, path_b = owner_csvs
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "train"])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "train",
                             "--max-rounds", "15"])
        a_out, a_err = alice.communicate(timeout=120)
        b_out, _ = bob.communicate(timeout=120)
        assert alice.returncode == 0, a_err
        a = json.loads(a_out)
        b = json.loads(b_out)

        _, view_a, y = load_agent_csv(path_a, "id", Owner.A, response_column="y")
        _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
        sess = train(view_a, y, view_b, parse_family("logistic"),
                     stop=StopCriterion(offset_tol=1e-8 * np.sqrt(view_a.n),
                                        coef_tol=1e-8, max_rounds=15))
        assert a["beta"] == [format_float(v) for v in sess.beta_a]
        assert b["beta"] == [format_float(v) for v in sess.beta_b]
        assert a["rounds"] == sess.rounds
        assert a["rounds_transmitted"] == sess.rounds_transmitted == b["rounds_transmitted"]
        # both transports produce the same transcript, hence equal byte counts
        assert a["bytes_transmitted"] == sess.bytes_transmitted == b["bytes_transmitted"]

    def test_version_mismatch_exits_2(self, owner_csvs):
        from aeal.messages import Handshake, encode
        _, path_b = owner_csvs
        _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
        line = encode(Handshake(version="aeal/0", n=80, family="logistic", lam=0.0,
                                id_digest=view_b.id_digest))
        code, err = send_to_training_bob(path_b, line.encode() + b"\n")
        assert code == 2
        assert "protocol version mismatch" in err

    @pytest.mark.parametrize("line", [
        '{"type":[1]}',
        HANDSHAKE % ("80", "9" * 400, "null"),
        HANDSHAKE % ("9" * 5000, "0", "null"),
        HANDSHAKE % ("80", "1e400", "null"),
    ], ids=["type-list", "lam-400-digits", "n-5000-digits", "lam-1e400"])
    def test_undecodable_handshake_exits_2(self, owner_csvs, line):
        _, path_b = owner_csvs
        code, err = send_to_training_bob(path_b, line.encode() + b"\n")
        assert code == 2, err
        assert "protocol error" in err

    def test_screen_on_row_subset(self, owner_csvs):
        path_a, path_b = owner_csvs
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "screen", "--t", "2",
                           "--seed", "3", "--screen-rows", "60"])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "screen"])
        a_out, a_err = alice.communicate(timeout=60)
        bob.communicate(timeout=60)
        assert alice.returncode == 0, a_err
        assert json.loads(a_out)["n_used"] == 60

    def test_screen_clipped_epsilon_sketch_matches_library(self, owner_csvs):
        from aeal.data import AgentView, Owner, load_agent_csv
        from aeal.losses import parse_family
        from aeal.screening import wald_screen
        from aeal.sketch import make_sketch

        path_a, path_b = owner_csvs
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "screen", "--t", "2",
                           "--seed", "3", "--screen-rows", "60", "--epsilon", "5",
                           "--clip-bound", "1.0"])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "screen"])
        a_out, a_err = alice.communicate(timeout=60)
        bob.communicate(timeout=60)
        assert alice.returncode == 0, a_err
        a = json.loads(a_out)

        _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
        sketch = make_sketch(view_b.design[:60], 2, np.random.default_rng(3),
                             epsilon=5.0, c2=1.0)
        # the bound scales some of B's rows, and none is dropped
        assert np.any(np.linalg.norm(view_b.design[:60], axis=1) > 1.0)
        _, view_a, y = load_agent_csv(path_a, "id", Owner.A, response_column="y")
        lead = AgentView(design=view_a.design[:60], column_names=view_a.column_names,
                         owner=Owner.A)
        want = wald_screen(lead, y[:60], sketch, parse_family("logistic"))
        assert a["n_used"] == want.n_used == 60
        assert float(a["statistic"]) == want.decision.statistic

    # an offer with a rows_excluded field is refused too
    @pytest.mark.parametrize("bad", [
        {"rows_excluded": [-1]},
        {"rows_excluded": [4, 4]},
        {"t": 3},
        {"projected": {"shape": [39, 0], "data": ""}, "t": 0},
    ], ids=["negative-row", "repeated-row", "t-vs-columns", "zero-columns"])
    def test_malformed_sketch_offer_exits_2(self, owner_csvs, bad):
        from aeal.messages import SketchOffer, encode

        path_a, _ = owner_csvs
        # SketchOffer refuses to build these, so the peer writes the raw line
        # after a handshake that passes Alice's check
        echo = HANDSHAKE % ("80", "0", digest_of(path_a))
        offer = json.loads(encode(SketchOffer(
            projected=np.random.default_rng(5).normal(size=(39, 2)), t=2)))
        with socket.create_server(("127.0.0.1", 0)) as srv:
            srv.settimeout(30)
            alice = spawn_agent(["--role", "alice", "--connect",
                                 f"127.0.0.1:{srv.getsockname()[1]}",
                                 "--data", path_a, "--mode", "screen"])
            conn, _ = srv.accept()
            with conn:
                conn.sendall((echo + "\n" + json.dumps(offer | bad) + "\n").encode())
                _, a_err = alice.communicate(timeout=60)
        assert alice.returncode == 2, a_err
        assert "protocol error" in a_err

    def test_no_message_type_carries_projection_matrix(self):
        # the schema itself guarantees the projection matrix cannot leave B
        from aeal.messages import _SCHEMAS
        for name, schema in _SCHEMAS.items():
            assert "u" not in {f.lower() for f in schema}
            assert "projection" not in " ".join(schema).lower()

    def test_predict_mode(self, owner_csvs, tmp_path):
        path_a, path_b = owner_csvs
        # prediction inputs carry covariates only (no response column)
        new_a = covariates_only(path_a, tmp_path / "new_a.csv")
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "predict",
                           "--predict-data", path_b])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "predict",
                             "--max-rounds", "10", "--predict-data", str(new_a)])
        a_out, a_err = alice.communicate(timeout=120)
        bob.communicate(timeout=120)
        assert alice.returncode == 0, a_err
        preds = [p for p in map(json.loads, a_out.splitlines()) if "row" in p]
        assert len(preds) == 80
        for p in preds[:5]:
            assert float(p["lo"]) <= float(p["point"]) <= float(p["hi"])

    def predict_with_recorded_alice(self, owner_csvs, tmp_path, monkeypatch, capsys,
                                    alice_flags=()):
        """Bob in his own process, Alice in this one with a Recorder in place of
        her Tally; returns Alice's output lines, her recorder and Bob's output."""
        from aeal.transport import Recorder

        path_a, path_b = owner_csvs
        new_a = covariates_only(path_a, tmp_path / "new_a.csv")
        recorders = []

        def recorder():
            recorders.append(Recorder())
            return recorders[-1]

        monkeypatch.setattr("aeal.cli.Tally", recorder)
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "predict", "--predict-data", path_b])
        wait_listening(port)
        try:
            code = main(["agent", "--role", "alice", "--connect", f"127.0.0.1:{port}",
                         "--data", path_a, "--mode", "predict", "--max-rounds", "10",
                         "--predict-data", str(new_a), *alice_flags])
        finally:
            b_out, b_err = bob.communicate(timeout=120)
        out, err = capsys.readouterr()
        assert code == 0, err
        assert bob.returncode == 0, b_err
        (rec,) = recorders
        return [json.loads(l) for l in out.splitlines()], rec, b_out

    def library_predict(self, owner_csvs, tmp_path, flip_prob=None, unmask=False):
        """The in-process session and prediction the agent pair should print; with
        flip_prob, Alice trains on labels masked as the agent masks them at --seed 5."""
        path_a, path_b = owner_csvs
        fam = parse_family("logistic")
        _, view_a, y = load_agent_csv(path_a, "id", Owner.A, response_column="y")
        _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
        _, predict_a, _ = load_agent_csv(tmp_path / "new_a.csv", "id", Owner.A)
        stop = dataclasses.replace(protocol.StopCriterion.default(view_a.n), max_rounds=10)
        if flip_prob is not None:
            y = mask_response(y, flip_prob, np.random.default_rng(5))
        sess = protocol.train(view_a, y, view_b, fam, stop=stop)
        return protocol.predict(predict_a.design, view_b.design, sess, fam,
                                flip_prob=flip_prob if unmask else None)

    def assert_rows_equal(self, lines, pred):
        rows = [line for line in lines if "row" in line]
        assert [r["row"] for r in rows] == list(range(80))
        for fld in ("nu", "point", "lo", "hi"):
            assert [r[fld] for r in rows] == [format_float(v) for v in getattr(pred, fld)]

    def test_predict_rows_equal_library_predict_bitwise(self, owner_csvs, tmp_path,
                                                         monkeypatch, capsys):
        lines, rec, _ = self.predict_with_recorded_alice(owner_csvs, tmp_path,
                                                         monkeypatch, capsys)
        self.assert_rows_equal(lines, self.library_predict(owner_csvs, tmp_path))

        # Bob's predict phase is one line, whatever the row count: after his
        # echo of the predict handshake he sends one contribution and stops
        bob_lines = [line for sender, line in rec.lines if sender == "B"]
        last_handshake = max(i for i, line in enumerate(bob_lines) if "Handshake" in line)
        after = bob_lines[last_handshake + 1:]
        assert len(after) == 1 and after[0].startswith('{"type":"PredictContribution"')

    def test_masked_predict_rows_are_unmasked(self, owner_csvs, tmp_path, monkeypatch,
                                              capsys):
        # Alice trained on labels flipped with probability 0.1: her rows are
        # the library's unmasked prediction, not the flipped label's probability
        lines, _, _ = self.predict_with_recorded_alice(
            owner_csvs, tmp_path, monkeypatch, capsys,
            alice_flags=["--mask-flip", "0.1", "--seed", "5"])
        pred = self.library_predict(owner_csvs, tmp_path, flip_prob=0.1, unmask=True)
        self.assert_rows_equal(lines, pred)
        flipped = self.library_predict(owner_csvs, tmp_path, flip_prob=0.1)
        assert not np.array_equal(pred.point, flipped.point)

    def test_predict_totals_count_the_whole_session(self, owner_csvs, tmp_path,
                                                    monkeypatch, capsys):
        # the training line counts the training phase; each agent's last line
        # counts every line it sent and received, the predict phase included
        lines, rec, b_out = self.predict_with_recorded_alice(owner_csvs, tmp_path,
                                                             monkeypatch, capsys)
        offsets = sum(line.startswith('{"type":"Offset"') for _, line in rec.lines)
        totals = {"role": "alice", "mode": "predict", "rounds_transmitted": offsets,
                  "bytes_transmitted": sum(len(line) + 1 for _, line in rec.lines)}
        assert lines[-1] == totals
        assert lines[0]["bytes_transmitted"] < totals["bytes_transmitted"]
        bob_lines = [json.loads(l) for l in b_out.splitlines()]
        assert len(bob_lines) == 2
        assert bob_lines[-1] == totals | {"role": "bob"}

    def run_predict_pair(self, path_a, path_b, predict_a, predict_b):
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", path_b, "--mode", "predict",
                           "--predict-data", str(predict_b)])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", "predict",
                             "--max-rounds", "10", "--predict-data", str(predict_a)])
        a_out, a_err = alice.communicate(timeout=120)
        _, b_err = bob.communicate(timeout=120)
        return alice.returncode, a_out, a_err, bob.returncode, b_err

    def test_predict_file_with_a_foreign_column_exits_1(self, owner_csvs):
        # Alice's training CSV still carries y, a column her training view lacks
        path_a, path_b = owner_csvs
        a_code, a_out, a_err, b_code, _ = self.run_predict_pair(path_a, path_b, path_a, path_b)
        assert a_code == 1, a_err
        assert a_err.startswith("error:") and "Traceback" not in a_err
        assert len(a_out.strip().split("\n")) == 1  # the training line, no prediction
        assert b_code == 2

    def test_predict_row_counts_differ_exits_2(self, owner_csvs, tmp_path):
        path_a, path_b = owner_csvs
        new_a = covariates_only(path_a, tmp_path / "new_a.csv", rows=20)  # of Bob's 80
        a_code, a_out, a_err, b_code, b_err = self.run_predict_pair(path_a, path_b, new_a,
                                                                    path_b)
        assert a_code == 2 and "row count" in a_err, a_err
        assert b_code == 2 and "row count" in b_err, b_err
        assert len(a_out.strip().split("\n")) == 1

    def test_predict_row_ids_differ_exits_2(self, owner_csvs, tmp_path):
        # the training files match; Bob's predict file is as long as Alice's
        # but one of its ids is not hers
        path_a, path_b = owner_csvs
        new_a = covariates_only(path_a, tmp_path / "new_a.csv")
        new_b = with_foreign_id(path_b, tmp_path / "new_b.csv")
        a_code, a_out, a_err, b_code, b_err = self.run_predict_pair(path_a, path_b, new_a,
                                                                    new_b)
        for code, err in ((a_code, a_err), (b_code, b_err)):
            assert code == 2 and err.startswith("protocol error:"), err
            assert "row ids differ" in err
        assert len(a_out.strip().split("\n")) == 1  # the training line, no prediction

    @pytest.mark.parametrize("mode", ["screen", "train"])
    def test_row_ids_differ_exits_2(self, owner_csvs, tmp_path, mode):
        # as many rows on both sides, but one of Bob's ids is not Alice's
        path_a, path_b = owner_csvs
        foreign = with_foreign_id(path_b, tmp_path / "foreign.csv")
        port = free_port()
        bob = spawn_agent(["--role", "bob", "--listen", f"127.0.0.1:{port}",
                           "--data", foreign, "--mode", mode])
        wait_listening(port)
        alice = spawn_agent(["--role", "alice", "--connect", f"127.0.0.1:{port}",
                             "--data", path_a, "--mode", mode])
        a_out, a_err = alice.communicate(timeout=60)
        b_out, b_err = bob.communicate(timeout=60)
        for agent, out, err in ((alice, a_out, a_err), (bob, b_out, b_err)):
            assert agent.returncode == 2 and err.startswith("protocol error:"), err
            assert "row ids differ" in err
            assert out == ""  # no result

    def test_predict_without_predict_data_fails_before_connecting(self, owner_csvs):
        path_a, _ = owner_csvs
        with socket.create_server(("127.0.0.1", 0)) as srv:
            alice = spawn_agent(["--role", "alice", "--connect",
                                 f"127.0.0.1:{srv.getsockname()[1]}",
                                 "--data", path_a, "--mode", "predict"])
            try:
                _, a_err = alice.communicate(timeout=30)
            finally:
                alice.kill()
            srv.setblocking(False)
            with pytest.raises(BlockingIOError):  # no connection is waiting
                srv.accept()
        assert alice.returncode == 1
        assert a_err.startswith("error:") and "--predict-data" in a_err
        assert "Traceback" not in a_err

    @pytest.mark.parametrize("row, where", [
        ("0001,np.float64(0.3),0.5", "line 3, column 'v1'"),
        ("0001,nan,0.5", "line 3, column 'v1'"),
        ("0001,0.5", "line 3: 2 cells"),
    ], ids=["non-numeric", "nan", "short-row"])
    def test_bad_csv_row_is_an_input_error(self, tmp_path, monkeypatch, capsys, row, where):
        path = tmp_path / "bob.csv"
        path.write_text(f"id,v1,v2\n0000,0.1,0.2\n{row}\n0002,0.3,0.9\n")

        def no_connection(args, tally):
            raise AssertionError("the agent connected with a bad file")

        monkeypatch.setattr("aeal.cli._agent_channel", no_connection)
        code = main(["agent", "--role", "bob", "--connect", "127.0.0.1:1",
                     "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}, {where}")

    @pytest.mark.parametrize("endpoints", [[], ["--listen", "127.0.0.1:0",
                                                "--connect", "127.0.0.1:1"]],
                             ids=["neither", "both"])
    def test_endpoint_usage_mistake_is_not_a_protocol_error(self, owner_csvs, endpoints):
        path_a, _ = owner_csvs
        alice = spawn_agent(["--role", "alice", "--data", path_a] + endpoints)
        try:
            _, a_err = alice.communicate(timeout=30)
        finally:
            alice.kill()
        assert alice.returncode == 1
        assert a_err.startswith("error:") and "--listen or --connect" in a_err
        assert "Traceback" not in a_err


def test_masked_predict_needs_the_logistic_family(owner_csvs, capsys):
    # a gaussian point can lie outside [0, 1], where no flip bias can be undone
    path_a, _ = owner_csvs
    code = main(["agent", "--role", "alice", "--connect", "127.0.0.1:1", "--data", path_a,
                 "--family", "gaussian", "--mode", "predict", "--predict-data", path_a,
                 "--mask-flip", "0.1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --mask-flip predictions")


@pytest.mark.parametrize("mode", ["screen", "train"])
def test_masking_needs_the_logistic_family_in_every_mode(owner_csvs, capsys, mode):
    # refused before connecting: nothing listens on port 1
    path_a, _ = owner_csvs
    code = main(["agent", "--role", "alice", "--connect", "127.0.0.1:1", "--data", path_a,
                 "--family", "gaussian", "--mode", mode, "--mask-flip", "0.1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --mask-flip") and "logistic family" in err, err


def run_agent_with_peer(monkeypatch, capsys, argv, peer):
    """Run ``aeal agent`` in this process over one end of a socket pair while
    peer(sock) plays the other agent on the other end; returns the exit code,
    standard output and standard error."""
    ours, theirs = socket.socketpair()
    ours.settimeout(30)
    theirs.settimeout(30)
    monkeypatch.setattr("aeal.cli._agent_channel",
                        lambda args, tally: SocketChannel(ours, recorder=tally))
    worker = threading.Thread(target=peer, args=(theirs,), daemon=True)
    worker.start()
    try:
        code = main(["agent", "--connect", "127.0.0.1:1"] + argv)
    finally:
        ours.close()
        worker.join(timeout=60)
        theirs.close()
    out, err = capsys.readouterr()
    return code, out, err


def contribution_line(nu, sigma):
    """A raw PredictContribution line, which may break the class's rules."""
    def b64(values):
        return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")
    return '{"type":"PredictContribution","nu":"%s","sigma":"%s"}' % (b64(nu), b64(sigma))


# what the peer sends in place of an honest contribution for Alice's 80 rows
# (None: it closes the connection), and the reason Alice must give
BAD_CONTRIBUTIONS = {
    "negative-sigma": (contribution_line(np.zeros(80), np.r_[np.ones(79), -1.0]),
                       "malformed PredictContribution: sigma must be nonnegative"),
    "length-mismatch": (contribution_line(np.zeros(80), np.ones(79)),
                        "malformed PredictContribution: nu and sigma differ in length"),
    "fewer-rows": (contribution_line(np.zeros(79), np.ones(79)), "row count differs"),
    "nan-payload": (contribution_line(np.r_[np.nan, np.zeros(79)], np.ones(80)),
                    "field 'nu': expected finite numbers"),
    "stop": ('{"type":"Stop","reason":"MaxRounds"}', "expected a prediction contribution"),
    "closed": (None, "connection closed by peer"),
}


def drain(sock):
    """Read until the agent closes its end."""
    while sock.recv(65536):
        pass


class TestPeerBreaksMessageRules:
    """A value that decodes but breaks its message's rules ends the agent with a
    protocol error, exit 2."""

    def test_negative_ridge_in_handshake(self, owner_csvs, monkeypatch, capsys):
        _, path_b = owner_csvs

        def peer(sock):
            sock.sendall((HANDSHAKE % ("80", "-1.0", "null") + "\n").encode())
            drain(sock)

        code, _, err = run_agent_with_peer(monkeypatch, capsys, [
            "--role", "bob", "--data", path_b, "--mode", "train"], peer)
        assert code == 2, err
        assert err.startswith("protocol error: malformed Handshake")

    def test_response_outside_the_family_support(self, owner_csvs, monkeypatch, capsys):
        from aeal.messages import Offset, ResponseShare, encode
        _, path_b = owner_csvs

        def peer(sock):
            lines = [HANDSHAKE % ("80", "0", digest_of(path_b)),
                     encode(ResponseShare(y=np.full(80, 2.0))),
                     encode(Offset(round=0, vector=np.zeros(80)))]
            sock.sendall("".join(line + "\n" for line in lines).encode())
            drain(sock)

        code, _, err = run_agent_with_peer(monkeypatch, capsys, [
            "--role", "bob", "--data", path_b, "--mode", "train"], peer)
        assert code == 2, err
        assert err.startswith("protocol error: response share")

    @pytest.mark.parametrize("case", BAD_CONTRIBUTIONS, ids=list(BAD_CONTRIBUTIONS))
    def test_bad_predict_contribution(self, owner_csvs, tmp_path, monkeypatch, capsys,
                                      case):
        line, reason = BAD_CONTRIBUTIONS[case]
        path_a, path_b = owner_csvs
        new_a = covariates_only(path_a, tmp_path / "new_a.csv")
        _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)

        def peer(sock):
            # an honest Bob through training and the predict handshake (his
            # predict file holds the ids of his training file), then one
            # contribution that breaks the rules, or none at all
            chan = SocketChannel(sock)
            protocol.run_bob(view_b, parse_family("logistic"), chan)
            protocol.run_role(protocol.open_session(chan, view_b, "logistic"))
            if line is None:
                sock.shutdown(socket.SHUT_WR)
            else:
                sock.sendall((line + "\n").encode())
            drain(sock)

        start = time.monotonic()
        code, out, err = run_agent_with_peer(monkeypatch, capsys, [
            "--role", "alice", "--data", path_a, "--mode", "predict", "--max-rounds", "5",
            "--predict-data", str(new_a)], peer)
        assert code == 2, err
        assert err.startswith("protocol error: ") and reason in err, err
        assert "Traceback" not in err
        assert time.monotonic() - start < 10.0  # no wait for a receive timeout
        # the training line only, no prediction row
        assert [json.loads(l)["mode"] for l in out.splitlines()] == ["predict"]


def screen_step_peer(role, path_a, path_b, line):
    """A peer for the screen mode that follows the protocol up to the sketch
    offer and then breaks it: as Bob it sends line where his offer belongs; as
    Alice it answers the offer with line, or closes when line is None."""
    def peer(sock):
        chan = SocketChannel(sock)
        if role == "alice":
            _, view_b, _ = load_agent_csv(path_b, "id", Owner.B)
            protocol.run_role(protocol.open_session(chan, view_b, "logistic"))
        else:
            _, view_a, _ = load_agent_csv(path_a, "id", Owner.A, response_column="y")
            protocol.run_role(protocol.open_session(chan, view_a, "logistic", 0.0))
            chan.recv()  # the agent's sketch offer
        if line is None:
            sock.shutdown(socket.SHUT_WR)
        else:
            sock.sendall((line + "\n").encode())
        drain(sock)
    return peer


def offer_line(rows):
    projected = np.random.default_rng(5).normal(size=(rows, 2))
    return encode(SketchOffer(projected=projected, t=2, noised=False, epsilon=None,
                              c2=None))


# the role under test, what its peer sends at the screen step (None: it
# closes), and the reason the agent must give
BAD_SCREEN_STEPS = {
    "alice-offset-for-offer": ("alice", encode(Offset(round=0, vector=np.zeros(80))),
                               "expected a sketch offer"),
    "alice-offer-of-81-rows": ("alice", offer_line(81), "sketch carries more rows"),
    "alice-offer-listing-dropped-rows": ("alice", offer_line(80)[:-1] + ',"rows_excluded":[3]}',
                                         "unknown fields ['rows_excluded'] in SketchOffer"),
    "bob-stop-for-result": ("bob", '{"type":"Stop","reason":"MaxRounds"}',
                            "expected a screening result"),
    "bob-impossible-result": ("bob", '{"type":"ScreenResult","statistic":-3.0,"df":-2,'
                                     '"p_value":7.5,"reject":false,"alpha":4.0}',
                              "malformed ScreenResult"),
    "bob-closed-after-offer": ("bob", None, "connection closed by peer"),
}


@pytest.mark.parametrize("case", BAD_SCREEN_STEPS, ids=list(BAD_SCREEN_STEPS))
def test_bad_screen_step_exits_2(owner_csvs, monkeypatch, capsys, case):
    role, line, reason = BAD_SCREEN_STEPS[case]
    path_a, path_b = owner_csvs
    start = time.monotonic()
    code, out, err = run_agent_with_peer(monkeypatch, capsys, [
        "--role", role, "--data", path_a if role == "alice" else path_b, "--mode", "screen"],
        screen_step_peer(role, path_a, path_b, line))
    assert code == 2, err
    assert err.startswith("protocol error: ") and reason in err, err
    assert "Traceback" not in err
    assert time.monotonic() - start < 10.0  # no wait for a receive timeout
    assert out == ""  # no result line
