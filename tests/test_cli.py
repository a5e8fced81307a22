import csv
import json
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from aeal.cli import main
from aeal.data import from_arrays, write_owner_csvs


def read_output(path):
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        assert comment.startswith("# ")
        config = json.loads(comment[2:])
        rows = list(csv.DictReader(fh))
    return config, rows


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

    def test_leaves_scipy_special_unloaded(self, tmp_path):
        # importing scipy.special or scipy.stats costs tens of milliseconds of
        # start-up and megabytes of memory; the screening path needs neither
        script = ("import sys\nfrom aeal.cli import main\n"
                  "main(['power', '--reps', '1', '--settings', 's2', '--t-list', '1,5', "
                  f"'--noise-list', '0', '--n', '300', '--out', {str(tmp_path / 'p.csv')!r}])\n"
                  "assert 'scipy.special' not in sys.modules\n"
                  "assert 'scipy.stats' not in sys.modules\n")
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


class TestRobustU:
    def test_single_projection_always_matches(self, tmp_path):
        out = tmp_path / "ru.csv"
        assert main(["robust-u", "--reps", "6", "--u-count", "1", "--n", "300",
                     "--seed", "5", "--out", str(out)]) == 0
        _, rows = read_output(out)
        assert all(int(r["matches_out_of_reps"]) == 6 for r in rows)
        assert {r["scenario"] for r in rows} == {"h0", "h1"}


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


@pytest.fixture
def owner_csvs(tmp_path):
    rng = np.random.default_rng(21)
    n = 80
    ds = from_arrays(
        y=(rng.uniform(size=n) < 0.5).astype(float),
        a_columns=[("u1", rng.uniform(size=n)), ("u2", rng.uniform(size=n))],
        b_columns=[("v1", rng.uniform(size=n)), ("v2", rng.uniform(size=n))],
        ids=[f"{i:04d}" for i in range(n)],  # sorted ids align both load paths
    )
    pa, pb = tmp_path / "alice.csv", tmp_path / "bob.csv"
    write_owner_csvs(ds, pa, pb)
    return str(pa), str(pb)


def spawn_agent(args):
    return subprocess.Popen([sys.executable, "-m", "aeal.cli", "agent"] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


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

    def test_train_matches_in_process_bitwise(self, owner_csvs):
        from aeal.data import Owner, load_aligned_csv
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

        ds = load_aligned_csv(path_a, path_b, id_column="id")
        sess = train(ds.view(Owner.A), ds.y, ds.view(Owner.B), parse_family("logistic"),
                     stop=StopCriterion(offset_tol=1e-8 * np.sqrt(ds.n),
                                        coef_tol=1e-8, max_rounds=15))
        assert a["beta"] == [format_float(v) for v in sess.beta_a]
        assert b["beta"] == [format_float(v) for v in sess.beta_b]
        assert a["rounds"] == sess.rounds
        assert a["rounds_transmitted"] == sess.rounds_transmitted == b["rounds_transmitted"]
        # both transports produce the same transcript, hence equal byte counts
        assert a["bytes_transmitted"] == sess.bytes_transmitted == b["bytes_transmitted"]

    def test_version_mismatch_exits_2(self, owner_csvs):
        _, path_b = owner_csvs
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
            s.sendall(b'{"type":"Handshake","version":"aeal/0","n":80,'
                      b'"family":"logistic","lam":0}\n')
            s.recv(1)  # wait for bob to act (connection closes)
        bob.communicate(timeout=30)
        assert bob.returncode == 2

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
        assert sketch.rows_excluded  # some of B's rows lie outside the clip bound
        _, view_a, y = load_agent_csv(path_a, "id", Owner.A, response_column="y")
        lead = AgentView(design=view_a.design[:60], column_names=view_a.column_names,
                         owner=Owner.A)
        want = wald_screen(lead, y[:60], sketch, parse_family("logistic"))
        assert a["n_used"] == want.n_used == 60 - len(sketch.rows_excluded)
        assert float(a["statistic"]) == want.decision.statistic

    @pytest.mark.parametrize("bad", [
        {"rows_excluded": (-1,)},
        {"rows_excluded": (4, 4)},
        {"t": 3},
    ], ids=["negative-row", "repeated-row", "t-vs-columns"])
    def test_malformed_sketch_offer_exits_2(self, owner_csvs, bad):
        from aeal.messages import SketchOffer, encode

        path_a, _ = owner_csvs
        offer = {"projected": np.random.default_rng(5).normal(size=(39, 2)), "t": 2,
                 "noised": False, "epsilon": None, "c2": None, "rows_excluded": ()}
        with socket.create_server(("127.0.0.1", 0)) as srv:
            srv.settimeout(30)
            alice = spawn_agent(["--role", "alice", "--connect",
                                 f"127.0.0.1:{srv.getsockname()[1]}",
                                 "--data", path_a, "--mode", "screen"])
            conn, _ = srv.accept()
            with conn:
                conn.sendall((encode(SketchOffer(**offer | bad)) + "\n").encode())
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
        new_a = tmp_path / "new_a.csv"
        with open(path_a) as src, open(new_a, "w") as dst:
            for line in src:
                cells = line.rstrip("\n").split(",")
                dst.write(",".join(cells[:1] + cells[2:]) + "\n")
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
        lines = a_out.strip().split("\n")
        preds = [json.loads(l) for l in lines[1:]]
        assert len(preds) == 80
        for p in preds[:5]:
            assert float(p["lo"]) <= float(p["point"]) <= float(p["hi"])
