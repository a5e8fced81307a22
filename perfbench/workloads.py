"""The three benchmark workloads and their output checks.

Every workload turns the run seed into a pool of ``inputs`` distinct inputs
during set-up and runs units (one session or one command invocation) on
them in turn. A session's round count, and so its wall time, varies from
input to input, so the pool is large enough that a run's units rarely
repeat an input and the median stays steady from seed to seed. All use
the logistic loss with rho = 0.1. Load is a closed loop from one process;
a session runs on at most two threads, one per agent.

A unit returns its output; ``fingerprint`` reduces it to the exact bytes
that must repeat whenever the same input runs again (traced or not), and
``check`` lists what is wrong with it.
"""

import csv
import importlib
import io
import math
import os
import threading

import numpy as np

cli = importlib.import_module("aeal.cli")
losses = importlib.import_module("aeal.losses")
messages = importlib.import_module("aeal.messages")
protocol = importlib.import_module("aeal.protocol")
screening = importlib.import_module("aeal.screening")
simmod = importlib.import_module("aeal.simulate")   # aeal.simulate is the function
sketchmod = importlib.import_module("aeal.sketch")
transport = importlib.import_module("aeal.transport")
AgentView = importlib.import_module("aeal.data").AgentView
Owner = importlib.import_module("aeal.data").Owner
AealError = importlib.import_module("aeal.errors").AealError
TransportFailure = importlib.import_module("aeal.errors").TransportFailure

RHO = 0.1
# A failed agent leaves its peer waiting for the receive timeout (120 s),
# longer than a run may take; a round here takes well under a second.
transport.RECV_TIMEOUT = 20.0
FIT_GAP_LIMIT = 1e-6
AUC_GAP_LIMIT = 0.002  # the acceptance bound on |AUC - oracle AUC|
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# doubles carried by the vector payload of each message type
_PAYLOAD = {
    "Offset": lambda m: len(m.vector),
    "GradShare": lambda m: len(m.vector),
    "ResponseShare": lambda m: len(m.y),
    "SketchOffer": lambda m: sum(len(row) for row in m.projected),
}


def payload_doubles(msg):
    count = _PAYLOAD.get(type(msg).__name__)
    return count(msg) if count else 0


def wire_by_type(lines):
    """Sends, bytes and payload doubles per message type, from decoded lines."""
    acc = {}
    for _, line in lines:
        msg = messages.decode(line)
        row = acc.setdefault(type(msg).__name__, [0, 0, 0])
        row[0] += 1
        row[1] += len(line.encode("utf-8")) + 1  # newline included, as on the wire
        row[2] += payload_doubles(msg)
    return acc


def bytes_per_double(acc):
    doubles = sum(row[2] for row in acc.values())
    carried = sum(row[1] for row in acc.values() if row[2])
    return carried / doubles if doubles else 0.0


def _seed(seed, k):
    """A 32-bit command seed for input k of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _views(sim):
    own = sim.ownership
    return (AgentView(design=sim.X_a, column_names=own.a_names, owner=Owner.A),
            AgentView(design=sim.X_b, column_names=own.b_names, owner=Owner.B))


def _simulate(setting, n, seed, k):
    fam = losses.parse_family("logistic")
    design = simmod.SimDesign(setting=setting, n=n, rho=RHO, family=fam)
    sim = simmod.simulate(design, np.random.default_rng([seed, k]))
    return fam, sim


class AgentSocket:
    """Sketch offer, Wald screen and training to the default stop, with both
    agents on threads of this process joined by one loopback TCP connection."""

    name = "agent-socket-s2-n1e4"
    why = ("a few rounds of large vectors over loopback TCP: sketch offer, "
           "screen, then train; the only workload that decodes lines")
    n = 10000
    t = 3
    laplace_scale = 0.5
    inputs = 32

    def setup(self, seed, keys=None):
        inputs = []
        for k in range(self.inputs) if keys is None else keys:
            fam, sim = _simulate("s2", self.n, seed, k)
            sk = sketchmod.make_sketch(sim.X_b, self.t, np.random.default_rng([seed, k, 1]),
                                       noise_scale=self.laplace_scale)
            oracle = simmod.oracle_fit(sim.X, sim.y, fam)
            inputs.append({"fam": fam, "sim": sim, "views": _views(sim), "sketch": sk,
                           "oracle_nu": sim.X @ oracle.beta})
        return inputs

    def unit(self, inp):
        fam, y = inp["fam"], inp["sim"].y
        view_a, view_b = inp["views"]
        sk = inp["sketch"]
        ready = threading.Event()
        port = []
        bob = {}

        def bob_main():
            try:
                chan = transport.serve_one("127.0.0.1", 0, name="B", peer="A",
                                           timeout=60.0, ready_event=ready,
                                           bound_port=port)
                try:
                    chan.send(messages.SketchOffer(
                        projected=tuple(map(tuple, sk.projected)), t=sk.t,
                        noised=sk.noised, epsilon=sk.epsilon, c2=sk.c2,
                        rows_excluded=sk.rows_excluded))
                    bob["screen"] = chan.recv()
                    bob["result"] = protocol.run_bob(view_b, fam, chan)
                finally:
                    chan.close()
            except Exception as exc:  # re-raised on the main thread
                bob["error"] = exc
            finally:
                ready.set()

        worker = threading.Thread(target=bob_main, daemon=True)
        worker.start()
        recorder = transport.Recorder()
        alice_error = None
        try:
            if not ready.wait(60.0) or not port:
                raise RuntimeError(f"Bob did not start listening: {bob.get('error')}")
            chan = transport.connect("127.0.0.1", port[0], name="A", peer="B",
                                     recorder=recorder)
            try:
                offer = chan.recv()
                pkg = sketchmod.SketchPackage(
                    projected=np.asarray(offer.projected), t=offer.t, noised=offer.noised,
                    epsilon=offer.epsilon, c2=offer.c2, rows_excluded=offer.rows_excluded)
                report = screening.wald_screen(view_a, y, pkg, fam)
                d = report.decision
                chan.send(messages.ScreenResult(statistic=d.statistic, df=d.df,
                                                p_value=d.p_value, reject=d.reject,
                                                alpha=d.alpha))
                alice = protocol.run_alice(view_a, y, fam, chan,
                                           stop=protocol.StopCriterion.default(self.n))
            finally:
                chan.close()
        except Exception as exc:
            alice_error = exc
        finally:
            worker.join(timeout=150.0)
        errors = [e for e in (alice_error, bob.get("error")) if e is not None]
        if errors:  # a failure on one side reaches the other as a closed connection
            raise next((e for e in errors if not isinstance(e, TransportFailure)),
                       errors[0])
        if worker.is_alive():
            raise RuntimeError("Bob's thread did not finish")
        return {"alice": alice, "bob": bob["result"], "screen": bob["screen"],
                "statistic": d.statistic, "recorder": recorder}

    def fingerprint(self, out):
        return (out["alice"]["beta_a"].tobytes(), out["bob"]["beta_b"].tobytes(),
                out["alice"]["rounds"], out["recorder"].bytes_transmitted,
                out["statistic"])

    def check(self, inp, out):
        """Bitwise agreement with an in-process train and screen on the same input."""
        if "reference" not in inp:
            view_a, view_b = inp["views"]
            y, fam = inp["sim"].y, inp["fam"]
            inp["reference"] = protocol.train(view_a, y, view_b, fam,
                                              stop=protocol.StopCriterion.default(self.n))
            inp["ref_stat"] = screening.wald_screen(view_a, y, inp["sketch"],
                                                    fam).decision.statistic
        ref = inp["reference"]
        alice, bob, rec = out["alice"], out["bob"], out["recorder"]
        training = rec.lines[2:]  # after SketchOffer and ScreenResult
        problems = []
        if alice["beta_a"].tobytes() != ref.beta_a.tobytes():
            problems.append("beta_a differs from the in-process session")
        if bob["beta_b"].tobytes() != ref.beta_b.tobytes():
            problems.append("beta_b differs from the in-process session")
        if alice["rounds"] != ref.rounds or bob["rounds"] != ref.rounds:
            problems.append("round count differs from the in-process session")
        if training != ref.transcript:
            problems.append("training transcript differs from the in-process session")
        if sum(len(line) + 1 for _, line in training) != ref.bytes_transmitted:
            problems.append("training wire bytes differ from the in-process session")
        if out["statistic"] != inp["ref_stat"]:
            problems.append("screening statistic differs from the in-process screen")
        if out["screen"].statistic != out["statistic"]:
            problems.append("Bob received another statistic than Alice computed")
        fit_gap = float(np.max(np.abs(alice["nu_a"] + bob["nu_b"] - inp["oracle_nu"])))
        if not fit_gap <= FIT_GAP_LIMIT:
            problems.append(f"fit_gap {fit_gap:.3g} > {FIT_GAP_LIMIT}")
        costs = {"rounds": alice["rounds"], "vector_sends": 2 * alice["rounds"] + 1,
                 "wire_bytes": rec.bytes_transmitted, "fit_gap": fit_gap}
        return problems, costs

    def transcript(self, out):
        rec = out["recorder"]
        rounds = out["alice"]["rounds"]
        return rec.lines, rec.bytes_transmitted, 2 * rounds + 1, rounds

    def counters(self, out):
        """The program's own byte count for a session run outside protocol.train."""
        rec = out["recorder"]
        return {"reported.bytes": rec.bytes_transmitted,
                "transcript.chars": sum(len(line) for _, line in rec.lines)}


NUMERIC_FAILURE_EXIT = 3  # what ``aeal`` returns when it reports a numeric failure


class CommandFailed(RuntimeError):
    """An ``aeal`` command returned a non-zero exit code."""

    def __init__(self, argv, code):
        super().__init__(f"aeal {argv[0]} exited with {code}")
        self.code = code


def reported_failure(exc):
    """Whether a unit's exception is a failure the program itself reports: an
    error of the package, or a command's numeric-failure exit. Any other
    exception means the program broke rather than declined."""
    if isinstance(exc, CommandFailed):
        return exc.code == NUMERIC_FAILURE_EXIT
    return isinstance(exc, AealError)


class _Command:
    """A workload whose unit is one in-process ``aeal`` command invocation."""

    inputs = 8

    def setup(self, seed, keys=None):
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{self.name}-{os.getpid()}.csv")
        return [{"argv": self.argv(_seed(seed, k)) + ["--out", path], "path": path}
                for k in (range(self.inputs) if keys is None else keys)]

    def unit(self, inp):
        code = cli.main(inp["argv"])
        text = ""
        if os.path.exists(inp["path"]):  # a failed command writes no file
            with open(inp["path"], encoding="utf-8") as fh:
                text = fh.read()
            os.remove(inp["path"])
        if code != 0:  # the command printed its error; no output to check
            raise CommandFailed(inp["argv"], code)
        return {"csv": text}

    def fingerprint(self, out):
        return out["csv"]

    def rows(self, out):
        body = out["csv"].split("\n", 1)[1]  # after the "# {config}" line
        return list(csv.DictReader(io.StringIO(body)))

    def transcript(self, out):
        return None

    def counters(self, out):
        return {}  # the sessions inside the command are hooked


class PowerSweep(_Command):
    name = "power-sweep-n2e4"
    why = ("no wire traffic: 45 Wald screens per unit through the power command, "
           "solver, sandwich, rank classification, chi-square tails, fallback")
    settings = ("s1", "s2", "s3")
    t_list = (1, 2, 3, 4, 5)
    noise_list = ("0", "0.1", "0.5")

    def argv(self, seed):
        return ["power", "--settings", ",".join(self.settings),
                "--t-list", ",".join(map(str, self.t_list)),
                "--noise-list", ",".join(self.noise_list), "--n", "20000",
                "--reps", "1", "--rho", str(RHO), "--family", "logistic",
                "--test", "wald", "--seed", str(seed)]

    def check(self, inp, out):
        rows = self.rows(out)
        grid = {(r["setting"], int(r["t"]), float(r["noise_scale"])) for r in rows}
        want = {(s, t, float(v)) for s in self.settings for t in self.t_list
                for v in self.noise_list}
        problems = []
        if grid != want or len(rows) != len(want):
            problems.append(f"power CSV covers {len(grid)} of {len(want)} grid cells")
        if not all(0.0 <= float(r["reject_rate"]) <= 1.0 for r in rows):
            problems.append("a reject rate lies outside [0, 1]")
        return problems, {}


class TrainCompare(_Command):
    name = "train-compare-s2-n2e3"
    why = ("many small lines over tuned baseline sessions plus per-round AUC; "
           "the only workload that runs baselines and stats.auc")
    rounds = 50
    methods = ("aeal", "fedbcd", "fedsgd", "oracle")

    def argv(self, seed):
        return ["train-compare", "--setting", "s2", "--family", "logistic",
                "--n", "2000", "--rho", str(RHO), "--rounds", str(self.rounds),
                "--eval-size", "10000", "--grid-size", "3", "--reps", "1",
                "--seed", str(seed)]

    def check(self, inp, out):
        rows = self.rows(out)
        got = {(r["method"], int(r["round"])): float(r["metric"]) for r in rows}
        want = {(m, k) for m in self.methods for k in range(self.rounds + 1)}
        problems = []
        if set(got) != want or len(rows) != len(want):
            problems.append(f"train-compare CSV holds {len(got)} of {len(want)} rows")
            return problems, {}
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in got.values()):
            problems.append("an AUC lies outside [0, 1]")
        gap = abs(got[("aeal", self.rounds)] - got[("oracle", self.rounds)])
        if not gap <= AUC_GAP_LIMIT:
            problems.append(f"auc_gap {gap:.3g} > {AUC_GAP_LIMIT}")
        return problems, {"auc_gap": gap}


WORKLOADS = {w.name: w for w in (AgentSocket(), PowerSweep(), TrainCompare())}
