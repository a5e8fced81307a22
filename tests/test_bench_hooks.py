"""The benchmark in perfbench/ wraps package attributes and reads the agents'
result dicts by name, so a refactor that drops or renames one of them breaks
it. The hook check runs in a subprocess because importing the benchmark's
workloads sets transport.RECV_TIMEOUT for the whole process."""

import os
import subprocess
import sys
import threading

import numpy as np

from aeal import protocol
from aeal.data import AgentView, Owner
from aeal.losses import LossFamily
from aeal.simulate import SimDesign, simulate
from aeal.transport import local_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import importlib
import numpy as np
import layers
import tracer
from aeal.data import AgentView, Owner
from aeal.losses import LossFamily
from aeal.sketch import SketchPackage

protocol = importlib.import_module("aeal.protocol")
screening = importlib.import_module("aeal.screening")
original = protocol.run_alice
t = tracer.Tracer()
layers.install(t)
assert protocol.run_alice is not original

# a sketch with one column inside span(X_A): the screen reports degenerate and
# fits through the module attributes the hooks wrap
rng = np.random.default_rng(0)
X_a = rng.normal(size=(200, 3))
S = np.column_stack([X_a[:, 0], rng.normal(size=200)])
view = AgentView(design=X_a, column_names=("a0", "a1", "a2"), owner=Owner.A)
y = X_a.sum(axis=1) + rng.normal(size=200)
report = screening.wald_screen(view, y, SketchPackage(projected=S, t=2),
                               LossFamily("gaussian"))
assert report.degenerate
assert t.counter("screening.fallback", {None}) == 1
names = {span[1] for span in t.spans}
assert {"solver.fit_offset", "solver.sandwich_pieces"} <= names, names

# a short step tuning: the baseline sessions encode every line they count, and the
# session hook reads the bytes they report and the transcript field they carry
baselines = importlib.import_module("aeal.baselines")
cfg = baselines.BaselineConfig(algorithm="fedbcd", decay="sqrt", max_rounds=3)
baselines.tune_step(view, y, AgentView(design=S, column_names=("b0", "b1"), owner=Owner.B),
                    LossFamily("gaussian"), cfg, [0.01, 0.1], 3)
wire = t.counter("wire.bytes", {None})
assert wire > 0 and wire == t.counter("reported.bytes", {None}), wire
assert t.counter("wire.sends.GradShare", {None}) == 2 * 3

t.uninstall()
assert protocol.run_alice is original
"""


def test_benchmark_hooks_install_and_uninstall():
    path = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_agent_results_carry_what_the_benchmark_and_agent_read():
    # the agent-socket workload and `aeal agent` run each side on its own
    # channel end and read these keys; here the ends are an in-process pair
    fam = LossFamily("logistic")
    sim = simulate(SimDesign(setting="s2", n=500, rho=0.1, family=fam),
                   np.random.default_rng(0), hypothesis="h1")
    view_a = AgentView(design=sim.X_a, column_names=sim.ownership.a_names, owner=Owner.A)
    view_b = AgentView(design=sim.X_b, column_names=sim.ownership.b_names, owner=Owner.B)
    chan_a, chan_b = local_pair()
    bob = {}
    worker = threading.Thread(target=lambda: bob.update(protocol.run_bob(view_b, fam, chan_b)),
                              daemon=True)
    worker.start()
    alice = protocol.run_alice(view_a, sim.y, fam, chan_a,
                               stop=protocol.StopCriterion.default(500))
    worker.join(timeout=60.0)

    assert {"beta_a", "nu_a", "nu_b", "rounds", "stop_reason", "cov_a",
            "y_train"} <= alice.keys()
    assert {"beta_b", "nu_b", "rounds", "stop_reason", "cov_b"} <= bob.keys()
    assert alice["rounds"] == bob["rounds"] >= 1
    assert alice["stop_reason"] == bob["stop_reason"]
    assert alice["nu_a"].tobytes() == (view_a.design @ alice["beta_a"]).tobytes()
    assert bob["nu_b"].tobytes() == (view_b.design @ bob["beta_b"]).tobytes()
