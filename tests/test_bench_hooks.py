"""The benchmark in perfbench/ wraps package attributes by name, so a
refactor that drops or renames one of them breaks it. The check runs in a
subprocess because importing the benchmark's workloads sets
transport.RECV_TIMEOUT for the whole process."""

import os
import subprocess
import sys

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
