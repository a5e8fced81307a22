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
import layers
import tracer

protocol = importlib.import_module("aeal.protocol")
original = protocol.run_alice
t = tracer.Tracer()
layers.install(t)
assert protocol.run_alice is not original
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
