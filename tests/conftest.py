import os

# pyproject's pythonpath puts src on this process's sys.path; the tests that
# start `python -m aeal.cli` agents need it on their PYTHONPATH as well
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
