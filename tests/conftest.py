import csv
import os

from aeal.messages import PROTOCOL_VERSION
from aeal.simulate import SETTINGS, SimData, gen_covariates, gen_response

# pyproject's pythonpath puts src on this process's sys.path; the tests that
# start `python -m aeal.cli` agents need it on their PYTHONPATH as well
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

# one raw handshake line: n, lam and id_digest are spliced in as JSON literals
HANDSHAKE = ('{"type":"Handshake","version":"' + PROTOCOL_VERSION + '","n":%s,'
             '"family":"logistic","lam":%s,"id_digest":%s}')


def write_agent_csv(path, ids, columns, y=None):
    """Write one agent's file: an id column, a response column y when given,
    then the named (name, values) columns. Values are written with repr, so
    load_agent_csv reads them back bitwise."""
    columns = ([("y", y)] if y is not None else []) + list(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [name for name, _ in columns])
        for i, rid in enumerate(ids):
            w.writerow([rid] + [repr(float(values[i])) for _, values in columns])
    return str(path)


def fixed_beta_replication(setting, n, fam, beta, rng):
    """One centered, uncorrelated replication of a setting at the fixed
    coefficients beta: covariates, then responses, drawn from rng in
    simulate's order."""
    own = SETTINGS[setting]
    X = gen_covariates(n, len(own.pooled_names), 0.0, rng, centered=True)
    return SimData(X=X, y=gen_response(fam, X, beta, rng), beta_true=beta, ownership=own)
