"""Agent views and each agent's own CSV.

An AgentView is one agent's dense design matrix, which must have full column
rank (singular values against RANK_TOL; numpy only, free of scipy).
load_agent_csv is the one way rows are aligned across agents: each agent sorts
its own file by id, and the digest of the sorted ids crosses the wire in the
handshake, so two agents holding different ids stop before any row is paired.
"""

import csv
import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DuplicateId, MalformedCsv, MissingId, RankDeficientView

RANK_TOL = 1e-10  # relative tolerance on singular values


class Owner(enum.Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class AgentView:
    """One agent's dense design matrix and, when loaded from a file, the
    SHA-256 hex digest of its sorted row ids (None for views built from arrays).

    Assembly fails if the design holds a NaN or infinity (DomainError) or is
    numerically rank deficient.
    """

    design: np.ndarray
    column_names: tuple
    owner: Owner
    id_digest: str = None

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        object.__setattr__(self, "design", design)
        if not np.isfinite(design).all():  # the rank check's SVD would not converge
            raise DomainError(f"design of owner {self.owner.value} holds a non-finite value")
        _check_full_rank(design, tuple(self.column_names), self.owner)

    @property
    def n(self):
        return self.design.shape[0]


def numerical_rank(sigma, scale=None):
    """Singular values reaching RANK_TOL * scale (default: the largest one)."""
    if scale is None:
        scale = np.max(sigma, initial=0.0)
    return int(np.count_nonzero(sigma >= RANK_TOL * scale)) if scale > 0 else 0


def _check_full_rank(matrix, names, owner):
    """Singular-value rank check of R; names the first column that the columns
    before it span (the first leading block of R short of full rank)."""
    p = matrix.shape[1]
    if p == 0:
        return
    R = np.linalg.qr(matrix, mode="r")
    sigma = np.linalg.svd(R, compute_uv=False)
    if numerical_rank(sigma) == p:
        return
    scale = np.max(sigma, initial=0.0)
    first = next(k for k in range(1, p + 1)
                 if numerical_rank(np.linalg.svd(R[:k, :k], compute_uv=False), scale) < k)
    raise RankDeficientView(owner.value, names[first - 1])


def load_agent_csv(path, id_column, owner, response_column=None):
    """Load one agent's own file for the socket protocol.

    Rows are sorted by identifier string so two agents holding the same id
    set align without exchanging identifiers; the view records the SHA-256 of
    the sorted ids joined by newlines (UTF-8), which the handshake compares.
    The file needs at least one row; every other cell must be a finite number,
    and every row must have as many cells as the header (a blank line is not
    a row). Returns (ids, view, y) with y=None unless a response column is
    requested.
    """
    import hashlib  # here, not at the top: `import aeal` then leaves hashlib unloaded

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingId(f"{path}: empty file")
        if id_column not in header:
            raise MissingId(f"{path}: no column {id_column!r}")
        id_pos = header.index(id_column)
        names = [h for i, h in enumerate(header) if i != id_pos]
        if response_column is not None and response_column not in names:
            raise MissingId(f"{path}: no response column {response_column!r}")
        cells, row_of = array("d"), {}  # every checked cell in file order; id -> row
        for rec in reader:
            if not rec:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(rec) != len(header):
                raise MalformedCsv(f"{where}: {len(rec)} cells, the header has {len(header)}")
            rid = rec.pop(id_pos)
            if rid in row_of:
                raise DuplicateId(f"{path}: id {rid!r} occurs twice")
            cells.extend([_cell(text, where, name) for text, name in zip(rec, names)])
            row_of[rid] = len(row_of)
    if not row_of:
        raise MalformedCsv(f"{path}: no rows below the header")
    ids = sorted(row_of)
    order = np.array([row_of[rid] for rid in ids], dtype=np.intp)
    table = np.frombuffer(cells, dtype=float).reshape(len(ids), len(names))
    cols = list(range(len(names)))
    y = None
    if response_column is not None:
        j = cols.pop(names.index(response_column))
        y, names = table[order, j], names[:j] + names[j + 1:]
    # one gather builds the design in sorted-id order, C-contiguous
    design = table[np.ix_(order, cols)]
    digest = hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()
    view = AgentView(design=design, column_names=tuple(names), owner=owner, id_digest=digest)
    return tuple(ids), view, y


def _cell(text, where, name):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise MalformedCsv(f"{where}, column {name!r}: {text!r} is not a finite number")
    return value
