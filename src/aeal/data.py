"""Row-aligned two-owner datasets, agent views, splits, and CSV ingestion.

An AlignedDataset holds the response and every covariate column together
with an owner tag (A-only, B-only, or shared). Each agent's view is the
dense design matrix assembled from its own plus the shared columns; views
must have full column rank (singular values against RANK_TOL; numpy only,
free of scipy). Datasets are immutable after construction.
"""

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import (DuplicateId, EmptyIntersection, MissingId,
                     RankDeficientView, SharedColumnMismatch)

RANK_TOL = 1e-10  # relative tolerance on singular values


class Owner(enum.Enum):
    A = "A"
    B = "B"
    SHARED = "Shared"


@dataclass(frozen=True)
class Column:
    name: str
    values: np.ndarray
    owner: Owner


@dataclass(frozen=True)
class AgentView:
    """One agent's dense design matrix (own columns followed by shared ones).

    Assembly fails if the design is numerically rank deficient.
    """

    design: np.ndarray
    column_names: tuple
    owner: Owner

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        object.__setattr__(self, "design", design)
        _check_full_rank(design, tuple(self.column_names), self.owner)

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def p(self):
        return self.design.shape[1]


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


def _freeze(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AlignedDataset:
    """Row-aligned response and covariates with per-column owner tags."""

    y: np.ndarray
    columns: tuple
    ids: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "y", _freeze(self.y))
        cols = tuple(Column(c.name, _freeze(c.values), c.owner) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        n = len(self.y)
        for c in cols:
            if len(c.values) != n:
                raise ValueError(f"column {c.name!r} has length {len(c.values)}, expected {n}")
        if self.ids is not None and len(self.ids) != n:
            raise ValueError("id vector length does not match rows")
        for owner in (Owner.A, Owner.B):
            names = self._view_names(owner)
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate column name in {owner.value}'s view")
            _check_full_rank(self._view_matrix(owner), names, owner)

    @property
    def n(self):
        return len(self.y)

    def _view_columns(self, owner):
        own = [c for c in self.columns if c.owner is owner]
        shared = [c for c in self.columns if c.owner is Owner.SHARED]
        return own + shared

    def _view_names(self, owner):
        return tuple(c.name for c in self._view_columns(owner))

    def _view_matrix(self, owner):
        cols = self._view_columns(owner)
        if not cols:
            return np.empty((self.n, 0))
        return np.column_stack([c.values for c in cols])

    def view(self, owner):
        """Assemble one agent's design matrix; pure function of (dataset, owner)."""
        if owner is Owner.SHARED:
            raise ValueError("views exist for owners A and B only")
        return AgentView(design=self._view_matrix(owner),
                         column_names=self._view_names(owner), owner=owner)

    def subset(self, row_indices):
        """Dataset restricted to the given rows (order preserved as given)."""
        idx = np.asarray(row_indices, dtype=int)
        cols = tuple(Column(c.name, c.values[idx], c.owner) for c in self.columns)
        ids = tuple(self.ids[i] for i in idx) if self.ids is not None else None
        return AlignedDataset(y=self.y[idx], columns=cols, ids=ids)


def from_arrays(y, a_columns, b_columns, shared_columns=(), ids=None):
    """Build a dataset from (name, values) pairs grouped by owner."""
    cols = [Column(n, v, Owner.A) for n, v in a_columns]
    cols += [Column(n, v, Owner.B) for n, v in b_columns]
    cols += [Column(n, v, Owner.SHARED) for n, v in shared_columns]
    return AlignedDataset(y=y, columns=tuple(cols), ids=tuple(ids) if ids is not None else None)


def _read_csv(path, id_column):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingId(f"{path}: empty file")
        if id_column not in header:
            raise MissingId(f"{path}: no column {id_column!r}")
        id_pos = header.index(id_column)
        rows = {}
        order = []
        for rec in reader:
            rid = rec[id_pos]
            if rid in rows:
                raise DuplicateId(f"{path}: id {rid!r} occurs twice")
            rows[rid] = rec
            order.append(rid)
    names = [h for i, h in enumerate(header) if i != id_pos]
    positions = [i for i in range(len(header)) if i != id_pos]
    return names, positions, rows, order


def load_aligned_csv(path_a, path_b, id_column, response_column="y"):
    """Load two owner CSVs, match rows on the identifier, detect shared columns.

    The response column is taken from file A. Columns present in both files
    under the same name must carry identical values and become shared;
    differing values raise SharedColumnMismatch. Unmatched rows are dropped;
    the surviving rows follow file A's order.
    """
    names_a, pos_a, rows_a, order_a = _read_csv(path_a, id_column)
    names_b, pos_b, rows_b, _ = _read_csv(path_b, id_column)
    if response_column not in names_a:
        raise MissingId(f"{path_a}: no response column {response_column!r}")

    common_ids = [rid for rid in order_a if rid in rows_b]
    if not common_ids:
        raise EmptyIntersection("no identifiers shared between the two files")

    def col(names, positions, rows, name):
        j = positions[names.index(name)]
        return np.array([float(rows[rid][j]) for rid in common_ids])

    y = col(names_a, pos_a, rows_a, response_column)
    cov_a = [n for n in names_a if n != response_column]
    overlap = [n for n in cov_a if n in names_b]

    columns = []
    for name in cov_a:
        va = col(names_a, pos_a, rows_a, name)
        if name in overlap:
            vb = col(names_b, pos_b, rows_b, name)
            if not np.array_equal(va, vb):
                raise SharedColumnMismatch(f"column {name!r} differs between files")
            columns.append(Column(name, va, Owner.SHARED))
        else:
            columns.append(Column(name, va, Owner.A))
    for name in names_b:
        if name in overlap:
            continue
        columns.append(Column(name, col(names_b, pos_b, rows_b, name), Owner.B))

    return AlignedDataset(y=y, columns=tuple(columns), ids=tuple(common_ids))


def write_owner_csvs(ds, path_a, path_b, id_column="id", response_column="y"):
    """Write a dataset back to two owner CSVs (shared columns in both files).

    Values are serialized with repr, so a reload reproduces the dataset
    bitwise.
    """
    ids = ds.ids if ds.ids is not None else tuple(str(i) for i in range(ds.n))
    a_cols = [c for c in ds.columns if c.owner is Owner.A]
    b_cols = [c for c in ds.columns if c.owner is Owner.B]
    s_cols = [c for c in ds.columns if c.owner is Owner.SHARED]
    with open(path_a, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([id_column, response_column] + [c.name for c in a_cols + s_cols])
        for i in range(ds.n):
            w.writerow([ids[i], repr(float(ds.y[i]))] +
                       [repr(float(c.values[i])) for c in a_cols + s_cols])
    with open(path_b, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([id_column] + [c.name for c in b_cols + s_cols])
        for i in range(ds.n):
            w.writerow([ids[i]] + [repr(float(c.values[i])) for c in b_cols + s_cols])


def load_agent_csv(path, id_column, owner, response_column=None):
    """Load one agent's own file for the socket protocol.

    Rows are sorted by identifier string so two agents holding the same id
    set align without exchanging identifiers. Returns (ids, view, y) with
    y=None unless a response column is requested.
    """
    names, positions, rows, _ = _read_csv(path, id_column)
    ids = sorted(rows)
    if response_column is not None and response_column not in names:
        raise MissingId(f"{path}: no response column {response_column!r}")

    def col(name):
        j = positions[names.index(name)]
        return np.array([float(rows[rid][j]) for rid in ids])

    y = col(response_column) if response_column is not None else None
    cov = [n for n in names if n != response_column]
    design = np.column_stack([col(n) for n in cov]) if cov else np.empty((len(ids), 0))
    view = AgentView(design=design, column_names=tuple(cov), owner=owner)
    return tuple(ids), view, y


def split_rows(ds, fraction, rng):
    """Random disjoint row split; first part gets round(fraction * n) rows."""
    if ds.n < 2:
        raise ValueError("need at least two rows to split")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    k = int(np.floor(fraction * ds.n + 0.5))  # half-up, independent of banker's rounding
    perm = rng.permutation(ds.n)
    first = np.sort(perm[:k])
    second = np.sort(perm[k:])
    return ds.subset(first), ds.subset(second)
