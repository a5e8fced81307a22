import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import write_agent_csv

from aeal.data import AgentView, Owner, load_agent_csv
from aeal.errors import AealError, DuplicateId, MalformedCsv, MissingId, RankDeficientView


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoad:
    def test_disjoint_full_match(self, tmp_path):
        # each agent loads only its own file: Alice's carries the response
        a = write(tmp_path / "a.csv", "id,y,u1,u2\n1,0.5,1.0,2.0\n2,1.5,3.0,4.0\n3,2.5,5.0,7.0\n")
        b = write(tmp_path / "b.csv", "id,v1\n1,9.0\n2,8.0\n3,6.0\n")
        _, view_a, y = load_agent_csv(a, "id", Owner.A, response_column="y")
        _, view_b, _ = load_agent_csv(b, "id", Owner.B)
        assert view_a.n == view_b.n == 3
        assert list(y) == [0.5, 1.5, 2.5]
        assert view_a.column_names == ("u1", "u2")
        assert view_b.column_names == ("v1",)
        assert view_a.id_digest == view_b.id_digest

    def test_rank_deficient_b(self, tmp_path):
        b = write(tmp_path / "b.csv", "id,v1,v2\n1,1,2\n2,2,4\n3,5,10\n")
        with pytest.raises(RankDeficientView) as err:
            load_agent_csv(b, "id", Owner.B)
        assert err.value.owner == "B"

    def test_missing_id_column(self, tmp_path):
        a = write(tmp_path / "a.csv", "key,y,u1\n1,0,1\n")
        with pytest.raises(MissingId):
            load_agent_csv(a, "id", Owner.A, response_column="y")

    def test_duplicate_id(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1\n1,0,1\n1,0,2\n")
        with pytest.raises(DuplicateId):
            load_agent_csv(a, "id", Owner.A, response_column="y")


def test_id_digest_is_sha256_of_the_sorted_ids(tmp_path):
    a = write(tmp_path / "a.csv", "id,u1\nb,1.0\na,2.0\nc,4.0\n")
    shuffled = write(tmp_path / "s.csv", "id,u1\nc,4.0\nb,1.0\na,2.0\n")
    other = write(tmp_path / "o.csv", "id,u1\nb,1.0\na,2.0\nd,4.0\n")
    digest = load_agent_csv(a, "id", Owner.A)[1].id_digest
    assert digest == hashlib.sha256(b"a\nb\nc").hexdigest()
    assert load_agent_csv(shuffled, "id", Owner.A)[1].id_digest == digest
    assert load_agent_csv(other, "id", Owner.A)[1].id_digest != digest
    # a view built from arrays carries none
    view = AgentView(design=np.eye(3), column_names=("a", "b", "c"), owner=Owner.A)
    assert view.id_digest is None


def test_blank_lines_are_not_rows(tmp_path):
    p = write(tmp_path / "own.csv", "id,y,u1\nb,1.0,2.0\n\na,0.0,1.0\n\n")
    ids, view, y = load_agent_csv(p, "id", Owner.A, response_column="y")
    assert ids == ("a", "b") and list(y) == [0.0, 1.0]


def test_header_without_rows_is_an_input_error(tmp_path):
    p = write(tmp_path / "own.csv", "id,y,u1\n\n")
    with pytest.raises(MalformedCsv, match="no rows"):
        load_agent_csv(p, "id", Owner.A, response_column="y")


def test_empty_file_is_a_missing_id(tmp_path):
    p = write(tmp_path / "own.csv", "")
    with pytest.raises(MissingId, match="empty file"):
        load_agent_csv(p, "id", Owner.A)


@pytest.mark.parametrize("row, what", [
    ("2,np.float64(0.3),1.0", ", column 'y': 'np.float64(0.3)' is not a finite number"),
    ("2,0.3,nan", ", column 'u1': 'nan' is not a finite number"),
    ("2,0.3,-inf", ", column 'u1': '-inf' is not a finite number"),
    ("2,0.3", ": 2 cells, the header has 3"),
    ("2,0.3,1.0,4.0", ": 4 cells, the header has 3"),
], ids=["non-numeric", "nan", "infinite", "short-row", "long-row"])
def test_bad_row_names_file_line_and_column(tmp_path, row, what):
    p = write(tmp_path / "own.csv", f"id,y,u1\n1,0.5,2.0\n{row}\n3,0.7,1.0\n")
    with pytest.raises(MalformedCsv) as err:
        load_agent_csv(p, "id", Owner.A, response_column="y")
    assert str(err.value) == f"{p}, line 3{what}"


def test_agent_view_rank_check():
    # the named column is the first one that the columns before it span
    x = np.arange(6.0)
    z = np.ones(6)
    cases = [(np.column_stack([x, 2 * x]), ("a", "b"), "b"),
             (np.column_stack([z, x, z + x, x ** 2]), ("z", "x", "zx", "w"), "zx")]
    for design, names, named in cases:
        with pytest.raises(RankDeficientView) as info:
            AgentView(design=design, column_names=names, owner=Owner.A)
        assert info.value.column == named


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_agent_view_refuses_a_non_finite_design(bad):
    # refused before the rank check, whose SVD would not converge
    with pytest.raises(AealError, match="non-finite"):
        AgentView(design=[[bad, 1.0], [2.0, 3.0], [1.0, 0.5]], column_names=("a", "b"),
                  owner=Owner.A)


def test_load_agent_csv_sorts_by_id(tmp_path):
    p = write(tmp_path / "own.csv", "id,y,u1\nb,1.0,2.0\na,0.0,1.0\n")
    ids, view, y = load_agent_csv(p, "id", Owner.A, response_column="y")
    assert ids == ("a", "b")
    assert list(y) == [0.0, 1.0]
    assert view.design[:, 0].tolist() == [1.0, 2.0]


def test_loader_peak_memory_is_a_few_designs(tmp_path):
    rng = np.random.default_rng(21)
    n, p = 20_000, 9
    columns = [(f"x{j}", rng.normal(size=n)) for j in range(1, p + 1)]
    path = write_agent_csv(tmp_path / "a.csv", [f"r{k}" for k in rng.permutation(n)],
                           columns, y=rng.normal(size=n))
    load_agent_csv(path, "id", Owner.A, response_column="y")  # imports before tracing
    tracemalloc.start()
    try:
        _, view, _ = load_agent_csv(path, "id", Owner.A, response_column="y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert view.design.shape == (n, p) and view.design.flags.c_contiguous
    # the cells, the design, y, the ids and their index; a list of floats per row is 9x
    assert peak <= 6 * view.design.nbytes
