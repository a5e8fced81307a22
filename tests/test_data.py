import numpy as np
import pytest

from aeal.data import (AgentView, Owner, from_arrays, load_aligned_csv,
                       load_agent_csv, split_rows, write_owner_csvs)
from aeal.errors import (DuplicateId, EmptyIntersection, MissingId,
                         RankDeficientView, SharedColumnMismatch)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def disjoint_files(tmp_path):
    a = write(tmp_path / "a.csv", "id,y,u1,u2\n1,0.5,1.0,2.0\n2,1.5,3.0,4.0\n3,2.5,5.0,7.0\n")
    b = write(tmp_path / "b.csv", "id,v1\n1,9.0\n2,8.0\n3,6.0\n")
    return a, b


class TestLoad:
    def test_disjoint_full_match(self, disjoint_files):
        ds = load_aligned_csv(*disjoint_files, id_column="id")
        assert ds.n == 3
        owners = {c.owner for c in ds.columns}
        assert owners == {Owner.A, Owner.B}
        assert list(ds.y) == [0.5, 1.5, 2.5]
        assert ds.view(Owner.A).column_names == ("u1", "u2")
        assert ds.view(Owner.B).column_names == ("v1",)

    def test_intersection_semantics(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1\n1,0.0,1.0\n2,0.0,2.0\n3,0.0,3.0\n")
        b = write(tmp_path / "b.csv", "id,v1\n2,5.0\n3,6.0\n4,7.0\n")
        ds = load_aligned_csv(a, b, id_column="id")
        assert ds.n == 2
        assert ds.ids == ("2", "3")

    def test_rank_deficient_b(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1\n1,0,1\n2,0,2\n3,0,3\n")
        b = write(tmp_path / "b.csv", "id,v1,v2\n1,1,2\n2,2,4\n3,5,10\n")
        with pytest.raises(RankDeficientView) as err:
            load_aligned_csv(a, b, id_column="id")
        assert err.value.owner == "B"

    def test_shared_column_detected(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1,c1\n1,0,1,10\n2,0,2,20\n3,0,3,35\n")
        b = write(tmp_path / "b.csv", "id,c1,v1\n1,10,4\n2,20,5\n3,35,7\n")
        ds = load_aligned_csv(a, b, id_column="id")
        shared = [c for c in ds.columns if c.owner is Owner.SHARED]
        assert [c.name for c in shared] == ["c1"]
        assert ds.view(Owner.A).column_names == ("u1", "c1")
        assert ds.view(Owner.B).column_names == ("v1", "c1")

    def test_shared_name_value_mismatch(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,c1\n1,0,10\n2,0,20\n")
        b = write(tmp_path / "b.csv", "id,c1\n1,10\n2,21\n")
        with pytest.raises(SharedColumnMismatch):
            load_aligned_csv(a, b, id_column="id")

    def test_missing_id_column(self, tmp_path):
        a = write(tmp_path / "a.csv", "key,y,u1\n1,0,1\n")
        b = write(tmp_path / "b.csv", "id,v1\n1,1\n")
        with pytest.raises(MissingId):
            load_aligned_csv(a, b, id_column="id")

    def test_duplicate_id(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1\n1,0,1\n1,0,2\n")
        b = write(tmp_path / "b.csv", "id,v1\n1,1\n")
        with pytest.raises(DuplicateId):
            load_aligned_csv(a, b, id_column="id")

    def test_empty_intersection(self, tmp_path):
        a = write(tmp_path / "a.csv", "id,y,u1\n1,0,1\n2,0,2\n")
        b = write(tmp_path / "b.csv", "id,v1\n8,1\n9,2\n")
        with pytest.raises(EmptyIntersection):
            load_aligned_csv(a, b, id_column="id")


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    n = 17
    ds = from_arrays(
        y=rng.normal(size=n),
        a_columns=[("u1", rng.normal(size=n)), ("u2", rng.uniform(size=n))],
        b_columns=[("v1", rng.normal(size=n) * 1e-7)],
        shared_columns=[("c1", rng.normal(size=n))],
        ids=[f"r{i}" for i in range(n)],
    )
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_owner_csvs(ds, pa, pb)
    back = load_aligned_csv(str(pa), str(pb), id_column="id")
    assert back.ids == ds.ids
    assert np.array_equal(back.y, ds.y)
    for orig, re in zip(sorted(ds.columns, key=lambda c: c.name),
                        sorted(back.columns, key=lambda c: c.name)):
        assert orig.name == re.name and orig.owner == re.owner
        assert np.array_equal(orig.values, re.values)


def test_view_is_pure():
    rng = np.random.default_rng(1)
    ds = from_arrays(y=rng.normal(size=5),
                     a_columns=[("u1", rng.normal(size=5))],
                     b_columns=[("v1", rng.normal(size=5))])
    v1 = ds.view(Owner.A)
    v2 = ds.view(Owner.A)
    assert np.array_equal(v1.design, v2.design)
    assert v1.column_names == v2.column_names


def test_dataset_immutable():
    rng = np.random.default_rng(2)
    ds = from_arrays(y=rng.normal(size=4),
                     a_columns=[("u1", rng.normal(size=4))],
                     b_columns=[("v1", rng.normal(size=4))])
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


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


class TestSplit:
    def make(self, n=10):
        rng = np.random.default_rng(9)
        return from_arrays(y=rng.normal(size=n),
                           a_columns=[("u1", rng.normal(size=n))],
                           b_columns=[("v1", rng.normal(size=n))],
                           ids=[str(i) for i in range(n)])

    def test_half_split(self):
        ds = self.make(10)
        d1, d2 = split_rows(ds, 0.5, np.random.default_rng(33))
        assert d1.n == 5 and d2.n == 5
        assert set(d1.ids) | set(d2.ids) == set(ds.ids)
        assert set(d1.ids) & set(d2.ids) == set()

    def test_deterministic(self):
        ds = self.make(10)
        a1, b1 = split_rows(ds, 0.5, np.random.default_rng(5))
        a2, b2 = split_rows(ds, 0.5, np.random.default_rng(5))
        assert a1.ids == a2.ids and b1.ids == b2.ids

    def test_rounding(self):
        ds = self.make(10)
        d1, d2 = split_rows(ds, 0.3, np.random.default_rng(1))
        assert d1.n == 3 and d2.n == 7


def test_load_agent_csv_sorts_by_id(tmp_path):
    p = write(tmp_path / "own.csv", "id,y,u1\nb,1.0,2.0\na,0.0,1.0\n")
    ids, view, y = load_agent_csv(p, "id", Owner.A, response_column="y")
    assert ids == ("a", "b")
    assert list(y) == [0.0, 1.0]
    assert view.design[:, 0].tolist() == [1.0, 2.0]
