"""ssaforecast.jsonio against the serializer in tests/reference_jsonio.py:
every CSV and JSON document must come out byte for byte the same, and a
non-finite value must fail with the same message while leaving neither the
target nor a temp file behind."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_jsonio import reference_dumps, reference_write_csv, reference_write_json

from ssaforecast import jsonio
from ssaforecast.jsonio import dumps, write_csv, write_json

SPECIAL = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 0.1)
doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
cells = st.one_of(
    doubles,
    doubles.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.booleans().map(np.bool_),
    text,
)
ragged_rows = st.lists(st.lists(cells, max_size=6), max_size=12)
float_matrices = hnp.arrays(
    st.sampled_from([np.float64, np.float32]),
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=32) | st.sampled_from(SPECIAL[:4]),
)
other_matrices = hnp.arrays(
    st.sampled_from([np.int64, np.bool_]),
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
)
float_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=doubles
)
documents = st.recursive(
    st.none() | cells | float_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=20,
)


def csv_bytes(tmp_path, writer, rows):
    path = tmp_path / f"{writer.__name__}.csv"
    writer(path, ["a", "b"], rows)
    return path.read_bytes()


def assert_same_csv(tmp_path, make_rows):
    """Both writers get a fresh iterable from make_rows()."""
    assert csv_bytes(tmp_path, write_csv, make_rows()) == csv_bytes(
        tmp_path, reference_write_csv, make_rows()
    )


@settings(max_examples=200, deadline=None)
@given(ragged_rows)
def test_csv_rows_match_the_reference(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("csv")
    assert_same_csv(tmp_path, lambda: (tuple(row) for row in rows))
    assert_same_csv(tmp_path, lambda: rows)


@settings(max_examples=100, deadline=None)
@given(float_matrices | other_matrices)
def test_csv_arrays_match_the_reference(tmp_path_factory, matrix):
    assert_same_csv(tmp_path_factory.mktemp("csv"), lambda: matrix)


def test_csv_array_spanning_several_blocks_matches_the_reference(tmp_path):
    matrix = np.random.default_rng(0).standard_normal((3 * jsonio._BLOCK_ROWS + 5, 9))
    assert_same_csv(tmp_path, lambda: matrix)
    assert_same_csv(tmp_path, lambda: (list(row) for row in matrix))


@settings(max_examples=200, deadline=None)
@given(documents)
def test_json_matches_the_reference(tmp_path_factory, doc):
    assert dumps(doc) == reference_dumps(doc)
    tmp_path = tmp_path_factory.mktemp("json")
    write_json(tmp_path / "new.json", doc)
    reference_write_json(tmp_path / "old.json", doc)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_json_rejects_zero_dimensional_arrays_like_the_reference():
    for dumper in (dumps, reference_dumps):
        with pytest.raises(TypeError, match="cannot serialize float"):
            dumper({"x": np.array(1.5)})


# -- non-finite values -----------------------------------------------------------

def late_bad_rows(bad):
    """Rows whose one non-finite cell comes after several written blocks."""
    n = 3 * jsonio._BLOCK_ROWS
    return [(i, float(i) / 7.0) for i in range(n)] + [(n, bad), (n + 1, 1.0)]


def late_bad_matrix(bad):
    matrix = np.ones((3 * jsonio._BLOCK_ROWS, 4))
    matrix[-2, 1] = bad
    matrix[-1, 0] = -bad
    return matrix


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
@pytest.mark.parametrize(
    "make_rows",
    [late_bad_rows, lambda bad: iter(late_bad_rows(bad)), late_bad_matrix,
     lambda bad: [(True, "s", np.float64(bad))]],
    ids=["list", "generator", "array", "numpy-scalar"],
)
def test_non_finite_csv_fails_like_the_reference_and_leaves_nothing(tmp_path, bad, make_rows):
    with pytest.raises(ValueError) as want:
        reference_write_csv(tmp_path / "ref" / "out.csv", ["a", "b"], make_rows(bad))
    with pytest.raises(ValueError) as got:
        write_csv(tmp_path / "new" / "out.csv", ["a", "b"], make_rows(bad))
    assert str(got.value) == str(want.value) == f"refusing to serialize non-finite value {bad}"
    assert os.listdir(tmp_path / "new") == []


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
@pytest.mark.parametrize(
    "doc", [lambda bad: {"m": np.array([[1.0, 2.0], [bad, 3.0]])}, lambda bad: [1.0, np.float64(bad)]],
    ids=["array", "scalar"],
)
def test_non_finite_json_fails_like_the_reference_and_keeps_the_old_file(tmp_path, bad, doc):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    with pytest.raises(ValueError) as want:
        reference_dumps(doc(bad))
    with pytest.raises(ValueError) as got:
        write_json(target, doc(bad))
    assert str(got.value) == str(want.value)
    assert os.listdir(tmp_path) == ["out.json"] and target.read_text() == "old\n"


def test_failed_stream_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.csv"
    write_csv(target, ["a", "b"], [(1, 2.0)])
    before = target.read_bytes()
    with pytest.raises(ValueError):
        write_csv(target, ["a", "b"], late_bad_rows(float("nan")))
    assert os.listdir(tmp_path) == ["out.csv"] and target.read_bytes() == before


# -- temp files ------------------------------------------------------------------

def test_concurrent_writers_use_their_own_temp_files(tmp_path):
    target = tmp_path / "out.csv"
    with jsonio._atomic_open(target) as outer:
        outer.write("outer\n")
        with jsonio._atomic_open(target) as inner:
            inner.write("inner\n")
            temps = sorted(p.name for p in tmp_path.iterdir())
        assert target.read_text() == "inner\n"
    assert target.read_text() == "outer\n"
    assert len(temps) == 2 and all(
        name.startswith(f"out.csv.{os.getpid()}.") and name.endswith(".tmp") for name in temps
    )
    assert os.listdir(tmp_path) == ["out.csv"]


def test_stale_temp_file_is_skipped_and_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonio, "_temp_ids", itertools.count())
    stale = tmp_path / f"out.json.{os.getpid()}.0.tmp"
    stale.write_text("left by a dead process\n")
    write_json(tmp_path / "out.json", {"v": 1})
    assert (tmp_path / "out.json").read_text() == '{\n  "v": 1\n}\n'
    assert stale.read_text() == "left by a dead process\n"


def test_written_files_get_the_umask_permissions(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    write_csv(tmp_path / "out.csv", ["a"], [(1,)])
    write_json(tmp_path / "out.json", [])
    for name in ("out.csv", "out.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask
