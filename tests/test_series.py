import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaforecast.errors import (
    BadFraction,
    EmbeddingTooLarge,
    NonMonotonicTime,
    NonUniformSpacing,
    ParseError,
    ZeroVariance,
)
from ssaforecast.series import (
    RawSeries,
    build_embedding,
    destandardize,
    load_csv,
    split_validation,
    standardize,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# -- load_csv --------------------------------------------------------------

def test_load_csv_basic(tmp_path):
    p = write_csv(tmp_path / "a.csv", "time,value\n1944.0,10.5\n1944.083,12.0\n")
    raw = load_csv(p, "value", "time")
    assert raw.n == 2
    assert raw.values.tolist() == [10.5, 12.0]


def test_load_csv_non_numeric_cell(tmp_path):
    p = write_csv(tmp_path / "a.csv", "time,value\n1.0,10.5\n2.0,oops\n3.0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(p, "value", "time")
    assert err.value.row == 2
    assert err.value.column == "value"


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "a.csv", "time,value\n1.0,2.0\n")
    with pytest.raises(ParseError):
        load_csv(p, "flux", "time")


def test_load_csv_duplicate_timestamp(tmp_path):
    p = write_csv(tmp_path / "a.csv", "time,value\n1.0,2.0\n1.0,3.0\n")
    with pytest.raises(NonMonotonicTime) as err:
        load_csv(p, "value", "time")
    assert err.value.row == 2


def test_raw_series_reports_sample_number():
    # the same 1-based numbering as a CSV's data rows
    with pytest.raises(NonMonotonicTime) as err:
        RawSeries([1.0, 1.0], [2.0, 3.0])
    assert err.value.row == 2
    with pytest.raises(NonMonotonicTime) as err:
        RawSeries([0.0, 1.0, 2.0, 1.5], [0.0, 0.0, 0.0, 0.0])
    assert err.value.row == 4


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", "value", "time")


def test_load_csv_non_finite_value(tmp_path):
    p = write_csv(tmp_path / "a.csv", "time,value\n1.0,2.0\n2.0,nan\n")
    with pytest.raises(ParseError):
        load_csv(p, "value", "time")


def test_sunspot_fixture_row_count(sunspot_csv):
    # 66 years of monthly data
    raw = load_csv(sunspot_csv, "sunspots", "time")
    assert raw.n == 792


def test_raw_series_rejects_irregular_spacing():
    with pytest.raises(NonUniformSpacing):
        RawSeries(np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.0, 3.0]))


# -- standardize / destandardize -------------------------------------------

def test_standardize_two_points():
    std = standardize(RawSeries(np.array([0.0, 1.0]), np.array([1.0, 3.0])))
    assert std.values.tolist() == [-1.0, 1.0]
    assert std.mean == 2.0
    assert std.scale == 1.0
    # same shape at a different offset: [2, 4] has mean 3, same unit scale
    std2 = standardize(np.array([2.0, 4.0]))
    assert std2.values.tolist() == [-1.0, 1.0]
    assert std2.mean == 3.0
    assert std2.scale == 1.0


def test_standardize_constant_rejected():
    with pytest.raises(ZeroVariance):
        standardize(RawSeries(np.array([0.0, 1.0, 2.0]), np.array([5.0, 5.0, 5.0])))


def test_standardize_four_points():
    std = standardize(np.array([1.0, 2.0, 3.0, 4.0]))
    assert std.mean == pytest.approx(2.5)
    assert std.scale == pytest.approx(math.sqrt(1.25))
    np.testing.assert_allclose(
        std.values, [-1.3416407865, -0.4472135955, 0.4472135955, 1.3416407865], atol=1e-9
    )


def test_destandardize_examples():
    np.testing.assert_allclose(destandardize([-1.0, 1.0], 2.0, 1.0), [1.0, 3.0])
    np.testing.assert_allclose(destandardize([0.0], 7.0, 3.0), [7.0])


def test_destandardize_round_trip():
    std = standardize(np.array([1.0, 2.0, 3.0, 4.0]))
    back = destandardize(std.values, std.mean, std.scale)
    np.testing.assert_allclose(back, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=200
    ).filter(lambda xs: max(xs) - min(xs) > 1e-6)
)
def test_standardize_destandardize_identity(xs):
    arr = np.array(xs)
    std = standardize(arr)
    assert abs(float(np.mean(std.values))) < 1e-10
    assert abs(float(np.mean(std.values**2)) - 1.0) < 1e-10
    back = destandardize(std.values, std.mean, std.scale)
    scale = max(1.0, float(np.max(np.abs(arr))))
    assert np.max(np.abs(back - arr)) < 1e-12 * scale


# -- build_embedding ---------------------------------------------------------

def test_embedding_enumeration():
    inputs, targets = build_embedding(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert inputs.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    assert targets.tolist() == [3.0, 4.0]


def test_embedding_too_large():
    with pytest.raises(EmbeddingTooLarge):
        build_embedding(np.arange(5.0), 5)


def test_embedding_count_sunspot_scale():
    _, targets = build_embedding(np.arange(792.0), 5)
    assert targets.size == 787


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=60))
def test_embedding_flatten_reproduces_series(m, extra):
    n = m + extra
    series = np.sin(np.arange(n) * 0.7)
    inputs, targets = build_embedding(series, m)
    assert targets.size == n - m
    np.testing.assert_array_equal(targets, series[m:])
    for i in range(targets.size):
        np.testing.assert_array_equal(inputs[i], series[i : i + m])


# -- split_validation --------------------------------------------------------

def test_split_sizes_ten_percent():
    train, validation = split_validation(100, 0.10, seed=3)
    assert validation.size == 10
    assert train.size == 90


def test_split_deterministic():
    a = split_validation(100, 0.10, seed=1234)
    b = split_validation(100, 0.10, seed=1234)
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[0], b[0])


def test_split_seeds_differ():
    differing = 0
    for s in range(100):
        a = split_validation(100, 0.10, seed=2 * s)
        b = split_validation(100, 0.10, seed=2 * s + 1)
        if a[1].tolist() != b[1].tolist():
            differing += 1
    assert differing >= 99


def test_split_bad_fraction():
    for f in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(BadFraction):
            split_validation(18, f, seed=0)


def test_split_of_fewer_than_two_pairs_is_a_validation_error():
    # an embedding that leaves 1 or no pairs meets this check first in the library
    for count in (1, 0, -3):
        with pytest.raises(EmbeddingTooLarge, match="at least 2"):
            split_validation(count, 0.10, seed=0)


def test_split_minimum_one_validation_pair():
    _, validation = split_validation(10, 0.01, seed=0)
    assert validation.size == 1


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=300),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=0, max_value=2**32),
)
def test_split_is_partition(count, fraction, seed):
    _, targets = build_embedding(np.arange(float(count + 3)), 3)
    assert targets.size == count
    train, validation = split_validation(count, fraction, seed)
    merged = np.concatenate([train, validation])
    assert sorted(merged.tolist()) == list(range(count))
    assert train.size + validation.size == count
    assert train.size >= 1 and validation.size >= 1


def test_embedding_is_a_read_only_view_of_the_series():
    series = np.arange(10.0)
    inputs, targets = build_embedding(series, 3)
    assert np.shares_memory(inputs, series) and np.shares_memory(targets, series)
    assert not inputs.flags.writeable and not targets.flags.writeable
