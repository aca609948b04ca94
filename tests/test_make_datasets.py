"""scripts/make_datasets.py regenerates the committed data files byte for byte."""

import importlib.util

import numpy as np

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.jsonio import write_csv


def load_script(repo_root):
    spec = importlib.util.spec_from_file_location(
        "make_datasets", repo_root / "scripts" / "make_datasets.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sunspot_generator_rewrites_committed_csv(repo_root, tmp_path):
    ts, values = load_script(repo_root).synthetic_sunspot_series(792, 1944.0, 1944)
    write_csv(tmp_path / "sunspots.csv", ["time", "sunspots"], zip(ts, values))
    expected = (repo_root / "data" / "sunspots_monthly.csv").read_bytes()
    assert (tmp_path / "sunspots.csv").read_bytes() == expected


def test_two_sine_benchmark_rewrites_committed_csv(repo_root, tmp_path):
    write_csv(tmp_path / "two_sine.csv", ["time", "value"],
              zip(np.arange(600.0), two_sine_benchmark(600, 0)))
    expected = (repo_root / "tests" / "fixtures" / "benchmark_two_sine.csv").read_bytes()
    assert (tmp_path / "two_sine.csv").read_bytes() == expected
