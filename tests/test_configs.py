"""The committed experiment configs in configs/: each loads, runs from the
repo root as README shows, and agrees with the benchmark's copy of it."""

import json
from pathlib import Path

import pytest

from ssaforecast.cli import main
from ssaforecast.config import load_config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import workloads

    return workloads


def committed(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def same_file(bench_path: str, repo_relative: str) -> bool:
    return Path(bench_path).resolve() == (REPO / repo_relative).resolve()


def test_bench_sunspot_config_is_the_committed_one(workloads):
    config = committed("sunspot.json")
    bench = workloads.SUNSPOT_CONFIG
    assert same_file(bench["input_csv"], config["input_csv"])
    rest = {k: v for k, v in config.items() if k not in ("input_csv", "output_dir")}
    assert {k: v for k, v in bench.items() if k != "input_csv"} == rest


def test_bench_compare_config_is_the_committed_one(workloads):
    # the bench cuts stage_epochs on purpose and passes its own seeds
    config = committed("two_sine_compare.json")
    bench = workloads.COMPARE_CONFIG
    assert same_file(bench["input_csv"], config["input_csv"])
    for key in bench.keys() - {"input_csv", "stage_epochs"}:
        assert bench[key] == config[key], key


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_committed_config_loads(path):
    config, _ = load_config(path)
    assert (REPO / config.input_csv).is_file()


@pytest.mark.parametrize("argv", [
    ["decompose", "--config", "configs/sunspot.json"],
    ["compare", "--config", "configs/two_sine_compare.json",
     "--set", "stage_epochs=2", "--set", "seeds=0"],
], ids=lambda argv: argv[0])
def test_readme_command_runs_from_repo_root(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(REPO)
    assert main([*argv, "--set", f"output_dir={tmp_path}"]) == 0
    assert any(tmp_path.iterdir())
