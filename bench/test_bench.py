"""Smoke test of the benchmark itself, on the tiny fixture series.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # also puts the src/ tree next to bench/ on sys.path
import workloads
from ssaforecast import cli

FIXTURES = run.ROOT / "tests" / "fixtures"


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_pipeline(work) -> workloads.Workload:
    """decompose -> train -> predict at the golden_config.json sizes."""
    config = json.loads((FIXTURES / "golden_config.json").read_text(encoding="utf-8"))
    config["input_csv"] = str(FIXTURES / "tiny_series.csv")
    return workloads.Workload(
        "tiny-pipeline", (workloads.pipeline_round(work, config),), workloads.PIPELINE_SPANS
    )


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace):
    units = run.metric_units(trace)
    section = _spec()["per_layer" if trace else "end_to_end"]
    assert units == {m["name"]: m["unit"] for m in section}
    result, report = run.benchmark(tiny_pipeline(tmp_path), 0.0, trace, units)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        reported = report["end_to_end"]
        for name, unit in {**run.REPORTED_UNITS, "error_rate": "ratio"}.items():
            if name != "forecast_rmse":  # only compare holds out a forecast horizon
                assert reported[name]["unit"] == unit
        assert reported["error_rate"]["value"] == 0.0


def _corrupting(edit):
    """cli.main that rewrites network.json after the second train command."""
    original = cli.main
    trains = []

    def main(argv):
        code = original(argv)
        if argv[0] == "train":
            trains.append(argv)
            if len(trains) == 2:
                config = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
                path = Path(config["output_dir"]) / "network.json"
                payload = json.loads(path.read_text(encoding="utf-8"))
                edit(payload)
                path.write_text(json.dumps(payload), encoding="utf-8")
        return code

    return main


def _nudge_bias(payload):
    payload["hidden_biases"][0] += 1e-3


def _nan_bias(payload):
    payload["output_bias"] = [float("nan")]


# a nudged bias is still a valid network, so only the byte-identity check
# catches it; a NaN bias fails the network check as well
@pytest.mark.parametrize("edit", [_nudge_bias, _nan_bias], ids=["changed-bytes", "non-finite"])
def test_corrupted_artifact_counts_as_failed(tmp_path, monkeypatch, edit):
    monkeypatch.setattr(cli, "main", _corrupting(edit))
    result, report = run.benchmark(tiny_pipeline(tmp_path), 0.0, False, run.metric_units(False))
    assert not result["correct"]
    assert result["attempted"] == 9
    assert result["failed"] >= 1
    assert any(p.startswith("train:") for p in report["problems"])
    assert report["end_to_end"]["error_rate"]["value"] == result["failed"] / 9


def test_tracer_self_check_fails_on_unhit_span(tmp_path):
    base = tiny_pipeline(tmp_path)
    workload = workloads.Workload(base.name, base.rounds, base.spans + ("cli.cmd_compare",))
    with pytest.raises(run.SelfCheckFailed, match="cli.cmd_compare"):
        run.benchmark(workload, 0.0, True, run.metric_units(True))


def test_layer_map_names_known_metrics_and_workloads():
    layer_map = json.loads((run.ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))
    spec = _spec()
    layers = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | set(run.REPORTED_UNITS)
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for entry in layer_map["predictions"]:
        assert set(entry["layers"]) <= layers
        assert set(entry["moves"]) | set(entry["unchanged"]) <= names
        for metrics in entry["moves"].values():
            assert set(metrics) <= end_to_end
