"""scripts/bench_pairs.py's verdict, on canned runs in place of bench/run.py."""

import importlib.util
import json

import pytest


def load_script(repo_root):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", repo_root / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("change_failed, verdict", [(0, "gain"), (1, "no gain shown")])
def test_gain_needs_no_more_failures_than_parent(repo_root, monkeypatch, capsys,
                                                 change_failed, verdict):
    bench_pairs = load_script(repo_root)
    spec = json.loads((repo_root / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    parent_dir = []

    def fake_run(checkout, workload, seed, seconds):
        # the change is 20% better than the parent on every metric, every pair
        is_parent = checkout in parent_dir
        scale = 1.0 if is_parent else 0.8
        return {
            "failed": 0 if is_parent else change_failed,
            "attempted": 10,
            "metrics": {
                name: {"value": (100.0 + seed) * (scale if low else 2.0 - scale)}
                for name, low in lower.items()
            },
        }

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: parent_dir.append(dest))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["HEAD", "--workload", "w", "--pairs", "10", "--seconds", "1"]) == 0
    verdicts = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith("verdict:")]
    assert verdicts == [verdict] * len(lower)
