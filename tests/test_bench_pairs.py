"""scripts/bench_pairs.py's verdict and record, on canned runs in place of
bench/run.py."""

import importlib.util
import json
import subprocess

import pytest


def load_script(repo_root):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", repo_root / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("change_failed, verdict", [(0, "gain"), (1, "no gain shown")])
def test_gain_needs_no_more_failures_than_parent(repo_root, tmp_path, monkeypatch, capsys,
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
            "fingerprint": {"numpy": "parent" if is_parent else "change"},
            "metrics": {
                name: {"value": (100.0 + seed) * (scale if low else 2.0 - scale)}
                for name, low in lower.items()
            },
            "command_s": {"decompose_s": seed * scale},
        }

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: parent_dir.append(dest))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--workload", "w", "--pairs", "10", "--seconds", "1",
                             "--json", str(out)]) == 0
    verdicts = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith("verdict:")]
    assert verdicts == [verdict] * len(lower)

    record = json.loads(out.read_text())
    assert (record["workload"], record["parent"], record["pairs"]) == ("w", "HEAD", 10)
    assert record["seeds"] == list(range(1, 11))
    assert record["failed"] == {"parent": 0, "change": 10 * change_failed}
    assert record["attempted"] == {"parent": 100, "change": 100}
    assert record["fingerprint"] == {side: {"numpy": side} for side in ("parent", "change")}
    assert set(record["metrics"]) == set(lower)
    # a timing no run reports (train_s here) is left out
    assert record["command_s"] == {"decompose_s": {
        "parent": list(range(1, 11)), "change": pytest.approx([0.8 * s for s in range(1, 11)])}}
    for name, low in lower.items():
        entry = record["metrics"][name]
        # seed s gives the parent 100 + s, the change 20% better
        parent = [100.0 + s for s in range(1, 11)]
        change = [v * (0.8 if low else 1.2) for v in parent]
        assert entry["parent"]["values"] == parent
        assert entry["change"]["values"] == pytest.approx(change)
        assert [entry["parent"][k] for k in ("q1", "median", "q3")] == [102.75, 105.5, 108.25]
        assert entry["change"]["median"] == pytest.approx(105.5 * (0.8 if low else 1.2))
        assert entry["relative_change"] == pytest.approx(-0.2 if low else 0.2)
        assert (entry["change_wins"], entry["verdict"]) == (10, verdict)


def run_canned(repo_root, tmp_path, monkeypatch, capsys, value):
    """main over 10 pairs of canned runs, where `value(is_parent, seed)` is a
    run's reading of every lower-is-better metric (a higher-is-better one
    reads its reciprocal, times 1e4); the printed verdicts and the --json
    record."""
    bench_pairs = load_script(repo_root)
    spec = json.loads((repo_root / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    parent_dir = []

    def fake_run(checkout, workload, seed, seconds):
        v = value(checkout in parent_dir, seed)
        return {"failed": 0, "attempted": 10, "fingerprint": {}, "command_s": {},
                "metrics": {name: {"value": v if low else 1e4 / v} for name, low in lower.items()}}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: parent_dir.append(dest))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--workload", "w", "--seconds", "1", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    verdicts = [line.split(": ", 1)[1] for line in printed.splitlines()
                if line.strip().startswith("verdict:")]
    return lower, printed, verdicts, json.loads(out.read_text())


def test_ratio_pairs_each_seed(repo_root, tmp_path, monkeypatch, capsys):
    # each seed's work differs by up to 2x, the change is 10% faster on every seed
    lower, printed, verdicts, record = run_canned(
        repo_root, tmp_path, monkeypatch, capsys,
        lambda is_parent, seed: (100.0 + 10.0 * seed) * (1.0 if is_parent else 0.9))
    assert printed.count("ratio 0.9000\n") == sum(lower.values()) * 10
    for name, low in lower.items():
        ratio = record["metrics"][name]["ratio"]
        expected = 0.9 if low else 1 / 0.9
        assert ratio["values"] == pytest.approx([expected] * 10)
        assert [ratio[k] for k in ("q1", "median", "q3")] == pytest.approx([expected] * 3)
    # the ratios agree, but the parent's spread over seeds is wider than every bound
    assert verdicts == ["unresolved"] * len(lower)


@pytest.mark.parametrize("change, verdict", [
    (lambda seed: 150.0 if seed % 2 else 50.0, "unresolved"),  # the parent's runs again
    (lambda seed: 40.0, "no gain shown"),  # better than every parent run, gap below the IQR
], ids=["overlapping", "separated"])
def test_unresolved_unless_every_change_run_is_better(repo_root, tmp_path, monkeypatch, capsys,
                                                       change, verdict):
    # the parent alternates 50 and 150: an IQR as large as its median
    lower, _, verdicts, record = run_canned(
        repo_root, tmp_path, monkeypatch, capsys,
        lambda is_parent, seed: (150.0 if seed % 2 else 50.0) if is_parent else change(seed))
    assert verdicts == [verdict] * len(lower)
    assert [m["verdict"] for m in record["metrics"].values()] == [verdict] * len(lower)


def test_src_line_counts_match_wc(repo_root, tmp_path, monkeypatch, capsys):
    bench_pairs = load_script(repo_root)

    def fake_export(ref, dest):
        # 3 + 2 newlines in .py files, one without a final newline; the
        # .txt file and the .py file outside src/ are not counted
        (dest / "src" / "pkg" / "sub").mkdir(parents=True)
        (dest / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
        (dest / "src" / "pkg" / "sub" / "b.py").write_text("z = 3\n\nw = 4")
        (dest / "src" / "pkg" / "notes.txt").write_text("1\n2\n3\n")
        (dest / "setup.py").write_text("\n" * 7)

    spec = json.loads((repo_root / "BENCHMARK.json").read_text())

    def fake_run(checkout, workload, seed, seconds):
        return {"failed": 0, "attempted": 1, "fingerprint": {}, "command_s": {},
                "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--workload", "w", "--pairs", "2", "--seconds", "1",
                             "--json", str(out)]) == 0
    sources = sorted((repo_root / "src").rglob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, sources)], capture_output=True, text=True,
                        check=True).stdout.splitlines()[-1].split()
    assert wc[1] == "total"
    lines = {"parent": 5, "change": int(wc[0])}
    assert json.loads(out.read_text())["src_lines"] == lines
    assert f"  src/ lines: parent 5, change {wc[0]}\n" in capsys.readouterr().out
