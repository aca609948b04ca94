#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

    python3 scripts/bench_pairs.py PARENT_REF --workload W [--pairs 10] [--seed 1] [--seconds S]
                                   [--json PATH]

Exports PARENT_REF's committed files into a temporary directory, then runs
``bench/run.py --trace 0`` of each side alternately, `--pairs` times, with
the side that goes first alternating from pair to pair.  Pair i gives both
sides the workload seed `--seed` + i; `--seconds` defaults to BENCHMARK.json's
``run_seconds``.  For each end-to-end metric in BENCHMARK.json it prints
every pair with its change/parent ratio, each side's median and quartiles,
those of the ratios, the number of pairs the checkout wins (ties count for
neither side), and whether the gap between the medians exceeds the parent's
interquartile range.  The ratio compares the two sides on one workload seed,
so it separates the change from the work that differs from seed to seed,
which the parent's interquartile range mixes in.

The verdict is, in this order: "gain" with at least nine wins in ten, that
gap and no more failed operations than the parent; "regression" when the
change's median is worse than the parent's by more than the metric's bound;
"unresolved" when the parent's interquartile range exceeds the bound
relative to its median, so the runs spread too widely to tell, unless every
change run beats every parent run; "no gain shown" otherwise.

``--json PATH`` also writes all of that to PATH, for a committed bench
trajectory: per metric the pair values, each side's and the ratios' median
and quartiles, the wins and the verdict; each side's failed and attempted
operations; and each side's toolchain fingerprint from the report of its
first run.

Each side's ``src/`` line count, the newlines in ``src/**/*.py`` as
``wc -l`` counts them, is printed with the header and recorded under
``src_lines``, so that the code a change deletes or adds is read next to its
timings.

Each run's median time per decompose and per train command, which the
report of bench/run.py gives but does not gate, is printed pair by pair
and recorded under ``command_s``, so that a change to one command shows
where a workload runs it.

The parent is exported with ``git archive`` rather than checked out as a
worktree, so the run registers nothing in the repository and leaves nothing
behind.  Nothing under bench/ and not BENCHMARK.json is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# report-only command timings of bench/run.py, shown pair by pair
COMMAND_TIMES = ("decompose_s", "train_s")


def export(ref: str, dest: Path) -> None:
    """The committed files of `ref` under `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(checkout: Path) -> int:
    """The newlines in the checkout's src/**/*.py, the total of `wc -l`."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics line of one untraced benchmark run, with the toolchain
    fingerprint and the command timings of the report printed before it;
    exits on a failed run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    *report, result = proc.stdout.strip().splitlines()
    report = json.loads("\n".join(report))
    commands = {name: report["end_to_end"][name]["median"] for name in COMMAND_TIMES
                if name in report["end_to_end"]}
    return {**json.loads(result), "fingerprint": report["fingerprint"], "command_s": commands}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}
        lines = {side: src_lines(checkout) for side, checkout in sides.items()}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(sides[side], args.workload, args.seed + i, seconds))
            print(f"pair {i + 1}/{args.pairs} (seed {args.seed + i}, {order[0]} first) done",
                  file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s per run, parent {args.parent}")
    print(f"  src/ lines: parent {lines['parent']}, change {lines['change']}")
    seeds = [args.seed + i for i in range(args.pairs)]
    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    attempted = {side: sum(r["attempted"] for r in results) for side, results in runs.items()}
    for side in runs:
        print(f"  {side}: {failed[side]} of {attempted[side]} operations failed")
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in runs["parent"]]
        after = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [a / b for a, b in zip(after, before)]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        p1, pm, p3 = quartiles(before)
        c1, cm, c3 = quartiles(after)
        r1, rm, r3 = quartiles(ratios)
        change = (cm - pm) / pm if pm else 0.0
        worse = change if lower else -change
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:g})")
        for seed, b, a, ratio in zip(seeds, before, after, ratios):
            print(f"  seed {seed:3d}: parent {b:.6g}  change {a:.6g}  ratio {ratio:.4f}")
        print(f"  parent median {pm:.6g} [q1 {p1:.6g}, q3 {p3:.6g}]")
        print(f"  change median {cm:.6g} [q1 {c1:.6g}, q3 {c3:.6g}]  ({change:+.1%})")
        print(f"  change/parent ratio median {rm:.4f} [q1 {r1:.4f}, q3 {r3:.4f}]")
        print(f"  change wins {wins}/{args.pairs}; |median gap| {abs(cm - pm):.4g} vs parent "
              f"IQR {p3 - p1:.4g}")
        # a change that fails more operations than the parent shows no gain
        gain = (wins >= 0.9 * args.pairs and abs(cm - pm) > p3 - p1 and worse < 0
                and failed["change"] <= failed["parent"])
        separated = max(after) < min(before) if lower else min(after) > max(before)
        unresolved = p3 - p1 > metric["bound"] * pm and not separated
        verdict = ("gain" if gain else "regression" if worse > metric["bound"]
                   else "unresolved" if unresolved else "no gain shown")
        print(f"  verdict: {verdict}")
        summary[name] = {
            **metric,
            "parent": {"values": before, "q1": p1, "median": pm, "q3": p3},
            "change": {"values": after, "q1": c1, "median": cm, "q3": c3},
            "ratio": {"values": ratios, "q1": r1, "median": rm, "q3": r3},
            "relative_change": change, "change_wins": wins, "verdict": verdict,
        }
    command_s = {}
    for name in COMMAND_TIMES:
        pairs = [(b["command_s"].get(name), a["command_s"].get(name))
                 for b, a in zip(runs["parent"], runs["change"])]
        if any(None in pair for pair in pairs):
            continue
        print(f"\n{name} (s, median per command, not gated)")
        for seed, (b, a) in zip(seeds, pairs):
            print(f"  seed {seed:3d}: parent {b:.6g}  change {a:.6g}  ratio {a / b:.4f}")
        command_s[name] = {"parent": [b for b, _ in pairs], "change": [a for _, a in pairs]}
    if args.json:
        record = {
            "workload": args.workload, "parent": args.parent, "pairs": args.pairs,
            "seconds": seconds, "seeds": seeds, "src_lines": lines, "failed": failed,
            "attempted": attempted,
            "fingerprint": {side: results[0]["fingerprint"] for side, results in runs.items()},
            "metrics": summary, "command_s": command_s,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
