#!/usr/bin/env python3
"""Compare what a parent commit's commands write and print with this
checkout's.

    python3 scripts/artifact_digests.py PARENT_REF

Exports PARENT_REF's committed files (`bench_pairs.export`), writes the
inputs into one temporary directory, and runs the command list there with
each side's ``src/`` on PYTHONPATH, in a subprocess per command: the parent
first, then this checkout, with what the parent wrote removed in between.
Both sides run in the same directory, so the paths that ``config_echo``
records are the same.  The commands are the golden commands of
regen_goldens.py; a compare on the golden config that diverges in the curve;
a decompose of ``two_sine_benchmark(2000, 1)`` at window 65, whose 132,000
cells take the lane writer on more than one CPU and whose 65 components end
in a reconstruction block of one column; and a decompose of
``two_sine_benchmark(4000, 1)`` at window 256, whose components fill 16 whole
blocks (``ssa.RECONSTRUCT_BLOCK``); a 300-step predict, whose forecast.csv is
a table of 300 rows; and the JSON reader's failures: a config file and a
network file holding ``{`` (exit 2 and exit 1) and a missing network file
(exit 2); a train with a negative patience (exit 2); and three trains that
write trace.csv along the other paths of the trace: one that diverges at
epoch 23 (exit 1, a 22-row partial trace), a baseline of one 320-epoch
stage, and one with a budget of 10^9 epochs per stage that early stopping
ends after 38,674 epochs in all, which a trainer that preallocated its
budget could not run; and every way a run draws its validation splits, at
fraction 0.25 and seeds other than the golden one: a train, whose stages
each re-draw their split, and a compare at pc_step 1, whose seeds hand one
split to both arms and whose curve scores on its first stage's split.

Prints each artifact (by sha256), exit code, stdout and stderr that differs
between the sides and exits 1 if any does; prints what it compared and exits
0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import regen_goldens  # puts this checkout's src/ on sys.path
from bench_pairs import export

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.jsonio import write_csv

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
COMMANDS = (
    *(argv for argv, _ in regen_goldens.COMMANDS),
    ["compare", "--config", "golden_config.json", "--set", "stage_lr=1e6",
     "--set", "stage_momentum=0"],
    ["decompose", "--config", "golden_config.json", "--set", "input_csv=wide.csv",
     "--set", "window=65", "--set", "output_dir=wide"],
    ["decompose", "--config", "golden_config.json", "--set", "input_csv=wide4000.csv",
     "--set", "window=256", "--set", "output_dir=wide4000"],
    ["predict", "--config", "golden_config.json", "--network", "out/network.json",
     "--set", "horizon=300", "--set", "output_dir=long"],
    ["decompose", "--config", "broken.json"],
    ["predict", "--config", "golden_config.json", "--network", "broken.json"],
    ["predict", "--config", "golden_config.json", "--network", "missing.json"],
    ["train", "--config", "golden_config.json", "--set", "patience=-1"],
    ["train", "--config", "golden_config.json", "--set", "stage_lr=1e6",
     "--set", "stage_momentum=0", "--set", "output_dir=diverged"],
    ["train", "--config", "golden_config.json", "--mode", "baseline",
     "--set", "output_dir=baseline"],
    ["train", "--config", "golden_config.json", "--set", "stage_epochs=1000000000",
     "--set", "patience=200", "--set", "output_dir=unbounded"],
    ["train", "--config", "golden_config.json", "--set", "validation_fraction=0.25",
     "--set", "seed=7", "--set", "output_dir=fraction"],
    ["compare", "--config", "golden_config.json", "--set", "validation_fraction=0.25",
     "--set", "seeds=3,4", "--set", "pc_step=1", "--set", "output_dir=fraction"],
)


def write_inputs(workdir: Path) -> None:
    for name in ("golden_config.json", "tiny_series.csv"):
        shutil.copy(FIXTURES / name, workdir / name)
    for name, n in (("wide.csv", 2000), ("wide4000.csv", 4000)):
        values = two_sine_benchmark(n, 1)
        write_csv(workdir / name, ["time", "value"], enumerate(values.tolist()))
    (workdir / "broken.json").write_text("{")


def digests(workdir: Path) -> dict[str, str]:
    return {
        str(path.relative_to(workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }


def run_side(src: Path, workdir: Path) -> dict:
    """Each command's exit code, stdout and stderr, and the sha256 of each
    file it writes or changes (None for one it removes), with `src` on
    PYTHONPATH; what the commands wrote is removed after."""
    inputs = set(os.listdir(workdir))
    env = {**os.environ, "PYTHONPATH": str(src)}
    before, record = digests(workdir), {}
    for i, argv in enumerate(COMMANDS, start=1):
        proc = subprocess.run([sys.executable, "-m", "ssaforecast.cli", *argv], cwd=workdir,
                              env=env, capture_output=True)
        step = f"command {i} ({argv[0]})"
        record.update({f"{step} exit code": proc.returncode, f"{step} stdout": proc.stdout,
                       f"{step} stderr": proc.stderr})
        after = digests(workdir)
        record.update({f"{step} {name}": after.get(name)
                       for name in sorted(before.keys() | after.keys())
                       if after.get(name) != before.get(name)})
        before = after
    for name in set(os.listdir(workdir)) - inputs:
        path = workdir / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent, workdir = Path(tmp) / "parent", Path(tmp) / "run"
        export(args.parent, parent)
        workdir.mkdir()
        write_inputs(workdir)
        sides = {"parent": run_side(parent / "src", workdir),
                 "change": run_side(ROOT / "src", workdir)}
    keys = list({**sides["parent"], **sides["change"]})
    differ = [key for key in keys if sides["parent"].get(key) != sides["change"].get(key)]
    for key in differ:
        print(f"differs: {key}: parent {sides['parent'].get(key)!r}, "
              f"change {sides['change'].get(key)!r}")
    artifacts = sum(not key.endswith(("exit code", "stdout", "stderr")) for key in keys)
    print(f"{len(COMMANDS)} commands, {artifacts} artifacts: {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
