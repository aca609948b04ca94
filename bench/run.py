#!/usr/bin/env python3
"""Benchmark of the ssaforecast command-line program.

    python3 bench/run.py --workload sunspot-pipeline --seed 1 --seconds 35 --trace 0
    python3 -m pytest -q bench/test_bench.py     # smoke test of the benchmark

Runs the workload's CLI commands in this process (``ssaforecast.cli.main``,
from the ``src/`` tree next to this directory) iteration after iteration for
``--seconds``, checks every command's outputs, and prints a JSON report
followed by one JSON line ``{"correct", "attempted", "failed", "metrics"}``,
where attempted and failed count commands.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json from
untraced iterations.  ``--trace 1`` alternates untraced and traced
iterations on each round and reports the per-layer metrics named there:
medians over the traced iterations, plus the tracing overhead (traced minus
untraced ``wall_s``).  Its spans are written to
``bench/out/spans-<workload>.csv``.  A traced run whose workload leaves an
expected span unhit exits with code 1.

The workload seed fixes every input: the sunspot training seeds, the compare
seed list and the generated decompose-wide series.  bench/layer_map.json says
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ssaforecast  # noqa: E402
from ssaforecast import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
MIN_ITERATIONS = 3
# report-only metrics: the ones BENCHMARK.json cannot list because some
# workload never produces them
REPORTED_UNITS = {
    "decompose_s": "s",
    "train_s": "s",
    "epochs_per_s": "1/s",
    "validation_mse": "1",
    "forecast_rmse": "units",
}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(os.times()[:4])


def call_cli(argv) -> tuple[int, str]:
    """Run one command; returns its exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught traceback is a failed command
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue()


class Run:
    """Iterations of one workload, with the artifact digests of the first
    iteration of each round as the byte-identity reference."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.iterations: list[dict] = []
        self.reference: dict[tuple[int, int], dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def iterate(self, round_index: int, tracer: tracing.Tracer | None = None) -> None:
        index = len(self.iterations)
        steps = self.workload.rounds[round_index]
        workloads.clear_outputs(steps)
        record = {"traced": tracer is not None, "wall_s": 0.0, "cpu_s": 0.0, "commands": {},
                  "facts": {}}
        with tracer.installed(index) if tracer else contextlib.nullcontext():
            for step_index, step in enumerate(steps):
                cpu_start, start = _cpu_seconds(), time.perf_counter()
                code, printed = call_cli(step.argv)
                seconds = time.perf_counter() - start
                record["cpu_s"] += _cpu_seconds() - cpu_start
                record["wall_s"] += seconds
                commands = record["commands"]
                commands[step.command] = commands.get(step.command, 0.0) + seconds
                self._check(round_index, step_index, step, code, printed, record)
        self.iterations.append(record)

    def _check(self, round_index, step_index, step, code, printed, record) -> None:
        self.attempted += 1
        problems = [f"{step.command}: exit code {code}: {printed.strip()[-300:]}"]
        if code == 0:
            problems, facts = workloads.check(step)
            record["facts"].update(facts)
            digest = workloads.digests(step)
            expected = self.reference.setdefault((round_index, step_index), digest)
            if digest != expected:
                changed = sorted(
                    k for k in expected.keys() | digest.keys() if expected.get(k) != digest.get(k)
                )
                problems.append(f"{step.command}: {', '.join(changed)} differ from the first run")
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    git = ["git", "-C", str(ROOT)]
    try:
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                check=True, timeout=30).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        **{f"git_{k}": v for k, v in _git().items()},
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


SETUP_CODE = "import sys\nfrom ssaforecast.cli import load_config\nload_config(sys.argv[1])"


class SetupTimer:
    """Wall time of fresh interpreters that import the CLI and load the
    workload's config: what every CLI call pays before doing any work."""

    def __init__(self, config_path: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p
        )
        self.argv = [sys.executable, "-c", SETUP_CODE, config_path]
        self.samples: list[float] = []
        # the first interpreter also writes the bytecode cache, so it is not timed
        self._spawn()

    def _spawn(self) -> None:
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    def sample(self) -> None:
        start = time.perf_counter()
        self._spawn()
        self.samples.append(time.perf_counter() - start)


def measure(run: Run, seconds: float, tracer: tracing.Tracer | None = None,
            setup: SetupTimer | None = None) -> None:
    """Iterate over the workload's rounds in turn until `seconds` have passed.
    A traced run repeats each round untraced, then traced.  Setup samples
    are taken between iterations, so they spread over the run as the
    iterations do."""
    rounds = len(run.workload.rounds)
    start = time.perf_counter()
    count = 0
    last = 0.0
    # stop when the next iteration would more likely end after the deadline
    while count < MIN_ITERATIONS or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        round_index = count % rounds
        run.iterate(round_index)
        if tracer is not None:
            run.iterate(round_index, tracer)
            run.iterations[-1]["layers"] = tracer.metrics()
        count += 1
        last = time.perf_counter() - began
        if setup is not None and len(setup.samples) < SETUP_SAMPLES:
            setup.sample()
    while setup is not None and len(setup.samples) < SETUP_SAMPLES:
        setup.sample()


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    """Gated metrics (BENCHMARK.json end_to_end) and the report-only ones."""
    its = run.iterations
    gated = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in its),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in its],
        "decompose_s": [r["commands"]["decompose"] for r in its if "decompose" in r["commands"]],
        "train_s": [r["commands"]["train"] for r in its if "train" in r["commands"]],
        "epochs_per_s": [r["facts"]["epochs"] / r["wall_s"] for r in its
                         if "epochs" in r["facts"]],
        "validation_mse": [r["facts"]["validation_mse"] for r in its
                           if "validation_mse" in r["facts"]],
        "forecast_rmse": [r["facts"]["forecast_rmse"] for r in its
                          if "forecast_rmse" in r["facts"]],
    }
    units = {"setup_s": "s", "wall_s": "s", **REPORTED_UNITS}
    report = {name: {**_quartiles(v), "unit": units[name]} for name, v in samples.items() if v}
    report["peak_rss_mb"] = {"value": gated["peak_rss_mb"], "unit": "MiB"}
    report["error_rate"] = {"value": run.failed / run.attempted, "unit": "ratio",
                            "failed": run.failed, "attempted": run.attempted}
    return gated, report


def per_layer(run: Run) -> dict:
    traced = [r for r in run.iterations if r["traced"]]
    plain = [r for r in run.iterations if not r["traced"]]
    # median_low keeps counts whole: it returns one of the measured values
    metrics = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    metrics["proc.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in plain)
    # iterations alternate untraced/traced on the same round
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)
    )
    return metrics


class SelfCheckFailed(Exception):
    """The benchmark cannot vouch for its own numbers."""


def benchmark(workload: workloads.Workload, seconds: float, trace: bool,
              units: dict[str, str]) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the report."""
    run = Run(workload)
    report = {
        "workload": workload.name,
        "trace": int(trace),
        "training_seeds": sorted(
            {s for steps in workload.rounds for step in steps for s in _seeds(step.config)}
        ),
        "fingerprint": fingerprint(),
    }
    if trace:
        tracer = tracing.Tracer()
        measure(run, seconds, tracer=tracer)
        tracer.write_spans(OUT / f"spans-{workload.name}.csv")
        unhit = tracer.unhit(workload.spans)
        if unhit:
            raise SelfCheckFailed(f"tracer self-check: no calls reached {', '.join(unhit)}")
        metrics = report["per_layer"] = per_layer(run)
    else:
        setup = SetupTimer(workload.rounds[0][0].argv[2])
        measure(run, seconds, setup=setup)
        metrics, report["end_to_end"] = end_to_end(run, setup.samples)
    if set(metrics) != set(units):
        raise SelfCheckFailed(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    report["problems"] = run.problems[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, report


def _seeds(config: dict) -> list[int]:
    if "seeds" in config:
        return config["seeds"]
    return [config["seed"]] if "seed" in config else []


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(ssaforecast.__file__).resolve().is_relative_to(SRC):
        print(f"bench: ssaforecast imported from {ssaforecast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        result, report = benchmark(workload, args.seconds, bool(args.trace), units)
    except SelfCheckFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["seed"] = args.seed
    print(json.dumps(report, indent=1))
    for problem in report["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
