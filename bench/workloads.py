"""Benchmark workloads and the checks every command's outputs must pass.

A workload is a list of rounds; a round is the CLI commands of one iteration,
each with the config file it runs under.  Inputs (configs and generated
series) are written from the workload seed before any timing starts, and
every command of a round writes to a fixed output directory, so repeated
iterations of a round must produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.jsonio import write_csv
from ssaforecast.mlp import network_from_dict
from ssaforecast.ssa import COMPLETENESS_TOL

ROOT = Path(__file__).resolve().parents[1]

# same settings as scripts/run_sunspot_pipeline.py
SUNSPOT_CONFIG = {
    "input_csv": str(ROOT / "data" / "sunspots_monthly.csv"),
    "time_column": "time",
    "value_column": "sunspots",
    "window": 35,
    "embedding": 5,
    "hidden_units": 10,
    "pc_step": 2,
    "stage_epochs": 600,
    "stage_lr": 0.05,
    "stage_momentum": 0.9,
    "patience": 200,
    "validation_fraction": 0.10,
    "seed": 0,
    "horizon": 72,
}
# Early stopping makes the epoch count depend on the training seed (6,700 to
# 8,000 epochs over seeds 0-11), so one sunspot run takes its iterations in
# turn from this many seeds and its median does not hinge on one seed's
# stopping point.
SUNSPOT_SEEDS_PER_RUN = 4

# the shape of acceptance criterion 5, with stage_epochs cut from 600 to 40
# (8,800 epochs per iteration): iterations short enough for a run's median
# to rest on about ten of them, with the seeds + 1 decompositions still a
# fifth of the time, where decompose-once can show
COMPARE_CONFIG = {
    "input_csv": str(ROOT / "tests" / "fixtures" / "benchmark_two_sine.csv"),
    "window": 35,
    "embedding": 5,
    "hidden_units": 10,
    "pc_step": 2,
    "stage_epochs": 40,
    "stage_lr": 0.05,
    "stage_momentum": 0.9,
    "patience": 0,
    "validation_fraction": 0.10,
    "compare_horizon": 50,
}
COMPARE_SEEDS = 4

# (N, M) pairs above ssa.JACOBI_MAX_SIZE: the eigh + FFT side of decompose
WIDE_SHAPES = ((2000, 65), (3000, 128), (4000, 256))

ARTIFACTS = {
    "decompose": ("spectrum.json", "components.csv", "singular_spectrum.csv"),
    "train": ("trace.csv", "network.json", "summary.json"),
    "predict": ("forecast.csv", "forecast.json"),
    "compare": ("curve.csv", "comparison.json"),
}


@dataclass(frozen=True)
class Step:
    """One CLI command: ``ssaforecast.cli.main(argv)``."""

    argv: tuple[str, ...]
    config: dict
    out_dir: Path

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: tuple[tuple[Step, ...], ...]
    # spans a traced iteration must hit (see tracer.SPANS)
    spans: tuple[str, ...]


def _write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def pipeline_round(work: Path, config: dict) -> tuple[Step, ...]:
    """decompose -> train --mode curriculum -> predict, all into work/out."""
    config = {**config, "output_dir": str(work / "out")}
    path = str(_write_config(work / "run.json", config))
    out = work / "out"
    return (
        Step(("decompose", "--config", path), config, out),
        Step(("train", "--config", path, "--mode", "curriculum"), config, out),
        Step(("predict", "--config", path, "--network", str(out / "network.json")), config, out),
    )


PIPELINE_SPANS = (
    "cli.cmd_decompose", "cli.cmd_train", "cli.cmd_predict", "config.load_config",
    "series.load_csv", "series.build_embedding", "series.split_validation",
    "ssa.decompose", "ssa.lag_correlation", "ssa.eigendecompose", "ssa.principal_components",
    "ssa.partial_reconstruction", "mlp.train", "mlp.backprop_gradient", "mlp.gd_step",
    "mlp.forward_batch", "curriculum.curriculum_train", "forecast.multi_step_predict",
    "jsonio.write_csv", "jsonio.write_json",
)


def sunspot_pipeline(work: Path, seed: int) -> Workload:
    first = SUNSPOT_SEEDS_PER_RUN * seed
    rounds = tuple(
        pipeline_round(work / f"seed{s}", {**SUNSPOT_CONFIG, "seed": s})
        for s in range(first, first + SUNSPOT_SEEDS_PER_RUN)
    )
    return Workload("sunspot-pipeline", rounds, PIPELINE_SPANS)


def compare_two_sine(work: Path, seed: int) -> Workload:
    config = {
        **COMPARE_CONFIG,
        "seeds": list(range(seed, seed + COMPARE_SEEDS)),
        "output_dir": str(work / "out"),
    }
    path = str(_write_config(work / "run.json", config))
    step = Step(("compare", "--config", path), config, work / "out")
    spans = (
        "cli.cmd_compare", "config.load_config", "series.load_csv", "series.build_embedding",
        "series.split_validation", "ssa.decompose", "ssa.lag_correlation",
        "ssa.eigendecompose", "ssa.principal_components", "ssa.partial_reconstruction",
        "mlp.train", "mlp.backprop_gradient", "mlp.gd_step", "mlp.forward_batch",
        "curriculum.curriculum_train", "curriculum.error_vs_pc_curve",
        "curriculum.compare_curriculum_baseline", "forecast.multi_step_predict",
        "jsonio.write_csv", "jsonio.write_json",
    )
    return Workload("compare-two-sine", ((step,),), spans)


def decompose_wide(work: Path, seed: int) -> Workload:
    steps = []
    for n, window in WIDE_SHAPES:
        shape_dir = work / f"n{n}_m{window}"
        csv_path = shape_dir / "series.csv"
        values = two_sine_benchmark(n, seed)
        write_csv(csv_path, ["time", "value"], ((i, v) for i, v in enumerate(values)))
        config = {
            "input_csv": str(csv_path),
            "window": window,
            "output_dir": str(shape_dir / "out"),
        }
        path = str(_write_config(shape_dir / "run.json", config))
        steps.append(Step(("decompose", "--config", path), config, shape_dir / "out"))
    spans = (
        "cli.cmd_decompose", "config.load_config", "series.load_csv", "ssa.decompose",
        "ssa.lag_correlation", "ssa.eigendecompose", "ssa.principal_components",
        "jsonio.write_csv", "jsonio.write_json",
    )
    return Workload("decompose-wide", (tuple(steps),), spans)


WORKLOADS = {
    "sunspot-pipeline": sunspot_pipeline,
    "compare-two-sine": compare_two_sine,
    "decompose-wide": decompose_wide,
}


def clear_outputs(steps) -> None:
    for out in {step.out_dir for step in steps}:
        shutil.rmtree(out, ignore_errors=True)


def digests(step: Step) -> dict[str, str]:
    """sha256 of every artifact the step's command writes (missing ones are
    left out, which the comparison against the first run reports)."""
    out = {}
    for name in ARTIFACTS[step.command]:
        path = step.out_dir / name
        if path.is_file():
            # streamed, so that hashing components.csv does not set peak_rss_mb
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            out[name] = digest.hexdigest()
    return out


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check(step: Step) -> tuple[list[str], dict]:
    """Problems found in the step's artifacts, and the facts the benchmark
    reports from them (epochs, validation_mse, forecast_rmse)."""
    out = step.out_dir
    missing = [name for name in ARTIFACTS[step.command] if not (out / name).is_file()]
    if missing:
        return [f"{step.command}: missing {', '.join(missing)}"], {}
    try:
        return _check_contents(step)
    except Exception as exc:  # any unreadable artifact is a failed command
        return [f"{step.command}: {type(exc).__name__}: {exc}"], {}


def _check_contents(step: Step) -> tuple[list[str], dict]:
    out = step.out_dir
    problems: list[str] = []
    facts: dict = {}
    if step.command == "decompose":
        err = _read(out / "spectrum.json")["completeness_error"]
        if not err < COMPLETENESS_TOL:
            problems.append(f"decompose: completeness_error {err} is not below {COMPLETENESS_TOL}")
    elif step.command == "train":
        # raises on malformed or non-finite parameters
        network_from_dict(_read(out / "network.json"))
        summary = _read(out / "summary.json")
        facts["epochs"] = summary["total_epochs"]
        facts["validation_mse"] = summary["final_validation_mse"]
        if not _finite([facts["validation_mse"]]) or facts["epochs"] < 1:
            problems.append("train: summary.json holds no finite result")
    elif step.command == "predict":
        predictions = _read(out / "forecast.json")["predictions"]
        if len(predictions) != step.config["horizon"] or not _finite(predictions):
            problems.append(
                f"predict: expected {step.config['horizon']} finite predictions, "
                f"got {len(predictions)}"
            )
    else:
        doc = _read(out / "comparison.json")
        seeds = [r["seed"] for r in doc["per_seed"]]
        medians = doc["medians"]
        if seeds != step.config["seeds"]:
            problems.append(f"compare: per-seed records {seeds}, expected {step.config['seeds']}")
        if not medians or not _finite(medians.values()):
            problems.append("compare: medians are empty or not finite")
        else:
            facts["validation_mse"] = medians["curriculum_validation_mse"]
            facts["forecast_rmse"] = medians["curriculum_forecast_rmse"]
        curve = doc["curve"]
        facts["epochs"] = (
            curve["curriculum_epochs"]
            + curve["baseline_epochs"]
            + sum(r["curriculum_epochs"] + r["baseline_epochs"] for r in doc["per_seed"])
        )
    return problems, facts
