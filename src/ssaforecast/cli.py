"""Command-line entry point.

    ssaforecast decompose --config run.json [--set key=value ...]
    ssaforecast train     --config run.json [--mode curriculum|baseline]
    ssaforecast predict   --config run.json --network net.json [--set horizon=N]
    ssaforecast compare   --config run.json

Exit codes: 0 success, 1 runtime/numerical failure (bad data, divergence,
corrupt artifact files, an input or output path that cannot be read or
written), 2 configuration/validation failure (unknown keys, a value out of
range for the code that reads it, mismatched declared dimensions).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import curriculum as cur
from . import forecast as fc
from . import mlp, ssa
from .config import RunConfig, load_config, read_json
from .errors import (ConfigError, DimensionMismatch, DivergenceDetected, NonFiniteOutput,
                     RuntimeFailure, ValidationError)
from .jsonio import dumps, write_csv, write_json
from .lanes import one_blas_thread
from .series import check_embedding_size, load_csv, standardize


def _load_series(config: RunConfig, pairs: int = 0):
    """The configured series, with the window and, for `pairs` > 0, the
    embedding checked against its length before any work."""
    if not config.input_csv:
        raise ConfigError("config key 'input_csv' is required for this command")
    raw = load_csv(config.input_csv, config.value_column, config.time_column)
    ssa.check_window_size(config.window, raw.n)
    if pairs:
        check_embedding_size(config.embedding, raw.n, pairs)
    return raw


def _stage_params(config: RunConfig) -> cur.StageParams:
    return cur.StageParams(config.stage_epochs, config.stage_lr, config.stage_momentum)


def cmd_decompose(config: RunConfig, echo: dict) -> int:
    raw = _load_series(config)
    std = standardize(raw)
    dec = ssa.decompose(std, config.window)
    out = Path(config.output_dir)
    write_json(
        out / "spectrum.json",
        {
            "M": config.window,
            "N": std.n,
            "lags": dec.lags,
            "eigenvalues": dec.eigenvalues,
            "eigenvectors": dec.eigenvectors,
            "completeness_error": dec.completeness_error,
            "config_echo": echo,
        },
    )
    header = ["series"] + [f"rc_{k}" for k in range(1, config.window + 1)]
    write_csv(out / "components.csv", header, dec.components)
    write_csv(
        out / "singular_spectrum.csv",
        ["k", "log10_eigenvalue", "clamped"],
        ssa.singular_spectrum_rows(dec.eigenvalues),
    )
    print(f"completeness: max |sum(RC) - series| = {dec.completeness_error:.3e}")
    return 0


def _write_train_outputs(out: Path, traces) -> None:
    # one float table filled in place, a block of rows per stage's (k, 2)
    # trace: stage, epoch 1..k, then the two errors; %.17g writes the
    # integral stage and epoch as integers
    table = np.empty((sum(map(len, traces)), 4))
    start = 0
    for stage, trace in enumerate(traces, start=1):
        rows = table[start : start + len(trace)]
        rows[:, 0] = stage
        rows[:, 1] = np.arange(1, len(trace) + 1)
        rows[:, 2:] = trace
        start += len(trace)
    write_csv(out / "trace.csv", ["stage", "epoch", "train_mse", "validation_mse"], table)


def _stage_final_errors(counts, result: cur.CurriculumResult) -> list[dict]:
    """Stage-end errors: the errors of the best-validation state each stage
    hands on to the next."""
    return [
        {
            "source": "raw" if p is None else p,
            "epochs_run": len(trace),
            "train_mse": state.train_mse,
            "validation_mse": state.validation_mse,
        }
        for p, state, trace in zip(counts, result.states, result.stage_traces)
    ]


def cmd_train(config: RunConfig, echo: dict, mode: str) -> int:
    # one pair to train on and one to validate on
    raw = _load_series(config, pairs=2)
    std = standardize(raw)
    out = Path(config.output_dir)
    params = _stage_params(config)
    initial = mlp.init_network(config.embedding, config.hidden_units, config.seed)
    fingerprint = hashlib.sha256(dumps(mlp.network_to_dict(initial)).encode("utf-8")).hexdigest()
    counts = cur.stage_counts(config.window, config.pc_step)
    dec = None
    if mode == "baseline":
        # one raw stage with the whole curriculum's epoch budget
        counts, params = (None,), replace(params, epochs=params.epochs * len(counts))
    else:
        dec = ssa.decompose(std, config.window)
    try:
        result = cur.curriculum_train(
            std, dec, config.embedding, counts, config.hidden_units, params,
            config.seed, config.validation_fraction, config.patience,
        )
    except DivergenceDetected as exc:
        _write_train_outputs(out, exc.stage_traces)
        raise
    state, traces, total = result.final_state, result.stage_traces, result.total_epochs
    _write_train_outputs(out, traces)
    write_json(out / "network.json", mlp.network_to_dict(state.network))
    write_json(
        out / "summary.json",
        {
            "mode": mode,
            "final_train_mse": state.train_mse,
            "final_validation_mse": state.validation_mse,
            "stages": _stage_final_errors(counts, result),
            "stage_boundaries": list(itertools.accumulate(map(len, traces))),
            "total_epochs": total,
            "initial_network_sha256": fingerprint,
            "standardization": {"mean": std.mean, "scale": std.scale},
            "config_echo": echo,
        },
    )
    print(
        f"{mode}: {total} epochs, train_mse={state.train_mse:.6g}, "
        f"validation_mse={state.validation_mse:.6g}"
    )
    return 0


def cmd_predict(config: RunConfig, echo: dict, network_path: str) -> int:
    if not network_path:
        raise ConfigError("predict requires --network")
    net = mlp.network_from_dict(read_json(network_path, "network", RuntimeFailure))
    if net.input_dim != config.embedding:
        raise DimensionMismatch(
            f"network input_dim {net.input_dim} does not match config embedding {config.embedding}"
        )
    raw = _load_series(config, pairs=1)
    std = standardize(raw)
    out = Path(config.output_dir)
    try:
        result = fc.forecast_series(net, std, config.horizon)
    except NonFiniteOutput as exc:
        write_json(
            out / "forecast_partial.json",
            {"error": str(exc), "partial_standardized": exc.partial, "config_echo": echo},
        )
        raise
    # the time axis extended at the source spacing
    ts = raw.timestamps
    step = (ts[-1] - ts[0]) / (ts.size - 1)
    timestamps = ts[-1] + step * np.arange(1, config.horizon + 1)
    write_csv(out / "forecast.csv", ["timestamp", "prediction"], zip(timestamps, result.predictions))
    peak = int(np.argmax(result.predictions))
    peak_time, peak_value = float(timestamps[peak]), float(result.predictions[peak])
    write_json(
        out / "forecast.json",
        {
            "horizon": result.horizon,
            "timestamps": timestamps,
            "predictions": result.predictions,
            "standardized_predictions": result.standardized_predictions,
            "seed_window": result.seed_window,
            "peak_prediction": peak_value,
            "peak_timestamp": peak_time,
            "network_file": network_path,
            "config_echo": echo,
        },
    )
    print(f"forecast peak {peak_value:.6g} at t={peak_time:.6g} over {config.horizon} steps")
    return 0


def cmd_compare(config: RunConfig, echo: dict) -> int:
    raw = _load_series(config, pairs=1)
    out = Path(config.output_dir)
    failure = None
    try:
        comparison = cur.compare_curriculum_baseline(
            raw.values, config.window, config.embedding, config.hidden_units,
            _stage_params(config), config.pc_step, config.seeds, config.compare_horizon,
            config.validation_fraction,
        )
    except RuntimeFailure as exc:
        if not hasattr(exc, "completed"):  # failed before any training
            raise
        # reported as far as it got: the curve, if it finished, and the seeds before it
        comparison, failure = exc.completed, exc
    curve = comparison.curve
    if curve is not None:
        write_csv(
            out / "curve.csv",
            ["p", "train_mse", "validation_mse", "baseline_mse"],
            (
                (pt.p, pt.train_mse, pt.validation_mse, curve.baseline_validation_mse)
                for pt in curve.points
            ),
        )
    # a failed run has no medians or paired results
    metrics = () if failure is not None else ("validation_mse", "forecast_rmse")
    medians = {
        f"{arm}_{metric}": comparison.median(f"{arm}_{metric}")
        for metric in metrics
        for arm in ("curriculum", "baseline")
    }
    document = {
        "curve": None if curve is None else {
            "curriculum_epochs": curve.curriculum_epochs,
            "baseline_epochs": curve.baseline_epochs,
            "baseline_train_mse": curve.baseline_train_mse,
            "baseline_validation_mse": curve.baseline_validation_mse,
        },
        "compare_horizon": config.compare_horizon,
        "per_seed": [asdict(r) for r in comparison.per_seed],
        "medians": medians,
        "paired": {metric: comparison.paired(metric) for metric in metrics},
        "config_echo": echo,
    }
    if failure is not None:
        document["error"] = str(failure)
    write_json(out / "comparison.json", document)
    if failure is not None:
        raise failure
    print(
        "medians: curriculum_val={curriculum_validation_mse:.6g} "
        "baseline_val={baseline_validation_mse:.6g} "
        "curriculum_rmse={curriculum_forecast_rmse:.6g} "
        "baseline_rmse={baseline_forecast_rmse:.6g}".format(**medians)
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssaforecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("decompose", "train", "predict", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--set", dest="overrides", action="append", default=[])
        if name == "train":
            p.add_argument("--mode", choices=("curriculum", "baseline"), default="curriculum")
        if name == "predict":
            p.add_argument("--network", default="")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one line, without the module path and source line of Python's default
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config, echo = load_config(args.config, args.overrides)
            with one_blas_thread():
                if args.command == "decompose":
                    return cmd_decompose(config, echo)
                if args.command == "train":
                    return cmd_train(config, echo, args.mode)
                if args.command == "predict":
                    return cmd_predict(config, echo, args.network)
                return cmd_compare(config, echo)
        except ValidationError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        except (RuntimeFailure, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
