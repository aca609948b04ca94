"""Command-line entry point.

    ssaforecast decompose --config run.json [--set key=value ...]
    ssaforecast train     --config run.json [--mode curriculum|baseline]
    ssaforecast predict   --config run.json --network net.json [--horizon N]
    ssaforecast compare   --config run.json

Exit codes: 0 success, 1 runtime/numerical failure (bad data, divergence,
corrupt artifact files), 2 configuration/validation failure (unknown keys,
inadmissible sizes for the given input, mismatched declared dimensions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import curriculum as cur
from . import forecast as fc
from . import mlp, ssa
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmbeddingTooLarge,
    NonFiniteOutput,
    RuntimeFailure,
    ValidationError,
    WindowTooLarge,
)
from .jsonio import dumps, write_csv, write_json
from .series import load_csv, standardize


def _load_series(config: RunConfig, check_embedding: bool = False):
    if not config.input_csv:
        raise ConfigError("config key 'input_csv' is required for this command")
    raw = load_csv(config.input_csv, config.value_column, config.time_column)
    # re-validate size constraints against the loaded series before any work
    if config.window > raw.n // 2:
        raise WindowTooLarge(
            f"window {config.window} exceeds half the series length {raw.n}"
        )
    if check_embedding and config.embedding >= raw.n:
        raise EmbeddingTooLarge(
            f"embedding dimension {config.embedding} needs a series longer than {raw.n}"
        )
    return raw


def _network_fingerprint(net: mlp.Network) -> str:
    return hashlib.sha256(dumps(mlp.network_to_dict(net)).encode("utf-8")).hexdigest()


def _stage_params(config: RunConfig) -> cur.StageParams:
    return cur.StageParams(
        epochs=config.stage_epochs, lr=config.stage_lr, momentum=config.stage_momentum
    )


def cmd_decompose(config: RunConfig, echo: dict) -> int:
    raw = _load_series(config)
    std = standardize(raw)
    corr, spectrum, comps = ssa.decompose(std, config.window)
    out = Path(config.output_dir)
    write_json(
        out / "spectrum.json",
        {
            "M": config.window,
            "N": std.n,
            "lags": corr.lags,
            "eigenvalues": spectrum.eigenvalues,
            "eigenvectors": spectrum.eigenvectors,
            "completeness_error": comps.completeness_error,
            "config_echo": echo,
        },
    )
    header = ["series"] + [f"rc_{k}" for k in range(1, config.window + 1)]
    write_csv(out / "components.csv", header, np.column_stack([std.values, comps.rcs]))
    plot = ssa.singular_spectrum_plot_data(spectrum)
    write_csv(
        out / "singular_spectrum.csv",
        ["k", "log10_eigenvalue", "clamped"],
        ((p.rank, p.log10_eigenvalue, p.clamped) for p in plot),
    )
    print(f"completeness: max |sum(RC) - series| = {comps.completeness_error:.3e}")
    return 0


def _write_train_outputs(out: Path, traces) -> None:
    rows = []
    for stage_idx, trace in enumerate(traces, start=1):
        rows.extend((stage_idx, e.epoch, e.train_mse, e.validation_mse) for e in trace)
    write_csv(out / "trace.csv", ["stage", "epoch", "train_mse", "validation_mse"], rows)


def _stage_final_errors(sources, traces) -> list[dict]:
    """Stage-end errors: each stage hands its best-validation state to the
    next, so report the trace entry that state corresponds to."""
    out = []
    for source, trace in zip(sources, traces):
        best = min(trace, key=lambda e: e.validation_mse)
        out.append(
            {
                "source": source,
                "epochs_run": len(trace),
                "train_mse": best.train_mse,
                "validation_mse": best.validation_mse,
            }
        )
    return out


def cmd_train(config: RunConfig, echo: dict, mode: str) -> int:
    raw = _load_series(config, check_embedding=True)
    std = standardize(raw)
    out = Path(config.output_dir)
    params = _stage_params(config)
    initial = mlp.init_network(config.embedding, config.hidden_units, config.seed)
    patience = config.early_stop_patience
    try:
        if mode == "curriculum":
            schedule = cur.default_schedule(config.window, config.pc_step, params)
            _, _, components = ssa.decompose(std, config.window)
            result = cur.curriculum_train(
                std, components, config.embedding, schedule, config.hidden_units,
                config.seed, config.validation_fraction, patience,
            )
            state = result.final_state
            traces = result.stage_traces
            boundaries = list(result.stage_boundaries)
            total = result.total_epochs
            sources = ["raw" if s.is_raw else s.p for s in schedule.stages]
        else:
            budget = config.stage_epochs * (
                len(cur.default_schedule(config.window, config.pc_step, params).stages)
            )
            state, trace = cur.baseline_train(
                std, config.embedding, config.hidden_units, budget, config.stage_lr,
                config.stage_momentum, config.seed, config.validation_fraction, patience,
            )
            traces = (tuple(trace),)
            boundaries = [len(trace)]
            total = len(trace)
            sources = ["raw"]
    except RuntimeFailure as exc:
        partial = getattr(exc, "stage_traces", None)
        if partial is None and getattr(exc, "trace", None) is not None:
            partial = (tuple(exc.trace),)
        if partial is not None:
            _write_train_outputs(out, partial)
        raise
    _write_train_outputs(out, traces)
    write_json(out / "network.json", mlp.network_to_dict(state.network))
    write_json(
        out / "summary.json",
        {
            "mode": mode,
            "final_train_mse": state.train_mse,
            "final_validation_mse": state.validation_mse,
            "stages": _stage_final_errors(sources, traces),
            "stage_boundaries": boundaries,
            "total_epochs": total,
            "initial_network_sha256": _network_fingerprint(initial),
            "standardization": {"mean": std.mean, "scale": std.scale},
            "config_echo": echo,
        },
    )
    print(
        f"{mode}: {total} epochs, train_mse={state.train_mse:.6g}, "
        f"validation_mse={state.validation_mse:.6g}"
    )
    return 0


def cmd_predict(config: RunConfig, echo: dict, network_path: str, horizon: int | None) -> int:
    if not network_path:
        raise ConfigError("predict requires --network")
    path = Path(network_path)
    if not path.exists():
        raise ConfigError(f"network file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RuntimeFailure(f"network file is not valid JSON: {exc}") from None
    net = mlp.network_from_dict(payload)
    if net.input_dim != config.embedding:
        raise DimensionMismatch(
            f"network input_dim {net.input_dim} does not match config embedding {config.embedding}"
        )
    raw = _load_series(config, check_embedding=True)
    std = standardize(raw)
    steps = horizon if horizon is not None else config.horizon
    if horizon is not None:
        echo = {**echo, "horizon": horizon,
                "overrides": {**echo["overrides"], "horizon": horizon}}
    out = Path(config.output_dir)
    try:
        result = fc.forecast_series(
            net, std, config.embedding, steps, std.mean, std.scale, raw.timestamps
        )
    except NonFiniteOutput as exc:
        write_json(
            out / "forecast_partial.json",
            {"error": str(exc), "partial_standardized": list(exc.partial), "config_echo": echo},
        )
        raise
    write_csv(
        out / "forecast.csv",
        ["timestamp", "prediction"],
        zip(result.timestamps, result.predictions),
    )
    peak_time, peak_value = result.peak()
    write_json(
        out / "forecast.json",
        {
            "horizon": result.horizon,
            "timestamps": result.timestamps,
            "predictions": result.predictions,
            "standardized_predictions": result.standardized_predictions,
            "seed_window": result.seed_window,
            "peak_prediction": peak_value,
            "peak_timestamp": peak_time,
            "network_file": network_path,
            "config_echo": echo,
        },
    )
    print(f"forecast peak {peak_value:.6g} at t={peak_time:.6g} over {steps} steps")
    return 0


def cmd_compare(config: RunConfig, echo: dict) -> int:
    raw = _load_series(config, check_embedding=True)
    std = standardize(raw)
    out = Path(config.output_dir)
    params = _stage_params(config)

    def record(r: cur.SeedComparison) -> dict:
        return {
            "seed": r.seed,
            "curriculum_validation_mse": r.curriculum_validation_mse,
            "baseline_validation_mse": r.baseline_validation_mse,
            "curriculum_forecast_rmse": r.curriculum_forecast_rmse,
            "baseline_forecast_rmse": r.baseline_forecast_rmse,
            "curriculum_epochs": r.curriculum_epochs,
            "baseline_epochs": r.baseline_epochs,
        }

    # a failure anywhere below still writes this document, with an "error"
    # field and whatever finished before it ("curve" stays null if the
    # curve itself failed)
    document = {
        "curve": None,
        "compare_horizon": config.compare_horizon,
        "per_seed": [],
        "medians": {},
        "config_echo": echo,
    }

    def write_curve(curve: cur.PcCurve | None) -> None:
        if curve is None:
            return
        write_csv(
            out / "curve.csv",
            ["p", "train_mse", "validation_mse", "baseline_mse"],
            (
                (pt.p, pt.train_mse, pt.validation_mse, curve.baseline_validation_mse)
                for pt in curve.points
            ),
        )
        document["curve"] = {
            "curriculum_epochs": curve.curriculum_epochs,
            "baseline_epochs": curve.baseline_epochs,
            "baseline_train_mse": curve.baseline_train_mse,
            "baseline_validation_mse": curve.baseline_validation_mse,
        }

    try:
        comparison = cur.compare_curriculum_baseline(
            raw.values, config.window, config.embedding, config.hidden_units, params,
            config.pc_step, config.seeds, config.compare_horizon, config.validation_fraction,
            curve_series=std,
        )
    except RuntimeFailure as exc:
        write_curve(getattr(exc, "curve", None))
        document["per_seed"] = [record(r) for r in getattr(exc, "completed_seeds", ())]
        document["error"] = str(exc)
        write_json(out / "comparison.json", document)
        raise
    write_curve(comparison.curve)
    document["per_seed"] = [record(r) for r in comparison.per_seed]
    medians = {
        "curriculum_validation_mse": comparison.median("curriculum_validation_mse"),
        "baseline_validation_mse": comparison.median("baseline_validation_mse"),
        "curriculum_forecast_rmse": comparison.median("curriculum_forecast_rmse"),
        "baseline_forecast_rmse": comparison.median("baseline_forecast_rmse"),
    }
    document["medians"] = medians
    write_json(out / "comparison.json", document)
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
            p.add_argument("--horizon", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, echo = load_config(args.config, args.overrides)
        if args.command == "decompose":
            return cmd_decompose(config, echo)
        if args.command == "train":
            return cmd_train(config, echo, args.mode)
        if args.command == "predict":
            return cmd_predict(config, echo, args.network, args.horizon)
        return cmd_compare(config, echo)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (RuntimeFailure, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
