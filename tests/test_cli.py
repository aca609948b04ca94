import importlib.util
import json
import math
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from ssaforecast.cli import _write_train_outputs, main
from ssaforecast.mlp import init_network, network_from_dict, network_to_dict
from ssaforecast.series import load_csv, standardize
from test_mlp import one_step

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", Path(__file__).resolve().parents[1] / "scripts" / "regen_goldens.py")
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)


def read(path) -> bytes:
    return Path(path).read_bytes()


# -- golden comparison ----------------------------------------------------------
#
# Artifacts are byte-identical across reruns on one toolchain (criterion 7), but
# not across toolchains: np.tanh and BLAS matmuls/reductions round differently
# in the last ulp between numpy/BLAS builds and CPUs, which moves float tokens by
# up to ~1.5e-14 relative. So the goldens pin everything except float tokens
# exactly, and float tokens to GOLDEN_REL_TOL. That is ~70x the measured drift
# and below what a real change gives: stage_lr * (1 + 2e-11) moves the trace by
# up to 5e-10 and the network weights by up to 9e-11 relative.

GOLDEN_REL_TOL = 1e-12
GOLDEN_ABS_TOL = 1e-15
# JSON tokens that carry a value: strings first, so digits inside a string
# (e.g. a sha256) stay part of that string.
_JSON_VALUE = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mask_numbers(path, lineno, line):
    """(line with each number replaced by '#', the number tokens in order)."""
    if path.suffix == ".json":
        tokens = [m.group() for m in _JSON_VALUE.finditer(line) if not m.group().startswith('"')]
        masked = _JSON_VALUE.sub(lambda m: m.group() if m.group().startswith('"') else "#", line)
        return masked, tokens
    if lineno == 1:  # CSV header
        return line, []
    cells = line.split(",")
    tokens = [c for c in cells if _NUMBER.fullmatch(c)]
    return ",".join("#" if _NUMBER.fullmatch(c) else c for c in cells), tokens


def _token_mismatch(golden, new):
    """Why the number token `new` does not match `golden`, or None if it does."""
    if not any(ch in golden for ch in ".eE"):  # integer: exact
        return None if new == golden else "integer differs"
    if new != format(float(new), ".17g"):
        return "not written with 17 significant digits"
    g, n = float(golden), float(new)
    if math.isclose(n, g, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL):
        return None
    return f"relative difference {abs(n - g) / abs(g) if g else math.inf:.2e}"


def assert_matches_golden(new_path, golden_path):
    """Compare an artifact with its golden: text with numbers masked, strings
    and integer tokens exactly; float tokens in 17-digit form and within
    GOLDEN_REL_TOL. The message names file, line and token of each mismatch."""
    new_path, golden_path = Path(new_path), Path(golden_path)
    name = golden_path.name
    new_lines = new_path.read_text().splitlines()
    golden_lines = golden_path.read_text().splitlines()
    assert len(new_lines) == len(golden_lines), (
        f"{name}: {len(new_lines)} lines, golden has {len(golden_lines)}")
    problems = []
    for lineno, (new, golden) in enumerate(zip(new_lines, golden_lines), start=1):
        new_masked, new_tokens = _mask_numbers(golden_path, lineno, new)
        golden_masked, golden_tokens = _mask_numbers(golden_path, lineno, golden)
        if new_masked != golden_masked:
            problems.append(f"{name}:{lineno}: text differs: golden {golden!r}, new {new!r}")
            continue
        for index, (g, n) in enumerate(zip(golden_tokens, new_tokens), start=1):
            why = _token_mismatch(g, n)
            if why:
                problems.append(f"{name}:{lineno}: token {index}: golden {g}, new {n} ({why})")
    assert not problems, f"{len(problems)} mismatch(es) with the golden:\n" + "\n".join(problems[:20])


def run_twice(workdir, monkeypatch, *argvs):
    """Run the CLI commands in `workdir`, then again in a fresh directory with
    the same inputs; assert both exit 0 and return the two output directories."""
    rerun = workdir / "rerun"
    rerun.mkdir(exist_ok=True)
    for name in ("tiny_series.csv", "golden_config.json"):
        shutil.copy(workdir / name, rerun / name)
    outputs = []
    for cwd in (workdir, rerun):
        monkeypatch.chdir(cwd)
        for argv in argvs:
            assert main(argv) == 0, argv
        outputs.append(cwd / "out")
    return outputs


def assert_golden_files(outputs, fixtures_dir, names):
    """Byte-identical across the two runs, then matching the goldens."""
    first, second = outputs
    for name in names:
        assert read(second / name) == read(first / name), f"{name}: rerun is not byte-identical"
        assert_matches_golden(first / name, fixtures_dir / "golden" / name)


@pytest.mark.parametrize("argv, names", regen_goldens.COMMANDS,
                         ids=[argv[0] for argv, _ in regen_goldens.COMMANDS])
def test_golden_files(workdir, fixtures_dir, monkeypatch, argv, names):
    if argv[0] == "predict":
        # predict alone, on the committed network (the train golden covers train)
        for cwd in (workdir, workdir / "rerun"):
            (cwd / "out").mkdir(parents=True)
            shutil.copy(fixtures_dir / "golden" / "network.json", cwd / "out" / "network.json")
    assert_golden_files(run_twice(workdir, monkeypatch, argv), fixtures_dir, names)


# -- decompose -----------------------------------------------------------------

def test_decompose_outputs(workdir, capsys):
    assert main(["decompose", "--config", "golden_config.json"]) == 0
    assert "completeness" in capsys.readouterr().out
    spectrum = json.loads(read("out/spectrum.json"))
    assert spectrum["M"] == 8 and spectrum["N"] == 120
    assert len(spectrum["eigenvalues"]) == 8
    assert len(spectrum["lags"]) == 8
    assert spectrum["completeness_error"] < 1e-8
    assert spectrum["config_echo"]["seed"] == 3
    header = read("out/components.csv").decode().splitlines()[0]
    assert header == "series," + ",".join(f"rc_{k}" for k in range(1, 9))
    plot_lines = read("out/singular_spectrum.csv").decode().splitlines()
    assert plot_lines[0] == "k,log10_eigenvalue,clamped"
    assert len(plot_lines) == 9


def test_decompose_window_one(workdir):
    assert main(["decompose", "--config", "golden_config.json", "--set", "window=1",
                 "--set", "output_dir=out1"]) == 0
    spectrum = json.loads(read("out1/spectrum.json"))
    assert spectrum["completeness_error"] < 1e-10
    rows = read("out1/components.csv").decode().splitlines()[1:]
    series, rc = zip(*(map(float, r.split(",")) for r in rows))
    np.testing.assert_allclose(rc, series, atol=1e-10)


def test_decompose_rerun_bitwise_identical(workdir):
    assert main(["decompose", "--config", "golden_config.json"]) == 0
    first = {n: read(f"out/{n}") for n in ("spectrum.json", "components.csv", "singular_spectrum.csv")}
    assert main(["decompose", "--config", "golden_config.json"]) == 0
    for name, blob in first.items():
        assert read(f"out/{name}") == blob


# -- train ----------------------------------------------------------------------

FINAL_TRAIN_MSE = "0.0056082748398999151"  # in the golden summary.json


def _scaled(token, factor):
    return format(float(token) * factor, ".17g")


@pytest.mark.parametrize("name, old, new", [
    ("summary.json", '"epochs_run": 80', '"epochs_run": 81'),
    ("summary.json", "ea2b67e1f170", "ea2b67e1f171"),
    ("summary.json", FINAL_TRAIN_MSE, format(float(FINAL_TRAIN_MSE), ".16g")),
    ("summary.json", FINAL_TRAIN_MSE, _scaled(FINAL_TRAIN_MSE, 1 + 2e-11)),
    ("trace.csv", "\n1,3,", "\n1,4,"),
])
def test_golden_comparison_rejects_real_changes(tmp_path, fixtures_dir, name, old, new):
    golden = fixtures_dir / "golden" / name
    changed = tmp_path / name
    changed.write_text(golden.read_text().replace(old, new, 1))
    assert read(changed) != read(golden)
    with pytest.raises(AssertionError, match=f"{name}:"):
        assert_matches_golden(changed, golden)


def test_golden_comparison_accepts_toolchain_drift(tmp_path, fixtures_dir):
    golden = fixtures_dir / "golden" / "summary.json"
    drifted = tmp_path / "summary.json"
    drifted.write_text(golden.read_text().replace(FINAL_TRAIN_MSE, _scaled(FINAL_TRAIN_MSE, 1 + 1.5e-14)))
    assert read(drifted) != read(golden)
    assert_matches_golden(drifted, golden)

def test_train_modes_share_initial_weights(workdir):
    assert main(["train", "--config", "golden_config.json", "--mode", "curriculum"]) == 0
    assert main(["train", "--config", "golden_config.json", "--mode", "baseline",
                 "--set", "output_dir=out_base"]) == 0
    cur = json.loads(read("out/summary.json"))
    base = json.loads(read("out_base/summary.json"))
    assert cur["initial_network_sha256"] == base["initial_network_sha256"]
    assert base["mode"] == "baseline"
    assert base["stage_boundaries"] == [base["total_epochs"]]


def test_train_trace_schema(workdir):
    assert main(["train", "--config", "golden_config.json"]) == 0
    lines = read("out/trace.csv").decode().splitlines()
    assert lines[0] == "stage,epoch,train_mse,validation_mse"
    stages = {int(line.split(",")[0]) for line in lines[1:]}
    assert stages == {1, 2, 3, 4}  # p = 2, 5, 8, raw


def test_train_summary_per_stage_errors(workdir):
    assert main(["train", "--config", "golden_config.json"]) == 0
    summary = json.loads(read("out/summary.json"))
    assert [s["source"] for s in summary["stages"]] == [2, 5, 8, "raw"]
    assert all(s["epochs_run"] == 80 for s in summary["stages"])
    assert summary["stages"][-1]["validation_mse"] == summary["final_validation_mse"]
    assert summary["stages"][-1]["train_mse"] == summary["final_train_mse"]


def test_wide_window_warning_is_one_line(workdir, capsys):
    warnings.resetwarnings()  # undo the autouse filter that quiets this warning
    assert main(["decompose", "--config", "golden_config.json", "--set", "window=50"]) == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: window 50 exceeds a third of the series length 120; "
        "lag estimates will be noisy\n"
    )
    assert ".py" not in err


def test_unknown_config_key_exit_2(workdir, capsys):
    cfg = json.loads(read("golden_config.json"))
    cfg["learning_rate_typo"] = 0.1
    Path("bad.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", "bad.json"]) == 2
    assert "learning_rate_typo" in capsys.readouterr().err


def test_unknown_override_key_exit_2(workdir, capsys):
    assert main(["train", "--config", "golden_config.json", "--set", "nope=1"]) == 2
    assert "nope" in capsys.readouterr().err


# -- predict ---------------------------------------------------------------------

def test_predict_horizon_one_matches_one_step(workdir):
    assert main(["train", "--config", "golden_config.json"]) == 0
    assert main(["predict", "--config", "golden_config.json",
                 "--network", "out/network.json", "--set", "horizon=1"]) == 0
    lines = read("out/forecast.csv").decode().splitlines()
    assert len(lines) == 2
    predicted = float(lines[1].split(",")[1])
    net = network_from_dict(json.loads(read("out/network.json")))
    raw = load_csv("tiny_series.csv", "value", "time")
    std = standardize(raw)
    expected = one_step(net, std.values[-4:]) * std.scale + std.mean
    assert predicted == pytest.approx(expected, rel=1e-12)


def test_predict_has_no_horizon_flag(workdir, capsys):
    # the horizon is set like any other key, with --set horizon=N
    with pytest.raises(SystemExit) as exit_info:
        main(["predict", "--config", "golden_config.json",
              "--network", "out/network.json", "--horizon", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --horizon 5" in capsys.readouterr().err


def test_predict_mismatched_embedding_exit_2(workdir, capsys):
    assert main(["train", "--config", "golden_config.json"]) == 0
    code = main(["predict", "--config", "golden_config.json",
                 "--network", "out/network.json", "--set", "embedding=5"])
    assert code == 2
    assert "DimensionMismatch" in capsys.readouterr().err


def test_predict_emits_peak(workdir):
    assert main(["train", "--config", "golden_config.json"]) == 0
    # the tiny series on a monthly time axis, in year fractions
    lines = read("tiny_series.csv").decode().splitlines()
    values = [line.split(",")[1] for line in lines[1:]]
    times = 1990.0 + np.arange(len(values)) / 12.0
    rows = [f"{t:.17g},{v}" for t, v in zip(times, values)]
    Path("monthly.csv").write_text("\n".join([lines[0], *rows]) + "\n")
    assert main(["predict", "--config", "golden_config.json", "--set", "input_csv=monthly.csv",
                 "--network", "out/network.json"]) == 0
    doc = json.loads(read("out/forecast.json"))
    assert doc["peak_prediction"] == max(doc["predictions"])
    idx = doc["predictions"].index(doc["peak_prediction"])
    assert doc["peak_timestamp"] == doc["timestamps"][idx]
    assert len(doc["predictions"]) == doc["horizon"] == 6
    # the time axis continues at the source spacing, one step after the last source time
    np.testing.assert_allclose(np.diff(doc["timestamps"]), 1.0 / 12.0, atol=1e-9)
    assert doc["timestamps"][0] == pytest.approx(times[-1] + 1.0 / 12.0)


# -- compare ----------------------------------------------------------------------

def test_compare_singleton_seed(workdir):
    assert main(["compare", "--config", "golden_config.json",
                 "--set", "seeds=1", "--set", "compare_horizon=20",
                 "--set", "stage_epochs=40"]) == 0
    doc = json.loads(read("out/comparison.json"))
    assert len(doc["per_seed"]) == 1
    rec = doc["per_seed"][0]
    assert doc["medians"]["curriculum_validation_mse"] == rec["curriculum_validation_mse"]
    assert doc["medians"]["baseline_forecast_rmse"] == rec["baseline_forecast_rmse"]
    assert rec["curriculum_epochs"] == rec["baseline_epochs"]
    paired = doc["paired"]["forecast_rmse"]
    assert paired["curriculum_wins"] + paired["baseline_wins"] + paired["ties"] == 1
    assert paired["median_difference"] == (
        rec["curriculum_forecast_rmse"] - rec["baseline_forecast_rmse"])
    assert set(doc["paired"]) == {"validation_mse", "forecast_rmse"}
    curve_rows = read("out/curve.csv").decode().splitlines()
    assert curve_rows[0] == "p,train_mse,validation_mse,baseline_mse"
    assert len(curve_rows) - 1 == 8 - 1  # window - 1 points


# -- error paths at the CLI boundary ------------------------------------------------

OVERSIZED_WINDOW = ("window=100", "WindowTooLarge: window 100 exceeds half the series length 120")
OVERSIZED_EMBEDDING = (
    "embedding=200", "EmbeddingTooLarge: embedding dimension 200 needs a series longer than 120")
EMBEDDING_COMMANDS = (
    ["train", "--mode", "curriculum"], ["train", "--mode", "baseline"],
    ["predict", "--network", "net.json"], ["compare"],
)
# a 4-sample series with window 2 and embedding 3 leaves one (window, target)
# pair: nothing to split for training, and no room for compare's holdout
ONE_PAIR = "input_csv=four.csv window=2 embedding=3"
ONE_PAIR_TRAIN_ERROR = ("EmbeddingTooLarge: embedding dimension 3 leaves 1 (window, target) "
                        "pairs in 4 samples; at least 2 are needed")
ONE_PAIR_COMPARE_ERROR = ("BadHorizon: holdout horizon 50 leaves too little of the 4 samples "
                          "for training with embedding 3")


def run_before_work(command, overrides, width):
    """Run `command` on the golden config with space-separated `overrides`;
    net.json holds a network `width` inputs wide for predict."""
    Path("net.json").write_text(json.dumps(network_to_dict(init_network(width, 5, 0))))
    Path("four.csv").write_text("time,value\n0,1.0\n1,3.0\n2,2.0\n3,5.0\n")
    sets = [arg for override in overrides.split() for arg in ("--set", override)]
    code = main([command[0], "--config", "golden_config.json", *command[1:], *sets])
    assert not Path("out").exists() or not any(Path("out").iterdir())
    return code


@pytest.mark.parametrize("command, override, error", [
    *[(command, *OVERSIZED_WINDOW) for command in (["decompose"], *EMBEDDING_COMMANDS)],
    *[(command, *OVERSIZED_EMBEDDING) for command in EMBEDDING_COMMANDS],
    *[(command, ONE_PAIR, ONE_PAIR_TRAIN_ERROR) for command in EMBEDDING_COMMANDS[:2]],
    (["compare"], ONE_PAIR, ONE_PAIR_COMPARE_ERROR),
])
def test_oversized_size_exit_2_before_work(workdir, capsys, command, override, error):
    # a network as wide as the configured embedding, so predict reaches the series
    width = 200 if override == OVERSIZED_EMBEDDING[0] else 4
    assert run_before_work(command, override, width) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


CONSTANT = "time,value\n" + "\n".join(f"{i},5.0" for i in range(40)) + "\n"


@pytest.mark.parametrize("command", [["decompose"], *EMBEDDING_COMMANDS])
@pytest.mark.parametrize("text, error", [
    (CONSTANT, "ZeroVariance: series is constant; cannot standardize"),
    ("time,value\n", "EmptyInput: need at least two samples, got 0"),
    ("time,value\n1,2\n", "EmptyInput: need at least two samples, got 1"),
], ids=["constant", "header-only", "one-row"])
def test_unusable_series_exit_1_before_work(workdir, capsys, command, text, error):
    Path("data.csv").write_text(text)
    assert run_before_work(command, "input_csv=data.csv", 4) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_trace_table_numbers_stages_and_epochs(tmp_path):
    """trace.csv from stage traces of 3, 0 and 2 epochs: stages keep their
    1-based numbers, epochs count from 1 within each stage and the empty
    stage writes no row."""
    traces = (np.array([[0.5, 0.25], [0.125, 1.5], [3.0, 2.0]]), np.empty((0, 2)),
              np.array([[0.1, 1e-20], [7.0, 1e300]]))
    _write_train_outputs(tmp_path, traces)
    assert read(tmp_path / "trace.csv") == (
        b"stage,epoch,train_mse,validation_mse\n"
        b"1,1,0.5,0.25\n"
        b"1,2,0.125,1.5\n"
        b"1,3,3,2\n"
        b"3,1,0.10000000000000001,9.9999999999999995e-21\n"
        b"3,2,7,1.0000000000000001e+300\n")


def test_divergence_exit_1_with_partial_trace(workdir, capsys):
    code = main(["train", "--config", "golden_config.json",
                 "--set", "stage_lr=1000000.0", "--set", "patience=0"])
    assert code == 1
    assert "DivergenceDetected" in capsys.readouterr().err
    assert Path("out/trace.csv").exists()


def test_divergence_at_epoch_one_leaves_header_only_trace(workdir, capsys):
    code = main(["train", "--config", "golden_config.json", "--set", "stage_lr=1e300"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: DivergenceDetected: training error became non-finite at epoch 1\n")
    assert read("out/trace.csv") == b"stage,epoch,train_mse,validation_mse\n"
    assert sorted(os.listdir("out")) == ["trace.csv"]


def test_corrupt_network_length_mismatch_exit_1(workdir, capsys):
    assert main(["train", "--config", "golden_config.json"]) == 0
    payload = json.loads(read("out/network.json"))
    payload["hidden_biases"] = payload["hidden_biases"][:-1]
    Path("corrupt.json").write_text(json.dumps(payload))
    code = main(["predict", "--config", "golden_config.json", "--network", "corrupt.json"])
    assert code == 1
    assert "LengthMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_network_exit_1(workdir, capsys, bad):
    assert main(["train", "--config", "golden_config.json"]) == 0
    text = read("out/network.json").decode()
    payload = json.loads(text)
    payload["hidden_weights"][0][0] = "BAD"
    Path("corrupt.json").write_text(json.dumps(payload).replace('"BAD"', bad))
    capsys.readouterr()
    code = main(["predict", "--config", "golden_config.json", "--network", "corrupt.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "LengthMismatch" in err and "finite" in err
    assert not Path("out/forecast.csv").exists()


def test_compare_oversized_horizon_exit_2_before_training(workdir, capsys):
    code = main(["compare", "--config", "golden_config.json", "--set", "seeds=0",
                 "--set", "compare_horizon=115"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadHorizon: ") and "Traceback" not in err
    assert not Path("out/curve.csv").exists() and not Path("out/comparison.json").exists()


def test_compare_curve_divergence_writes_error_document(workdir, capsys):
    code = main(["compare", "--config", "golden_config.json", "--set", "seeds=1",
                 "--set", "stage_lr=1000000.0"])
    assert code == 1
    assert "DivergenceDetected" in capsys.readouterr().err
    doc = json.loads(read("out/comparison.json"))
    assert doc["error"].startswith("training error became non-finite at epoch")
    assert doc["curve"] is None
    assert doc["per_seed"] == [] and doc["medians"] == {} and doc["paired"] == {}
    assert doc["config_echo"]["stage_lr"] == 1000000.0
    assert not Path("out/curve.csv").exists()


def test_missing_input_file_exit_1(workdir):
    assert main(["decompose", "--config", "golden_config.json",
                 "--set", "input_csv=missing.csv"]) == 1


def test_parse_error_exit_1(workdir, capsys):
    Path("bad.csv").write_text("time,value\n0,1.0\n1,oops\n2,2.0\n")
    code = main(["decompose", "--config", "golden_config.json", "--set", "input_csv=bad.csv"])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err


def test_non_monotonic_time_exit_1(workdir, capsys):
    Path("bad.csv").write_text("time,value\n0,1.0\n2,2.0\n1,3.0\n")
    code = main(["decompose", "--config", "golden_config.json", "--set", "input_csv=bad.csv"])
    assert code == 1
    assert "NonMonotonicTime" in capsys.readouterr().err


def test_bad_fraction_exit_2(workdir):
    assert main(["train", "--config", "golden_config.json",
                 "--set", "validation_fraction=1.5"]) == 2
