"""Acceptance gate: every criterion prints one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).

Criteria:
 1. decomposition completeness on 50 random instances        (< 30 s)
 2. spectral identities on the same instances                (< 10 s)
 3. pipeline equals the naive-loop oracle, small sizes       (< 5 s)
 4. backprop equals central finite differences, 100 cases    (< 10 s)
 5. curriculum arm beats/holds the raw baseline (benchmark)  (< 5 min)
    plus a non-gating line: the same rule on held-out seeds 10-49
 6. sunspot CSV end-to-end decompose/train/predict           (< 10 min)
 7. criteria 5 and 6 reruns are byte-identical
 8. documented exit codes for the five named error paths
"""

import json
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ssaforecast.benchmark import two_sine_benchmark, two_sine_signal
from ssaforecast.cli import main
from ssaforecast.mlp import Batch, backprop_gradient, forward_batch
from ssaforecast.rng import SplitMix64
from ssaforecast.series import standardize
from ssaforecast.ssa import decompose

from naive_ssa import naive_matrix, naive_pipeline
from test_mlp import finite_difference_gradient, random_network
from test_ssa import assert_pipeline_matches_oracle

REPO = Path(__file__).resolve().parents[1]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criteria 1 + 2: one instrumented pass over 50 random instances -----------

@pytest.fixture(scope="module")
def ssa_pass():
    # windows are drawn up to N/2 on purpose; silence the N/3 advisory
    warnings.filterwarnings("ignore", message="window .* exceeds a third")
    rng = SplitMix64(2024)
    completeness_errors = []
    gram_errors = []
    diag_errors = []
    trace_errors = []
    ordered = []
    decompose_time = 0.0
    identity_time = 0.0
    for _ in range(50):
        n = 60 + int(rng.below(1941))  # 60 .. 2000
        window = 2 + int(rng.below(n // 2 - 1))  # 2 .. n//2
        x = standardize(rng.normals(n)).values
        t0 = time.perf_counter()
        dec = decompose(x, window)
        t1 = time.perf_counter()
        decompose_time += t1 - t0
        completeness_errors.append(dec.completeness_error)

        e = dec.eigenvectors
        lam = dec.eigenvalues
        c = naive_matrix(dec.lags)
        gram_errors.append(float(np.max(np.abs(e.T @ e - np.eye(window)))))
        diag_errors.append(float(np.max(np.abs(e.T @ c @ e - np.diag(lam)))))
        trace_errors.append(abs(float(lam.sum()) - window))
        ordered.append(bool(np.all(np.diff(lam) <= 1e-12)))
        identity_time += time.perf_counter() - t1
    return {
        "completeness": completeness_errors,
        "gram": gram_errors,
        "diag": diag_errors,
        "trace": trace_errors,
        "ordered": ordered,
        "decompose_time": decompose_time,
        "identity_time": identity_time,
    }


def test_criterion_1_completeness(ssa_pass):
    worst = max(ssa_pass["completeness"])
    elapsed = ssa_pass["decompose_time"]
    ok = worst < 1e-8 and elapsed < 30.0
    report(1, ok, f"50 instances, worst completeness {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)")


def test_criterion_2_spectral_identities(ssa_pass):
    gram = max(ssa_pass["gram"])
    diag = max(ssa_pass["diag"])
    trace = max(ssa_pass["trace"])
    elapsed = ssa_pass["identity_time"]
    ok = (
        gram < 1e-10
        and diag < 1e-9
        and trace < 1e-8
        and all(ssa_pass["ordered"])
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"EtE-I {gram:.2e} (1e-10), EtCE-diag {diag:.2e} (1e-9), "
        f"sum(lam)-M {trace:.2e} (1e-8), descending ordering, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_oracle_equivalence():
    rng = SplitMix64(300)
    t0 = time.perf_counter()
    for _ in range(20):
        n = 12 + int(rng.below(29))  # 12 .. 40
        window = 1 + int(rng.below(min(6, n // 2)))  # 1 .. 6
        x = standardize(rng.normals(n)).values
        assert_pipeline_matches_oracle(x, window, atol=1e-10)
        # also pin the lag formula directly against the loops
        lags, *_ = naive_pipeline(x, window)
        np.testing.assert_allclose(decompose(x, window).lags, lags, atol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(3, ok, f"20 instances (N<=40, M<=6) match the naive oracle at 1e-10, {elapsed:.1f}s (< 5s)")


def test_criterion_4_gradient_correctness():
    # near-fit targets keep the loss small so the 1e-6-step finite-difference
    # noise floor stays far below the 1e-5 relative tolerance
    rng = SplitMix64(400)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for case in range(100):
        m = 1 + int(rng.below(6))
        h = 1 + int(rng.below(10))
        batch = 1 + int(rng.below(16))
        net = random_network(m, h, seed=400000 + case, scale=1.0)
        inputs = rng.normals(batch * m).reshape(batch, m)
        targets = forward_batch(net, Batch(inputs, None, h)) + 0.3 * rng.normals(batch)
        _, got = backprop_gradient(net, Batch(inputs, targets, h))
        want = finite_difference_gradient(net, inputs, targets, step=1e-6)
        assert got.shape == want.shape
        scale = np.maximum(np.abs(got), np.abs(want))
        small = scale < 1e-8
        assert np.all(np.abs(got - want)[small] < 1e-8)
        if np.any(~small):
            rel = np.max((np.abs(got - want) / scale)[~small])
            worst_rel = max(worst_rel, float(rel))
            assert rel < 1e-5
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(4, ok, f"100 instances, worst relative error {worst_rel:.2e} (tol 1e-5), {elapsed:.1f}s (< 10s)")


# -- criteria 5 + 6 + 7: CLI pipelines, run twice for determinism ---------------

COMPARE_FILES = ("comparison.json", "curve.csv")
SUNSPOT_FILES = (
    "spectrum.json",
    "components.csv",
    "singular_spectrum.csv",
    "network.json",
    "trace.csv",
    "summary.json",
    "forecast.csv",
    "forecast.json",
)


def experiment_config(name: str, local_csv: str, **changes) -> tuple[dict, Path]:
    """The committed ``configs/<name>`` with its ``input_csv`` pointed at a
    local copy named `local_csv`, ``output_dir`` at ``out`` and `changes`
    applied, and the committed input file to copy."""
    committed = json.loads((REPO / "configs" / name).read_text())
    config = {**committed, "input_csv": local_csv, "output_dir": "out", **changes}
    return config, REPO / committed["input_csv"]


def _run_twin(tmp_path_factory, label: str, config_name: str, local_csv: str, argvs):
    """Run the commands `argvs` in two sibling directories, each holding a
    copy of the input and the same merged run.json, so rerun outputs must be
    byte-identical (criterion 7).  The first directory's run is timed."""
    config, source = experiment_config(config_name, local_csv)
    base = tmp_path_factory.mktemp(label)
    dirs, codes = [], []
    for sub in ("a", "b"):
        d = base / sub
        d.mkdir()
        shutil.copy(source, d / local_csv)
        (d / "run.json").write_text(json.dumps(config))
        t0 = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(d)
            codes.extend(main(argv) for argv in argvs)
        if not dirs:
            elapsed = time.perf_counter() - t0
        dirs.append(d)
    return {"dirs": tuple(dirs), "codes": codes, "elapsed": elapsed}


HELD_OUT_SEEDS = list(range(10, 50))


@pytest.fixture(scope="module")
def benchmark_compare(tmp_path_factory):
    """cmd_compare on the committed benchmark, twice (criteria 5 and 7)."""
    return _run_twin(tmp_path_factory, "bench_compare", "two_sine_compare.json", "series.csv",
                     [["compare", "--config", "run.json"]])


def _holdout_noise_rms(horizon: int) -> float:
    """RMS of the benchmark series' noise over its last `horizon` samples: the
    holdout RMSE of a forecast of the noise-free signal, a floor for both
    arms (the committed CSV is two_sine_benchmark(600, 0))."""
    noise = two_sine_benchmark(600, 0) - two_sine_signal(600)
    return float(np.sqrt(np.mean(noise[-horizon:] ** 2)))


def _criterion_5_rule(doc) -> tuple[bool, bool, str]:
    """(validation rule met, RMSE rule met, the medians, paired counts and
    holdout noise RMS)."""
    med = doc["medians"]
    val_ok = med["curriculum_validation_mse"] <= med["baseline_validation_mse"]
    rmse_ok = med["curriculum_forecast_rmse"] <= 1.1 * med["baseline_forecast_rmse"]
    seeds = len(doc["per_seed"])
    val, rmse = doc["paired"]["validation_mse"], doc["paired"]["forecast_rmse"]
    detail = (
        f"{seeds} paired seeds, equal budgets: median val MSE "
        f"{med['curriculum_validation_mse']:.4f} <= {med['baseline_validation_mse']:.4f}, "
        f"median 50-step RMSE {med['curriculum_forecast_rmse']:.4f} <= "
        f"1.1 x {med['baseline_forecast_rmse']:.4f}; curriculum wins val "
        f"{val['curriculum_wins']}/{seeds} (sign test p {val['sign_test_p']:.2f}), "
        f"RMSE {rmse['curriculum_wins']}/{seeds} (p {rmse['sign_test_p']:.2f}); "
        f"holdout noise RMS {_holdout_noise_rms(doc['compare_horizon']):.4f}"
    )
    return val_ok, rmse_ok, detail


def test_criterion_5_curriculum_benefit(benchmark_compare):
    code = benchmark_compare["codes"][0]
    elapsed = benchmark_compare["elapsed"]
    doc = json.loads((benchmark_compare["dirs"][0] / "out" / "comparison.json").read_text())
    val_ok, rmse_ok, detail = _criterion_5_rule(doc)
    budgets_ok = all(r["curriculum_epochs"] == r["baseline_epochs"] for r in doc["per_seed"])
    ok = code == 0 and val_ok and rmse_ok and budgets_ok and len(doc["per_seed"]) == 10 and elapsed < 300.0
    report(5, ok, f"{detail}, {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_5_held_out_seeds(tmp_path, monkeypatch):
    """Criterion 5's rule on seeds 10-49, which it never gates on. The line
    is printed, not asserted: a 10-seed median passes or fails partly by
    chance, and this shows how far the gated result carries."""
    monkeypatch.chdir(tmp_path)
    config, source = experiment_config("two_sine_compare.json", "series.csv", seeds=HELD_OUT_SEEDS)
    shutil.copy(source, "series.csv")
    Path("run.json").write_text(json.dumps(config))
    t0 = time.perf_counter()
    assert main(["compare", "--config", "run.json"]) == 0
    elapsed = time.perf_counter() - t0
    doc = json.loads(Path("out/comparison.json").read_text())
    assert [r["seed"] for r in doc["per_seed"]] == HELD_OUT_SEEDS
    val_ok, rmse_ok, detail = _criterion_5_rule(doc)
    verdict = "would pass" if val_ok and rmse_ok else "would fail"
    print(f"\nACCEPTANCE 5 held-out seeds 10-49 (not gating) {verdict} - {detail}, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def sunspot_pipeline(tmp_path_factory):
    """decompose -> train -> predict on the monthly sunspot CSV, twice."""
    return _run_twin(tmp_path_factory, "sunspot", "sunspot.json", "sunspots_monthly.csv", [
        ["decompose", "--config", "run.json"],
        ["train", "--config", "run.json"],
        ["predict", "--config", "run.json", "--network", "out/network.json"],
    ])


def test_criterion_6_sunspot_end_to_end(sunspot_pipeline):
    codes = sunspot_pipeline["codes"][:3]
    elapsed = sunspot_pipeline["elapsed"]
    out = sunspot_pipeline["dirs"][0] / "out"
    forecast = json.loads((out / "forecast.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    spectrum = json.loads((out / "spectrum.json").read_text())
    finite = all(np.isfinite(forecast["predictions"]))
    peak_emitted = "peak_prediction" in forecast and "peak_timestamp" in forecast
    ok = (
        codes == [0, 0, 0]
        and spectrum["M"] == 35
        and spectrum["N"] == 792
        and len(forecast["predictions"]) == 72
        and finite
        and peak_emitted
        and np.isfinite(summary["final_validation_mse"])
        and elapsed < 600.0
    )
    report(
        6,
        ok,
        f"M=35, m=5, 792 monthly samples; 72-step forecast finite in original units; "
        f"peak {forecast['peak_prediction']:.1f} at {forecast['peak_timestamp']:.2f} "
        f"(reference point, not a bound); {elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_determinism(benchmark_compare, sunspot_pipeline):
    assert benchmark_compare["codes"][1] == 0
    assert sunspot_pipeline["codes"][3:] == [0, 0, 0]
    mismatched = []
    for name in COMPARE_FILES:
        a, b = (d / "out" / name for d in benchmark_compare["dirs"])
        if a.read_bytes() != b.read_bytes():
            mismatched.append(f"compare:{name}")
    for name in SUNSPOT_FILES:
        a, b = (d / "out" / name for d in sunspot_pipeline["dirs"])
        if a.read_bytes() != b.read_bytes():
            mismatched.append(f"sunspot:{name}")
    ok = not mismatched
    report(7, ok, "identical-seed reruns byte-identical" + ("" if ok else f"; differing: {mismatched}"))


def test_criterion_8_error_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(REPO / "tests" / "fixtures" / "tiny_series.csv", tmp_path / "tiny_series.csv")
    shutil.copy(REPO / "tests" / "fixtures" / "golden_config.json", tmp_path / "config.json")
    Path("const.csv").write_text(
        "time,value\n" + "\n".join(f"{i},5.0" for i in range(40)) + "\n"
    )
    observed = {}
    observed["ZeroVariance"] = main(
        ["decompose", "--config", "config.json", "--set", "input_csv=const.csv"]
    )
    observed["EmbeddingTooLarge"] = main(
        ["train", "--config", "config.json", "--set", "embedding=200"]
    )
    observed["WindowTooLarge"] = main(
        ["decompose", "--config", "config.json", "--set", "window=100"]
    )
    observed["DivergenceDetected"] = main(
        ["train", "--config", "config.json", "--set", "stage_lr=1000000.0", "--set", "patience=0"]
    )
    assert main(["train", "--config", "config.json"]) == 0
    payload = json.loads(Path("out/network.json").read_text())
    payload["output_weights"] = [payload["output_weights"][0][:-1]]
    Path("corrupt.json").write_text(json.dumps(payload))
    observed["LengthMismatch"] = main(
        ["predict", "--config", "config.json", "--network", "corrupt.json"]
    )
    documented = {
        "ZeroVariance": 1,
        "EmbeddingTooLarge": 2,
        "WindowTooLarge": 2,
        "DivergenceDetected": 1,
        "LengthMismatch": 1,
    }
    capsys.readouterr()
    ok = observed == documented
    report(8, ok, f"exit codes {observed} match documented {documented}")
