"""The CLI's exit-code contract: whatever the CSV, config value, network file
or path, `main` returns 0, 1 or 2 and raises nothing; a failure ends stderr
with one `error:` line, no temp or part file is left behind, a run rejected
with exit 2 writes nothing at all, and a run that fails with exit 1 leaves
only its command's documented partial artifacts.  `compare` gives the same exit
code, stderr and artifacts on one lane and on two."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaforecast.cli import main
from ssaforecast.config import _SCHEMA
from ssaforecast.mlp import init_network, network_to_dict
from test_side_by_side import set_cpus

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CONFIG = {
    "input_csv": "data.csv",
    "window": 4,
    "embedding": 2,
    "hidden_units": 3,
    "pc_step": 2,
    "stage_epochs": 3,
    "patience": 0,
    "seed": 0,
    "seeds": [0],
    "horizon": 3,
    "compare_horizon": 3,
    "output_dir": "out",
}
COMMANDS = (
    ["decompose"], ["train", "--mode", "curriculum"], ["train", "--mode", "baseline"],
    ["predict", "--network", "network.json"], ["compare"],
)
# a network for CONFIG's embedding and hidden units, for predict
NETWORK = network_to_dict(init_network(CONFIG["embedding"], CONFIG["hidden_units"], seed=0))

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREME = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e200, -1e200,
                           5e-324, -5e-324, 1e-308, 0.0])


def rows_of(elements):
    """0 to 80 values, every length about equally likely."""
    return st.integers(0, 80).flatmap(lambda n: st.lists(elements, min_size=n, max_size=n))


def with_spikes(values, spikes):
    """`values` with each (position, value) spike that fits written over it."""
    for position, value in spikes:
        if position < len(values):
            values[position] = value
    return values


SERIES = st.one_of(
    # ordinary values with up to two extreme ones mixed in
    st.builds(with_spikes, rows_of(st.floats(-1e3, 1e3)),
              st.lists(st.tuples(st.integers(0, 79), EXTREME), max_size=2)),
    rows_of(FINITE),  # any magnitude, huge and tiny included
    rows_of(st.sampled_from([1e308, -1e308])),
    st.builds(lambda value, n: [value] * n, FINITE | EXTREME, st.integers(0, 80)),  # constant
)


def run_main(argv) -> tuple[object, str]:
    """main's return value (or the exception it raised) and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - the contract is that nothing escapes
            code = exc
    return code, err.getvalue()


# the only files a command that exits 1 may write: the partial artifacts of
# a failure after its work began, each with the errors that must leave it
PARTIAL = {
    "decompose": {},
    "train": {"trace.csv": ("DivergenceDetected",)},
    "predict": {"forecast_partial.json": ("NonFiniteOutput",)},
    "compare": {"comparison.json": ("DivergenceDetected", "NonFiniteOutput"), "curve.csv": ()},
}


def assert_contract(command: str, code, err: str, workdir: Path, before: set) -> None:
    """`before`: the paths under `workdir` before the run."""
    assert code in (0, 1, 2), f"main returned or raised {code!r}; stderr: {err}"
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1 and err.splitlines()[-1] == errors[0], err
    assert not list(workdir.rglob("*.tmp")) and not list(workdir.rglob("*.tmp.part*"))
    if code == 2:
        assert set(workdir.rglob("*")) == before, err
    if code == 1:
        assert_partial_artifacts(command, errors[0], set(workdir.rglob("*")) - before)


def assert_partial_artifacts(command: str, error: str, new: set) -> None:
    """The files in `new` are the partial artifacts `error` must leave."""
    kind, message = error.removeprefix("error: ").split(": ", 1)
    written = {path.name: path for path in new if path.is_file()}
    assert set(written) <= set(PARTIAL[command]), (error, sorted(written))
    for name, kinds in PARTIAL[command].items():
        assert name in written or kind not in kinds, (error, sorted(written))
    if "trace.csv" in written:
        header = written["trace.csv"].read_text().splitlines()[0]
        assert header == "stage,epoch,train_mse,validation_mse"
    for name in ("forecast_partial.json", "comparison.json"):
        if name in written:
            assert json.loads(written[name].read_text())["error"] == message, error
    if "curve.csv" in written:  # written with the document that reports the failure
        assert "comparison.json" in written


@settings(max_examples=200, deadline=None)
@given(SERIES, st.sampled_from(COMMANDS))
def test_degenerate_csv_keeps_exit_code_contract(values, command):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            Path("config.json").write_text(json.dumps(CONFIG))
            Path("network.json").write_text(json.dumps(NETWORK))
            rows = [f"{t},{v!r}" for t, v in enumerate(values)]
            Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
            before = set(workdir.rglob("*"))
            code, err = run_main([command[0], "--config", "config.json", *command[1:]])
            assert_contract(command[0], code, err, workdir, before)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("horizon, message", [
    ("0", "horizon must be at least 1"),
    ("-1", "horizon must be at least 1"),
    # sizes beyond the address space: a forecast array that cannot be made
    (str(10**16), f"horizon {10**16} is too large"),
    (str(2**63), f"horizon {2**63} is too large"),
], ids=["0", "-1", "10**16", "2**63"])
def test_non_positive_horizon_flag_exit_2(workdir, fixtures_dir, horizon, message):
    (workdir / "out").mkdir()
    shutil.copy(fixtures_dir / "golden" / "network.json", workdir / "out" / "network.json")
    before = set(workdir.rglob("*"))
    code, err = run_main(["predict", "--config", "golden_config.json",
                          "--network", "out/network.json", "--set", f"horizon={horizon}"])
    assert code == 2
    assert err == f"error: ConfigError: {message}\n"
    assert_contract("predict", code, err, workdir, before)


def test_unconverged_eigenbasis_exit_1(workdir, monkeypatch):
    eigh = np.linalg.eigh

    def unnormalized(c):
        vals, vecs = eigh(c)
        vecs[:, 0] *= 1.0 + 1e-8
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", unnormalized)
    before = set(workdir.rglob("*"))
    code, err = run_main(["decompose", "--config", "golden_config.json"])
    assert code == 1
    assert err.startswith("error: ConvergenceFailure: eigenvectors not orthonormal")
    assert_contract("decompose", code, err, workdir, before)
    assert set(workdir.rglob("*")) == before


def test_predict_overflowing_original_units_exit_1(tmp_path, monkeypatch):
    # a finite standardized forecast that overflows when scaled back
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({**CONFIG, "embedding": 3}))
    network = network_to_dict(init_network(3, CONFIG["hidden_units"], seed=0))
    Path("network.json").write_text(json.dumps({**network, "output_bias": [1.5e308]}))
    rows = [f"{t},{10.0 * math.sin(t)!r}" for t in range(40)]
    Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    before = set(tmp_path.rglob("*"))
    code, err = run_main(["predict", "--config", "config.json", "--network", "network.json"])
    assert (code, err) == (1, "error: NonFiniteOutput: forecast step 1 overflows in original "
                              "units\n")
    assert_contract("predict", code, err, tmp_path, before)
    partial = json.loads(Path("out/forecast_partial.json").read_text())
    assert partial["partial_standardized"] == []
    assert sorted(os.listdir("out")) == ["forecast_partial.json"]


# config changes and series of a compare whose forecast RMSE overflows: the
# training part's variance is finite, but the held-out part lies so far
# below it that the sum of squared forecast errors overflows; or forecasts
# near 1e150 whose one squared error overflows
AMPLITUDE = math.sqrt(0.97 * 1.797e308 / 275)
RMSE_OVERFLOWS = {
    "far-holdout": ({"compare_horizon": 50},
                    [AMPLITUDE * math.sin(2.0 * math.pi * t / 12.0) if t < 150 else -2.0 * AMPLITUDE
                     for t in range(200)]),
    "squared-error": ({"window": 6, "embedding": 3, "hidden_units": 4, "stage_epochs": 5,
                       "stage_lr": 1000.0, "compare_horizon": 1},
                      [1e150 * math.sin(t / 3) for t in range(60)]),
}


@pytest.mark.parametrize("changes, values", RMSE_OVERFLOWS.values(), ids=RMSE_OVERFLOWS)
def test_compare_overflowing_forecast_rmse_exit_1(tmp_path, monkeypatch, changes, values):
    # the overflow is the error reported, with no numpy warning before it
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({**CONFIG, **changes}))
    rows = [f"{t},{v!r}" for t, v in enumerate(values)]
    Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    before = set(tmp_path.rglob("*"))
    code, err = run_main(["compare", "--config", "config.json"])
    assert (code, err) == (1, "error: NonFiniteOutput: seed 0: forecast RMSE overflows in "
                              "original units\n")
    assert_contract("compare", code, err, tmp_path, before)
    document = json.loads(Path("out/comparison.json").read_text())
    assert document["error"].startswith("seed 0:") and document["per_seed"] == []


def test_constant_holdout_compare_exit_0(tmp_path, monkeypatch):
    # a sine whose last 50 samples, the held-out part, are constant
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(CONFIG))
    values = [0.5 if t >= 150 else math.sin(2.0 * math.pi * t / 12.0) for t in range(200)]
    rows = [f"{t},{v!r}" for t, v in enumerate(values)]
    Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    before = set(tmp_path.rglob("*"))
    code, err = run_main(["compare", "--config", "config.json", "--set", "window=10",
                          "--set", "stage_epochs=5", "--set", "compare_horizon=50"])
    assert code == 0, err
    assert_contract("compare", code, err, tmp_path, before)
    medians = json.loads(Path("out/comparison.json").read_text())["medians"]
    assert math.isfinite(medians["curriculum_forecast_rmse"])


# -- config values and paths on the golden config ----------------------------

RUNS = {
    "decompose": ["decompose"],
    "train": ["train", "--mode", "curriculum"],
    "baseline": ["train", "--mode", "baseline"],
    "predict": ["predict", "--network", "golden_network.json"],
    "compare": ["compare"],
}
# a few epochs and one seed, so every run is short
FAST = ["stage_epochs=3", "seeds=0"]


def prepare(workdir: Path) -> None:
    """The golden config, the tiny series and network, and bad paths."""
    for name in ("golden_config.json", "tiny_series.csv"):
        shutil.copy(FIXTURES / name, workdir / name)
    shutil.copy(FIXTURES / "golden" / "network.json", workdir / "golden_network.json")
    (workdir / "adir").mkdir()
    (workdir / "afile").write_text("")
    (workdir / "latin1.csv").write_bytes("time,value\n0,1.0\n1,caf\xe9\n".encode("latin-1"))
    (workdir / "latin1.json").write_bytes('{"input_csv": "caf\xe9.csv"}'.encode("latin-1"))


def run_checked(workdir: Path, argv, overrides=()) -> tuple[object, str]:
    """Run `argv` with `overrides` after FAST and check the contract."""
    before = set(workdir.rglob("*"))
    sets = [arg for override in (*FAST, *overrides) for arg in ("--set", override)]
    code, err = run_main([*argv, *sets])
    assert_contract(argv[0], code, err, workdir, before)
    return code, err


def golden_run(command: str) -> list[str]:
    return [RUNS[command][0], "--config", "golden_config.json", *RUNS[command][1:]]


EVERY = tuple(RUNS)
TRAINING = ("train", "baseline", "compare")
# each moved value rule: a value it rejects, and the error of each command
# that reads the key; every other command exits 0
RULES = {
    "window=0": dict.fromkeys(EVERY, "BadDimensions: window must be at least 1, got 0"),
    "embedding=0": {
        **dict.fromkeys(TRAINING, "BadDimensions: embedding dimension must be at least 1, got 0"),
        "predict": "DimensionMismatch: network input_dim 4 does not match config embedding 0",
    },
    "hidden_units=0": dict.fromkeys(
        TRAINING, "BadDimensions: dimensions must be positive, got m=4, H=0"),
    "hidden_units=-1": dict.fromkeys(
        TRAINING, "BadDimensions: dimensions must be positive, got m=4, H=-1"),
    "pc_step=0": dict.fromkeys(TRAINING, "BadStep: pc_step must be at least 1, got 0"),
    "stage_epochs=0": dict.fromkeys(TRAINING, "ConfigError: epochs must be at least 1"),
    "stage_lr=0": dict.fromkeys(TRAINING, "ConfigError: learning rate must be positive"),
    "stage_momentum=1": dict.fromkeys(TRAINING, "ConfigError: momentum must lie in [0, 1)"),
    "validation_fraction=1": dict.fromkeys(
        TRAINING, "BadFraction: fraction must lie in (0, 1), got 1.0"),
    "patience=-1": dict.fromkeys(
        ("train", "baseline"),
        "ConfigError: patience must be non-negative (0 disables early stopping)"),
    "horizon=0": {"predict": "ConfigError: horizon must be at least 1"},
    "compare_horizon=0": {"compare": "BadHorizon: holdout horizon 0 leaves too little of the "
                                     "120 samples for training with embedding 4"},
    "seeds=": {"compare": "ConfigError: seeds must be non-empty"},
}


@pytest.mark.parametrize("command", EVERY)
@pytest.mark.parametrize("override", RULES)
def test_value_rule_checked_by_the_command_that_reads_it(tmp_path, monkeypatch, override,
                                                         command):
    # e.g. decompose reads no training key, so decompose --set stage_lr=0 exits 0
    monkeypatch.chdir(tmp_path)
    prepare(tmp_path)
    code, err = run_checked(tmp_path, golden_run(command), [override])
    error = RULES[override].get(command)
    assert (code, err) == ((2, f"error: {error}\n") if error else (0, ""))


NON_FINITE = ("stage_lr=nan", "stage_lr=inf", "stage_momentum=-inf", "validation_fraction=nan")


@pytest.mark.parametrize("argv, overrides, code, error", [
    pytest.param(["decompose", "--config", "adir"], [], 2,
                 "ConfigError: cannot read config file adir: ", id="config-directory"),
    pytest.param(["decompose", "--config", "missing.json"], [], 2,
                 "ConfigError: cannot read config file missing.json: ", id="config-missing"),
    pytest.param(["decompose", "--config", "latin1.json"], [], 2,
                 "ConfigError: config file is not valid JSON: ", id="config-not-utf8"),
    pytest.param(["decompose", "--config", "nan.json"], [], 2,
                 "ConfigError: key 'stage_lr' must be finite, got nan", id="config-nan"),
    pytest.param(["decompose", "--config", "inf.json"], [], 2,
                 "ConfigError: key 'validation_fraction' must be finite, got inf",
                 id="config-infinity"),
    pytest.param(golden_run("decompose"), ["input_csv=adir"], 1, "IsADirectoryError: ",
                 id="csv-directory"),
    pytest.param(golden_run("train"), ["input_csv=latin1.csv"], 1,
                 "ParseError: row 2, column 'value': cell does not parse as a finite real",
                 id="csv-not-utf8"),
    pytest.param(golden_run("decompose"), ["output_dir=afile"], 1, "FileExistsError: ",
                 id="output-dir-is-a-file"),
    pytest.param(["decompose", "--config", "empty.json"], [], 2,
                 "ConfigError: config key 'input_csv' is required for this command",
                 id="config-without-input-csv"),
    pytest.param(["decompose", "--config", "array.json"], [], 2,
                 "ConfigError: config file must contain a JSON object", id="config-array"),
    pytest.param(["decompose", "--config", "deep.json"], [], 2,
                 "ConfigError: config file is not valid JSON: maximum recursion depth",
                 id="config-nested-too-deep"),
    pytest.param(["predict", "--config", "golden_config.json", "--network", "deep.json"], [], 1,
                 "RuntimeFailure: network file is not valid JSON: maximum recursion depth",
                 id="network-nested-too-deep"),
    pytest.param(golden_run("decompose"), ["input_csv=afile"], 1,
                 "ParseError: row 0, column 'value': file has no header row", id="csv-empty"),
    pytest.param(["predict", "--config", "golden_config.json"], [], 2,
                 "ConfigError: predict requires --network", id="network-missing-flag"),
    pytest.param(["predict", "--config", "golden_config.json", "--network", "adir"], [], 2,
                 "ConfigError: cannot read network file adir: ", id="network-directory"),
    pytest.param(["predict", "--config", "golden_config.json", "--network", "latin1.csv"], [], 1,
                 "RuntimeFailure: network file is not valid JSON: ", id="network-not-utf8"),
    pytest.param(["predict", "--config", "golden_config.json", "--network", "net\x00.json"], [],
                 2, "ConfigError: network path must not contain a NUL character",
                 id="network-nul"),
    pytest.param(["predict", "--config", "golden_config.json", "--network", "net\udcff.json"],
                 [], 2, "ConfigError: network path must be UTF-8 text, without lone surrogates",
                 id="network-not-utf8-path"),
    pytest.param(["decompose", "--config", "c\x00.json"], [], 2,
                 "ConfigError: config path must not contain a NUL character",
                 id="config-path-nul"),
    pytest.param(["decompose", "--config", "c\udcff.json"], [], 2,
                 "ConfigError: config path must be UTF-8 text, without lone surrogates",
                 id="config-path-not-utf8"),
    pytest.param(["decompose", "--config", "surrogate.json"], [], 2,
                 "ConfigError: key 'input_csv' must be UTF-8 text, without lone surrogates",
                 id="config-surrogate"),
    pytest.param(golden_run("decompose"), ["output_dir=o\udcff"], 2,
                 "ConfigError: key 'output_dir' must be UTF-8 text, without lone surrogates",
                 id="output-dir-not-utf8"),
    pytest.param(["decompose", "--config", "nul.json"], [], 2,
                 "ConfigError: key 'input_csv' must not contain a NUL character", id="config-nul"),
    pytest.param(golden_run("decompose"), ["input_csv=tiny\x00.csv"], 2,
                 "ConfigError: key 'input_csv' must not contain a NUL character", id="csv-nul"),
    pytest.param(golden_run("decompose"), ["output_dir=o\x00"], 2,
                 "ConfigError: key 'output_dir' must not contain a NUL character",
                 id="output-dir-nul"),
    *[pytest.param(golden_run(command), [override], 2,
                   "ConfigError: key '{}' must be finite, got {}".format(*override.split("=")),
                   id=f"{command}-{override}")
      for command in EVERY for override in NON_FINITE],
])
def test_unreadable_file_or_non_finite_key_keeps_contract(tmp_path, monkeypatch, argv, overrides,
                                                           code, error):
    monkeypatch.chdir(tmp_path)
    prepare(tmp_path)
    Path("nan.json").write_text('{"input_csv": "tiny_series.csv", "stage_lr": NaN}')
    Path("inf.json").write_text('{"input_csv": "tiny_series.csv", "validation_fraction": Infinity}')
    Path("nul.json").write_text('{"input_csv": "tiny_series\\u0000.csv"}')
    Path("surrogate.json").write_text('{"input_csv": "x\\ud800.csv"}')
    Path("empty.json").write_text("{}")
    Path("array.json").write_text("[]")
    Path("deep.json").write_text("[" * 100_000 + "]" * 100_000)
    got, err = run_checked(tmp_path, argv, overrides)
    assert got == code
    assert err.startswith(f"error: {error}"), err
    # nothing is written: every failure here comes before any output
    assert not Path("out").exists()


def override_values(key: str):
    """`key=value` texts for a value of the key's type: boundaries, negatives,
    -0.0, non-finite floats, paths to a directory or a missing file or holding
    a NUL or a lone surrogate, and magnitudes small enough that no run
    allocates much or trains long."""
    kind = _SCHEMA[key]
    if kind is int:
        top = {"stage_epochs": 5, "horizon": 200, "seed": 2**64}.get(key, 130)
        values = st.sampled_from([-1, 0, 1, 2]) | st.integers(-top, top)
    elif kind is float:
        values = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-300, 1e308, math.nan,
                                  math.inf, -math.inf]) | st.floats(-2.0, 2.0)
    elif kind is list:
        values = st.lists(st.integers(-2**64, 2**64), max_size=3).map(
            lambda seeds: ",".join(map(str, seeds)))
    elif key == "input_csv":
        values = st.sampled_from(["tiny_series.csv", "missing.csv", "adir", "latin1.csv", "",
                                  "tiny\x00.csv", "tiny\udcff.csv"])
    elif key == "output_dir":
        values = st.sampled_from(["out", "afile", "adir", "missing/out", "o\x00", "o\udcff"])
    else:
        values = st.sampled_from(["time", "value", "missing", ""])
    return values.map(lambda value: f"{key}={value}")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(EVERY),
       st.lists(st.sampled_from(sorted(_SCHEMA)).flatmap(override_values),
                min_size=1, max_size=3))
def test_fuzzed_overrides_keep_exit_code_contract(command, overrides):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            prepare(workdir)
            run_checked(workdir, golden_run(command), overrides)
        finally:
            os.chdir(cwd)


# -- network file contents ---------------------------------------------------

# what may stand in a field of a network file: any JSON value, small or deeply
# nested, and values an integer field must not take
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2, 3, 2.0, 4.9, "2", math.inf, 10**400, -1, 0, 1, [], [[]]]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=12,
)
DELETED = object()
# what may stand in one entry of a weight array: a JSON string or boolean,
# which no network_to_dict output holds, or a number
ENTRIES = (st.text(max_size=4) | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(["0.5", " 1e-3 ", "nan", True, False, 0, 1.0]))
PREDICT = ["predict", "--config", "config.json", "--network", "network.json"]


def write_predict_inputs(workdir: Path, network: dict) -> set:
    """CONFIG, `network` and a 40-row sine in `workdir`; the paths there."""
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    (workdir / "network.json").write_text(json.dumps(network))
    rows = [f"{t},{math.sin(t / 3.0)!r}" for t in range(40)]
    (workdir / "data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    return set(workdir.rglob("*"))


def with_entry(array: list, index: int, entry) -> list:
    """A copy of a 1-D or 2-D nested list with its index-th entry (modulo
    the entry count, row-major) replaced by `entry`."""
    copy = json.loads(json.dumps(array))
    rows = copy if isinstance(copy[0], list) else [copy]
    cells = [(row, j) for row in rows for j in range(len(row))]
    row, j = cells[index % len(cells)]
    row[j] = entry
    return copy


def field_values(key: str):
    """DELETED or any JSON value; for a weight array also the stored array
    with one entry replaced."""
    values = st.just(DELETED) | JSON_VALUES
    if isinstance(NETWORK[key], list):
        values |= st.builds(with_entry, st.just(NETWORK[key]), st.integers(0, 100), ENTRIES)
    return values


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(NETWORK)).flatmap(lambda key: st.tuples(st.just(key),
                                                                       field_values(key))))
def test_fuzzed_network_file_keeps_exit_code_contract(field):
    # predict with one field of a valid network file replaced, or deleted
    key, value = field
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            network = {k: v for k, v in NETWORK.items() if k != key or value is not DELETED}
            if value is not DELETED:
                network[key] = value
            before = write_predict_inputs(workdir, network)
            code, err = run_main(PREDICT)
            assert_contract("predict", code, err, workdir, before)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("entries", [["0.5", True, " 1e-3 "], [0.5, True, 0.0], [0, 0, "0"]])
def test_network_entries_that_are_not_numbers_exit_1(tmp_path, monkeypatch, entries):
    monkeypatch.chdir(tmp_path)
    write_predict_inputs(tmp_path, {**NETWORK, "hidden_biases": entries})
    code, err = run_main(PREDICT)
    assert code == 1
    assert err.splitlines()[-1].startswith("error: LengthMismatch: "), err


# -- CSV contents on the golden config -----------------------------------------

# what a fault puts in a cell: a non-finite or blank value, or the time t-1
# (the previous row's), t-2 (before it) or t-0.5 (off the uniform grid)
CELL_FAULTS = st.sampled_from(["nan", "NaN", "inf", "-inf", "", " ", "1e999", "repeat",
                               "decrease", "jitter"])
HEADERS = st.sampled_from([("time", "value"), ("value", "time"), ("time", "value", "extra"),
                           ("time",), ("value",), ("when", "value")])


def csv_text(n: int, header: tuple, faults, short_rows) -> str:
    """A sine sampled at t = 0..n-1 under `header`, with each (row, column,
    fault) of `faults` that fits applied and each row in `short_rows` cut
    to its first cell."""
    rows = [{"time": str(t), "value": repr(math.sin(t / 5.0)), "extra": "1", "when": str(t)}
            for t in range(n)]
    for row, column, fault in faults:
        if row < n:
            times = {"repeat": row - 1.0, "decrease": row - 2.0, "jitter": row - 0.5}
            rows[row][column] = repr(times[fault]) if fault in times else fault
    lines = [",".join(row[c] for c in header) for row in rows]
    lines = [line.split(",")[0] if i in short_rows else line for i, line in enumerate(lines)]
    return "\n".join([",".join(header), *lines]) + "\n"


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(EVERY), st.integers(0, 130), HEADERS,
       st.lists(st.tuples(st.integers(0, 129), st.sampled_from(["time", "value"]), CELL_FAULTS),
                max_size=3),
       st.sets(st.integers(0, 129), max_size=2))
def test_fuzzed_csv_contents_keep_exit_code_contract(command, n, header, faults, short_rows):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            prepare(workdir)
            Path("data.csv").write_text(csv_text(n, header, faults, short_rows))
            run_checked(workdir, golden_run(command), ["input_csv=data.csv"])
        finally:
            os.chdir(cwd)


# -- compare on one lane and on two ------------------------------------------

# training values under which a seed or the curve, in either lane, diverges
# or overflows its forecast, and seed lists that put seeds in the worker lane
LANE_OVERRIDES = st.tuples(
    st.sampled_from(["stage_lr=0.05", "stage_lr=5.0", "stage_lr=1000.0", "stage_lr=1000000.0",
                     "stage_lr=1e300"]),
    st.sampled_from(["seeds=0", "seeds=0,1", "seeds=2,0,1", "seeds=1,1"]),
    st.sampled_from(["compare_horizon=1", "compare_horizon=6", "compare_horizon=20"]),
)


def run_compare(cpus: int, values, overrides) -> tuple[object, str, dict]:
    """Exit code, stderr and written files of compare on `cpus` lanes, in a
    fresh directory holding `values` as data.csv."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            set_cpus(patch, cpus)
            prepare(workdir)
            rows = [f"{t},{v!r}" for t, v in enumerate(values)]
            Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
            before = set(workdir.rglob("*"))
            code, err = run_checked(workdir, golden_run("compare"),
                                    ["input_csv=data.csv", *overrides])
            written = {str(path.relative_to(workdir)): path.read_bytes()
                       for path in set(workdir.rglob("*")) - before if path.is_file()}
        finally:
            os.chdir(cwd)
    return code, err, written


# a sine that trains, at an amplitude whose forecast may overflow, with
# up to one extreme value
LANE_SERIES = st.builds(
    lambda n, amplitude, spikes: with_spikes(
        [amplitude * math.sin(t / 5.0) for t in range(n)], spikes),
    st.integers(20, 130), st.sampled_from([1.0, 1e150, 1e300]),
    st.lists(st.tuples(st.integers(0, 129), EXTREME), max_size=1),
)


@settings(max_examples=60, deadline=None)
@given(LANE_SERIES, LANE_OVERRIDES)
def test_fuzzed_compare_same_on_one_and_two_lanes(values, overrides):
    assert run_compare(1, values, overrides) == run_compare(2, values, overrides)
