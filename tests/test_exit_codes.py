"""The CLI's exit-code contract: whatever the CSV, `main` returns 0, 1 or 2
and raises nothing; a failure ends stderr with one `error:` line, and no
temp file is left behind."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaforecast.cli import main

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
    ["compare"],
)

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


def assert_contract(code, err: str, workdir: Path) -> None:
    assert code in (0, 1, 2), f"main returned or raised {code!r}; stderr: {err}"
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1 and err.splitlines()[-1] == errors[0], err
    assert not list(workdir.rglob("*.tmp"))


@settings(max_examples=200, deadline=None)
@given(SERIES, st.sampled_from(COMMANDS))
def test_degenerate_csv_keeps_exit_code_contract(values, command):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            Path("config.json").write_text(json.dumps(CONFIG))
            rows = [f"{t},{v!r}" for t, v in enumerate(values)]
            Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
            code, err = run_main([command[0], "--config", "config.json", *command[1:]])
            assert_contract(code, err, workdir)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_non_positive_horizon_flag_exit_2(workdir, fixtures_dir, horizon):
    (workdir / "out").mkdir()
    shutil.copy(fixtures_dir / "golden" / "network.json", workdir / "out" / "network.json")
    code, err = run_main(["predict", "--config", "golden_config.json",
                          "--network", "out/network.json", "--horizon", horizon])
    assert code == 2
    assert err == "error: ConfigError: horizon must be at least 1\n"
    assert not Path("out/forecast.csv").exists()
    assert_contract(code, err, workdir)


def test_constant_holdout_compare_exit_0(tmp_path, monkeypatch):
    # a sine whose last 50 samples, the held-out part, are constant
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(CONFIG))
    values = [0.5 if t >= 150 else math.sin(2.0 * math.pi * t / 12.0) for t in range(200)]
    rows = [f"{t},{v!r}" for t, v in enumerate(values)]
    Path("data.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    code, err = run_main(["compare", "--config", "config.json", "--set", "window=10",
                          "--set", "stage_epochs=5", "--set", "compare_horizon=50"])
    assert code == 0, err
    assert_contract(code, err, tmp_path)
    medians = json.loads(Path("out/comparison.json").read_text())["medians"]
    assert math.isfinite(medians["curriculum_forecast_rmse"])
