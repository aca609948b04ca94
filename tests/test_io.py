import json
import math

import numpy as np
import pytest

from ssaforecast.config import _SCHEMA, RunConfig, load_config
from ssaforecast.errors import ConfigError
from ssaforecast.jsonio import dumps, format_float, write_csv, write_json


# -- jsonio ---------------------------------------------------------------------

def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e17, math.pi):
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps_parses_with_stdlib():
    doc = {
        "a": 1,
        "b": [1.5, 2.25, -0.1],
        "c": {"nested": True, "none": None, "s": 'quote " and \n newline'},
        "d": np.array([0.5, 0.25]),
    }
    parsed = json.loads(dumps(doc))
    assert parsed["a"] == 1
    assert parsed["b"] == [1.5, 2.25, -0.1]
    assert parsed["c"]["nested"] is True and parsed["c"]["none"] is None
    assert parsed["d"] == [0.5, 0.25]


def test_control_characters_round_trip():
    # U+0000 to U+001F, in a key and in a value
    controls = "".join(map(chr, range(0x20)))
    doc = {f"k{controls}": f"v{controls}", "each": [chr(c) for c in range(0x20)]}
    assert json.loads(dumps(doc)) == doc


def test_dumps_deterministic():
    doc = {"x": [1.0 / 3.0] * 3, "y": {"z": 7}}
    assert dumps(doc) == dumps(doc)


def test_write_json_and_csv(tmp_path):
    write_json(tmp_path / "d" / "a.json", {"v": 0.1})
    assert json.loads((tmp_path / "d" / "a.json").read_text())["v"] == 0.1
    write_csv(tmp_path / "b.csv", ["k", "x"], [(1, 0.5), (2, 1.0 / 3.0)])
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "k,x"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


# -- config ---------------------------------------------------------------------

def write_config(tmp_path, payload):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    return p


def test_defaults_applied(tmp_path):
    config, echo = load_config(write_config(tmp_path, {"input_csv": "x.csv"}))
    assert config.window == 35 and config.embedding == 5
    assert config.validation_fraction == 0.10
    assert echo["input_csv"] == "x.csv"
    assert echo["overrides"] == {}


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_config(tmp_path, {"mystery": 1}))


def test_type_checked(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"window": "many"}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"seeds": [1, "two"]}))


def test_schema_is_every_field_with_its_json_type():
    assert _SCHEMA == {
        "input_csv": str, "time_column": str, "value_column": str, "window": int,
        "embedding": int, "hidden_units": int, "pc_step": int, "stage_epochs": int,
        "stage_lr": float, "stage_momentum": float, "patience": int,
        "validation_fraction": float, "seed": int, "horizon": int, "seeds": list,
        "compare_horizon": int, "output_dir": str,
    }


@pytest.mark.parametrize("payload, message", [
    ({"window": "many"}, "key 'window' must be of type int"),
    ({"stage_lr": "fast"}, "key 'stage_lr' must be of type float"),
    ({"output_dir": 3}, "key 'output_dir' must be of type str"),
    ({"seeds": [1, "two"]}, "key 'seeds' must be a list of integers"),
    ({"seeds": 4}, "key 'seeds' must be a list of integers"),
])
def test_type_error_messages(tmp_path, payload, message):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert str(err.value) == message


def test_int_promotes_to_float(tmp_path):
    config, _ = load_config(write_config(tmp_path, {"stage_lr": 1}))
    assert config.stage_lr == 1.0


def test_overrides_recorded(tmp_path):
    config, echo = load_config(
        write_config(tmp_path, {"window": 12}), ["window=20", "seeds=3,4,5"]
    )
    assert config.window == 20
    assert config.seeds == (3, 4, 5)
    assert echo["overrides"] == {"window": 20, "seeds": [3, 4, 5]}


def test_override_parse_errors(tmp_path):
    path = write_config(tmp_path, {})
    with pytest.raises(ConfigError):
        load_config(path, ["window"])
    with pytest.raises(ConfigError):
        load_config(path, ["window=ten"])
    with pytest.raises(ConfigError, match="unknown"):
        load_config(path, ["lr=0.1"])


def test_value_constraints():
    with pytest.raises(ConfigError, match="patience must be non-negative"):
        RunConfig(patience=-1)
    with pytest.raises(ConfigError, match="key 'stage_lr' must be finite"):
        RunConfig(stage_lr=float("inf"))
    # every other range is checked by the code that reads the value
    RunConfig(window=0, stage_momentum=1.0, validation_fraction=1.2, seeds=())


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_patience_zero_disables_early_stop():
    assert RunConfig(patience=0).early_stop_patience is None
    assert RunConfig(patience=5).early_stop_patience == 5
