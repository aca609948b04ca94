import shutil
import warnings
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture
def workdir(tmp_path, fixtures_dir, monkeypatch):
    """Fresh directory holding the tiny fixture + golden config, as cwd."""
    shutil.copy(fixtures_dir / "tiny_series.csv", tmp_path / "tiny_series.csv")
    shutil.copy(fixtures_dir / "golden_config.json", tmp_path / "golden_config.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def sunspot_csv() -> Path:
    return REPO_ROOT / "data" / "sunspots_monthly.csv"


@pytest.fixture(autouse=True)
def _quiet_wide_window_warning():
    # tests routinely use M > N/3 on purpose; the warning itself has its own test
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="window .* exceeds a third")
        yield
