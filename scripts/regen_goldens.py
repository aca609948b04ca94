#!/usr/bin/env python3
"""Regenerate the committed golden files of the command-level golden tests
(`tests/test_cli.py`). Run it only after an intentional change to training
numerics or file formats. A move to another Python/numpy/BLAS build needs no
regeneration: the tests compare float tokens to a relative 1e-12, which
absorbs last-ulp rounding differences between toolchains.

    python scripts/regen_goldens.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ssaforecast.cli import main  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "fixtures" / "golden"
# each golden command, with the golden files it writes; predict runs on the
# network that train wrote
COMMANDS = (
    (["decompose", "--config", "golden_config.json"],
     ("spectrum.json", "components.csv", "singular_spectrum.csv")),
    (["train", "--config", "golden_config.json"],
     ("summary.json", "network.json", "trace.csv")),
    (["predict", "--config", "golden_config.json", "--network", "out/network.json"],
     ("forecast.csv", "forecast.json")),
    (["compare", "--config", "golden_config.json", "--set", "seeds=0,1,2",
      "--set", "compare_horizon=20", "--set", "stage_epochs=40"],
     ("comparison.json", "curve.csv")),
)


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "tests" / "fixtures" / "tiny_series.csv", tmp / "tiny_series.csv")
        shutil.copy(ROOT / "tests" / "fixtures" / "golden_config.json", tmp / "golden_config.json")
        import os

        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv, _ in COMMANDS:
                code = main(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}; goldens left unchanged")
        finally:
            os.chdir(cwd)
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for _, names in COMMANDS:
            for name in names:
                shutil.copy(tmp / "out" / name, GOLDEN_DIR / name)
                print(f"wrote tests/fixtures/golden/{name}")


if __name__ == "__main__":
    run()
