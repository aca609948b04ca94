"""Every CLI command runs BLAS on one thread, in its own process and in the
lane workers it forks, and gives the process's thread count back when it
ends; library calls outside `main` keep the process's setting."""

import os
from pathlib import Path

import pytest

from ssaforecast import cli
from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.cli import main
from ssaforecast.lanes import _openblas, run_side_by_side
from test_side_by_side import set_cpus


@pytest.fixture
def blas():
    """OpenBLAS's (get, set) thread-count functions, at two threads for the
    test and back at the process's count after it."""
    if _openblas() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can find")
    get, set_, _ = _openblas()
    previous = get()
    set_(2)
    if get() != 2:
        set_(previous)
        pytest.skip("this OpenBLAS does not run on two threads")
    yield get, set_
    set_(previous)


def test_commands_and_lane_workers_run_one_blas_thread(workdir, monkeypatch, blas):
    get, _ = blas
    set_cpus(monkeypatch, 2)
    seen = []

    def decompose(config, echo):
        task = (lambda: (os.getpid(), get()), ())
        seen.extend(run_side_by_side([task, task], [1, 1]))
        return 0

    monkeypatch.setattr(cli, "cmd_decompose", decompose)
    assert main(["decompose", "--config", "golden_config.json"]) == 0
    (lane_0, threads_0), (lane_1, threads_1) = seen
    assert lane_0 == os.getpid() != lane_1  # the second task ran in a forked worker
    assert threads_0 == threads_1 == 1
    assert get() == 2


def test_no_blas_thread_left_spinning_after_a_forking_command(workdir, monkeypatch, blas):
    # a fork shuts OpenBLAS's pool down; restoring two threads would start it
    # again, with a worker that spins on the other CPU for about 0.1 s
    stop = _openblas()[2]
    if stop is None or not Path("/proc/self/task").is_dir():
        pytest.skip("needs OpenBLAS's pool shutdown and /proc/self/task")
    set_cpus(monkeypatch, 2)
    stop()
    threads = len(os.listdir("/proc/self/task"))
    assert main(["compare", "--config", "golden_config.json", "--set", "seeds=0",
                 "--set", "stage_epochs=3"]) == 0
    assert len(os.listdir("/proc/self/task")) == threads
    assert blas[0]() == 2


@pytest.mark.parametrize("override, code", [
    ("window=6", 0),
    ("input_csv=missing.csv", 1),
    ("window=0", 2),
])
def test_thread_count_restored_after_exit(workdir, blas, override, code):
    get, _ = blas
    assert main(["decompose", "--config", "golden_config.json", "--set", override]) == code
    assert get() == 2


def test_wide_decompose_bytes_do_not_depend_on_process_threads(workdir, blas):
    # a window of 256: the eigensolver's own BLAS calls are large enough to
    # be threaded when the process allows two threads
    _, set_ = blas
    rows = [f"{t},{v!r}" for t, v in enumerate(two_sine_benchmark(1000, 0).tolist())]
    Path("wide.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    written = {}
    for threads in (1, 2):
        set_(threads)
        assert main(["decompose", "--config", "golden_config.json",
                     "--set", "input_csv=wide.csv", "--set", "window=256"]) == 0
        written[threads] = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert written[1] == written[2]
