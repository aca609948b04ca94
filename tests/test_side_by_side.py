"""compare runs its curve and seeds as independent tasks on one lane per CPU
(lane 0 in the calling process, the others in forked workers), and decompose
writes a large components.csv the same way; their output must not depend on
the number of lanes."""

import json
import os
import shutil
import signal
import time
import warnings
from pathlib import Path

import pytest

from ssaforecast import curriculum, jsonio
from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.cli import main
from ssaforecast.errors import DivergenceDetected, NonFiniteOutput
from ssaforecast.lanes import assign_lanes, run_side_by_side

SEEDS = "0,1,2"


@pytest.fixture(autouse=True)
def no_hang():
    """Fail a test whose compare waits on a worker for a minute."""

    def hung(signum, frame):
        raise TimeoutError("compare did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def compare(monkeypatch, capsys, cpus, *overrides):
    """Run compare on `cpus` lanes; returns exit code, stderr and artifacts."""
    set_cpus(monkeypatch, cpus)
    shutil.rmtree("out", ignore_errors=True)
    capsys.readouterr()
    code = main(["compare", "--config", "golden_config.json", "--set", f"seeds={SEEDS}",
                 *overrides])
    err = capsys.readouterr().err
    curve = Path("out", "curve.csv")
    return {
        "code": code,
        "err": err,
        "comparison": Path("out", "comparison.json").read_bytes(),
        "curve": curve.read_bytes() if curve.exists() else None,
    }


def children_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


# -- (a) the same bytes on one and two lanes --------------------------------------------

def test_artifacts_identical_on_one_and_two_lanes(workdir, monkeypatch, capsys):
    serial = compare(monkeypatch, capsys, 1)
    before = children_cpu_s()
    side_by_side = compare(monkeypatch, capsys, 2)
    assert children_cpu_s() > before, "no worker process ran"
    assert serial["code"] == side_by_side["code"] == 0
    assert side_by_side["comparison"] == serial["comparison"]
    assert side_by_side["curve"] == serial["curve"]


def test_wide_components_identical_on_one_and_two_lanes(workdir, monkeypatch):
    # 600 rows of the series and 128 components: 77,400 cells, above the cutoff
    rows = [f"{t},{v!r}" for t, v in enumerate(two_sine_benchmark(600, 0).tolist())]
    Path("wide.csv").write_text("\n".join(["time,value", *rows]) + "\n")
    lanes = []
    run = jsonio.run_side_by_side
    monkeypatch.setattr(jsonio, "run_side_by_side",
                        lambda tasks, costs: lanes.append(len(tasks)) or run(tasks, costs))
    written = {}
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        assert main(["decompose", "--config", "golden_config.json",
                     "--set", "input_csv=wide.csv", "--set", "window=128"]) == 0
        written[cpus] = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert lanes == [2]
    assert written[1] == written[2]
    assert sorted(written[1]) == ["components.csv", "singular_spectrum.csv", "spectrum.json"]


# -- (b) a failure yields the same error document on one and two lanes -----------------

def diverge_in(monkeypatch, target):
    if target == "curve":
        def failing_curve(*args, **kwargs):
            raise DivergenceDetected("injected divergence in the curve", [])

        monkeypatch.setattr(curriculum, "error_vs_pc_curve", failing_curve)
        return
    compare_seed = curriculum._compare_seed

    def failing_seed(*args):
        *_, seed, fraction = args  # _compare_seed(..., seed, fraction)
        if seed == target:
            raise DivergenceDetected(f"injected divergence in seed {seed}", [])
        return compare_seed(*args)

    monkeypatch.setattr(curriculum, "_compare_seed", failing_seed)


@pytest.mark.parametrize("target", ["curve", 0, 1, 2])
def test_failure_document_identical_on_one_and_two_lanes(workdir, monkeypatch, capsys, target):
    diverge_in(monkeypatch, target)
    runs = [compare(monkeypatch, capsys, cpus) for cpus in (1, 2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0]["comparison"])
    assert runs[0]["code"] == 1
    assert runs[0]["err"] == f"error: DivergenceDetected: {doc['error']}\n"
    if target == "curve":
        assert doc["curve"] is None and runs[0]["curve"] is None
        assert doc["per_seed"] == []
    else:
        assert doc["curve"] is not None and runs[0]["curve"] is not None
        assert [r["seed"] for r in doc["per_seed"]] == list(range(target))


def test_worker_error_keeps_its_message(workdir, monkeypatch, capsys):
    # seed 1 runs in the worker lane on two lanes, so its error, with the
    # partial forecast it carries, crosses a process boundary
    compare_seed = curriculum._compare_seed

    def failing_seed(*args):
        *_, seed, fraction = args  # _compare_seed(..., seed, fraction)
        if seed == 1:
            raise NonFiniteOutput("injected non-finite forecast in seed 1", partial=[0.5, -0.25])
        return compare_seed(*args)

    monkeypatch.setattr(curriculum, "_compare_seed", failing_seed)
    serial, side_by_side = (compare(monkeypatch, capsys, cpus) for cpus in (1, 2))
    assert serial == side_by_side
    assert serial["code"] == 1
    assert serial["err"] == "error: NonFiniteOutput: injected non-finite forecast in seed 1\n"


def test_constant_holdout_compares_on_one_and_two_lanes(workdir, monkeypatch, capsys):
    # a forecast error is defined for a constant holdout, so every seed is scored
    lines = Path("tiny_series.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    constant_tail = [f"{t},{v if i < len(rows) - 20 else '5.0'}" for i, (t, v) in enumerate(rows)]
    Path("const_tail.csv").write_text("\n".join([lines[0], *constant_tail]) + "\n")
    overrides = ("--set", "input_csv=const_tail.csv", "--set", "compare_horizon=20")
    serial, side_by_side = (compare(monkeypatch, capsys, cpus, *overrides) for cpus in (1, 2))
    assert serial["code"] == side_by_side["code"] == 0
    assert side_by_side["comparison"] == serial["comparison"]
    assert side_by_side["curve"] == serial["curve"] is not None
    doc = json.loads(serial["comparison"])
    assert [r["seed"] for r in doc["per_seed"]] == [0, 1, 2]


# -- (c) a worker that dies ends the command with an error document ----------------------

def test_dead_worker_exits_1_with_error_document(workdir, monkeypatch, capsys):
    parent = os.getpid()
    train = curriculum.curriculum_train

    def exit_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return train(*args, **kwargs)

    monkeypatch.setattr(curriculum, "curriculum_train", exit_in_worker)
    run = compare(monkeypatch, capsys, 2)
    assert run["code"] == 1
    assert run["err"].startswith("error: RuntimeFailure: ") and "Traceback" not in run["err"]
    doc = json.loads(run["comparison"])
    assert "exited with code 3" in doc["error"]
    assert doc["medians"] == {}


# -- (d) the lane assignment ------------------------------------------------------------

def test_assignment_is_longest_first_onto_least_loaded_lane():
    # the compare-two-sine workload: the curve (2720 epochs) and 4 seeds (1520)
    assert assign_lanes([2720, 1520, 1520, 1520, 1520], 2) == [[0, 3], [1, 2, 4]]
    # in index order the loads would be 7 and 5; longest first they are 6 and 6
    assert assign_lanes([1, 5, 3, 3], 2) == [[0, 1], [2, 3]]
    assert assign_lanes([2, 2, 2], 3) == [[0], [1], [2]]


def test_assignment_is_deterministic_and_complete():
    costs = [3, 7, 7, 1, 4, 4, 9, 2]
    first = assign_lanes(costs, 3)
    assert all(assign_lanes(list(costs), 3) == first for _ in range(5))
    assert sorted(i for lane in first for i in lane) == list(range(len(costs)))
    assert all(lane == sorted(lane) for lane in first)


def test_one_lane_is_the_serial_order():
    assert assign_lanes([1, 9, 4], 1) == [[0, 1, 2]]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_outcomes_do_not_depend_on_lanes(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    tasks = [(pow, (2, i)) for i in range(5)] + [(int, ("not a number",))]
    outcomes = run_side_by_side(tasks, [5, 1, 4, 2, 3, 1])
    assert outcomes[:5] == [1, 2, 4, 8, 16]
    assert isinstance(outcomes[5], ValueError) and len(outcomes) == 6


def warn_and_return(i):
    warnings.warn(f"task {i}")
    return i


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_warnings_shown_in_task_order_on_any_lanes(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        outcomes = run_side_by_side([(warn_and_return, (i,)) for i in range(4)], [1, 4, 2, 3])
    assert outcomes == [0, 1, 2, 3]
    assert [str(w.message) for w in shown] == ["task 0", "task 1", "task 2", "task 3"]


def test_worker_is_stopped_once_its_tasks_are_not_needed(monkeypatch):
    set_cpus(monkeypatch, 2)
    # task 0 fails in this process, so the serial run never reaches task 1
    tasks = [(int, ("not a number",)), (time.sleep, (30,))]
    start = time.perf_counter()
    outcomes = run_side_by_side(tasks, [2, 1])
    assert time.perf_counter() - start < 10
    assert isinstance(outcomes[0], ValueError) and len(outcomes) == 1
