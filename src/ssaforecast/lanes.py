"""Independent tasks on one lane per CPU: lane 0 in the calling process, every
other lane in one forked worker.  `compare` runs its curve and seeds this
way, and `jsonio.write_csv` its row ranges; neither result depends on the
number of lanes.  Lanes are the only parallelism: every CLI command runs
BLAS on one thread (`one_blas_thread`), and forked workers inherit that."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import warnings

from .errors import RuntimeFailure


def lane_count() -> int:
    """The number of CPUs this process may run on: one lane each."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _openblas():
    """`(get, set, stop)` of the OpenBLAS library numpy loaded: its
    thread-count functions, and the shutdown of its thread pool (None where
    the build has none); None where numpy uses another BLAS or there is no
    /proc."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                return get, set_, stop
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the process's
    thread count after it.  A second BLAS thread would compete with the
    other lanes for their CPUs, and an `eigh` that follows a threaded matmul
    closely waits for the thread pool; one thread also makes the
    eigenvectors of a large window independent of the CPU count.  Does
    nothing where no OpenBLAS is found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_, stop = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
        if stop is not None:
            # a fork in the block shut the thread pool down, and raising the
            # count starts it again with a thread that spins for about 0.1 s
            # of CPU; shut it down as a fork does, so that the next threaded
            # call starts it when it is needed
            stop()


def assign_lanes(costs, lanes: int) -> list[list[int]]:
    """Spread task indices over `lanes` lanes: longest task first, each onto
    the least-loaded lane (the lowest-numbered one on a tie).  Each lane
    lists its tasks in index order, the order they would run serially."""
    loads = [0] * lanes
    assigned: list[list[int]] = [[] for _ in range(lanes)]
    for task in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        lane = min(range(lanes), key=loads.__getitem__)
        assigned[lane].append(task)
        loads[lane] += costs[task]
    return [sorted(lane) for lane in assigned]


def _run_lane(tasks, lane):
    """Yield the outcome (result or exception) of each of the lane's tasks,
    with the warnings it raised, and stop after the first exception: every
    later task of the lane comes after it in the serial order, so no caller
    needs its outcome.  The warnings are recorded, not shown, so that they
    can be shown in task order whatever lane ran the task."""
    for index in lane:
        fn, args = tasks[index]
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = fn(*args)
            except Exception as exc:
                outcome = exc
        yield outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]
        if isinstance(outcome, Exception):
            return


def _lane_worker(tasks, lane, conn) -> None:
    for outcome in _run_lane(tasks, lane):
        conn.send(outcome)
    conn.close()


def _receive(conn, proc):
    """The next outcome a worker lane sends, with its warnings; a worker
    that died is a RuntimeFailure of the task it was running."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        return RuntimeFailure(
            f"lane worker process exited with code {proc.exitcode} before finishing"
        ), []


def run_side_by_side(tasks, costs) -> list:
    """Run independent `(fn, args)` tasks on up to one lane per CPU this
    process may use, and return the serial run's outcomes (result or
    exception) in task order, ending at the first exception.  Each task's
    warnings, recorded under the process's filters, are shown in task order
    as the outcomes are collected, so they do not depend on the lanes either.

    Lane 0 runs in this process; every other lane runs in one forked worker,
    which inherits the tasks, so nothing but outcomes and warnings is
    pickled.  One lane (one CPU or one task) is the serial run.  A
    task's exception, whatever its type, is its outcome, so failures do not
    depend on the lane a task ran in.  A worker whose tasks all come after a
    failure is stopped early.
    """
    lanes = assign_lanes(costs, max(1, min(lane_count(), len(tasks))))
    workers = []
    sources = {}  # task index -> (reader, proc) of the worker lane running it
    try:
        if len(lanes) > 1:
            import multiprocessing

            # more than one lane needs os.sched_getaffinity, found only where fork is
            context = multiprocessing.get_context("fork")
            for lane in lanes[1:]:
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_lane_worker, args=(tasks, lane, writer))
                proc.start()
                # the next worker must not inherit this write end, or EOF
                # would never arrive if this one died
                writer.close()
                workers.append((reader, proc))
                sources.update(dict.fromkeys(lane, workers[-1]))
        local = dict(zip(lanes[0], _run_lane(tasks, lanes[0])))
        # each worker sends its lane's outcomes in task order, so receiving
        # in task order reads every pipe in its own order
        outcomes = []
        for index in range(len(tasks)):
            outcome, caught = local[index] if index in local else _receive(*sources[index])
            for message, category, filename, lineno in caught:
                warnings.showwarning(message, category, filename, lineno)
            outcomes.append(outcome)
            if isinstance(outcome, Exception):
                break
    finally:
        for reader, proc in workers:
            # a worker still running holds only tasks whose outcome is not needed
            proc.terminate()
            proc.join()
            reader.close()
    return outcomes
