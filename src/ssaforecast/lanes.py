"""Independent tasks on one lane per CPU: lane 0 in the calling process, every
other lane in one forked worker.  `compare` runs its curve and seeds this
way, and `jsonio.write_csv` its row ranges; neither result depends on the
number of lanes."""

from __future__ import annotations

import os

from .errors import RuntimeFailure


def lane_count() -> int:
    """The number of CPUs this process may run on: one lane each."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
    """Yield the outcome (result or exception) of each of the lane's tasks
    and stop after the first exception: every later task of the lane comes
    after it in the serial order, so no caller needs its outcome."""
    for index in lane:
        fn, args = tasks[index]
        try:
            outcome = fn(*args)
        except Exception as exc:
            outcome = exc
        yield outcome
        if isinstance(outcome, Exception):
            return


def _lane_worker(tasks, lane, conn) -> None:
    for outcome in _run_lane(tasks, lane):
        conn.send(outcome)
    conn.close()


def _receive(conn, proc):
    """The next outcome a worker lane sends; a worker that died is a
    RuntimeFailure of the task it was running."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        return RuntimeFailure(
            f"lane worker process exited with code {proc.exitcode} before finishing"
        )


def run_side_by_side(tasks, costs) -> list:
    """Run independent `(fn, args)` tasks on up to one lane per CPU this
    process may use, and return the serial run's outcomes (result or
    exception) in task order, ending at the first exception.

    Lane 0 runs in this process; every other lane runs in one forked worker,
    which inherits the tasks, so nothing but outcomes is pickled.  One lane
    (one CPU, one task, or no fork) is the serial run.  A task's exception,
    whatever its type, is its outcome, so failures do not depend on the lane
    a task ran in.  A worker whose tasks all come after a failure is stopped
    early.
    """
    lanes = assign_lanes(costs, max(1, min(lane_count(), len(tasks))))
    workers = []
    sources = {}  # task index -> (reader, proc) of the worker lane running it
    try:
        if len(lanes) > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                lanes = assign_lanes(costs, 1)
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
            outcomes.append(local[index] if index in local else _receive(*sources[index]))
            if isinstance(outcomes[-1], Exception):
                break
    finally:
        for reader, proc in workers:
            # a worker still running holds only tasks whose outcome is not needed
            proc.terminate()
            proc.join()
            reader.close()
    return outcomes
