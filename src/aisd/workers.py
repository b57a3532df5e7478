"""Independent runs spread over forked worker processes.

An offline experiment's runs share nothing and each is deterministic per
seed, so where a run happens does not change its outcome.  ``run_shares``
gives job i to worker i mod W: worker 0 is the calling process, and each
other worker is an ``os.fork()`` child that runs its share on the
copy-on-write memory it starts with, the parsed logs included.  A child
sends its outcomes back over a pipe as one ``marshal``-ed list of plain
tuples, and leaves only through ``os._exit``.
"""
from __future__ import annotations

import contextlib
import logging
import marshal
import os
import threading
from typing import BinaryIO, Callable

from .tissue import ResponseRecord
from .trace_model import ReplayLog

logger = logging.getLogger(__name__)

# a run's outcome: its response log, or the text of the exception it raised
Outcome = list[ResponseRecord] | str
Runner = Callable[[ReplayLog, int], list[ResponseRecord]]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int) -> int:
    """How many processes share ``jobs`` runs: one per usable CPU, at most
    one per run, and just this one where it cannot fork, or should not
    because another thread is alive (a forked child holds only the forking
    thread, and any lock another thread held stays held in it)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), jobs))


def run_shares(runner: Runner, jobs: list[tuple[ReplayLog, int]], workers: int) -> list[Outcome]:
    """Each ``(log, seed)`` job's outcome, in job order, with ``workers``
    processes sharing the jobs.

    The share of a child that cannot be forked, dies or sends short data is
    run again in this process.  On any exception in this process,
    ``KeyboardInterrupt`` included, the children still running are killed
    and every child is reaped before it propagates.
    """
    outcomes: list[Outcome | None] = [None] * len(jobs)
    children: dict[int, tuple[int, BinaryIO]] = {}  # pid -> (worker, read end)
    try:
        for worker in range(1, workers):
            try:
                pid, pipe = _fork_worker(runner, jobs[worker::workers])
            except OSError as exc:
                logger.warning("cannot fork worker %d: %s; its runs run here", worker, exc)
                break
            children[pid] = (worker, pipe)
        for i in range(0, len(jobs), workers):
            outcomes[i] = _attempt(runner, *jobs[i])
        for pid, (worker, pipe) in list(children.items()):
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            share = range(worker, len(jobs), workers)
            sent = _unpack(data, len(share))
            code = os.waitstatus_to_exitcode(status)
            if code or sent is None:
                logger.warning(
                    "worker %d (pid %d) exited with status %d after sending %d bytes;"
                    " its %d runs run again here", worker, pid, code, len(data), len(share),
                )
                continue
            for i, outcome in zip(share, sent):
                outcomes[i] = outcome
    except BaseException:
        _kill(children)
        raise
    return [
        outcome if outcome is not None else _attempt(runner, *job)
        for job, outcome in zip(jobs, outcomes)
    ]


def _attempt(runner: Runner, log: ReplayLog, seed: int) -> Outcome:
    try:
        return runner(log, seed)
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the experiment
        return str(exc)


def _fork_worker(runner: Runner, share: list[tuple[ReplayLog, int]]) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``share`` and writes its outcomes to a pipe;
    return the child's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # the child: it leaves only through os._exit, so it never returns
        # into the caller's frames, runs no exit handler and flushes none of
        # the parent's buffered output
        status = 1
        try:
            os.close(read_end)
            sent = [
                outcome if isinstance(outcome, str)
                else [(r.cycle, r.wall_time, r.cell_id, r.matched_value) for r in outcome]
                for outcome in (_attempt(runner, log, seed) for log, seed in share)
            ]
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(sent))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _unpack(data: bytes, count: int) -> list[Outcome] | None:
    """The ``count`` outcomes a child sent, or None for short or bad data."""
    try:
        sent = marshal.loads(data)
        if not isinstance(sent, list) or len(sent) != count:
            return None
        # in place, so that each run's tuples are freed as its records are made
        for k, outcome in enumerate(sent):
            if not isinstance(outcome, str):
                sent[k] = [ResponseRecord(*t) for t in outcome]
        return sent
    except (EOFError, ValueError, TypeError):
        return None


def _kill(children: dict[int, tuple[int, BinaryIO]]) -> None:
    """Kill and reap ``children`` and close their pipes."""
    import signal  # here, so that importing the package does not load it

    for pid, (_, pipe) in children.items():
        pipe.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    children.clear()
