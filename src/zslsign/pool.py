"""The forked worker pool that runs a command's independent jobs side by side.

A sweep's (d_t, seed) fits and a train's repeats go through :func:`map_jobs`.
``multiprocessing`` and ``concurrent.futures`` are imported only when a call
has more than one job and more than one usable CPU, so commands that never
get there do not pay for them. Under the CLI's process entry, cli.run,
workers fork from a frozen heap: their collections neither walk nor copy the
parent's import-time objects.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Sequence

from .errors import ZslSignError

_shared: tuple = ()  # a pool worker's shared job arguments, set once by its initializer


def _share(*shared) -> None:
    global _shared
    _shared = shared


def _run_shared(job: Callable, item: tuple):
    return job(*_shared, *item)


def usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS does not report one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def map_jobs(job: Callable, items: Sequence[tuple], shared: tuple) -> list:
    """[job(*shared, *item) for item in items], on up to one forked worker per usable CPU.

    job is a module-level function, so a worker can unpickle it by name. The
    workers inherit shared through fork instead of a pickled copy, and each job
    sends back only its result. Results come back in item order, so they do not
    depend on the worker count. With one worker, or without the fork start
    method, the jobs run in this process instead, one after another. fork
    assumes the caller runs no other threads, as the CLI commands do not. A
    typed error raised by a job reaches the caller unchanged; a worker that
    dies becomes a ZslSignError.
    """
    workers = min(len(items), usable_cpus())
    context = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        return [job(*shared, *item) for item in items]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_share, initargs=shared) as pool:
            return list(pool.map(partial(_run_shared, job), items))
    except BrokenProcessPool as exc:
        raise ZslSignError(f"a worker process ended abruptly: {exc}") from None
