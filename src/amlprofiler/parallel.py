"""One fork-based map for work whose items are independent by construction.

``pmap(fn, items)`` returns ``[fn(item) for item in items]``, computed by
forked workers: one per CPU in the process's affinity mask, never more than
there are items, so ``taskset -c 0`` makes it serial; ``worker_count`` says
how many it would use.  Workers inherit ``fn`` and ``items`` through fork; a
task sends only an index and only the result is pickled back, so ``fn`` may
be a closure over large arrays.  A worker that dies raises
``BrokenProcessPool`` in the caller.  ``grid`` maps its cells,
cross-validation its folds, and ``profile`` the byte ranges of its ledger
and then shards of its customers' FIFO matches.

It forks only a process that the ``amlprofiler`` command owns
(``fork_allowed``, set by ``cli.run``).  There the only other thread is
OpenBLAS's, whose fork handler stops it, and the pool forks its workers
before it starts its own threads.  A host that imports the package may run
threads of its own that a fork would copy mid-lock, so library calls
(``cli.main(argv)``, ``cross_validate``) run the plain loop, as they do on
one CPU, without fork, or inside a worker (a nested map starts no
grandchildren).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

fork_allowed = False  # True once the command-line entry point owns the process
_task: tuple = ()  # (fn, items) of the map that this worker process serves


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _serve(fn: Callable, items: Sequence) -> None:
    # pool initializer; a forked worker inherits its arguments unpickled
    global _task
    _task = (fn, items)


def _call(i: int):
    fn, items = _task
    return fn(items[i])


def worker_count(items: Optional[int] = None) -> int:
    """The processes that ``pmap`` runs ``items`` items on, or as many items
    as it takes; 1 is the plain loop in this process."""
    if (not fork_allowed or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    cpus = available_cpus()
    return max(1, cpus if items is None else min(items, cpus))


def pmap(fn: Callable, items: Sequence) -> list:
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, context, initializer=_serve, initargs=(fn, items)) as pool:
        return list(pool.map(_call, range(len(items))))
