"""Work split over the CPUs this process may run on.

The one module that reads the CPU count, starts threads and cuts and joins
work; ``taskset -c 0`` makes every split serial. ``nn.train.fit`` holds a
``batch_threads`` pool for a training run and the layers cut each batch
with ``split_batch``. Plane loops go through ``split_planes``, the one gate
that decides whether per-plane work is worth a thread: ``pipeline._predict``
for a stack's model calls and ``geometry``'s resample core for every
resample, resize and unresize. Each block has its own pool, so concurrent
callers never wait for each other's chunks.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable

# (pool, usable CPUs) of the batch_threads block this context runs in. Pool
# threads start with an empty context, so a chunk run on one never splits again.
_POOL: ContextVar[tuple | None] = ContextVar("c2fseg_batch_pool", default=None)

# A plane loop whose first plane ran faster than this stays on the caller's
# thread: a thread would cost more than the planes it takes over.
_SERIAL_PLANE_S = 1e-3


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


@contextmanager
def batch_threads():
    """Let ``split_batch`` calls in this context use one thread per usable CPU until the block ends.

    The pool's threads are joined when the block exits, by return or by an
    exception. With one usable CPU no pool is made.
    """
    cpus = usable_cpus()
    if cpus <= 1:
        yield
        return
    from concurrent.futures import ThreadPoolExecutor  # only here: the import costs several ms

    with ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="c2fseg-batch") as pool:
        token = _POOL.set((pool, cpus))
        try:
            yield
        finally:
            _POOL.reset(token)


def split_batch(n: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over contiguous chunks that cover samples ``0..n-1``.

    Inside ``batch_threads`` there is one chunk per usable CPU, at most n:
    the caller's thread runs the first and the pool the others. Elsewhere
    ``body(0, n)`` runs alone. Each chunk must write only its own samples'
    rows of preallocated outputs, so the result does not depend on the
    split. The call returns once every chunk has ended; the error raised is
    that of the first chunk that failed.
    """
    active = _POOL.get()
    parts = min(active[1], n) if active else 1
    if parts <= 1:
        body(0, n)
        return
    pool = active[0]
    bounds = [n * j // parts for j in range(parts + 1)]
    futures = [pool.submit(body, bounds[j], bounds[j + 1]) for j in range(1, parts)]
    try:
        body(0, bounds[1])
    finally:
        for f in futures:  # no chunk may still write once the caller moves on
            f.exception()
    for f in futures:
        f.result()


def split_planes(n: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over planes ``0..n-1``, split over the usable CPUs when the planes are slow.

    Plane 0 runs alone on the caller's thread, as ``body(0, 1)``, and is
    timed. If it took at least ``_SERIAL_PLANE_S`` and two or more planes
    remain, planes 1..n-1 go to ``split_batch`` inside a ``batch_threads``
    block; otherwise ``body(1, n)`` runs on the caller's thread. Each call of
    ``body`` must write only planes lo..hi-1 of preallocated outputs, so the
    result does not depend on the split.
    """
    t0 = time.perf_counter()
    body(0, 1)
    if n > 2 and time.perf_counter() - t0 >= _SERIAL_PLANE_S:
        with batch_threads():
            split_batch(n - 1, lambda lo, hi: body(lo + 1, hi + 1))
    elif n > 1:
        body(1, n)
