"""Lane executors for the parallel queries.

A query hands its lanes to a mapper ``mapper(fn, items) -> list``:
:func:`seq_map` runs them one after another in the calling thread (the
simulated mode), :func:`thread_map` runs the first in the calling thread
and the others on one thread pool shared by the whole process (the
threaded mode).  Lane tasks only compute; every ledger charge happens in
the calling thread, from the values the tasks return, so both modes
charge the same ledger.  A lane task never calls a mapper itself: a
nested map on the bounded shared pool could wait on a worker that waits
on it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

Mapper = Callable[[Callable, Sequence], list]

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def seq_map(fn: Callable, items: Sequence) -> list:
    return [fn(i) for i in items]


def thread_map(fn: Callable, items: Sequence) -> list:
    """``seq_map`` forked and joined: the calling thread runs the first
    item itself and waits on the shared pool, created on first use with
    the standard library's default size, for the others, so a one-item
    map starts no thread.  If an item raises, the ones not yet started
    are cancelled and the exception propagates."""
    global _pool
    if len(items) < 2:
        return seq_map(fn, items)
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(thread_name_prefix="parsuffix-lane")
    rest = [_pool.submit(fn, item) for item in items[1:]]
    try:
        return [fn(items[0])] + [future.result() for future in rest]
    except BaseException:
        for future in rest:
            future.cancel()
        raise
