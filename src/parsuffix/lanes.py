"""Lane executors for the parallel queries.

A query hands its lanes to a mapper ``mapper(fn, items) -> list``:
:func:`seq_map` runs them one after another in the calling thread (the
simulated mode), :func:`thread_map` on one thread pool shared by the whole
process (the threaded mode).  Lane tasks only compute; every ledger charge
happens in the calling thread, from the values the tasks return, so both
modes charge the same ledger.  A lane task never calls a mapper itself: a
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
    """``seq_map`` on the shared pool, created on first use with the
    standard library's default size."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(thread_name_prefix="parsuffix-lane")
    return list(_pool.map(fn, items))
