"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, query id).  Spans are kept in
parallel arrays while the run goes on and written out once at the end.
The benchmark opens spans around its own calls into the library and, to
split a query into its layers, swaps the library's module-level names of
the layer functions (``navigate``, ``occurrences``, ...) for wrappers for
the length of the traced run.  The library's code is unchanged.

Only the thread that created the tracer records spans: the wrapped names
are all called from the benchmark's caller thread, and a span opened from
a library worker thread would have no well-defined parent.
"""

from __future__ import annotations

import gzip
import json
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.query_id = -1          # copied into every span opened
        self._open: list[int] = []
        self._thread = threading.get_ident()

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.qid.append(self.query_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        i = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(i)

    @contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield i
        finally:
            self._finish(i)

    def wrap(self, fn):
        name = fn.__name__
        thread = self._thread

        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each ``(module, attribute)`` function with a traced
        wrapper, restoring the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
        for mod, attr, fn in saved:
            setattr(mod, attr, self.wrap(fn))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- derived views ----------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def ids(self, *names: str) -> list[int]:
        """Indexes of the spans with any of the given names."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        return [i for i, nid in enumerate(self.name) if nid in wanted]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                out.setdefault(p, []).append(i)
        return out

    def write(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start_us": round((self.start[i] - t0) * 1e6, 3),
                    "end_us": round((self.end[i] - t0) * 1e6, 3),
                    "parent": self.parent[i], "query": self.qid[i]}) + "\n")
