"""Spans around calls into the library's public functions.

The library binds several functions by name at import (`search` imports
`first_collision`, `multiplicity_seeds`, ... from `pruning`), and
`all_k_subsets_fail` calls its helpers through `pruning`'s globals.  A
wrapper therefore replaces the function object under every name it is
bound to in every loaded `mintest` module, and `restore` puts the
originals back.

Spans live in flat arrays (name id, start, end, parent index) so that a
few hundred thousand of them stay a few megabytes; `write` saves them when
the run is over.  Self time, a span's duration minus its children's, is
summed per name as spans close.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """Wraps each target (span name -> (function, hook)); a hook sees the
    arguments and result of every call that returns."""

    def __init__(self, targets: dict[str, tuple[Callable, Hook | None]]) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {id(fn): self._wrap(fn, name, hook) for name, (fn, hook) in targets.items()}

    def _wrap(self, fn, name: str, hook: Hook | None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self._open.append(idx)
            self._child_s.append(0.0)
            self.end.append(0.0)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                self._open.pop()
                duration = t1 - t0
                self.self_s[name] += duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                self.calls[name] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers in place wherever a `mintest` module binds a target."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mintest" and not mod_name.startswith("mintest."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )
