"""Span recording from outside the program, and the arithmetic on spans.

The benchmark never edits the program.  A traced run wraps the public
functions of each layer where they are bound (every importer's module
attribute, or the class attribute for methods) and records one span per
call: name, start, end and parent, kept in memory as flat arrays and
written out once when the process ends.  Self time is a span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array

#: percentiles tried for a timing's tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


class SpanLog:
    """Spans of one process as parallel arrays (about 28 bytes a span).

    Only the thread that created the log records; calls made on other
    threads run unwrapped, so the open-span stack stays well nested.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a finished span (used for spans timed elsewhere)."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return index

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open (for ``on_result``
        hooks, which run after their own span has closed)."""
        name_id = self._ids.get(name)
        return any(self.name[i] == name_id for i in self._stack)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(result, args,
        kwargs)`` runs after the span closes, for counts."""
        name_id = self.name_id(name)
        names, starts, ends, parents = (self.name, self.start, self.end,
                                        self.parent)
        stack, owner, clock = self._stack, self._thread, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the arrays (name, start, end, parent; native order)."""
        with open(path, "wb") as handle:
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(handle)

    @staticmethod
    def load(path: str, count: int) -> tuple[array, array, array, array]:
        columns = (array("i"), array("q"), array("q"), array("i"))
        with open(path, "rb") as handle:
            for column in columns:
                column.fromfile(handle, count)
        return columns


def patch_function(module_prefix: str, original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded module
    under ``module_prefix`` that holds it; returns the bindings patched.

    ``from x import f`` copies the function into the importer, so
    patching only the defining module would miss those call sites.
    """
    patched = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == module_prefix
                                  or name.startswith(module_prefix + ".")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                patched += 1
    return patched


def patch_method(cls, attr: str, wrap) -> None:
    """Replace ``cls.attr`` with ``wrap(function)``, keeping a
    classmethod or staticmethod a classmethod or staticmethod."""
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


# ----------------------------------------------------------------------
# Arithmetic on recorded spans
# ----------------------------------------------------------------------

def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted
    twice.  Parents must precede their children in the arrays."""
    children: dict[int, list[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    result = [end[i] - start[i] for i in range(len(start))]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        covered = 0
        cursor = lo
        for kid in sorted(kids, key=start.__getitem__):
            a, b = max(start[kid], cursor), min(end[kid], hi)
            if b > a:
                covered += b - a
                cursor = b
        result[up] -= covered
    return result


def _rank(n: int, pct: float) -> int:
    """Nearest rank (1-based) of ``pct`` among ``n`` sorted samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 6)))


def tail_percentile(samples: list[float]) -> tuple[float | None, float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten
    samples beyond it, and its nearest-rank value; ``(None, 0.0)`` when
    there are too few samples for any."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= 10:
            return pct, percentile(samples, pct)
    return None, 0.0


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    return sorted(samples)[_rank(len(samples), pct) - 1]


class SpanTable:
    """Queries over one process's spans, by wrapped-function name."""

    def __init__(self, names: list[str], name, start, end, parent) -> None:
        self.names = names
        self.name, self.start, self.end, self.parent = (
            name, start, end, parent)
        self.self_ns = self_times(start, end, parent)
        self._by_name: dict[str, list[int]] = {n: [] for n in names}
        for index, name_id in enumerate(name):
            self._by_name[names[name_id]].append(index)
        self._ids: dict[tuple[str, ...], set[int]] = {}

    def spans(self, *names: str) -> list[int]:
        return [i for n in names for i in self._by_name.get(n, ())]

    def has_ancestor(self, index: int, names: tuple[str, ...]) -> bool:
        ids = self._ids.get(names)
        if ids is None:
            ids = self._ids[names] = {
                i for i, n in enumerate(self.names) if n in names}
        up = self.parent[index]
        while up >= 0:
            if self.name[up] in ids:
                return True
            up = self.parent[up]
        return False

    def outer(self, *names: str, where=None) -> list[int]:
        """Spans of ``names`` with no ancestor among ``names`` (so a
        recursive or nested call is not counted twice), filtered by
        ``where(index)``."""
        return [i for i in self.spans(*names)
                if not self.has_ancestor(i, names)
                and (where is None or where(i))]

    def seconds(self, indices) -> float:
        return sum(self.end[i] - self.start[i] for i in indices) / 1e9

    def self_seconds(self, indices) -> float:
        return sum(self.self_ns[i] for i in indices) / 1e9

    def durations_us(self, indices) -> list[float]:
        return [(self.end[i] - self.start[i]) / 1e3 for i in indices]

    def roots(self) -> list[int]:
        return [i for i, up in enumerate(self.parent) if up < 0]
