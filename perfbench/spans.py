"""Span recording around the public entry points of each layer.

A :class:`SpanRecorder` swaps selected public functions and methods of
``repro`` for thin wrappers that record one span per call: ``(name,
start, end, parent, run)``, with ``parent`` the index of the enclosing
span (-1 at the root) and ``run`` the id of the repeat in progress.
Spans stay in memory until :meth:`SpanRecorder.dump`.  Nothing inside
``src/`` changes: :meth:`SpanRecorder.install` puts the wrappers in and
:meth:`SpanRecorder.uninstall` takes them out again, so untraced runs
execute the original code.

Some call sites only count: the per-probe packet build would cost more
as a span than the work it measures.

A layer's self time is its spans' duration minus the part covered by
their direct children; :func:`self_times` computes it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans and counters, plus the patch bookkeeping."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent, run)`` per finished span; the
        #: slot holds ``None`` while its span is open.
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        #: Results the ``keep`` hooks collected (every topology built
        #: while tracing), for counters read after a repeat.
        self.kept: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str,
               start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        """A span around a ``with`` block (for generator queries, whose
        cost lands while they are consumed, not when they are called)."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def timed(self, name: str, fn, count=None, keep: bool = False):
        """``fn`` wrapped to record a span named ``name``.

        ``count(args, result)`` returns ``{counter: increment}`` to add
        after each call; ``keep`` appends each result to :attr:`kept`.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index, parent, name, start)
            if count is not None:
                for key, value in count(args, result).items():
                    recorder.counts[key] += value
            if keep:
                recorder.kept.append(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls under ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def patch_method(self, cls, attr: str, make) -> None:
        """Replace ``cls.attr`` (plain or classmethod) by ``make(fn)``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, make) -> None:
        """Replace a module function everywhere it is bound by name.

        ``from x import f`` binds ``f`` in the importing module too, so
        every loaded ``repro`` or ``perfbench`` module holding the very
        same object gets the wrapper.
        """
        original = getattr(module, attr)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(("repro",
                                                      "perfbench")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._patches.append((loaded, key, original))

    def install(self, targets) -> None:
        """Install ``(kind, owner, attr, make)`` targets, where ``kind``
        is ``"method"`` or ``"function"``."""
        for kind, owner, attr, make in targets:
            if kind == "method":
                self.patch_method(owner, attr, make)
            else:
                self.patch_function(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, run = span
                out.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent, "run": run},
                    separators=(",", ":")) + "\n")


def self_times(spans, run: int) -> dict[str, dict]:
    """Per span name of one run: calls, total and self seconds.

    Self time is a span's duration minus its direct children's
    durations.  Spans nest strictly (one thread), so the self times of
    all spans sum to the time their root spans cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span is not None and span[4] == run and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        if span is None or span[4] != run:
            continue
        name, start, end = span[:3]
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[index]
    return dict(table)
