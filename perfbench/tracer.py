"""Solver clock and per-layer span tracing, installed from outside cobadd.

Nothing here edits the package: hooks replace module attributes (the
names that ``cobadd.solver``, ``cobadd.central`` and ``cobadd.cli``
import, plus a few methods) with timing wrappers and put the originals
back on ``uninstall``.  A hook whose target no longer exists is recorded
in ``absent`` instead of failing, so a refactor that renames a function
shows up as a missing layer rather than a crashed benchmark.

``Recorder`` is used by every repetition.  Untraced repetitions only
time the solver calls (the boundary that separates set-up from solving);
traced repetitions additionally install ``Tracer`` hooks, which keep one
span per wrapped call in memory and write them out when the repetition
ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

perf = time.perf_counter


class Recorder:
    """Clock for solver runs; optionally the owner of a Tracer.

    ``solver_run(name)`` brackets one solver run.  The first bracket
    marks the end of set-up, and all brackets together give the wall
    time spent inside solver calls.  The current run name also keys the
    spans of a traced repetition; work after a run (writing its CSV) is
    keyed to that run.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.runs: list[tuple[str, float, float]] = []
        self.current = "setup"
        self._undo: list[tuple[object, str, object]] = []
        if tracer is not None:
            tracer.recorder = self

    @contextlib.contextmanager
    def solver_run(self, name: str):
        self.current = name
        start = perf()
        try:
            yield
        finally:
            self.runs.append((name, start, perf()))

    @property
    def first_solver_start(self) -> float | None:
        return self.runs[0][1] if self.runs else None

    @property
    def solver_seconds(self) -> float:
        return sum(end - start for _, start, end in self.runs)

    def clock(self, module: str, attr: str, label: str) -> None:
        """Bracket every call of ``module.attr`` as one solver run."""
        owner, original = _resolve(module, attr)
        if owner is None:
            raise LookupError(f"solver entry point {module}.{attr} is missing")
        count = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            count[0] += 1
            with self.solver_run(f"{label}#{count[0]}"):
                return original(*args, **kwargs)

        _swap(self._undo, owner, attr, original, wrapper)

    def uninstall(self) -> None:
        _restore(self._undo)
        if self.tracer is not None:
            self.tracer.uninstall()


class Tracer:
    """In-memory spans and counters for the per-layer metrics.

    A span is ``[run, layer, start, end, parent]``; a layer's self time
    is its spans' durations minus the durations of their direct
    children.  Counters are keyed ``<layer>.<counter>``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.recorder: Recorder | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, layer: str) -> tuple[int, float]:
        idx = len(self.spans)
        run = self.recorder.current if self.recorder else ""
        self.spans.append([run, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx, perf()

    def _close(self, idx: int, start: float) -> None:
        end = perf()
        self._stack.pop()
        self.spans[idx][2] = start
        self.spans[idx][3] = end

    def _wrap(self, fn, layer: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, start = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)
                if counter is not None:
                    self._count(layer, counter, args, kwargs)

        return wrapper

    def _count(self, layer, counter, args, kwargs):
        try:
            counter(self.counts, args, kwargs)
        except (TypeError, AttributeError, IndexError, KeyError, OSError):
            tag = f"counter:{layer}"
            if tag not in self.absent:
                self.absent.append(tag)

    def _tally(self, fn, key: str, inside: str | None):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or (stack and spans[stack[-1]][1] == inside):
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span around benchmark code that calls into one layer."""
        idx, start = self._open(layer)
        try:
            yield
        finally:
            self._close(idx, start)

    # -- installation -----------------------------------------------------

    def install(self, hooks, tallies) -> None:
        """``hooks``: (module, attr, layer, counter or None) spans;
        ``tallies``: (module, attr, counter key, enclosing layer or None)."""
        for module, attr, layer, counter in hooks:
            owner, original = _resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
                continue
            _swap(self._undo, owner, attr, original, self._wrap(original, layer, counter))
        for module, attr, key, inside in tallies:
            owner, original = _resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
                continue
            _swap(self._undo, owner, attr, original, self._tally(original, key, inside))

    def uninstall(self) -> None:
        _restore(self._undo)

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (_, layer, start, end, _) in enumerate(self.spans):
            st = stats[layer]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child[i]
        return dict(stats)

    def write_spans(self, path: str) -> None:
        """One CSV line per span, grouped by the solver run it belongs to;
        ``parent`` is the ``id`` of the enclosing span (-1 for none)."""
        order = sorted(range(len(self.spans)), key=lambda i: (self.spans[i][0], i))
        with open(path, "w") as fh:
            fh.write("run,id,layer,start_s,end_s,parent\n")
            for i in order:
                run, layer, start, end, parent = self.spans[i]
                fh.write(f"{run},{i},{layer},{start!r},{end!r},{parent}\n")


def _resolve(module: str, attr: str):
    """(owner, current value) of a dotted attribute, or (None, None)."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        return None, None
    if isinstance(owner, type):
        # take the plain function from the class so the wrapper stays a method
        value = owner.__dict__.get(parts[-1], value)
    return owner, value


def _swap(undo, owner, attr: str, original, replacement) -> None:
    name = attr.rsplit(".", 1)[-1]
    undo.append((owner, name, original))
    setattr(owner, name, replacement)


def _restore(undo) -> None:
    while undo:
        owner, name, original = undo.pop()
        setattr(owner, name, original)
