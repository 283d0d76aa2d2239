"""Spans and counters recorded from outside the gelfand package.

Nothing in ``src/`` knows about tracing.  ``GridInstrument`` swaps the names
that ``run_verify`` looks up in ``gelfand.pipeline`` (and ``mul_flat`` in the
modules that loop over groups) for wrappers, and its ``restore`` puts the
originals back, so untraced passes run the unmodified code.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until the run writes them out.
A layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")


def traced(tracer: Tracer, name: str, fn, on_result=None):
    """fn wrapped in a span; on_result sees each return value."""
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    def restore(self) -> None:
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)


# names run_verify calls through gelfand.pipeline, with the span for each
PIPELINE_SPANS = (
    ("enumerate_gl", "groups.enumerate"),
    ("enumerate_o", "groups.enumerate"),
    ("embed_standard", "groups.embed_standard"),
    ("double_cosets", "cosets.double_cosets"),
    ("involution_action", "cosets.involution_action"),
    ("classify_nonfixed_gl", "cosets.classify_nonfixed_gl"),
    ("conjugacy_classes", "chartab.conjugacy_classes"),
    ("character_table", "chartab.character_table"),
    ("dim_invariants", "chartab.dim_invariants"),
    ("verify_pair", "chartab.verify_pair"),
    ("transpose_preserves_classes", "chartab.transpose_preserves_classes"),
)

# lazily computed GroupTable data; each gets its own span where it is first
# computed, so its cost is not charged to whichever caller touched it first
LAZY_PROPERTIES = (
    ("generator_ids", "groups.generator_ids"),
    ("inverse_ids", "groups.inverse_ids"),
    ("transpose_ids", "groups.transpose_ids"),
)
# the same for GroupTable's lazily cached methods
LAZY_METHODS = (("center_ids", "groups.center_ids"),)

# every span a grid pass can record inside a point, each name once
GRID_SPANS = tuple(dict.fromkeys(
    span for _, span in PIPELINE_SPANS + LAZY_PROPERTIES + LAZY_METHODS))

GRID_COUNTS = ("elements", "generators", "classes", "double_cosets",
               "cache_hits", "cache_misses", "mul_flat_calls")


class GridInstrument:
    """Installs the grid spans and counters; ``restore`` removes them."""

    def __init__(self, gelfand, tracer: Tracer):
        self.counts = dict.fromkeys(GRID_COUNTS, 0)
        self._tables: list = []
        self._patches = Patches()
        pipeline, groups = gelfand.pipeline, gelfand.groups
        table_cls = groups.GroupTable
        self._generator_prop = table_cls.__dict__["generator_ids"]

        on_result = {
            "groups.enumerate": self._on_table,
            "chartab.conjugacy_classes": self._count("classes"),
            "cosets.double_cosets": self._count("double_cosets"),
        }
        for name, span in PIPELINE_SPANS:
            self._patches.set(pipeline, name, traced(
                tracer, span, pipeline.__dict__[name], on_result.get(span)))

        for name, span in LAZY_PROPERTIES:
            getter = traced(tracer, span, table_cls.__dict__[name].fget)
            self._patches.set(table_cls, name, property(getter))
        for name, span in LAZY_METHODS:
            self._patches.set(table_cls, name, traced(
                tracer, span, table_cls.__dict__[name]))

        mul_flat = gelfand.matrix.mul_flat
        counts = self.counts

        def counted_mul_flat(a, b, n, field):
            counts["mul_flat_calls"] += 1
            return mul_flat(a, b, n, field)

        for mod in (groups, gelfand.cosets, gelfand.chartab):
            self._patches.set(mod, "mul_flat", counted_mul_flat)

        chartab = gelfand.chartab
        load = chartab.__dict__["load_character_table"]

        def counted_load(*args, **kwargs):
            table = load(*args, **kwargs)
            counts["cache_misses" if table is None else "cache_hits"] += 1
            return table

        self._patches.set(chartab, "load_character_table", counted_load)

    def _count(self, key):
        def add(result):
            self.counts[key] += result.count
        return add

    def _on_table(self, table):
        self.counts["elements"] += table.order
        self._tables.append(table)

    def end_point(self) -> None:
        """Count the generators of the point's groups, then drop them."""
        for table in self._tables:
            self.counts["generators"] += len(self._generator_prop.fget(table))
        self._tables.clear()

    def restore(self) -> None:
        self._patches.restore()


def self_times(spans: list[list]) -> tuple[dict, list[float], list[float]]:
    """Self seconds per span name, plus each span's duration and child time."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    by_name: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        by_name[span[0]] += dur[i] - child[i]
    return by_name, dur, child
