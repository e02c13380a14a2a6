"""Outside-in tracing of weakhyp's layers, and the self-time arithmetic.

The tracer rebinds public functions in the module whose code looks them up
(``weakhyp.cli.simulate``, ``weakhyp.spectral.step``, ...) for the duration
of one iteration, inside the benchmark's worker process only; ``src/`` is
never edited.  Spans (id, name, start, end, parent id, iteration) are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable

NO_PARENT = -1

# (module, attribute path, span name): one entry per place a name is looked up.
TARGETS = [
    ("weakhyp.cli", "load_config", "config.load_config"),
    ("weakhyp.cli", "dispatch", "cli.dispatch"),
    ("weakhyp.cli", "simulate", "spectral.simulate"),
    ("weakhyp.cli", "build_energy_ledger", "energy.build_energy_ledger"),
    ("weakhyp.cli", "master_estimate_check", "energy.master_estimate_check"),
    ("weakhyp.energy", "master_estimate_check", "energy.master_estimate_check"),
    ("weakhyp.cli", "default_c0", "energy.default_c0"),
    ("weakhyp.cli", "fit_decay", "radius.fit_decay"),
    ("weakhyp.cli", "check_diam", "symbol.check_diam"),
    ("weakhyp.cli", "discriminant_check", "symbol.discriminant_check"),
    ("weakhyp.cli", "characteristic_roots", "symbol.characteristic_roots"),
    ("weakhyp.symbol", "characteristic_roots", "symbol.characteristic_roots"),
    ("weakhyp.cli", "build_quasi_symmetrizer", "quasisym.build_quasi_symmetrizer"),
    ("weakhyp.cli", "verify_quasi_symmetrizer", "quasisym.verify_quasi_symmetrizer"),
    ("weakhyp.spectral", "assemble_state", "spectral.assemble_state"),
    ("weakhyp.spectral", "step", "spectral.step"),
    ("weakhyp.spectral", "convolution_power", "spectral.convolution_power"),
    ("weakhyp.equation", "CoefficientSpec.coefficients_at", "equation.coefficients_at"),
    ("weakhyp.equation", "CoefficientSpec.coefficient_table", "equation.coefficient_table"),
    ("weakhyp.equation", "parse", "exprdsl.parse"),
    ("weakhyp.config", "parse", "exprdsl.parse"),
]
MAP_TARGET = ("weakhyp.cli", "ordered_map", "parallel.ordered_map")
ITEM_SPAN = "parallel.item"


def _mode_steps(args: tuple, kwargs: dict) -> int:
    state = args[0] if args else kwargs["state"]
    return 2 * state.K + 1


COUNTERS = {"spectral.step": ("spectral.mode_steps", _mode_steps)}


class Tracer:
    """Records spans and counters while installed; restores every binding on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: list[tuple[int, str, float]] = []
        self.iteration = 0
        self._ids = itertools.count()  # next() is atomic, so worker threads may share it
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn: Callable, args: tuple, kwargs: dict, parent: int | None = None):
        """Call fn inside a span; parent defaults to the innermost open span of this thread."""
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else NO_PARENT
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.iteration))
            counter = COUNTERS.get(name)
            if counter is not None:
                self.counts.append((self.iteration, counter[0], counter[1](args, kwargs)))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs)

        return traced

    def wrap_map(self, ordered_map: Callable) -> Callable:
        """Span the map, and each item under it whichever thread runs the item."""

        def mapped(fn, items, threads=1):
            parent = self._stack()[-1]

            def item(x):
                return self.run(ITEM_SPAN, fn, (x,), {}, parent=parent)

            return ordered_map(item, items, threads)

        return self.wrap(MAP_TARGET[2], mapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in [*TARGETS, MAP_TARGET]:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrapped = self.wrap_map(original) if name == MAP_TARGET[2] else self.wrap(name, original)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """Column-wise spans and counters, as written to the trace file."""
        spans = sorted(self.spans)
        return {
            "columns": ["id", "name", "start", "end", "parent", "iteration"],
            "spans": [list(col) for col in zip(*spans)] if spans else [[] for _ in range(6)],
            "counts": [list(c) for c in self.counts],
        }


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple[int, str, float, float, int, int]]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children run in parallel threads may overlap each other; the union
    counts that stretch once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _ in spans
    }


def layer_totals(spans, counts) -> dict[int, dict[str, float]]:
    """Per iteration: <name>.s, <name>.self_s and <name>.calls, counters, parallel.speedup.

    ``parallel.speedup`` is the summed item time over the summed map wall
    time, so its ideal value is the thread count.
    """
    selfs = self_times(spans)
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, _, iteration in spans:
        row = totals[iteration]
        row[name + ".s"] += end - start
        row[name + ".self_s"] += selfs[span_id]
        row[name + ".calls"] += 1
    for iteration, name, value in counts:
        totals[iteration][name] += value
    for row in totals.values():
        if row.get(MAP_TARGET[2] + ".s"):
            row["parallel.speedup"] = row[ITEM_SPAN + ".s"] / row[MAP_TARGET[2] + ".s"]
    return totals
