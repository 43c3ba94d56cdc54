"""In-memory span tracer for one traced benchmark round.

A span is (name, start, end, parent index). Spans are opened at the layer
boundaries of the package: the benchmark wraps the names each module calls,
at the module that calls them, because the package imports functions by name
and patching only the defining module would catch nothing. Spans stay in
memory until the round ends; every wrapped attribute is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute path inside it, span name). The span name's prefix up to
# the first dot is the layer whose time the span books.
WRAPPED_NAMES = (
    ("maqaoa.harness", "load_dataset", "harness.load_dataset"),
    ("maqaoa.harness", "run_strategy", "strategies.run_strategy"),
    ("maqaoa.harness", "read_records", "records.read_records"),
    ("maqaoa.strategies", "optimize_angles", "optimizer.optimize_angles"),
    ("maqaoa.strategies", "max_cut", "graphs.max_cut"),
    ("maqaoa.strategies", "run_circuit", "simulator.run_circuit"),
    ("maqaoa.strategies", "expectation", "simulator.expectation"),
    ("maqaoa.optimizer", "expectation_and_gradient", "simulator.expectation_and_gradient"),
    ("maqaoa.graphs", "graph_id", "graphs.graph_id"),
    ("maqaoa.records", "ExperimentRecord.to_row", "records.to_row"),
)


def _owner(module: str, attr_path: str):
    """The object holding the last attribute of attr_path, and that name."""
    owner = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects nested spans; use as a context manager to patch and restore."""

    def __init__(self, names=WRAPPED_NAMES):
        self.names = names
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        open_, close = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                return original(*args, **kwargs)
            finally:
                close(index)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for module, attr_path, name in self.names:
                self._wrap(*_owner(module, attr_path), name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a tree sum to its root's duration.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
