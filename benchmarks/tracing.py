"""Spans around calls into relgrid's public functions, recorded from outside.

`Tracer.install()` replaces each listed function, in every loaded relgrid
module that holds it, by a wrapper that records a span (name, start, end,
parent). A consumer that imported the function by name (`relgrid.trainer`
calling `score_all`) therefore calls the wrapper too. Spans stay in memory
until the run ends. A listed function that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FUNCTIONS = (
    "cli.main",
    "corpus.load_native",
    "corpus.classify_pattern",
    "tagging.encode",
    "tagging.decode",
    "encoder.encode_indices",
    "encoder.encode_tokens",
    "scorer.score_all",
    "scorer.loss",
    "scorer.backward",
    "scorer.predict_tags",
    "trainer.train",
    "trainer.make_batches",
    "trainer.train_step",
    "trainer.dense_gold_padded",
    "trainer.adam_step",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "trainer.predict",
    "evaluation.breakdown",
)


def _tagged_cells(tags) -> int:
    """Non-NONE cells of a sparse TagMatrix, or of a dense tag array."""
    cells = getattr(tags, "cells", None)
    return len(cells) if cells is not None else int(np.count_nonzero(np.asarray(tags)))


# counts read from return values: function -> (count name, how to count)
COUNTS = {
    "scorer.predict_tags": ("tagged_cells", _tagged_cells),
    "tagging.decode": ("triples", len),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_seconds: float = 0.0
    # tracemalloc bookkeeping: traced bytes at entry, highest peak seen
    base_bytes: int = 0
    max_bytes: int = 0

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_seconds


class Tracer:
    """Records spans for FUNCTIONS; with `memory`, also tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "relgrid" or n.startswith("relgrid.")]
        for name in FUNCTIONS:
            module_name, func_name = name.split(".")
            try:
                module = importlib.import_module(f"relgrid.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, value))
                        setattr(m, attr, wrapper)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _note_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for idx in self._open:
            span = self.spans[idx]
            span.max_bytes = max(span.max_bytes, peak)

    def _wrap(self, name, func):
        counter = COUNTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.memory:
                self._note_peak()
                tracemalloc.reset_peak()
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            if self.memory:
                span.base_bytes = span.max_bytes = tracemalloc.get_traced_memory()[0]
            idx = len(self.spans)
            self.spans.append(span)
            self._open.append(idx)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if self.memory:
                    self._note_peak()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_seconds += span.end - span.start
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self time in ms and (with memory) peak bytes
        allocated above the level at entry, the largest over all calls."""
        out = {name: {"calls": 0, "self_ms": 0.0, "peak_bytes": 0} for name in FUNCTIONS}
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_ms"] += 1000.0 * span.self_seconds
            entry["peak_bytes"] = max(entry["peak_bytes"], span.max_bytes - span.base_bytes)
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": span.name, "start": span.start, "end": span.end, "parent": span.parent}
                    )
                    + "\n"
                )


def median_summary(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Per function and field, the median over several traced cycles. Call
    counts are the same in every cycle, so they stay whole numbers."""
    out = {}
    for name in summaries[0]:
        out[name] = {key: statistics.median(s[name][key] for s in summaries) for key in summaries[0][name]}
        out[name]["calls"] = summaries[0][name]["calls"]
    return out
