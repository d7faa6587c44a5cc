"""Per-layer timing for the traced run, wrapped from outside the program.

:class:`LayerProbe` replaces public functions and methods of the
program's layers with timing wrappers while it is installed, and puts
the originals back on :meth:`LayerProbe.uninstall`.  Nothing under
``src/`` changes: the untimed run never installs it.

A wrapper counts only its outermost call, so a layer that re-enters
itself (the NumPy scan kernel falls back to the pure-Python scan for
short posting lists; ``from_texts`` calls ``from_token_lists``) is timed
once.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# By import path: ``repro.core`` re-exports a *function* named topk_join.
accel_kernel = importlib.import_module("repro.accel.kernel")
core_events = importlib.import_module("repro.core.events")
core_results = importlib.import_module("repro.core.results")
core_topk_join = importlib.import_module("repro.core.topk_join")
data_io = importlib.import_module("repro.data.io")
data_records = importlib.import_module("repro.data.records")
index_inverted = importlib.import_module("repro.index.inverted")
stream_engine = importlib.import_module("repro.stream.engine")


class LayerProbe:
    """Seconds and call counts per layer while installed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []

    def snapshot(self) -> Dict[str, float]:
        """Current totals, ``<layer>.s`` seconds and ``<name>`` counts."""
        totals: Dict[str, float] = {
            "%s.s" % layer: value for layer, value in self.seconds.items()
        }
        totals.update(self.counts)
        return totals

    def _timed(
        self,
        layer: str,
        original: Callable[..., Any],
        after: Callable[[Any, Tuple[Any, ...]], None] = lambda result, args: None,
    ) -> Callable[..., Any]:
        depth = self._depth
        seconds = self.seconds

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth[layer] += 1
            begin = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                depth[layer] -= 1
            if depth[layer] == 0:
                seconds[layer] += time.perf_counter() - begin
                after(result, args)
            return result

        return wrapper

    def _replace(self, owner: Any, name: str, wrapper: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, owner: Any, name: str, layer: str, **kwargs: Any) -> None:
        self._replace(owner, name, self._timed(layer, getattr(owner, name), **kwargs))

    def _wrap_classmethod(self, owner: Any, name: str, layer: str) -> None:
        function = owner.__dict__[name].__func__
        self._replace(owner, name, classmethod(self._timed(layer, function)))

    def _wrap_generator(self, owner: Any, name: str, layer: str) -> None:
        """Time a generator method by draining it inside the timed call."""
        function = getattr(owner, name)
        eager = self._timed(layer, lambda *args: list(function(*args)))
        self._replace(owner, name, lambda *args: iter(eager(*args)))

    def _count(
        self, name: str, amount: Callable[[Any, Tuple[Any, ...]], int]
    ) -> Callable[[Any, Tuple[Any, ...]], None]:
        counts = self.counts

        def after(result: Any, args: Tuple[Any, ...]) -> None:
            counts[name] += amount(result, args)

        return after

    def _count_pop(self, result: Any, args: Tuple[Any, ...]) -> None:
        # One popped event holds every record of one (size, prefix) block.
        self.counts["events.count"] += 1
        self.counts["events.probes"] += len(result[2])

    def install(self) -> "LayerProbe":
        """Wrap every layer the benchmark reports on."""
        # data: reading token files and canonicalizing collections.
        self._wrap(data_io, "load_token_file", "collection.build")
        for name in ("from_token_lists", "from_integer_sets"):
            self._wrap_classmethod(
                data_records.RecordCollection, name, "collection.build"
            )
        # core.seeding: the join module's own binding is the one it calls.
        self._wrap(
            core_topk_join, "seed_temporary_results", "seed",
            after=self._count("seed.verifications", lambda result, args: result),
        )
        # core.events: the prefix-event max-heap.
        self._wrap(
            core_events.EventQueue, "pop", "events",
            after=self._count_pop,
        )
        self._wrap(core_events.EventQueue, "push_next", "events")
        # accel.kernel: one posting-list scan per probed record.
        for kernel in (accel_kernel.PythonScanKernel, accel_kernel.NumpyScanKernel):
            self._wrap(
                kernel, "scan", "kernel.scan",
                after=self._count("kernel.scan_calls", lambda result, args: 1),
            )
        # index.inverted: postings the batch join adds, and the ones the
        # accessing bound truncates away.
        self._wrap(
            index_inverted.BoundedInvertedIndex, "add", "index.add",
            after=self._count("index.inserted", lambda result, args: 1),
        )
        self._wrap(
            index_inverted.BoundedInvertedIndex, "truncate", "index.truncate",
            after=self._count("index.deleted", lambda result, args: result),
        )
        # core.results: progressive emission out of the top-k buffer.
        self._wrap(core_results.TopKBuffer, "pop_emittable", "emit")
        self._wrap_generator(core_results.TopKBuffer, "drain", "emit")
        # stream.engine: the batch joins a refill runs.
        self._wrap(stream_engine, "topk_join", "stream.refill")
        return self

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
