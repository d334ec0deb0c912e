"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public entry points of each bruhatkit layer from the
outside (module attributes are swapped for timing wrappers), so the package
itself carries no tracing code.  Every call into a layer is timed against a
thread-local stack of open frames: ``verify`` runs cell scans on pool
threads, and a frame's self time only subtracts children on its own thread.

Coarse layers also record one span per call (name, start, end, parent span,
thread), kept in memory and written out when the run ends.  Per-matrix
layers (Jordan types, ranks, cell windows, the exact enumerator's ``next``)
run hundreds of thousands of times, so they keep aggregate counters only.

A hook that no longer exists in the package (a later change may rename or
remove it) is skipped; a layer whose hooks are all gone is reported as
``absent`` with zero counts, and the run goes on.  A hook whose result no
longer has the shape its item counter expects still counts calls and time;
it is listed under ``uncounted_hooks`` with zero items.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _one(args, result) -> int:
    return 1


def _len_result(args, result) -> int:
    return len(result)


def _len_arg0(args, result) -> int:
    return len(args[0])


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute ``module.attr`` of the package.

    ``items`` counts the matrices in or out of one call (for generator
    hooks, of one ``next``); ``hits`` counts useful outcomes where the layer
    can waste work.
    """

    module: str
    attr: str
    items: Callable = _one
    hits: Callable | None = None
    kind: str = "call"  # "call", "generator" (time each next) or "pool" (an executor class)


@dataclass(frozen=True)
class Layer:
    """A layer of the package: its hooks, the end-to-end metrics and
    workloads a change to it should move (``moves`` on ``on``) or leave alone
    (``unchanged_on``), and whether each call is also recorded as a span."""

    name: str
    hooks: tuple[Hook, ...]
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()
    unchanged_on: tuple[str, ...] = ()
    spans: bool = True


PACKAGE = "bruhatkit"
VERIFY = ("table_sl3_q5", "cells_sp4_q5", "propd_sp4_q35")

LAYERS: tuple[Layer, ...] = (
    Layer("fflab.closure", (Hook("fflab", "_mulclose", items=lambda a, r: len(r[0])),),
          ("wall_s", "peak_rss_mb"), ("table_sl3_q5",), ("cells_sp4_q5", "propd_sp4_q35")),
    Layer("cells.cell_window", (Hook("fflab", "cell_window_mod_p"),),
          ("wall_s",), ("table_sl3_q5",), ("cells_sp4_q5", "propd_sp4_q35"), spans=False),
    Layer("fflab.jordan", (Hook("fflab", "_jordan_type_mod_p"),),
          ("wall_s", "elements_per_s"), ("cells_sp4_q5", "propd_sp4_q35"), ("exact_q",),
          spans=False),
    Layer("fflab.rank", (Hook("fflab", "_rank_mod_p_np"),),
          ("wall_s", "elements_per_s"), ("cells_sp4_q5", "propd_sp4_q35"), ("exact_q",),
          spans=False),
    Layer("fflab.unipotent_filter",
          (Hook("fflab", "_unipotent_mask", items=_len_arg0, hits=lambda a, r: int(r.sum())),
           Hook("fflab", "_unipotent_indices", items=_len_arg0, hits=_len_result)),
          ("wall_s",), ("cells_sp4_q5", "propd_sp4_q35"), ("exact_q",)),
    Layer("fflab.scan", (Hook("fflab", "scan_cell", items=_len_result, kind="generator"),),
          ("wall_s", "peak_rss_mb"), ("cells_sp4_q5",), ("propd_sp4_q35",)),
    Layer("fflab.grid",
          (Hook("fflab", "borel_grid", items=_len_result),
           Hook("fflab", "_cell_unipotent_prefix", items=_len_result)),
          ("wall_s", "peak_rss_mb"), ("cells_sp4_q5",), ("propd_sp4_q35",)),
    Layer("fflab.census", (Hook("fflab", "count_unipotents", items=lambda a, r: r),),
          ("wall_s",), ("cells_sp4_q5",), ("table_sl3_q5", "propd_sp4_q35")),
    Layer("fflab.orbits",
          (Hook("fflab", "_partition_into_orbits", items=_len_arg0),
           Hook("fflab", "conjugation_orbit", items=_len_result)),
          ("wall_s",), ("propd_sp4_q35",), ("table_sl3_q5", "cells_sp4_q5", "exact_q")),
    Layer("fflab.centralizer",
          (Hook("fflab", "centralizer_order"), Hook("fflab", "borel_centralizer_order")),
          ("wall_s",), ("propd_sp4_q35",), ("table_sl3_q5", "cells_sp4_q5", "exact_q")),
    # the submitting thread's wait for the per-class thread pool
    Layer("fflab.pool", (Hook("fflab", "ThreadPoolExecutor", kind="pool"),),
          ("wall_s", "cpu_s"), ("cells_sp4_q5", "propd_sp4_q35"),
          ("table_sl3_q5", "exact_q")),
    Layer("fflab.spot_checks",
          (Hook("fflab", "_spot_checks", items=lambda a, r: r["count"]),
           Hook("fflab", "_spot_checks_from_cells", items=lambda a, r: r["count"])),
          ("wall_s",), VERIFY, ("exact_q",)),
    Layer("weyl.classes", (Hook("fflab", "conjugacy_classes", items=_len_result),),
          ("wall_s",), VERIFY, ("exact_q",)),
    Layer("phimap.phi", (Hook("fflab", "phi"),), ("wall_s",), VERIFY, ("exact_q",)),
    Layer("cli.report", (Hook("cli", "main"),), ("wall_s",), VERIFY, ("exact_q",)),
    Layer("exact.parse", (Hook("exact", "matrix_from_json"),),
          ("wall_s",), ("exact_q",), VERIFY),
    Layer("cells.decompose", (Hook("cells", "bruhat_decompose"),),
          ("wall_s",), ("exact_q",), VERIFY),
    Layer("cells.rank_profile", (Hook("cells", "bruhat_cell_rank_profile"),),
          ("wall_s",), ("exact_q",), VERIFY),
    Layer("cells.enumerate_cell", (Hook("cells", "enumerate_cell", kind="generator"),),
          ("wall_s", "elements_per_s"), ("exact_q",), VERIFY, spans=False),
)

LAYER_FIELDS = (("calls", "count"), ("items", "count"), ("busy_s", "s"), ("self_s", "s"),
                ("items_per_s", "1/s"))
EXTRA_METRICS = (("fflab.unipotent_filter.hit_ratio", "ratio"), ("trace.overhead_frac", "ratio"))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{layer.name}.{f}", unit) for layer in LAYERS for f, unit in LAYER_FIELDS]
    return names + list(EXTRA_METRICS)


@dataclass
class _Totals:
    calls: int = 0
    items: int = 0
    hits: int = 0
    busy: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Swaps hooks for timing wrappers; ``install`` and ``uninstall`` bracket
    the traced work."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.spans: list = []
        self.totals: dict[str, _Totals] = {}
        self.missing: dict[str, list[str]] = {}
        self.uncounted: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def install(self) -> None:
        for layer in self.layers:
            self.totals[layer.name] = _Totals()
            for hook in layer.hooks:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{hook.module}")
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, hook.attr, None)
                if original is None:
                    self.missing.setdefault(layer.name, []).append(f"{hook.module}.{hook.attr}")
                    continue
                wrap = {"call": self._wrap_call, "generator": self._wrap_generator,
                        "pool": self._wrap_pool}[hook.kind]
                wrapped = wrap(layer, hook, original)
                self._saved.append((module, hook.attr, original))
                setattr(module, hook.attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def status(self, layer: Layer) -> str:
        gone = self.missing.get(layer.name, [])
        if not gone:
            return "present"
        return "absent" if len(gone) == len(layer.hooks) else "partial"

    # -- frames ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: Layer) -> list | None:
        """Open a frame ``[layer, start, child_time, span_id, parent_id]``;
        None when the layer re-enters itself (the outer frame covers it)."""
        stack = self._stack()
        if stack and stack[-1][0] is layer:
            return None
        parent = stack[-1][3] if stack else getattr(self._local, "root_parent", None)
        span_id = None
        if layer.spans:
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
        frame = [layer, time.perf_counter(), 0.0, span_id, parent]
        stack.append(frame)
        return frame

    def _exit(self, frame: list | None, layer: Layer, items: int, hits: int) -> None:
        end = time.perf_counter()
        if frame is None:
            with self._lock:
                t = self.totals[layer.name]
                t.calls += 1
                t.items += items
                t.hits += hits
            return
        stack = self._stack()
        stack.pop()
        elapsed = end - frame[1]
        if stack:
            stack[-1][2] += elapsed
        with self._lock:
            t = self.totals[layer.name]
            t.calls += 1
            t.items += items
            t.hits += hits
            t.busy += elapsed
            t.self_time += elapsed - frame[2]
            if frame[3] is not None:
                self.spans[frame[3]] = (layer.name, frame[1], end, frame[4],
                                        threading.get_ident())

    def _count(self, layer: Layer, hook: Hook, counter: Callable, args, result) -> int:
        try:
            return counter(args, result)
        except Exception:  # a changed return type must not fail the traced run
            with self._lock:
                self.uncounted.setdefault(layer.name, set()).add(f"{hook.module}.{hook.attr}")
            return 0

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, layer: Layer, hook: Hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            items = hits = 0
            try:
                result = fn(*args, **kwargs)
                items = tracer._count(layer, hook, hook.items, args, result)
                hits = tracer._count(layer, hook, hook.hits, args, result) if hook.hits else 0
                return result
            finally:
                tracer._exit(frame, layer, items, hits)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, layer: Layer, hook: Hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                frame = tracer._enter(layer)
                items = 0
                try:
                    item = next(inner)
                    items = tracer._count(layer, hook, hook.items, args, item)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, layer, items, 0)
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, layer: Layer, hook: Hook, cls):
        """A thread-pool subclass whose lifetime (``with`` block) is one span:
        its busy time is the submitting thread's wait for the pool, and task
        spans on pool threads name it as their parent."""
        tracer = self

        class TracedPool(cls):
            _frame = None
            _tasks = 0

            def __enter__(self):
                self._frame = tracer._enter(layer)
                self._tasks = 0
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._exit(self._frame, layer, self._tasks, 0)

            def submit(self, fn, /, *args, **kwargs):
                self._tasks += 1
                parent = self._frame[3] if self._frame else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    def _adopt(self, parent, fn, *args, **kwargs):
        self._local.root_parent = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.root_parent = None

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer totals keyed by metric name, the layer statuses and the
        recorded spans."""
        metrics = {}
        for layer in self.layers:
            t = self.totals.get(layer.name, _Totals())
            values = {
                "calls": t.calls,
                "items": t.items,
                "busy_s": t.busy,
                "self_s": t.self_time,
                "items_per_s": t.items / t.busy if t.busy > 0 else 0.0,
            }
            for name, value in values.items():
                metrics[f"{layer.name}.{name}"] = value
        uf = self.totals.get("fflab.unipotent_filter", _Totals())
        metrics["fflab.unipotent_filter.hit_ratio"] = uf.hits / uf.items if uf.items else 0.0
        return {
            "metrics": metrics,
            "status": {layer.name: self.status(layer) for layer in self.layers},
            "missing_hooks": self.missing,
            "uncounted_hooks": {name: sorted(hooks) for name, hooks in self.uncounted.items()},
            "spans": [s for s in self.spans if s is not None],
        }
