"""Spans around calls into each layer's public methods, for the traced run.

Wrappers are installed on the *class* (never on an instance) and removed
afterwards: an instance attribute holding a closure makes the maintainer
unpicklable, and the server's first periodic checkpoint would then raise.
Spans stay in memory as tuples and are written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

#: (owner class path, method, span name); the layer is the part before the dot.
TRACED_METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ivm.base:CovarianceMaintainer", "net_updates", "ivm.net"),
    ("repro.ivm.base:CovarianceMaintainer", "apply_groups", "ivm.propagate"),
    ("repro.ivm.fivm:FIVM", "statistics", "ivm.statistics"),
    ("repro.data.relation:Relation", "add_batch", "data.write"),
    ("repro.data.relation:Relation", "add", "data.write"),
    ("repro.data.relation:Relation", "compact_storage", "data.compact"),
    ("repro.durability.journal:BatchJournal", "append", "durability.journal_append"),
    ("repro.durability.checkpoint:CheckpointStore", "write", "durability.checkpoint"),
    ("repro.serving.snapshots:SnapshotManager", "publish", "serving.publish"),
    ("repro.engine.lmfao:LMFAOEngine", "evaluate", "engine.evaluate"),
    ("repro.ml.linear_regression:RidgeRegression", "fit", "ml.gd_fit"),
    ("repro.ml.decision_tree:DecisionTreeRegressor", "fit", "ml.tree_fit"),
)

#: Fields of one recorded span.
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request", "thread", "value")

#: What a span keeps of its call's result: rows applied, views computed/cached.
RESULT_VALUES = {
    "ivm.propagate": lambda rows: rows,
    "engine.evaluate": lambda result: (
        result.views_computed, result.executor_stats.get("views_cached", 0)
    ),
}


def _resolve(path: str):
    module_name, class_name = path.split(":")
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


class Tracer:
    """Records spans; the parent of a span is the innermost open span of its thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, Optional[Callable]]] = []
        #: Read ids of submitted query reads, in submission order; the single
        #: FIFO reader thread evaluates them in that order.
        self.pending_reads: deque = deque()

    # -- spans --------------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[5]
        if request is None and threading.current_thread().name.startswith("serving-reader"):
            if name == "engine.evaluate" and self.pending_reads:
                request = self.pending_reads.popleft()
        with self._lock:
            span = [len(self.spans), name, time.perf_counter_ns(), 0,
                    parent[0] if parent else -1, request,
                    threading.current_thread().name, None]
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- class-level wrapping -----------------------------------------------------------

    def install(self) -> None:
        for owner_path, method, name in TRACED_METHODS:
            owner = _resolve(owner_path)
            own = owner.__dict__.get(method)
            self._installed.append((owner, method, own))
            setattr(owner, method, self._wrap(getattr(owner, method), name))

    def uninstall(self) -> None:
        while self._installed:
            owner, method, own = self._installed.pop()
            if own is None:
                delattr(owner, method)   # the method is inherited: drop the override
            else:
                setattr(owner, method, own)

    def _wrap(self, function: Callable, name: str) -> Callable:
        tracer = self
        keep = RESULT_VALUES.get(name)

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
                if keep is not None:
                    span[7] = keep(result)
                return result
            finally:
                tracer.end(span)

        traced.__name__ = getattr(function, "__name__", name)
        traced.__wrapped__ = function
        return traced

    # -- summaries ----------------------------------------------------------------------

    @staticmethod
    def self_times(spans: List[list]) -> Dict[str, float]:
        """Seconds of self time per span name: duration minus direct children."""
        child_time: Dict[int, int] = defaultdict(int)
        for span in spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[1]] += (span[3] - span[2] - child_time.get(span[0], 0)) / 1e9
        return dict(totals)

    @staticmethod
    def totals(spans: List[list], name: str) -> Tuple[int, float]:
        """``(calls, seconds)`` of every span called ``name``."""
        selected = [span for span in spans if span[1] == name]
        return len(selected), sum(span[3] - span[2] for span in selected) / 1e9

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
