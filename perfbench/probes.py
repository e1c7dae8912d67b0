"""Measurement from outside the program: spans, stage wrappers, GC time.

Nothing here reaches into the program's internals.  Spans are recorded
around public calls (``optimize_source``, the service's ``start`` /
``submit`` / ``result``, ``verify_equivalence``) and around the public
``Stage.run`` of every entry of ``DEFAULT_STAGES``, which the pipeline
accepts through its existing ``stages=`` argument.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.session.stages import DEFAULT_STAGES, Stage, StageContext


#: The pipeline's stages, in order: ``frontend``, ``egraph``, ``saturate``,
#: ``extract``, ``codegen``.
STAGE_NAMES = tuple(stage.name for stage in DEFAULT_STAGES)


class SpanRecorder:
    """In-memory spans: (name, parent index, start, end), thread-aware.

    Each thread has its own stack, so a stage span opened on a service
    worker thread nests under that thread's enclosing span (if any), never
    under another thread's.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        record = [name, stack[-1] if stack else None, time.perf_counter(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""

        child_time = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [
            end - start
            for span_name, _, start, end in self.spans
            if span_name == name and end is not None
        ]


class TracedStage(Stage):
    """Delegates to one pipeline stage, inside a ``stage.<name>`` span."""

    def __init__(self, inner: Stage, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name
        self.requires = inner.requires

    def run(self, ctx: StageContext) -> None:
        with self.recorder.span(f"stage.{self.name}"):
            self.inner.run(ctx)


def traced_stages(recorder: SpanRecorder) -> Sequence[Stage]:
    return tuple(TracedStage(stage, recorder) for stage in DEFAULT_STAGES)


class GCMonitor:
    """Cyclic-GC time and collection count, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GCMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
