"""``repro.obs`` — the unified telemetry layer.

One dependency-free subsystem carries every observability concern of the
stack:

* **Tracing** (:mod:`repro.obs.trace`): hierarchical wall-clock spans with
  attributes and parent links, used by the solver (compile → phase I →
  centering per rung), the allocator (rounding), the admission controller
  and the batch executor.  ``obs.span("name")`` is the one instrumentation
  call; disabled spans still time themselves (so statistics keep their
  timing fields) but record nothing.
* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges and quantile
  histograms in a process-global registry — per-solve Newton iterations,
  rung-ladder progress, non-converged rungs, admission verdict latencies,
  batch cache hit rates.
* **Export** (:mod:`repro.obs.export`): a schema-versioned JSONL event log
  safe for concurrent writers, plus the human ``--trace`` / ``--profile``
  renderers.
* **Progress** (:mod:`repro.obs.progress`): live progress/ETA reporting for
  batch campaigns.

Telemetry is **off by default** and never affects results: span and metric
data stay out of cache keys and out of
:meth:`~repro.batch.executor.ItemResult.deterministic_dict`.

Two activation styles:

* :func:`configure` flips the global switch for a long-lived process
  (optionally attaching a JSONL sink);
* :func:`capture` scopes telemetry to a ``with`` block and hands back the
  recorded span trees and metrics snapshot — the CLI and the batch workers
  use this so telemetry from one operation never bleeds into another.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro._lazy import lazy_exports
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, Tracer, get_tracer, span, span_tree_size

#: The JSONL export and the progress reporter load on first use: a solve
#: with telemetry off never needs them.
_EXPORTS = {
    "SCHEMA_VERSION": "repro.obs.export",
    "JsonlSink": "repro.obs.export",
    "read_records": "repro.obs.export",
    "render_metrics": "repro.obs.export",
    "render_profile": "repro.obs.export",
    "render_trace_tree": "repro.obs.export",
    "validate_record": "repro.obs.export",
    "ProgressReporter": "repro.obs.progress",
    "export": "repro.obs.export",
    "progress": "repro.obs.progress",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.obs.export import JsonlSink

__all__ = [
    "Capture",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "configure",
    "enabled",
    "get_registry",
    "get_tracer",
    "metrics",
    "span",
    "span_tree_size",
]
__all__ += sorted(_EXPORTS)


def _as_sink(sink: Optional[Union[JsonlSink, str, Path]]) -> Optional[JsonlSink]:
    """``sink`` as a :class:`~repro.obs.export.JsonlSink` (a path opens one)."""
    if sink is None:
        return None
    from repro.obs.export import JsonlSink

    return sink if isinstance(sink, JsonlSink) else JsonlSink(sink)


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return get_tracer().enabled


def configure(
    enabled: bool = True,
    sink: Optional[Union[JsonlSink, str, Path]] = None,
) -> None:
    """Switch global telemetry on or off (optionally attaching a JSONL sink).

    With a sink attached, every completed root span is appended to the event
    log as it closes; call :func:`flush_metrics` to append a metrics
    snapshot (e.g. once at process exit).
    """
    tracer = get_tracer()
    registry = get_registry()
    sink = _as_sink(sink)
    tracer.enabled = bool(enabled)
    registry.enabled = bool(enabled)
    tracer.sink = sink if enabled else None


def flush_metrics(sink: Optional[JsonlSink] = None) -> Dict[str, Dict[str, object]]:
    """Snapshot the global registry, appending it to ``sink`` (or the configured one)."""
    snapshot = get_registry().snapshot()
    sink = sink if sink is not None else get_tracer().sink
    if sink is not None and snapshot:
        sink.emit_metrics(snapshot)
    return snapshot


class Capture:
    """The telemetry recorded by one :func:`capture` block."""

    def __init__(self) -> None:
        #: Serialised root span trees, in completion order.
        self.spans: List[Dict[str, object]] = []
        #: Metrics snapshot of the block (name → instrument snapshot).
        self.metrics: Dict[str, Dict[str, object]] = {}

    def as_dict(self) -> Dict[str, object]:
        """The cross-process payload (schema-versioned, JSON-serialisable)."""
        from repro.obs.export import SCHEMA_VERSION

        return {
            "schema": SCHEMA_VERSION,
            "spans": list(self.spans),
            "metrics": dict(self.metrics),
        }

    @property
    def span_count(self) -> int:
        """Total spans recorded, descendants included."""
        return sum(span_tree_size(root) for root in self.spans)


@contextmanager
def capture(sink: Optional[Union[JsonlSink, str, Path]] = None):
    """Enable telemetry for one ``with`` block and collect what it records.

    The block runs with tracing and metrics enabled against *fresh* buffers;
    on exit the previous global state (enabled flags, sink, pending spans,
    registry contents) is restored exactly, so captures compose with an
    already-configured process and with each other.  The yielded
    :class:`Capture` is filled when the block exits — including exits through
    an exception, so a failed operation still hands back its partial trace.
    """
    tracer = get_tracer()
    registry = get_registry()
    sink = _as_sink(sink)

    previous_enabled = tracer.enabled
    previous_sink = tracer.sink
    previous_registry_enabled = registry.enabled
    with tracer._lock:
        previous_finished, tracer._finished = tracer._finished, []
    with registry._lock:
        previous_instruments, registry._instruments = registry._instruments, {}

    tracer.enabled = True
    tracer.sink = sink
    registry.enabled = True
    result = Capture()
    try:
        yield result
    finally:
        result.spans = [span.as_dict() for span in tracer.drain()]
        result.metrics = registry.snapshot()
        if sink is not None and result.metrics:
            sink.emit_metrics(result.metrics)
        tracer.enabled = previous_enabled
        tracer.sink = previous_sink
        registry.enabled = previous_registry_enabled
        with tracer._lock:
            tracer._finished = previous_finished + tracer._finished
        with registry._lock:
            registry._instruments = previous_instruments
