"""Unified observability: span tracing, metrics, and trace exporters.

The perf model (:mod:`repro.perf`) can *predict* a timeline; this package
records the *observed* one from real executed runs and provides the plumbing
to compare the two:

* :mod:`repro.obs.tracer` — a zero-dependency span tracer.
  :func:`trace_span` is a context manager instrumented through the hot
  paths (communicator ops, flash kernels, ring transitions, checkpoint
  recompute, fused LM-head tiles, trainer steps).  Tracing is **off by
  default**; the disabled fast path is a single flag check returning a
  shared no-op, so instrumentation costs nothing when not recording.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters and
  gauges with labels.  The ad-hoc tallies that used to live
  in ``repro.kernels.tileplan``, ``repro.nn.memory`` and
  ``repro.resilience`` are backed by (or mirrored into) the global
  registry, giving one ``snapshot()`` / ``reset()`` API over all of them.
* :mod:`repro.obs.export` — exporters: one Chrome-trace event writer
  that both the tracer's spans (``pid`` 2) and the DES timelines
  (``pid`` 1) go through, so Perfetto shows predicted and observed
  timelines side by side; per-step JSONL metrics lines from the
  :class:`~repro.engine.Trainer`; and the one artifact checker,
  :func:`check_artifact`, which holds every artifact this package writes
  to its entry of the one schema table, ``ARTIFACT_SCHEMAS``.
* :mod:`repro.obs.flow` — producer→consumer flow events derived from
  communicator spans, exported as Chrome-trace ``s``/``f`` pairs so
  Perfetto draws the cross-rank causal arrows.
* :mod:`repro.obs.critical` — the critical-path engine: per-step
  per-rank attribution (compute / exposed comm / overlapped / idle with
  a conservation check), straggler ranking, and exposed-comm pins
  against the DES-predicted critical path and closed-form comm costs.
* :mod:`repro.obs.flightrec` — a flight recorder (bounded span ring
  buffer installed as a tracer sink) that failure handlers dump as a
  ``postmortem/v1`` bundle.
* :mod:`repro.obs.mem` — the memory half: allocation timelines fed by
  every tracker register/release and kernel transient, per-span peak
  attribution and leak reports, Chrome counter tracks, and the
  :class:`MemoryBudget` watchdog that dumps ``oom/v1`` bundles.
* ``python -m repro.obs`` — CLI: ``trace-step`` records a tiny traced
  training step, ``report`` summarises a trace (``--critical`` appends
  attribution, ``--json`` for machines), ``diff`` checks the observed
  trace against the DES-predicted schedule, ``attribute`` runs the
  critical-path engine and exits non-zero on a broken pin or straggler,
  ``memdiff`` gates observed peak memory against the closed-form
  predictions of :mod:`repro.perf.memory`.
"""

from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    get_tracer,
    trace_span,
    traced,
    tracing_enabled,
    use_tracing,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
)
from repro.obs.export import (
    check_artifact,
    spans_to_chrome_json,
    write_step_metrics,
)
from repro.obs.flow import (
    FlowEdge,
    derive_flows,
    flow_key,
)
from repro.obs.report import (
    diff_json,
    diff_traces,
    load_trace,
    report_json,
)
from repro.obs.critical import (
    attribute_steps,
    attribute_trace,
    check_conservation,
    critical_spans,
    render_attribution,
    straggler_ranking,
)
from repro.obs.flightrec import (
    FlightRecorder,
    get_active_recorder,
    notify_failure,
)
from repro.obs.mem import (
    MemEvent,
    MemoryBudget,
    MemoryBudgetExceeded,
    MemoryTimeline,
    dump_oom_postmortem,
    leak_report,
    memory_counter_events,
    memory_phase,
    memory_scope,
    peak_attribution,
    timeline_json,
    transient_alloc,
    transient_free,
    transient_scope,
    use_memory_budget,
    use_memory_timeline,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "FlowEdge",
    "Gauge",
    "MemEvent",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "MemoryTimeline",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "attribute_steps",
    "attribute_trace",
    "check_artifact",
    "check_conservation",
    "critical_spans",
    "derive_flows",
    "diff_json",
    "diff_traces",
    "dump_oom_postmortem",
    "flow_key",
    "get_active_recorder",
    "get_registry",
    "get_tracer",
    "leak_report",
    "load_trace",
    "memory_counter_events",
    "memory_phase",
    "memory_scope",
    "notify_failure",
    "peak_attribution",
    "render_attribution",
    "report_json",
    "spans_to_chrome_json",
    "straggler_ranking",
    "timeline_json",
    "trace_span",
    "traced",
    "tracing_enabled",
    "transient_alloc",
    "transient_free",
    "transient_scope",
    "use_memory_budget",
    "use_memory_timeline",
    "use_tracing",
    "write_step_metrics",
]
