"""repro.obs — span-based observability for the simulated network stack.

Five modules:

* :mod:`repro.obs.spans` — the :class:`SpanRecorder` every component
  reports into (per-parcel lifecycle tracing, correlation by message id);
* :mod:`repro.obs.chrome_trace` — Perfetto/Chrome ``trace_event`` JSON
  export plus a text timeline renderer;
* :mod:`repro.obs.critical_path` — latency decomposition per message
  (serialize / backlog / post / wire / progress-lock wait / poll),
  reproducing the paper's Fig. 7 narrative mechanically;
* :mod:`repro.obs.census` — one walk over the stack that names every
  counter and gauge; ``runtime_breakdown``, ``fault_summary()``,
  ``flow_summary()``, ``metrics()`` and the adaptive controller's signals
  are views of it;
* :mod:`repro.obs.metrics` — counters/gauges/histograms registry: the
  ``metrics()`` view of the census plus span-derived histograms.

Recording is opt-in (``make_runtime(..., trace="parcel")``); a disabled
recorder leaves the simulation byte-identical to the seed, an enabled
one adds zero *simulated* time.
"""

from .spans import (CATEGORIES, TRACE_PRESETS, Span, SpanRecorder,
                    parse_trace_spec, payload_mid)
from .chrome_trace import (render_timeline, to_chrome_events,
                           to_chrome_trace, to_merged_chrome_trace,
                           validate_chrome_trace, write_chrome_trace)
from .critical_path import (Chain, CriticalPathReport, analyze,
                            build_chains)
from .census import Census, Part, take_census
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      build_runtime_metrics)

__all__ = [
    "CATEGORIES", "TRACE_PRESETS", "Span", "SpanRecorder",
    "parse_trace_spec", "payload_mid",
    "render_timeline", "to_chrome_events", "to_chrome_trace",
    "to_merged_chrome_trace", "validate_chrome_trace", "write_chrome_trace",
    "Chain", "CriticalPathReport", "analyze", "build_chains",
    "Census", "Part", "take_census",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "build_runtime_metrics",
]
