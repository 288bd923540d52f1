"""Observability: file-backed tracing, run telemetry, manifests, progress.

``repro.obs`` is the instrumentation layer the paper's observational
argument needs in code form.  The substrate already emits trace points
(:mod:`repro.sim.trace`); this package turns them into durable artefacts
and makes whole runs self-describing.  The package itself imports
nothing: import each name from the submodule that defines it, so a run
loads only the instruments it uses.

* :mod:`~repro.obs.tracers` — ``JsonlTracer`` streams trace records to
  a JSON-Lines file with bounded buffering (``repro trace summarize``),
  ``CountingTracer`` keeps near-zero-cost per-(kind, node) counters,
  ``TeeTracer`` fans one trace stream out to several sinks;
* :mod:`~repro.obs.telemetry` — ``RunTelemetry``, wall-clock profiling
  of a simulation run (events/sec, sim-time/wall-time ratio, peak
  memory);
* :mod:`~repro.obs.manifest` — ``build_manifest`` / ``write_manifest``:
  ``manifest.json`` beside every export, recording exactly what
  produced it;
* :mod:`~repro.obs.progress` — ``ProgressReporter``, heartbeat + ETA
  for multi-run sweeps (plus ``format_fleet_heartbeat`` for
  multi-worker fleet sweeps);
* :mod:`~repro.obs.summarize` — ``summarize_trace``, aggregate a JSONL
  trace back into tables;
* :mod:`~repro.obs.recorder` — ``FlightRecorder`` / ``RecordedRun``,
  bounded in-sim time-series sampling with a q_th decision audit
  (``repro run --record``, ``repro report``);
* :mod:`~repro.obs.report` — ``render_html_report``, self-contained
  HTML dashboards;
* :mod:`~repro.obs.diff` — ``diff_paths`` / ``format_diff``,
  direction-aware metric regression detection (``repro diff``);
* :mod:`~repro.obs.spans` — ``SpanBuffer`` / ``format_explain``,
  per-flow span forensics with deterministic tail sampling (``repro run
  --spans``, ``repro explain``);
* :mod:`~repro.obs.profiler` — ``EngineProfiler``, kernel
  self-profiling: per-handler event counts and sampled wall time
  (``repro bench --profile``);
* :mod:`~repro.obs.metrics` — ``MetricsRegistry``, a dependency-free
  Counter/Gauge/Histogram registry with Prometheus textfile exposition
  and deterministic canonical-JSON dumps (``metrics.prom`` /
  ``metrics.json`` beside every export).
"""
