"""``repro.obs`` — unified span tracing, run telemetry, and run reports.

The paper's headline evidence is a per-routine wall-clock breakdown
(Table 3: MPI_Wtime/Barrier brackets reduced to the slowest rank) and the
scaling curves built from it (Figs. 6–7).  Before this package the repo's
telemetry was three disconnected systems — :class:`repro.util.timers
.TimerRegistry`, :class:`repro.serve.metrics.ServiceMetrics`, and the
:class:`repro.fdps.comm.CommStats` ledger — none of which could answer
"where did step 1234 spend its time, and was inference hidden or exposed?"
for a live run.  ``repro.obs`` is the one stream they all feed:

* :class:`Tracer` — nested context-manager spans with categories and
  key/value attributes, monotonic-clock only (the determinism lint rule
  holds here too), plus counters/gauges and attached meta blobs;
* :class:`NullTracer` — the default everywhere; an untraced run pays one
  no-op call per bracket (``benchmarks/bench_obs_overhead.py`` pins the
  enabled-tracer overhead at <=5% on the 20k-particle step and asserts
  traced runs stay bit-identical);
* exporters (:mod:`repro.obs.export`) — per-rank JSONL streams and
  Chrome-trace/Perfetto JSON (``pid`` = rank, ``tid`` = worker/phase lane);
* the run report (:mod:`repro.obs.report`, CLI ``python -m repro.obs
  report <run>``) — a Table-3-style breakdown using the same slowest-rank
  ``TimerRegistry`` reduction, per-label comm bytes matching the
  ``CommStats`` ledger, hidden-vs-exposed inference priced by
  :func:`repro.perf.costmodel.serve_summary`, and a two-run diff mode.

Span taxonomy
-------------

Every instrumented seam emits spans in one of three categories; names are
stable keys consumed by the report and the benchmarks:

======= ======================== =====================================================
cat     emitted by               span names (attrs)
======= ======================== =====================================================
sim     ``core.runner`` (the     ``step`` (step); ``Identify_SNe``; ``Send_SNe``;
        step host, every         ``Integration``; ``Final_kick``; ``Receive_SNe``;
        ``n_ranks``) via the     ``Star Formation``; ``Feedback_and_Cooling``
        bridged ``TimerRegistry``
sim     ``accel.engine`` /       ``{1st,2nd} Calc_Force``,
        ``fdps.distributed``     ``... Calc_Kernel_Size_and_Density``,
        (same bridge)            ``... Calc_Hydro_Force`` (backend);
                                 ``Decompose_Domain``, ``Exchange_Particle``,
                                 ``Exchange_Region``, ``Exchange_LET`` — per rank
                                 (rank)
comm    ``fdps.comm.SimComm``    one span per ledger row: the op label
                                 (``pool_p2p``, ``exchange_particles``, ...) with
                                 (bytes, messages, critical_bytes) attached
serve   ``serve.server`` /       ``serve.dispatch`` (batch, events); ``serve.claim``
        ``serve.shm``            (worker); ``serve.batch`` (worker, busy_s);
                                 ``serve.exposed_wait``; ``serve.inline_predict``;
                                 ``serve.redispatch`` (generation, cause);
                                 ``serve.inline_recovery`` (events, cause);
                                 ``serve.worker_restart`` (worker);
                                 ``serve.shm.encode`` (slots, fallbacks)
======= ======================== =====================================================

Opening a trace: ``python -m repro.obs chrome RUN -o trace.json`` then load
``trace.json`` in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``; ranks appear as processes, workers/phases as thread
lanes.  Report examples::

    python -m repro.obs report runs/mw20k/
    python -m repro.obs report runs/mw20k/ --json
    python -m repro.obs report runs/mw20k/ --diff runs/mw20k-pikg/
    python -m repro.obs smoke --out runs/smoke

Tracing a simulation: pass ``tracer=Tracer()`` to
:class:`repro.core.simulation.GalaxySimulation` (it threads the tracer
through the step host's timers, the force engine, the serve pipeline, and
the communicators) and export with
``sim.write_trace(run_dir)``.
"""

from repro.obs.export import (
    load_jsonl,
    load_run,
    to_chrome_trace,
    trace_path,
    write_chrome_trace,
    write_jsonl,
    write_run,
)
from repro.obs.report import RunReport, diff_reports, report_run, report_traces
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RunReport",
    "Span",
    "SpanRecord",
    "Tracer",
    "diff_reports",
    "load_jsonl",
    "load_run",
    "report_run",
    "report_traces",
    "to_chrome_trace",
    "trace_path",
    "write_chrome_trace",
    "write_jsonl",
    "write_run",
]
