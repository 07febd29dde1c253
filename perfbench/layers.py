"""Which functions the traced run wraps, and the per-layer metrics.

Every target is patched at the name its caller looks it up by (the
importing module's global, or the class attribute a method call
resolves), so the program runs unmodified apart from the wrappers.
Hot inner calls (``BinnedRegressionTree.fit``, about 1.4 ms and
thousands of calls per run) are counted, not timed.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from spans import Patch, Span, Tracer, busy, calls, outside, self_time

_JOBSTORE_METHODS = (
    "submit", "get", "list_jobs", "active_count", "transition",
    "claim_next", "running_jobs", "record_attempt", "add_task_result",
    "tasks_for", "records_for", "set_fleet_report", "fleet_report",
    "fleet_reports", "counts_by_state",
)


def _event_sink(tracer: Tracer):
    """An ``on_event`` sink summing the tuner's own step timings."""
    from repro.core.events import BatchMeasured, BatchProposed

    def sink(_tuner, event) -> None:
        if isinstance(event, BatchProposed):
            tracer.add("tuner.propose_s", event.proposal_s)
        elif isinstance(event, BatchMeasured):
            tracer.add("tuner.measure_s", event.measure_s)
            tracer.add("tuner.steps", 1)

    return sink


def _with_sink(tracer: Tracer):
    """Wrap ``Tuner.tune`` so every run also feeds :func:`_event_sink`."""
    sink = _event_sink(tracer)

    def factory(raw):
        def tune(self, *args, **kwargs):
            if len(args) >= 4:  # on_event passed positionally
                args = args[:3] + (tuple(args[3]) + (sink,),) + args[4:]
            else:
                kwargs["on_event"] = tuple(kwargs.get("on_event") or ()) \
                    + (sink,)
            return raw(self, *args, **kwargs)

        return tune

    return factory


def _library_patches(tracer: Tracer, measure_target: str) -> List[Patch]:
    def fit_rows(args, kwargs, result):
        tracer.add("ensemble.fit_rows", len(args[1]))

    def measured(args, kwargs, result):
        tracer.add("measure.configs", len(result))
        tracer.add("measure.valid", sum(1 for r in result if r.ok))

    def saved(args, kwargs, result):
        tracer.add("ckpt.bytes", os.path.getsize(result))

    def looked_up(args, kwargs, result):
        tracer.add("tlog.lookups", 1)
        tracer.add("tlog.hits", 1 if result else 0)

    return [
        ("repro.core.tuner:Tuner.tune", "", "wrap", _with_sink(tracer)),
        ("repro.core.tuner:Tuner.tune", "tuner.tune", "time", None),
        ("repro.core.tuners.bted:bted_select", "bted", "time", None),
        ("repro.core.tuners.btedbao:bted_select", "bted", "time", None),
        ("repro.core.bootstrap:BootstrapEnsemble.fit", "ensemble.fit",
         "time", fit_rows),
        ("repro.core.bootstrap:BootstrapEnsemble.predict_stats",
         "ensemble.predict", "time", None),
        ("repro.core.bootstrap:BootstrapEnsemble.predict_sum",
         "ensemble.predict", "time", None),
        ("repro.core.bootstrap:bin_features", "bin", "time", None),
        ("repro.core.bootstrap:apply_bins", "bin", "time", None),
        ("repro.learning.gbt:bin_features", "bin", "time", None),
        ("repro.learning.gbt:apply_bins", "bin", "time", None),
        ("repro.learning.tree:BinnedRegressionTree.fit", "tree.fit",
         "count", None),
        ("repro.core.bao:sample_neighborhood", "scope", "time", None),
        ("repro.core.tuners.autotvm:simulated_annealing_search", "sa",
         "time", None),
        ("repro.learning.gbt:GradientBoostedTrees.fit", "gbt.fit",
         "time", None),
        ("repro.learning.gbt:GradientBoostedTrees.predict", "gbt.predict",
         "time", None),
        (measure_target, "measure", "time", measured),
        ("repro.core.tuner:Tuner.snapshot", "ckpt", "time", None),
        ("repro.core.checkpoint:TuningCheckpoint.save", "ckpt.save",
         "time", saved),
        ("repro.tlog.db:TuningLogDB.lookup_exact", "tlog.lookup", "time",
         looked_up),
        ("repro.tlog.db:TuningLogDB.record_task", "tlog.append", "time",
         None),
        ("repro.tlog.db:TuningLogDB.flush", "tlog.append", "time", None),
        ("repro.pipeline.compiler:DeploymentCompiler.tune", "compiler.tune",
         "time", None),
        ("repro.pipeline.tasks:TaskSpec.to_simulated", "compiler.task_build",
         "time", None),
    ]


def library_patches(tracer: Tracer, workload: str) -> List[Patch]:
    """Patches for ``tune_bao`` / ``compile_fleet``.

    ``compile_fleet`` measures through the benchmark's latency executor,
    whose ``measure_batch`` (emulated latency included) is the
    hardware-layer boundary; the other workloads use the default
    serial executor.
    """
    target = ("latency:LatencyExecutor.measure_batch"
              if workload == "compile_fleet"
              else "repro.hardware.executor:SerialExecutor.measure_batch")
    return _library_patches(tracer, target)


def service_patches(tracer: Tracer) -> List[Patch]:
    """Library patches plus job store and observer dispatch."""
    patches = _library_patches(
        tracer, "repro.hardware.executor:SerialExecutor.measure_batch"
    )
    patches += [
        (f"repro.service.store:JobStore.{name}", "store", "time", None)
        for name in _JOBSTORE_METHODS
    ]
    patches.append(
        ("repro.service.runner:_FeedObserver.__call__", "observer", "time",
         None)
    )
    return patches


# ----------------------------------------------------------------------
# per-layer metrics from one traced round


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layers(spans: Sequence[Span], counts: Dict[str, int],
                 totals: Dict[str, float], devices: int) -> Dict[str, float]:
    """Per-layer metrics of one traced main phase."""
    compile_wall = sum(s[3] - s[2] for s in spans if s[1] == "compiler.tune")
    m = {
        "tuner.steps": totals.get("tuner.steps", 0.0),
        "tuner.propose_s": totals.get("tuner.propose_s", 0.0),
        "tuner.measure_s": totals.get("tuner.measure_s", 0.0),
        "bted.calls": calls(spans, "bted"),
        "bted.busy_s": busy(spans, "bted"),
        "ensemble.fit_calls": calls(spans, "ensemble.fit"),
        "ensemble.fit_busy_s": busy(spans, "ensemble.fit"),
        "ensemble.fit_rows_mean": _ratio(
            totals.get("ensemble.fit_rows", 0.0),
            calls(spans, "ensemble.fit"),
        ),
        "ensemble.predict_busy_s": busy(spans, "ensemble.predict"),
        "bin.busy_s": busy(spans, "bin"),
        "tree.fit_calls": counts.get("tree.fit", 0),
        "scope.calls": calls(spans, "scope"),
        "scope.busy_s": busy(spans, "scope"),
        "sa.busy_s": busy(spans, "sa"),
        "gbt.fit_busy_s": outside(spans, "gbt.fit", "ensemble.fit"),
        "gbt.predict_busy_s": outside(spans, "gbt.predict",
                                      "ensemble.predict"),
        "measure.configs": totals.get("measure.configs", 0.0),
        "measure.busy_s": busy(spans, "measure"),
        "measure.valid_frac": _ratio(totals.get("measure.valid", 0.0),
                                     totals.get("measure.configs", 0.0)),
        "fleet.device_busy_frac": _ratio(
            busy(spans, "tuner.tune"), compile_wall * devices
        ),
        "ckpt.writes": calls(spans, "ckpt.save"),
        "ckpt.busy_s": busy(spans, "ckpt") + busy(spans, "ckpt.save"),
        "ckpt.bytes": totals.get("ckpt.bytes", 0.0),
        "tlog.lookups": totals.get("tlog.lookups", 0.0),
        "tlog.hit_frac": _ratio(totals.get("tlog.hits", 0.0),
                                totals.get("tlog.lookups", 0.0)),
        "tlog.lookup_busy_s": busy(spans, "tlog.lookup"),
        "tlog.append_busy_s": busy(spans, "tlog.append"),
        "compiler.self_s": self_time(spans, "compiler.tune"),
        "compiler.task_build_s": busy(spans, "compiler.task_build"),
        "store.txns": calls(spans, "store"),
        "store.busy_s": busy(spans, "store"),
        "observer.busy_s": busy(spans, "observer"),
    }
    return {k: float(v) for k, v in m.items()}


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation between ranks)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: a tail percentile keeps at least this many samples beyond it
TAIL_BEYOND = 10


def tail_pct(n: int) -> float:
    """The highest whole percentile with ``TAIL_BEYOND`` samples past it."""
    for pct in range(99, 0, -1):
        if n * (100 - pct) / 100.0 >= TAIL_BEYOND:
            return float(pct)
    return 50.0


def api_layers(requests: Sequence, routes: Sequence[str]) -> Dict[str, float]:
    """Client-side HTTP latency per route, from (route, seconds, ok) rows."""
    m: Dict[str, float] = {"api.requests": float(len(requests))}
    every = [sec * 1e3 for _, sec, _ in requests]
    m["api.p50_ms"] = percentile(every, 50)
    m["api.tail_ms"] = percentile(every, tail_pct(len(every)))
    for route in routes:
        times = [sec * 1e3 for r, sec, _ in requests if r == route]
        m[f"api.{route}.p50_ms"] = percentile(times, 50)
        m[f"api.{route}.tail_ms"] = percentile(times, tail_pct(len(times)))
    return m


def runner_layers(rows: Sequence[Dict], wall_s: float) -> Dict[str, float]:
    """Runner timing from job-row timestamps."""
    done = [r for r in rows if r["state"] == "done"]

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    exec_s = [r["finished_s"] - r["started_s"] for r in done]
    return {
        "runner.queue_wait_s": med([r["started_s"] - r["created_s"]
                                    for r in done]),
        "runner.exec_hit_s": med([r["finished_s"] - r["started_s"]
                                  for r in done if not r["cold"]]),
        "runner.exec_cold_s": med([r["finished_s"] - r["started_s"]
                                   for r in done if r["cold"]]),
        "runner.busy_frac": _ratio(sum(exec_s), wall_s),
    }
