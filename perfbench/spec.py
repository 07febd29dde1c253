"""What the benchmark measures, and why: the source of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-spec`` writes ``BENCHMARK.json``
from the tables below.  The rationale per workload and the
layer-to-end-to-end mapping (which end-to-end metric, on which
workload, each per-layer metric should move) live here so later
changes can cite the names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

RUN_SECONDS = 40

#: rounds (each a fresh interpreter and its own tuner seed) per run;
#: every run makes all of them, sized so one run measures about
#: RUN_SECONDS on a 2-vCPU host
ROUNDS = {"tune_bao": 5, "compile_fleet": 1, "service_mix": 3}

#: A shared host's speed can swing by half between minutes, with no
#: steal time to show for it, and moves every CPU-bound time with it.
#: So each round also times ``library.reference_s``, a fixed kernel
#: that no change to the program can move, just before and just after
#: the round (tune_bao also every eighth step, inside its worker), and
#: a time is reported as if that kernel had taken REFERENCE_S: times
#: the round's REFERENCE_S / mean(kernel time).  Set-up (interpreter
#: start and imports) is CPU work everywhere and always scaled.  The
#: main phase is scaled only on SCALED: tune_bao is single-threaded and
#: never sleeps, and its in-run samples track the host.
#: compile_fleet's threads sleep in emulated measurement for about 65%
#: of their time, which the host's speed does not move, and scaling
#: service_mix's main phase from samples taken outside it widened its
#: spread over five seeds (wall 0.17, against 0.04 to 0.06 unscaled).
#: REFERENCE_S is about the kernel's time on the 2-vCPU host the
#: benchmark was defined on.
REFERENCE_S = 0.05
SCALED = ("tune_bao",)

#: a tail metric is the highest percentile with at least ten samples
#: beyond it at each workload's sample count per run (5 x 65 steps,
#: 19 tasks x 2 steps, 3 x 28 jobs); fixed here
TAIL_PCT = {"tune_bao": 96.0, "compile_fleet": 73.0, "service_mix": 88.0}

WORKLOADS: List[Dict] = [
    {
        "name": "tune_bao",
        "why": ("One 32->64-ch 3x3 conv at 28x28 tuned by bted+bao at "
                "Sec. V-A settings, 128 trials, no checkpoint/log/fleet: "
                "ensemble refit dominates."),
        "exercises": ["core.tuner", "core.bted", "core.bootstrap",
                      "learning.tree", "space.neighborhood", "hardware"],
        "bypasses": ["learning.sa", "learning.gbt (outside the ensemble)",
                     "fleet", "core.checkpoint", "tlog",
                     "pipeline.compiler", "service.*", "obs"],
        "latency": "one tuning step (BatchProposed.proposal_s + "
                   "BatchMeasured.measure_s), at the reference host speed",
    },
    {
        "name": "compile_fleet",
        "why": ("MobileNet-v1 (19 tasks) compiled by arm bted, 128 trials "
                "per task, on the mixed gtx1080ti,titanv fleet with 20 ms "
                "emulated latency per config."),
        "exercises": ["core.tuner", "core.bted", "learning.sa",
                      "learning.gbt", "learning.tree", "hardware", "fleet",
                      "core.checkpoint", "tlog (append only)",
                      "pipeline.compiler"],
        "bypasses": ["core.bootstrap", "space.neighborhood", "service.*",
                     "obs"],
        "latency": "one tuning step of one task (proposal plus emulated "
                   "measurement), between the executor's batch returns",
    },
    {
        "name": "service_mix",
        "why": ("TuningService child, two closed-loop clients: 4 cold "
                "bted+bao jobs on distinct (model, device) pairs and 24 "
                "exact repeats served from the tuning log."),
        "exercises": ["service.api", "service.store", "service.runner",
                      "obs", "tlog", "core.checkpoint", "pipeline.compiler",
                      "core.tuner", "core.bted", "core.bootstrap",
                      "learning.tree", "space.neighborhood", "hardware"],
        "bypasses": ["learning.sa", "compile-time invalid-kernel check"],
        "latency": "one job, submit to terminal state, from the job "
                   "row (finished_s - created_s)",
    },
]

#: bounds are the largest allowed; over three sets of ten seeds on a
#: shared 2-vCPU host every quartile spread here stayed at or below
#: 0.073 in two sets and 0.13 in the third (set-up aside; README.md)
END_TO_END: List[Dict] = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "trials_per_s", "unit": "measurements/s", "better": "higher",
     "bound": 0.25},
    {"name": "best_gflops", "unit": "GFLOPS", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_ALL = "all workloads"


def _m(name: str, unit: str, layer: str, moves: str,
       better: str = "lower") -> Dict:
    return {"name": name, "unit": unit, "better": better, "layer": layer,
            "moves": moves}


_STEP = "latency_p50_ms and latency_tail_ms (step), " + _ALL
_REFIT = ("trials_per_s, latency_tail_ms on tune_bao; latency_tail_ms on "
          "service_mix")
_CKPT = "latency_tail_ms on service_mix; small on compile_fleet"

#: per-layer metrics, each with its layer and what it should move
PER_LAYER: List[Dict] = [
    _m("tuner.steps", "count", "core.tuner", _STEP),
    _m("tuner.propose_s", "s", "core.tuner", _STEP),
    _m("tuner.measure_s", "s", "core.tuner", _STEP),
    _m("bted.calls", "count", "core.bted",
       "wall_s on compile_fleet and tune_bao"),
    _m("bted.busy_s", "s", "core.bted",
       "wall_s on compile_fleet and tune_bao"),
    _m("ensemble.fit_calls", "count", "core.bootstrap", _REFIT),
    _m("ensemble.fit_busy_s", "s", "core.bootstrap", _REFIT),
    _m("ensemble.fit_rows_mean", "rows", "core.bootstrap", _REFIT),
    _m("ensemble.predict_busy_s", "s", "core.bootstrap", _REFIT),
    _m("bin.busy_s", "s", "learning.tree", "trials_per_s on tune_bao"),
    _m("tree.fit_calls", "count", "learning.tree",
       "trials_per_s on tune_bao"),
    _m("scope.calls", "count", "space.neighborhood",
       "latency_p50_ms on tune_bao"),
    _m("scope.busy_s", "s", "space.neighborhood",
       "latency_p50_ms on tune_bao"),
    _m("sa.busy_s", "s", "learning.sa", "wall_s on compile_fleet"),
    _m("gbt.fit_busy_s", "s", "learning.gbt", "wall_s on compile_fleet"),
    _m("gbt.predict_busy_s", "s", "learning.gbt", "wall_s on compile_fleet"),
    _m("measure.configs", "count", "hardware",
       "trials_per_s on compile_fleet"),
    _m("measure.busy_s", "s", "hardware", "trials_per_s on compile_fleet"),
    _m("measure.valid_frac", "valid/measured", "hardware",
       "trials_per_s on compile_fleet", "higher"),
    _m("fleet.steals", "count", "fleet", "wall_s on compile_fleet"),
    _m("fleet.device_busy_frac", "busy/capacity", "fleet",
       "wall_s on compile_fleet", "higher"),
    _m("ckpt.writes", "count", "core.checkpoint", _CKPT),
    _m("ckpt.busy_s", "s", "core.checkpoint", _CKPT),
    _m("ckpt.bytes", "bytes", "core.checkpoint", _CKPT),
    _m("tlog.lookups", "count", "tlog",
       "latency_p50_ms on service_mix; wall_s on compile_fleet"),
    _m("tlog.hit_frac", "hits/lookups", "tlog",
       "latency_p50_ms on service_mix", "higher"),
    _m("tlog.lookup_busy_s", "s", "tlog", "latency_p50_ms on service_mix"),
    _m("tlog.append_busy_s", "s", "tlog",
       "latency_p50_ms on service_mix; wall_s on compile_fleet"),
    _m("compiler.self_s", "s", "pipeline.compiler",
       "setup_s, wall_s, fail_frac on compile_fleet"),
    _m("compiler.task_build_s", "s", "pipeline.compiler",
       "setup_s, wall_s on compile_fleet"),
    _m("deploy.invalid_kernels", "count", "pipeline.compiler",
       "fail_frac on compile_fleet"),
    _m("api.requests", "count", "service.api", "api.p50_ms on service_mix"),
    _m("api.p50_ms", "ms", "service.api",
       "latency_p50_ms on service_mix"),
    _m("api.tail_ms", "ms", "service.api", "api.p50_ms on service_mix"),
]
for _route in ("submit", "progress", "job", "records", "curve"):
    PER_LAYER += [
        _m(f"api.{_route}.p50_ms", "ms", "service.api",
           "api.p50_ms on service_mix"),
        _m(f"api.{_route}.tail_ms", "ms", "service.api",
           "api.p50_ms on service_mix"),
    ]
PER_LAYER += [
    _m("store.txns", "count", "service.store",
       "latency_p50_ms on service_mix"),
    _m("store.busy_s", "s", "service.store",
       "latency_p50_ms on service_mix"),
    _m("runner.queue_wait_s", "s", "service.runner",
       "jobs_per_s, latency_p50_ms, latency_tail_ms on service_mix"),
    _m("runner.exec_hit_s", "s", "service.runner",
       "jobs_per_s, latency_p50_ms on service_mix"),
    _m("runner.exec_cold_s", "s", "service.runner",
       "jobs_per_s, latency_tail_ms on service_mix"),
    _m("runner.busy_frac", "busy/wall", "service.runner",
       "jobs_per_s, latency_p50_ms, latency_tail_ms on service_mix"),
    _m("observer.busy_s", "s", "obs", "latency_tail_ms on service_mix"),
    _m("latency_p50_ms", "ms", "end to end, not steady",
       "is itself end to end: the median of the workload's latency "
       "samples, unbounded (spread over ten seeds up to 0.25 on "
       "service_mix)"),
    _m("latency_tail_ms", "ms", "end to end, not steady",
       "is itself end to end: the tail of latency_p50_ms's samples, "
       "unbounded (spread over ten seeds up to 0.23 on tune_bao)"),
    _m("jobs_per_s", "jobs/s", "service (end to end)",
       "is itself end to end; service_mix only, 0 elsewhere", "higher"),
    _m("fail_frac", "failed/attempted", "checks (end to end)",
       "is itself end to end; above 0 on compile_fleet (known defect, "
       "README.md)"),
    _m("trace.overhead_frac", "ratio", "benchmark",
       "nothing: the cost of the traced run's wrappers"),
]


def benchmark_json() -> Dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in PER_LAYER
        ],
    }


def write(root: Path) -> Path:
    """Write ``BENCHMARK.json`` at the repository root."""
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
