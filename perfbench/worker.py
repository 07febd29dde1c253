"""One round of a library workload in a fresh interpreter.

``python3 perfbench/worker.py WORKLOAD SEED MODE TRACE OUT TINY``

The worker builds the workload (its set-up), prints ``READY`` so the
parent can time interpreter start to first timed operation, and in
``run`` mode then runs the main phase and writes its numbers as JSON
to ``OUT``.  With ``TRACE`` = 1 the layer wrappers are installed
around the main phase only, and the per-layer metrics ride along.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import library

SETUPS = {
    "tune_bao": library.setup_tune_bao,
    "compile_fleet": library.setup_compile_fleet,
}
RUNS = {
    "tune_bao": library.run_tune_bao,
    "compile_fleet": library.run_compile_fleet,
}


def main(workload: str, seed: int, mode: str, trace: bool, out: Path,
         tiny: bool) -> None:
    subject = SETUPS[workload](seed, tiny)
    print("READY", flush=True)
    if mode == "setup":
        return
    workdir = out.parent / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        from layers import library_patches, round_layers
        from spans import Tracer, install

        tracer = Tracer()
        restore = install(tracer, library_patches(tracer, workload))
        try:
            result = RUNS[workload](subject, seed, tiny, workdir)
        finally:
            restore()
        layers = round_layers(tracer.spans, tracer.counts, tracer.totals,
                              result.get("fleet_devices", 0))
        layers["fleet.steals"] = float(result.get("fleet_steals", 0))
        layers["deploy.invalid_kernels"] = float(
            result.get("invalid_kernels", 0)
        )
        result["layers"] = layers
        tracer.write_jsonl(str(out.with_suffix(".spans.jsonl")))
    else:
        result = RUNS[workload](subject, seed, tiny, workdir)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1",
         Path(sys.argv[5]), sys.argv[6] == "1")
