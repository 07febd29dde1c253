"""The repository benchmark: three workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload tune_bao --seed 0 --seconds 40 --trace 0

``--workload`` is ``tune_bao``, ``compile_fleet`` or ``service_mix``
(see ``spec.py`` for why each exists).  Every round of a workload runs
in a fresh interpreter, so each round also times set-up.  A run makes
a fixed number of rounds (``spec.ROUNDS``), sized to measure about
``--seconds`` (40); it fails if they take four times that.  The seed
sets the tuner seeds (and the service job order); environments stay at
``env_seed=2021``.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each
round seed untraced, then traced, and prints every per-layer metric
plus the tracing overhead.  Each metric is printed on its own line with its unit
and sample count; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Other modes: ``--write-spec`` writes ``BENCHMARK.json`` from
``spec.py``; ``--record-digests 0-15`` records the reference record
digests each run checks against; ``--selfcheck`` shows the emulated
latency executor leaves records byte-identical; ``--smoke`` runs every
workload at a tiny size and checks every metric name is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: set-up is timed at least this many times per run (its median is
#: reported), adding set-up-only rounds where a run has fewer rounds
MIN_SETUPS = 6
#: a run fails when its rounds take longer than this many --seconds
LIMIT_FACTOR = 4
#: a worker round that takes longer than this is killed and fails the run
ROUND_TIMEOUT_S = 170.0
#: failures that are known program defects, counted but not "incorrect"
KNOWN_DEFECTS = ("invalid deployed kernel",)


def child_env() -> Dict[str, str]:
    """The environment every child runs in: this checkout's ``src`` first,
    one BLAS thread (two cores are shared by the workload's own threads)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def library_round(workload: str, seed: int, trace: bool, tiny: bool,
                  workdir: Path, setup_only: bool) -> Dict:
    """One worker process: time set-up, then collect its main phase."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "setup" if setup_only else "run", str(int(trace)), str(out),
           str(int(tiny))]
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                             stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"{workload} worker failed during set-up")
        child.stdout.read()
        if child.wait(timeout=ROUND_TIMEOUT_S) != 0:
            raise RuntimeError(f"{workload} worker exited {child.returncode}")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if setup_only:
        return {"setup_s": setup_s}
    result = json.loads(out.read_text())
    result["setup_s"] = setup_s
    return result


def service_round(seed: int, trace: bool, tiny: bool, workdir: Path,
                  setup_only: bool) -> Dict:
    """One service child under the two-client load."""
    import service
    from layers import api_layers, round_layers, runner_layers
    from spans import read_jsonl

    workdir.mkdir(parents=True, exist_ok=True)
    r = service.run_round(ROOT, workdir, seed, tiny, trace, child_env(),
                          setup_only)
    if setup_only:
        return r
    rows = r["rows"]
    done = [x for x in rows if x["state"] == "done"]
    r["measurements"] = sum(x["measurements"] for x in done)
    r["latency_s"] = [x["turnaround_s"] for x in done]
    r["best_gflops"] = [x["best_gflops"] for x in done if x["cold"]]
    repeats = [x for x in rows if not x["cold"]]
    failures = ["non-2xx response"] * sum(
        1 for _, _, ok in r["requests"] if not ok)
    failures += [f"job not done ({x['error'] or x['state']})" for x in rows
                 if x["state"] != "done"]
    failures += ["repeat job measured" for x in repeats
                 if x["state"] == "done" and x["measurements"] > 0]
    failures += ["job never finished its client loop"] * (
        r["jobs"] - len(rows))
    r["failures"] = failures
    r["attempted"] = len(r["requests"]) + r["jobs"] + len(repeats)
    r["digest"] = None
    if trace:
        spans, counts, totals = read_jsonl(r.pop("spans_path"))
        layers = round_layers(spans, counts, totals, devices=2)
        layers.update(api_layers(r["requests"], service.ROUTES))
        layers.update(runner_layers(rows, r["wall_s"]))
        layers["fleet.steals"] = 0.0
        layers["deploy.invalid_kernels"] = 0.0
        r["layers"] = layers
    return r


def one_round(workload: str, seed: int, trace: bool, tiny: bool,
              workdir: Path, setup_only: bool = False) -> Dict:
    """Run one round of ``workload`` and return its raw numbers.

    The host's reference kernel is timed just before and just after the
    round, while no child runs (see ``spec.REFERENCE_S``).
    """
    from library import reference_s

    before = reference_s()
    if workload == "service_mix":
        r = service_round(seed, trace, tiny, workdir, setup_only)
    else:
        r = library_round(workload, seed, trace, tiny, workdir, setup_only)
    r["reference_s"] = [before, *r.get("reference_s", ()), reference_s()]
    r["scale"] = spec.REFERENCE_S / statistics.mean(r["reference_s"])
    return r


# ----------------------------------------------------------------------


def round_seeds(seed: int, n: int) -> List[int]:
    """The tuner seeds of one run's rounds, disjoint across run seeds."""
    return [seed * 1000 + k for k in range(n)]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool, outdir: Path) -> Dict:
    """The workload's rounds, metrics and checks.

    A run always makes all ``spec.ROUNDS`` rounds, one per tuner seed,
    so seed-to-seed variation in the work averages out inside one run
    and every run covers the same seeds however fast the code is.  The
    traced run pairs an untraced and a traced round per seed.  A run
    that has not finished its rounds after ``LIMIT_FACTOR * seconds``
    fails instead of reporting fewer rounds.
    """
    from layers import percentile
    from library import geomean

    seeds = round_seeds(seed, 1 if tiny else spec.ROUNDS[workload])
    plan = [(s, traced) for s in seeds
            for traced in ((False, True) if trace else (False,))]
    limit = LIMIT_FACTOR * seconds
    rounds: List[Dict] = []
    begin = time.perf_counter()
    for index, (round_seed, traced) in enumerate(plan):
        if time.perf_counter() - begin > limit:
            raise RuntimeError(
                f"{workload}: only {index} of {len(plan)} rounds done "
                f"after {limit:.0f} s; not reporting a partial run")
        r = one_round(workload, round_seed, traced, tiny,
                      outdir / f"round-{index}")
        r.update(seed=round_seed, traced=traced)
        rounds.append(r)
    setups = list(rounds)
    while len(setups) < MIN_SETUPS:
        setups.append(one_round(workload, seed * 1000, False, tiny,
                                outdir / f"setup-{len(setups)}",
                                setup_only=True))

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]

    expected = (json.loads(EXPECTED.read_text()).get(workload, {})
                if EXPECTED.exists() and not tiny else {})
    failures: List[str] = []
    attempted = 0
    for r in rounds:
        failures += r["failures"]
        attempted += r["attempted"]
        if r["digest"] is None:
            continue
        attempted += 1
        reference = expected.get(str(r["seed"]))
        twin = [x["digest"] for x in rounds if x["seed"] == r["seed"]]
        if reference is not None and r["digest"] != reference:
            failures.append("record stream differs from the recorded "
                            f"digest (seed {r['seed']})")
        elif len(set(twin)) > 1:
            failures.append("traced and untraced records differ "
                            f"(seed {r['seed']})")

    # times at the reference host speed: set-up always, the main phase
    # on the workloads in spec.SCALED
    for r in rounds:
        r["main_scale"] = r["scale"] if workload in spec.SCALED else 1.0
    samples = [x * r["main_scale"] for r in plain for x in r["latency_s"]]
    m = {
        "wall_s": (statistics.median(r["wall_s"] * r["main_scale"]
                                     for r in plain), "s", len(plain)),
        "trials_per_s": (statistics.median(
            r["measurements"] / (r["wall_s"] * r["main_scale"])
            for r in plain), "measurements/s", len(plain)),
        "best_gflops": (geomean([g for r in plain for g in r["best_gflops"]]),
                        "GFLOPS", sum(len(r["best_gflops"]) for r in plain)),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in plain)
                        / 1024.0, "MB", len(plain)),
        "setup_s": (statistics.median(r["setup_s"] * r["scale"]
                                      for r in setups), "s", len(setups)),
    }
    fail_frac = len(failures) / attempted if attempted else 0.0
    jobs_per_s = (statistics.median(len(r["rows"]) / r["wall_s"]
                                    for r in plain)
                  if workload == "service_mix" else 0.0)
    # printed on every run; per-layer in BENCHMARK.json (see spec.py)
    extra = {
        "latency_p50_ms": (percentile(samples, 50) * 1e3, "ms",
                           len(samples)),
        "latency_tail_ms": (percentile(samples, spec.TAIL_PCT[workload])
                            * 1e3, "ms", len(samples)),
        "fail_frac": (fail_frac, "failed/attempted", attempted),
        "jobs_per_s": (jobs_per_s, "jobs/s", len(plain)),
    }
    layers: Dict[str, tuple] = {}
    if trace:
        for name in (p["name"] for p in spec.PER_LAYER):
            values = [r["layers"].get(name, 0.0) for r in traced_rounds]
            layers[name] = (statistics.mean(values), None, len(values))
        layers.update(extra)
        untraced = {r["seed"]: r["wall_s"] * r["main_scale"] for r in plain}
        ratios = [r["wall_s"] * r["main_scale"] / untraced[r["seed"]]
                  for r in traced_rounds]
        layers["trace.overhead_frac"] = (
            statistics.mean(ratios) - 1.0, None, len(ratios))
    incorrect = [f for f in failures if not f.startswith(KNOWN_DEFECTS)]
    return {"end_to_end": m, "extra": extra, "layers": layers,
            "rounds": rounds, "scaled": workload in spec.SCALED,
            "failures": failures, "correct": not incorrect,
            "attempted": max(1, attempted), "failed": len(failures)}


def report(workload: str, outcome: Dict, trace: bool) -> Dict:
    """Print one line per metric and return the final JSON object."""
    units = {p["name"]: p["unit"] for p in spec.PER_LAYER}
    moves = {p["name"]: p["moves"] for p in spec.PER_LAYER}
    wl = next(w for w in spec.WORKLOADS if w["name"] == workload)
    print(f"# {workload}: latency = {wl['latency']}")
    for r in outcome["rounds"]:
        print(f"# round seed={r['seed']} traced={int(r['traced'])} "
              f"setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
              f"scale={r['scale']:.4f}")
    print("# times above are as measured; below, set-up"
          + (" and main-phase times are" if outcome["scaled"] else " is")
          + " scaled to the reference host speed")
    for failure in sorted(set(outcome["failures"])):
        count = outcome["failures"].count(failure)
        known = " (known defect)" if failure.startswith(KNOWN_DEFECTS) else ""
        print(f"# failure x{count}: {failure}{known}")
    metrics = {}
    if not trace:
        for name, (value, unit, n) in outcome["end_to_end"].items():
            print(f"{workload} {name} = {value:.6g} {unit} (n={n})")
            metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit, n) in outcome["extra"].items():
            pct = (f", p{spec.TAIL_PCT[workload]:g}"
                   if name == "latency_tail_ms" else "")
            print(f"{workload} {name} = {value:.6g} {unit} (n={n}{pct})")
    else:
        for name, (value, _, n) in outcome["layers"].items():
            unit = units[name]
            print(f"{workload} {name} = {value:.6g} {unit} (n={n}) "
                  f"-> {moves[name]}")
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


# ----------------------------------------------------------------------
# auxiliary modes


def record_digests(workload: str, seeds: List[int], outdir: Path) -> None:
    """Record the reference digest of every round of runs at ``seeds``."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for seed in seeds:
        for round_seed in round_seeds(seed, spec.ROUNDS[workload]):
            r = one_round(workload, round_seed, False, False,
                          outdir / f"{workload}-{round_seed}")
            table.setdefault(workload, {})[str(round_seed)] = r["digest"]
            print(f"{workload} seed {round_seed}: {r['digest']}", flush=True)
            EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True)
                                + "\n")


def selfcheck(outdir: Path) -> bool:
    """A short compile gives byte-identical records with and without the
    emulated latency executor."""
    code = (
        "import sys; from pathlib import Path; sys.path.insert(0, {here!r})\n"
        "import library\n"
        "c = library.setup_compile_fleet(0, True)\n"
        "w = Path({out!r})\n"
        "a = c.tune('bted', n_trial=library.FLEET_TRIALS_TINY, "
        "early_stopping=None, fleet=library.FLEET_DEVICES, fleet_jobs=2, "
        "checkpoint_dir=w / 'a', tlog=w / 'ta')\n"
        "r = library.run_compile_fleet(c, 0, True, w / 'b')\n"
        "print(library.records_digest(library.compile_records(a)))\n"
        "print(r['digest'])\n"
    ).format(here=str(HERE), out=str(outdir))
    out = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                         env=child_env(), capture_output=True, text=True,
                         timeout=600, check=True).stdout.split()
    print(f"without latency executor: {out[0]}")
    print(f"with latency executor:    {out[1]}")
    return out[0] == out[1]


def smoke() -> bool:
    """Every workload at tiny size, both modes: every metric printed."""
    ok = True
    e2e = {m["name"] for m in spec.END_TO_END}
    per_layer = {m["name"] for m in spec.PER_LAYER}
    for w in spec.WORKLOADS:
        for trace, names in ((0, e2e), (1, per_layer)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "0", "--seconds", str(spec.RUN_SECONDS),
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines else {}
            printed = set(last.get("metrics", {}))
            missing = sorted(names - printed)
            good = proc.returncode == 0 and not missing and \
                printed == names
            ok = ok and good
            print(f"smoke {w['name']} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({len(printed)} metrics, missing {missing})", flush=True)
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for smoke checks only")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return 0 if smoke() else 1
    outdir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    try:
        if args.selfcheck:
            return 0 if selfcheck(outdir) else 1
        if args.record_digests:
            first, _, last = args.record_digests.partition("-")
            seeds = list(range(int(first), int(last or first) + 1))
            if args.workload not in ("tune_bao", "compile_fleet"):
                parser.error("--record-digests needs --workload tune_bao "
                             "or compile_fleet")
            record_digests(args.workload, seeds, outdir)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        outcome = run_benchmark(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.tiny, outdir)
        print(json.dumps(report(args.workload, outcome, bool(args.trace))))
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
