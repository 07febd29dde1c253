"""The service workload: a ``TuningService`` child and a two-client load.

Run as a script, this file is the service child: it starts
``TuningService`` on an ephemeral port with its default uniform
two-device fleet, prints ``PORT <n>``, serves until its standard input
closes, then stops the service, writes its spans (traced mode) and
prints ``RSS <kB>`` with its peak resident memory.

Imported, it is the load side: :func:`run_round` spawns the child,
times spawn to the first 200 from ``/api/health`` (the round's set-up
time), and drives the seeded job list with two closed-loop client
threads, each acting like a ``repro submit --wait`` caller: submit,
poll at ``ServiceClient.wait``'s default interval, fetch records and
curve, then submit the next job.  A job's turnaround comes from its
row, ``finished_s - created_s``, so the poll interval does not round it.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent

ENV_SEED = 2021

#: cold jobs: distinct (model, device class) pairs, one task each, so no
#: cold job can be served from another's tuning-log records
COLD_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("mobilenet-v1", "gtx1080ti,gtx1080ti"),
    ("mobilenet-v1", "titanv,titanv"),
    ("resnet-18", "gtx1080ti,gtx1080ti"),
    ("resnet-18", "titanv,titanv"),
)
#: exact repeats of each cold job, served from the tuning log
REPEATS_PER_PAIR = 6
COLD_TRIALS = 80
COLD_TRIALS_TINY = 66
CLIENTS = 2
#: the service child must answer /api/health within this many seconds
HEALTH_DEADLINE_S = 60.0
ROUTES = ("submit", "progress", "job", "records", "curve")


def job_list(seed: int, tiny: bool) -> List[Dict]:
    """The seeded job list: every pair once plus its repeats, shuffled.

    Arm, budget, ``trial_seed`` and ``env_seed`` are the same for every
    job, so the first occurrence of a pair is its cold job and every
    later one is an exact repeat, a legitimate tuning-log hit.
    """
    pairs = COLD_PAIRS[:2] if tiny else COLD_PAIRS
    repeats = 1 if tiny else REPEATS_PER_PAIR
    labels = [p for p in pairs for _ in range(1 + repeats)]
    random.Random(seed).shuffle(labels)
    seen = set()
    jobs = []
    for model, devices in labels:
        jobs.append({
            "spec": {
                "model": model, "arm": "bted+bao",
                "n_trial": COLD_TRIALS_TINY if tiny else COLD_TRIALS,
                "trial_seed": seed, "env_seed": ENV_SEED,
                "devices": devices, "max_tasks": 1,
            },
            "cold": (model, devices) not in seen,
        })
        seen.add((model, devices))
    return jobs


# ----------------------------------------------------------------------
# load side


def _timed_client(base_url: str, log: List[Tuple[str, float, bool]]):
    """A ``ServiceClient`` that logs (route, seconds, ok) per request."""
    from repro.service import ServiceClient, ServiceClientError

    class TimedClient(ServiceClient):
        def _timed(self, route: str, call, *args, **kwargs):
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            except ServiceClientError:
                log.append((route, time.perf_counter() - start, False))
                raise
            log.append((route, time.perf_counter() - start, True))
            return result

        def submit(self, **spec):
            return self._timed("submit", super().submit, **spec)

        def progress(self, job_id, since=0):
            return self._timed("progress", super().progress, job_id, since)

        def job(self, job_id):
            return self._timed("job", super().job, job_id)

        def records(self, job_id):
            return self._timed("records", super().records, job_id)

        def curve(self, job_id):
            return self._timed("curve", super().curve, job_id)

    return TimedClient(base_url)


def _drive(base_url: str, jobs: List[Dict], log: list) -> List[Dict]:
    """Run the job list with two closed-loop clients; one row per job."""
    from repro.service import ServiceClientError

    lock = threading.Lock()
    cursor = [0]
    rows: List[Dict] = []

    def client() -> None:
        api = _timed_client(base_url, log)
        while True:
            # take and submit under one lock, so submissions (and hence
            # the service's FIFO queue) follow the list order exactly
            with lock:
                if cursor[0] >= len(jobs):
                    return
                job = jobs[cursor[0]]
                cursor[0] += 1
                try:
                    job_id = api.submit(**job["spec"])["job_id"]
                except (ServiceClientError, OSError) as exc:
                    rows.append({"cold": job["cold"], "state": "",
                                 "error": str(exc)})
                    continue
            try:
                final = api.wait(job_id)
                api.records(job_id)
                api.curve(job_id)
            except (ServiceClientError, OSError) as exc:
                rows.append({"cold": job["cold"], "state": "",
                             "error": str(exc)})
                continue
            rows.append({
                "cold": job["cold"], "error": "",
                # from the job row, so wait()'s poll interval does not
                # round it up: still submit to terminal state
                "turnaround_s": final["finished_s"] - final["created_s"],
                "state": final["state"],
                "created_s": final["created_s"],
                "started_s": final["started_s"],
                "finished_s": final["finished_s"],
                "best_gflops": final["best_gflops"],
                "measurements": sum(
                    t["num_measurements"] for t in final["tasks"]
                ),
            })

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows


def _wait_healthy(base_url: str) -> None:
    from repro.service import ServiceClient, ServiceClientError

    api = ServiceClient(base_url, timeout_s=5.0)
    deadline = time.monotonic() + HEALTH_DEADLINE_S
    while True:
        try:
            api.health()
            return
        except (ServiceClientError, OSError):  # not listening yet
            if time.monotonic() > deadline:
                raise
            time.sleep(0.002)


def run_round(root: Path, workdir: Path, seed: int, tiny: bool,
              trace: bool, env: Dict[str, str], setup_only: bool) -> Dict:
    """Spawn one service child, optionally drive the job list, stop it."""
    spans_path = workdir / "spans.jsonl"
    cmd = [sys.executable, str(HERE / "service.py"), str(workdir / "data"),
           str(int(trace)), str(spans_path)]
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=str(root), env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    try:
        line = child.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"service child did not start: {line!r}")
        base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        _wait_healthy(base_url)
        setup_s = time.perf_counter() - start
        result: Dict = {"setup_s": setup_s}
        if not setup_only:
            jobs = job_list(seed, tiny)
            log: List[Tuple[str, float, bool]] = []
            begin = time.perf_counter()
            rows = _drive(base_url, jobs, log)
            result.update(wall_s=time.perf_counter() - begin, rows=rows,
                          requests=log, jobs=len(jobs))
        child.stdin.close()
        out = child.stdout.read()
        if child.wait(timeout=60) != 0:
            raise RuntimeError(f"service child exited {child.returncode}")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    rss = [ln for ln in out.splitlines() if ln.startswith("RSS ")]
    result["rss_kb"] = int(rss[-1].split()[1]) if rss else 0
    if trace and not setup_only:
        result["spans_path"] = str(spans_path)
    return result


# ----------------------------------------------------------------------
# service child


def _serve(data_dir: str, trace: bool, spans_path: str) -> None:
    import resource

    from repro.service import TuningService

    service = TuningService(data_dir, port=0)
    restore = None
    if trace:
        from layers import service_patches
        from spans import Tracer, install

        tracer = Tracer(context=lambda: service.runner.current_job)
        restore = install(tracer, service_patches(tracer))
    service.start()
    print(f"PORT {service.port}", flush=True)
    sys.stdin.read()  # serve until the load side closes our stdin
    service.stop()
    if restore is not None:
        restore()
        tracer.write_jsonl(spans_path)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"RSS {peak}", flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1], sys.argv[2] == "1", sys.argv[3])
