"""Closed-loop benchmark of shadowspec, one workload per run.

    python3 shadowbench/run.py --workload dense-shadow --seed 1 --seconds 30 --trace 0

One client in one process: each job starts when the previous one ends.  The
run sets up a few times (import shadowspec afresh, make the inputs), does a
warm-up job and a gc.collect(), then runs whole rounds of jobs until
--seconds have passed and the workload's minimum job count is reached, with
one more timed set-up after each round.  Each job is timed from outside and
then checked, untimed and untraced.  A job that raises or fails a check
counts as failed and makes the run incorrect.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
"""

import os

# One BLAS thread, set before numpy is first imported: on a small shared
# machine a threaded BLAS makes job times depend on what else runs, and a
# single client has nothing to overlap anyway.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# (metric, unit); BENCHMARK.json lists the same names
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "shadowspec" or n.startswith("shadowspec.")}


def _fresh_import():
    """Import shadowspec and its CLI as if for the first time in the process."""
    for name in _package_modules():
        del sys.modules[name]
    sp = importlib.import_module("shadowspec")
    importlib.import_module("shadowspec.cli")
    return sp


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _timed_setup(wl, seed: int, workdir: Path) -> float:
    gc.collect()  # garbage of an earlier set-up is not this one's cost
    t0 = time.perf_counter()
    wl.setup(_fresh_import(), seed, workdir)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    wl = workloads.WORKLOADS[workload](tiny=tiny)
    spare = workloads.WORKLOADS[workload](tiny=tiny)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work, spare_work = Path(tmp) / "jobs", Path(tmp) / "spare"
        work.mkdir()
        spare_work.mkdir()
        setup_times = [_timed_setup(wl, seed, work) for _ in range(SETUP_REPEATS)]

        tracer = spans.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            try:
                wl.job(0)  # warm-up, unchecked
            except Exception:  # noqa: BLE001 - the timed jobs count it as failed
                pass
            if tracer:
                tracer.reset()
            gc.collect()

            # latencies of the jobs that returned; attempts times every job
            latencies, attempts, check_counts = [], [], Counter()
            failed = 0
            correct = True
            start = time.perf_counter()
            i = 0
            while i < wl.min_jobs or time.perf_counter() - start < seconds:
                for _ in range(wl.round_size):
                    t0 = time.perf_counter()
                    try:
                        out = wl.job(i)
                    except Exception as exc:  # a job that raises fails, and so does the run
                        attempts.append(time.perf_counter() - t0)
                        print(f"job {i} raised {type(exc).__name__}: {exc}")
                        failed += 1
                        correct = False
                        i += 1
                        continue
                    attempts.append(time.perf_counter() - t0)
                    latencies.append(attempts[-1])
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        results = wl.check(i, out)
                    bad = [c for c in results if not c.ok]
                    for c in results:
                        check_counts[(c.name, c.ok)] += 1
                    for c in bad:
                        print(f"job {i} check {c.name} failed: {c.detail}")
                    if bad:
                        failed += 1
                        correct = False
                    i += 1
                # One more set-up after every round, on a spare instance the
                # jobs never use: this machine's speed drifts over seconds, and
                # set-ups spread over the run sample all of it.  The jobs'
                # modules (wrapped, in a traced run) then go back in place.
                live = _package_modules()
                setup_times.append(_timed_setup(spare, seed, spare_work))
                sys.modules.update(live)
                gc.collect()
        finally:
            if tracer:
                tracer.restore()

    jobs = len(attempts)
    # a run in which no job returned is incorrect; its timings are the attempts'
    timed = latencies or attempts
    result = {
        "correct": correct,
        "attempted": jobs,
        "failed": failed,
        "checks": {
            name: {"passed": check_counts[(name, True)], "failed": check_counts[(name, False)]}
            for name in sorted({name for name, _ in check_counts})
        },
        "tail_pct": wl.tail_pct,
    }
    if tracer:
        result["layers"] = tracer.metrics(jobs)
        result["functions"] = tracer.summary(jobs)
        result["traced_jobs_per_s"] = len(latencies) / sum(attempts)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(latencies) / sum(attempts),
            "job_p50_ms": 1000.0 * statistics.median(timed),
            "job_tail_ms": 1000.0 * percentile(timed, wl.tail_pct),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["end_to_end"] = {name: (values[name], unit) for name, unit in END_TO_END}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shadowspec" / "__init__.py").is_file():
        print(f"shadowspec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{res['attempted']} jobs attempted, {res['failed']} failed")
    for name, counts in res["checks"].items():
        print(f"check {name}: {counts['passed']} passed, {counts['failed']} failed")
    metrics = res["layers"] if args.trace else res["end_to_end"]
    if args.trace:
        print(f"traced jobs_per_s {res['traced_jobs_per_s']:.6g} 1/s")
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(res["functions"], indent=1) + "\n", encoding="utf-8")
        print(f"per-function trace written to {trace_file.relative_to(ROOT)}")
    else:
        print(f"job_tail_ms is the p{res['tail_pct']} latency")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
