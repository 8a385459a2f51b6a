"""dimeralg benchmark: one workload per process, verdict-level metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

The benchmark imports ``dimeralg`` from ``src/`` of the checkout it sits
in.  Set-up (import, inputs, contractions, rewrite systems, the seeded
job list) is timed from a fresh import.  The job list is run in a closed
loop, one job after the other, in passes until ``--seconds`` is spent (at
least one pass), with a further timed set-up between passes; medians are
reported, in nominal seconds corrected for the machine's speed of the
moment (see clock.py).  Every answer is compared with ``reference.json`` and every
certificate is replayed outside the timed region.  With ``--trace 1`` one
untraced and one traced pass are run instead and the per-layer metrics of
the traced one are reported.  The last line of stdout is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from clock import Timeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"

TAIL_BEYOND = 10  # job_tail_ms: highest percentile with this many jobs beyond it
LAYERS = ("quiver", "matchings", "rewriting", "contraction", "monomial_algebra", "center",
          "normality", "acceptance", "cli", "fixtures")


def library_modules():
    return {n: m for n, m in sys.modules.items() if n == "dimeralg" or n.startswith("dimeralg.")}


def fresh_import():
    """Import dimeralg from scratch and return its modules by layer name."""
    for name in library_modules():
        del sys.modules[name]
    pkg = importlib.import_module("dimeralg")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dimeralg imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dimeralg.{m}") for m in LAYERS})


def timed_setup(build, seed, reference):
    """One set-up from a fresh import; returns (lib, jobs, nominal s, raw s)."""
    timeline = Timeline()
    start = timeline.start()
    lib = fresh_import()
    jobs = build(lib, seed, reference)
    timeline.stop(start)
    timeline.calibrate(force=True)
    return lib, jobs, timeline.nominal()[0], timeline.raw()[0]


def run_pass(jobs, tracer=None):
    """Run every job once; returns (nominal latencies, raw latencies,
    results).  A job that raises yields its exception as the result."""
    gc.collect()
    timeline = Timeline()
    results = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        start = timeline.start()
        try:
            result = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        timeline.stop(start)
        results.append(result)
    timeline.calibrate(force=True)
    return timeline.nominal(), timeline.raw(), results


def judge(jobs, results, answers, certify) -> list[str]:
    """Per job: "ok", "undecided" or an error message.  Decided answers
    must match the reference; certificates are replayed when asked."""
    out = []
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            out.append(f"{job.key}: raised {result!r}")
            continue
        try:
            decided, answer = job.answer(result)
            problem = job.certify(result) if certify and job.certify else None
        except Exception as exc:  # a check that cannot read the result is an error
            out.append(f"{job.key}: unreadable result {exc!r}")
            continue
        if problem:
            out.append(f"{job.key}: {problem}")
        elif job.key not in answers:
            out.append(f"{job.key}: no reference answer")
        elif not decided:
            out.append("undecided")
        elif answers[job.key] is not None and answers[job.key] != answer:
            out.append(f"{job.key}: answer {answer!r} differs from reference {answers[job.key]!r}")
        else:
            out.append("ok")
    return out


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND jobs
    beyond it; the maximum when there are too few jobs for that."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


def run_workload(name, seed, seconds, trace):
    import workloads

    if not REFERENCE.is_file():
        raise FileNotFoundError(f"missing {REFERENCE}")
    reference = json.loads(REFERENCE.read_text())
    answers = reference["answers"]
    build = workloads.WORKLOADS[name]

    # The first set-up builds the jobs that are run.  Later set-ups are
    # interleaved with the passes, so that a slow spell of the machine
    # does not land on all of them, and are discarded afterwards.
    lib, jobs, first, first_raw = timed_setup(build, seed, reference)
    keys = [j.key for j in jobs]
    modules = library_modules()
    setup_times, setup_raw, passes, raw_passes, verdicts = [first], [first_raw], [], [], []
    mismatches: list[str] = []
    run_start = perf_counter()
    while True:
        latencies, raw, results = run_pass(jobs)
        passes.append(latencies)
        raw_passes.append(raw)
        verdicts.append(judge(jobs, results, answers, certify=len(passes) == 1))
        if len(passes) == 1:
            for job, result in zip(jobs, results):
                mismatches += workloads.claim_mismatches(job, result)
        del results
        cycle_s = statistics.median(sum(p) for p in raw_passes) + statistics.median(setup_raw)
        if trace or perf_counter() - run_start + cycle_s > seconds:
            break
        _, again, elapsed, elapsed_raw = timed_setup(build, seed, reference)
        sys.modules.update(modules)  # runtime imports inside the library resolve as before
        if [j.key for j in again] != keys:
            raise RuntimeError("the same seed built another job list")
        setup_times.append(elapsed)
        setup_raw.append(elapsed_raw)
        del again

    metrics, detail = {}, {}
    if trace:
        from tracing import Tracer

        lib = fresh_import()
        tracer = Tracer()
        tracer.install(lib, library_modules().values())
        try:
            traced_jobs = build(lib, seed, reference)
            traced_latencies, _, traced_results = run_pass(traced_jobs, tracer)
        finally:
            tracer.uninstall()
        verdicts.append(judge(traced_jobs, traced_results, answers, certify=False))
        for metric, (value, unit) in tracer.metrics().items():
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": sum(traced_latencies) / sum(passes[0]), "unit": "1"}
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{name}-{seed}.tsv"
        tracer.write_spans(spans)
        detail["spans"] = str(spans.relative_to(ROOT))
        detail["span_count"] = len(tracer.span_start)
        detail["job_calls"] = tracer.job_calls()

    flat = [v for pass_verdicts in verdicts for v in pass_verdicts]
    attempted = len(flat)
    errors = [v for v in flat if v not in ("ok", "undecided")]
    undecided = flat.count("undecided")

    if not trace:
        # every time is in nominal seconds (see clock.py); a job's latency
        # is its median over the passes
        per_job = [statistics.median(p[k] for p in passes) for k in range(len(jobs))]
        tail_s, tail_pct = tail(per_job)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": sum(per_job), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(per_job), "unit": "ms"},
            "job_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "decided_ratio": {"value": 1 - undecided / attempted, "unit": "1"},
            "ok_ratio": {"value": 1 - len(errors) / attempted, "unit": "1"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        raw_per_job = [statistics.median(p[k] for p in raw_passes) for k in range(len(jobs))]
        detail.update(job_tail_percentile=tail_pct, jobs_per_pass=len(jobs),
                      raw_run_s=sum(raw_per_job), raw_setup_s=statistics.median(setup_raw))

    detail.update(
        workload=name, seed=seed, inputs=workloads.digest(keys), passes=len(passes), attempted=attempted,
        undecided_ratio=undecided / attempted, error_ratio=len(errors) / attempted,
        errors=sorted(set(errors))[:20], fixture_claim_mismatches=mismatches,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table."""
    import workloads

    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric:58s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="classify | pairs | monomial | fixture_check | all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dimeralg" / "__init__.py").is_file():
        print(f"perfbench: no dimeralg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
