"""One benchmark worker: set up a workload, run its jobs, print the figures.

Started by run.py as its own process.  Once set-up (importing tpcalc,
``default_db()``, generating the inputs) is done it prints ``READY <s>``,
the set-up time, and, unless ``--setup-only``, a JSON line with the run's
figures.

One closed-loop caller runs the job set in rounds, each round in a new
seeded order.  Each job's call is timed; its check runs after the clock
stops.  An untraced run runs whole rounds for about ``--seconds``.  A
traced run ignores ``--seconds``: it runs a fixed number of rounds
untraced, then the same rounds traced, so its counts repeat exactly for a
fixed seed.

Every timing is host-speed corrected (see hostspeed.py): between
consecutive calls the worker times the reference, and each call's latency
is scaled by the mean of the reference times just before and just after it.
The worker pins itself, and so its children, to one CPU, so the reference
runs where the jobs run.  Uncorrected figures are printed on the ``#``
summary line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

from hostspeed import factor as speed_factor, host_ref  # noqa: E402

REF_AT_START = host_ref()  # set-up is bracketed by reference timings like a job
SETUP_START = time.perf_counter()

import workloads  # noqa: E402


def run_rounds(wl, rounds, deadline=None, rec=None, on_job=None):
    """Run whole rounds of job indices; stop at the round boundary nearest
    the deadline, judged by the last round's length.

    Returns (corrected latencies in s per job index, uncorrected ones,
    attempted, failed); a job that raises is failed and has no latency.
    ``on_job(job, out, corrected_seconds, factor)`` sees every call that
    returned."""
    latencies = {i: [] for i in range(len(wl.jobs))}
    raw = {i: [] for i in range(len(wl.jobs))}
    attempted = failed = 0
    ref_before = host_ref()
    for order in rounds:
        round_start = time.perf_counter()
        for i in order:
            job = wl.jobs[i]
            attempted += 1
            if rec is not None:
                rec.job = attempted - 1  # spans of one call share this id
                rec.active = True
            start = time.perf_counter()
            try:
                out = wl.execute(job)
            except Exception as exc:  # a raising job is a failed job
                print(f"# job {job.kind} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            finally:
                elapsed = time.perf_counter() - start
                if rec is not None:
                    rec.active = False
                ref_after = host_ref()
                factor = speed_factor(ref_before, ref_after)
                ref_before = ref_after
                if rec is not None:
                    rec.end_job(factor)
            latencies[i].append(elapsed * factor)
            raw[i].append(elapsed)
            if on_job is not None:
                on_job(job, out, elapsed * factor, factor)
            try:
                ok = wl.check(job, out)
            except Exception as exc:
                print(f"# check of {job.kind} raised {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"# job {job.kind} failed its check: {job.params}", file=sys.stderr)
                failed += 1
        now = time.perf_counter()
        if deadline is not None and now + (now - round_start) / 2 >= deadline:
            break
    return latencies, raw, attempted, failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seconds):
    start = time.perf_counter()
    lat, raw, attempted, failed = run_rounds(wl, wl.rounds(), deadline=start + seconds)
    every = sorted(x for v in lat.values() for x in v)
    every_raw = [x for v in raw.values() for x in v]
    rank = max(1, math.ceil(wl.tail_pct / 100.0 * len(every)))
    print(f"# {wl.name} seed={wl.seed}: {len(wl.jobs)} jobs x {attempted // len(wl.jobs)} "
          f"rounds, {attempted} attempted, {failed} failed, wall "
          f"{time.perf_counter() - start:.1f} s; job_tail_ms is p{wl.tail_pct} of "
          f"{len(every)} latencies ({len(every) - rank} beyond it); uncorrected "
          f"{len(every_raw) / sum(every_raw):.4g} jobs/s, p50 "
          f"{statistics.median(every_raw) * 1000:.4g} ms")
    return attempted, failed, {
        "jobs_per_s": (attempted - failed) / sum(every),
        "job_p50_ms": statistics.median(every) * 1000.0,
        "job_tail_ms": every[rank - 1] * 1000.0,
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
    }


def traced_run(wl, spans_path):
    import tracer

    rounds = list(itertools.islice(wl.rounds(), wl.trace_rounds))
    cli_times = []

    def note_cli(job, out, seconds, factor):
        code, stdout = out
        if code == 0:
            ms = json.loads(stdout)["elapsed_ms"] * factor
            cli_times.append((seconds * 1000.0 - ms, ms))

    lat0, _, attempted0, failed0 = run_rounds(
        wl, rounds, on_job=note_cli if wl.name == "cli" else None)

    rec = tracer.Recorder()
    agg, child_spans = {}, []
    if wl.name == "cli":
        # children install their own recorder and report through a file
        child = os.path.join(workloads.HERE, "cli_child.py")
        out = os.path.join(workloads.WORK, f"child-{os.getpid()}.json")

        def traced_argv(argv):
            return [sys.executable, child, out] + argv

        def collect(job, result, seconds, factor):
            if not os.path.exists(out):  # the child died before reporting
                return
            with open(out, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(out)
            jid, base = collect.jobs, len(child_spans)
            collect.jobs += 1
            for _, name, parent, start, end in part.pop("spans"):
                child_spans.append((jid, name, parent + base if parent >= 0 else -1,
                                    start, end))
            part["self_s"] = {k: v * factor for k, v in part["self_s"].items()}
            tracer.merge(agg, part)

        collect.jobs = 0
        wl.traced = traced_argv
        lat1, _, attempted1, failed1 = run_rounds(wl, rounds, on_job=collect)
        wl.traced = None
    else:
        rec.install()
        try:
            lat1, _, attempted1, failed1 = run_rounds(wl, rounds, rec=rec)
        finally:
            rec.uninstall()
        tracer.merge(agg, rec.summary())
    rec.write_spans(spans_path, child_spans)

    metrics = tracer.layer_metrics(agg)
    metrics["cli.startup_ms"] = (statistics.median(t[0] for t in cli_times)
                                 if cli_times else 0.0)
    metrics["cli.command_ms"] = (statistics.median(t[1] for t in cli_times)
                                 if cli_times else 0.0)
    untraced = sum(map(sum, lat0.values()))
    traced = sum(map(sum, lat1.values()))
    metrics["trace.overhead_frac"] = 1.0 - untraced / traced  # 1 - traced/untraced jobs_per_s
    print(f"# {wl.name} seed={wl.seed} traced: {attempted1} jobs per pass, "
          f"{failed0 + failed1} failed, spans in {os.path.relpath(spans_path, workloads.ROOT)}")
    return attempted0 + attempted1, failed0 + failed1, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, args.seed)
    setup = time.perf_counter() - SETUP_START
    print(f"READY {setup * speed_factor(REF_AT_START, host_ref())!r}", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    try:
        if args.trace:
            os.makedirs(workloads.WORK, exist_ok=True)
            spans = os.path.join(workloads.WORK, f"spans-{wl.name}-{wl.seed}.jsonl")
            attempted, failed, metrics = traced_run(wl, spans)
        else:
            attempted, failed, metrics = timed_run(wl, args.seconds)
    finally:
        wl.close()
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
