"""ringkit benchmark: seeded workloads, time to a checked answer.

    python3 perfbench/run.py --workload koszul --seed 1 --seconds 20 --trace 0

One process acts as one closed-loop client with no think time.  It
runs the seeded jobs one at a time, in order, and repeats that list
(a pass) until the jobs' wall times add up to --seconds; the first
pass is whole, a later untraced one may stop mid-list.  Then it runs
the workload's fixed anchor jobs once (all of them when traced, the
one the seed picks otherwise).  Job times are CPU seconds.  Every job
parses its ring afresh, so ringkit's per-ring caches start cold as
they do for a CLI user, and every output is checked (checks.py); a
wrong or failed job makes the run exit 1.

--trace 0 reports the end-to-end metrics of the seeded passes; the
anchor times go to the run record.  --trace 1 alternates untraced and
traced seeded passes and reports the per-layer metrics of the traced
ones (tracer.py).  The last line of standard output is one JSON
object; the lines before it print every metric with its unit, and a
record of the run (seed, job list, per-job times, Python version, CPU
count, git revision) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, SRC, load_ringkit, run_pass, validate  # noqa: E402
from jobs import WORKLOADS, job_list  # noqa: E402

SETUP_REPEATS = 11
OUT = Path(__file__).resolve().parent / "out"


def _setup(workload, seed):
    """Import ringkit and build the validated job list, several times.

    Returns (median CPU seconds, modules of the last import, job list).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = process_time()
        mods = load_ringkit()
        jobs = job_list(workload, seed)
        validate(mods, jobs)
        times.append(process_time() - start)
    return median(times), mods, jobs


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ringkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(jobs, passes, setup_s):
    """End-to-end metrics of the untraced seeded passes: {name: (value, unit)}.

    passes holds each pass's job CPU times; a pass cut when --seconds
    of job time were spent covers a prefix of the jobs.
    """
    n = len(jobs)
    per_job = [median(p[i] for p in passes if i < len(p)) for i in range(n)]
    ranked = sorted(per_job)
    beyond = 10
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(per_job), "1/s"),
        "job_p50_s": (median(per_job), "s"),
        "job_tail_s": (ranked[n - beyond - 1], "s"),
        "qq_work_s": (sum(t for t, j in zip(per_job, jobs) if j["field"] == "QQ"), "s"),
        "fp_work_s": (sum(t for t, j in zip(per_job, jobs) if j["field"] == "Fp"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run_start = perf_counter()

    try:
        setup_s, mods, jobs = _setup(args.workload, args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from selfcheck import selfcheck

    problems = selfcheck(mods)
    if problems:
        for line in problems:
            print(f"selfcheck: {line}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(mods)

    anchors = sorted((j for j in jobs if j["anchor"]), key=lambda j: j["id"])
    if tracer is None:
        # The anchors together take up to 25 s, more than the seeded jobs
        # get in a run, so an untraced run runs the one its seed picks and
        # consecutive seeds go through all of them.  A traced run runs all.
        anchors = [anchors[args.seed % len(anchors)]]
    seeded = [j for j in jobs if not j["anchor"]]

    untraced, untraced_cpu, traced, reference = [], [], [], None
    failures, attempted, spent = [], 0, 0.0
    while True:
        use_tracer = tracer is not None and len(untraced) > len(traced)
        if use_tracer:
            tracer.install()
        try:
            # --seconds counts job time only, not the untimed checks.
            # Untraced passes may stop mid-list when it is spent.  The first
            # pass is whole, so that every job is checked, and so are traced
            # passes, whose layer metrics are per pass.
            times, cpu, failed, outputs = run_pass(
                mods, seeded, tracer if use_tracer else None, reference,
                args.seconds - spent if reference is not None and tracer is None else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else untraced).append(times)
        if not use_tracer:
            untraced_cpu.append(cpu)
        failures.extend(failed)
        if reference is None and not failed:
            reference = outputs
        attempted += len(times)
        spent += sum(times)
        if spent >= args.seconds and (tracer is None or traced):
            break

    # The anchors run after the seeded passes, so that peak_rss_mb (read
    # here) covers the seeded jobs and not whichever anchor the seed picked.
    e2e = end_to_end(seeded, untraced_cpu, setup_s)
    anchor_times, _, anchor_failures, _ = run_pass(mods, anchors)
    failures = anchor_failures + failures
    attempted += len(anchors)
    n = len(seeded)
    anchor_s = {j["id"]: t for j, t in zip(anchors, anchor_times)}
    lines = [
        f"ringkit benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} seeded jobs={n} untraced passes={len(untraced)} "
        f"traced passes={len(traced)}; anchors={len(anchors)} run once, "
        f"{sum(anchor_times):.3f} s",
        "closed loop, 1 client, no think time; seeded job times are CPU seconds, "
        "the median of each job's runs",
    ]
    if tracer is None:
        metrics = e2e
        pct = 100.0 * (n - 10) / n
        notes = {"job_tail_s": f"p{pct:.1f} of {n} per-job medians, 10 beyond it"}
    else:
        from tracer import layer_metrics, layer_shares

        traced_wall = median(sum(p) for p in traced)
        untraced_wall = median(sum(p) for p in untraced)
        metrics = layer_metrics(tracer, len(traced), traced_wall, untraced_wall)
        notes = {}
        shares = layer_shares(tracer)
        lines.append("self-time share of traced job time, by layer:")
        for group, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {group:<22} {100 * share:6.2f} %")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<44} {value:>14.6g} {unit}{note}")
    lines.append(f"  {'fail_frac':<44} {len(failures) / attempted:>14.6g} ratio"
                 f"  ({len(failures)} of {attempted} attempted)")
    for job_id, reason in failures:
        lines.append(f"FAILED {job_id}: {reason}")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "run_wall_s": perf_counter() - run_start,
        "anchors": anchors,
        "seeded_jobs": seeded,
        "untraced_job_s": untraced,
        "untraced_job_cpu_s": untraced_cpu,
        "traced_job_s": traced,
        "anchor_s": anchor_s,
        "failures": failures,
        "metrics": reported,
    }
    if tracer is not None:
        record["counters"] = tracer.counters
        record["layer_self_s"] = {k: {"calls": c, "self_s": s}
                                  for k, (c, s) in tracer.stats.items()}
        record["spans_dropped"] = tracer.dropped_spans
        record["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    lines.append(f"record: {path.relative_to(ROOT)}")
    print("\n".join(lines))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
