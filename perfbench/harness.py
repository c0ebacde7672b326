"""Loading ringkit from the checkout and running jobs one at a time."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from checks import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("errors", "polycore", "linalg", "groebner", "homalg", "koszul",
           "simplicial", "ghost", "corpus", "cli")


class Ringkit(SimpleNamespace):
    """The ringkit modules of one import."""

    def all_modules(self):
        return [m for k, m in sys.modules.items()
                if k == "ringkit" or k.startswith("ringkit.")]


def load_ringkit():
    """Import ringkit from the checkout's src/, afresh.

    Modules left from an earlier import are dropped first, so each call
    pays the import as a CLI user does.
    """
    if not (SRC / "ringkit" / "__init__.py").is_file():
        raise RuntimeError(f"no ringkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "ringkit" or k.startswith("ringkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ringkit")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ringkit from {pkg.__file__}, not from {SRC}")
    return Ringkit(**{n: importlib.import_module(f"ringkit.{n}") for n in MODULES})


def job_ring(job):
    return job["argv"][1] if job["kind"] == "cli" else job["ring"]


def validate(mods, jobs):
    """Parse every ring and sequence the job list names."""
    for job in jobs:
        R = mods.polycore.parse_ring(job_ring(job))
        for key in ("seq_a", "seq_b"):
            for text in job.get(key, ()):
                mods.polycore.parse_poly(text, R.ambient)


def run_job(mods, job):
    """Run one job through ringkit's public entry points; returns its output."""
    if job["kind"] == "cli":
        ghost, rings = mods.ghost, []
        classify = ghost.classify
        if job["check"] == "classify":
            # Keep the ring the job parsed, so that its check tests the
            # Groebner basis this job computed rather than computing it again.
            def recording(R):
                rings.append(R)
                return classify(R)

            ghost.classify = recording
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code, report = mods.cli.run(job["argv"] + ["--json"])
        finally:
            ghost.classify = classify
        return {"code": code, "report": report, "rings": rings}
    pc, simplicial = mods.polycore, mods.simplicial
    R = pc.parse_ring(job["ring"])
    call = job["call"]
    if call == "generator_change":
        a = [pc.parse_poly(t, R.ambient) for t in job["seq_a"]]
        b = [pc.parse_poly(t, R.ambient) for t in job["seq_b"]]
        return mods.koszul.generator_change_iso_check(R, a, b)
    if call == "simplicial_koszul":
        seq = [R.ambient.var(i) for i in job["seq"]]
        tsa = simplicial.simplicial_koszul(R, seq, job["L"])
        module = simplicial.SimplicialModule(tsa, ("power", 0), job["D"])
        return simplicial.normalize(module, "quotient").homology()
    if call == "ideal_power":
        tsa = simplicial.simplicial_koszul(R, R.variable_polys(), job["L"])
        n = job["power"]
        return simplicial.ideal_power_homotopy(tsa, n, n - 1, job["D"])
    raise ValueError(f"unknown call {call!r}")


def _comparable(result):
    """A job output without the fields that differ between runs."""
    if isinstance(result, dict) and "report" in result:
        report = result["report"]
        return result["code"], report and report["results"]
    return result


def run_pass(mods, jobs, tracer=None, reference=None, budget=None):
    """Run the jobs once, in order; returns (wall s, CPU s, failures, outputs).

    With a budget (seconds) the pass stops once its job wall times sum
    to the budget or more, so the lists cover a prefix of the jobs.
    Only the jobs are timed.  Their outputs are checked after the pass,
    with tracing off: Tor(k, k) after the Betti table it is compared
    with.  Without a reference every output goes through its check.
    With one (the outputs of a checked pass), an output must equal the
    checked output of the same job, which costs far less.
    """
    times, cpu, results, errors = [], [], [], []
    spent = 0.0
    for job in jobs:
        if budget is not None and spent >= budget:
            break
        # Each job starts from a collected heap, as in a fresh CLI process,
        # so that garbage left by earlier jobs is not collected on its time.
        gc.collect()
        if tracer is not None:
            tracer.begin_job(job["id"])
        start, cpu_start = perf_counter(), process_time()
        try:
            result, error = run_job(mods, job), None
        except Exception as exc:  # a job that raises is a failed job
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        cpu.append(process_time() - cpu_start)
        spent += times[-1]
        if tracer is not None:
            tracer.end_job()
        results.append(result)
        errors.append(error)
    outputs = [_comparable(r) for r in results]
    failures, ctx = [], {}
    for n in sorted(range(len(times)), key=lambda n: jobs[n]["check"] == "tor_k"):
        if errors[n]:
            reason = errors[n]
        elif reference is not None:
            reason = None if outputs[n] == reference[n] else "output differs from the checked pass"
        else:
            reason = check(mods, jobs[n], results[n], ctx)
        if reason:
            failures.append((jobs[n]["id"], reason))
    return times, cpu, failures, outputs
