"""Self-check of the benchmark itself.

* The same seed gives an identical job list; another seed a different one.
* The checker counts deliberately corrupted results as failures: one
  homology dimension, one Betti number and one simplicial strand changed
  by 1, and a wrong classification verdict.

Run on its own with `python3 perfbench/selfcheck.py` (exit 0 when the
benchmark is sound); run.py also runs it before measuring.
"""

from __future__ import annotations

import copy
import sys

from checks import check
from harness import load_ringkit, run_job
from jobs import WORKLOADS, job_list

PROBES = [
    {"kind": "cli", "field": "Fp", "argv": ["koszul", "F101[x,y]/(x*y)"],
     "check": "koszul", "anchor": False, "id": "probe-koszul"},
    {"kind": "cli", "field": "Fp", "argv": ["betti", "F101[x,y]/(x^2,y^2)",
                                            "--homological-bound", "3"],
     "check": "betti", "anchor": False, "id": "probe-betti"},
    {"kind": "call", "call": "simplicial_koszul", "field": "QQ", "ring": "QQ[x]/(x^3)",
     "seq": [0], "L": 3, "D": 6, "check": "simplicial", "anchor": False,
     "id": "probe-simplicial"},
    {"kind": "cli", "field": "QQ", "argv": ["classify", "QQ[x,y,z]/(x^2 - y*z, y^2)"],
     "check": "classify", "anchor": False, "id": "probe-classify"},
]


def _corrupt(job, result):
    bad = copy.deepcopy(result)
    if job["check"] in ("koszul", "betti"):
        bad["report"]["results"]["entries"][-1][2] += 1
    elif job["check"] == "simplicial":
        key = max(bad)
        bad[key] += 1
    else:
        bad["report"]["results"]["verdict"] = "regular"
    return bad


def selfcheck(mods):
    """Problems found with the benchmark, as a list of one-line reasons."""
    problems = []
    for workload in WORKLOADS:
        if job_list(workload, 1) != job_list(workload, 1):
            problems.append(f"{workload}: seed 1 gives two different job lists")
        if job_list(workload, 1) == job_list(workload, 2):
            problems.append(f"{workload}: seeds 1 and 2 give the same job list")
    for job in PROBES:
        result = run_job(mods, job)
        reason = check(mods, job, result, {})
        if reason:
            problems.append(f"{job['id']}: correct result rejected: {reason}")
        if check(mods, job, _corrupt(job, result), {}) is None:
            problems.append(f"{job['id']}: corrupted result accepted")
    return problems


if __name__ == "__main__":
    found = selfcheck(load_ringkit())
    for line in found:
        print(line)
    print("selfcheck:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
