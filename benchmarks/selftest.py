"""Self-test of the benchmark's correctness check.

    python3 benchmarks/selftest.py

Runs one ``direct`` job, confirms that its outputs pass, then swaps the
subregions of two matched UAVs in ``assignment.csv`` and confirms that
the check fails: once through the independent blocking-pair scan alone
and once through the full per-job check the workload uses. Exits 0 when
the clean outputs pass and the tampered ones fail.
"""

from __future__ import annotations

import csv
import shutil
import sys

import check
import workloads
from worker import LibraryJobs

WORK = workloads.ROOT / ".bench_out" / "selftest"


def swap_two_partners(path) -> tuple[str, str]:
    header, rows = check.read_csv(path)
    matched = [r for r in rows if r[1] != "UNMATCHED"]
    a, b = matched[0], matched[1]
    a[1], b[1] = b[1], a[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return a[0], b[0]


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        jobs = LibraryJobs("direct", seed=0, work=WORK)
        jobs.run(0)
        clean = jobs.check(0)
        print(f"clean outputs: {'pass' if not clean else clean}")
        u, v = swap_two_partners(jobs.out / "assignment.csv")
        print(f"swapped the subregions of {u} and {v} in assignment.csv")
        _, assignment = check.match_outputs(jobs.out, jobs.docs[0])
        scan = check.blocking_pairs(jobs.docs[0], assignment)
        print(f"blocking-pair scan: {len(scan)} problem(s), first: {scan[:1]}")
        full = jobs.check(0)
        print(f"full job check: {len(full)} problem(s)")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    ok = not clean and bool(scan) and bool(full)
    print("self-test " + ("passed: the tampered assignment is reported" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
