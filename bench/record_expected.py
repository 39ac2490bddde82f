#!/usr/bin/env python3
"""Record the reference results the benchmark compares against.

For the default seed, runs every job of each workload's list once with
the exhaustive checks on, refuses to record if any job fails them, and
writes one digest per job to ``bench/expected/<workload>.json``.
Re-record only on purpose: a changed digest means changed behaviour.

    python3 bench/record_expected.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench


def record(workload) -> None:
    run = bench.Run(workload, bench.DEFAULT_SEED)
    run.prepare(workload.jobs_per_list)
    digests = []
    try:
        for i, job in enumerate(run.jobs):
            raw = workload.run(run.lib, job)
            problems = workload.verify(run.lib, job, raw, run.check_rng, deep=True)
            if problems:
                raise SystemExit(f"{workload.name} job {i} ({job['cls']}): {problems}")
            digests.append(workload.digest(job, raw))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    path = bench.BENCH / "expected" / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(d, sort_keys=True) for d in digests)
    with open(path, "w") as out:
        out.write(f'{{"seed": {bench.DEFAULT_SEED}, "jobs": [\n{lines}\n]}}\n')
    print(f"{workload.name}: {len(digests)} jobs -> {path.relative_to(bench.ROOT)}")


def main() -> None:
    os.chdir(bench.ROOT)
    names = sys.argv[1:] or list(bench.WORKLOADS)
    for name in names:
        record(bench.WORKLOADS[name])


if __name__ == "__main__":
    main()
