#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

For every workload it checks that an untraced run prints each
end-to-end metric of ``BENCHMARK.json`` with its unit and that a
deliberately corrupted output is counted as a failed job; for one
workload it checks that a traced run prints every per-layer metric.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil

import run as bench


def _drop_closed_set(job, raw):
    return {**raw, "masks": raw["masks"][1:]}


def _shrink_cover_witness(job, raw):
    cover = raw["cover"]
    return {**raw, "cover": dataclasses.replace(cover, antichain=cover.antichain[1:])}


def _drop_host_element(job, raw):
    return {**raw, "labels": raw["labels"][1:]}


def _drop_generated_set(job, raw):
    with open(job["out"]) as f:
        payload = json.load(f)
    payload["closed"] = payload["closed"][1:]
    with open(job["out"], "w") as f:
        json.dump(payload, f)
    return raw


# Job 0 of every tiny list is corrupted; for cli-files it is a `gen` job.
CORRUPTIONS = {
    "relconvex-plane": _drop_closed_set,
    "lattice-verdicts": _shrink_cover_witness,
    "obstruction-search": _drop_host_element,
    "cli-files": _drop_generated_set,
}


def _printed(fn, *args) -> tuple[dict, dict]:
    """Run ``fn``, emit its metrics, and return the printed metric lines
    (name -> unit) and the final JSON object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run = args[0]
        bench.emit(run, fn(*args))
    lines = out.getvalue().strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            float(parts[1])
            printed[parts[0]] = parts[2]
    return printed, json.loads(lines[-1])


def main() -> None:
    os.chdir(bench.ROOT)
    with open(bench.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)

    for name, workload in bench.WORKLOADS.items():
        clean = bench.Run(workload, seed=7, tiny=True)
        printed, result = _printed(bench.end_to_end, clean, 0.05, bench.MIN_JOBS)
        assert printed == {**units, "fail_frac": "ratio"}, (name, printed)
        assert result["correct"] and result["failed"] == 0, (name, clean.failures[:3])
        assert set(result["metrics"]) == set(units)

        def corrupt(i, job, raw, fn=CORRUPTIONS[name]):
            return fn(job, raw) if i % len(clean.jobs) == 0 else raw

        broken = bench.Run(workload, seed=7, tiny=True, corrupt=corrupt)
        with contextlib.redirect_stdout(io.StringIO()):
            bench.end_to_end(broken, 0.05, bench.MIN_JOBS)
        assert broken.failures, f"{name}: corrupted output was not counted"
        print(f"ok {name}: {result['attempted']} jobs clean; "
              f"{len(broken.failures)}/{broken.attempted} failed when corrupted")

    traced = bench.Run(bench.WORKLOADS["cli-files"], seed=7, tiny=True)
    spans = bench.OUT / "selftest-spans.json"
    printed, result = _printed(bench.per_layer, traced, 0.05, 20, spans)
    assert printed == layer_units, sorted(set(printed) ^ set(layer_units))
    assert result["correct"], traced.failures[:3]
    spans.unlink()
    shutil.rmtree(traced.workdir, ignore_errors=True)
    print(f"ok traced run: {len(printed)} per-layer metrics")


if __name__ == "__main__":
    main()
