"""Library results against the benchmark's recorded results: the
relconvex-plane, lattice-verdicts and obstruction-search workloads at
their default seed, run in-process on the imported library for their
first ``JOBS`` jobs (every class of each pattern), must match
``bench/expected/<workload>.json`` job for job.  The cli-files workload
has its own guard in ``test_bench_cli_files.py``."""

import importlib
import shutil
from pathlib import Path

import pytest

import convexitylab

ROOT = Path(__file__).resolve().parents[1]
JOBS = 40


@pytest.mark.parametrize("name", ["relconvex-plane", "lattice-verdicts", "obstruction-search"])
def test_outputs_match_recorded_results(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench_run = importlib.import_module("run")
    workload = bench_run.WORKLOADS[name]
    # A work directory of its own under the ignored bench/.out, so that
    # a benchmark run in the same checkout keeps its own.
    run = bench_run.Run(workload, bench_run.DEFAULT_SEED, workdir=bench_run.OUT / f"replay-{name}")
    try:
        run.prepare(workload.jobs_per_list, convexitylab)
        run.expected = bench_run.load_expected(name, bench_run.DEFAULT_SEED)
        for i in range(JOBS):
            run.run_job(i)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    assert {job["cls"] for job in run.jobs[:JOBS]} == {job["cls"] for job in run.jobs}
    assert run.attempted == JOBS
    assert run.failures == []
    if name == "lattice-verdicts":
        # the N5 witnesses of both verdicts are pinned byte for byte
        n5 = [job for job in run.expected[:JOBS] if job["modular"][1] == job["distributive"][1]
              and job["modular"][1] is not None and job["modular"][1]["kind"] == "N5"]
        assert len(n5) == 24
