"""CLI report bytes against the benchmark's recorded results: the
cli-files workload at its default seed, run in-process on the imported
library for its first ``MIN_JOBS`` jobs (every class of its pattern),
must match ``bench/expected/cli-files.json`` job for job."""

import importlib
import shutil
from pathlib import Path

import convexitylab
import convexitylab.cli  # noqa: F401  (the workload calls convexitylab.cli.main)

ROOT = Path(__file__).resolve().parents[1]


def test_cli_files_outputs_match_recorded_results(monkeypatch):
    # The jobs address their files relative to the repository root, and
    # the recorded reports echo those paths, so the run uses the bench's
    # own work directory under the ignored bench/.out.
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench_run = importlib.import_module("run")
    workload = bench_run.WORKLOADS["cli-files"]
    run = bench_run.Run(workload, bench_run.DEFAULT_SEED)
    try:
        run.prepare(workload.jobs_per_list, convexitylab)
        run.expected = bench_run.load_expected(workload.name, bench_run.DEFAULT_SEED)
        for i in range(bench_run.MIN_JOBS):
            run.run_job(i)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    assert {job["cls"] for job in run.jobs[: bench_run.MIN_JOBS]} == {
        job["cls"] for job in run.jobs
    }
    assert run.attempted == bench_run.MIN_JOBS
    assert run.failures == []
