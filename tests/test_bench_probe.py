"""The benchmark's probe step, run in-process on the imported library:
every name ``bench/tracer.py`` wraps must still exist where it looks,
and every probe must fire on one tiny job of each workload class."""

import importlib
from pathlib import Path

import convexitylab
import convexitylab.cli  # noqa: F401  (the tracer wraps bindings in every library module)

ROOT = Path(__file__).resolve().parents[1]


def test_bench_probes_fire_on_tiny_jobs(monkeypatch):
    # The probe jobs address their files relative to the repository root.
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench_run = importlib.import_module("run")
    tracer = bench_run.Tracer()
    tracer.install()
    try:
        bench_run.probe(tracer, convexitylab)
    finally:
        tracer.uninstall()
