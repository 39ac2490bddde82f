#!/usr/bin/env python3
"""convexitylab benchmark: one seeded workload, closed loop, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload relconvex-plane --seed 1 --seconds 25 --trace 0

One client in one thread runs the workload's jobs in list order, each
after the previous one returns, until the time spent inside jobs
reaches ``--seconds`` and at least ``MIN_JOBS`` jobs have run.  Every
output is re-verified outside the timed span (see ``workloads.py``),
and for the default seed also compared with the results recorded in
``bench/expected``.

``--trace 0`` reports the end-to-end metrics.  Their times are given at
a fixed machine speed: a shared machine's speed swings by half within
minutes, so a fixed pure-Python reference kernel, which calls no library
code, is timed between jobs, and each job time (and each set-up) is
scaled by ``REF_NOMINAL_S`` over the median of the nearest reference
times.  The wall-clock figures are printed beside them.

``--trace 1`` runs every job twice, untraced and then with every library
binding wrapped (``tracer.py``), until the untraced runs reach half of
``--seconds``, and reports per-layer metrics per job plus the tracing
overhead; these figures are wall-clock.  Spans go
to ``bench/.out/spans-<workload>-<seed>.json``.  The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_JOBS = 110  # at least ten jobs beyond the nearest-rank p90
SETUP_REPEATS = 5
DEEP_CHECK_EVERY = 4  # every n-th job also gets the exhaustive oracles
REF_NOMINAL_S = 0.002  # reference kernel time that reported times are scaled to
REF_EVERY_S = 0.05  # job time between two reference samples
REF_WINDOW = 2  # a job is scaled by the median of this many samples before it and as many after


def reference_kernel() -> float:
    """Time a fixed stretch of pure-Python work of the library's kind
    (small-int tuples as dict keys, set building, int arithmetic) that
    calls no library code; returns seconds."""
    start = time.perf_counter()
    memo: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i >> 6)
        memo[key] = memo.get(key, 0) + (i ^ acc) % 97
        acc = (acc + len(memo)) & 0xFFFF
    seen = set()
    for a in range(40):
        for b in range(a, 40):
            seen.add(a | b)
    return time.perf_counter() - start


def import_library():
    """Fresh import of the library, so every set-up pays for it."""
    for name in [n for n in sys.modules if n == "convexitylab" or n.startswith("convexitylab.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    lib = importlib.import_module("convexitylab")
    importlib.import_module("convexitylab.cli")
    return lib


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(BENCH / "expected" / f"{name}.json") as f:
        return json.load(f)["jobs"]


class Run:
    """One workload at one seed: set-up, closed loop and checks."""

    def __init__(self, workload, seed: int, tiny: bool = False, corrupt=None, workdir=None):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.corrupt = corrupt
        self.workdir = workdir or OUT / f"work-{workload.name}"
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.attempted = 0
        self.failures: list[str] = []

    def prepare(self, count: int, lib=None) -> None:
        """Import the library (unless given) and generate ``count`` jobs."""
        self.lib = lib or import_library()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rel = self.workdir.relative_to(ROOT)
        self.jobs = self.workload.generate(random.Random(self.seed), count, self.tiny, rel)
        self.expected = None

    def set_up(self) -> None:
        self.prepare(self.workload.jobs_per_list)
        if not self.tiny:
            self.expected = load_expected(self.workload.name, self.seed)
        self.run_job(0)  # warm-up: lazy set-up lands here, not in the first timed job

    def run_job(self, i: int, tracer: Tracer | None = None) -> float:
        """Run job i (timed) and check it (untimed); returns seconds."""
        job = self.jobs[i % len(self.jobs)]
        if tracer is not None:
            tracer.begin_job(i)
        start = time.perf_counter()
        try:
            raw, error = self.workload.run(self.lib, job), None
        except Exception as exc:  # every unexpected exception is a failed job
            raw, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job()
        self.attempted += 1
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            if self.corrupt is not None:
                raw = self.corrupt(i, job, raw)
            problems = self.check(i, job, raw)
        if problems:
            self.failures.append(f"job {i} ({job['cls']}): {'; '.join(problems)}")
        return elapsed

    def check(self, i: int, job, raw) -> list[str]:
        deep = i % DEEP_CHECK_EVERY == 0
        try:
            problems = self.workload.verify(self.lib, job, raw, self.check_rng, deep)
            digest = self.workload.digest(job, raw)
        except Exception as exc:  # a malformed output can break a check
            return [f"check raised {type(exc).__name__}: {exc}"]
        if self.expected is not None:
            want = self.expected[i % len(self.expected)]
            if json.loads(json.dumps(digest)) != want:
                problems.append("output differs from the recorded result")
        return problems

    def loop(self, seconds: float, min_jobs: int) -> list[tuple[float, float]]:
        """Closed loop from the first job until ``seconds`` of wall-clock
        job time and ``min_jobs`` jobs are done, with a reference sample
        before the first job, after the last, and between jobs whenever
        ``REF_EVERY_S`` of job time has passed since the last one;
        returns (wall-clock, scaled) seconds per job."""
        refs = [reference_kernel()]
        timed = []  # (seconds, index of the reference sample before the job)
        busy = since_ref = 0.0
        while busy < seconds or len(timed) < min_jobs:
            if since_ref >= REF_EVERY_S:
                refs.append(reference_kernel())
                since_ref = 0.0
            elapsed = self.run_job(len(timed))
            timed.append((elapsed, len(refs) - 1))
            busy += elapsed
            since_ref += elapsed
        refs.append(reference_kernel())
        scaled = []
        for t, k in timed:
            near = refs[max(0, k + 1 - REF_WINDOW):k + 1 + REF_WINDOW]
            scaled.append((t, t * REF_NOMINAL_S / statistics.median(near)))
        return scaled


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(run: Run, seconds: float, min_jobs: int) -> dict:
    setups = []  # (wall-clock, scaled) seconds
    for rep in range(SETUP_REPEATS):
        began = PROCESS_START if rep == 0 else time.perf_counter()
        run.set_up()
        wall = time.perf_counter() - began
        refs = [reference_kernel() for _ in range(5)]
        setups.append((wall, wall * REF_NOMINAL_S / statistics.median(refs)))
    gc.collect()
    gc.freeze()  # set-up objects and check caches stay out of the timed collections
    samples = run.loop(seconds, min_jobs)
    wall = [w for w, _ in samples]
    times = [t for _, t in samples]
    n = len(times)
    beyond = n - math.ceil(0.9 * n)
    print(f"# job_ms_p50 and job_ms_p90 over {n} timed jobs, {beyond} beyond p90; "
          f"scaled set-up times {', '.join(f'{t:.4f}' for _, t in setups)} s")
    print(f"# times scaled to a {REF_NOMINAL_S * 1000:g} ms reference kernel; wall-clock: "
          f"jobs_per_s {n / sum(wall):.4f}, job_ms_p50 {statistics.median(wall) * 1000:.4f}, "
          f"job_ms_p90 {p90(wall) * 1000:.4f}, setup_s {statistics.median(w for w, _ in setups):.4f}")
    # fail_frac is 0 on a correct run, so it rides in the result's
    # "failed" and "attempted" fields rather than in its metrics.
    print(f"# fail_frac = {len(run.failures)} failed / {run.attempted} attempted")
    print(f"fail_frac {len(run.failures) / run.attempted} ratio")
    return {
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_ms_p50": (statistics.median(times) * 1000, "ms"),
        "job_ms_p90": (p90(times) * 1000, "ms"),
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def probe(tracer: Tracer, lib) -> None:
    """Run one tiny job of every class of every workload under the tracer
    and require every probe to fire."""
    for workload in WORKLOADS.values():
        tiny = Run(workload, seed=0, tiny=True, workdir=OUT / f"probe-{workload.name}")
        tiny.prepare(len(getattr(workload, "tiny_pattern", workload.pattern)), lib)
        for i in range(len(tiny.jobs)):
            tiny.run_job(i, tracer)
        shutil.rmtree(tiny.workdir, ignore_errors=True)
        if tiny.failures:
            raise RuntimeError(f"probe job failed: {tiny.failures[0]}")
    missing = tracer.missing()
    if missing:
        raise RuntimeError(f"probes that never fired: {missing}")
    tracer.reset()


def per_layer(run: Run, seconds: float, min_jobs: int, spans_path: Path) -> dict:
    run.set_up()
    tracer = Tracer()
    tracer.install()
    try:
        probe(tracer, run.lib)
    finally:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    plain, traced = [], []
    busy = 0.0
    # Each job runs untraced and then traced, so that both runs of it see
    # the same machine speed; the wrappers exist only for the traced run.
    while busy < seconds / 2 or len(plain) < min_jobs:
        i = len(plain)
        plain.append((run.jobs[i % len(run.jobs)]["cls"], run.run_job(i)))
        busy += plain[-1][1]
        tracer.install()
        try:
            traced.append(run.run_job(i, tracer))
        finally:
            tracer.uninstall()
    jobs = len(traced)
    overhead = sum(traced) / busy - 1

    def per_job(value):
        return value / jobs

    calls, self_s = tracer.calls, tracer.self_s
    metrics = {}
    for name in ("closure.close", "relconvex.hull_membership", "lattices.as_lattice",
                 "obstructions.embeds_as_join_subsemilattice", "closure.lattice_join",
                 "lattices.semilattice_join"):
        metrics[f"{name}.calls"] = (per_job(calls[name]), "count/job")
    for name in (
        "closure.close", "closure.covers", "relconvex.hull_membership",
        "relconvex.max_convexly_independent", "relconvex.min_line_cover", "relconvex.check_es5",
        "lattices.as_lattice", "geometry.check_anti_exchange",
        "geometry.check_convexity_characterization", "geometry.is_distributive",
        "geometry.is_modular", "geometry.check_cover_structure",
        "geometry.antimatroid_from_distributive", "dimension.join_dimension",
        "dimension.embed_via_chain_covers", "ordergen.multichain_system",
        "ordergen.compact_semilattice_of_geometry",
        "obstructions.embeds_as_join_subsemilattice", "obstructions.independent_sets",
        "fileio.system_from_payload", "fileio.parse_any", "fileio.dumps",
        "fileio.lattice_to_dot",
    ):
        metrics[f"{name}.self_ms"] = (per_job(self_s[name] * 1000), "ms/job")
    close_calls = calls["closure.close"]
    searches = calls["obstructions.embeds_as_join_subsemilattice"]
    metrics["closure.closed_sets"] = (per_job(tracer.closed_sets), "count/job")
    metrics["closure.nextclosure_yield"] = (
        tracer.closed_sets / close_calls if close_calls else 0.0, "ratio")
    metrics["obstructions.found_ratio"] = (tracer.found / searches if searches else 0.0, "ratio")
    print(f"# closure.nextclosure_yield = {tracer.closed_sets} closed sets / {close_calls} closes")
    print(f"# obstructions.found_ratio = {tracer.found} found / {searches} searches")
    for verb in ("gen", "check", "analyze", "export"):
        times = [t for cls, t in plain if cls.partition(":")[0] == verb]
        metrics[f"cli.{verb}.p50_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    print(f"# traced {jobs} jobs; untraced {len(plain)} jobs; {len(tracer.spans)} spans")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "convexitylab" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            metrics = per_layer(run, args.seconds, MIN_JOBS // 2, spans)
        else:
            metrics = end_to_end(run, args.seconds, MIN_JOBS)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    emit(run, metrics)
    return 0


def emit(run: Run, metrics: dict) -> None:
    """Print failures and metrics, then the one-line JSON result."""
    for failure in run.failures[:10]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
