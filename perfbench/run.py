"""Benchmark driver: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload runall-serial --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` times closed-loop passes with no instrumentation and
prints the ``end_to_end`` metrics of ``BENCHMARK.json``.  ``--trace 1``
interleaves untraced passes with passes run under the layer wrappers of
``perfbench/layers.py`` and prints the ``per_layer`` metrics, including
the tracing overhead (traced minus untraced wall time).  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the workload, seed and host.

A pass is the workload's unit of work (see ``workloads.py``).  Passes
repeat until the next one would end past ``--seconds``; at least one
always runs, so a workload whose pass is longer than the window measures
exactly one pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is measured this many times before the timed passes and as
#: many after them, each in a fresh interpreter, so the samples span the
#: run rather than one moment of it.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

#: Pool width of every pass in a traced run.
TRACED_JOBS = 1


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _setup_code(workload: str, seed: int, jobs: int) -> str:
    return (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}]({seed}, {jobs})\n"
        "print(repr(time.perf_counter() - start))\n"
    )


def measure_setup(workload: str, seed: int, jobs: int) -> List[float]:
    """Imports plus input building, each time in a fresh interpreter."""
    samples = []
    code = _setup_code(workload, seed, jobs)
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and its children.

    Not their sum: forked pool workers share most pages with this
    process, and a child spawned late reports this process's size.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_block(cpus: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Outcome:
    """Operations attempted and failed across every pass and check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add_pass(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.failures.extend(name for name, ok in result.checks if not ok)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def closed_loop(run_one, seconds: float):
    """Call ``run_one()`` until the next call would end past ``seconds``;
    always at least once.  Host wall time is what the benchmark measures,
    hence the suppressed wall-clock lint below."""
    results = []
    start = time.perf_counter()  # repro-lint: disable=RPR002
    while True:
        results.append(run_one())
        elapsed = time.perf_counter() - start  # repro-lint: disable=RPR002
        if elapsed + elapsed / len(results) > seconds:
            return results


def check_repeats(outcome: Outcome, passes, label: str) -> None:
    """Every pass of one seed must produce the same outputs and events."""
    first = passes[0]
    for other in passes[1:]:
        outcome.check(f"{label} outputs repeat", other.outputs == first.outputs)
        outcome.check(f"{label} events repeat", other.events == first.events)


def untraced_metrics(passes, setup: List[float]) -> Dict[str, float]:
    return {
        "wall_s": _median([p.wall_s for p in passes]),
        "cpu_s": _median([p.cpu_s for p in passes]),
        "setup_s": _median(setup),
        "events_per_s": _median([p.events / p.wall_s for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(plain, traced, reports, layer_buckets, experiment_ids):
    """Per-layer metrics: counts from the first traced pass (the checks
    require every pass to agree), times as medians over traced passes."""
    out: Dict[str, float] = {}
    for name, value in reports[0].items():
        if isinstance(value, int):
            out[name] = value
        else:
            out[name] = _median([report[name] for report in reports])
    out["des.events"] = traced[0].events
    scanned = out["core.record.expire_scanned"]
    out["core.record.expire_yield"] = (
        out["core.record.expire_lapsed"] / scanned if scanned else 0.0
    )
    samples = out["core.consistency.samples"]
    out["core.consistency.records_per_sample"] = (
        out.pop("core.consistency.records") / samples if samples else 0.0
    )
    out["runner.cell_s"] = _median([p.cell_s for p in traced])
    map_s = out["runner.map_cells_s"]
    out["runner.pool_efficiency"] = (
        out["runner.cell_s"] / (TRACED_JOBS * map_s) if map_s else 0.0
    )
    out["trace.wall_s"] = _median([p.wall_s for p in traced])
    out["trace.overhead_s"] = out["trace.wall_s"] - _median(
        [p.wall_s for p in plain]
    )
    out["trace.attributed_frac"] = _median(
        [
            sum(report[bucket] for bucket in layer_buckets) / p.wall_s
            for report, p in zip(reports, traced)
        ]
    )
    for experiment_id in experiment_ids:
        runs = [
            p.experiments[experiment_id]
            for p in plain
            if experiment_id in p.experiments
        ]
        out[f"experiment.{experiment_id}.wall_s"] = _median([wall for wall, _ in runs])
        out[f"experiment.{experiment_id}.events"] = runs[0][1] if runs else 0
    return out


def program_fingerprint() -> str:
    """Digest of every file under ``src/`` and ``perfbench/``: traced runs
    compare recorded counts only with runs of the same code."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_counts(outcome: Outcome, reports, events: int, path: str) -> None:
    """Counts of one seed must repeat exactly: between the traced passes
    of this run, and against the first traced run of the same seed and
    code recorded at ``path`` in this checkout."""
    counts = {k: v for k, v in reports[0].items() if isinstance(v, int)}
    counts["des.events"] = events
    for report in reports[1:]:
        for name, value in counts.items():
            if name in report:
                outcome.check(f"count {name} repeats", report[name] == value)
    try:
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(counts, handle, sort_keys=True)
        os.replace(partial, path)
        return
    for name in sorted(set(counts) | set(recorded)):
        outcome.check(
            f"count {name} repeats across runs",
            recorded.get(name) == counts.get(name),
        )


def traced_run(wl, seconds: float, layers):
    """Interleave untraced and traced passes; returns (plain, traced, tracers)."""
    plain, traced, tracers = [], [], []

    def pair():
        plain.append(wl.run_pass())
        tracer = layers.Tracer()
        with layers.Instrumentation(tracer):
            run_pass = tracer.wrap(wl.run_pass, "trace.unattributed_s", "pass")
            traced.append(run_pass())
        tracers.append(tracer)

    start = time.perf_counter()  # repro-lint: disable=RPR002
    pair()
    elapsed = time.perf_counter() - start  # repro-lint: disable=RPR002
    # A second traced pass makes the exact-count check possible within
    # the run; only a workload whose first pair fills the window skips it.
    if elapsed < seconds:
        closed_loop(pair, seconds - elapsed)
    return plain, traced, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro not found; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {names}",
            file=sys.stderr,
        )
        return 2

    # The benchmark fixes jobs, caching and profiling itself.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    import layers
    import workloads
    from repro.experiments import EXPERIMENTS

    cpus = workloads.host_cpus()
    outcome = Outcome()
    setup = [] if args.trace else measure_setup(args.workload, args.seed, cpus)
    # Traced runs use TRACED_JOBS for every pass (traced and untraced),
    # so every layer runs in this process, under the wrappers.
    wl = workloads.WORKLOADS[args.workload](
        args.seed, TRACED_JOBS if args.trace else cpus
    )

    if args.trace:
        plain, traced, tracers = traced_run(wl, args.seconds, layers)
        passes = plain + traced
        reports = [tracer.report() for tracer in tracers]
        check_counts(
            outcome,
            reports,
            traced[0].events,
            os.path.join(
                workloads.SCRATCH,
                f"counts-{args.workload}-{args.seed}-{cpus}"
                f"-{program_fingerprint()}.json",
            ),
        )
        layer_buckets = [
            b for b in layers.TIME_BUCKETS if b not in layers.CATCH_ALL_BUCKETS
        ]
        values = traced_metrics(
            plain, traced, reports, layer_buckets, list(EXPERIMENTS)
        )
        kind = "per_layer"
        pass_walls = {
            "untraced": [p.wall_s for p in plain],
            "traced": [p.wall_s for p in traced],
        }
    else:
        passes = closed_loop(wl.run_pass, args.seconds)
        setup += measure_setup(args.workload, args.seed, cpus)
        values = untraced_metrics(passes, setup)
        kind = "end_to_end"
        pass_walls = {"untraced": [p.wall_s for p in passes]}

    for result in passes:
        outcome.add_pass(result)
    check_repeats(outcome, passes, args.workload)
    for name, ok in wl.untimed_checks(passes[0]):
        outcome.check(name, ok)
    values["failed_frac"] = outcome.failed / max(outcome.attempted, 1)

    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec[kind]
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "host": host_block(cpus),
                "pass_wall_s": pass_walls,
                "setup_s": setup,
                "failures": outcome.failures,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
