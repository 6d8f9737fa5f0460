"""The benchmark's three workloads, driven through repro's public API.

Each workload is a closed loop from one process: :meth:`run_pass` starts
the next experiment, session or sweep only when the previous one has
returned.  The constructor is the set-up the benchmark times as
``setup_s`` (imports are paid by whoever imports this module first).

* ``runall-serial`` — every registered experiment, quick, ``jobs=1``,
  cache off: the headline reproduction time.  Table expiry, consistency
  sampling, the schedulers and metric counters dominate; the runner and
  the cache do no work.
* ``bulk-refresh`` — one open-loop session over thousands of immortal
  records at low loss: puts and refreshes dominate, expiry almost never
  lapses anything and every consistency sample walks a large live set.
* ``scale-sharded`` — a sharded multicast population on the process
  pool, cold then warm against a fresh result store, plus the
  million-receiver fluid sweep.  Fan-out, loss draws, the pool and cache
  pickling do the work; the table, meter, schedulers and metric
  counters get no calls.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

import repro.experiments as experiments
import repro.fluid as fluid
from repro.cache import ResultCache, caching
from repro.fluid import FluidParams, derive_rates, summarize
from repro.obs import runtime as obs_runtime
from repro.obs import telemetry
from repro.protocols import OpenLoopSession
from repro.protocols.sharded import ShardedMulticastSession
from repro.workloads import StaticBulkWorkload

Check = Tuple[str, bool]

#: Run-time scratch (result stores, recorded counts), inside the checkout.
SCRATCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench"
)


def host_cpus() -> int:
    """CPUs this process may run on (the container's share, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class PassResult:
    """What one timed pass produced: cost, output and checks."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.events = 0
        #: Byte-comparable output of the pass (renders, results, JSON).
        self.outputs: Dict[str, str] = {}
        #: Per-experiment wall time and event counts (runall-serial).
        self.experiments: Dict[str, Tuple[float, int]] = {}
        #: Sum of per-cell wall from run telemetry (computed cells only).
        self.cell_s = 0.0
        self.checks: List[Check] = []
        self.attempted = 0
        self.failed = 0

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        self.operation(ok)


def _timed(result: PassResult, body: Callable[[], None]) -> PassResult:
    """Run ``body``, recording its host wall and CPU time — the
    benchmark's measurement target, hence the suppressed wall-clock lint."""
    cpu = cpu_seconds()
    start = time.perf_counter()  # repro-lint: disable=RPR002
    body()
    result.wall_s = time.perf_counter() - start  # repro-lint: disable=RPR002
    result.cpu_s = cpu_seconds() - cpu
    return result


class RunAllSerial:
    """All registered experiments in registry order, one after another."""

    name = "runall-serial"
    #: Experiments cheap enough to re-run every invocation as a
    #: determinism check (each well under 0.1 s).
    RERUN = ("table1", "figure3", "figure4", "figure12")

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed

    def _run(self, experiment_id: str):
        # Looked up at call time so a traced pass sees the wrapper.
        return experiments.run_experiment(
            experiment_id, quick=True, seed=self.seed, jobs=1, cache=False
        )

    def run_pass(self) -> PassResult:
        result = PassResult()

        def body():
            for experiment_id in experiments.EXPERIMENTS:
                start = time.perf_counter()  # repro-lint: disable=RPR002
                try:
                    outcome = self._run(experiment_id)
                except Exception as exc:  # one failing experiment is a failure row
                    result.operation(False)
                    result.outputs[experiment_id] = f"error: {exc!r}"
                    continue
                wall = time.perf_counter() - start  # repro-lint: disable=RPR002
                events = outcome.telemetry["run"]["events"]
                result.experiments[experiment_id] = (wall, events)
                result.events += events
                result.cell_s += sum(
                    cell["wall_s"] for cell in outcome.telemetry["cells"]
                )
                render = outcome.render()
                result.outputs[experiment_id] = render
                result.operation(bool(render) and bool(outcome.rows))

        return _timed(result, body)

    def untimed_checks(self, first: PassResult) -> List[Check]:
        """Re-run the cheapest experiments: renders must repeat exactly."""
        checks = []
        for experiment_id in self.RERUN:
            again = self._run(experiment_id).render()
            checks.append(
                (f"rerun {experiment_id}", again == first.outputs.get(experiment_id))
            )
        return checks


class BulkRefresh:
    """One open-loop session over a static bulk table of immortal records."""

    name = "bulk-refresh"
    RECORDS = 2000
    LOSS = 0.02
    DATA_KBPS = 400.0
    TICK = 0.5
    HORIZON = 120.0

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.workload = StaticBulkWorkload(self.RECORDS)

    def _session(self) -> OpenLoopSession:
        return OpenLoopSession(
            data_kbps=self.DATA_KBPS,
            loss_rate=self.LOSS,
            workload=self.workload,
            seed=self.seed,
            tick=self.TICK,
        )

    def run_pass(self) -> PassResult:
        result = PassResult()

        def body():
            session = self._session()
            with obs_runtime.cell_context() as ctx:
                outcome = session.run(horizon=self.HORIZON)
            result.events = ctx.events
            result.outputs["result"] = repr(outcome)
            result.operation(True)
            # A loss rate far outside the binomial spread of the
            # configured one means the loss layer misbehaved.
            n = outcome.data_packets
            sigma = math.sqrt(self.LOSS * (1.0 - self.LOSS) / max(n, 1))
            result.check(
                "observed loss within 5 sigma",
                n > 0 and abs(outcome.observed_loss_rate - self.LOSS) <= 5 * sigma,
            )

        return _timed(result, body)

    def untimed_checks(self, first: PassResult) -> List[Check]:
        return []


class ScaleSharded:
    """Sharded multicast population (cold, then warm) plus a fluid sweep."""

    name = "scale-sharded"
    RECEIVERS = 20_000
    #: Many small shards let the pool's dynamic dispatch balance around
    #: a worker slowed by the host, instead of waiting on one straggler.
    SHARDS_PER_CPU = 8
    LOSS = 0.2
    HORIZON = 20.0
    TIMEOUT_MULTIPLE = 4
    #: ext_scale's stated DES-vs-fluid agreement (docs/SCALE.md).
    FLUID_TOLERANCE = 0.01
    #: bench_scale's sweep: losses x timeout multiples x churn, N=10^6.
    FLUID_N = 1_000_000
    FLUID_LOSSES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6)
    FLUID_TIMEOUTS = (2, 4)
    FLUID_CHURNS = (0.0, 0.02)
    FLUID_HORIZON = 80.0
    FLUID_DT = 0.05

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.session = ShardedMulticastSession(
            self.RECEIVERS,
            self.SHARDS_PER_CPU * host_cpus(),
            self.LOSS,
            timeout_multiple=self.TIMEOUT_MULTIPLE,
            seed=seed,
        )
        self.grid = [
            FluidParams(
                loss=loss,
                timeout_multiple=m,
                churn_rate=churn,
                n_receivers=float(self.FLUID_N),
            )
            for loss in self.FLUID_LOSSES
            for m in self.FLUID_TIMEOUTS
            for churn in self.FLUID_CHURNS
        ]
        self.equilibrium = derive_rates(
            FluidParams(loss=self.LOSS, timeout_multiple=self.TIMEOUT_MULTIPLE)
        ).hold_eq

    def _sharded(self, session: ShardedMulticastSession, jobs: int):
        run = telemetry.begin_run(self.name)
        try:
            out = session.run(horizon=self.HORIZON, jobs=jobs)
        finally:
            telemetry.end_run()
        return out, run

    def run_pass(self) -> PassResult:
        result = PassResult()
        os.makedirs(SCRATCH, exist_ok=True)
        root = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)

        def body():
            with caching(ResultCache(root)):
                cold, cold_run = self._sharded(self.session, self.jobs)
                warm, warm_run = self._sharded(self.session, self.jobs)
            # Looked up at call time so a traced pass sees the wrapper.
            runs = fluid.solve_many(self.grid, self.FLUID_HORIZON, self.FLUID_DT)
            merged = json.dumps(cold["merged"], sort_keys=True)
            result.outputs["merged"] = merged
            result.outputs["fluid"] = repr(
                [summarize(run, n_records=4) for run in runs]
            )
            cells = cold_run.cells
            result.events = sum(cell.events for cell in cells if not cell.cached)
            result.cell_s = sum(cell.wall_s for cell in cells if not cell.cached)
            result.attempted += cold["shards"] + warm["shards"]
            result.check(
                "cold pass computes every shard",
                cold_run.cache_misses == cold["shards"] and cold_run.cache_hits == 0,
            )
            result.check(
                "warm pass is all hits",
                warm_run.cache_hits == warm["shards"] and warm_run.cache_misses == 0,
            )
            result.check(
                "warm merge byte-identical to cold",
                json.dumps(warm["merged"], sort_keys=True) == merged,
            )
            result.check(
                "DES tail consistency within tolerance of 1 - p^m",
                abs(cold["metrics"]["consistency"] - self.equilibrium)
                <= self.FLUID_TOLERANCE,
            )
            result.check(
                "fluid sweep solved every point",
                len(runs) == len(self.grid),
            )

        try:
            return _timed(result, body)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def untimed_checks(self, first: PassResult) -> List[Check]:
        """The merge must equal one monolithic (K=1) shard's output."""
        mono = ShardedMulticastSession(
            self.RECEIVERS,
            1,
            self.LOSS,
            timeout_multiple=self.TIMEOUT_MULTIPLE,
            seed=self.seed,
        )
        with caching(None):
            out, _ = self._sharded(mono, 1)
        return [
            (
                "merge byte-identical to K=1",
                json.dumps(out["merged"], sort_keys=True) == first.outputs["merged"],
            )
        ]


WORKLOADS: Dict[str, Any] = {
    cls.name: cls for cls in (RunAllSerial, BulkRefresh, ScaleSharded)
}
