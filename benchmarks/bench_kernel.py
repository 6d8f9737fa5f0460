"""Batched fan-out kernel benchmark: scalar vs batched matched scenarios.

Three matched scenarios, each run under the scalar reference fan-out
(the test oracle ``tests/net/scalar_fanout.py``) and the production
batched registry fan-out with identical seeds:

* **announce fan-out** — one ``MulticastChannel`` servicing a burst of
  announcements into (a) 1k receivers each behind its own seeded
  ``BernoulliLoss`` stream, and (b) 10k receivers spread across a pool
  of 50 regional ``BernoulliLoss`` models (receivers clustered behind
  shared lossy last hops).  This is the hot loop the dense registry
  exists for; per-receiver delivered counts must be identical across
  modes.
* **bulk timer scheduling** — arming N timers via ``timeout_many``
  vs an ``env.timeout()`` loop (the soft-state slot/backoff shape).
* **cold quick run-all** — every registered experiment, quick mode,
  seed 0, cache off, scalar then batched: rendered output must be
  byte-identical (the end-to-end determinism contract).

Emits ``BENCH_kernel.json`` annotated with the shared bench schema +
host block via :mod:`annotate_bench`.  CI-gable assertions:

* ``--assert-fanout-speedup X`` — every fan-out scenario must show at
  least an Xx batched speedup;
* ``--assert-identical`` — delivered counts (fan-out) and rendered
  output (run-all) must match across modes exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --assert-fanout-speedup 3 --assert-identical
    make bench-kernel
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))  # the tests.net oracle
sys.path.insert(0, _HERE)

from annotate_bench import record  # noqa: E402

from repro.des import Environment, RngStreams  # noqa: E402
from repro.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.net import BernoulliLoss, MulticastChannel, Packet  # noqa: E402
from tests.net.scalar_fanout import scalar_fanout  # noqa: E402

#: (receivers, announcements, loss_models) per fan-out scenario — matched
#: across modes.  ``loss_models=None`` gives every receiver its own seeded
#: ``BernoulliLoss`` stream; an integer N spreads receivers across a pool
#: of N shared models (receivers clustered behind regional lossy links).
FANOUT_SCENARIOS = [(1_000, 200, None), (10_000, 40, 50)]
TIMER_COUNT = 20_000


def _drop(packet) -> None:
    """Receiver sink: delivery bookkeeping is what we measure, not sinks."""


def _fanout_mode(mode: str):
    """The reference paths for ``"scalar"``, production for ``"batched"``."""
    return scalar_fanout() if mode == "scalar" else contextlib.nullcontext()


def _fanout_once(
    receivers: int, announcements: int, loss_models: int | None, mode: str
):
    """Run one announce burst; returns (wall_s, delivered_counts).

    Session construction (joins, rng streams) is identical across modes
    and excluded; the timed region is the announce burst itself, which
    still includes the batched side's lazy registry build on the first
    serviced packet.
    """
    with _fanout_mode(mode):
        env = Environment()
        streams = RngStreams(seed=7)
        channel = MulticastChannel(env, rate_kbps=1e6)
        if loss_models is None:
            models = [
                BernoulliLoss(0.2, rng=streams[f"r{rid}"])
                for rid in range(receivers)
            ]
        else:
            pool = [
                BernoulliLoss(0.2, rng=streams[f"m{slot}"])
                for slot in range(loss_models)
            ]
            models = [pool[rid % loss_models] for rid in range(receivers)]
        for rid in range(receivers):
            channel.join(rid, _drop, loss=models[rid])
        start = time.perf_counter()  # repro-lint: disable=RPR002
        for seq in range(announcements):
            channel.send(Packet(seq=seq))
        env.run()
        # Reading the counts is part of the scenario: it forces the
        # batched path's lazy delivery-hit fold inside the timed region.
        counts = dict(channel.delivered_per_receiver)
        wall = time.perf_counter() - start  # repro-lint: disable=RPR002
    return wall, counts


def _bench_fanout(repeats: int):
    """Interleaved best-of-N per scenario so noise hits both modes alike."""
    results = []
    for receivers, announcements, loss_models in FANOUT_SCENARIOS:
        scalar_s = batched_s = float("inf")
        scalar_counts = batched_counts = None
        for _ in range(repeats):
            wall, scalar_counts = _fanout_once(
                receivers, announcements, loss_models, "scalar"
            )
            scalar_s = min(scalar_s, wall)
            wall, batched_counts = _fanout_once(
                receivers, announcements, loss_models, "batched"
            )
            batched_s = min(batched_s, wall)
        results.append(
            {
                "receivers": receivers,
                "announcements": announcements,
                "loss_models": loss_models or receivers,
                "scalar_s": scalar_s,
                "batched_s": batched_s,
                "speedup": scalar_s / batched_s if batched_s > 0 else 0.0,
                "identical": scalar_counts == batched_counts,
            }
        )
    return results


def _timers_once(bulk: bool) -> float:
    env = Environment()
    delays = [0.001 * (index % 997) for index in range(TIMER_COUNT)]
    start = time.perf_counter()  # repro-lint: disable=RPR002
    if bulk:
        env.timeout_many(delays)
    else:
        schedule = env.timeout
        for delay in delays:
            schedule(delay)
    return time.perf_counter() - start  # repro-lint: disable=RPR002


def _bench_timers(repeats: int):
    loop_s = bulk_s = float("inf")
    for _ in range(repeats):
        loop_s = min(loop_s, _timers_once(bulk=False))
        bulk_s = min(bulk_s, _timers_once(bulk=True))
    return {
        "timers": TIMER_COUNT,
        "loop_s": loop_s,
        "bulk_s": bulk_s,
        "speedup": loop_s / bulk_s if bulk_s > 0 else 0.0,
    }


def _runall_pass(ids, mode: str):
    """One cold quick run-all under ``mode``; returns (wall_s, renders)."""
    with _fanout_mode(mode):
        wall = 0.0
        renders = {}
        for experiment_id in ids:
            result = run_experiment(
                experiment_id, quick=True, seed=0, jobs=1, cache=False
            )
            wall += result.telemetry["run"]["wall_s"]
            renders[experiment_id] = result.render()
    return wall, renders


def _bench_runall():
    ids = sorted(EXPERIMENTS)
    scalar_wall, scalar_renders = _runall_pass(ids, "scalar")
    batched_wall, batched_renders = _runall_pass(ids, "batched")
    diverged = sorted(
        experiment_id
        for experiment_id in ids
        if scalar_renders[experiment_id] != batched_renders[experiment_id]
    )
    return {
        "experiments": ids,
        "scalar_wall_s": scalar_wall,
        "batched_wall_s": batched_wall,
        "identical": not diverged,
        "diverged": diverged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of-N repeats per micro scenario (default: 5)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_kernel.json",
        help="result JSON path (default: BENCH_kernel.json)",
    )
    parser.add_argument(
        "--assert-fanout-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless every fan-out scenario is at least Xx faster "
        "batched than scalar",
    )
    parser.add_argument(
        "--assert-identical",
        action="store_true",
        help="exit 1 unless delivered counts and run-all renders are "
        "identical across modes",
    )
    parser.add_argument(
        "--skip-runall",
        action="store_true",
        help="skip the cold quick run-all scenario (fast local iteration)",
    )
    args = parser.parse_args(argv)

    fanout = _bench_fanout(args.repeats)
    timers = _bench_timers(args.repeats)
    runall = None if args.skip_runall else _bench_runall()

    payload = {
        "suite": "batched fan-out kernel",
        "fanout": fanout,
        "timers": timers,
        "runall": runall,
    }
    record(args.out, payload)

    for row in fanout:
        print(
            f"fan-out {row['receivers']:>6} rx x {row['announcements']:>4} "
            f"pkts : scalar {row['scalar_s']:.3f} s  "
            f"batched {row['batched_s']:.3f} s  "
            f"speedup {row['speedup']:.1f}x  identical: {row['identical']}"
        )
    print(
        f"timers  {timers['timers']} armed      : loop {timers['loop_s']:.4f} s  "
        f"bulk {timers['bulk_s']:.4f} s  speedup {timers['speedup']:.1f}x"
    )
    if runall is not None:
        print(
            f"run-all quick (cache off)   : scalar {runall['scalar_wall_s']:.2f} s  "
            f"batched {runall['batched_wall_s']:.2f} s  "
            f"identical: {runall['identical']}"
        )

    failed = []
    if args.assert_fanout_speedup is not None:
        for row in fanout:
            if row["speedup"] < args.assert_fanout_speedup:
                failed.append(
                    f"fan-out {row['receivers']} rx speedup "
                    f"{row['speedup']:.1f}x below required "
                    f"{args.assert_fanout_speedup:g}x"
                )
    if args.assert_identical:
        for row in fanout:
            if not row["identical"]:
                failed.append(
                    f"fan-out {row['receivers']} rx delivered counts "
                    "diverged between scalar and batched modes"
                )
        if runall is not None and not runall["identical"]:
            failed.append(
                f"run-all output diverged for {runall['diverged']}"
            )
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
