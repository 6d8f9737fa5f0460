"""Tests of the benchmark's tracer and layer wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import random
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from layers import Instrumentation, Tracer  # noqa: E402


def union_length(intervals):
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times_from_spans(spans):
    """Reference self time per bucket: each span's duration minus the
    union of its children's intervals."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = collections.defaultdict(float)
    for span in spans:
        covered = union_length(children.get(span.ident, []))
        out[span.bucket] += (span.end - span.start) - covered
    return dict(out)


class FakeClock:
    """A clock that advances only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _nested_calls(tracer: Tracer, clock: FakeClock) -> None:
    """outer(A) -> [inner(A) -> leaf(B)], leaf(B), with work between."""

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        wrapped_leaf()
        clock.advance(3.0)

    def outer():
        clock.advance(4.0)
        wrapped_inner()
        clock.advance(5.0)
        wrapped_leaf()
        clock.advance(6.0)

    wrapped_leaf = tracer.wrap(leaf, "b.s", "b.leaf")
    wrapped_inner = tracer.wrap(inner, "a.s", "a.inner")
    tracer.wrap(outer, "a.s", "a.outer")()


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_is_duration_minus_child_union_for_same_layer_nesting():
    clock = FakeClock()
    tracer = Tracer(keep_spans=True, clock=clock)
    _nested_calls(tracer, clock)
    # Layer a: outer's own 4+5+6 plus inner's own 2+3 (inner nests in
    # the same layer and is not counted twice); layer b: two leaves.
    assert tracer.self_s["a.s"] == 20.0
    assert tracer.self_s["b.s"] == 2.0
    reference = self_times_from_spans(tracer.spans)
    assert reference == {"a.s": 20.0, "b.s": 2.0}
    root = [span for span in tracer.spans if span.parent is None]
    assert len(root) == 1
    assert sum(tracer.self_s.values()) == root[0].end - root[0].start
    # The span-free fast path accounts identically.
    clock = FakeClock()
    fast = Tracer(clock=clock)
    _nested_calls(fast, clock)
    assert dict(fast.self_s) == dict(tracer.self_s)


def test_self_time_matches_reference_with_real_clock():
    tracer = Tracer(keep_spans=True)

    def work(depth):
        total = sum(range(2000))
        if depth:
            for _ in range(3):
                wrapped(depth - 1)
        return total

    wrapped = tracer.wrap(work, "layer.s", "layer.work")
    tracer.wrap(wrapped, "root.s", "root")(3)
    reference = self_times_from_spans(tracer.spans)
    for bucket, seconds in reference.items():
        assert tracer.self_s[bucket] == pytest.approx(seconds, abs=1e-9)


def test_delegating_override_is_counted_once():
    from repro.sched import FifoScheduler

    tracer = Tracer()
    with Instrumentation(tracer):
        scheduler = FifoScheduler()
        scheduler.enqueue("fifo", "a")
        scheduler.enqueue("fifo", "b")
        scheduler.dequeue()
        scheduler.remove("fifo", "b")
    assert tracer.counts["sched.ops"] == 4
    assert tracer.counts["sched.remove_calls"] == 1
    assert tracer.counts["sched.remove_scanned"] == 1


def _patch_targets():
    """Every attribute the instrumentation may replace, by identity."""
    import repro.experiments  # noqa: F401

    snapshot = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type):
                    for method, function in vars(value).items():
                        snapshot[(name, attr, method)] = function
    return snapshot


def test_wrappers_restore_originals():
    before = _patch_targets()
    tracer = Tracer()
    with Instrumentation(tracer):
        during = _patch_targets()
    after = _patch_targets()
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) > 20
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_restore_originals_after_an_error():
    before = _patch_targets()
    with pytest.raises(RuntimeError):
        with Instrumentation(Tracer()):
            raise RuntimeError("boom")
    after = _patch_targets()
    assert all(after[key] is value for key, value in before.items())


def _small_outputs(store_root: str):
    """Renders and results of a few small runs touching every layer."""
    from repro.cache import ResultCache, caching
    from repro.experiments import run_experiment
    from repro.protocols import OpenLoopSession
    from repro.protocols.sharded import ShardedMulticastSession
    from repro.workloads import StaticBulkWorkload

    outputs = [
        run_experiment(name, quick=True, seed=3, jobs=1, cache=False).render()
        for name in ("table1", "figure7")
    ]
    session = OpenLoopSession(
        data_kbps=50.0,
        loss_rate=0.05,
        workload=StaticBulkWorkload(40),
        seed=3,
        tick=0.5,
    )
    outputs.append(repr(session.run(horizon=20.0)))
    sharded = ShardedMulticastSession(300, 3, 0.2, seed=3)
    with caching(ResultCache(store_root)):
        merged = sharded.run(horizon=8.0)["merged"]
    outputs.append(json.dumps(merged, sort_keys=True))
    return outputs


def test_wrapping_leaves_small_runs_byte_identical(tmp_path):
    plain = _small_outputs(str(tmp_path / "plain"))
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = _small_outputs(str(tmp_path / "traced"))
    assert traced == plain
    counts = tracer.counts
    for name in (
        "core.record.writes",
        "core.record.expire_calls",
        "core.consistency.samples",
        "obs.metrics.updates",
        "net.loss_draws",
        "net.fanout_rows",
        "net.deliveries",
        "runner.cells",
        "cache.misses",
    ):
        assert counts[name] > 0, name
    for bucket in ("des.self_s", "net.send_s", "experiments.self_s"):
        assert tracer.self_s[bucket] > 0, bucket


def test_multicast_fanout_is_net_time_and_sinks_are_not():
    from repro.des import Environment
    from repro.net.channel import MulticastChannel
    from repro.net.loss import BernoulliLoss
    from repro.net.packet import Packet

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with Instrumentation(tracer):
        env = Environment()
        channel = MulticastChannel(env, rate_kbps=1000.0)

        def sink(packet):
            clock.advance(1.0)

        for receiver in range(4):
            channel.join(receiver, sink, BernoulliLoss(0.0, random.Random(receiver)))
        channel.send(Packet(kind="data", key="k", size_bits=1000))
        env.run(until=1.0)
    assert tracer.counts["net.deliveries"] == 4
    assert tracer.counts["net.fanout_rows"] == 4
    assert tracer.self_s["des.self_s"] == 4.0
    assert tracer.self_s["net.send_s"] == 0.0


def test_recorded_counts_compare_only_within_one_path(tmp_path):
    import run

    path = str(tmp_path / "counts-a.json")
    first = run.Outcome()
    run.check_counts(first, [{"x.calls": 3, "x.s": 0.5}], 10, path)
    assert (first.attempted, first.failed) == (0, 0)
    same = run.Outcome()
    run.check_counts(same, [{"x.calls": 3, "x.s": 0.9}], 10, path)
    assert same.attempted == 2 and same.failed == 0
    drift = run.Outcome()
    run.check_counts(drift, [{"x.calls": 4, "x.s": 0.5}], 10, path)
    assert drift.failures == ["count x.calls repeats across runs"]
    other = run.Outcome()
    run.check_counts(other, [{"x.calls": 4}], 10, str(tmp_path / "counts-b.json"))
    assert other.failed == 0


def test_fingerprint_is_stable():
    import run

    assert run.program_fingerprint() == run.program_fingerprint()
