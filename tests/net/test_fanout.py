"""Batched vs scalar multicast fan-out equivalence, registry churn, and
the new multicast observability (enqueue tracing, observed loss rates).

The batched registry path must reproduce the scalar reference loop
(:mod:`tests.net.scalar_fanout`) byte-for-byte on the same seeds: same
deliveries, same per-receiver outcome dicts, same delivery times, same
delivery trace records — across churn, blocking, shared (grouped)
models, shared-rng fallbacks, and delayed delivery.
"""

import random

import pytest

from repro.des import Environment, RngStreams
from repro.net import (
    BernoulliLoss,
    Channel,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    MulticastChannel,
    NoLoss,
    Packet,
    TotalLoss,
)
from repro.obs import PACKET, Tracer, tracing
from tests.net.scalar_fanout import scalar_fanout


def _run_group_scenario(*, delay=0.0, churn=False, shared_rng=False):
    """One multicast session with a mixed receiver population.

    Returns (arrivals, outcomes, delivered_counts) — everything an
    equivalence check needs to compare the two fan-out implementations.
    """
    env = Environment()
    streams = RngStreams(seed=42)
    mc = MulticastChannel(
        env,
        rate_kbps=50.0,
        delay=delay,
        shared_loss=BernoulliLoss(0.1, rng=streams["shared"]),
    )
    arrivals = {}

    def sink_for(rid):
        arrivals[rid] = []
        return lambda p: arrivals[rid].append((env.now, p.seq))

    # A population covering every registry row kind: independent
    # Bernoulli draws, constant rows, in-order stateful rows, and one
    # Gilbert-Elliott model shared by three members (the grouped path —
    # or, with shared_rng=True, a model whose rng is also drawn by
    # another model, which must force those rows off the grouped path).
    group_rng = streams["group"]
    ge_shared = GilbertElliottLoss(
        p_gb=0.2, p_bg=0.5, bad_loss=0.9, good_loss=0.05, rng=group_rng
    )
    spoiler_rng = group_rng if shared_rng else streams["spoiler"]
    models = {
        "bern-a": BernoulliLoss(0.3, rng=streams["a"]),
        "bern-b": BernoulliLoss(0.45, rng=streams["b"]),
        "clean": NoLoss(),
        "dead": TotalLoss(),
        "zero": BernoulliLoss(0.0, rng=streams["zero"]),
        "one": BernoulliLoss(1.0, rng=streams["one"]),
        "det": DeterministicLoss(period=3),
        "ge-1": ge_shared,
        "ge-2": ge_shared,
        "ge-3": ge_shared,
        "combo": CombinedLoss(
            [
                BernoulliLoss(0.2, rng=spoiler_rng),
                DeterministicLoss(period=7),
            ]
        ),
    }
    for rid, model in models.items():
        mc.join(rid, sink_for(rid), loss=model)
    mc.block("bern-b")

    outcomes = []
    mc.on_serviced(lambda p, o: outcomes.append(dict(o)))

    def driver(env):
        for seq in range(60):
            mc.send(Packet(key=f"k{seq % 4}", seq=seq))
            yield env.timeout(0.05)

    def churner(env):
        yield env.timeout(0.4)
        mc.leave("det")
        mc.unblock("bern-b")
        yield env.timeout(0.5)
        mc.join("det", sink_for("det2"), loss=DeterministicLoss(period=2))
        mc.block("ge-2")
        yield env.timeout(0.7)
        mc.unblock("ge-2")

    env.process(driver(env))
    if churn:
        env.process(churner(env))
    env.run(until=20.0)
    return arrivals, outcomes, dict(mc.delivered_per_receiver)


@pytest.mark.parametrize("delay", [0.0, 0.25])
@pytest.mark.parametrize("churn", [False, True])
def test_batched_fanout_matches_scalar(delay, churn):
    with scalar_fanout():
        scalar = _run_group_scenario(delay=delay, churn=churn)
    batched = _run_group_scenario(delay=delay, churn=churn)
    assert batched == scalar


def test_shared_rng_spoiler_still_matches_scalar():
    """A grouped candidate whose rng is drawn by another model must fall
    back to in-order rows — and still reproduce the scalar results."""
    with scalar_fanout():
        scalar = _run_group_scenario(shared_rng=True)
    batched = _run_group_scenario(shared_rng=True)
    assert batched == scalar


def _run_channel_scenario():
    """A unicast channel whose propagation delay outlasts its service time."""
    env = Environment()
    channel = Channel(
        env,
        rate_kbps=20.0,
        loss=BernoulliLoss(0.3, rng=random.Random(5)),
        delay=0.25,
    )
    arrivals = []
    channel.subscribe(lambda p: arrivals.append((env.now, p.seq)))

    def driver(env):
        for seq in range(40):
            channel.send(Packet(seq=seq))
            yield env.timeout(0.03)

    env.process(driver(env))
    env.run(until=10.0)
    return arrivals


def test_channel_delayed_delivery_matches_scalar():
    with scalar_fanout():
        scalar = _run_channel_scenario()
    assert 0 < len(scalar) < 40
    assert _run_channel_scenario() == scalar


def _delivered_records(**scenario):
    """The scenario's ``packet_delivered`` trace rows, ``chan`` blanked.

    Channel labels come from a process-global counter outside a cell,
    so two runs in one process label the same channel differently.
    """
    tracer = Tracer(categories=[PACKET])
    with tracing(tracer):
        _run_group_scenario(**scenario)
    return [
        (t, {**fields, "chan": None})
        for t, _, event, fields in tracer.records(PACKET)
        if event == "packet_delivered"
    ]


@pytest.mark.parametrize("delay", [0.0, 0.25])
def test_batched_fanout_traces_deliveries_like_scalar(delay):
    """Every row kind emits the same ``packet_delivered`` fields (``key``
    included) at the same times as the reference loop."""
    with scalar_fanout():
        scalar = _delivered_records(delay=delay, churn=True)
    batched = _delivered_records(delay=delay, churn=True)
    assert scalar and {"key", "seq", "receiver"} <= set(scalar[0][1])
    assert batched == scalar


def test_scalar_fanout_restores_the_production_paths():
    before = (
        MulticastChannel.__dict__["_fanout_batched"],
        Channel.__dict__["_enqueue_delayed"],
    )
    with scalar_fanout():
        assert MulticastChannel.__dict__["_fanout_batched"] is not before[0]
    assert (
        MulticastChannel.__dict__["_fanout_batched"],
        Channel.__dict__["_enqueue_delayed"],
    ) == before


def test_registry_reused_and_invalidated_on_churn():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None, loss=NoLoss())
    mc.send(Packet(seq=0))
    env.run(until=1.0)
    first = mc._registry
    assert first is not None
    mc.send(Packet(seq=1))
    env.run(until=2.0)
    assert mc._registry is first  # stable membership: no rebuild
    mc.join("b", lambda p: None, loss=NoLoss())
    assert mc._registry is None  # churn dropped the cache
    mc.send(Packet(seq=2))
    env.run(until=3.0)
    assert mc._registry is not first


def test_invalidate_registry_picks_up_in_place_model_change():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    got = []
    model = BernoulliLoss(0.0, rng=random.Random(3))
    mc.join("a", lambda p: got.append(p.seq), loss=model)
    mc.send(Packet(seq=0))
    env.run(until=1.0)
    assert got == [0]
    model.rate = 1.0  # in-place mutation: the cached row is now stale
    mc.invalidate_registry()
    mc.send(Packet(seq=1))
    env.run(until=2.0)
    assert got == [0]


def test_multicast_send_traces_packet_enqueued():
    tracer = Tracer(categories=[PACKET])
    with tracing(tracer):
        env = Environment()
        mc = MulticastChannel(env, rate_kbps=10.0)
        mc.join("a", lambda p: None)
        mc.send(Packet(seq=0))
        mc.send(Packet(seq=1))
        env.run(until=1.0)
    enqueued = [r for r in tracer.records(PACKET) if r[2] == "packet_enqueued"]
    assert [(r[3]["seq"], r[3]["backlog"]) for r in enqueued] == [
        (0, 0),
        (1, 1),
    ]


def test_observed_loss_rate_aggregate_and_per_receiver():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("clean", lambda p: None, loss=NoLoss())
    mc.join("half", lambda p: None, loss=DeterministicLoss(period=2))
    for seq in range(4):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert mc.receiver_loss_rates == {
        "clean": 0.0,
        "half": pytest.approx(0.5),
    }
    assert mc.observed_loss_rate == pytest.approx(0.25)


def test_observed_loss_rate_counts_blocked_members_as_exposed():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("up", lambda p: None, loss=NoLoss())
    mc.join("cut", lambda p: None, loss=NoLoss())
    mc.block("cut")
    for seq in range(5):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    assert mc.receiver_loss_rates == {"up": 0.0, "cut": 1.0}
    assert mc.observed_loss_rate == pytest.approx(0.5)


def test_observed_loss_rate_stops_accruing_after_leave():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    mc.join("a", lambda p: None, loss=NoLoss())
    mc.join("b", lambda p: None, loss=TotalLoss())

    def churn(env):
        yield env.timeout(0.25)  # after 2 packets serviced
        mc.leave("b")

    env.process(churn(env))
    for seq in range(4):
        mc.send(Packet(seq=seq))
    env.run(until=10.0)
    # b saw only the first 2 announcements; a saw all 4.
    assert mc.receiver_loss_rates == {"a": 0.0, "b": 1.0}
    assert mc.observed_loss_rate == pytest.approx(2 / 6)


def test_observed_loss_rate_empty_session_is_zero():
    env = Environment()
    mc = MulticastChannel(env, rate_kbps=10.0)
    assert mc.observed_loss_rate == 0.0
    assert mc.receiver_loss_rates == {}
