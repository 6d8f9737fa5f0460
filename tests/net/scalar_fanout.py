"""The scalar fan-out: the defining reference for the channels' fast paths.

``MulticastChannel`` compiles its receiver set into a dense dispatch
registry, and both channels drain delayed deliveries from one persistent
process.  This module keeps the loop those replaced: one ``is_lost()``
draw per receiver in join order and one short-lived process per delayed
packet.  Tests and ``benchmarks/bench_kernel.py`` run a scenario inside
:func:`scalar_fanout` and again outside it, then require identical
results on identical seeds::

    with scalar_fanout():
        reference = run_scenario()
    assert run_scenario() == reference
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.net.channel import Channel, MulticastChannel
from repro.obs.trace import PACKET


def _deliver_after(env, delay: float, deliver, packet):
    yield env.timeout(delay)
    deliver(packet)


def _enqueue_delayed(channel: Channel, packet) -> None:
    """``Channel``'s delayed delivery: one process per packet."""
    channel.env.process(
        _deliver_after(channel.env, channel.delay, channel._deliver, packet)
    )


def _fanout(channel: MulticastChannel, packet, tr, trace_packets: bool):
    """The per-receiver multicast loop, in join order."""
    outcomes: Dict[Any, bool] = {}
    upstream_lost = channel.shared_loss.is_lost()
    delivered = channel.delivered_per_receiver
    for receiver_id, (loss, sink) in list(channel._receivers.items()):
        if receiver_id in channel._blocked:
            outcomes[receiver_id] = True
            continue
        lost = upstream_lost or loss.is_lost()
        outcomes[receiver_id] = lost
        if lost:
            continue
        delivered[receiver_id] += 1
        delivery = packet.copy_for(receiver_id)
        if trace_packets:
            tr.emit(
                PACKET,
                "packet_delivered",
                channel.env.now,
                kind=packet.kind,
                key=packet.key,
                seq=packet.seq,
                receiver=receiver_id,
                chan=channel.chan,
            )
        if channel.delay > 0:
            channel.env.process(
                _deliver_after(channel.env, channel.delay, sink, delivery)
            )
        else:
            sink(delivery)
    return outcomes


@contextmanager
def scalar_fanout() -> Iterator[None]:
    """Run both channels on the scalar reference paths inside the block."""
    patches = [
        (MulticastChannel, "_fanout_batched", _fanout),
        (Channel, "_enqueue_delayed", _enqueue_delayed),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, reference in patches:
        setattr(cls, name, reference)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
