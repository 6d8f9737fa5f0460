"""Sharded DES receiver populations (docs/SCALE.md).

The feedback sessions couple receivers to the sender schedule (a NACK
moves a record between queues), so they cannot be partitioned without
changing results.  Pure announce/listen *can*: the sender's schedule is
a function of ``(parameters, seed)`` only, so K shards that each
replicate the sender and simulate a disjoint slice of the receiver set
produce — packet for packet — the runs a single monolithic session
would, as long as per-receiver randomness is keyed by *global* receiver
index.

Determinism contract (shard-count invariance):

* the sender round-robins the record set in pull mode, consuming no
  randomness — every shard replays the identical announcement schedule;
* receiver ``i`` draws its loss (and churn) from
  ``RngStreams(seed).spawn(f"rcv-{i}")``, keyed by the global index
  ``i`` — the draw sequence a receiver sees is independent of which
  shard simulates it or how many shards exist;
* shards return **integer** series and counts only (held-pair counts on
  a shared tick grid, false-expiry and delivery counts), so the merge
  is elementwise integer addition — associative and therefore
  byte-identical for any K and any ``--jobs`` (floats are derived once,
  after the merge).

Held-pair sampling uses a difference array: a delivery at time ``t``
with deadline ``d`` increments ``inc[ceil(t/w)]`` and ``dec[ceil(d/w)]``
(a refresh cancels the old deadline's decrement), so sampling is O(1)
per delivery with no timer churn — the convention is *held at tick T
iff delivered at or before T and deadline strictly after T*.

:class:`ShardedMulticastSession` fans the shards out over the existing
process pool via ``map_cells`` (so the result cache and telemetry see
ordinary cells) and merges the per-shard fan-out delivery counts,
recovery metrics, and trace streams deterministically; ``ext_scale``
uses the same :func:`shard_cell` directly as its experiment cell.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.des import Environment
from repro.des.rng import RngStreams
from repro.net.channel import MulticastChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.packet import Packet
from repro.obs import runtime as _obs
from repro.obs.trace import RUN as _RUN

__all__ = [
    "ScaleListenerSession",
    "ShardedMulticastSession",
    "merge_shards",
    "shard_bounds",
    "shard_cell",
    "shard_metrics",
]


def shard_bounds(n_receivers: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` global-index slices, remainder up front."""
    if n_receivers < 1:
        raise ValueError(f"need at least one receiver, got {n_receivers}")
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    shards = min(shards, n_receivers)
    base, extra = divmod(n_receivers, shards)
    bounds = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ScaleListenerSession:
    """Pure announce/listen over one shard of a receiver population.

    The sender serializes the ``n_records`` store round-robin in pull
    mode at exactly one full pass per ``refresh_interval``; receivers
    are pure listeners holding each record for ``timeout_multiple``
    refresh intervals past its last receipt.  ``shard=(lo, hi)``
    simulates global receivers ``lo..hi-1`` (default: all of them).
    """

    def __init__(
        self,
        n_receivers: int,
        loss_rate: float,
        *,
        refresh_interval: float = 1.0,
        n_records: int = 4,
        timeout_multiple: int = 4,
        seed: int = 0,
        shard: Optional[Tuple[int, int]] = None,
        shard_index: int = 0,
        churn_rate: float = 0.0,
        burst_length: Optional[float] = None,
        tick: float = 1.0,
    ) -> None:
        if n_receivers < 1:
            raise ValueError(f"need at least one receiver, got {n_receivers}")
        if not 0.0 < loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in (0, 1), got {loss_rate}")
        if n_records < 1:
            raise ValueError(f"need at least one record, got {n_records}")
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self.n_receivers = n_receivers
        self.loss_rate = loss_rate
        self.refresh_interval = refresh_interval
        self.n_records = n_records
        self.timeout_multiple = timeout_multiple
        self.seed = seed
        self.shard = shard if shard is not None else (0, n_receivers)
        self.shard_index = shard_index
        self.churn_rate = churn_rate
        self.burst_length = burst_length
        self.tick = tick
        lo, hi = self.shard
        if not 0 <= lo < hi <= n_receivers:
            raise ValueError(f"shard {self.shard} outside [0, {n_receivers})")

    def _loss_model(self, family: RngStreams):
        rng = family["loss"]
        if self.burst_length is None:
            return BernoulliLoss(self.loss_rate, rng=rng)
        return GilbertElliottLoss.with_mean(
            self.loss_rate, burst_length=self.burst_length, rng=rng
        )

    def run(self, horizon: float) -> Dict[str, Any]:
        """Simulate the shard; returns integer-valued mergeable data."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        lo, hi = self.shard
        env = Environment()
        rng = RngStreams(self.seed)
        # One full store pass per refresh interval: with the default
        # 1000-bit packets, kbps == packets/s (see repro.net.packet).
        channel = MulticastChannel(env, self.n_records / self.refresh_interval)
        hold = self.timeout_multiple * self.refresh_interval
        tick = self.tick
        n_ticks = int(round(horizon / tick))
        limit = n_ticks + 1  # overflow slot: deadlines past the horizon
        inc = [0] * (n_ticks + 2)
        dec = [0] * (n_ticks + 2)
        expiries = [0]
        memo = [None, 0, 0.0, 0]  # see _make_sink
        tables: List[Dict[int, float]] = []
        for rid in range(lo, hi):
            family = rng.spawn(f"rcv-{rid}")
            table: Dict[int, float] = {}
            tables.append(table)
            channel.join(
                rid,
                _make_sink(
                    env, table, inc, dec, expiries, tick, hold, limit, memo
                ),
                loss=self._loss_model(family),
            )
            if self.churn_rate > 0.0:
                env.process(
                    _churn(
                        env,
                        family["churn"],
                        self.churn_rate,
                        table,
                        dec,
                        expiries,
                        tick,
                        limit,
                    )
                )
        env.process(self._announce(env, channel))
        tr = _obs.current_tracer()
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "shard_start",
                0.0,
                shard=self.shard_index,
                lo=lo,
                hi=hi,
                receivers=hi - lo,
            )
        env.run(until=horizon)
        # Lazy false-expiry counting: re-deliveries counted theirs in
        # the sink; whatever expired and was never refreshed is swept
        # here.  (The publisher is live for the whole run, so every
        # timeout is a *false* expiry.)
        for table in tables:
            for deadline in table.values():
                # Strict <: a deadline exactly at the horizon may still
                # be refreshed by the announcement arriving with it.
                if deadline < horizon:
                    expiries[0] += 1
        held = []
        level = 0
        for index in range(n_ticks + 1):
            level += inc[index] - dec[index]
            held.append(level)
        delivered = channel.delivered_per_receiver
        result = {
            "shard": self.shard_index,
            "lo": lo,
            "hi": hi,
            "n_receivers": self.n_receivers,
            "n_records": self.n_records,
            "tick": tick,
            "horizon": float(horizon),
            "held": held,
            "false_expiries": expiries[0],
            "deliveries": [delivered.get(rid, 0) for rid in range(lo, hi)],
            "packets_sent": channel.packets_sent,
        }
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "shard_end",
                float(horizon),
                shard=self.shard_index,
                held=held[-1],
                false_expiries=expiries[0],
            )
        return result

    def _announce(self, env: Environment, channel: MulticastChannel):
        """Round-robin the store in pull mode: zero randomness, so the
        schedule replays identically in every shard."""
        seq = 0
        records = self.n_records
        while True:
            yield channel.transmit(
                Packet(kind="announce", key=seq % records, seq=seq)
            )
            seq += 1


def _make_sink(env, table, inc, dec, expiries, tick, hold, limit, memo):
    """Per-receiver delivery callback updating the difference arrays.

    ``memo`` is shared by every sink of the shard and holds ``[now,
    slot(now), now + hold, slot(now + hold)]`` for the last delivery
    instant.  A burst reaches all its receivers while ``env._now`` is
    one float object, so the first sink computes the two slots and the
    rest reuse the same floats and indices.  The memo is keyed on that
    object's identity, not on float equality: a miss only recomputes
    the same values, so a hit can never differ from a fresh computation.
    """
    ceil = math.ceil

    def sink(packet: Packet) -> None:
        now = env._now
        if memo[0] is not now:
            new_deadline = now + hold
            memo[:] = (
                now,
                min(ceil(now / tick), limit),
                new_deadline,
                min(ceil(new_deadline / tick), limit),
            )
        _, now_slot, new_deadline, deadline_slot = memo
        key = packet.key
        deadline = table.get(key)
        # The >= matters: with period-aligned announcements the m-th
        # announcement after a receipt arrives *exactly* at the
        # deadline, and the epoch chain (expiry = m consecutive
        # losses) counts that arrival as a refresh, not an expiry.
        if deadline is not None and deadline >= now:
            # Refresh while held: move the pending decrement.
            dec[min(ceil(deadline / tick), limit)] -= 1
        else:
            if deadline is not None:
                # Expired earlier and only now re-delivered: that gap
                # was a false expiry (counted lazily, exactly once).
                expiries[0] += 1
            inc[now_slot] += 1
        dec[deadline_slot] += 1
        table[key] = new_deadline

    return sink


def _churn(env, stream, rate, table, dec, expiries, tick, limit):
    """Receiver resets (leave + naive rejoin): forget all held records."""
    ceil = math.ceil
    draw = stream.expovariate
    while True:
        yield env.timeout(draw(rate))
        now = env._now
        for deadline in table.values():
            if deadline >= now:
                dec[min(ceil(deadline / tick), limit)] -= 1
                dec[min(ceil(now / tick), limit)] += 1
            else:
                expiries[0] += 1
        table.clear()


def shard_cell(
    *,
    n_receivers: int,
    lo: int,
    hi: int,
    shard: int,
    loss_rate: float,
    seed: int,
    horizon: float,
    refresh_interval: float = 1.0,
    n_records: int = 4,
    timeout_multiple: int = 4,
    churn_rate: float = 0.0,
    burst_length: Optional[float] = None,
    tick: float = 1.0,
) -> Dict[str, Any]:
    """Module-level cell: one shard, picklable and cacheable."""
    _obs.note_shard({"index": shard, "lo": lo, "hi": hi})
    session = ScaleListenerSession(
        n_receivers,
        loss_rate,
        refresh_interval=refresh_interval,
        n_records=n_records,
        timeout_multiple=timeout_multiple,
        seed=seed,
        shard=(lo, hi),
        shard_index=shard,
        churn_rate=churn_rate,
        burst_length=burst_length,
        tick=tick,
    )
    return session.run(horizon=horizon)


def merge_shards(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard results into the monolithic session's view.

    Everything merged here is an integer (held-pair counts sum
    elementwise, delivery lists concatenate in global receiver order,
    expiry counts add), so the result is identical for every shard
    count — including K=1 — and every ``--jobs`` value.
    """
    if not rows:
        raise ValueError("need at least one shard result")
    ordered = sorted(rows, key=lambda row: row["lo"])
    expected_lo = 0
    for row in ordered:
        if row["lo"] != expected_lo:
            raise ValueError(
                f"shards do not tile the receiver set: gap at {expected_lo}"
            )
        expected_lo = row["hi"]
    first = ordered[0]
    if expected_lo != first["n_receivers"]:
        raise ValueError(
            f"shards cover {expected_lo} of {first['n_receivers']} receivers"
        )
    held = [0] * len(first["held"])
    deliveries: List[int] = []
    false_expiries = 0
    for row in ordered:
        if row["packets_sent"] != first["packets_sent"]:
            raise ValueError("shards disagree on the announcement schedule")
        for index, count in enumerate(row["held"]):
            held[index] += count
        deliveries.extend(row["deliveries"])
        false_expiries += row["false_expiries"]
    # Deliberately no shard-count field: the merged view is the
    # monolithic session's view, byte-identical for every K.
    return {
        "n_receivers": first["n_receivers"],
        "n_records": first["n_records"],
        "tick": first["tick"],
        "horizon": first["horizon"],
        "held": held,
        "false_expiries": false_expiries,
        "deliveries": deliveries,
        "packets_sent": first["packets_sent"],
    }


def shard_metrics(merged: Dict[str, Any]) -> Dict[str, float]:
    """Consistency metrics from a merged run — floats derived once.

    ``consistency`` is the tail average of the held fraction (the
    empirical equilibrium over the last fifth of the ticks);
    time-to-reconsistency thresholds are relative to it, mirroring the
    fluid summary.
    """
    pairs = merged["n_receivers"] * merged["n_records"]
    held = merged["held"]
    tick = merged["tick"]
    window = max(1, len(held) // 5)
    tail = sum(held[-window:]) / (window * pairs)
    times = {q: math.nan for q in (0.5, 0.9, 0.99)}
    for index, count in enumerate(held):
        for q in times:
            if math.isnan(times[q]) and count >= q * tail * pairs:
                times[q] = index * tick
    return {
        "consistency": tail,
        "t50_s": times[0.5],
        "t90_s": times[0.9],
        "t99_s": times[0.99],
        "false_expiry_per_s": merged["false_expiries"] / merged["horizon"],
        "delivered_total": float(sum(merged["deliveries"])),
    }


class ShardedMulticastSession:
    """Partition a receiver population over the process pool.

    Builds one :func:`shard_cell` per shard, fans them out with
    ``map_cells`` (sequentially for ``jobs<=1``), emits a
    ``shard_merge`` trace instant, and returns the deterministic merge.
    Standalone counterpart of the ``ext_scale`` experiment path — both
    share the same cell function, so cached shard results are reused
    across the two entry points.
    """

    def __init__(
        self,
        n_receivers: int,
        shards: int,
        loss_rate: float,
        *,
        refresh_interval: float = 1.0,
        n_records: int = 4,
        timeout_multiple: int = 4,
        seed: int = 0,
        churn_rate: float = 0.0,
        burst_length: Optional[float] = None,
        tick: float = 1.0,
    ) -> None:
        self.n_receivers = n_receivers
        self.shards = shards
        self.loss_rate = loss_rate
        self.refresh_interval = refresh_interval
        self.n_records = n_records
        self.timeout_multiple = timeout_multiple
        self.seed = seed
        self.churn_rate = churn_rate
        self.burst_length = burst_length
        self.tick = tick

    def cells(self, horizon: float) -> List[Dict[str, Any]]:
        return [
            {
                "n_receivers": self.n_receivers,
                "lo": lo,
                "hi": hi,
                "shard": index,
                "loss_rate": self.loss_rate,
                "seed": self.seed,
                "horizon": float(horizon),
                "refresh_interval": self.refresh_interval,
                "n_records": self.n_records,
                "timeout_multiple": self.timeout_multiple,
                "churn_rate": self.churn_rate,
                "burst_length": self.burst_length,
                "tick": self.tick,
            }
            for index, (lo, hi) in enumerate(
                shard_bounds(self.n_receivers, self.shards)
            )
        ]

    def run(self, horizon: float, jobs: int = 1) -> Dict[str, Any]:
        """Returns ``{"merged": ..., "metrics": ..., "per_shard": ...}``."""
        # Imported here, not at module top: repro.experiments imports
        # the protocols package, so the runner must not be a load-time
        # dependency of it.
        from repro.experiments.runner import map_cells

        rows = map_cells(shard_cell, self.cells(horizon), jobs=jobs)
        tr = _obs.current_tracer()
        if tr is not None and tr.run:
            tr.emit(
                _RUN,
                "shard_merge",
                None,
                shards=len(rows),
                receivers=self.n_receivers,
            )
        merged = merge_shards(rows)
        return {
            "shards": len(rows),
            "merged": merged,
            "metrics": shard_metrics(merged),
            "per_shard": rows,
        }
