"""Per-layer tracing for the benchmark, installed from outside ``src/``.

:class:`Tracer` keeps a stack of open spans and folds every closed span
into a *self time* bucket: the span's duration minus the time its
child spans cover.  Calls are synchronous and single-threaded, so child
spans never overlap and the covered time is the sum of the direct
children's durations.  Counts are recorded at the same boundaries.

:class:`Instrumentation` wraps the public functions of each repro layer,
plus the channels' fan-out and delivery loops, which run inside the DES
kernel with no public call around them
(class methods patched on the class, module functions replaced in every
loaded ``repro`` module that holds them) and restores the originals on
exit.  Nothing inside the program changes, and the wrappers only
observe: arguments and results pass through untouched.

Layer catalogue (bucket names are the per-layer metric names):

=====================  =================================================
``des``                ``Environment.run`` (``des.self_s``, ``des.run_s``)
``core.record``        ``SoftStateTable.put/refresh/delete/expire``
``core.consistency``   ``ConsistencyMeter.instantaneous``
``sched``              ``enqueue/dequeue/remove`` of every scheduler
``obs.metrics``        ``Counter.inc``, ``Gauge.set``, ``Histogram.observe``
``net``                loss-model draws, channel/link sends, multicast
                       fan-out and unicast delivery loops
``experiments.runner`` ``map_cells``
``cache``              ``ResultCache.load/store``
``fluid``              ``solve``, ``solve_many``
``experiments``        ``run_experiment`` (experiment code outside the
                       layers above: set-up, analysis, rendering)
=====================  =================================================

Every receiver sink a channel calls gets a span in ``des.self_s``, so
protocol code run on delivery is not charged to ``net``.
"""

from __future__ import annotations

import collections
import itertools
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every self-time bucket a traced pass can fill, in report order.
TIME_BUCKETS = (
    "des.self_s",
    "core.record.write_s",
    "core.record.expire_s",
    "core.consistency.sample_s",
    "sched.s",
    "obs.metrics.s",
    "net.loss_s",
    "net.send_s",
    "runner.self_s",
    "cache.load_s",
    "cache.store_s",
    "fluid.solve_s",
    "experiments.self_s",
    "trace.unattributed_s",
)

#: Buckets that take whatever code runs under them and no named layer
#: span: they are left out of the attributed share of a traced pass.
CATCH_ALL_BUCKETS = ("runner.self_s", "experiments.self_s", "trace.unattributed_s")

#: Inclusive (outermost-call) durations, reported beside the self times.
INCLUSIVE_BUCKETS = ("des.run_s", "runner.map_cells_s")

#: Deterministic operation counts, pure functions of the workload seed.
COUNTS = (
    "core.record.writes",
    "core.record.expire_calls",
    "core.record.expire_scanned",
    "core.record.expire_lapsed",
    "core.consistency.samples",
    "core.consistency.records",
    "sched.ops",
    "sched.remove_calls",
    "sched.remove_scanned",
    "obs.metrics.updates",
    "net.loss_draws",
    "net.fanout_rows",
    "net.transmits",
    "net.deliveries",
    "runner.cells",
    "cache.hits",
    "cache.misses",
    "cache.bytes",
    "fluid.points",
)


#: One closed span, kept only when a tracer records spans.
Span = collections.namedtuple("Span", "ident parent bucket start end")


class Tracer:
    """Self-time buckets, inclusive times and counts for one traced pass.

    A frame on the stack is ``[child_s, op, ident]``: the duration its
    closed children covered so far, the operation name (used to count a
    call once when an override delegates to its base class), and, when
    spans are kept, the span id.
    """

    def __init__(self, keep_spans: bool = False, clock=time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.inclusive_s: Dict[str, float] = collections.defaultdict(float)
        self.counts: collections.Counter = collections.Counter()
        self.spans: Optional[List[Span]] = [] if keep_spans else None
        self._stack: List[list] = []
        self._ids = itertools.count()

    def current_op(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def wrap(
        self,
        fn: Callable,
        bucket: str,
        op: str,
        count: Optional[str] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        inclusive: Optional[str] = None,
    ) -> Callable:
        """``fn`` inside a span whose self time goes to ``bucket``.

        ``count`` names a count bumped per call, ``before(args, kwargs)``
        and ``after(args, kwargs, result)`` record other counts, and
        ``inclusive`` names a bucket for the whole duration.  All four
        apply only to the outer call of ``op``, so an override
        delegating to its base class is counted once.
        """
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        counts = self.counts
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[1] != op
            if outer:
                if count is not None:
                    counts[count] += 1
                if before is not None:
                    before(args, kwargs)
            frame = [0.0, op, None if spans is None else next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[bucket] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if inclusive is not None and outer:
                    inclusive_s[inclusive] += elapsed
                if spans is not None:
                    parent_id = None if parent is None else parent[2]
                    spans.append(Span(frame[2], parent_id, bucket, start, end))
            if after is not None and outer:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- reporting --------------------------------------------------------
    def report(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for bucket in TIME_BUCKETS:
            out[bucket] = self.self_s.get(bucket, 0.0)
        for bucket in INCLUSIVE_BUCKETS:
            out[bucket] = self.inclusive_s.get(bucket, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out


class Instrumentation:
    """Install layer wrappers for a traced pass; restore on exit.

    Use as ``with Instrumentation(tracer): ...``.  Only attributes that
    a class defines itself are patched, so an override and the base
    method it delegates to are both wrapped and the call is counted
    once (see ``Tracer.wrap``).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- patching primitives ------------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_method(self, cls: type, name: str, bucket: str, op: str, **hooks):
        if name in cls.__dict__:
            original = cls.__dict__[name]
            self._patch(cls, name, self.tracer.wrap(original, bucket, op, **hooks))

    def _patch_function(self, fn: Callable, bucket: str, op: str, **hooks):
        """Replace ``fn`` wherever a loaded repro module holds it."""
        wrapped = self.tracer.wrap(fn, bucket, op, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- the layer catalogue -----------------------------------------------
    def _install(self) -> None:
        # Imported here so importing this module never loads the program.
        import repro.experiments  # noqa: F401  (loads every layer module)
        import repro.sched
        from repro.cache.store import ResultCache
        from repro.core.consistency import ConsistencyMeter
        from repro.core.record import SoftStateTable
        from repro.des.core import Environment
        from repro.experiments import registry, runner
        from repro.fluid import model as fluid_model
        from repro.net.channel import Channel, MulticastChannel
        from repro.net.link import Link
        from repro.net.loss import LossModel
        from repro.obs.metrics import Counter, Gauge, Histogram

        counts = self.tracer.counts
        tracer = self.tracer

        # des: the kernel loop; its self time is dispatch plus protocol
        # code that no other layer's span covers.
        self._patch_method(
            Environment, "run", "des.self_s", "des.run", inclusive="des.run_s"
        )

        # core.record
        for name in ("put", "refresh", "delete"):
            self._patch_method(
                SoftStateTable,
                name,
                "core.record.write_s",
                f"record.{name}",
                count="core.record.writes",
            )

        def before_expire(args, kwargs):
            counts["core.record.expire_scanned"] += len(args[0])

        def after_expire(args, kwargs, result):
            counts["core.record.expire_lapsed"] += len(result)

        self._patch_method(
            SoftStateTable,
            "expire",
            "core.record.expire_s",
            "record.expire",
            count="core.record.expire_calls",
            before=before_expire,
            after=after_expire,
        )

        # core.consistency: one sample walks subscribers x live records;
        # the live set is the publisher's live_records() result.
        sample_subscribers = [0]

        def before_sample(args, kwargs):
            sample_subscribers[0] = len(args[0].subscribers)

        self._patch_method(
            ConsistencyMeter,
            "instantaneous",
            "core.consistency.sample_s",
            "consistency.sample",
            count="core.consistency.samples",
            before=before_sample,
        )
        live_records = SoftStateTable.__dict__["live_records"]

        def counted_live_records(table, now):
            live = live_records(table, now)
            if tracer.current_op() == "consistency.sample":
                counts["core.consistency.records"] += (
                    len(live) * sample_subscribers[0]
                )
            return live

        self._patch(SoftStateTable, "live_records", counted_live_records)

        # sched: every scheduler's own enqueue/dequeue/remove.
        def before_remove(args, kwargs):
            counts["sched.remove_calls"] += 1
            name = args[1] if len(args) > 1 else kwargs["name"]
            counts["sched.remove_scanned"] += args[0].backlog(name)

        for cls_name in repro.sched.__all__:
            cls = getattr(repro.sched, cls_name)
            if not isinstance(cls, type) or issubclass(cls, Exception):
                continue
            for name in ("enqueue", "dequeue"):
                self._patch_method(
                    cls, name, "sched.s", f"sched.{name}", count="sched.ops"
                )
            self._patch_method(
                cls,
                "remove",
                "sched.s",
                "sched.remove",
                count="sched.ops",
                before=before_remove,
            )

        # obs.metrics
        for cls, name in ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe")):
            self._patch_method(
                cls, name, "obs.metrics.s", "metrics.update",
                count="obs.metrics.updates",
            )

        # net: loss draws, sends, fan-out and delivery loops.  Sinks are
        # receiver protocol code: each call is a delivery and its own
        # span in des.self_s, so only the loop itself is net time.
        def count_batch(args, kwargs):
            counts["net.loss_draws"] += args[1] if len(args) > 1 else kwargs["n"]

        for cls in _subclasses(LossModel):
            self._patch_method(
                cls, "is_lost", "net.loss_s", "net.loss", count="net.loss_draws"
            )
            self._patch_method(
                cls, "draw_batch", "net.loss_s", "net.loss", before=count_batch
            )

        for cls in (Channel, MulticastChannel, Link):
            for name in ("transmit", "send"):
                self._patch_method(
                    cls, name, "net.send_s", "net.send", count="net.transmits"
                )
        for cls, name in (
            (Channel, "_deliver"),
            (Link, "_deliver"),
            (MulticastChannel, "_fanout_batched"),
            (MulticastChannel, "_fanout_scalar"),
        ):
            self._patch_method(cls, name, "net.send_s", "net.fanout")

        def counted(sink):
            return tracer.wrap(sink, "des.self_s", "net.sink", count="net.deliveries")

        def counted_subscribe(original):
            def subscribe(channel, sink):
                return original(channel, counted(sink))

            return subscribe

        for cls in (Channel, Link):
            self._patch(
                cls, "subscribe", counted_subscribe(cls.__dict__["subscribe"])
            )

        join = MulticastChannel.__dict__["join"]

        def counted_join(channel, receiver_id, sink, loss=None):
            return join(channel, receiver_id, counted(sink), loss)

        self._patch(MulticastChannel, "join", counted_join)

        # Multicast fan-out draws most per-receiver losses inline (the
        # uniform-Bernoulli loop never calls is_lost), so rows are
        # counted from the public on_serviced outcome dict instead.
        multicast_init = MulticastChannel.__dict__["__init__"]

        def count_rows(packet, outcomes):
            counts["net.fanout_rows"] += len(outcomes)

        def counted_init(channel, *args, **kwargs):
            multicast_init(channel, *args, **kwargs)
            channel.on_serviced(count_rows)

        self._patch(MulticastChannel, "__init__", counted_init)

        # experiments.runner
        def before_map(args, kwargs):
            cells = args[1] if len(args) > 1 else kwargs["cells"]
            counts["runner.cells"] += len(cells)

        self._patch_function(
            runner.map_cells,
            "runner.self_s",
            "runner.map_cells",
            before=before_map,
            inclusive="runner.map_cells_s",
        )

        # experiments: run_experiment's own code (building sessions,
        # analysis, rendering) outside every layer above.
        self._patch_function(
            registry.run_experiment, "experiments.self_s", "experiment"
        )

        # cache
        def after_load(args, kwargs, entry):
            cache, key = args[0], args[1]
            if entry is None:
                counts["cache.misses"] += 1
            else:
                counts["cache.hits"] += 1
                counts["cache.bytes"] += _size(cache.path_for(key))

        def after_store(args, kwargs, stored):
            if stored:
                counts["cache.bytes"] += _size(args[0].path_for(args[1]))

        self._patch_method(
            ResultCache, "load", "cache.load_s", "cache.load", after=after_load
        )
        self._patch_method(
            ResultCache, "store", "cache.store_s", "cache.store", after=after_store
        )

        # fluid: solve() delegates to solve_many(); the grid is counted
        # once, at the outer call.
        def count_points(args, kwargs):
            grid = args[0] if args else kwargs["params_list"]
            counts["fluid.points"] += len(grid)

        self._patch_function(
            fluid_model.solve_many, "fluid.solve_s", "fluid.solve",
            before=count_points,
        )
        self._patch_function(
            fluid_model.solve, "fluid.solve_s", "fluid.solve", count="fluid.points"
        )


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
