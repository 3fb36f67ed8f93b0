"""Span ledger for the traced run: wraps layer entry points from outside.

Each wrapper records one span per call — its name, start and end
(``perf_counter_ns``) and the index of the enclosing span — into flat
arrays that stay in memory until the run ends.  A span's self time is
its duration minus the time its direct children cover; summing self
time by layer gives the per-layer ledger.  The runtime itself is not
modified: wrappers are installed on the classes (so handler tables that
bind methods at boot pick them up) and removed again afterwards.

Work a wrapped function does in code that is not wrapped — behaviour
method bodies, helpers, callbacks the engine invokes directly — counts
as that function's self time, so the ledger attributes it to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Dict, Iterable, List, Tuple

from repro.am.bulk import BulkManager
from repro.am.cmam import Endpoint
from repro.am.reliable import ReliableTransport
from repro.platform.mp import MpMachine
from repro.runtime.calls import ContinuationTable, GeneratorDriver, ReplyRouter
from repro.runtime.creation import CreationService
from repro.runtime.delivery import DeliveryService
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.execution import Execution
from repro.runtime.loadbalance import LoadBalancer
from repro.runtime.migration import MigrationService
from repro.runtime.system import HalRuntime
from repro.sim.engine import SimNode, Simulator
from repro.sim.network import Network

Target = Tuple[type, Tuple[str, ...], str]

#: Driver-side entry points, wrapped on every backend.
DRIVER_TARGETS: List[Target] = [
    (HalRuntime, ("call", "send", "spawn", "run"), "runtime.system"),
    (MpMachine, ("command", "broadcast_command", "run", "_start_detection",
                 "_refresh"), "platform.driver"),
]

#: In-process layers, wrapped when the kernels run in the driver (sim).
KERNEL_TARGETS: List[Target] = [
    (Simulator, ("run", "step"), "sim.engine"),
    (SimNode, ("_run", "_run_preempting", "bootstrap"), "sim.engine"),
    (Network, ("unicast",), "sim.network"),
    (Endpoint, ("send", "send_raw", "_deliver", "run_local"), "am.cmam"),
    (BulkManager, ("send_bulk",), "am.bulk"),
    (ReliableTransport, ("send",), "am.reliable"),
    (Dispatcher, ("enqueue", "enqueue_actor", "_slice", "steal_one"),
     "runtime.dispatcher"),
    (Execution, ("deliver_local", "actor_slice", "fire_continuation",
                 "run_task", "invoke", "try_inline", "drain_pending"),
     "runtime.execution"),
    (GeneratorDriver, ("start", "_advance"), "runtime.calls"),
    (ReplyRouter, ("send_reply", "fill", "on_reply"), "runtime.calls"),
    (ContinuationTable, ("new",), "runtime.calls"),
    (DeliveryService, ("send_message", "transmit", "on_deliver_keyed",
                       "on_deliver_direct", "route_via_descriptor",
                       "flush_deferred", "on_cache_addr"), "runtime.delivery"),
    (CreationService, ("create", "create_local", "create_remote",
                       "on_create_remote", "on_create_request", "spawn_task",
                       "on_task_spawn"), "runtime.creation"),
    (MigrationService, ("start", "on_migrate_arrive", "on_migrate_ack",
                        "on_fir", "on_fir_reply"), "runtime.migration"),
    (LoadBalancer, ("kick", "_poll", "on_steal_req", "on_steal_grant",
                    "on_steal_deny"), "runtime.loadbalance"),
]


class SpanLedger:
    """Flat, append-only span store plus the wrappers that feed it.

    ``capacity`` bounds memory: once that many spans are held,
    :attr:`full` turns true and the caller stops issuing work (spans of
    the request in progress still land)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.names: List[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: List[Tuple[type, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.name_of) >= self.capacity

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for cls, attrs, layer in targets:
            for attr in attrs:
                self._wrap(cls, attr, f"{layer}:{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            cls, attr, fn = self._undo.pop()
            setattr(cls, attr, fn)

    def _wrap(self, cls: type, attr: str, name: str) -> None:
        fn = cls.__dict__[attr]
        if not callable(fn):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        setattr(cls, attr, span)
        self._undo.append((cls, attr, fn))

    def clear(self) -> None:
        """Drop every recorded span (only between top-level calls)."""
        if len(self._stack) != 1:
            raise RuntimeError("SpanLedger.clear() inside an open span")
        for column in (self.name_of, self.start, self.end, self.parent):
            del column[:]

    # ------------------------------------------------------------------
    def self_ns_by_name(self) -> Dict[str, int]:
        """Self time (ns) summed per span name."""
        n = len(self.name_of)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            out[name_of[i]] += end[i] - start[i] - child[i]
        return {self.names[k]: v for k, v in enumerate(out) if v}

    def self_ns_by_layer(self) -> Dict[str, int]:
        """Self time (ns) summed per layer (the span-name prefix)."""
        out: Dict[str, int] = {}
        for name, ns in self.self_ns_by_name().items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + ns
        return out

    def outer_ns(self, prefix: str) -> int:
        """Summed duration of spans named ``prefix...`` whose parent is
        not also such a span (time inside them, counted once)."""
        ids = {k for k, name in enumerate(self.names) if name.startswith(prefix)}
        name_of = self.name_of
        return sum(
            e - s
            for k, p, s, e in zip(name_of, self.parent, self.start, self.end)
            if k in ids and (p < 0 or name_of[p] not in ids)
        )

    def covered_ns(self) -> int:
        """Wall time covered by root spans (they never overlap: the
        driver is one thread and spans nest on its stack)."""
        return sum(
            e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0
        )

    def __len__(self) -> int:
        return len(self.name_of)
