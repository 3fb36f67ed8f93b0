"""The three seeded workloads, each driven through the public HalRuntime API.

A workload generates all of its inputs from the seed when it is built;
the runtime only ever sees those generated inputs.  The timed loop in
``bench.py`` calls :meth:`Workload.request` once per driver request (a
root call, a batch, or an echo call) and counts what it returns as
ops.  Every request's result is checked; wrong or missing results are
tallied as failed ops instead of aborting the run.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Tuple

from repro import HalRuntime, RuntimeConfig
from repro.actors.message import ReplyTarget
from repro.am.messages import message_nbytes
from repro.am.reliable import ENV_HANDLER
from repro.apps.fibonacci import FibActor, fib_calls, fib_program, fib_value
from repro.config import LoadBalanceParams, MpParams, NetworkParams
from repro.errors import DeliveryError
from repro.platform.base import WirePacket

from perfbench.programs import Echo, Launcher, Relay, hop_digest

_PACKET_BYTES = NetworkParams().packet_bytes


class Tally:
    """Ops checked and ops found wrong, across every runtime of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ops: int, ok: bool) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops


class Workload:
    name = ""
    backend = ""
    transport = ""
    #: Requests issued by set-up to warm the code paths.
    warmup_requests = 1
    #: Peak RSS is read once the timed phase has done this many ops (or
    #: at its end, if it does fewer): after a fixed amount of work, so a
    #: faster program is not charged for the extra actors it creates in
    #: the same wall time.
    rss_ops = 40_000

    def __init__(self, seed: int, *, tiny: bool, inject_fault: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tally = Tally()
        #: Set by :meth:`begin_phase` when a fault is to be injected into
        #: the next request's expectation or input; consumed once.
        self._inject_fault = inject_fault
        self._fault_armed = False
        self._next = 0
        self.make_inputs()

    # -- lifecycle ------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def config(self) -> RuntimeConfig:
        raise NotImplementedError

    def load(self, rt: HalRuntime) -> None:
        raise NotImplementedError

    def spawn(self, rt: HalRuntime) -> None:
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Restart the input sequence; arm the fault for the first
        timed request when one was asked for."""
        self._next = 0
        self._fault_armed = self._inject_fault
        self._inject_fault = False

    def take_fault(self) -> bool:
        armed, self._fault_armed = self._fault_armed, False
        return armed

    def request(self, rt: HalRuntime, warm: bool = False) -> int:
        """Issue one driver request; return the ops it covered.
        ``warm`` marks a set-up request, which may use a fixed input."""
        raise NotImplementedError

    def verify(self, rt: HalRuntime) -> None:
        """End-of-runtime checks (before teardown)."""

    def wire_mix(self) -> List[WirePacket]:
        """The workload's messages in wire form, for the encode/decode
        replay; empty where no message crosses a process boundary."""
        return []


# ----------------------------------------------------------------------
class FibActors(Workload):
    """Closed loop, one client: ``call(root, "compute", n)`` on the sim
    backend (8 nodes, load balancing on).  ``n`` is drawn from 10..13
    with weights 3:3:8:6, so the p50 request sits in the middle of the
    fib(12) class (cumulative share 0.3..0.7) and the p90 two thirds into
    the fib(13) class (0.7..1.0): the percentiles do not jump between
    classes as the sampled mix varies."""

    name = "fib_actors"
    backend = "sim"
    transport = "in-process"
    warmup_requests = 2
    SIZES = (10, 11, 12, 13)
    TINY_SIZES = (5, 6, 7, 8)
    WEIGHTS = (3, 3, 8, 6)

    def make_inputs(self) -> None:
        sizes = self.TINY_SIZES if self.tiny else self.SIZES
        self.sizes = self.rng.choices(sizes, self.WEIGHTS, k=4096)
        #: Warm-up roots are the smallest size for every seed, so set-up
        #: time does not depend on the seed's draw.
        self.warm_size = sizes[0]

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(
            num_nodes=8, seed=self.seed,
            load_balance=LoadBalanceParams(enabled=True),
        )

    def load(self, rt: HalRuntime) -> None:
        rt.load(fib_program())

    def spawn(self, rt: HalRuntime) -> None:
        self.root = rt.spawn(FibActor, at=0)

    def request(self, rt: HalRuntime, warm: bool = False) -> int:
        if warm:
            n = self.warm_size
        else:
            n = self.sizes[self._next % len(self.sizes)]
            self._next += 1
        expected = fib_value(n) + (1 if self.take_fault() else 0)
        try:
            value = rt.call(self.root, "compute", n)
        except DeliveryError:
            value = None
        ops = fib_calls(n)
        self.tally.add(ops, value == expected)
        return ops


# ----------------------------------------------------------------------
class StreamMp(Workload):
    """Batch: each request injects 256 journeys at once (one driver send
    to a launcher actor) and runs to quiescence.  Every
    journey makes ``HOPS`` hops around a ring of 4 relays placed on
    alternating nodes of a 2-process mp partition (socket transport), so
    every hop crosses a process boundary.  A quarter of the journeys
    carry 256..512-byte payloads, above the 256-byte bulk threshold; the
    rest carry 0..128 bytes."""

    name = "stream_mp"
    backend = "mp"
    transport = "socket"
    RING = 4
    HOPS = 8
    BULK_SHARE = 0.25
    #: Distinct generated batches; requests cycle through them with
    #: fresh journey ids, so every hop's digest term is distinct.
    POOL = 8
    rss_ops = 200_000

    def make_inputs(self) -> None:
        self.journeys = 32 if self.tiny else 256
        rng = self.rng
        nbulk = round(self.journeys * self.BULK_SHARE)
        self.pool: List[List[Tuple[int, bytes]]] = []
        for _ in range(self.POOL):
            bulk = [True] * nbulk + [False] * (self.journeys - nbulk)
            rng.shuffle(bulk)
            self.pool.append([
                (rng.randrange(self.RING),
                 rng.randbytes(rng.randint(256, 512) if big else rng.randint(0, 128)))
                for big in bulk
            ])

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(
            num_nodes=2, backend="mp", seed=self.seed,
            mp=MpParams(transport="socket"),
        )

    def load(self, rt: HalRuntime) -> None:
        rt.load_behaviors(Relay, Launcher)

    def spawn(self, rt: HalRuntime) -> None:
        self.ring = [rt.spawn(Relay, at=i % 2) for i in range(self.RING)]
        for i, ref in enumerate(self.ring):
            rt.send(ref, "link", self.ring[(i + 1) % self.RING])
        self.launcher = rt.spawn(Launcher, at=0)
        rt.run()
        #: (pool index, first journey id) of every batch this runtime ran.
        self.sent: List[Tuple[int, int]] = []

    def request(self, rt: HalRuntime, warm: bool = False) -> int:
        b = self._next % self.POOL
        self._next += 1
        base = len(self.sent) * self.journeys
        self.sent.append((b, base))
        journeys = [
            (base + j, start, self.HOPS, payload)
            for j, (start, payload) in enumerate(self.pool[b])
        ]
        if self.take_fault():
            journeys.pop()  # dropped on the driver side, still expected
        rt.send(self.launcher, "launch", self.ring, journeys)
        rt.run()
        return self.journeys * self.HOPS

    def verify(self, rt: HalRuntime) -> None:
        want = [[0, 0] for _ in self.ring]
        mask = (1 << 64) - 1
        for b, base in self.sent:
            for j, (start, payload) in enumerate(self.pool[b]):
                for left in range(self.HOPS, 0, -1):
                    slot = want[(start + self.HOPS - left) % self.RING]
                    slot[0] += 1
                    slot[1] = (slot[1] + hop_digest(base + j, left, payload)) & mask
        for ref, (count, digest) in zip(self.ring, want):
            got = rt.call(ref, "report")
            wrong = 0 if tuple(got) == (count, digest) else max(1, abs(got[0] - count))
            self.tally.attempted += count
            self.tally.failed += wrong

    def wire_mix(self) -> List[WirePacket]:
        packets = []
        for j, (start, payload) in enumerate(self.pool[0]):
            for left in range(self.HOPS, 0, -1):
                # A deliver_direct payload: (descriptor address,
                # selector, args, reply target, origin node).
                body = (start, "hop", (j, left, payload), None, 0)
                nbytes = message_nbytes(body, _PACKET_BYTES)
                packets.append(
                    WirePacket(0, 1, "deliver_direct", body, nbytes, "deliver_direct")
                )
        return packets


# ----------------------------------------------------------------------
class RpcTcp(Workload):
    """Closed loop, one client: synchronous ``call``s from node 0 to an
    echo actor over the asyncio backend (2 processes, loopback TCP,
    reliable AM attached).  Payloads are 8..64 bytes; before about one
    call in 20 (seeded) the driver tells the actor to migrate to the
    other node, so later calls chase its forwarding pointer."""

    name = "rpc_tcp"
    backend = "asyncio"
    transport = "tcp"
    warmup_requests = 20
    rss_ops = 5_000
    MOVE_EVERY = 20
    #: Wall-clock µs a call may take before it counts as failed.
    TIMEOUT_US = 5_000_000.0

    def make_inputs(self) -> None:
        rng = self.rng
        self.calls = [
            (rng.random() < 1.0 / self.MOVE_EVERY, rng.randbytes(rng.randint(8, 64)))
            for _ in range(16384)
        ]

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(num_nodes=2, backend="asyncio", seed=self.seed)

    def load(self, rt: HalRuntime) -> None:
        rt.load_behaviors(Echo)

    def spawn(self, rt: HalRuntime) -> None:
        self.echo = rt.spawn(Echo, at=1)
        rt.run()
        self.token = 0

    def request(self, rt: HalRuntime, warm: bool = False) -> int:
        move, payload = self.calls[self._next % len(self.calls)]
        self._next += 1
        self.token += 1
        token = self.token
        expected = (token + (1 if self.take_fault() else 0), zlib.crc32(payload))
        try:
            if move:
                rt.send(self.echo, "move")
            reply = rt.call(self.echo, "echo", token, payload,
                            timeout_us=rt.now + self.TIMEOUT_US)
        except DeliveryError:
            reply = None
        self.tally.add(1, reply == expected)
        return 1

    def wire_mix(self) -> List[WirePacket]:
        packets = []
        for token, (_move, payload) in enumerate(self.calls[:2048]):
            call = (7, "echo", (token, payload), ReplyTarget(0, token, 0), 0)
            reply = (token, 0, (token, zlib.crc32(payload)))
            for src, dst, handler, body in ((0, 1, "deliver_direct", call),
                                            (1, 0, "reply", reply)):
                nbytes = message_nbytes(body, _PACKET_BYTES)
                packets.append(WirePacket(
                    src, dst, ENV_HANDLER, (token, handler, body), nbytes, handler
                ))
        return packets


WORKLOADS = {cls.name: cls for cls in (FibActors, StreamMp, RpcTcp)}
