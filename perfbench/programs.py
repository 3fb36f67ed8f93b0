"""Behaviours the benchmark loads into the runtime.

They live in a module of their own (not in the ``run.py`` script) so the
process backends can ship them to workers by import path.  ``fib_actors``
uses :class:`repro.apps.fibonacci.FibActor` unchanged.
"""

from __future__ import annotations

import zlib

from repro import behavior, method

_MASK = (1 << 64) - 1


def hop_digest(journey: int, left: int, payload: bytes) -> int:
    """Digest term of one delivered hop.  Relays and the driver's
    expectation both sum these mod 2**64, so the total is independent
    of delivery order but changes if a hop is lost, repeated, sent to
    the wrong relay or carries a damaged payload."""
    return zlib.crc32(payload, (journey * 131 + left) & 0xFFFFFFFF)


@behavior
class Relay:
    """One stop on the ``stream_mp`` ring: count the hop, fold it into
    the digest and forward it while hops remain.  No application work."""

    def __init__(self):
        self.succ = None
        self.hops = 0
        self.digest = 0

    @method
    def link(self, ctx, succ):
        self.succ = succ

    @method
    def hop(self, ctx, journey, left, payload):
        self.hops += 1
        self.digest = (self.digest + hop_digest(journey, left, payload)) & _MASK
        if left > 1:
            ctx.send(self.succ, "hop", journey, left - 1, payload)

    @method
    def report(self, ctx):
        return (self.hops, self.digest)


@behavior
class Launcher:
    """Turns one driver injection into a batch of journeys: every
    ``(journey, start, hops, payload)`` entry becomes one message to the
    relay at ``start`` on the ring."""

    def __init__(self):
        pass

    @method
    def launch(self, ctx, ring, journeys):
        for journey, start, hops, payload in journeys:
            ctx.send(ring[start], "hop", journey, hops, payload)


@behavior
class Echo:
    """The ``rpc_tcp`` server: replies with the caller's token and the
    payload's CRC, and moves to the other node when told to."""

    def __init__(self):
        self.calls = 0

    @method
    def echo(self, ctx, token, payload):
        self.calls += 1
        return (token, zlib.crc32(payload))

    @method
    def move(self, ctx):
        ctx.migrate((ctx.node + 1) % ctx.num_nodes)
