"""Named, traceable scenarios for the observability CLI.

Each scenario boots a runtime (with causal tracing on by default),
drives a workload whose message journeys exercise the protocols the
paper describes — buffered delivery, migration, FIR chases, name-table
back-patching, join continuations, work stealing — and returns the
runtime so callers can export its span log or inspect its latency
histograms.

::

    python -m repro trace migration_tour --out tour.json
    python -m repro stats fibonacci_loadbalance --n 14 --nodes 4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.config import (
    LoadBalanceParams,
    MpParams,
    NetParams,
    RuntimeConfig,
    TracingParams,
)
from repro.hal.dsl import behavior, method
from repro.runtime.system import HalRuntime


@behavior
class Wanderer:
    """An actor toured across the partition by ``visit`` messages.

    Every visit is processed at the actor's *current* node and then
    migrates it — former hosts keep forwarding pointers, so a later
    send from a node with a stale cache must chase the actor through
    the FIR protocol.
    """

    def __init__(self):
        self.visits = 0

    @method
    def visit(self, ctx, hop_to):
        self.visits += 1
        if hop_to is not None and hop_to != ctx.node:
            ctx.migrate(hop_to)

    @method
    def ping(self, ctx):
        return self.visits


@behavior
class PingPonger:
    """One side of a cross-node rally: each ``ping`` counts a hit and
    returns the ball until the rally budget runs out."""

    def __init__(self):
        self.hits = 0
        self.peer = None

    @method
    def set_peer(self, ctx, peer):
        self.peer = peer

    @method
    def ping(self, ctx, remaining):
        self.hits += 1
        if remaining > 0:
            ctx.send(self.peer, "ping", remaining - 1)

    @method
    def score(self, ctx):
        return self.hits


@behavior
class Referee:
    """Settles a rally by collecting both scores with one request join.

    Written in the plain-def frontend style — no ``yield``: the HAL
    compiler proves the two requests independent, groups them into a
    shared two-slot join continuation, and rewrites the body into the
    generator form the runtime executes.
    """

    def __init__(self):
        self.last_total = 0

    @method
    def tally(self, ctx, a, b):
        sa = ctx.request(a, "score")
        sb = ctx.request(b, "score")
        self.last_total = sa + sb
        return self.last_total


@behavior
class GroupCell:
    """One member of an actor group; accumulates broadcast deliveries.

    The ``(index, size)`` tail is the grpnew constructor convention —
    each member knows its place so the driver can audit per-member
    delivery exactly.
    """

    def __init__(self, index=0, size=1):
        self.index = index
        self.size = size
        self.hits = 0

    @method
    def bump(self, ctx, k):
        self.hits += k

    @method
    def total(self, ctx):
        return self.hits


@dataclass
class ScenarioResult:
    """What a scenario produced, plus the runtime for span export."""

    name: str
    runtime: HalRuntime
    summary: Dict[str, object] = field(default_factory=dict)


def run_ping_pong(
    *,
    num_nodes: int = 2,
    n: int = 20,
    trace: bool = True,
    seed: int = 1995,
    faults=None,
    backend: str = "sim",
    mp: Optional[MpParams] = None,
    net: Optional[NetParams] = None,
    tracing: Optional[TracingParams] = None,
) -> ScenarioResult:
    """A ``2n``-hit rally between actors on two different nodes.

    The simplest cross-node protocol exercise: every hit is one
    active message, so the final scores audit exactly how many
    messages the platform delivered.
    """
    if num_nodes < 2:
        raise ValueError("ping_pong needs at least 2 nodes")
    cfg = RuntimeConfig(num_nodes=num_nodes, seed=seed, backend=backend,
                        mp=mp or MpParams(), net=net or NetParams(),
                        tracing=tracing or TracingParams())
    rt = HalRuntime(cfg, trace=trace, faults=faults)
    rt.load_behaviors(PingPonger, Referee)
    a = rt.spawn(PingPonger, at=0)
    b = rt.spawn(PingPonger, at=1)
    rt.send(a, "set_peer", b)
    rt.send(b, "set_peer", a)
    rt.run()
    rally = 2 * n
    rt.send(a, "ping", rally - 1)
    rt.run()
    # The referee's plain-def tally is the lowered-frontend exercise:
    # one grouped join collects both scores.
    referee = rt.spawn(Referee, at=0)
    total = rt.call(referee, "tally", a, b)
    score_a = rt.call(a, "score")
    score_b = rt.call(b, "score")
    assert score_a + score_b == rally == total, (score_a, score_b, rally, total)
    return ScenarioResult(
        name="ping_pong",
        runtime=rt,
        summary={
            "rally": rally,
            "score_a": score_a,
            "score_b": score_b,
            "referee_total": total,
            "elapsed_us": rt.now,
        },
    )


def run_migration_tour(
    *,
    num_nodes: int = 5,
    n: int = 3,
    trace: bool = True,
    seed: int = 1995,
    faults=None,
    backend: str = "sim",
    mp: Optional[MpParams] = None,
    net: Optional[NetParams] = None,
    tracing: Optional[TracingParams] = None,
) -> ScenarioResult:
    """Tour one actor through ``n`` migrations, then probe it from a
    node holding a stale cached address.

    The probe's trace shows the full location-transparent journey: the
    send, the network hop to the stale guess, the FIR chase along the
    forwarding chain, the resolve + replies that repair every chain
    member's table, the relayed delivery, the execution, and the
    back-patch that teaches the sender the actor's real address.
    """
    if num_nodes < 3:
        raise ValueError("migration_tour needs at least 3 nodes")
    # Address caching off: every migration arrival would otherwise
    # back-patch the birthplace, collapsing the forwarding trail to one
    # hop.  Without it each former host keeps only its "the actor left
    # me for X" pointer, so the probe's FIR walks the whole tour — and
    # the chain repair (FIR replies back-patching every member's name
    # table) is still visible in the trace.
    cfg = RuntimeConfig(num_nodes=num_nodes, seed=seed,
                        descriptor_caching=False, backend=backend,
                        mp=mp or MpParams(), net=net or NetParams(),
                        tracing=tracing or TracingParams())
    rt = HalRuntime(cfg, trace=trace, faults=faults)
    rt.load_behaviors(Wanderer)

    birth = 1
    w = rt.spawn(Wanderer, at=birth)
    # Teach node 0 the actor's address: the reply's back-patch caches
    # ``@1`` in node 0's name table — the cache the tour then stales.
    rt.call(w, "ping", from_node=0)

    # Tour the actor over nodes 1..P-1 (never node 0, so the probe
    # stays remote).  Each visit is sent from the actor's current node
    # (a local send: no wire traffic that could re-teach node 0).
    cur = birth
    others = [i for i in range(1, num_nodes) if i != birth]
    hops = [others[i % len(others)] if others[i % len(others)] != cur
            else birth for i in range(n)]
    for dest in hops:
        rt.send(w, "visit", dest, from_node=cur)
        rt.run()
        cur = dest

    # The traced probe: node 0 still believes ``@1``; the message is
    # forwarded there and the FIR protocol chases the tour's trail.
    visits = rt.call(w, "ping", from_node=0)
    assert visits == len(hops), (visits, hops)
    return ScenarioResult(
        name="migration_tour",
        runtime=rt,
        summary={
            "migrations": len(hops),
            "final_node": rt.locate(w),
            "visits": visits,
            "fir_requests": rt.stats.counter("fir.initiated"),
            "elapsed_us": rt.now,
        },
    )


def run_fibonacci_loadbalance(
    *,
    num_nodes: int = 4,
    n: int = 14,
    trace: bool = True,
    seed: int = 1995,
    faults=None,
    backend: str = "sim",
    mp: Optional[MpParams] = None,
    net: Optional[NetParams] = None,
    tracing: Optional[TracingParams] = None,
) -> ScenarioResult:
    """fib(n) under receiver-initiated work stealing, traced.

    Stolen tasks carry their causal context across the wire, so the
    trace shows the spawner's tree continuing on the thief's node.
    """
    from repro.apps.fibonacci import fib_program, fib_value

    cfg = RuntimeConfig(
        num_nodes=num_nodes,
        seed=seed,
        backend=backend,
        load_balance=LoadBalanceParams(enabled=True),
        mp=mp or MpParams(),
        net=net or NetParams(),
        tracing=tracing or TracingParams(),
    )
    rt = HalRuntime(cfg, trace=trace, faults=faults)
    rt.load(fib_program())
    target, box = rt.make_collector(from_node=0)
    rt.spawn_task("fib", n, target, 0, at=0)
    rt.run()
    if not box:
        raise RuntimeError("fibonacci_loadbalance did not complete")
    value = box[0]
    assert value == fib_value(n), (value, fib_value(n))
    return ScenarioResult(
        name="fibonacci_loadbalance",
        runtime=rt,
        summary={
            "n": n,
            "value": value,
            "tasks": rt.stats.counter("exec.tasks"),
            "steals": rt.stats.counter("steal.received"),
            "elapsed_us": rt.now,
        },
    )


def run_group_broadcast(
    *,
    num_nodes: int = 4,
    n: int = 8,
    trace: bool = True,
    seed: int = 1995,
    faults=None,
    backend: str = "sim",
    mp: Optional[MpParams] = None,
    net: Optional[NetParams] = None,
    tracing: Optional[TracingParams] = None,
) -> ScenarioResult:
    """``grpnew`` an ``n``-member group, broadcast to it three times,
    audit every member's tally.

    The broadcast replicates over the topology's spanning tree — on
    the mp backend the tree-forward messages share one serialised
    payload per fan-out and ride the batched wire frames, so this
    scenario is the collective-communication parity check across both
    backends.
    """
    cfg = RuntimeConfig(num_nodes=num_nodes, seed=seed, backend=backend,
                        mp=mp or MpParams(), net=net or NetParams(),
                        tracing=tracing or TracingParams())
    rt = HalRuntime(cfg, trace=trace, faults=faults)
    rt.load_behaviors(GroupCell)
    group = rt.grpnew(GroupCell, n, placement="cyclic")
    rt.run()
    rounds = 3
    for r in range(rounds):
        rt.broadcast(group, "bump", r + 1)
    rt.run()
    expect = rounds * (rounds + 1) // 2
    tallies = [rt.call(group.member(i), "total") for i in range(n)]
    assert tallies == [expect] * n, (tallies, expect)
    return ScenarioResult(
        name="group_broadcast",
        runtime=rt,
        summary={
            "members": n,
            "rounds": rounds,
            "per_member": expect,
            "broadcasts": rt.stats.counter("groups.broadcasts"),
            "elapsed_us": rt.now,
        },
    )


#: Scenario registry for the CLI.  Every entry accepts
#: ``(num_nodes=..., n=..., trace=..., seed=..., faults=...)`` keyword
#: arguments (``faults`` is an optional :class:`repro.sim.faults.FaultPlan`;
#: ``mp`` optionally carries :class:`repro.config.MpParams` wire knobs).
SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "ping_pong": run_ping_pong,
    "migration_tour": run_migration_tour,
    "fibonacci_loadbalance": run_fibonacci_loadbalance,
    "group_broadcast": run_group_broadcast,
}


def scenario_program(name: str):
    """The program image a scenario loads, for ahead-of-run compilation
    (``python -m repro compile <scenario>``): the same behaviours the
    scenario's runtime would compile at load time, without booting a
    partition."""
    from repro.runtime.program import HalProgram

    if name == "fibonacci_loadbalance":
        from repro.apps.fibonacci import fib_program
        return fib_program()
    classes = {
        "ping_pong": [PingPonger, Referee],
        "migration_tour": [Wanderer],
        "group_broadcast": [GroupCell],
    }.get(name)
    if classes is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    program = HalProgram(name)
    for cls in classes:
        program.behavior(cls)
    return program


def run_scenario(
    name: str,
    *,
    num_nodes: Optional[int] = None,
    n: Optional[int] = None,
    trace: bool = True,
    seed: int = 1995,
    faults=None,
    backend: str = "sim",
    mp: Optional[MpParams] = None,
    net: Optional[NetParams] = None,
    tracing: Optional[TracingParams] = None,
) -> ScenarioResult:
    """Run a registered scenario by name; None keeps its defaults."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    kwargs: Dict[str, object] = {
        "trace": trace, "seed": seed, "faults": faults, "backend": backend,
        "mp": mp, "net": net, "tracing": tracing,
    }
    if num_nodes is not None:
        kwargs["num_nodes"] = num_nodes
    if n is not None:
        kwargs["n"] = n
    return fn(**kwargs)
