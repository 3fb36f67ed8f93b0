"""Post-run invariant checking for (possibly fault-injected) runs.

The paper's correctness argument for relaxed-consistency name tables is
*eventual*: any individual table entry may be stale, but the delivery
algorithm, the FIR protocol and the back-patching traffic together
guarantee that every message reaches its actor and every forwarding
chain leads to the truth.  Fault injection stresses exactly that
argument, so after a run we audit it directly:

1. **drained** — the event heap is empty (the run actually finished);
2. **packet conservation** — every injected packet was delivered,
   except exactly those the fault plan dropped, plus exactly those it
   duplicated: ``am.sends + faults.dup - faults.dropped == am.delivered``.
   Nothing was *silently* lost below the injected-fault budget;
3. **no retained work** — no unacked reliable envelopes, no bulk
   transfers mid-protocol, no parked FIR chases, no deferred messages,
   no transient descriptor states, no ready-but-undelivered mail;
4. **forwarding-chain convergence** — from *every* node, following
   best-guess pointers for every known mail address terminates at the
   actor's true location within a bounded number of hops (no cycles,
   no dangling trails);
5. **birthplace resolution** — the home node encoded in each live
   actor's mail address can still route to it (the paper's guarantee
   that the address itself is always a sufficient first guess).

``check_invariants(runtime)`` raises :class:`InvariantViolation` with
every failure listed, or returns a small report dict for display.

The checks run once, over per-node audit slices
(:func:`kernel_audit`: retained-work problems plus a picklable
name-table view), whichever backend produced them.  In-process the
slices are built straight from ``runtime.kernels`` and the fault
ledger comes from the machine's injector; on a **distributed** machine
(the mp backend) each worker computes its own slice against its real
kernel and the machine's ``audit()`` ships them over the control pipe
together with each node's ledger.  Forwarding chains are chased by one
pure function, :func:`chase`, over the merged tables.  Conservation
arithmetic holds on both backends: per-process counters are
single-threaded and merged after quiescence, so the books are exact
even though the interleaving is not reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, TYPE_CHECKING

from repro.errors import InvariantViolation
from repro.runtime.names import DescState

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import HalRuntime

#: Transient descriptor states that must not survive quiescence.
_TRANSIENT = (
    DescState.RESOLVING,
    DescState.IN_TRANSIT,
    DescState.AWAITING_CREATION,
)


def chase(tables: Mapping[int, Mapping], start: int, key, max_hops: int) -> int:
    """Follow best-guess pointers for ``key`` from node ``start`` over
    per-node name-table views (``node -> {key: (is_local,
    remote_node, resident)}``) until a node hosts the actor.  Returns
    the hop count; raises :class:`InvariantViolation` on a self-pointer
    or a chain longer than ``max_hops`` (a cycle).  A node with no
    entry, or an entry with no guess (``remote_node < 0``), falls back
    to the address's birthplace — exactly what its delivery algorithm
    would do."""
    node = start
    visited: List[int] = []
    for hops in range(max_hops + 1):
        entry = tables[node].get(key)
        if entry is not None and entry[0]:
            return hops
        visited.append(node)
        nxt = (
            entry[1]
            if entry is not None and entry[1] >= 0
            else key.home_node()
        )
        if nxt == node:
            raise InvariantViolation(
                f"forwarding chain for {key!r} from node {start} "
                f"dead-ends at node {node} (self-pointer, no actor)"
            )
        node = nxt
    raise InvariantViolation(
        f"forwarding chain for {key!r} from node {start} did not "
        f"converge within {max_hops} hops (visited {visited})"
    )


def kernel_audit(kernel) -> Dict:
    """One kernel's picklable audit slice, computed in whichever
    process owns the kernel: check 3's retained-work problems (every
    way a finished node can still be holding work) plus the name-table
    view :func:`chase` follows.  Table entries are ``key -> (is_local,
    remote_node, resident)``; mail-address keys pickle (they already
    travel in mp snapshots), so a worker can ship its slice to the
    driver."""
    problems: List[str] = []
    nid = kernel.node_id
    rel = kernel.reliable
    if rel is not None and rel.pending_count:
        problems.append(
            f"node {nid}: {rel.pending_count} unacked reliable "
            f"envelopes {rel.unacked()}"
        )
    if kernel.bulk.pending_outgoing or kernel.bulk.pending_inbound:
        problems.append(
            f"node {nid}: bulk transfers mid-protocol "
            f"(out={kernel.bulk.pending_outgoing}, "
            f"in={kernel.bulk.pending_inbound})"
        )
    if kernel.dispatcher.ready:
        problems.append(f"node {nid}: dispatcher still has ready work")
    table: Dict = {}
    for desc in kernel.table:
        what = f"node {nid}, {desc.key!r}"
        if desc.state in _TRANSIENT:
            problems.append(f"{what}: descriptor stuck {desc.state.name}")
        if desc.deferred:
            problems.append(
                f"{what}: {len(desc.deferred)} deferred messages "
                "never released"
            )
        if desc.waiting_firs:
            problems.append(
                f"{what}: {len(desc.waiting_firs)} FIR chases parked "
                "forever"
            )
        actor = desc.actor
        if actor is not None and actor.mailbox.ready_count:
            problems.append(
                f"{what}: actor has {actor.mailbox.ready_count} ready "
                "but unprocessed messages"
            )
        if desc.key is not None:
            table[desc.key] = (
                desc.is_local, desc.remote_node,
                desc.is_local and actor is not None,
            )
    return {
        "node": nid,
        "problems": problems,
        "reliable": rel is not None,
        # Unacked envelopes right now.  Chatter (steal polls/denies) is
        # excluded from quiescence counting, so its reliable envelopes
        # can be created *behind* the token and still be mid-retransmit
        # when the ring certifies; the driver settle-waits on this
        # before judging (transient residue self-heals, persistent
        # residue is the real violation reported in "problems").
        "rel_pending": rel.pending_count if rel is not None else 0,
        "table": table,
    }


def check_invariants(runtime: "HalRuntime", *, drain: bool = True) -> Dict:
    """Audit a finished run; raise :class:`InvariantViolation` listing
    every failed check, or return a report dict.

    ``drain=True`` (the default) first runs the simulator to empty the
    event heap — scenarios that stop on a predicate (e.g. ``call``)
    legitimately leave trailing acks and watchdog timers in flight.
    """
    if drain:
        runtime.run()
    machine = runtime.machine
    problems: List[str] = []

    # 1. drained
    pending = machine.pending
    if pending:
        problems.append(f"event heap not drained: {pending} events pending")

    if getattr(machine, "distributed", False):
        # Worker-side slices; audit() also refreshes the merged stats,
        # so the counters below are exact post-quiescence values.
        slices = machine.audit()
        faults_on = getattr(machine, "fault_plan", None) is not None
        ledger = [ev for s in slices for ev in s["ledger"]]
        summary: Dict[str, int] = {}
        for s in slices:
            for k, v in s["fault_summary"].items():
                summary[k] = summary.get(k, 0) + v
    else:
        slices = [kernel_audit(kernel) for kernel in runtime.kernels]
        faults = machine.faults
        faults_on = faults is not None
        ledger = faults.ledger if faults is not None else []
        summary = faults.summary() if faults is not None else {}

    # 2. packet conservation
    stats = machine.stats
    sends = stats.counter("am.sends")
    delivered = stats.counter("am.delivered")
    dropped = stats.counter("faults.dropped_packets")
    duplicated = stats.counter("faults.dup_packets")
    imbalance = sends + duplicated - dropped - delivered
    if imbalance:
        problems.append(
            f"packet books do not balance: sends({sends}) + dup({duplicated})"
            f" - dropped({dropped}) - delivered({delivered}) = {imbalance}; "
            "a message was lost outside the injected-fault budget"
        )

    # 2b. steal-protocol conservation — every req/grant/deny sent was
    # received.  The reliable sublayer retransmits dropped steal
    # packets until acked, so the books balance even under fault
    # injection; without it a fault plan may legitimately eat them.
    steal_sent = stats.counter("steal.proto_sent")
    steal_recv = stats.counter("steal.proto_recv")
    reliable_everywhere = bool(slices) and all(s["reliable"] for s in slices)
    if steal_sent != steal_recv and (not faults_on or reliable_everywhere):
        problems.append(
            f"steal-protocol books do not balance: proto_sent({steal_sent})"
            f" != proto_recv({steal_recv}); a req/grant/deny packet was "
            "counted on only one side"
        )

    # 3. no retained work
    for s in slices:
        problems.extend(s["problems"])

    # 4 + 5. forwarding-chain convergence and birthplace resolution
    tables = {s["node"]: s["table"] for s in slices}
    where: Dict = {}
    for nid, table in tables.items():
        for key, (_is_local, _remote, resident) in table.items():
            if not resident:
                continue
            prev = where.get(key)
            if prev is not None:
                problems.append(
                    f"{key!r} is resident on BOTH node {prev} and "
                    f"node {nid} (duplicate actor)"
                )
            else:
                where[key] = nid
    chains = 0
    max_chain = 0
    # Every migration can add one link, but back-patching keeps real
    # chains short; the bound only needs to be generous, not tight.
    max_hops = 2 * runtime.num_nodes + 8
    # The strict form of the birthplace check (it knows the actor's
    # location *directly*) holds only when the back-patch hints were
    # actually deliverable: with descriptor caching off they are
    # ignored, and a fault plan may legitimately have dropped them
    # (they are expendable).  Convergence is still required either way.
    hints_reliable = runtime.config.descriptor_caching and not any(
        ev.action == "drop" and ev.kind == "cache_addr" for ev in ledger
    )
    for key in where:
        for nid in tables:
            try:
                hops = chase(tables, nid, key, max_hops)
            except InvariantViolation as exc:
                problems.append(str(exc))
                continue
            chains += 1
            if hops > max_chain:
                max_chain = hops
        try:
            home_hops = chase(tables, key.home_node(), key, max_hops)
        except InvariantViolation as exc:
            problems.append(f"birthplace: {exc}")
            home_hops = None
        if hints_reliable and home_hops is not None and home_hops > 1:
            # After quiescence the birthplace must know the actor's
            # location directly: migration acks and cache_addr traffic
            # back-patch it (§4.3).  One hop = it points at the truth;
            # zero = the actor is home.
            problems.append(
                f"birthplace of {key!r} (node {key.home_node()}) was "
                f"never back-patched: {home_hops} hops to the actor"
            )

    if problems:
        raise InvariantViolation(
            f"{len(problems)} invariant violation(s):\n  - "
            + "\n  - ".join(problems)
        )
    return {
        "actors": len(where),
        "chains_checked": chains,
        "max_chain_hops": max_chain,
        "packets": {
            "sends": sends,
            "delivered": delivered,
            "dropped": dropped,
            "duplicated": duplicated,
        },
        "steal_packets": {"sent": steal_sent, "recv": steal_recv},
        "faults_injected": summary,
    }
