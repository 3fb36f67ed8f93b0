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

On a **distributed** machine (the mp backend) the kernels live in
worker processes, so the audit splits: each worker computes its own
retained-work problems and a picklable name-table slice
(:func:`kernel_audit`, shipped over the control pipe by the machine's
``audit()``), and the driver chases forwarding chains and birthplace
resolution over the merged tables.  Conservation arithmetic holds on
both backends: per-process counters are single-threaded and merged
after quiescence, so the books are exact even though the interleaving
is not reproducible.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

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


def _true_locations(runtime: "HalRuntime") -> Dict:
    """Ground truth: mail address -> node currently hosting the actor."""
    where: Dict = {}
    for kernel in runtime.kernels:
        for desc in kernel.table:
            if desc.is_local and desc.actor is not None and desc.key is not None:
                prev = where.get(desc.key)
                if prev is not None:
                    raise InvariantViolation(
                        f"{desc.key!r} is resident on BOTH node {prev} and "
                        f"node {kernel.node_id} (duplicate actor)"
                    )
                where[desc.key] = kernel.node_id
    return where


def _chase(runtime: "HalRuntime", start_node: int, key, max_hops: int) -> int:
    """Follow best-guess pointers from ``start_node`` until a node
    hosts the actor.  Returns the hop count; raises on cycles, dangling
    trails or unbounded chains.  A node with no entry falls back to the
    address's encoded home node — exactly what its delivery algorithm
    would do."""
    node = start_node
    visited = []
    for hops in range(max_hops + 1):
        kernel = runtime.kernels[node]
        desc = kernel.table.get(key)
        if desc is not None and desc.is_local:
            return hops
        visited.append(node)
        nxt = desc.remote_node if desc is not None else key.home_node()
        if nxt == node:
            raise InvariantViolation(
                f"forwarding chain for {key!r} from node {start_node} "
                f"dead-ends at node {node} (self-pointer, no actor)"
            )
        node = nxt
    raise InvariantViolation(
        f"forwarding chain for {key!r} from node {start_node} did not "
        f"converge within {max_hops} hops (visited {visited})"
    )


def kernel_retained_work(kernel) -> List[str]:
    """Check 3 for one kernel: every way a finished node can still be
    holding work.  Runs in whichever process owns the kernel."""
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
    return problems


def kernel_audit(kernel) -> Dict:
    """One kernel's picklable audit slice, for distributed backends:
    the retained-work problems plus the name-table view the driver
    needs to chase forwarding chains across processes.  Table entries
    are ``key -> (is_local, remote_node, resident)``; mail-address
    keys pickle (they already travel in mp snapshots)."""
    table: Dict = {}
    for desc in kernel.table:
        if desc.key is None:
            continue
        table[desc.key] = (
            bool(desc.is_local),
            desc.remote_node,
            bool(desc.is_local and desc.actor is not None),
        )
    return {
        "problems": kernel_retained_work(kernel),
        "reliable": kernel.reliable is not None,
        # Unacked envelopes right now.  Chatter (steal polls/denies) is
        # excluded from quiescence counting, so its reliable envelopes
        # can be created *behind* the token and still be mid-retransmit
        # when the ring certifies; the driver settle-waits on this
        # before judging (transient residue self-heals, persistent
        # residue is the real violation kernel_retained_work reports).
        "rel_pending": (
            kernel.reliable.pending_count
            if kernel.reliable is not None else 0
        ),
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
    if getattr(machine, "distributed", False):
        return _check_distributed(runtime)
    problems: List[str] = []

    # 1. drained
    pending = machine.pending
    if pending:
        problems.append(f"event heap not drained: {pending} events pending")

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
    reliable_everywhere = runtime.kernels and all(
        k.reliable is not None for k in runtime.kernels
    )
    if steal_sent != steal_recv and (
        machine.faults is None or reliable_everywhere
    ):
        problems.append(
            f"steal-protocol books do not balance: proto_sent({steal_sent})"
            f" != proto_recv({steal_recv}); a req/grant/deny packet was "
            "counted on only one side"
        )

    # 3. no retained work
    for kernel in runtime.kernels:
        problems.extend(kernel_retained_work(kernel))

    # 4 + 5. forwarding-chain convergence and birthplace resolution
    chains = 0
    max_chain = 0
    try:
        where = _true_locations(runtime)
    except InvariantViolation as exc:
        problems.append(str(exc))
        where = {}
    # Every migration can add one link, but back-patching keeps real
    # chains short; the bound only needs to be generous, not tight.
    max_hops = 2 * runtime.num_nodes + 8
    # The strict form of the birthplace check (it knows the actor's
    # location *directly*) holds only when the back-patch hints were
    # actually deliverable: with descriptor caching off they are
    # ignored, and a fault plan may legitimately have dropped them
    # (they are expendable).  Convergence is still required either way.
    hints_reliable = runtime.config.descriptor_caching and not (
        machine.faults is not None
        and any(
            ev.action == "drop" and ev.kind == "cache_addr"
            for ev in machine.faults.ledger
        )
    )
    for key in where:
        for kernel in runtime.kernels:
            try:
                hops = _chase(runtime, kernel.node_id, key, max_hops)
            except InvariantViolation as exc:
                problems.append(str(exc))
                continue
            chains += 1
            if hops > max_chain:
                max_chain = hops
        try:
            home_hops = _chase(runtime, key.home_node(), key, max_hops)
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
        "faults_injected": (
            machine.faults.summary() if machine.faults is not None else {}
        ),
    }


def _check_distributed(runtime: "HalRuntime") -> Dict:
    """The same audit against a process-per-node machine.

    The driver holds no kernels, so checks 3-5 run against the audit
    slices ``machine.audit()`` collects from the workers: per-node
    retained-work problems (computed in-process against the real
    kernels) and per-node name tables, merged here for the chain
    chases.  Conservation runs on the merged registries, which are
    exact: each worker's counters are single-threaded, and the merge
    happens after quiescence, so no increment is ever racing the
    read."""
    machine = runtime.machine
    problems: List[str] = []

    # 1. drained
    pending = machine.pending
    if pending:
        problems.append(f"event heap not drained: {pending} events pending")

    reports = machine.audit()  # also refreshes the merged stats
    by_node = {r["node"]: r for r in reports}
    faults_on = getattr(machine, "fault_plan", None) is not None

    # 2. packet conservation (merged exact counters)
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

    # 2b. steal-protocol conservation (same gate as in-process, with
    # "reliable everywhere" reported by the workers themselves)
    steal_sent = stats.counter("steal.proto_sent")
    steal_recv = stats.counter("steal.proto_recv")
    reliable_everywhere = bool(reports) and all(
        r["reliable"] for r in reports
    )
    if steal_sent != steal_recv and (not faults_on or reliable_everywhere):
        problems.append(
            f"steal-protocol books do not balance: proto_sent({steal_sent})"
            f" != proto_recv({steal_recv}); a req/grant/deny packet was "
            "counted on only one side"
        )

    # 3. no retained work (computed worker-side)
    for r in reports:
        problems.extend(r["problems"])

    # 4 + 5. chain convergence + birthplace over the merged tables
    where: Dict = {}
    for r in reports:
        for key, (_is_local, _remote, resident) in r["table"].items():
            if not resident:
                continue
            prev = where.get(key)
            if prev is not None:
                problems.append(
                    f"{key!r} is resident on BOTH node {prev} and "
                    f"node {r['node']} (duplicate actor)"
                )
            else:
                where[key] = r["node"]

    def chase(start_node: int, key) -> int:
        node = start_node
        visited: List[int] = []
        for hops in range(max_hops + 1):
            entry = by_node[node]["table"].get(key)
            if entry is not None and entry[0]:
                return hops
            visited.append(node)
            nxt = (
                entry[1]
                if entry is not None and entry[1] is not None
                else key.home_node()
            )
            if nxt == node:
                raise InvariantViolation(
                    f"forwarding chain for {key!r} from node {start_node} "
                    f"dead-ends at node {node} (self-pointer, no actor)"
                )
            node = nxt
        raise InvariantViolation(
            f"forwarding chain for {key!r} from node {start_node} did not "
            f"converge within {max_hops} hops (visited {visited})"
        )

    chains = 0
    max_chain = 0
    max_hops = 2 * runtime.num_nodes + 8
    ledger = [ev for r in reports for ev in r["ledger"]]
    hints_reliable = runtime.config.descriptor_caching and not any(
        ev.action == "drop" and ev.kind == "cache_addr" for ev in ledger
    )
    for key in where:
        for nid in by_node:
            try:
                hops = chase(nid, key)
            except InvariantViolation as exc:
                problems.append(str(exc))
                continue
            chains += 1
            if hops > max_chain:
                max_chain = hops
        try:
            home_hops = chase(key.home_node(), key)
        except InvariantViolation as exc:
            problems.append(f"birthplace: {exc}")
            home_hops = None
        if hints_reliable and home_hops is not None and home_hops > 1:
            problems.append(
                f"birthplace of {key!r} (node {key.home_node()}) was "
                f"never back-patched: {home_hops} hops to the actor"
            )

    if problems:
        raise InvariantViolation(
            f"{len(problems)} invariant violation(s):\n  - "
            + "\n  - ".join(problems)
        )
    summary: Dict[str, int] = {}
    for r in reports:
        for k, v in r["fault_summary"].items():
            summary[k] = summary.get(k, 0) + v
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
