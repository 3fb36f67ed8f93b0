"""The invariant audit can fail: seeded violations and the pure chase.

Every check in :func:`repro.sim.invariants.check_invariants` is shown
to fire on a white-box corruption of a clean sim run, with its named
message; :func:`repro.sim.invariants.chase` is pinned on hand-built
name-table views; and the sim and mp backends audit the same run to
the same report.
"""

from __future__ import annotations

import pytest

from repro import HalRuntime, RuntimeConfig, check_invariants
from repro.apps.scenarios import Wanderer, run_migration_tour
from repro.errors import InvariantViolation
from repro.runtime.names import AddrKind, MailAddress
from repro.sim.invariants import chase


@pytest.fixture
def toured():
    """A clean 5-node sim run, address caching on: one actor born on
    node 0, migrated to node 2 and then to node 3.  Nodes 0 and 2 point
    at node 3; nodes 1 and 4 hold no entry for it."""
    rt = HalRuntime(RuntimeConfig(num_nodes=5))
    rt.load_behaviors(Wanderer)
    w = rt.spawn(Wanderer, at=0)
    rt.send(w, "visit", 2)
    rt.run()
    rt.send(w, "visit", 3, from_node=2)
    rt.run()
    assert rt.locate(w) == 3
    assert rt.kernel(1).table.get(w.address) is None
    assert rt.kernel(4).table.get(w.address) is None
    return rt, w.address


def _violation(rt, match: str, *, drain: bool = True) -> str:
    with pytest.raises(InvariantViolation, match=match) as info:
        check_invariants(rt, drain=drain)
    return str(info.value)


class TestSeededViolations:
    def test_clean_run_passes(self, toured):
        rt, _addr = toured
        report = check_invariants(rt)
        assert report["actors"] == 1
        assert report["chains_checked"] == 5
        assert report["max_chain_hops"] == 2

    def test_events_left_undrained(self, toured):
        rt, _addr = toured
        rt.machine.nodes[1].execute(rt.now + 1000.0, lambda: None)
        _violation(rt, r"event heap not drained: 1 events pending",
                   drain=False)

    def test_bumped_sends_unbalance_the_packet_books(self, toured):
        rt, _addr = toured
        rt.stats.incr("am.sends")
        _violation(rt, r"packet books do not balance: .* = 1; a message "
                       r"was lost outside the injected-fault budget")

    def test_deferred_message_left_on_a_descriptor(self, toured):
        rt, addr = toured
        rt.kernel(0).table.get(addr).deferred.append("parked")
        _violation(rt, r"node 0, .*: 1 deferred messages never released")

    def test_two_tables_pointing_at_each_other(self, toured):
        rt, addr = toured
        rt.kernel(0).table.get(addr).set_remote(2)
        rt.kernel(2).table.get(addr).set_remote(0)
        msg = _violation(rt, r"from node 0 did not converge within 18 hops")
        assert "birthplace: forwarding chain" in msg

    def test_stale_birthplace(self, toured):
        rt, addr = toured
        # Birthplace 0 -> 2 -> 3: it converges, but the home node no
        # longer knows the actor's location directly.
        rt.kernel(0).table.get(addr).set_remote(2)
        _violation(rt, r"birthplace of .* \(node 0\) was never "
                       r"back-patched: 2 hops to the actor")

    def test_copied_resident_descriptor(self, toured):
        rt, addr = toured
        actor = rt.kernel(3).table.get(addr).actor
        rt.kernel(1).table.alloc(addr).set_local(actor)
        _violation(rt, r"is resident on BOTH node 1 and node 3 "
                       r"\(duplicate actor\)")

    def test_descriptor_with_no_guess_routes_via_the_birthplace(self, toured):
        """A descriptor with no best guess (``remote_node == -1``)
        routes the way delivery does: to the address's birthplace,
        node 0, one hop from the actor — not to the last node."""
        rt, addr = toured
        assert rt.kernel(1).table.alloc(addr).remote_node == -1
        report = check_invariants(rt)
        assert report["chains_checked"] == 5
        assert report["max_chain_hops"] == 2


def _key(home: int) -> MailAddress:
    return MailAddress(AddrKind.ORDINARY, home, 1)


class TestChase:
    """The pure chase over ``node -> {key: (is_local, remote_node,
    resident)}`` views."""

    def test_follows_guesses_to_the_host(self):
        k = _key(0)
        tables = {0: {k: (False, 1, False)}, 1: {k: (False, 2, False)},
                  2: {k: (True, -1, True)}}
        assert chase(tables, 0, k, 8) == 2
        assert chase(tables, 2, k, 8) == 0

    def test_missing_entry_falls_back_to_the_birthplace(self):
        k = _key(0)
        tables = {0: {k: (False, 2, False)}, 1: {},
                  2: {k: (True, -1, True)}}
        assert chase(tables, 1, k, 8) == 2

    def test_no_guess_falls_back_to_the_birthplace(self):
        k = _key(0)
        # Node 2 points back at node 1: reading -1 as "the last node"
        # would cycle 1 -> 2 -> 1.
        tables = {0: {k: (True, -1, True)}, 1: {k: (False, -1, False)},
                  2: {k: (False, 1, False)}}
        assert chase(tables, 1, k, 8) == 1

    def test_cycle_does_not_converge(self):
        k = _key(0)
        tables = {0: {k: (False, 1, False)}, 1: {k: (False, 0, False)}}
        with pytest.raises(InvariantViolation,
                           match=r"did not converge within 4 hops "
                                 r"\(visited \[0, 1, 0, 1, 0\]\)"):
            chase(tables, 0, k, 4)

    def test_self_pointer_dead_ends(self):
        k = _key(0)
        tables = {0: {k: (False, 1, False)}, 1: {k: (False, 1, False)}}
        with pytest.raises(InvariantViolation,
                           match=r"from node 0 dead-ends at node 1 "
                                 r"\(self-pointer, no actor\)"):
            chase(tables, 0, k, 8)

    def test_no_guess_at_the_birthplace_dead_ends(self):
        k = _key(0)
        tables = {0: {k: (False, -1, False)}, 1: {}}
        with pytest.raises(InvariantViolation, match="dead-ends at node 0"):
            chase(tables, 1, k, 8)


def test_sim_and_mp_audit_migration_tour_alike():
    sim = run_migration_tour(num_nodes=5, n=4, trace=False)
    sim_report = check_invariants(sim.runtime)
    mp = run_migration_tour(num_nodes=5, n=4, trace=False, backend="mp")
    try:
        mp_report = check_invariants(mp.runtime)
    finally:
        mp.runtime.close()
    for key in ("actors", "chains_checked"):
        assert mp_report[key] == sim_report[key], key
    assert sim_report["actors"] == 1
    assert sim_report["chains_checked"] == 5
