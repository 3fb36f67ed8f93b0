"""Backend parity: the same scenarios converge to the same final state
on the discrete-event, the real-time threaded and the multiprocessing
backends, with the mp mesh on UNIX-domain sockets (the default) and on
TCP (what the deprecated ``asyncio`` backend name selects; the tests
named after it run mp over TCP).

The threaded and mp backends give no ordering or timing guarantees, so
parity is asserted on *convergent* state only: scenario results
(values, visit counts), final actor counts, and ground-truth actor
locations — never on event order, elapsed time, or steal counts (how
much stealing happens is scheduling-dependent by design).

Stats parity goes further where the protocols are deterministic: for
scenarios without load balancing the full final counter sets must
match exactly across the sim, threaded and mp backends, on either mesh
transport (the same messages, FIRs and migrations happen, whatever the
interleaving); once work stealing is
on, only the steal-traffic-dependent counters are exempt.
"""

from __future__ import annotations

import pytest

from repro.apps.scenarios import run_scenario
from repro.config import NetParams

#: The mp mesh over TCP listeners instead of the default UNIX sockets.
TCP = NetParams(transport="tcp")

SCENARIO_NAMES = (
    "ping_pong",
    "migration_tour",
    "fibonacci_loadbalance",
    "group_broadcast",
)

#: Scenarios whose message flow is fully determined by the program
#: (no work stealing): every final counter must agree across backends.
SEQUENTIAL_SCENARIOS = ("ping_pong", "migration_tour", "group_broadcast")

#: Counter prefixes whose values depend on how much steal traffic the
#: host scheduler happened to produce (and the replies/bytes it moved).
_STEAL_DEPENDENT = (
    "steal.",
    "net.",
    "am.",
    "calls.remote_replies",
    "lat.",
    "exec.",
    "mailbox.",
)


def _final_state(result):
    """Convergent observables of a finished scenario run
    (backend-neutral: works with in-process kernels and with the mp
    backend's snapshot-merged view)."""
    rt = result.runtime
    summary = {
        k: v for k, v in result.summary.items()
        if k not in ("elapsed_us", "steals")  # timing/scheduling-dependent
    }
    return {
        "summary": summary,
        "actors": rt.total_actors(),
        "locations": rt.actor_locations(),
        "quiescent": rt.quiescent(),
    }


def _stable_counters(rt):
    """Final counters that do not depend on steal-traffic volume."""
    return {
        k: v for k, v in rt.stats.counters.items()
        if not any(k.startswith(p) for p in _STEAL_DEPENDENT)
    }


def _no_wire(counters):
    """Drop the mp backend's transport-internal accounting (frame
    counts, payload-cache hits): it measures the wire path, which the
    in-process backends don't have, not the protocols under parity."""
    return {k: v for k, v in counters.items() if not k.startswith("wire.")}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_backends_reach_identical_final_state(name):
    sim_res = run_scenario(name, trace=False, backend="sim")
    thr_res = run_scenario(name, trace=False, backend="threaded")
    mp_res = run_scenario(name, trace=False, backend="mp")
    try:
        sim_state = _final_state(sim_res)
        thr_state = _final_state(thr_res)
        mp_state = _final_state(mp_res)
        assert sim_state == thr_state
        assert sim_state == mp_state
        assert sim_state["quiescent"]
    finally:
        sim_res.runtime.close()
        thr_res.runtime.close()
        mp_res.runtime.close()


def _assert_stats_parity(name, backend, **kw):
    """Final StatsRegistry counters agree between the sim and the
    merged registries of a process backend: exactly for sequential
    scenarios, and modulo steal-dependent traffic once load balancing
    is on."""
    sim_res = run_scenario(name, trace=False, backend="sim")
    net_res = run_scenario(name, trace=False, backend=backend, **kw)
    try:
        sim_rt, net_rt = sim_res.runtime, net_res.runtime
        if name in SEQUENTIAL_SCENARIOS:
            assert sim_rt.stats.counters == _no_wire(net_rt.stats.counters)
        else:
            assert _stable_counters(sim_rt) == _no_wire(
                _stable_counters(net_rt)
            )
    finally:
        sim_res.runtime.close()
        net_res.runtime.close()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stats_parity_sim_vs_mp(name):
    _assert_stats_parity(name, "mp")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stats_parity_sim_vs_asyncio(name):
    """mp over TCP books the same counters as over UNIX sockets: with
    no fault plan no reliable-AM envelope or ack crosses the mesh."""
    _assert_stats_parity(name, "mp", net=TCP)


@pytest.mark.parametrize("name", SEQUENTIAL_SCENARIOS)
def test_stats_parity_sim_vs_threaded(name):
    """Sequential scenarios also book identical counters on the
    threaded backend (with stealing the GIL hides lost updates on
    shared cells, so only the mp backend — separate registries, merged
    after the fact — can promise exact books under load)."""
    sim_res = run_scenario(name, trace=False, backend="sim")
    thr_res = run_scenario(name, trace=False, backend="threaded")
    try:
        assert sim_res.runtime.stats.counters == thr_res.runtime.stats.counters
    finally:
        sim_res.runtime.close()
        thr_res.runtime.close()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_threaded_backend_converges_across_seeds(name):
    """The threaded backend must converge regardless of the host
    scheduler's interleaving; different seeds vary placement/victim
    choices but never the result."""
    for seed in (1, 7):
        res = run_scenario(name, trace=False, backend="threaded", seed=seed)
        try:
            assert res.runtime.quiescent()
            state = _final_state(res)
            assert state["actors"] == len(state["locations"])
        finally:
            res.runtime.close()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_mp_backend_converges_across_seeds(name):
    """Same convergence promise for the process-per-node backend."""
    for seed in (1, 7):
        res = run_scenario(name, trace=False, backend="mp", seed=seed)
        try:
            assert res.runtime.quiescent()
            state = _final_state(res)
            assert state["actors"] == len(state["locations"])
        finally:
            res.runtime.close()


@pytest.mark.parametrize("name", SEQUENTIAL_SCENARIOS)
def test_asyncio_backend_matches_sim_final_state(name):
    """mp over TCP reaches the sim's exact final state (summary, actor
    count, ground-truth locations)."""
    sim_res = run_scenario(name, trace=False, backend="sim")
    net_res = run_scenario(name, trace=False, backend="mp", net=TCP)
    try:
        net_state = _final_state(net_res)
        assert _final_state(sim_res) == net_state
        assert net_state["quiescent"]
    finally:
        sim_res.runtime.close()
        net_res.runtime.close()

