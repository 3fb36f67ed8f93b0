"""Randomised fault-fuzz sweep: the self-healing protocols must keep
every run correct under seeded packet chaos, and the invariant checker
must certify it.

Every case prints its replay line on failure, so a CI red is exactly
reproducible locally::

    PYTHONPATH=src python -m repro faults migration_tour --seed 3 \
        --drop 0.08 --dup 0.08 --delay 0.1 --faults-seed 1234

The sweep size and base seed are pytest options (see conftest.py):
``--fuzz-rounds`` and ``--faults-seed``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultPlan, NodeFault, check_invariants
from repro.apps.scenarios import run_fibonacci_loadbalance, run_migration_tour
from repro.errors import InvariantViolation
from repro.sim.invariants import _true_locations


def _chaos(faults_seed: int) -> FaultPlan:
    return FaultPlan.protocol_chaos(
        seed=faults_seed, drop=0.08, duplicate=0.08, delay=0.1,
        delay_us=(10.0, 150.0),
    )


def _replay_hint(scenario: str, seed: int, faults_seed: int) -> str:
    return (
        f"replay: PYTHONPATH=src python -m repro faults {scenario} "
        f"--seed {seed} --drop 0.08 --dup 0.08 --delay 0.1 "
        f"--faults-seed {faults_seed}"
    )


class TestFaultFuzz:
    def test_migration_tour_sweep(self, faults_seed_base, fuzz_rounds):
        for i in range(fuzz_rounds):
            seed = 100 + i
            faults_seed = faults_seed_base + 7919 * i
            try:
                res = run_migration_tour(
                    num_nodes=5, n=4, trace=False, seed=seed,
                    faults=_chaos(faults_seed),
                )
                report = check_invariants(res.runtime)
            except (InvariantViolation, AssertionError) as exc:
                pytest.fail(
                    f"{exc}\n{_replay_hint('migration_tour', seed, faults_seed)}"
                )
            assert res.summary["visits"] == 4, _replay_hint(
                "migration_tour", seed, faults_seed
            )
            assert report["actors"] >= 1

    def test_fibonacci_sweep(self, faults_seed_base, fuzz_rounds):
        from repro.apps.fibonacci import fib_value

        for i in range(fuzz_rounds):
            seed = 300 + i
            faults_seed = faults_seed_base + 104729 * i
            try:
                res = run_fibonacci_loadbalance(
                    num_nodes=4, n=11, trace=False, seed=seed,
                    faults=_chaos(faults_seed),
                )
                report = check_invariants(res.runtime)
            except (InvariantViolation, AssertionError, RuntimeError) as exc:
                pytest.fail(
                    f"{exc}\n"
                    f"{_replay_hint('fibonacci_loadbalance', seed, faults_seed)}"
                )
            assert res.summary["value"] == fib_value(11)
            # Steal-packet conservation: the reliable sublayer repairs
            # dropped/duplicated steal traffic, so req/grant/deny books
            # must balance exactly even under chaos.
            sp = report["steal_packets"]
            assert sp["sent"] == sp["recv"], _replay_hint(
                "fibonacci_loadbalance", seed, faults_seed
            )

    def test_node_stall_recovery(self, faults_seed_base):
        """A node that goes silent for a window mid-run delays traffic
        but loses nothing."""
        plan = FaultPlan.protocol_chaos(
            seed=faults_seed_base, drop=0.05, duplicate=0.05, delay=0.05,
            node_faults={2: NodeFault(stall_at_us=40.0, stall_for_us=120.0)},
        )
        res = run_migration_tour(num_nodes=5, n=3, trace=False,
                                 seed=11, faults=plan)
        report = check_invariants(res.runtime)
        assert res.summary["visits"] == 3
        assert report["packets"]["sends"] > 0

    def test_reorder_chaos(self, faults_seed_base):
        """Reordered protocol packets (FIFO floor withdrawn) still
        converge — seq-numbered envelopes and protocol dedupe absorb
        the overtakes."""
        plan = FaultPlan.protocol_chaos(
            seed=faults_seed_base + 1, drop=0.05, duplicate=0.05,
            delay=0.05, reorder=0.2,
        )
        res = run_migration_tour(num_nodes=5, n=4, trace=False,
                                 seed=17, faults=plan)
        check_invariants(res.runtime)
        assert res.summary["visits"] == 4

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        faults_seed=st.integers(0, 2**16),
        drop=st.floats(0.0, 0.15),
        dup=st.floats(0.0, 0.15),
    )
    def test_convergence_equivalence(self, seed, faults_seed, drop, dup):
        """Property: a faulty run converges to the SAME final
        name-table ground truth as the fault-free run of the identical
        workload — faults perturb timing and retries, never outcomes."""
        clean = run_migration_tour(num_nodes=5, n=4, trace=False, seed=seed)
        clean.runtime.run()
        plan = FaultPlan.protocol_chaos(
            seed=faults_seed, drop=drop, duplicate=dup, delay=0.1,
            delay_us=(10.0, 120.0),
        )
        faulty = run_migration_tour(num_nodes=5, n=4, trace=False,
                                    seed=seed, faults=plan)
        check_invariants(faulty.runtime)
        assert _true_locations(faulty.runtime) == _true_locations(
            clean.runtime
        )
        assert faulty.summary["final_node"] == clean.summary["final_node"]
        assert faulty.summary["visits"] == clean.summary["visits"]

    def test_retry_counters_surface(self):
        """At punishing drop rates the reliable layer must visibly work
        (retries fire) and still deliver the workload."""
        plan = FaultPlan.protocol_chaos(seed=5, drop=0.25, duplicate=0.2,
                                        delay=0.1)
        res = run_migration_tour(num_nodes=5, n=4, trace=False,
                                 seed=5, faults=plan)
        check_invariants(res.runtime)
        stats = res.runtime.stats
        assert stats.counter("faults.dropped_packets") > 0
        assert stats.counter("rel.retries") > 0


class TestFaultFuzzMp:
    """The same chaos plans against real processes.  Drops, dups and
    delays are injected in each worker's wire path from an RNG stream
    derived per (plan seed, node id); ``check_invariants`` then runs
    its distributed audit — per-worker kernel reports merged by the
    driver, with exact packet conservation because the mp counters are
    process-local and never raced."""

    def _run(self, scenario, faults_seed, seed, **kw):
        runner = (run_migration_tour if scenario == "migration_tour"
                  else run_fibonacci_loadbalance)
        hint = (
            f"replay: PYTHONPATH=src python -m repro faults {scenario} "
            f"--backend mp --seed {seed} "
            f"--drop 0.08 --dup 0.08 --delay 0.1 --faults-seed {faults_seed}"
        )
        res = None
        try:
            res = runner(
                trace=False, seed=seed, faults=_chaos(faults_seed),
                backend="mp", **kw,
            )
            report = check_invariants(res.runtime)
        except (InvariantViolation, AssertionError, RuntimeError) as exc:
            pytest.fail(f"{exc}\n{hint}")
        finally:
            if res is not None:
                res.runtime.close()
        return res, report, hint

    def test_migration_tour_chaos(self, faults_seed_base):
        res, report, hint = self._run(
            "migration_tour", faults_seed_base, 100, num_nodes=4, n=3,
        )
        assert res.summary["visits"] == 3, hint
        p = report["packets"]
        assert (p["sends"] + p["duplicated"] - p["dropped"]
                == p["delivered"]), hint
        fi = report["faults_injected"]
        assert fi["dropped"] > 0 or fi["duplicated"] > 0, (
            hint  # chaos actually bit — the audit wasn't vacuous
        )

    def test_fibonacci_chaos(self, faults_seed_base):
        from repro.apps.fibonacci import fib_value

        res, report, hint = self._run(
            "fibonacci_loadbalance", faults_seed_base + 7919, 300,
            num_nodes=4, n=10,
        )
        assert res.summary["value"] == fib_value(10), hint
        p = report["packets"]
        assert (p["sends"] + p["duplicated"] - p["dropped"]
                == p["delivered"]), hint


class TestFaultFuzzAsyncio:
    """The same chaos against mp over TCP (what the deprecated
    ``asyncio`` backend name selects; TestFaultFuzzMp covers the
    default UNIX-domain mesh).  Loss is injected in each worker's wire
    path exactly as there; the reliable sublayer the fault plan
    attaches must heal the induced drops/dups/delays over real TCP
    streams, and the merged audit must still balance."""

    def _run(self, scenario, faults_seed, seed, transport, **kw):
        from repro.config import NetParams

        runner = (run_migration_tour if scenario == "migration_tour"
                  else run_fibonacci_loadbalance)
        hint = (
            f"replay: PYTHONPATH=src python -m repro faults {scenario} "
            f"--backend mp --net-transport {transport} --seed {seed} "
            f"--drop 0.08 --dup 0.08 --delay 0.1 --faults-seed {faults_seed}"
        )
        res = None
        try:
            res = runner(
                trace=False, seed=seed, faults=_chaos(faults_seed),
                backend="mp", net=NetParams(transport=transport), **kw,
            )
            report = check_invariants(res.runtime)
        except (InvariantViolation, AssertionError, RuntimeError) as exc:
            pytest.fail(f"{exc}\n{hint}")
        finally:
            if res is not None:
                res.runtime.close()
        return res, report, hint

    @pytest.mark.parametrize("transport", ["tcp"])
    def test_migration_tour_chaos(self, faults_seed_base, transport):
        res, report, hint = self._run(
            "migration_tour", faults_seed_base, 100, transport,
            num_nodes=4, n=3,
        )
        assert res.summary["visits"] == 3, hint
        p = report["packets"]
        assert (p["sends"] + p["duplicated"] - p["dropped"]
                == p["delivered"]), hint
        fi = report["faults_injected"]
        assert fi["dropped"] > 0 or fi["duplicated"] > 0, (
            hint  # chaos actually bit — the audit wasn't vacuous
        )

    def test_fibonacci_chaos(self, faults_seed_base):
        from repro.apps.fibonacci import fib_value

        res, report, hint = self._run(
            "fibonacci_loadbalance", faults_seed_base + 7919, 300,
            "tcp", num_nodes=4, n=10,
        )
        assert res.summary["value"] == fib_value(10), hint
        p = report["packets"]
        assert (p["sends"] + p["duplicated"] - p["dropped"]
                == p["delivered"]), hint
