"""The platform seam: factory, interfaces, and the mp backend's
node/transport/machine primitives."""

from __future__ import annotations

import subprocess
import sys
import os
import threading

import pytest

from repro.config import RuntimeConfig
from repro.errors import ReproError
from repro.hal.dsl import behavior, method
from repro.platform import BACKENDS, make_machine
from repro.platform.base import NodeExecutor, PlatformMachine, Transport
from repro.platform.mp import MpMachine
from repro.platform.simbackend import SimMachine


# ======================================================================
# factory + config
# ======================================================================
class TestMakeMachine:
    def test_default_backend_is_sim(self):
        m = make_machine(RuntimeConfig(num_nodes=2))
        assert isinstance(m, SimMachine)
        m.shutdown()

    def test_backend_from_config(self):
        m = make_machine(RuntimeConfig(num_nodes=2, backend="mp"))
        try:
            assert isinstance(m, MpMachine)
        finally:
            m.shutdown()

    def test_explicit_backend_overrides_config(self):
        m = make_machine(RuntimeConfig(num_nodes=2), backend="mp")
        try:
            assert isinstance(m, MpMachine)
        finally:
            m.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown backend"):
            make_machine(RuntimeConfig(num_nodes=2), backend="mpi")

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RuntimeConfig(backend="mpi")

    def test_registry_names(self):
        assert BACKENDS == ("sim", "mp")

    def test_config_error_names_every_backend(self):
        with pytest.raises(ValueError, match="expected one of sim, mp"):
            RuntimeConfig(backend="threaded")


class TestProtocolConformance:
    """Both backends satisfy the runtime-checkable platform protocols
    (structural: method presence, not behaviour)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_machine_and_parts(self, backend):
        m = make_machine(RuntimeConfig(num_nodes=2), backend=backend)
        try:
            assert isinstance(m, PlatformMachine)
            assert isinstance(m.nodes[0], NodeExecutor)
            assert isinstance(m.network, Transport)
            assert m.num_nodes == 2
        finally:
            m.shutdown()

    def test_feature_flags(self):
        """``distributed`` is the one flag left: it routes driver
        operations as commands (faults and spans work on both)."""
        sim = make_machine(RuntimeConfig(num_nodes=2))
        mpm = make_machine(RuntimeConfig(num_nodes=2), backend="mp")
        try:
            assert not sim.distributed
            assert mpm.distributed
        finally:
            sim.shutdown()
            mpm.shutdown()


# ======================================================================
# mp backend (process-per-node)
# ======================================================================
@behavior
class _Holder:
    """Minimal remote-callable actor for mp round trips."""

    def __init__(self):
        self.pokes = 0

    @method
    def poke(self, ctx):
        self.pokes += 1
        return self.pokes

    @method
    def take(self, ctx, obj):
        self.pokes += 1


@behavior
class _Relay:
    """Fans messages out to a remote peer: real wire traffic for the
    fault-injection tests (driver commands land locally and never
    cross the mesh)."""

    def __init__(self):
        self.peer = None

    @method
    def set_peer(self, ctx, peer):
        self.peer = peer

    @method
    def fan(self, ctx, n):
        for _ in range(n):
            ctx.send(self.peer, "take", 1)


@behavior
class _Poison:
    """Sends a non-picklable object across the wire on demand."""

    def __init__(self):
        self.peer = None

    @method
    def set_peer(self, ctx, peer):
        self.peer = peer

    @method
    def boom(self, ctx):
        ctx.send(self.peer, "take", threading.Lock())


def _mp_runtime(n=2, **kw):
    from repro.runtime.system import HalRuntime

    return HalRuntime(RuntimeConfig(num_nodes=n, backend="mp", **kw))


class TestMpBackend:
    def test_spawn_call_run_quiesce(self):
        rt = _mp_runtime(2)
        try:
            a = rt.spawn(_Holder, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.send(b, "take", 7)
            rt.run()
            assert rt.call(a, "poke") == 1
            assert rt.call(b, "poke") == 2  # the take counted too
            assert rt.total_actors() == 2
            assert rt.actor_locations() == {a.address: 0, b.address: 1}
            assert rt.quiescent()
        finally:
            rt.close()

    def test_fault_plan_accepted_and_injected(self):
        """mp supports fault plans: the plan ships to the workers,
        each derives a per-node injector, the reliable sublayer
        auto-attaches, and the merged books balance against the
        recorded fault budget (PR 8 lifted the old rejection)."""
        from repro.runtime.system import HalRuntime
        from repro.sim.faults import FaultPlan, FaultRule
        from repro.sim.invariants import check_invariants

        rt = _mp_runtime(2, seed=7)
        try:
            assert rt.machine.fault_plan is None  # no plan → not shipped
        finally:
            rt.close()

        # Deterministic mode: the sender's injector must drop exactly
        # the first two keyed-delivery packets (the retransmit is the
        # same wire kind, so it eats the second drop) — every fan()
        # message still lands.
        plan = FaultPlan(by_kind={"deliver_keyed": FaultRule(drop_count=2)})
        rt = HalRuntime(
            RuntimeConfig(num_nodes=2, backend="mp", seed=7), faults=plan
        )
        try:
            assert rt.machine.fault_plan is plan
            a = rt.spawn(_Relay, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.send(a, "set_peer", b)
            rt.run()
            rt.send(a, "fan", 10)
            rt.run()
            assert rt.call(b, "poke") == 11
            report = check_invariants(rt)
            pk = report["packets"]
            assert pk["dropped"] == 2
            assert pk["sends"] + pk["duplicated"] - pk["dropped"] == (
                pk["delivered"]
            )
            assert rt.stats.counter("rel.retries") >= 2
        finally:
            rt.close()

    def test_non_picklable_wire_payload_is_hard_error(self):
        """An in-process backend would happily pass a Lock by
        reference; on the wire it must fail loudly, not hang."""
        rt = _mp_runtime(2)
        try:
            a = rt.spawn(_Poison, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.send(a, "set_peer", b)
            rt.run()
            rt.send(a, "boom")
            with pytest.raises(ReproError, match="non-picklable"):
                rt.run()
        finally:
            rt.close()

    def test_non_picklable_driver_payload_rejected(self):
        rt = _mp_runtime(2)
        try:
            a = rt.spawn(_Holder, at=0)
            with pytest.raises(ReproError, match="picklable"):
                rt.send(a, "take", threading.Lock())
        finally:
            rt.close()

    def test_white_box_accessors_refused(self):
        rt = _mp_runtime(2)
        try:
            a = rt.spawn(_Holder, at=0)
            with pytest.raises(ReproError):
                rt.kernel(0)
            with pytest.raises(ReproError):
                rt.actor_of(a)
        finally:
            rt.close()

    def test_remote_spawn_and_locate(self):
        rt = _mp_runtime(3)
        try:
            # Issue the creation from node 0, place on node 2 — the
            # alias path crosses the wire.
            ref = rt.spawn_remote(_Holder, at=2, issuing_node=0)
            rt.run()
            assert rt.locate(ref) == 2
        finally:
            rt.close()

    def test_close_idempotent(self):
        rt = _mp_runtime(2)
        rt.close()
        rt.close()


@behavior
class _GroupMember:
    """Group member that records broadcast deliveries."""

    def __init__(self, index=0, size=1):
        self.index = index
        self.hits = 0

    @method
    def bump(self, ctx, k):
        self.hits += k

    @method
    def total(self, ctx):
        return self.hits


class TestMpGroups:
    """grpnew/broadcast routed through the batched wire frames."""

    def test_grpnew_places_members_and_broadcast_reaches_all(self):
        rt = _mp_runtime(3)
        try:
            g = rt.grpnew(_GroupMember, 6, placement="cyclic")
            rt.run()
            assert rt.total_actors() == 6
            rt.broadcast(g, "bump", 5)
            rt.run()
            assert [rt.call(g.member(i), "total") for i in range(6)] == [5] * 6
            assert rt.quiescent()
        finally:
            rt.close()

    def test_broadcast_payload_pickled_once_per_fanout(self):
        """The tree-forward hands one tuple to every child, so the
        payload identity cache must register reuse whenever a node
        forwards to more than one child."""
        rt = _mp_runtime(4)
        try:
            g = rt.grpnew(_GroupMember, 8)
            rt.run()
            rt.broadcast(g, "bump", 1)
            rt.run()
            assert rt.stats.counter("wire.payload_reuse") > 0
        finally:
            rt.close()


class TestMpSocketTransport:
    """The same mp semantics over the UNIX-domain socket mesh, where
    frames arrive as an unbounded byte stream (split/partial reads)."""

    def _runtime(self, n=2, **mp_kw):
        from repro.config import MpParams

        return _mp_runtime(n, mp=MpParams(transport="socket", **mp_kw))

    def test_spawn_send_call_quiesce(self):
        rt = self._runtime(3)
        try:
            a = rt.spawn(_Holder, at=0)
            b = rt.spawn(_Holder, at=2)
            rt.send(b, "take", 7)
            rt.run()
            assert rt.call(a, "poke") == 1
            assert rt.call(b, "poke") == 2
            assert rt.quiescent()
        finally:
            rt.close()

    def test_tiny_batches_force_frame_splits(self):
        """batch_bytes=1 flushes every record as its own frame — the
        worst case for the socket decoder's reassembly."""
        rt = self._runtime(2, batch_bytes=1)
        try:
            a = rt.spawn(_Holder, at=0)
            b = rt.spawn(_Holder, at=1)
            for _ in range(20):
                rt.send(b, "take", a)
            rt.run()
            assert rt.call(b, "poke") == 21
            assert rt.quiescent()
        finally:
            rt.close()

    def test_non_picklable_payload_still_hard_error(self):
        rt = self._runtime(2)
        try:
            a = rt.spawn(_Poison, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.send(a, "set_peer", b)
            rt.run()
            rt.send(a, "boom")
            with pytest.raises(ReproError, match="non-picklable"):
                rt.run()
        finally:
            rt.close()


class TestMpParams:
    """The mp backend has one transport; the old names are rejected."""

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_removed_transport_is_rejected_naming_socket(self, transport):
        from repro.config import MpParams

        with pytest.raises(ValueError, match="'socket'"):
            MpParams(transport=transport)
        assert MpParams().transport == "socket"


class TestNodeFailure:
    """A dead worker surfaces as a typed error naming the node and the
    signal, within bounded time, on the process backend — also under
    its deprecated ``asyncio`` name (mp over TCP)."""

    @pytest.mark.filterwarnings("ignore:backend='asyncio':DeprecationWarning")
    @pytest.mark.parametrize("backend", ["mp", "asyncio"])
    def test_sigkilled_worker_raises_node_failure(self, backend):
        import signal
        import time

        from repro.errors import NodeFailure
        from repro.runtime.system import HalRuntime

        rt = HalRuntime(RuntimeConfig(num_nodes=3, backend=backend))
        try:
            rt.spawn(_Holder, at=1)
            rt.run()
            os.kill(rt.machine._procs[1].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(NodeFailure) as info:
                rt.run()
            assert time.monotonic() - start < 2.0
            assert info.value.node == 1
            assert info.value.exitcode == -signal.SIGKILL
            assert "node 1" in str(info.value)
            assert "SIGKILL" in str(info.value)
            start = time.monotonic()
            rt.close()  # the survivors are stopped and joined
            assert time.monotonic() - start < 5.0
            assert not any(p.is_alive() for p in rt.machine._procs)
        finally:
            rt.close()


@behavior
class _Forwarder:
    """Forwards one object to a peer: a driver command lands locally,
    the forward crosses the mesh."""

    @method
    def forward(self, ctx, peer, obj):
        ctx.send(peer, "take", obj)


class TestMalformedFrame:
    def test_malformed_frame_raises_network_error_naming_both_nodes(
        self, monkeypatch
    ):
        """A frame that does not decode closes that link and surfaces
        as one NetworkError naming the receiving node and the peer,
        re-raised by every later call, not as a stream of generic
        worker failures."""
        import time

        from repro.errors import NetworkError
        from repro.platform import mp

        real = mp.encode_payload

        def corrupting(args):
            data = real(args)
            return b"\x80\x05garbage" if b"corrupt-me" in data else data

        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(mp, "encode_payload", corrupting)
        rt = _mp_runtime(2)
        try:
            a = rt.spawn(_Forwarder, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.run()
            rt.send(a, "forward", b, "corrupt-me")
            with pytest.raises(NetworkError) as info:
                rt.run()
            message = str(info.value)
            assert message.startswith("node 1: malformed frame from peer 0")
            assert "UnpicklingError" in message
            with pytest.raises(NetworkError) as again:
                rt.run()
            assert again.value is info.value
            start = time.monotonic()
            rt.close()
            assert time.monotonic() - start < 5.0
        finally:
            rt.close()


class TestMpBatchingQuiescence:
    """Regression: Safra termination detection must count *messages*,
    not frames.  With thresholds far above the workload every frame
    carries many messages; if the ring counted frames the totals could
    balance to zero while messages were still in flight (false
    quiescence) or never balance at all (hang).

    The 60 messages come from one handler (``_Relay.fan``), so they
    share one outbound batch whatever the process timing: 60
    synchronous driver commands would coalesce only as fast as the
    driver issues them, and detection-token frames could then outnumber
    the saving."""

    def test_quiescence_counts_messages_not_frames(self):
        from repro.config import MpParams

        rt = _mp_runtime(
            2, mp=MpParams(batch_bytes=1 << 20, batch_max_msgs=100_000)
        )
        try:
            a = rt.spawn(_Relay, at=0)
            b = rt.spawn(_Holder, at=1)
            rt.send(a, "set_peer", b)
            rt.run()
            rt.send(a, "fan", 60)
            rt.run()
            assert rt.call(b, "poke") == 61
            assert rt.quiescent()
            frames = rt.stats.counter("wire.frames")
            messages = rt.stats.counter("wire.messages")
            assert messages >= 60
            # Batching actually happened: strictly fewer frames than
            # messages, so the equality above could not have held if
            # the counters tracked frames.
            assert 0 < frames < messages
        finally:
            rt.close()


# ======================================================================
# layering lint (satellite: must pass as part of tier-1)
# ======================================================================
def test_layering_lint_passes():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo_root, "tools", "check_layering.py")
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_layering_lint_catches_violations(tmp_path):
    """The checker actually detects a backend import in a guarded
    package (guards against the lint rotting into a no-op)."""
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
    ))
    try:
        import check_layering
    finally:
        sys.path.pop(0)
    src = tmp_path / "src"
    bad = src / "repro" / "runtime"
    bad.mkdir(parents=True)
    (bad / "evil.py").write_text(
        "from repro.sim.engine import Simulator\n"
        "import repro.platform.mp\n"
        "from repro.platform.wireformat import FrameEncoder\n"
        "from repro.platform.base import NodeExecutor  # allowed\n"
    )
    problems = check_layering.check(str(src))
    assert len(problems) == 3
    assert "repro.sim.engine" in problems[0]
    assert "repro.platform.mp" in problems[1]
    assert "repro.platform.wireformat" in problems[2]
