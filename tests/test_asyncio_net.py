"""The mp backend's listener mesh: read-loop robustness, bring-up and
cluster naming.  (The file keeps the name of the ``asyncio`` backend,
now a deprecated alias of mp over TCP, whose alias tests live here.)

The adversarial-segmentation properties drive the worker loop's
*actual* read path (``_SocketChannel.read_available``) over a real
socket: a stream may present any byte chunking of any frame sequence,
and the channel's decoder must reassemble exactly the sent records,
while a peer EOF must end the read loop.  The bring-up tests pin the
deadlines and the typed errors: dialling a dead address fails naming
the node and the peer, a forged hello is refused naming the claimed
id, a worker that dies mid-bring-up is a ``NodeFailure`` and a wedged
boot names the stage and the missing node.  The naming tests pin the
driver-side FIR-style chase: resolution starts from the birthplace
shard an address encodes, follows forwarding guesses, and back-patches
the driver cache.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from multiprocessing import Pipe, active_children

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.scenarios import run_migration_tour, run_scenario
from repro.config import NetParams, RuntimeConfig
from repro.errors import NetworkError, NodeFailure
from repro.platform import mp
from repro.platform.base import WirePacket
from repro.platform.mp import _SocketChannel, _mesh
from repro.platform.wireformat import FrameDecoder, FrameEncoder


# ----------------------------------------------------------------------
# adversarial stream segmentation through the worker's read path
# ----------------------------------------------------------------------
def _simple_packets():
    names = st.sampled_from(["deliver_keyed", "fir_req", "__rel__", "h"])
    return st.builds(
        WirePacket,
        src=st.integers(0, 7),
        dst=st.integers(0, 7),
        handler=names,
        args=st.tuples(st.integers(-1000, 1000), st.text(max_size=8)),
        nbytes=st.integers(1, 4096),
        kind=names,
    )


class TestAdversarialSegmentation:
    @given(
        st.lists(_simple_packets(), min_size=1, max_size=16),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_read_loop_reassembles_any_chunking(self, pkts, data):
        """Write the wire bytes in adversarially-chosen chunks, reading
        after each and draining at arbitrary points; the channel must
        yield exactly the records a whole-stream decode yields, and the
        peer's EOF must end the read loop."""
        enc = FrameEncoder()
        wire = bytearray()
        for i, p in enumerate(pkts):
            enc.add_message(p)
            # Interleave control records and frame boundaries so the
            # chunking crosses frames, not just messages.
            if data.draw(st.booleans(), label=f"token after {i}"):
                enc.add_token(i, i - 3, bool(i & 1))
            if data.draw(st.booleans(), label=f"flush after {i}"):
                wire += enc.take_frame()
        enc.add_quiesce(99)
        wire += enc.take_frame()
        expect_dec = FrameDecoder()
        expect_dec.feed(bytes(wire))
        expected = list(expect_dec.drain())

        writer, reader = socket.socketpair()
        try:
            ch = _SocketChannel(reader)
            records = []
            pos = 0
            while pos < len(wire):
                step = data.draw(
                    st.integers(1, len(wire) - pos), label="chunk size"
                )
                writer.sendall(bytes(wire[pos:pos + step]))
                pos += step
                ch.read_available()
                if data.draw(st.booleans(), label="drain"):
                    records.extend(ch.decoder.drain())
            writer.close()
            with pytest.raises(EOFError):
                ch.read_available()
            records.extend(ch.decoder.drain())
        finally:
            writer.close()
            reader.close()
        assert records == expected

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_read_loop_holds_partial_frames_across_reads(self, data):
        """A frame split at any byte never yields early or corrupts:
        records appear only once their frame completes, and the
        partial frame keeps the channel non-empty (so the worker is
        never passive with it pending)."""
        enc = FrameEncoder()
        p = WirePacket(0, 1, "deliver_keyed", (42,), 64, "deliver_keyed")
        enc.add_message(p)
        wire = enc.take_frame()
        cut = data.draw(st.integers(1, len(wire) - 1), label="cut")

        writer, reader = socket.socketpair()
        try:
            ch = _SocketChannel(reader)
            writer.sendall(wire[:cut])
            ch.read_available()
            assert list(ch.decoder.drain()) == []
            assert ch.decoder.buffered_bytes == cut
            writer.sendall(wire[cut:])
            ch.read_available()
            assert list(ch.decoder.drain()) == [("msg", p)]
        finally:
            writer.close()
            reader.close()


# ----------------------------------------------------------------------
# mesh bring-up: deadline-guarded dialling
# ----------------------------------------------------------------------
class TestMeshBringUp:
    def test_unreachable_peer_raises_network_error_naming_both(self):
        """Node 1 of 2 is handed an address nobody listens on: it must
        give up after ``connect_timeout_s`` with an error that names
        itself and the peer, not redial forever."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        cfg = RuntimeConfig(
            num_nodes=2, backend="mp",
            net=NetParams(transport="tcp", connect_timeout_s=0.2),
        )
        driver, worker = Pipe(duplex=True)
        driver.send(("peers", {0: ("tcp", "127.0.0.1", port)}))
        start = time.monotonic()
        try:
            with pytest.raises(NetworkError, match="node 1") as info:
                _mesh(1, cfg, worker)
            assert "peer 0" in str(info.value)
            assert str(port) in str(info.value)
            assert time.monotonic() - start < 5.0
            assert driver.recv()[0] == "listening"
        finally:
            driver.close()
            worker.close()


    @pytest.mark.parametrize(
        "claims, bad",
        [([7], 7), ([0], 0), ([1, 1], 1)],
        ids=["out-of-range", "not-higher", "already-meshed"],
    )
    def test_forged_hello_is_rejected_naming_node_and_claim(
        self, monkeypatch, claims, bad
    ):
        """Any local process can dial a listener.  Node 0 of 3 must
        refuse a hello claiming an id out of range, not above its own,
        or already meshed — not file the socket under that id."""
        monkeypatch.setattr(mp, "_BOOT_GRACE_S", 1.0)
        cfg = RuntimeConfig(
            num_nodes=3, backend="mp",
            net=NetParams(transport="tcp", connect_timeout_s=0.5),
        )
        driver, worker = Pipe(duplex=True)
        outcome = {}

        def run():
            try:
                outcome["peers"] = _mesh(0, cfg, worker)
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        dialled = []
        try:
            tag, _, addr = driver.recv()
            assert tag == "listening"
            driver.send(("peers", {0: addr}))
            for claim in claims:
                sock = socket.create_connection(addr[1:], timeout=5.0)
                sock.sendall(struct.pack("!I", claim))
                dialled.append(sock)
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            error = outcome.get("error")
            assert isinstance(error, NetworkError), outcome
            assert "node 0" in str(error)
            assert f"claiming node {bad}" in str(error)
        finally:
            for sock in dialled:
                sock.close()
            driver.close()
            worker.close()

    def test_worker_death_during_bring_up_raises_node_failure(
        self, monkeypatch
    ):
        """Node 1 exits with status 3 inside its bring-up (the patch is
        inherited by the forked workers): the driver must raise a
        ``NodeFailure`` naming node 1 and the status, and reap every
        worker."""
        from repro.runtime.system import HalRuntime

        real_mesh = mp._mesh

        def dying_mesh(node_id, *args):
            if node_id == 1:
                os._exit(3)
            return real_mesh(node_id, *args)

        monkeypatch.setattr(mp, "_mesh", dying_mesh)
        start = time.monotonic()
        with pytest.raises(NodeFailure) as info:
            HalRuntime(RuntimeConfig(num_nodes=3, backend="mp"))
        assert time.monotonic() - start < 5.0
        assert (info.value.node, info.value.exitcode) == (1, 3)
        assert not any(
            p.name.startswith("repro-mp-node-") for p in active_children()
        )

    def test_wedged_boot_names_the_stage_and_the_missing_node(
        self, monkeypatch
    ):
        """Node 1 never reports its listener: bring-up must fail within
        the boot deadline with a ``NetworkError`` naming the stage and
        node 1, and stop every worker."""
        from repro.runtime.system import HalRuntime

        real_mesh = mp._mesh

        def wedged_mesh(node_id, *args):
            if node_id == 1:
                time.sleep(60.0)
            return real_mesh(node_id, *args)

        monkeypatch.setattr(mp, "_mesh", wedged_mesh)
        monkeypatch.setattr(mp, "_BOOT_GRACE_S", 0.5)
        cfg = RuntimeConfig(
            num_nodes=3, backend="mp", net=NetParams(connect_timeout_s=0.2)
        )
        start = time.monotonic()
        with pytest.raises(NetworkError) as info:
            HalRuntime(cfg)
        assert time.monotonic() - start < 5.0
        assert "'listening'" in str(info.value)
        assert "node(s) 1 " in str(info.value)
        assert not any(
            p.name.startswith("repro-mp-node-") for p in active_children()
        )


# ----------------------------------------------------------------------
# cluster naming: birthplace-shard resolution with back-patching
# ----------------------------------------------------------------------
class TestClusterNaming:
    def test_locate_chases_from_the_birthplace_shard_and_backpatches(self):
        """After a migration tour the birthplace's table only holds a
        forwarding guess; a driver with a cold cache must still resolve
        the address (chasing node to node) and must cache the answer so
        the next query is a single hop."""
        res = run_migration_tour(
            trace=False, backend="mp", num_nodes=4, n=3
        )
        try:
            machine = res.runtime.machine
            [(addr, true_node)] = machine.actor_locations().items()
            assert true_node == res.summary["final_node"]
            machine._locations.clear()  # cold cache: force a chase
            assert machine.locate(addr) == true_node
            assert machine._locations[addr] == true_node  # back-patched
            # Warm cache: the next resolve starts at the cached node
            # and confirms locally in one hop.
            assert machine.locate(addr) == true_node
        finally:
            res.runtime.close()

    def test_resolve_is_a_pure_read(self):
        """Name resolution must not wake the partition: quiescence
        certified before a locate still holds after it."""
        res = run_migration_tour(
            trace=False, backend="mp", num_nodes=4, n=3
        )
        try:
            rt = res.runtime
            assert rt.quiescent()
            machine = rt.machine
            [(addr, _)] = machine.actor_locations().items()
            machine._locations.clear()
            machine.locate(addr)
            assert rt.quiescent()
        finally:
            res.runtime.close()

    def test_unknown_address_falls_back_to_snapshot(self):
        from repro.runtime.names import AddrKind, MailAddress

        res = run_scenario("ping_pong", trace=False, backend="mp")
        try:
            bogus = MailAddress(AddrKind.ORDINARY, 1, 999_999)
            assert res.runtime.machine.locate(bogus) is None
        finally:
            res.runtime.close()


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class TestTransports:
    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_ping_pong_converges(self, transport):
        res = run_scenario(
            "ping_pong", trace=False, backend="mp",
            net=NetParams(transport=transport),
        )
        try:
            assert res.summary["rally"] == 40
            assert res.runtime.quiescent()
        finally:
            res.runtime.close()


# ----------------------------------------------------------------------
# the deprecated ``asyncio`` backend name
# ----------------------------------------------------------------------
class TestAsyncioAlias:
    """For one release ``asyncio`` still selects what it meant by
    default — mp over TCP — and warns naming ``backend='mp'``."""

    def test_config_resolves_to_mp_over_tcp(self):
        with pytest.warns(DeprecationWarning, match="backend='mp'"):
            cfg = RuntimeConfig(num_nodes=2, backend="asyncio")
        assert (cfg.backend, cfg.net.transport) == ("mp", "tcp")
        assert RuntimeConfig().net.transport == "unix"

    def test_make_machine_resolves_to_mp_over_tcp(self):
        from repro.platform import make_machine
        from repro.platform.mp import MpMachine

        with pytest.warns(DeprecationWarning, match="backend='mp'"):
            machine = make_machine(RuntimeConfig(num_nodes=2), backend="asyncio")
        try:
            assert isinstance(machine, MpMachine)
            assert machine.config.net.transport == "tcp"
        finally:
            machine.shutdown()

    def test_cli_runs_on_mp(self, capsys):
        from repro.cli import main

        with pytest.warns(DeprecationWarning, match="backend='mp'"):
            assert main(["run", "ping_pong", "--backend", "asyncio"]) == 0
        assert "backend=mp" in capsys.readouterr().out
