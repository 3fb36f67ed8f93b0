"""Socket-cluster ("asyncio") backend: read-loop robustness, mesh
bring-up and cluster naming.

The adversarial-segmentation properties drive the worker loop's
*actual* read path (``_SocketChannel.read_available``) over a real
socket: TCP may present any byte chunking of any frame sequence, and
the channel's decoder must reassemble exactly the sent records, while
a peer EOF must end the read loop.  The bring-up test pins the
deadline: dialling a dead address fails with an error naming the node
and the peer.  The naming tests pin the driver-side FIR-style chase:
resolution starts from the birthplace shard an address encodes,
follows forwarding guesses, and back-patches the driver cache.
"""

from __future__ import annotations

import socket
import time
from multiprocessing import Pipe

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.scenarios import run_migration_tour, run_scenario
from repro.config import NetParams, RuntimeConfig
from repro.errors import NetworkError
from repro.platform.asyncio_net import _mesh
from repro.platform.base import WirePacket
from repro.platform.mp import _SocketChannel
from repro.platform.wireformat import FrameDecoder, FrameEncoder


# ----------------------------------------------------------------------
# adversarial TCP segmentation through the worker's read path
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
            num_nodes=2, backend="asyncio",
            net=NetParams(connect_timeout_s=0.2),
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
            trace=False, backend="asyncio", num_nodes=4, n=3
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
            trace=False, backend="asyncio", num_nodes=4, n=3
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

        res = run_scenario("ping_pong", trace=False, backend="asyncio")
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
            "ping_pong", trace=False, backend="asyncio",
            net=NetParams(transport=transport),
        )
        try:
            assert res.summary["rally"] == 40
            assert res.runtime.quiescent()
        finally:
            res.runtime.close()
