"""Property and white-box tests for the binary wire codec
(:mod:`repro.platform.wireformat`): header pack/unpack round trips,
handler-name interning growth, split/partial stream reassembly, and
the framing/flush bookkeeping the mp backend's batching relies on.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.platform.base import WirePacket
from repro.platform.wireformat import (
    DEF,
    MSG,
    MSGR,
    QSC,
    TOK,
    FrameDecoder,
    FrameEncoder,
    MAX_INTERNED,
    encode_payload,
    iter_messages,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_handler_names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=40,
)

_payload_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def packets(draw):
    handler = draw(_handler_names)
    # kind is usually the handler (the common case the codec optimises
    # by sharing the interned id); sometimes distinct.
    kind = handler if draw(st.booleans()) else draw(_handler_names)
    return WirePacket(
        src=draw(st.integers(-1, 127)),
        dst=draw(st.integers(0, 127)),
        handler=handler,
        args=tuple(draw(st.lists(_payload_values, max_size=4))),
        nbytes=draw(st.integers(1, 2**32 - 1)),
        kind=kind,
    )


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(st.lists(packets(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_batch_round_trips_in_one_frame(self, pkts):
        enc, dec = FrameEncoder(), FrameDecoder()
        for p in pkts:
            enc.add_message(p)
        assert enc.messages == len(pkts)
        frame = enc.take_frame()
        assert enc.take_frame() is None  # buffer reset
        assert enc.messages == 0
        dec.feed(frame)
        out = list(iter_messages(dec.drain()))
        assert out == pkts
        assert dec.buffered_bytes == 0

    @given(
        st.lists(packets(), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_and_partial_reads_reassemble(self, pkts, data):
        """A byte-stream transport may deliver any chunking of any
        number of frames; the decoder must yield exactly the sent
        records, in order, with partial frames held back."""
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = bytearray()
        for i, p in enumerate(pkts):
            enc.add_message(p)
            if data.draw(st.booleans(), label=f"flush after {i}"):
                wire += enc.take_frame()
        last = enc.take_frame()
        if last:
            wire += last
        out = []
        pos = 0
        while pos < len(wire):
            step = data.draw(
                st.integers(1, len(wire) - pos), label="chunk size"
            )
            dec.feed(bytes(wire[pos:pos + step]))
            pos += step
            out.extend(iter_messages(dec.drain()))
        assert out == pkts
        assert dec.buffered_bytes == 0

    @given(packets())
    @settings(max_examples=60, deadline=None)
    def test_control_records_interleave_with_messages(self, p):
        enc, dec = FrameEncoder(), FrameDecoder()
        enc.add_token(7, -3, True)
        enc.add_message(p)
        enc.add_quiesce(9)
        dec.feed(enc.take_frame())
        recs = dec.drain()
        assert recs[0] == ("tok", 7, -3, True)
        assert recs[1] == ("msg", p)
        assert recs[2] == ("qsc", 9)

    def test_header_edge_values(self):
        """The struct header's extremes survive: the frontend's -1
        src, the u32 ceilings, an empty args tuple."""
        p = WirePacket(-1, 32767, "h", (), 2**32 - 1, "h")
        enc, dec = FrameEncoder(), FrameDecoder()
        enc.add_message(p)
        dec.feed(enc.take_frame())
        assert list(iter_messages(dec.drain())) == [p]


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------
class TestInterning:
    def test_name_defined_once_per_connection(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        p = WirePacket(0, 1, "deliver_keyed", (1,), 8, "deliver_keyed")
        enc.add_message(p)
        first = len(enc.take_frame())
        enc.add_message(p)
        second = len(enc.take_frame())
        # The second frame carries no DEF record: it is smaller by the
        # DEF header + the utf-8 name.
        assert second == first - (struct.calcsize("!BHH") + len("deliver_keyed"))
        dec.feed(b"")  # no-op
        assert dec.interned == ()

    def test_decoder_table_grows_append_only_across_frames(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        for i, name in enumerate(["alpha", "beta", "gamma"]):
            enc.add_message(WirePacket(0, 1, name, (), 8, name))
            dec.feed(enc.take_frame())
            got = list(iter_messages(dec.drain()))
            assert got[0].handler == name
            assert dec.interned == tuple(["alpha", "beta", "gamma"][: i + 1])

    def test_distinct_kind_interned_separately(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        p = WirePacket(0, 1, "deliver", (), 8, "steal_req")
        enc.add_message(p)
        dec.feed(enc.take_frame())
        assert list(iter_messages(dec.drain())) == [p]
        assert dec.interned == ("deliver", "steal_req")

    @given(st.lists(_handler_names, min_size=1, max_size=30, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_tables_stay_in_step(self, names):
        """Sender and receiver assign the same dense ids in emission
        order, whatever the name set."""
        enc, dec = FrameEncoder(), FrameDecoder()
        for name in names:
            enc.add_message(WirePacket(0, 1, name, (), 8, name))
        dec.feed(enc.take_frame())
        got = [m.handler for m in iter_messages(dec.drain())]
        assert got == names
        assert dec.interned == tuple(names)

    def test_intern_overflow_falls_back_to_raw_name_records(self):
        """Crossing MAX_INTERNED must not kill the connection: the
        last id (0xFFFF itself) is still interned normally, and every
        *new* name past it rides a raw-name MSGR record — while
        already-interned names keep their cheap ids."""
        enc, dec = FrameEncoder(), FrameDecoder()
        # A connection that has already interned all but one id, with
        # the decoder's table grown in step (as it would over the real
        # DEF stream).
        enc._ids = {f"h{i}": i for i in range(MAX_INTERNED)}
        dec._names = [f"h{i}" for i in range(MAX_INTERNED)]
        edge = WirePacket(0, 1, "edge", (1,), 8, "edge")
        past = WirePacket(0, 1, "past", (2,), 8, "past")
        mixed = WirePacket(0, 1, "past", (3,), 8, "h7")  # raw + interned kind
        again = WirePacket(0, 1, "h3", (4,), 8, "h3")    # table still live
        for p in (edge, past, mixed, again):
            enc.add_message(p)
        assert enc.messages == 4
        dec.feed(enc.take_frame())
        assert list(iter_messages(dec.drain())) == [edge, past, mixed, again]
        # "edge" took the last id; "past" was never interned.
        assert enc._ids["edge"] == MAX_INTERNED
        assert "past" not in enc._ids
        assert dec.interned[-1] == "edge"

    def test_raw_name_records_round_trip_on_fresh_connection(self):
        """MSGR records reference no table state at all — a decoder
        that has never seen a DEF must still parse them (split reads
        included)."""
        enc, dec = FrameEncoder(), FrameDecoder()
        enc._ids = {f"h{i}": i for i in range(MAX_INTERNED + 1)}
        pkts = [
            WirePacket(0, 1, "alpha", (i, "x" * i), 8 + i, "beta")
            for i in range(4)
        ]
        for p in pkts:
            enc.add_message(p)
        frame = enc.take_frame()
        for b in frame:  # one byte at a time
            dec.feed(bytes([b]))
        assert list(iter_messages(dec.drain())) == pkts
        assert dec.interned == ()


# ----------------------------------------------------------------------
# malformed streams
# ----------------------------------------------------------------------
def _frame(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


class TestMalformed:
    def test_unknown_tag_rejected(self):
        dec = FrameDecoder()
        dec.feed(_frame(b"\xee"))
        with pytest.raises(NetworkError, match="unknown wire record tag"):
            dec.drain()

    def test_out_of_order_def_rejected(self):
        dec = FrameDecoder()
        dec.feed(_frame(struct.pack("!BHH", DEF, 3, 1) + b"x"))
        with pytest.raises(NetworkError, match="out-of-order intern"):
            dec.drain()

    def test_undefined_handler_id_rejected(self):
        enc = FrameEncoder()
        enc.add_message(WirePacket(0, 1, "h", (), 8, "h"))
        frame = bytearray(enc.take_frame())
        # Skip the DEF record so id 0 arrives undefined.
        def_len = struct.calcsize("!BHH") + 1
        body = frame[4 + def_len:]
        dec = FrameDecoder()
        dec.feed(_frame(bytes(body)))
        with pytest.raises(NetworkError, match="undefined handler-name id"):
            dec.drain()

    def test_payload_overrun_rejected(self):
        body = struct.pack("!BhhHHII", 0x01, 0, 1, 0, 0, 8, 99) + b"xy"
        dec = FrameDecoder()
        dec.feed(_frame(body))
        with pytest.raises(NetworkError, match="overruns its frame"):
            dec.drain()

    def test_truncated_header_is_not_completed_from_the_next_frame(self):
        """A 3-byte QSC record (its rid cut short) followed by a good
        frame: the header must be checked against its own frame's end,
        not decoded from the next frame's bytes."""
        dec = FrameDecoder()
        dec.feed(
            _frame(bytes([QSC, 0, 0])) + _frame(struct.pack("!BI", QSC, 7))
        )
        with pytest.raises(NetworkError, match="header overruns its frame"):
            dec.drain()
        assert dec.drain() == [("qsc", 7)]

    @pytest.mark.parametrize("tag", [MSG, DEF, TOK, QSC, MSGR])
    def test_every_record_header_is_bounded_by_its_frame(self, tag):
        dec = FrameDecoder()
        dec.feed(_frame(bytes([tag, 0, 0])) + _frame(b"\x00" * 32))
        with pytest.raises(NetworkError, match="header overruns its frame"):
            dec.drain()

    def test_error_drops_parsed_frames_so_none_is_parsed_twice(self):
        """A good frame (defining "h") and a bad one in one read: the
        error must trim both, so the next drain neither re-parses the
        good frame (misreporting an out-of-order DEF) nor sees the bad
        one again."""
        enc = FrameEncoder()
        enc.add_message(WirePacket(0, 1, "h", (1,), 8, "h"))
        good = enc.take_frame()
        enc.add_message(WirePacket(0, 1, "h", (2,), 8, "h"))
        later = enc.take_frame()
        dec = FrameDecoder()
        dec.feed(good + _frame(b"\xee"))
        with pytest.raises(NetworkError, match="unknown wire record tag"):
            dec.drain()
        assert dec.buffered_bytes == 0
        dec.feed(later)
        assert [m.args for m in iter_messages(dec.drain())] == [(2,)]

    def test_corrupt_payload_raises_network_error(self):
        enc = FrameEncoder()
        enc.add_message(
            WirePacket(0, 1, "h", (1,), 8, "h"), payload=b"\x80\x05garbage"
        )
        dec = FrameDecoder()
        dec.feed(enc.take_frame())
        with pytest.raises(NetworkError, match="UnpicklingError"):
            dec.drain()

    def test_non_utf8_name_raises_network_error(self):
        dec = FrameDecoder()
        dec.feed(_frame(struct.pack("!BHH", DEF, 0, 2) + b"\xff\xfe"))
        with pytest.raises(NetworkError, match="UnicodeDecodeError"):
            dec.drain()

    def test_non_picklable_payload_raises_at_encode(self):
        import threading

        enc = FrameEncoder()
        p = WirePacket(0, 1, "h", (threading.Lock(),), 8, "h")
        with pytest.raises(Exception):
            enc.add_message(p)
        # Nothing half-written: the buffer still seals cleanly.  (The
        # DEF for "h" may have been emitted; a later message reuses it.)
        enc.add_message(WirePacket(0, 1, "h", (1,), 8, "h"))
        dec = FrameDecoder()
        dec.feed(enc.take_frame())
        assert [m.args for m in iter_messages(dec.drain())] == [(1,)]


# ----------------------------------------------------------------------
# payload sharing
# ----------------------------------------------------------------------
def test_prepickled_payload_reused_verbatim():
    """The broadcast path pickles once and hands the same bytes to
    every destination's encoder."""
    args = ("root", "handler", (1, 2, 3))
    payload = encode_payload(args)
    packets_out = []
    for dst in (1, 2, 3):
        enc, dec = FrameEncoder(), FrameDecoder()
        enc.add_message(WirePacket(0, dst, "t", args, 16, "t"), payload)
        dec.feed(enc.take_frame())
        packets_out.extend(iter_messages(dec.drain()))
    assert [p.args for p in packets_out] == [args] * 3
