"""Compact binary wire format for the distributed backends.

PR 5's mp backend pickled a whole :class:`~repro.platform.base.
WirePacket` per message and paid one pipe syscall per packet — which
is why it lost to the in-process backends despite real parallelism.
This module is the remedy, shaped the way PR 1 reshaped the simulator
hot path: everything that crosses an OS boundary is a *frame* — one
length-prefixed batch of records coalesced per destination — and the
per-message cost shrinks to a ``struct``-packed header plus a payload
pickle of the *args only*.

Frame layout (all integers network byte order)::

    frame   := u32 body_len | body
    body    := record+
    record  := MSG | DEF | TOK | QSC | MSGR
    MSG     := u8 0x01 | i16 src | i16 dst | u16 handler_id
               | u16 kind_id | u32 nbytes | u32 payload_len | payload
    DEF     := u8 0x02 | u16 id | u16 name_len | name (utf-8)
    TOK     := u8 0x03 | u32 rid | i64 count | u8 black
    QSC     := u8 0x04 | u32 rid
    MSGR    := u8 0x05 | i16 src | i16 dst | u16 handler_len
               | u16 kind_len | u32 nbytes | u32 payload_len
               | handler (utf-8) | kind (utf-8) | payload

``handler_id``/``kind_id`` index a **per-connection string table**:
the sender interns each handler name the first time it crosses a given
connection by emitting a ``DEF`` record ahead of the first ``MSG``
that references it, and the receiver's table grows append-only in step
(ids are assigned densely from 0 in emission order).  Hot handler
names — ``deliver_keyed``, ``fir_req``, steal chatter — therefore cost
two bytes per message after their first appearance instead of a
pickled string.  Once a connection's table is full (``MAX_INTERNED``
ids assigned) further *new* names degrade gracefully to ``MSGR``
records carrying both names raw — slower per message, but a long-
lived connection with a pathological name population keeps working
instead of dying with a protocol error.  ``TOK``/``QSC`` carry the
Safra token ring's termination-detection traffic in the same stream,
so control messages keep FIFO order with the data they chase.

The encoder accepts a pre-serialised payload so a broadcast can
pickle its args **once per batch** and reuse the bytes across every
destination (see ``_WorkerHost.send_wire``).  Framing never changes
message *identity*: one frame may carry many messages, and quiescence
accounting must count the messages, not the frames — the decoder
yields one record per message precisely so receivers can keep that
arithmetic honest.

This module is transport machinery: only concrete backends (``repro.
platform.mp`` and its kin) may import it.  ``tools/check_layering.py``
rejects any ``repro.runtime`` / ``repro.am`` import of it, exactly as
for the backend modules themselves.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import NetworkError
from repro.platform.base import WirePacket

#: Pickle protocol for message payloads (args tuples only — never the
#: packet object, whose header travels struct-packed).
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Record type tags.
MSG, DEF, TOK, QSC, MSGR = 0x01, 0x02, 0x03, 0x04, 0x05

_LEN = struct.Struct("!I")
_MSG = struct.Struct("!BhhHHII")
_DEF = struct.Struct("!BHH")
_TOK = struct.Struct("!BIqB")
_QSC = struct.Struct("!BI")
#: Raw-name message: same header shape as ``_MSG`` but the two u16
#: fields are utf-8 *lengths* of the handler/kind names that follow.
_MSGR = struct.Struct("!BhhHHII")

#: Interning ids are u16: a connection may carry at most this many
#: distinct handler names (a registry holds a few dozen in practice).
MAX_INTERNED = 0xFFFF

#: What a malformed frame can raise while it is parsed: a header cut
#: short, a payload that does not unpickle, a name that is not utf-8
#: (``UnicodeDecodeError`` is a ``ValueError``).  :meth:`FrameDecoder.
#: drain` turns each into :class:`NetworkError`.
_MALFORMED = (
    NetworkError,
    struct.error,
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    ImportError,
    AttributeError,
)

#: A decoded record: ``("msg", WirePacket)``, ``("tok", rid, count,
#: black)`` or ``("qsc", rid)``.  ``DEF`` records are consumed by the
#: decoder itself (they mutate the string table, nothing else).
Record = Tuple[Any, ...]


def encode_payload(args: tuple) -> bytes:
    """Serialise a message's args tuple.  Raises whatever pickle
    raises — callers translate to :class:`NetworkError` at the send
    site, where the Safra counter can be rolled back."""
    return pickle.dumps(args, PICKLE_PROTOCOL)


def decode_payload(data: bytes) -> tuple:
    return pickle.loads(data)


class FrameEncoder:
    """Per-connection outbound batch buffer.

    Append messages (and ring-control records) with the ``add_*``
    methods; :meth:`take_frame` seals everything appended so far into
    one length-prefixed frame and resets the buffer.  The interning
    table survives across frames — it is per *connection*, not per
    frame — so a name is defined exactly once per connection lifetime.
    """

    __slots__ = ("_ids", "_buf", "messages")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._buf = bytearray()
        #: Messages in the open (unsealed) frame.
        self.messages = 0

    # ------------------------------------------------------------------
    def _intern(self, name: str) -> Optional[int]:
        """Id for ``name``, interning it (and emitting its ``DEF``) on
        first sight — or ``None`` when the table is already full, in
        which case the caller falls back to a raw-name record."""
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._ids)
            if ident > MAX_INTERNED:
                return None
            self._ids[name] = ident
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise NetworkError(f"handler name too long: {name[:32]!r}...")
            self._buf += _DEF.pack(DEF, ident, len(raw))
            self._buf += raw
        return ident

    def add_message(
        self, packet: WirePacket, payload: Optional[bytes] = None
    ) -> None:
        """Append one message.  ``payload`` is the pre-pickled args
        (pass it to share one serialisation across destinations);
        ``None`` pickles ``packet.args`` here."""
        if payload is None:
            payload = encode_payload(packet.args)
        hid = self._intern(packet.handler)
        kid = (
            hid if packet.kind == packet.handler else self._intern(packet.kind)
        )
        if hid is None or kid is None:
            # Intern table full and this message names something new:
            # degrade to a raw-name record rather than killing the
            # connection.  Both names travel explicitly (no sentinel
            # for kind==handler — the overflow path optimises for
            # unambiguity, not bytes).
            hraw = packet.handler.encode("utf-8")
            kraw = packet.kind.encode("utf-8")
            if len(hraw) > 0xFFFF or len(kraw) > 0xFFFF:
                raise NetworkError(
                    f"handler name too long: {packet.handler[:32]!r}..."
                )
            self._buf += _MSGR.pack(
                MSGR, packet.src, packet.dst, len(hraw), len(kraw),
                packet.nbytes, len(payload),
            )
            self._buf += hraw
            self._buf += kraw
        else:
            self._buf += _MSG.pack(
                MSG, packet.src, packet.dst, hid, kid, packet.nbytes,
                len(payload),
            )
        self._buf += payload
        self.messages += 1

    def add_token(self, rid: int, count: int, black: bool) -> None:
        self._buf += _TOK.pack(TOK, rid, count, 1 if black else 0)

    def add_quiesce(self, rid: int) -> None:
        self._buf += _QSC.pack(QSC, rid)

    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes accumulated in the open frame (0 when empty)."""
        return len(self._buf)

    def take_frame(self) -> Optional[bytes]:
        """Seal and return the open frame (length prefix included), or
        ``None`` when nothing is buffered."""
        if not self._buf:
            return None
        frame = _LEN.pack(len(self._buf)) + bytes(self._buf)
        self._buf.clear()
        self.messages = 0
        return frame


class FrameDecoder:
    """Per-connection inbound reassembly + record parser.

    Byte-stream transports deliver arbitrary chunks — half a frame,
    three frames and a header, one byte at a time — so :meth:`feed`
    only buffers; :meth:`drain` parses every *complete* frame and
    returns its records, leaving any trailing partial frame buffered
    for the next read.  The string table mirrors the sender's encoder:
    ``DEF`` records grow it append-only and are not surfaced.

    A malformed frame raises :class:`NetworkError` from :meth:`drain`.
    Every header is checked against its own frame's end, so a record
    cut short is never completed from the next frame's bytes.  The
    bytes up to the end of the bad frame are dropped with the records
    decoded so far in that call, so a later drain never parses a frame
    twice; the stream is not to be trusted past that point, and its
    reader closes it.
    """

    __slots__ = ("_names", "_buf")

    def __init__(self) -> None:
        self._names: List[str] = []
        self._buf = bytearray()

    @property
    def interned(self) -> Tuple[str, ...]:
        """The received string table (white-box for tests)."""
        return tuple(self._names)

    @property
    def buffered_bytes(self) -> int:
        """Bytes held for a not-yet-complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def drain(self) -> List[Record]:
        """Parse and return the records of every complete frame."""
        buf = self._buf
        total = len(buf)
        off = 0
        out: List[Record] = []
        try:
            while total - off >= _LEN.size:
                (body_len,) = _LEN.unpack_from(buf, off)
                end = off + _LEN.size + body_len
                if end > total:
                    break
                self._parse_body(buf, off + _LEN.size, end, out)
                off = end
        except _MALFORMED as exc:
            del buf[:end]
            if isinstance(exc, NetworkError):
                raise
            raise NetworkError(
                f"malformed frame: {type(exc).__name__}: {exc}"
            ) from exc
        if off:
            del buf[:off]
        return out

    # ------------------------------------------------------------------
    def _parse_body(
        self, buf: bytearray, off: int, end: int, out: List[Record]
    ) -> None:
        names = self._names
        while off < end:
            tag = buf[off]
            if tag == MSG:
                if off + _MSG.size > end:
                    raise NetworkError("message header overruns its frame")
                _, src, dst, hid, kid, nbytes, plen = _MSG.unpack_from(buf, off)
                off += _MSG.size
                if off + plen > end:
                    raise NetworkError("message payload overruns its frame")
                args = decode_payload(bytes(buf[off:off + plen]))
                off += plen
                try:
                    handler = names[hid]
                    kind = names[kid]
                except IndexError:
                    raise NetworkError(
                        f"undefined handler-name id {max(hid, kid)} "
                        f"(table holds {len(names)})"
                    ) from None
                out.append(
                    ("msg", WirePacket(src, dst, handler, args, nbytes, kind))
                )
            elif tag == DEF:
                if off + _DEF.size > end:
                    raise NetworkError("name record header overruns its frame")
                _, ident, name_len = _DEF.unpack_from(buf, off)
                off += _DEF.size
                if off + name_len > end:
                    raise NetworkError("name record overruns its frame")
                name = bytes(buf[off:off + name_len]).decode("utf-8")
                off += name_len
                if ident != len(names):
                    raise NetworkError(
                        f"out-of-order intern definition: id {ident} with "
                        f"{len(names)} names known"
                    )
                names.append(name)
            elif tag == MSGR:
                if off + _MSGR.size > end:
                    raise NetworkError("message header overruns its frame")
                _, src, dst, hlen, klen, nbytes, plen = _MSGR.unpack_from(
                    buf, off
                )
                off += _MSGR.size
                if off + hlen + klen + plen > end:
                    raise NetworkError("message payload overruns its frame")
                handler = bytes(buf[off:off + hlen]).decode("utf-8")
                off += hlen
                kind = bytes(buf[off:off + klen]).decode("utf-8")
                off += klen
                args = decode_payload(bytes(buf[off:off + plen]))
                off += plen
                out.append(
                    ("msg", WirePacket(src, dst, handler, args, nbytes, kind))
                )
            elif tag == TOK:
                if off + _TOK.size > end:
                    raise NetworkError("token record header overruns its frame")
                _, rid, count, black = _TOK.unpack_from(buf, off)
                off += _TOK.size
                out.append(("tok", rid, count, bool(black)))
            elif tag == QSC:
                if off + _QSC.size > end:
                    raise NetworkError("quiesce record header overruns its frame")
                (_, rid) = _QSC.unpack_from(buf, off)
                off += _QSC.size
                out.append(("qsc", rid))
            else:
                raise NetworkError(f"unknown wire record tag {tag:#x}")


def iter_messages(records: List[Record]) -> Iterator[WirePacket]:
    """Convenience for tests: just the packets of a record list."""
    for rec in records:
        if rec[0] == "msg":
            yield rec[1]
