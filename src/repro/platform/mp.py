"""Multiprocessing backend: one OS process per processing element.

This is the first backend where the GIL no longer serialises node
execution: every node runs a full runtime kernel inside its own
worker process, active messages cross between nodes as **batched
binary frames** (:mod:`repro.platform.wireformat`) over a full mesh
of stream sockets, and the driver process holds no kernel state at
all — driver operations travel to the owning worker as
synchronously-acknowledged commands on a per-node control pipe, where
the worker runs the same :data:`~repro.runtime.kernel.DRIVER_OPS`
function the simulator runs in-process.

**Bring-up is address-based**, so a node is a process reachable at an
address, the shape a multicomputer partition has, not a child holding
inherited descriptors:

1. every worker binds a listener — a UNIX-domain path under a private
   temp directory (``config.net.transport = "unix"``, the default,
   single host) or a TCP port (``"tcp"``; ephemeral when
   ``net.port_base == 0``) — and reports ``("listening", node, addr)``
   on its control pipe;
2. the driver collects every address and broadcasts the map;
3. each worker dials its **lower-numbered** peers (one connection per
   pair), redialling for up to ``net.connect_timeout_s`` while
   listeners come up, and names itself with a 4-byte hello; it accepts
   hellos only from higher-numbered nodes it has not meshed yet;
4. holding all ``P - 1`` sockets, it reports ``("meshed", node)`` and
   enters the worker loop.

Both sides are deadline-guarded: a wedged boot raises
:class:`~repro.errors.NetworkError` naming the stage and every node
still missing, and a worker that dies during bring-up raises
:class:`~repro.errors.NodeFailure`.  TCP mesh sockets set
``TCP_NODELAY``: frames are already batched, so Nagle's algorithm
would only hold back the small ones (tokens, replies).

The wire path is built for throughput, not per-packet convenience:

- **outbound batching** — packets coalesce per destination in a
  :class:`~repro.platform.wireformat.FrameEncoder` and flush on a
  byte/count threshold (``config.mp.batch_bytes`` /
  ``batch_max_msgs``), on a fixed cadence inside a handler burst, and
  unconditionally before the worker blocks, so N messages cost one
  syscall instead of N and nothing ever waits on an idle worker;
- **compact encoding** — a ``struct``-packed header (src, dst, nbytes,
  interned handler-name id) plus a payload pickle of the args only,
  with a one-slot identity cache so a broadcast fan-out serialises its
  payload once per batch rather than once per destination;
- **one byte-stream link** — each peer pair shares one connected
  socket (``sendall`` writes, bulk ``recv`` reads that can pull many
  frames per syscall; the decoder reassembles split frames), and one
  worker loop blocks on the control pipe and every peer socket at once.

A peer that closes its socket ends the worker: no stream is ever
reconnected, so the driver reports the dead node as a
:class:`~repro.errors.NodeFailure` instead of waiting on it.

Batching never changes message *identity*: the Safra counters below
count messages, not frames — a frame of five counted packets moves the
sender's counter by five and the receiver's by five as each decoded
record is processed, so distributed quiescence detection is exactly as
sound as it was on the one-pickle-per-packet path.

Nothing is shared, so the shared-counter quiescence arithmetic of the
sim backend is unavailable by construction.  Termination is instead
detected with a Safra-style token ring:

- every worker keeps a message counter ``c`` (counted sends minus
  counted receives; steal/ack chatter is excluded, exactly as in the
  other backends' ``net_idle``) and a colour, *black* after any
  counted receive;
- node 0 coordinates: on a driver request it injects a white token
  carrying a running count; each worker forwards the token only when
  *passive* (no handler running, no live non-``steal.poll`` heap
  entry, no unread socket data), adds its counter, blackens the token if
  it is black itself, and turns white;
- when the token returns white to a white node 0 with a zero total,
  no counted message is in flight and no worker holds work: node 0
  circulates a *quiesce* flag (stopping the balancers' polls) and
  reports success to the driver.

Determinism is not supported — OS scheduling orders delivery — but
**fault injection is**: each worker builds its own seeded
:class:`~repro.sim.faults.FaultInjector` over a per-node derivation of
the fault seed and consults it on the wire path at frame-record
granularity (drop/dup/delay/reorder on the sending worker, stall
windows on the receiver).  The per-(seed, node) draw *stream* is
deterministic — replaying a seed reproduces the same fault pattern
relative to each node's local send sequence — even though the global
interleaving is not; Safra's counters stay conserved because a dropped
packet is never counted as in flight and a delayed or duplicated copy
is counted at its actual transmit time while a live heap entry keeps
the node non-passive.  With a plan installed the kernels auto-attach
the reliable AM sublayer and protocol watchdogs exactly as on sim, so
``check_invariants`` can audit packet conservation against the
injected-fault budget on merged (exact, per-process) counters.

**Naming stays topology-independent.**  A mail address is
``(birthplace, descriptor)`` and never encodes a socket address;
:meth:`MpMachine.locate` resolves one the way a kernel would — ask the
birthplace's name-table shard, follow forwarding guesses, back-patch
the driver's cache (the FIR chase of §4.3, run from outside the
partition).

**Spans are recorded in the workers.**  With ``trace=True`` each
worker keeps its own :class:`~repro.tracing.SpanRecorder` ring (the
``config.tracing`` capacity and sample rate, a per-node head-sampling
stream, and ID counters offset by the node id so no two workers hand
out the same trace or span ID) and its own flat
:class:`~repro.tracing.TraceLog`.  The trace context needs no wire
support: :class:`~repro.tracectx.TraceCtx` already rides the pickled
args tuple.  Every worker's :class:`WallClock` counts from the
driver's epoch, passed in at fork — ``perf_counter`` is
``CLOCK_MONOTONIC``, one time base for every process on the host — so
the driver merges the shipped rings into one timeline without any
offset exchange (:meth:`MpMachine._refresh`).

A payload that does not pickle is a **hard error**
(:class:`~repro.errors.NetworkError` on the sending worker, surfaced
to the driver), where the in-process simulator would happily share the
object by reference.  So is a frame that does not decode: the
receiving worker closes that peer's stream and the driver raises one
:class:`~repro.errors.NetworkError` naming both nodes.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import shutil
import socket
import struct
import tempfile
import time
import traceback
from multiprocessing.connection import wait as conn_wait
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.errors import NetworkError, NodeFailure, ReproError, SimulationError
from repro.platform.base import WirePacket
from repro.platform.wireformat import FrameDecoder, FrameEncoder, encode_payload
from repro.rng import RngStreams, _derive_seed
from repro.stats import Histogram, StatsRegistry
from repro.topology import Topology, make_topology
from repro.tracing import NullSpanRecorder, NullTraceLog, SpanRecorder, TraceLog

Callback = Callable[..., None]

#: Pure control chatter: message kinds excluded from the Safra counts
#: so idle nodes trading steal polls (or reliability acks) never hold
#: quiescence open.  Mirrors the counter arithmetic in
#: ``SimMachine.net_idle``.
_CHATTER_KINDS = frozenset({"steal_req", "steal_deny", "__rel_ack__"})

#: Spacing of the per-worker span/trace ID ranges (see
#: ``SpanRecorder(id_base=...)``): node ``i`` counts from ``i << 40``.
_ID_SHIFT = 40

#: Heap-entry label of the balancer's poll timers: the only deferred
#: work a passive node may hold (mirrors the chatter exclusion).
_POLL_LABEL = "steal.poll"

#: Per-conn control-command drain cap per loop iteration.
_DRAIN_CAP = 64

#: Handler-burst cadence: every this-many consecutive heap entries the
#: worker flushes outbound batches and peeks at the network.  Checking
#: after *every* handler (PR 5) cost one poll syscall per event; a
#: small power-of-two batch keeps both latency and syscalls low.
_BURST_MASK = 0x07

#: Mesh hello: the dialler's node id, sent before any frame.
_HELLO = struct.Struct("!I")

#: Slack on top of ``net.connect_timeout_s`` for the whole bring-up
#: conversation (P listeners + P·(P-1)/2 dials + reports).
_BOOT_GRACE_S = 30.0

#: Pause between redials of a peer whose listener is not up yet.
_REDIAL_S = 0.02


class WallClock:
    """Monotonic host clock in microseconds since ``t0`` (a
    ``perf_counter`` reading; default: construction time)."""

    __slots__ = ("_t0",)

    def __init__(self, t0: Optional[float] = None) -> None:
        self._t0 = perf_counter() if t0 is None else t0

    @property
    def epoch(self) -> float:
        return self._t0

    @property
    def now(self) -> float:
        return (perf_counter() - self._t0) * 1e6


def _pickling_errors():
    return (TypeError, AttributeError, pickle.PicklingError)


def _fork_context():
    """Worker processes fork where the platform allows it (cheap, and
    the children inherit the parent's imports)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ======================================================================
# peer channel: one byte-stream socket per (worker, peer) pair
# ======================================================================
class _SocketChannel:
    """Peer link over one end of a connected, blocking byte-stream
    socket (UNIX-domain or TCP; see :func:`_mesh`).

    There is no message boundary: one ``recv`` may return half a frame
    or a dozen frames, and the decoder's reassembly buffer absorbs the
    difference.  Reads are bulk (64 KiB) and non-blocking per call, so
    a burst of small frames costs one syscall, not one per frame."""

    __slots__ = ("sock", "encoder", "decoder", "dirty")

    _CHUNK = 1 << 16

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        self.dirty = False

    def send_frame(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def read_available(self) -> None:
        recv = self.sock.recv
        feed = self.decoder.feed
        while True:
            try:
                data = recv(self._CHUNK, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return
            if not data:
                raise EOFError("peer socket closed")
            feed(data)
            if len(data) < self._CHUNK:
                return


# ======================================================================
# mesh bring-up (worker side)
# ======================================================================
def _listen(node_id: int, config: RuntimeConfig, unix_dir: Optional[str]):
    """Bind this node's listener; returns ``(socket, address)``."""
    net = config.net
    backlog = config.num_nodes
    if net.transport == "unix":
        path = os.path.join(unix_dir, f"node-{node_id}.sock")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.listen(backlog)
        return sock, ("unix", path)
    port = net.port_base + node_id if net.port_base else 0
    family = socket.getaddrinfo(net.host, port, type=socket.SOCK_STREAM)[0][0]
    sock = socket.create_server((net.host, port), family=family, backlog=backlog)
    host, port = sock.getsockname()[:2]
    return sock, ("tcp", host, port)


def _ready(sock: socket.socket, transport: str) -> socket.socket:
    """Put a connected mesh socket in its serving mode."""
    sock.settimeout(None)
    if transport == "tcp":
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _connect(addr: tuple, timeout_s: float) -> socket.socket:
    if addr[0] == "tcp":
        return socket.create_connection(addr[1:], timeout=timeout_s)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    try:
        sock.connect(addr[1])
    except OSError:
        sock.close()
        raise
    return sock


def _dial(node_id: int, peer_id: int, addr: tuple, timeout_s: float):
    """Connect to ``peer_id``'s listener, redialling until it is up or
    ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return _connect(addr, max(deadline - time.monotonic(), 0.001))
        except OSError:
            if time.monotonic() >= deadline:
                raise NetworkError(
                    f"node {node_id}: could not reach peer {peer_id} at "
                    f"{addr!r} within {timeout_s}s"
                ) from None
            time.sleep(_REDIAL_S)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("mesh peer closed during hello")
        buf += chunk
    return buf


def _mesh(
    node_id: int,
    config: RuntimeConfig,
    ctrl,
    unix_dir: Optional[str] = None,
) -> Dict[int, socket.socket]:
    """Run this worker's side of mesh bring-up over ``ctrl`` and return
    ``{peer_id: connected socket}`` for every other node."""
    nn = config.num_nodes
    net = config.net
    deadline = time.monotonic() + net.connect_timeout_s + _BOOT_GRACE_S

    def timed_out(expect: str) -> NetworkError:
        return NetworkError(
            f"node {node_id}: timed out waiting for {expect} during mesh "
            "bring-up"
        )

    def remaining(expect: str) -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise timed_out(expect)
        return left

    listener, addr = _listen(node_id, config, unix_dir)
    peers: Dict[int, socket.socket] = {}
    try:
        ctrl.send(("listening", node_id, addr))
        if not ctrl.poll(remaining("the address map")):
            raise timed_out("the address map")
        msg = ctrl.recv()
        if msg[0] != "peers":
            raise NetworkError(
                f"node {node_id}: expected address map, got {msg[0]!r}"
            )
        addrs: Dict[int, tuple] = msg[1]
        for peer_id in range(node_id):
            sock = _dial(node_id, peer_id, addrs[peer_id], net.connect_timeout_s)
            peers[peer_id] = _ready(sock, net.transport)
            sock.sendall(_HELLO.pack(node_id))
        while len(peers) < nn - 1:
            stage = f"peers ({len(peers)}/{nn - 1} meshed)"
            listener.settimeout(remaining(stage))
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue  # the next remaining() call names the stall
            try:
                sock.settimeout(remaining("a peer hello"))
                (peer_id,) = _HELLO.unpack(_recv_exact(sock, _HELLO.size))
                # Any local process can dial the listener: only a node
                # that dials up (a higher id) and is not yet meshed may
                # take a peer slot.
                if not node_id < peer_id < nn or peer_id in peers:
                    raise NetworkError(
                        f"node {node_id}: rejected a mesh hello claiming "
                        f"node {peer_id} (expected an unmeshed node in "
                        f"{node_id + 1}..{nn - 1})"
                    )
            except BaseException:
                sock.close()
                raise
            peers[peer_id] = _ready(sock, net.transport)
    except BaseException:
        for sock in peers.values():
            sock.close()
        raise
    finally:
        listener.close()
    ctrl.send(("meshed", node_id))
    return peers


# ======================================================================
# worker side: node executor, wire transport, runtime shims
# ======================================================================
class _WorkerTimer:
    """Cancellable handle on a worker heap entry (tombstoning, same
    scheme as the sim backend)."""

    __slots__ = ("_entry", "label")

    def __init__(self, entry: list, label: str = "") -> None:
        self._entry = entry
        self.label = label

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        self._entry[2] = None
        self._entry[3] = ()


class _WorkerNode:
    """One worker process's CPU: a single-threaded heap of
    ``[due_us, seq, fn, args, label]`` entries drained by the host
    loop.  Satisfies :class:`~repro.platform.base.NodeExecutor`."""

    __slots__ = (
        "node_id", "clock", "now", "busy_us", "_in_handler", "events_run",
        "_heap", "_seq",
    )

    def __init__(self, node_id: int, clock: WallClock) -> None:
        self.node_id = node_id
        self.clock = clock
        self.now: float = 0.0
        self.busy_us: float = 0.0
        self._in_handler = False
        self.events_run = 0
        self._heap: List[list] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def _enqueue(self, at: float, fn: Callback, args: tuple, label: str) -> list:
        entry = [at, next(self._seq), fn, args, label]
        heapq.heappush(self._heap, entry)
        return entry

    def execute(self, at: float, fn: Callback, *, label: str = "") -> _WorkerTimer:
        return _WorkerTimer(self._enqueue(at, fn, (), label), label)

    def execute_now(self, fn: Callback, *, label: str = "") -> _WorkerTimer:
        return _WorkerTimer(self._enqueue(self.time(), fn, (), label), label)

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(at, fn, args, "")

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(self.time(), fn, args, "")

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(at, fn, args, "")

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        """Inline: the wall clock never diverges the way the
        simulator's lazy charging allows."""
        fn(*args)

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        if self._in_handler:
            raise SimulationError(
                f"bootstrap on node {self.node_id} during a handler; "
                "use execute_now instead"
            )
        self.now = self.clock.now
        self._in_handler = True
        try:
            return fn()
        finally:
            self._in_handler = False

    def run_entry(self, fn: Callback, args: tuple) -> None:
        """Execute one heap entry or inbound delivery as a handler."""
        self.now = self.clock.now
        self._in_handler = True
        try:
            fn(*args)
        finally:
            self._in_handler = False
            self.events_run += 1

    # ------------------------------------------------------------------
    def charge(self, us: float) -> None:
        if us < 0:
            raise SimulationError(f"negative charge {us}")
        self.now += us
        self.busy_us += us

    @property
    def in_handler(self) -> bool:
        return self._in_handler

    def time(self) -> float:
        return self.now if self._in_handler else self.clock.now

    def passive(self) -> bool:
        """No live heap entry except balancer poll timers."""
        return all(e[2] is None or e[4] == _POLL_LABEL for e in self._heap)

    def live_work(self) -> int:
        return sum(
            1 for e in self._heap if e[2] is not None and e[4] != _POLL_LABEL
        )


class _WireTransport:
    """The worker's view of the interconnect: packets join the
    destination's outbound frame batch (see ``_WorkerHost.send_wire``).
    Supports exactly the AM endpoint's delivery convention
    (``args == (src, handler, payload)``); the callback is never
    invoked on the sending side — the destination process re-binds the
    handler name against its own endpoint."""

    #: Signals the AM endpoint that no peer-endpoint lookup is possible.
    wire_only = True

    def __init__(
        self, host: "_WorkerHost", params, stats: StatsRegistry, faults=None
    ) -> None:
        self.host = host
        self.params = params
        self.stats = stats
        #: Worker-local :class:`~repro.sim.faults.FaultInjector` (or
        #: None).  The AM endpoint caches ``_faults_on`` at
        #: construction, so both are fixed before the kernel is built.
        self.faults = faults
        self._faults_on = faults is not None
        self._c_messages = stats.cell("net.messages")
        self._c_bytes = stats.cell("net.bytes")

    def unicast(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callback,
        args: tuple = (),
        *,
        label: str = "",
    ) -> float:
        if src == dst:
            raise NetworkError("unicast requires distinct src/dst; local sends "
                               "bypass the network")
        if nbytes <= 0:
            raise NetworkError(f"message size must be positive, got {nbytes}")
        if len(args) != 3:
            raise NetworkError(
                "the mp wire transport carries AM endpoint packets only "
                f"(src, handler, payload); got {len(args)} args"
            )
        packet = WirePacket(src, dst, args[1], args[2], nbytes, label or args[1])
        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        if self._faults_on:
            faults = self.faults
            rule = faults.rule_for(packet.kind)
            if rule is not None:
                host = self.host
                now = host.node.time()
                extras = faults.sample(rule, packet.kind, src, dst, now)
                # [] = dropped: the sender paid the wire (net.* above,
                # mirroring the sim's faulty path) but the packet never
                # reaches send_wire, so the Safra count never moves and
                # conservation holds by construction.  A delayed or
                # duplicated copy transmits later from the worker heap:
                # the live (non-poll) entry keeps this node non-passive,
                # so the token ring cannot certify quiescence around it,
                # and its count moves at actual transmit time.
                for extra in extras:
                    if extra <= 0.0:
                        host.send_wire(packet)
                    else:
                        host.node.post(now + extra, host.send_wire, (packet,))
                return host.clock.now
        self.host.send_wire(packet)
        return self.host.clock.now

    def reset_contention(self) -> None:
        """No NIC state to forget."""


class _WorkerMachine:
    """The worker-local slice of the platform: exactly the attribute
    surface :class:`~repro.runtime.kernel.Kernel` reads from
    ``runtime.machine``."""

    def __init__(
        self,
        host: "_WorkerHost",
        config: RuntimeConfig,
        fault_plan=None,
        trace: bool = False,
    ) -> None:
        self.config = config
        self.stats = StatsRegistry()
        self.rng = RngStreams(config.seed)
        node_id = host.node_id
        self.trace = TraceLog(enabled=True) if trace else NullTraceLog()
        self.spans = (
            SpanRecorder(
                enabled=True,
                capacity=config.tracing.span_capacity,
                sample_rate=config.tracing.sample_rate,
                sampler=self.rng.stream(f"tracing.head.{node_id}"),
                id_base=node_id << _ID_SHIFT,
            )
            if trace
            else NullSpanRecorder()
        )
        self.topology: Topology = make_topology(config.topology, config.num_nodes)
        self.faults = None
        if fault_plan is not None:
            # One injector per worker, seeded per (fault seed, node):
            # each node's draw stream is independent and reproducible
            # against its own send sequence.  Built BEFORE the network
            # and kernel — the endpoint caches ``_faults_on`` and the
            # kernel attaches the reliable sublayer iff
            # ``machine.faults is not None``, both at construction.
            import dataclasses

            from repro.sim.faults import FaultInjector

            base = fault_plan.seed if fault_plan.seed is not None else config.seed
            node_plan = dataclasses.replace(
                fault_plan, seed=_derive_seed(base, f"mp-node-{node_id}")
            )
            self.faults = FaultInjector(node_plan, config.seed, self.stats)
        self.network = _WireTransport(
            host, config.network, self.stats, faults=self.faults
        )
        # Keyed by node id so Kernel's ``machine.nodes[node_id]`` works
        # even though only this worker's node exists in-process.
        self.nodes: Dict[int, _WorkerNode] = {node_id: host.node}


class _WorkerRuntime:
    """Worker-local stand-in for :class:`~repro.runtime.system.HalRuntime`:
    one kernel, the real :class:`~repro.runtime.frontend.FrontEnd`, and
    the machine shim above.  Protocol code only ever touches this
    surface, so the kernel runs unmodified."""

    def __init__(
        self,
        host: "_WorkerHost",
        config: RuntimeConfig,
        costs,
        fault_plan=None,
        trace: bool = False,
    ) -> None:
        from repro.am.broadcast import TreeMulticaster
        from repro.runtime.frontend import FrontEnd
        from repro.runtime.kernel import Kernel

        self.host = host
        self.config = config
        self.costs = costs
        self.machine = _WorkerMachine(host, config, fault_plan, trace)
        self.endpoint_directory: Dict[int, Any] = {}
        self.frontend = FrontEnd(self)
        self.kernels = [Kernel(self, host.node_id)]
        self.multicaster = TreeMulticaster(
            self.machine.topology, self.endpoint_directory
        )
        self.multicaster.install()

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def quiescent(self) -> bool:
        """The worker's view of global quiescence: the flag the token
        ring's quiesce broadcast sets (reset by any counted receive or
        work-injecting command).  The balancer polls this to stop."""
        return self.host.quiesced


# ======================================================================
# worker host loop + Safra ring
# ======================================================================
class _WorkerHost:
    """The event loop of one worker process: drains the node heap,
    services the control pipe and peer sockets, and participates in the
    token-ring termination protocol."""

    def __init__(
        self,
        node_id: int,
        config: RuntimeConfig,
        costs,
        ctrl,
        peers: Dict[int, socket.socket],
        fault_plan=None,
        epoch: Optional[float] = None,
        trace: bool = False,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.ctrl = ctrl
        self.peers = peers
        self.clock = WallClock(epoch)
        self.node = _WorkerNode(node_id, self.clock)
        self.quiesced = False
        self._stop = False
        # Safra state: counted sends - counted receives, and the
        # colour (black after any counted receive).  Workers start
        # black: the first round can never falsely succeed.
        self._count = 0
        self._black = True
        self._token: Optional[tuple] = None     # stashed inbound token
        self._detect_rid: Optional[int] = None  # node 0: active request
        self._initiated_rid: Optional[int] = None  # node 0: round launched
        self.channels: Dict[int, _SocketChannel] = {
            nid: _SocketChannel(sock) for nid, sock in peers.items()
        }
        self._by_waitable = {ch.sock: ch for ch in self.channels.values()}
        self._waitables = [ctrl] + [
            self.channels[k].sock for k in sorted(self.channels)
        ]
        #: Channels that may hold unflushed outbound bytes.
        self._dirty: List[Any] = []
        self._batch_bytes = config.mp.batch_bytes
        self._batch_msgs = config.mp.batch_max_msgs
        #: One-slot payload-bytes cache keyed by args-tuple identity:
        #: a broadcast's tree-forward sends the same tuple to every
        #: child, so the pickle runs once per fan-out, not per child.
        #: The strong reference keeps the identity test sound (a freed
        #: tuple's id could be recycled).
        self._pay_obj: Any = None
        self._pay_bytes: bytes = b""
        self.runtime = _WorkerRuntime(self, config, costs, fault_plan, trace)
        self.kernel = self.runtime.kernels[0]
        #: Worker-local injector (None without a plan); consulted on
        #: the receive path for stall windows.
        self._faults = self.runtime.machine.faults
        stats = self.runtime.machine.stats
        self._c_frames = stats.cell("wire.frames")
        self._c_frame_bytes = stats.cell("wire.frame_bytes")
        self._c_wire_msgs = stats.cell("wire.messages")
        self._c_pay_reuse = stats.cell("wire.payload_reuse")

    # ------------------------------------------------------------------
    # wire
    # ------------------------------------------------------------------
    def send_wire(self, packet: WirePacket) -> None:
        ch = self.channels.get(packet.dst)
        if ch is None:
            raise NetworkError(f"no channel to node {packet.dst}")
        counted = packet.kind not in _CHATTER_KINDS
        if counted:
            self._count += 1
        args = packet.args
        if args is self._pay_obj:
            payload = self._pay_bytes
            self._c_pay_reuse.n += 1
        else:
            try:
                payload = encode_payload(args)
            except _pickling_errors() as exc:
                # The packet never left: the failed send must not count
                # as in flight or quiescence detection would hang.
                if counted:
                    self._count -= 1
                raise NetworkError(
                    f"non-picklable payload in {packet.kind!r} packet "
                    f"{packet.src}->{packet.dst}: {exc}"
                ) from exc
            self._pay_obj = args
            self._pay_bytes = payload
        enc = ch.encoder
        enc.add_message(packet, payload)
        self._c_wire_msgs.n += 1
        if not ch.dirty:
            ch.dirty = True
            self._dirty.append(ch)
        if (
            enc.messages >= self._batch_msgs
            or enc.pending_bytes >= self._batch_bytes
        ):
            self._send_now(ch)

    def _send_now(self, ch) -> None:
        """Seal and transmit the channel's open frame, if any."""
        frame = ch.encoder.take_frame()
        if frame is not None:
            self._c_frames.n += 1
            self._c_frame_bytes.n += len(frame)
            ch.send_frame(frame)

    def _flush_pending(self) -> None:
        """Transmit every channel's open frame.  Runs on the handler
        burst cadence and always before the loop blocks, so a buffered
        message never waits on its destination's behalf."""
        dirty = self._dirty
        if not dirty:
            return
        for ch in dirty:
            ch.dirty = False
            self._send_now(ch)
        dirty.clear()

    def _recv_wire(self, packet: WirePacket) -> None:
        if packet.kind not in _CHATTER_KINDS:
            self._count -= 1
            self._black = True
            self.quiesced = False
        endpoint = self.kernel.endpoint
        faults = self._faults
        if faults is not None and faults.node_faulted(self.node_id):
            # Stall window on this node: the packet *has* arrived (its
            # Safra decrement above already happened — conservation is
            # a wire property, not a dispatch property), but delivery
            # waits out the window on the worker heap.  The live entry
            # keeps this node non-passive, so the token ring cannot
            # certify quiescence across a stalled delivery.
            now = self.clock.now
            shifted = faults.stall_shift(self.node_id, now)
            if shifted > now:
                self.node.post(
                    shifted,
                    endpoint._deliver,
                    (packet.src, packet.handler, packet.args),
                )
                return
        self.node.run_entry(
            endpoint._deliver, (packet.src, packet.handler, packet.args)
        )

    # ------------------------------------------------------------------
    # token ring (Safra)
    # ------------------------------------------------------------------
    def _ring_next(self):
        return self.channels[(self.node_id + 1) % self.config.num_nodes]

    def _send_token(self, rid: int, count: int, black: bool) -> None:
        """Ring-control records flush immediately: the token must not
        sit in a batch waiting for data to keep it company.  They share
        the data stream, so any messages already buffered for the ring
        neighbour flush ahead of the token in FIFO order."""
        ch = self._ring_next()
        ch.encoder.add_token(rid, count, black)
        self._send_now(ch)

    def _send_quiesce(self, rid: int) -> None:
        ch = self._ring_next()
        ch.encoder.add_quiesce(rid)
        self._send_now(ch)

    def _passive(self) -> bool:
        if self.node.in_handler or not self.node.passive():
            return False
        if any(ch.decoder.buffered_bytes for ch in self.channels.values()):
            return False  # a partially-read frame is impending work
        # Unread input is impending work; wait for the loop to drain
        # it (Safra would still be correct without this check — the
        # sender's counter covers in-flight messages — but rounds
        # converge faster when the token never overtakes local input).
        return not self._net_ready()

    def _net_ready(self) -> bool:
        """Unread input exists on the control pipe or a peer socket."""
        return bool(conn_wait(self._waitables, 0))

    def _maybe_advance_ring(self) -> None:
        # One step can unblock the next (dropping a stale token clears
        # the way to initiate the round that superseded it), and the
        # loop blocks in conn_wait right after this returns — so run
        # steps to a fixpoint rather than risking a missed wakeup.
        while self._ring_step():
            pass

    def _ring_step(self) -> bool:
        """Perform at most one ring action; True if state changed."""
        nn = self.config.num_nodes
        # Node 0: start a requested round, exactly once, when passive.
        if (
            self.node_id == 0
            and self._detect_rid is not None
            and self._detect_rid != self._initiated_rid
            and self._token is None
        ):
            if not self._passive():
                return False
            rid = self._detect_rid
            self._initiated_rid = rid
            if nn == 1:
                ok = self._count == 0
                self._finish_round(rid, ok)
                return True
            self._black = False
            self._send_token(rid, 0, False)
            return True
        if self._token is None or not self._passive():
            return False
        rid, count, black = self._token
        self._token = None
        if self.node_id == 0:
            if rid != self._detect_rid:
                return True  # stale token from an abandoned round
            ok = (not black) and (not self._black) and (count + self._count == 0)
            self._finish_round(rid, ok)
        else:
            self._send_token(rid, count + self._count, black or self._black)
            self._black = False
        return True

    def _finish_round(self, rid: int, ok: bool) -> None:
        self._detect_rid = None
        if ok:
            self.quiesced = True
            if self.config.num_nodes > 1:
                self._send_quiesce(rid)
        self.ctrl.send(("detected", rid, ok))

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def _do_command(self, payload: tuple):
        """Serve one driver command.  A driver operation
        (:data:`~repro.runtime.kernel.DRIVER_OPS`) runs under the
        node's bootstrap exactly as it does in-process; a reply-taking
        op carries a reply id last, which becomes a sink shipping
        ``("reply", id, value)`` back over the control pipe.  Every op
        but ``collector`` injects work, so it clears the quiesce flag.
        The rest are the worker's own commands."""
        from repro.runtime.kernel import DRIVER_OPS, REPLY_OPS

        op, args = payload[0], payload[1:]
        fn = DRIVER_OPS.get(op)
        if fn is not None:
            if op in REPLY_OPS:
                reply_id = args[-1]
                args = args[:-1] + (
                    lambda v: self.ctrl.send(("reply", reply_id, v)),
                )
            if op != "collector":
                self.quiesced = False
            kernel = self.kernel
            return self.node.bootstrap(lambda: fn(kernel, *args))
        if op == "load":
            from repro.runtime.program import HalProgram

            name, behaviors, tasks = args
            program = HalProgram(name)
            for cls in behaviors:
                program.behavior(cls)
            program.tasks.update(tasks)
            self.runtime.frontend.load(program)
            if self.node_id != 0:
                # One load, P local links: only node 0 books the
                # program so the merged registry matches the sim's.
                self.machine_stats.incr("load.programs", -1)
            self.quiesced = False
            return None
        if op == "kick":
            self.quiesced = False
            self.kernel.balancer.kick()
            return None
        if op == "snap":
            return self._snapshot()
        if op == "resolve":
            return self._resolve(args[0])
        if op == "audit":
            return self._audit()
        if op == "detect":
            # Only node 0 coordinates; a newer request supersedes any
            # round still waiting to start.
            self._detect_rid = args[0]
            return None
        if op == "stop":
            self._stop = True
            return None
        raise ReproError(f"worker {self.node_id}: unknown command {op!r}")

    @property
    def machine_stats(self) -> StatsRegistry:
        return self.runtime.machine.stats

    def _resolve(self, address) -> tuple:
        """One hop of the driver's FIR-style name chase
        (:meth:`MpMachine.locate`):
        this node's current belief about ``address``, read straight
        from the name table — ``("local", node)``, ``("forward",
        best_guess)`` or ``("unknown",)``.  A pure read: it never
        injects work or clears quiescence."""
        desc = self.kernel.table.get(address)
        if desc is None:
            return ("unknown",)
        if desc.is_local:
            return ("local", self.node_id)
        remote = desc.remote_node
        if remote >= 0 and remote != self.node_id:
            return ("forward", remote)
        return ("unknown",)

    def _audit(self) -> Dict[str, Any]:
        """This worker's slice of the invariant audit
        (:func:`repro.sim.invariants.kernel_audit`, computed against the
        real kernel in-process) plus the node's fault ledger and
        summary, which the driver merges across workers."""
        from repro.sim.invariants import kernel_audit

        report = kernel_audit(self.kernel)
        faults = self._faults
        report["ledger"] = list(faults.ledger) if faults is not None else []
        report["fault_summary"] = (
            faults.summary() if faults is not None else {}
        )
        return report

    def _snapshot(self) -> Dict[str, Any]:
        """This worker's observable state, picklable.  With tracing on
        it also ships the raw span ring with its accounting and the
        flat trace records (see :meth:`MpMachine._refresh`)."""
        locations = {}
        actors = 0
        for desc in self.kernel.table:
            if desc.is_local and desc.actor is not None:
                actors += 1
                if desc.key is not None:
                    locations[desc.key] = self.node_id
        machine = self.runtime.machine
        snap = {
            "stats": _dump_registry(self.machine_stats),
            "locations": locations,
            "actors": actors,
            "console": [
                (line.time, line.node, line.text)
                for line in self.runtime.frontend.console
            ],
            "busy_us": self.node.busy_us,
            "events_run": self.node.events_run,
            "now": self.clock.now,
            "pending": self.node.live_work(),
            # Safra state (white-box; debugging and tests only).
            "safra": (self._count, self._black, self._passive()),
        }
        if machine.spans.enabled:
            snap["spans"] = machine.spans.export()
            snap["trace"] = (machine.trace.records, machine.trace.dropped)
        return snap

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _dispatch_ctrl(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "cmd":
            _, seq, payload = msg
            try:
                value = self._do_command(payload)
            except Exception:
                self.ctrl.send(("err", self.node_id, traceback.format_exc()))
            else:
                self.ctrl.send(("ok", seq, value))
        else:
            self.ctrl.send(
                ("err", self.node_id, f"unknown control tag {tag!r}")
            )

    def _dispatch_record(self, rec: tuple) -> None:
        """Process one decoded wire record.  Errors are reported
        per-record so a poisoned message cannot sink the rest of its
        frame (their Safra decrements must still happen)."""
        tag = rec[0]
        try:
            if tag == "msg":
                self._recv_wire(rec[1])
            elif tag == "tok":
                self._token = rec[1:]
            elif tag == "qsc":
                self.quiesced = True
                nxt = (self.node_id + 1) % self.config.num_nodes
                if nxt != 0:
                    self._send_quiesce(rec[1])
            else:  # pragma: no cover - decoder yields only the above
                raise NetworkError(f"unknown record tag {tag!r}")
        except Exception:
            # Protocol errors inside a handler (e.g. a non-picklable
            # payload on a relayed send) are reported and the worker
            # keeps serving, so shutdown still completes cleanly.
            self.ctrl.send(("err", self.node_id, traceback.format_exc()))

    def _run_ready(self) -> None:
        node = self.node
        heap = node._heap
        ran = 0
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heapq.heappop(heap)
                continue
            if entry[0] > self.clock.now:
                break
            heapq.heappop(heap)
            fn, args = entry[2], entry[3]
            entry[2] = None
            node.run_entry(fn, args)
            ran += 1
            if ran & _BURST_MASK == 0:
                # Burst boundary: push batches out so peers compute
                # while we do, and yield to the network if it's ready.
                self._flush_pending()
                if self._net_ready():
                    break

    def _close_peer(self, ch: _SocketChannel, exc: NetworkError) -> None:
        """A frame from this peer did not decode: the stream cannot be
        trusted past it, so stop reading it, close it (the peer sees
        EOF and exits) and tell the driver which link broke."""
        peer = next(nid for nid, c in self.channels.items() if c is ch)
        # Report first: the driver must hold the cause before the
        # peer's exit can reach it.
        self.ctrl.send(("neterr", self.node_id, peer, str(exc)))
        del self._by_waitable[ch.sock]
        self._waitables.remove(ch.sock)
        ch.sock.close()

    def _next_timeout(self) -> Optional[float]:
        heap = self.node._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return max(0.0, (heap[0][0] - self.clock.now) / 1e6)

    def _loop_wait(self) -> None:
        """The worker event loop: block in ``connection.wait`` on the
        control pipe and every peer socket."""
        by_waitable = self._by_waitable
        while not self._stop:
            try:
                self._run_ready()
                self._maybe_advance_ring()
                # Everything buffered goes out before we block: a
                # message parked in an encoder while its destination
                # idles would stall the partition (and, because its
                # send was already counted, park the token ring in
                # failed rounds rather than deadlock — but why wait).
                self._flush_pending()
                timeout = self._next_timeout()
                ready = conn_wait(self._waitables, timeout)
                for waitable in ready:
                    ch = by_waitable.get(waitable)
                    if ch is None:  # the control pipe
                        for _ in range(_DRAIN_CAP):
                            if not self.ctrl.poll():
                                break
                            self._dispatch_ctrl(self.ctrl.recv())
                            if self._stop:
                                return
                    else:
                        ch.read_available()
                        try:
                            records = ch.decoder.drain()
                        except NetworkError as exc:
                            self._close_peer(ch, exc)
                            continue
                        for rec in records:
                            self._dispatch_record(rec)
            except (EOFError, OSError):
                # The driver or a peer went away.  No stream is ever
                # reconnected, so the partition is over: exit and let
                # the driver report the dead node (NodeFailure).
                return
            except Exception:
                try:
                    self.ctrl.send(
                        ("err", self.node_id, traceback.format_exc())
                    )
                except OSError:
                    return


def _worker_main(
    node_id: int,
    config: RuntimeConfig,
    costs,
    ctrl,
    unix_dir: Optional[str] = None,
    fault_plan=None,
    epoch: Optional[float] = None,
    trace: bool = False,
) -> None:
    """Process entry point (module-level so a spawn start method can
    pickle it): mesh, then serve on the worker loop."""
    try:
        peers = _mesh(node_id, config, ctrl, unix_dir)
        _WorkerHost(
            node_id, config, costs, ctrl, peers, fault_plan, epoch, trace
        )._loop_wait()
    except BaseException:  # noqa: BLE001 - last-resort report to driver
        _report_error(ctrl, node_id)


def _report_error(ctrl, node_id: int) -> None:
    """Ship the current traceback to the driver, if it is listening."""
    try:
        ctrl.send(("err", node_id, traceback.format_exc()))
    except OSError:
        pass


# ======================================================================
# registry marshalling
# ======================================================================
def _dump_registry(reg: StatsRegistry) -> Dict[str, Any]:
    """Raw picklable dump of a worker's registry (including zeros, so
    the driver-side rebuild is a pure accumulate)."""
    return {
        "counters": {k: c.n for k, c in reg._cells.items() if c.n},
        "timers": {
            k: (t.count, t.total_us, t.min_us, t.max_us)
            for k, t in reg.timers.items() if t.count
        },
        "gauges": dict(reg.gauges),
        "hists": {
            k: (list(h.buckets), h.count, h.total, h.min, h.max)
            for k, h in reg.hists.items() if h.count
        },
    }


def _merge_registry(into: StatsRegistry, dump: Dict[str, Any]) -> None:
    for k, n in dump["counters"].items():
        into.incr(k, n)
    for k, (count, total_us, min_us, max_us) in dump["timers"].items():
        t = into.timer(k)
        t.count += count
        t.total_us += total_us
        t.min_us = min(t.min_us, min_us)
        t.max_us = max(t.max_us, max_us)
    for k, v in dump["gauges"].items():
        into.max_gauge(k, v)
    for k, (buckets, _count, total, mn, mx) in dump["hists"].items():
        h = into.hist(k)
        h._fold()  # settle any driver-side staged samples first
        for i, n in enumerate(buckets):
            if n and i < Histogram.NUM_BUCKETS:
                h.buckets[i] += n
        # count is derived from the buckets on read; total/min/max
        # accumulate on the private fields behind the folding
        # properties.
        h._total += total
        h._min = min(h._min, mn)
        h._max = max(h._max, mx)


# ======================================================================
# driver side
# ======================================================================
class _StubNode:
    """Driver-side :class:`~repro.platform.base.NodeExecutor` stand-in.

    The real executor lives in the worker process; this stub satisfies
    the structural protocol (so conformance checks and white-box tests
    can introspect the machine) and refuses actual execution — driver
    work must travel as commands."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.now = 0.0
        self.busy_us = 0.0
        self.events_run = 0

    def _refuse(self) -> "ReproError":
        return ReproError(
            f"node {self.node_id} runs in a worker process; the mp "
            "driver cannot execute on it directly — use runtime commands"
        )

    @property
    def in_handler(self) -> bool:
        return False

    def charge(self, us: float) -> None:
        raise self._refuse()

    def time(self) -> float:
        return self.now

    def execute(self, at: float, fn: Callback, *, label: str = ""):
        raise self._refuse()

    def execute_now(self, fn: Callback, *, label: str = ""):
        raise self._refuse()

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        raise self._refuse()


class _StubTransport:
    """Driver-side Transport stand-in (structural conformance only)."""

    def __init__(self, params) -> None:
        self.params = params
        self.faults = None
        self._faults_on = False

    def unicast(self, src, dst, nbytes, deliver, args=(), *, label=""):
        raise ReproError(
            "the mp driver holds no data network; packets travel "
            "between worker processes"
        )

    def reset_contention(self) -> None:
        """Nothing to forget on the driver."""


class MpMachine:
    """A partition of ``config.num_nodes`` worker processes.

    Satisfies :class:`~repro.platform.base.PlatformMachine` with
    ``distributed = True``: the driver side holds stub nodes, a merged
    stats registry, span recorder and trace log (rebuilt from worker
    snapshots), and the command / detection plumbing.  Workers are
    spawned by :meth:`start_workers` (the runtime calls it once it
    knows the cost model)."""

    distributed = True

    #: Driver wait quantum while a detection round is in flight.
    _POLL_S = 0.0005

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults=None,
    ) -> None:
        self.config = config
        #: The fault plan shipped to every worker (each derives its own
        #: per-node injector seed); None when no faults are injected.
        #: The driver itself holds no injector — ``self.faults`` stays
        #: None and the merged ledger comes back through ``audit()``.
        self.fault_plan = (
            faults
            if faults is not None and not getattr(faults, "empty", True)
            else None
        )
        self.clock = WallClock()
        self.stats = StatsRegistry()
        # With tracing on these hold the workers' merged records,
        # rebuilt by every _refresh(); the driver records nothing.
        self.trace = TraceLog(enabled=True) if trace else NullTraceLog()
        self.spans = (
            SpanRecorder(
                enabled=True, capacity=1,
                sample_rate=config.tracing.sample_rate,
            )
            if trace
            else NullSpanRecorder()
        )
        self.rng = RngStreams(config.seed)
        self.topology: Topology = make_topology(config.topology, config.num_nodes)
        self.faults = None
        self.nodes: List[_StubNode] = [
            _StubNode(i) for i in range(config.num_nodes)
        ]
        self.network = _StubTransport(config.network)
        #: Behaviour names shipped to the workers (the runtime's
        #: on-demand loading consults this instead of a kernel).
        self.loaded_behaviors: set = set()
        self.console_lines: List[tuple] = []
        self._procs: List[Any] = []
        self._ctrl: List[Any] = []
        self._seq = itertools.count(1)
        self._rounds = itertools.count(1)
        self._reply_boxes: Dict[int, List[Any]] = {}
        self._reply_ids = itertools.count(1)
        self._detect_rid: Optional[int] = None
        self._detect_ok: Optional[bool] = None
        self._quiesced = False
        self._pending_hint = 0
        self._locations: Dict[Any, int] = {}
        self._actors = 0
        self._worker_error: Optional[str] = None
        self._shut = False
        #: Private directory of the UNIX-domain listeners, if any.
        self._unix_dir: Optional[str] = None
        #: Set once a worker is found dead or a mesh link is broken;
        #: every later control-plane call re-raises it instead of
        #: touching the broken pipes.
        self._failure: Optional[ReproError] = None

    # ------------------------------------------------------------------
    # boot / teardown
    # ------------------------------------------------------------------
    def start_workers(self, costs) -> None:
        """Spawn one worker process per node with a control pipe each,
        then run the mesh bring-up: collect every worker's listener
        address, broadcast the map, wait until every worker is meshed.
        A failed bring-up stops every worker before it raises."""
        if self._procs:
            return
        ctx = _fork_context()
        if self.config.net.transport == "unix":
            self._unix_dir = tempfile.mkdtemp(prefix="repro-mesh-")
        for i in range(self.config.num_nodes):
            parent, child = ctx.Pipe(duplex=True)
            self._ctrl.append(parent)
            proc = ctx.Process(
                target=_worker_main,
                args=(i, self.config, costs, child, self._unix_dir,
                      self.fault_plan, self.clock.epoch, self.spans.enabled),
                name=f"repro-mp-node-{i}",
                daemon=True,
            )
            proc.start()
            # Only the worker may hold its end: a dead worker must
            # read as EOF on the driver's end, not as silence.
            child.close()
            self._procs.append(proc)
        deadline = (
            time.monotonic() + self.config.net.connect_timeout_s + _BOOT_GRACE_S
        )
        try:
            listening = self._boot_stage("listening", deadline)
            addrs = {node: msg[2] for node, msg in listening.items()}
            node = 0
            try:
                for node, conn in enumerate(self._ctrl):
                    conn.send(("peers", addrs))
            except OSError as exc:
                raise self._node_failure(node, exc) from exc
            self._boot_stage("meshed", deadline)
        except BaseException:
            for proc in self._procs:
                proc.terminate()
            self.shutdown()
            raise

    def _boot_stage(self, expect: str, deadline: float) -> Dict[int, tuple]:
        """Collect one ``expect`` report from every worker.  A worker's
        error surfaces as itself, a dead worker as :class:`NodeFailure`,
        and a missed deadline as :class:`NetworkError` naming the stage
        and every node that has not reported."""
        got: Dict[int, tuple] = {}
        nn = len(self._ctrl)
        node = 0
        while len(got) < nn:
            left = deadline - time.monotonic()
            if left <= 0:
                missing = ", ".join(str(i) for i in range(nn) if i not in got)
                raise NetworkError(
                    f"mesh bring-up timed out at stage {expect!r}: "
                    f"node(s) {missing} never reported"
                )
            waiting = [c for i, c in enumerate(self._ctrl) if i not in got]
            try:
                for conn in conn_wait(waiting, min(left, 0.25)):
                    node = self._ctrl.index(conn)
                    msg = conn.recv()
                    if msg[0] == expect:
                        got[node] = msg
                    else:
                        self._note_event(msg)
            except (EOFError, OSError) as exc:
                raise self._node_failure(node, exc) from exc
            self._raise_worker_error()
        return got

    def shutdown(self) -> None:
        """Stop and join every worker process.  Idempotent."""
        if self._shut:
            return
        self._shut = True
        for conn in self._ctrl:
            try:
                conn.send(("cmd", next(self._seq), ("stop",)))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._ctrl:
            conn.close()
        if self._unix_dir is not None:
            shutil.rmtree(self._unix_dir, ignore_errors=True)
            self._unix_dir = None

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _raise_worker_error(self) -> None:
        if self._failure is not None:
            raise self._failure
        if self._worker_error is not None:
            err, self._worker_error = self._worker_error, None
            raise ReproError(f"mp worker failed:\n{err}")

    #: How long a broken control pipe waits for the dead worker's
    #: exit status before naming a node.
    _REAP_S = 1.0

    def _node_failure(self, node: int, exc: BaseException) -> ReproError:
        """Turn a broken control pipe into a typed :class:`NodeFailure`.

        The pipe that broke need not be the dead worker's: a killed
        node's peers see EOF on their sockets and exit cleanly, closing
        their own pipes.  So name the first worker whose exit status is
        non-zero (waiting briefly for it to be reaped), falling back to
        ``node``, whose pipe failed, if every worker exited cleanly.
        A broken mesh link reported by a worker is the cause of the
        exits it triggers, so such a report, pending on any pipe, wins."""
        for conn in self._ctrl:
            try:
                while self._failure is None and conn.poll():
                    self._note_event(conn.recv())
            except (EOFError, OSError):
                pass
        if self._failure is not None:
            return self._failure
        deadline = time.monotonic() + self._REAP_S
        while True:
            codes = [proc.exitcode for proc in self._procs]
            for nid, code in enumerate(codes):
                if code:
                    self._failure = NodeFailure(nid, code)
                    return self._failure
            if time.monotonic() >= deadline or None not in codes:
                break
            time.sleep(0.005)
        self._failure = NodeFailure(node, codes[node], detail=repr(exc))
        return self._failure

    def _note_event(self, msg: tuple) -> None:
        """Record an unsolicited control event (reply, detection
        result, worker error)."""
        tag = msg[0]
        if tag == "reply":
            box = self._reply_boxes.get(msg[1])
            if box is not None:
                box.append(msg[2])
        elif tag == "detected":
            if msg[1] == self._detect_rid:
                self._detect_ok = msg[2]
        elif tag == "err":
            self._worker_error = msg[2]
        elif tag == "neterr":
            _, node, peer, detail = msg
            if self._failure is None:
                self._failure = NetworkError(
                    f"node {node}: malformed frame from peer {peer}; "
                    f"link closed ({detail})"
                )

    def _drain_events(self, timeout: float = 0.0) -> bool:
        """Read every available control event; True if any arrived."""
        got = False
        node = 0
        try:
            for conn in conn_wait(self._ctrl, timeout):
                node = self._ctrl.index(conn)
                while conn.poll():
                    self._note_event(conn.recv())
                    got = True
        except (EOFError, OSError) as exc:
            raise self._node_failure(node, exc) from exc
        self._raise_worker_error()
        return got

    def _send_command(self, conn, payload: tuple) -> int:
        seq = next(self._seq)
        try:
            conn.send(("cmd", seq, payload))
        except _pickling_errors() as exc:
            raise ReproError(
                f"the mp backend requires picklable driver payloads "
                f"(module-level behaviours/tasks, plain-data args): {exc}"
            ) from exc
        return seq

    def _await_ack(self, conn, seq: int) -> Any:
        while True:
            msg = conn.recv()
            if msg[0] == "ok" and msg[1] == seq:
                return msg[2]
            self._note_event(msg)
            self._raise_worker_error()

    def command(self, node: int, payload: tuple) -> Any:
        """Send one command to ``node`` and block for its ack, noting
        any interleaved unsolicited events."""
        self._raise_worker_error()
        conn = self._ctrl[node]
        try:
            return self._await_ack(conn, self._send_command(conn, payload))
        except (EOFError, OSError) as exc:
            raise self._node_failure(node, exc) from exc

    def broadcast_command(self, payload: tuple) -> List[Any]:
        """Send the same command to every worker; wait for all acks."""
        self._raise_worker_error()
        node = 0
        try:
            seqs = []
            for node, conn in enumerate(self._ctrl):
                seqs.append(self._send_command(conn, payload))
            values = []
            for node, (conn, seq) in enumerate(zip(self._ctrl, seqs)):
                values.append(self._await_ack(conn, seq))
            return values
        except (EOFError, OSError) as exc:
            raise self._node_failure(node, exc) from exc

    # ------------------------------------------------------------------
    # driver operations (HalRuntime._drive and load)
    # ------------------------------------------------------------------
    def load_program(self, program) -> None:
        from repro.actors.behavior import behavior_of

        payload = (
            "load",
            program.name,
            tuple(program.behaviors),
            dict(program.tasks),
        )
        self._quiesced = False
        self.broadcast_command(payload)
        for cls in program.behaviors:
            self.loaded_behaviors.add(behavior_of(cls).name)

    def new_reply_box(self, box: List[Any]) -> int:
        """Register ``box`` for the replies of one reply-taking driver
        op and return the reply id the worker tags them with; each
        ``("reply", id, value)`` event appends its value to the box."""
        reply_id = next(self._reply_ids)
        self._reply_boxes[reply_id] = box
        return reply_id

    # ------------------------------------------------------------------
    # execution control + termination detection
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[float] = None,
        until_idle: bool = True,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Drive the partition until the token ring certifies global
        quiescence, a predicate fires, or the wall-clock deadline
        ``until`` (µs) passes.  Workers run continuously; this loop
        only coordinates detection and drains control events."""
        if not self._procs:
            return self.clock.now
        self._quiesced = False
        self.broadcast_command(("kick",))
        self._start_detection()
        try:
            while True:
                if stop_when is not None and stop_when():
                    break
                if until is not None and self.clock.now >= until:
                    break
                self._drain_events(self._POLL_S)
                if self._detect_ok is not None:
                    ok, self._detect_ok = self._detect_ok, None
                    if ok:
                        self._quiesced = True
                        # Late events (a reply raced the detection
                        # result on another pipe) are still owed to the
                        # caller: drain once more before returning.
                        self._drain_events(0.0)
                        break
                    self._start_detection()
        finally:
            self._detect_rid = None
            self._refresh()
        return self.clock.now

    def _start_detection(self) -> None:
        rid = next(self._rounds)
        self._detect_rid = rid
        self._detect_ok = None
        self.command(0, ("detect", rid))

    def quiescent(self) -> bool:
        """True when the token ring certifies no work remains.

        A cached positive verdict is trusted (only driver-issued
        commands can inject new work, and each of those clears it);
        otherwise a fresh detection round runs, bounded by a short
        deadline so a genuinely busy partition answers False promptly
        instead of blocking until its work drains."""
        if self._quiesced:
            return True
        if not self._procs or self._shut:
            return True
        self._start_detection()
        deadline = self.clock.now + 250_000.0  # 0.25 s
        while self.clock.now < deadline:
            self._drain_events(self._POLL_S)
            if self._detect_ok is not None:
                ok, self._detect_ok = self._detect_ok, None
                if ok:
                    self._quiesced = True
                    return True
                # A failed round may just have whitened a ring that
                # was black from earlier traffic; retry until the
                # deadline (the token parks at any busy worker, so a
                # genuinely active partition simply times out).
                self._start_detection()
        return False

    def net_idle(self) -> bool:
        return self.quiescent()

    def register_work_probe(self, probe) -> None:
        """Driver-side probes are meaningless here — worker passivity
        is observed by the token ring inside each process."""

    # ------------------------------------------------------------------
    # observation (snapshot merge)
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Pull a snapshot from every worker and rebuild the merged
        registry, location map and console — and, with tracing on, the
        span recorder and trace log (one timeline: every worker's clock
        counts from the driver's epoch)."""
        if not self._procs or self._shut or self._failure is not None:
            return
        snaps = self.broadcast_command(("snap",))
        self.stats.reset()
        self._locations = {}
        self._actors = 0
        self._pending_hint = 0
        console: List[tuple] = []
        for nid, snap in enumerate(snaps):
            _merge_registry(self.stats, snap["stats"])
            self._locations.update(snap["locations"])
            self._actors += snap["actors"]
            self._pending_hint += snap["pending"]
            console.extend(snap["console"])
            stub = self.nodes[nid]
            stub.busy_us = snap["busy_us"]
            stub.events_run = snap["events_run"]
            stub.now = snap["now"]
        self.console_lines = sorted(console)
        if self.spans.enabled:
            self.spans.merge_from([snap["spans"] for snap in snaps])
            self.trace.records = sorted(
                (r for snap in snaps for r in snap["trace"][0]),
                key=lambda r: r.time,
            )
            self.trace.dropped = sum(snap["trace"][1] for snap in snaps)

    #: Bound on the reliable-layer settle wait in :meth:`audit`.
    _AUDIT_SETTLE_S = 5.0

    def audit(self) -> List[Dict[str, Any]]:
        """Collect every worker's invariant-audit slice (retained-work
        problems, name-table view, fault ledger) and refresh the merged
        stats, so the driver-side ``check_invariants`` sees exact
        post-quiescence counters.  See ``_WorkerHost._audit``.

        Steal chatter is excluded from Safra counting, so its reliable
        envelopes can be dropped *behind* the token and still be
        mid-retransmit when the ring certifies quiescence.  That
        residue self-heals (retransmit timers keep firing after
        certification; the balancers have stopped, so it strictly
        drains) — settle-wait for it, bounded, and let a *persistent*
        unacked envelope surface as the real violation it is."""
        deadline = time.monotonic() + self._AUDIT_SETTLE_S
        while True:
            reports = self.broadcast_command(("audit",))
            if not any(r["rel_pending"] for r in reports):
                break
            if time.monotonic() >= deadline:  # pragma: no cover
                break
            time.sleep(0.002)
        self._refresh()
        return reports

    def locate(self, address) -> Optional[int]:
        """Resolve a mail address cluster-wide, the way a kernel would.

        Start at the cached last-known host if one exists, else at the
        **birthplace shard** the address itself encodes
        (:meth:`MailAddress.home_node`); ask each node's name table in
        turn, following ``("forward", n)`` guesses — stale guesses form
        chains, never cycles longer than the migration history, so the
        chase is bounded — and back-patch the driver cache on success
        exactly as a FIR reply back-patches a kernel's descriptor.
        Falls back to a full snapshot merge only when the chase dead-
        ends (e.g. the address was never bound)."""
        if not self._procs or self._shut:
            return self._locations.get(address)
        nn = self.config.num_nodes
        home = address.home_node()
        hint = self._locations.get(address)
        node = hint if hint is not None else home
        tried_home = node == home
        for _ in range(2 * nn + 2):
            if not (0 <= node < nn):
                break
            resp = self.command(node, ("resolve", address))
            tag = resp[0]
            if tag == "local":
                self._locations[address] = node  # back-patch
                return node
            if tag == "forward":
                nxt = resp[1]
                if nxt == node:  # pragma: no cover - self-loop guard
                    break
                node = nxt
                if node == home:
                    tried_home = True
                continue
            # "unknown" here: a stale cache entry may point at a node
            # that already forgot the actor — restart once from the
            # birthplace shard, which learns every creation it issued.
            if not tried_home:
                node, tried_home = home, True
                continue
            break
        self._refresh()
        return self._locations.get(address)

    def actor_locations(self) -> Dict[Any, int]:
        self._refresh()
        return dict(self._locations)

    def total_actors(self) -> int:
        self._refresh()
        return self._actors

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def node(self, node_id: int) -> _StubNode:
        return self.nodes[node_id]

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        return 0 if self._quiesced else self._pending_hint

    @property
    def events_executed(self) -> int:
        return sum(n.events_run for n in self.nodes)

    def cpu_utilisation(self) -> List[float]:
        elapsed = self.clock.now or 1.0
        return [min(1.0, n.busy_us / elapsed) for n in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MpMachine(P={self.num_nodes}, topology={self.config.topology}, "
            f"t={self.clock.now:.1f}us)"
        )
