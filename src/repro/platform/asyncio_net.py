"""Socket-cluster backend: a partition of processes over a listener mesh.

The mp backend's workers talk over inherited socketpair file
descriptors, which confines a partition to children of one driver
process.  This backend builds the mesh from **real listening sockets**
instead — TCP (``config.net.transport = "tcp"``) or UNIX-domain paths
(``"unix"``, single host, no port management) — so a node is a
process reachable at an address, the shape a multicomputer partition
actually has.  Everything above the link is the mp backend unchanged:
the same :class:`~repro.platform.mp._WorkerHost` and its one worker
loop, batched :mod:`repro.platform.wireformat` frames, driver commands
over a per-node control pipe, and Safra token-ring quiescence riding
the data channels.  Only bring-up differs, and it is address-based:

1. every worker binds a listener (an ephemeral port when
   ``net.port_base == 0``) and reports ``("listening", node, addr)`` on
   its control pipe;
2. the driver collects all addresses and broadcasts the address map;
3. each worker dials its **lower-numbered** peers (exactly one
   connection per pair), redialling for up to ``net.connect_timeout_s``
   while listeners come up, and identifies itself with a 4-byte hello;
4. once a worker holds all ``P - 1`` sockets it reports ``("meshed",
   node)``, hands them to the worker loop, and the driver lets the
   runtime proceed.

Both sides of bring-up are deadline-guarded, so a wedged boot raises
:class:`~repro.errors.NetworkError` naming the node and the peer it
could not reach instead of hanging.  Mesh sockets are blocking, and
TCP ones set ``TCP_NODELAY``: frames are already batched, so Nagle's
algorithm would only hold small frames (tokens, replies) back.

**Loss tolerance attaches where loss can happen.**  A connected stream
delivers every byte in order or fails outright, and a failed stream is
never reconnected (a peer EOF ends the worker and the driver raises
:class:`~repro.errors.NodeFailure`).  So, as on every backend, the
reliable-AM sublayer attaches only when a fault plan is installed —
the injector is then the loss the sublayer repairs.

**Cluster-wide naming stays topology-independent.**  A mail address is
``(birthplace, descriptor)`` and never encodes a transport address; the
driver's :meth:`AsyncioMachine.locate` resolves one exactly the way a
kernel would — ask the birthplace's name-table shard, follow forwarding
guesses node to node (bounded), and **back-patch** its own location
cache with the answer so the next query goes straight to the current
host — the FIR chase of §4.3 run from outside the partition.  The
``("resolve", address)`` worker command underneath is a pure read of
the local name table: it never wakes the balancer or perturbs
quiescence.
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import tempfile
import time
from typing import Dict, Optional

from repro.config import RuntimeConfig
from repro.errors import NetworkError, ReproError
from repro.platform.mp import MpMachine, _fork_context, _report_error, _worker_main

#: Mesh hello: the dialler's node id, sent before any frame.
_HELLO = struct.Struct("!I")

#: Driver-side slack on top of ``net.connect_timeout_s`` for the whole
#: bring-up conversation (P listeners + P·(P-1)/2 dials + acks).
_BOOT_GRACE_S = 30.0

#: Pause between redials of a peer whose listener is not up yet.
_REDIAL_S = 0.02


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


def _net_worker_main(
    node_id: int,
    config: RuntimeConfig,
    costs,
    ctrl,
    unix_dir: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Process entry point (module-level so a spawn start method can
    pickle it): mesh, then serve on the mp worker loop."""
    try:
        peers = _mesh(node_id, config, ctrl, unix_dir)
    except Exception:
        _report_error(ctrl, node_id)
        return
    _worker_main(node_id, config, costs, ctrl, peers, fault_plan)


# ======================================================================
# driver side
# ======================================================================
class AsyncioMachine(MpMachine):
    """A partition of worker processes meshed over listener sockets.

    Inherits the whole mp driver surface (commands, detection rounds,
    snapshot merge, audit, typed node failures); overrides worker
    spawning (address-based bring-up instead of inherited fds) and
    :meth:`locate` (a cluster name chase instead of a full snapshot
    pull).  The backend keeps its historical name ``"asyncio"``.
    """

    deterministic = False
    supports_faults = True
    supports_tracing = False
    distributed = True
    counters_exact = True

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults=None,
    ) -> None:
        super().__init__(config, trace=trace, faults=faults)
        self._unix_dir: Optional[str] = None

    # ------------------------------------------------------------------
    # boot / teardown
    # ------------------------------------------------------------------
    def start_workers(self, costs) -> None:
        """Spawn one worker per node with only a control pipe, then run
        the three-phase mesh bring-up: collect every worker's listener
        address, broadcast the map, wait for all-meshed."""
        if self._procs:
            return
        ctx = _fork_context()
        nn = self.config.num_nodes
        net = self.config.net
        if net.transport == "unix":
            self._unix_dir = tempfile.mkdtemp(prefix="repro-net-")
        for i in range(nn):
            parent, child = ctx.Pipe(duplex=True)
            self._ctrl.append(parent)
            proc = ctx.Process(
                target=_net_worker_main,
                args=(
                    i, self.config, costs, child, self._unix_dir,
                    self.fault_plan,
                ),
                name=f"repro-net-node-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        deadline = time.monotonic() + net.connect_timeout_s + _BOOT_GRACE_S
        addrs: Dict[int, tuple] = {}
        for conn in self._ctrl:
            msg = self._boot_recv(conn, deadline, "listening")
            addrs[msg[1]] = msg[2]
        for conn in self._ctrl:
            conn.send(("peers", addrs))
        for conn in self._ctrl:
            self._boot_recv(conn, deadline, "meshed")

    def _boot_recv(self, conn, deadline: float, expect: str) -> tuple:
        """Wait for one bring-up message on ``conn``, forwarding any
        interleaved events (a worker error must surface as the error,
        not as a bring-up timeout)."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"asyncio backend: timed out waiting for {expect!r} "
                    "during mesh bring-up"
                )
            if not conn.poll(min(remaining, 0.25)):
                self._raise_worker_error()
                continue
            msg = conn.recv()
            if msg[0] == expect:
                return msg
            self._note_event(msg)
            self._raise_worker_error()

    def shutdown(self) -> None:
        super().shutdown()
        if self._unix_dir is not None:
            shutil.rmtree(self._unix_dir, ignore_errors=True)
            self._unix_dir = None

    # ------------------------------------------------------------------
    # cluster naming
    # ------------------------------------------------------------------
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncioMachine(P={self.num_nodes}, "
            f"transport={self.config.net.transport}, "
            f"t={self.clock.now:.1f}us)"
        )
