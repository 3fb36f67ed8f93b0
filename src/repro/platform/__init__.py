"""Execution backends behind one seam.

The runtime builds its machine through :func:`make_machine`, selecting
a backend by name (usually from ``RuntimeConfig.backend``):

``sim``
    The discrete-event simulator — deterministic, fault-injectable,
    the backend every timing table and invariant replay runs on.

``mp``
    Distributed: one OS *process* per node, batched binary frames
    over a full mesh of stream sockets (UNIX-domain by default, TCP
    with ``net.transport="tcp"``) meshed by address at bring-up, one
    worker loop, token-ring quiescence detection, and cluster-wide
    ``(birthplace, descriptor)`` name resolution with FIR-style
    back-patching on the driver.  Real parallelism, no determinism:
    fault plans run with per-(seed, node) deterministic draw streams,
    spans are recorded in the workers and merged on the driver, and
    non-picklable payloads are hard errors.

Both backends inject faults and record spans; ``sim`` alone replays
deterministically, ``mp`` alone runs nodes in parallel.

``asyncio`` is a deprecated alias, kept for one release, of ``mp``
with ``net.transport="tcp"`` (see ``BACKEND_ALIASES`` in
:mod:`repro.config`).

Backend modules are imported lazily so constructing a sim machine
never pays for ``multiprocessing`` machinery and vice versa, and so
the interface module stays import-cycle-free.
"""

from __future__ import annotations

from typing import Optional

from repro.config import BACKEND_ALIASES, BACKENDS, RuntimeConfig
from repro.errors import ReproError
from repro.platform.base import (
    Clock,
    NodeExecutor,
    PlatformMachine,
    TimerHandle,
    Transport,
)

def make_machine(
    config: RuntimeConfig,
    *,
    backend: Optional[str] = None,
    trace: bool = False,
    faults=None,
) -> PlatformMachine:
    """Construct the partition for ``config`` on the chosen backend.

    ``backend`` defaults to ``config.backend``.  ``faults`` is a
    :class:`~repro.sim.faults.FaultPlan`.
    """
    name = backend if backend is not None else getattr(config, "backend", "sim")
    if name in BACKEND_ALIASES:
        config = config.with_(backend=name)  # warns, resolves the alias
        name = config.backend
    if name == "sim":
        from repro.platform.simbackend import SimMachine

        return SimMachine(config, trace=trace, faults=faults)
    if name == "mp":
        from repro.platform.mp import MpMachine

        return MpMachine(config, trace=trace, faults=faults)
    raise ReproError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
    )


__all__ = [
    "BACKENDS",
    "Clock",
    "NodeExecutor",
    "PlatformMachine",
    "TimerHandle",
    "Transport",
    "make_machine",
]
