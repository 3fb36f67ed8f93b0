"""Discrete-event simulated multicomputer (the CM-5 substitute).

This package provides the machine substrate the sim backend runs on:

- :mod:`repro.sim.engine` — deterministic event heap and per-node
  virtual clocks;
- :mod:`repro.sim.network` — contention-aware interconnect model;
- :mod:`repro.sim.faults` / :mod:`repro.sim.invariants` — fault
  injection and the post-run audit.

For convenience it also re-exports the layer-neutral pieces every
backend shares: the partition (:class:`Machine`, the discrete-event
backend :class:`repro.platform.simbackend.SimMachine`), topologies
(:mod:`repro.topology`), named random streams (:mod:`repro.rng`),
stats (:mod:`repro.stats`) and tracing (:mod:`repro.tracing`,
:mod:`repro.timeline`).
"""

from repro.platform.simbackend import SimMachine as Machine
from repro.rng import RngStreams
from repro.sim.engine import Event, Simulator, SimNode
from repro.sim.network import Network
from repro.stats import Histogram, StatsRegistry
from repro.timeline import chrome_trace, spans_jsonl
from repro.topology import FatTreeTopology, HypercubeTopology, make_topology
from repro.tracectx import TraceCtx
from repro.tracing import (
    NullSpanRecorder,
    NullTraceLog,
    Span,
    SpanRecorder,
    TraceLog,
)

__all__ = [
    "Event",
    "Simulator",
    "SimNode",
    "Machine",
    "Network",
    "RngStreams",
    "StatsRegistry",
    "Histogram",
    "FatTreeTopology",
    "HypercubeTopology",
    "make_topology",
    "TraceLog",
    "NullTraceLog",
    "TraceCtx",
    "Span",
    "SpanRecorder",
    "NullSpanRecorder",
    "chrome_trace",
    "spans_jsonl",
]
