"""Benchmark phases and metrics: set-up, timed phase, teardown, ledger.

``--trace 0`` sets the runtime up several times (set-up time is the
median), then times a closed loop of driver requests for ``seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the same loop
untraced for half the time (for the trace overhead, the counters and
the set-up breakdown), then again with the span ledger installed for
the other half, and reports the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import HalRuntime
from repro.platform.wireformat import FrameDecoder, FrameEncoder

from perfbench import measure
from perfbench.ledger import DRIVER_TARGETS, KERNEL_TARGETS, SpanLedger
from perfbench.workloads import WORKLOADS, Workload

#: Spans held in memory before a traced phase stops early (~24 bytes each).
SPAN_CAPACITY = 2_000_000
#: Messages per frame in the encode/decode replay (the mp batch default).
REPLAY_BATCH = 128
#: Latency percentiles are taken per window of about this many seconds.
WINDOW_S = 3.0


@dataclass
class Phase:
    """What one timed phase measured."""

    ops: int
    wall_s: float
    latencies_s: List[float]
    #: Completion time of each request, seconds from the phase start.
    ends_s: List[float]
    cpu_s: float
    #: Share of the machine's CPU time the hypervisor stole meanwhile.
    steal_frac: float
    rss_mb: float
    counters: Dict[str, int]
    model_us: float
    events: int

    @property
    def requests(self) -> int:
        return len(self.latencies_s)


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# set-up / teardown
# ----------------------------------------------------------------------
def set_up(wl: Workload):
    """Bring-up, load and compile, spawns and warm-up; returns the
    runtime and the wall seconds of each part."""
    t0 = time.perf_counter()
    rt = HalRuntime(wl.config())
    try:
        t1 = time.perf_counter()
        wl.load(rt)
        t2 = time.perf_counter()
        wl.spawn(rt)
        t3 = time.perf_counter()
        for _ in range(wl.warmup_requests):
            wl.request(rt, warm=True)
        t4 = time.perf_counter()
    except BaseException:
        rt.close()
        raise
    return rt, {"bringup_s": t1 - t0, "load_s": t2 - t1, "spawn_s": t3 - t2,
                "warmup_s": t4 - t3, "setup_s": t4 - t0}


def tear_down(wl: Workload, rt) -> float:
    """Check the runtime's end state, then close it; returns the close
    time in seconds."""
    try:
        wl.verify(rt)
    finally:
        t0 = time.perf_counter()
        rt.close()
        closed = time.perf_counter() - t0
    return closed


def set_up_many(wl: Workload, count: int):
    """Set up ``count`` times, tearing down all but the last runtime."""
    parts: Dict[str, List[float]] = {}
    closes: List[float] = []
    for i in range(count):
        rt, times = set_up(wl)
        for k, v in times.items():
            parts.setdefault(k, []).append(v)
        if i < count - 1:
            closes.append(tear_down(wl, rt))
    return rt, {k: _median(v) for k, v in parts.items()}, closes


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------
def timed(wl: Workload, rt, seconds: float,
          stop: Optional[Callable[[], bool]] = None,
          on_start: Optional[Callable[[], None]] = None) -> Phase:
    """Closed loop of driver requests for ``seconds`` (or until ``stop``)."""
    pids = measure.worker_pids()
    before = dict(rt.stats.counters)
    model0 = rt.now
    events0 = rt.machine.events_executed
    wl.begin_phase()
    if on_start is not None:
        on_start()
    latencies: List[float] = []
    ends: List[float] = []
    ops = 0
    rss = None
    cpu0 = measure.cpu_seconds(pids)
    steal0, ticks0 = measure.cpu_ticks()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while True:
        s = time.perf_counter()
        ops += wl.request(rt)
        e = time.perf_counter()
        latencies.append(e - s)
        ends.append(e - t0)
        if rss is None and ops >= wl.rss_ops:
            rss = measure.peak_rss_mb(pids)
        if e >= deadline or (stop is not None and stop()):
            break
    cpu = measure.cpu_seconds(pids) - cpu0
    steal1, ticks1 = measure.cpu_ticks()
    if rss is None:
        rss = measure.peak_rss_mb(pids)
    after = rt.stats.counters
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    return Phase(ops, e - t0, latencies, ends, cpu,
                 _ratio(steal1 - steal0, ticks1 - ticks0), rss, delta,
                 rt.now - model0, rt.machine.events_executed - events0)


def idle_round_us(rt, rounds: int) -> float:
    """Median wall µs of ``HalRuntime.run()`` on a quiescent runtime:
    one termination-detection round on the process backends."""
    rt.run()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        rt.run()
        samples.append((time.perf_counter_ns() - t0) / 1e3)
    return _median(samples)


def wire_replay(packets) -> Tuple[float, float]:
    """Encode the message mix into frames and decode it again; returns
    the median (encode, decode) ns per message over five passes."""
    if not packets:
        return 0.0, 0.0
    enc_ns, dec_ns = [], []
    for _ in range(5):
        enc = FrameEncoder()
        frames = []
        t0 = time.perf_counter_ns()
        for p in packets:
            enc.add_message(p)
            if enc.messages >= REPLAY_BATCH:
                frames.append(enc.take_frame())
        if enc.messages:
            frames.append(enc.take_frame())
        t1 = time.perf_counter_ns()
        dec = FrameDecoder()
        records = []
        for frame in frames:
            dec.feed(frame)
            records.extend(dec.drain())
        t2 = time.perf_counter_ns()
        if [r[1] for r in records] != list(packets):
            raise RuntimeError("wire replay: decoded messages differ from the mix")
        enc_ns.append((t1 - t0) / len(packets))
        dec_ns.append((t2 - t1) / len(packets))
    return _median(enc_ns), _median(dec_ns)


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seconds: float, setups: int):
    rt, setup, closes = set_up_many(wl, setups)
    try:
        phase = timed(wl, rt, seconds)
    finally:
        closes.append(tear_down(wl, rt))
    lat = measure.percentiles([x * 1e3 for x in phase.latencies_s])
    # Latency percentiles are the median over ~3 s windows of each
    # window's percentile: host slowness lasting a few seconds moves the
    # tail of a few windows, not the reported figure.
    count = max(1, round(phase.wall_s / WINDOW_S))
    windows: List[List[float]] = [[] for _ in range(count)]
    for latency, end in zip(phase.latencies_s, phase.ends_s):
        windows[min(count - 1, int(end / phase.wall_s * count))].append(latency * 1e3)
    per_window = [measure.percentiles(w) for w in windows if w]
    metrics = {
        "ops_per_s": _metric(phase.ops / phase.wall_s, "1/s"),
        "latency_p50_ms": _metric(_median([q["p50"] for q in per_window]), "ms"),
        "latency_p90_ms": _metric(_median([q["p90"] for q in per_window]), "ms"),
        "cpu_us_per_op": _metric(phase.cpu_s * 1e6 / phase.ops, "us"),
        "setup_s": _metric(setup["setup_s"], "s"),
        "peak_rss_mb": _metric(phase.rss_mb, "MiB"),
    }
    info = {
        "latency_p99_ms": lat["p99"],
        "latency_samples": phase.requests,
        "cpu_steal_frac": phase.steal_frac,
        "ops": phase.ops,
        "wall_s": phase.wall_s,
        "setup_parts_s": setup,
        "close_ms": _median(closes) * 1e3,
    }
    return metrics, info


def per_layer(wl: Workload, seconds: float, setups: int, idle_rounds: int):
    half = seconds / 2.0
    # Untraced half: counters, set-up breakdown, idle detection round.
    rt, setup, closes = set_up_many(wl, setups)
    try:
        base = timed(wl, rt, half)
        idle_us = idle_round_us(rt, idle_rounds)
        live = rt.total_actors()
    finally:
        closes.append(tear_down(wl, rt))

    # Traced half: the ledger wraps the layers' classes before the
    # runtime is built, because handler tables bind methods at boot.
    ledger = SpanLedger(SPAN_CAPACITY)
    ledger.install(DRIVER_TARGETS)
    if wl.backend == "sim":
        ledger.install(KERNEL_TARGETS)
    try:
        rt, _ = set_up(wl)
        try:
            traced = timed(wl, rt, half, stop=lambda: ledger.full,
                           on_start=ledger.clear)
            layer_ns = ledger.self_ns_by_layer()
            system_ns = ledger.outer_ns("runtime.system:")
            wait_ns = ledger.outer_ns("runtime.system:HalRuntime.run")
            covered_ns = ledger.covered_ns()
            spans = len(ledger)
            top = sorted(ledger.self_ns_by_name().items(), key=lambda kv: -kv[1])[:12]
        finally:
            tear_down(wl, rt)
    finally:
        ledger.uninstall()
    encode_ns, decode_ns = wire_replay(wl.wire_mix())

    c = base.counters
    ops = base.ops
    t_ops = traced.ops
    sim = wl.backend == "sim"
    local = c.get("exec.inline_static", 0) + c.get("exec.inline_lookup", 0)
    remote_sends = c.get("delivery.sent_direct", 0) + c.get("delivery.sent_keyed", 0)
    base_rate = base.ops / base.wall_s
    traced_rate = traced.ops / traced.wall_s

    def self_ns(layer: str) -> Dict[str, object]:
        return _metric(_ratio(layer_ns.get(layer, 0), t_ops), "ns")

    metrics = {
        "sim.engine.self_ns_per_op": self_ns("sim.engine"),
        "sim.engine.events_per_op": _metric(_ratio(base.events, ops) if sim else 0.0, "count"),
        "sim.network.self_ns_per_op": self_ns("sim.network"),
        "runtime.dispatcher.self_ns_per_op": self_ns("runtime.dispatcher"),
        "runtime.execution.self_ns_per_op": self_ns("runtime.execution"),
        "runtime.calls.self_ns_per_op": self_ns("runtime.calls"),
        "runtime.delivery.self_ns_per_op": self_ns("runtime.delivery"),
        "runtime.creation.self_ns_per_op": self_ns("runtime.creation"),
        "am.cmam.self_ns_per_op": self_ns("am.cmam"),
        "runtime.execution.inline_hit_rate": _metric(
            _ratio(local, local + c.get("delivery.local_generic", 0)), "ratio"),
        "runtime.creation.remote_per_op": _metric(
            _ratio(c.get("creation.remote_issued", 0), ops), "count"),
        "runtime.migration.migrations_per_op": _metric(
            _ratio(c.get("migration.started", 0), ops), "count"),
        "runtime.loadbalance.grant_ratio": _metric(
            _ratio(c.get("steal.granted", 0), c.get("steal.polls", 0)), "ratio"),
        "runtime.names.live_actors": _metric(live, "count"),
        "platform.wire.msgs_per_frame": _metric(
            _ratio(c.get("wire.messages", 0), c.get("wire.frames", 0)), "count"),
        "platform.wire.bytes_per_msg": _metric(
            _ratio(c.get("wire.frame_bytes", 0), c.get("wire.messages", 0)), "bytes"),
        "am.sends_per_op": _metric(_ratio(c.get("am.sends", 0), ops), "count"),
        "am.bulk.share": _metric(_ratio(c.get("delivery.bulk", 0), remote_sends), "ratio"),
        "am.flowcontrol.deferred_ratio": _metric(
            _ratio(c.get("bulk.fc_deferred", 0), c.get("bulk.requests", 0)), "ratio"),
        "am.reliable.acks_per_op": _metric(_ratio(c.get("rel.ack_sent", 0), ops), "count"),
        "am.reliable.retransmit_ratio": _metric(
            _ratio(c.get("rel.retries", 0), c.get("rel.envelopes", 0)), "ratio"),
        "runtime.migration.fir_per_migration": _metric(
            _ratio(c.get("fir.initiated", 0), c.get("migration.started", 0)), "count"),
        "runtime.delivery.keyed_frac": _metric(
            _ratio(c.get("delivery.sent_keyed", 0), remote_sends), "ratio"),
        "platform.wireformat.encode_ns_per_msg": _metric(encode_ns, "ns"),
        "platform.wireformat.decode_ns_per_msg": _metric(decode_ns, "ns"),
        "platform.quiescence.idle_round_us": _metric(idle_us, "us"),
        "runtime.system.call_issue_us": _metric(
            _ratio(system_ns - wait_ns, traced.requests) / 1e3, "us"),
        "runtime.system.call_wait_us": _metric(
            _ratio(wait_ns, traced.requests) / 1e3, "us"),
        "platform.bringup_ms": _metric(setup["bringup_s"] * 1e3, "ms"),
        "hal.load_ms": _metric(setup["load_s"] * 1e3, "ms"),
        "runtime.system.close_ms": _metric(_median(closes) * 1e3, "ms"),
        "model_us_per_request": _metric(
            _ratio(base.model_us, base.requests) if sim else 0.0, "us"),
        "trace.overhead_pct": _metric(
            (base_rate - traced_rate) / base_rate * 100.0, "%"),
        "trace.unattributed_frac": _metric(
            max(0.0, 1.0 - covered_ns / (traced.wall_s * 1e9)), "ratio"),
    }
    info = {
        "untraced_ops_per_s": base_rate,
        "traced_ops_per_s": traced_rate,
        "traced_ops": t_ops,
        "spans": spans,
        "setup_parts_s": setup,
        "layer_self_ns": layer_ns,
        "top_spans_self_ns": dict(top),
    }
    return metrics, info


def run(args, root: Path) -> Tuple[Dict, Dict, bool]:
    """Run one benchmark invocation; returns (result, info, correct)."""
    wl = WORKLOADS[args.workload](
        args.seed, tiny=args.tiny, inject_fault=args.inject_fault
    )
    setups = 2 if args.tiny else 5
    info: Dict[str, object] = {"host": measure.host_record(root, wl)}
    if args.trace:
        metrics, extra = per_layer(wl, args.seconds, setups, 5 if args.tiny else 50)
    else:
        metrics, extra = end_to_end(wl, args.seconds, setups)
    info.update(extra)
    tally = wl.tally
    info["failed_frac"] = _ratio(tally.failed, tally.attempted)
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, info, correct
