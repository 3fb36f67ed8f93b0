"""Measurement helpers: OS-level CPU and RSS accounting across the driver
and its worker processes, latency percentiles, and the host record."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def worker_pids() -> List[int]:
    """Live worker processes this driver started (the process backends'
    node processes; empty on sim)."""
    return sorted(p.pid for p in multiprocessing.active_children())


def _proc_cpu_s(pid: int) -> float:
    # Fields after the parenthesised command name; utime and stime are
    # the 12th and 13th of those (fields 14 and 15 of proc(5)).
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _proc_peak_rss_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pids: Sequence[int]) -> float:
    """User+sys CPU of this process plus ``pids``, read from the OS."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime + sum(_proc_cpu_s(p) for p in pids)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Peak resident set of this process plus ``pids`` (MiB).  Pages a
    forked worker still shares with the driver count in both."""
    kb = _proc_peak_rss_kb(os.getpid()) + sum(_proc_peak_rss_kb(p) for p in pids)
    return kb / 1024.0


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine so far, from
    ``/proc/stat``: steal is time the hypervisor ran something else
    while a virtual CPU of this machine wanted to run."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 by linear interpolation over the samples."""
    if len(samples) < 2:
        v = samples[0] if samples else 0.0
        return {"p50": v, "p90": v, "p99": v}
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"p50": cuts[49], "p90": cuts[89], "p99": cuts[98]}


def calibration_events_per_s(root: Path, rounds: int = 20_000) -> float:
    """Ping-pong events/s on the vendored seed engine: a fixed,
    never-optimised workload recorded beside every result to show how
    fast this host ran.  Recorded only; it rescales nothing."""
    import importlib.util

    path = root / "benchmarks" / "_seed_engine.py"
    spec = importlib.util.spec_from_file_location("_perfbench_seed_engine", path)
    seed = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = seed  # dataclasses resolve the module by name
    spec.loader.exec_module(seed)

    def volley() -> int:
        sim = seed.SeedSimulator()
        nodes = [seed.SeedSimNode(0, sim), seed.SeedSimNode(1, sim)]

        def hop(me: int, peer: int, n: int) -> None:
            nodes[me].charge(0.1)
            if n > 0:
                nodes[peer].execute_preempting(
                    sim.now + 0.5, lambda: hop(peer, me, n - 1)
                )

        sim.schedule(0.0, lambda: hop(0, 1, rounds))
        sim.run()
        return sim.events_executed

    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        events = volley()
        rates.append(events / (time.perf_counter() - t0))
    return statistics.median(rates)


def host_record(root: Path, workload) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": workload.backend,
        "transport": workload.transport,
        "seed": workload.seed,
        "calibration_pingpong_events_per_s": round(calibration_events_per_s(root), 1),
    }
