#!/usr/bin/env python
"""Gate engine throughput against the committed baseline.

Compares a fresh ``bench_engine.py`` result file against the
repo-root ``BENCH_engine.json`` baseline and fails (exit 1) when any
gated bench — the ping-pong/fan-out engine microbenchmarks or the
threaded/mp backend fibonacci runs — regresses by more than the
threshold (default 20%) in events/sec.

Usage (what the nightly CI job runs)::

    PYTHONPATH=src python benchmarks/bench_engine.py --out /tmp/bench.json
    python benchmarks/check_regression.py --current /tmp/bench.json

Throughput above baseline is never an error; the gate is one-sided.
Wall-clock noise on shared CI runners is the reason the threshold is
generous — the gate exists to catch accidental hot-path pessimisation
(a closure reintroduced per message, an uncached attribute probe), not
two-percent jitter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(_HERE)

DEFAULT_BASELINE = os.path.join(_REPO_ROOT, "BENCH_engine.json")

#: The benches the gate watches.  The engine microbenchmarks catch
#: per-message hot-path pessimisation (an allocation or uncached
#: branch reintroduced); the backend fibonacci runs catch wire-path
#: pessimisation in the real-time backends — per-packet pickling or
#: syscalls creeping back into the mp batch path would halve its
#: events/sec, far outside the threshold's noise allowance; the
#: sampled-tracing traffic run catches the span hot path regrowing.
#:
#: ``backend_asyncio`` (the mp backend over loopback TCP) is recorded
#: in the baseline but deliberately NOT gated yet: its wall-clock
#: depends on loopback TCP scheduling and mesh bring-up — gate it once
#: a few nightlies establish the noise band.  ``src_loc`` is recorded, never gated.
GATED = ("pingpong", "fanout", "backend_threaded", "backend_mp",
         "tracing")

#: Absolute ceiling on ``tracing.overhead_pct``: the throughput cost of
#: always-on (head-sampled) tracing over the untraced baseline.  Unlike
#: the relative gates above, this budget does not drift with the
#: baseline — overhead past it means the elision branch grew work.
TRACING_BUDGET_PCT = 10.0

#: Absolute floor on ``dispatch.local_hit_rate``: the fraction of local
#: deliveries in the actor-form fib workload that took the compiled
#: inline path (static or lookup) instead of the generic mailbox path.
#: A hit rate is a counter ratio, not a wall-clock measure, so it has
#: no noise allowance — dropping below the floor means the compiler
#: stopped planning the sites static or the runtime stopped honouring
#: the plans.
DISPATCH_HIT_RATE_FLOOR = 0.95


def _events_per_sec(entry: dict) -> int:
    """All three result shapes: microbenchmarks nest under
    ``current``, the tracing bench under ``on`` (the sampled traced
    run), backend app runs carry ``events_per_sec`` at top level."""
    if "current" in entry:
        return entry["current"]["events_per_sec"]
    if "on" in entry:
        return entry["on"]["events_per_sec"]
    return entry["events_per_sec"]


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="JSON produced by a fresh bench_engine.py run")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="committed baseline JSON (default: repo root)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max tolerated fractional drop (default 0.20)")
    ap.add_argument("--tracing-budget", type=float,
                    default=TRACING_BUDGET_PCT,
                    help="max tolerated tracing.overhead_pct, an absolute "
                         "percentage (default 10.0)")
    ap.add_argument("--dispatch-floor", type=float,
                    default=DISPATCH_HIT_RATE_FLOOR,
                    help="min tolerated dispatch.local_hit_rate, an "
                         "absolute fraction (default 0.95)")
    args = ap.parse_args(argv)

    with open(args.baseline) as fh:
        base = json.load(fh)
    with open(args.current) as fh:
        cur = json.load(fh)

    if base.get("schema") != cur.get("schema"):
        print(f"schema mismatch: baseline {base.get('schema')!r} vs "
              f"current {cur.get('schema')!r}", file=sys.stderr)
        return 1

    failures = []
    print(f"{'bench':<16} {'baseline ev/s':>14} {'current ev/s':>14} "
          f"{'delta':>8}")
    for name in GATED:
        if name not in base or name not in cur:
            # A baseline predating this bench (or a --skip-apps run)
            # has nothing to gate against; note it rather than fail.
            print(f"{name:<16} (not present in both files; skipped)")
            continue
        b = _events_per_sec(base[name])
        c = _events_per_sec(cur[name])
        delta = (c - b) / b
        print(f"{name:<16} {b:>14,} {c:>14,} {delta:>+7.1%}")
        if delta < -args.threshold:
            failures.append(
                f"{name}: {c:,} ev/s is {-delta:.1%} below baseline "
                f"{b:,} ev/s (threshold {args.threshold:.0%})"
            )

    # Absolute tracing-overhead budget.  A current result without a
    # tracing entry is a hard failure (unlike the relative gates, which
    # skip): the budget is the acceptance bar for always-on tracing, so
    # silently not measuring it would un-gate the span hot path.
    tr = cur.get("tracing")
    if not isinstance(tr, dict) or "overhead_pct" not in tr:
        failures.append(
            "tracing.on: entry missing from current results — run "
            "bench_engine.py without --skip-apps so the overhead budget "
            "can be checked"
        )
    else:
        pct = tr["overhead_pct"]
        spans = tr.get("on", {}).get("spans_recorded", 0)
        print(f"{'tracing.on':<16} overhead {pct:+.1f}% "
              f"(budget {args.tracing_budget:.0f}%, {spans:,} spans kept)")
        if pct > args.tracing_budget:
            failures.append(
                f"tracing.on: {pct:.1f}% overhead over the untraced "
                f"baseline exceeds the {args.tracing_budget:.0f}% budget"
            )
        if spans <= 0:
            failures.append(
                "tracing.on: the sampled run recorded no spans — "
                "always-on tracing must still keep sampled traces"
            )

    # Absolute dispatch hit-rate floor.  Like the tracing budget, a
    # current result without a dispatch entry is a hard failure: the
    # hit rate is the acceptance bar for compiled static dispatch, and
    # a run that didn't measure it would un-gate the inline path.
    dp = cur.get("dispatch")
    if not isinstance(dp, dict) or "local_hit_rate" not in dp:
        failures.append(
            "dispatch: entry missing from current results — run "
            "bench_engine.py without --skip-apps so the local dispatch "
            "hit rate can be checked"
        )
    else:
        rate = dp["local_hit_rate"]
        inline = dp.get("inline_static", 0) + dp.get("inline_lookup", 0)
        print(f"{'dispatch':<16} local_hit_rate {rate:.2%} "
              f"(floor {args.dispatch_floor:.0%}, {inline:,} inline sends)")
        if rate < args.dispatch_floor:
            failures.append(
                f"dispatch: local hit rate {rate:.2%} is below the "
                f"{args.dispatch_floor:.0%} floor — compiled sends are "
                "falling back to the generic mailbox path"
            )
        if dp.get("inline_static", 0) <= 0:
            failures.append(
                "dispatch: the workload performed no inline static "
                "sends — static plans are not reaching the runtime"
            )

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nwithin threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
