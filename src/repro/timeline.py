"""Span exporters: Chrome trace-event JSON and JSONL dumps.

Backend-neutral: the exporters are pure functions over
:class:`repro.tracing.Span` iterables, so they serve both backends —
the simulator's recorder and the mp driver's merge of its workers'
rings.

:func:`chrome_trace` emits the Trace Event Format understood by
Perfetto / ``chrome://tracing``: one process per machine, one thread
(track) per node, complete events (``ph: "X"``) for spans with
duration and instant events (``ph: "i"``) for point occurrences.
Timestamps are already microseconds — the simulator's native unit, and
the mp backend's wall-clock unit (every worker counts from the
driver's epoch) — so no scaling is applied.

:func:`spans_jsonl` is the flat machine-readable form: one JSON object
per span per line, suitable for ad-hoc analysis with ``jq`` or pandas.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.tracing import Span

#: Perfetto sorts tracks by tid; the front-end node (-1) is remapped so
#: it sorts above the data-network nodes instead of crashing viewers
#: that dislike negative tids.
_FRONTEND_TID = 10_000


def _tid(node: int) -> int:
    return _FRONTEND_TID if node < 0 else node


def chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Build a Chrome trace-event document (a plain dict; dump with
    ``json.dump``) with one track per node."""
    events: List[Dict[str, Any]] = []
    nodes_seen: Dict[int, None] = {}
    for s in spans:
        nodes_seen.setdefault(s.node, None)
        args: Dict[str, Any] = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "kind": s.kind,
        }
        if s.attrs:
            args["attrs"] = [repr(a) for a in s.attrs]
        ev: Dict[str, Any] = {
            "name": s.name,
            "cat": s.kind.split(".", 1)[0],
            "pid": 0,
            "tid": _tid(s.node),
            "ts": s.start_us,
            "args": args,
        }
        if s.end_us > s.start_us:
            ev["ph"] = "X"
            ev["dur"] = s.end_us - s.start_us
        else:
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant
        events.append(ev)

    meta: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "HAL machine"}},
    ]
    for node in sorted(nodes_seen):
        label = "frontend" if node < 0 else f"node {node}"
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 0,
            "tid": _tid(node), "args": {"name": label},
        })
        meta.append({
            "name": "thread_sort_index", "ph": "M", "pid": 0,
            "tid": _tid(node), "args": {"sort_index": _tid(node)},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ns"}


def spans_jsonl(spans: Iterable[Span]) -> str:
    """Render spans as JSONL: one compact JSON object per line."""
    lines = []
    for s in spans:
        obj: Dict[str, Any] = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "name": s.name,
            "kind": s.kind,
            "node": s.node,
            "start_us": s.start_us,
            "end_us": s.end_us,
        }
        if s.attrs:
            obj["attrs"] = [repr(a) for a in s.attrs]
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
