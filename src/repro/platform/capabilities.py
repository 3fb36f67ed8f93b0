"""The backend capability matrix — one table, every consumer.

PR 7 shipped a fault-rejection message that said "run fault plans on
backend='sim'" from *two* backends while a third was about to start
supporting them: each rejection site hand-wrote its own list of who
supports what, and the lists drifted.  This module is the fix — a
single declarative table that every consumer derives from:

- the backends' class flags (``deterministic`` / ``supports_faults`` /
  ``supports_tracing`` / ``distributed``) are asserted against it by
  ``tests/test_capabilities.py``;
- rejection errors (:func:`unsupported_message`) name the backends
  that *do* support the feature, computed, not transcribed;
- the README's backend matrix embeds :func:`capability_table` verbatim
  (same test pins it), so docs cannot say something the code doesn't.

The table is data, not policy: a backend module never imports this to
decide behaviour — it declares its flags and this module is the
cross-check and the message formatter.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: capability key -> human-readable feature name used in messages.
FEATURES: Dict[str, str] = {
    "deterministic": "deterministic replay",
    "supports_faults": "fault injection",
    "supports_tracing": "span tracing",
    "distributed": "process-per-node execution",
}

#: backend name -> capability flags.  Must match the machine classes'
#: class attributes exactly (SimMachine / ThreadedMachine / MpMachine);
#: ``tests/test_capabilities.py`` fails the build on any divergence.
CAPABILITIES: Dict[str, Dict[str, bool]] = {
    "sim": {
        "deterministic": True,
        "supports_faults": True,
        "supports_tracing": True,
        "distributed": False,
    },
    "threaded": {
        "deterministic": False,
        "supports_faults": False,
        "supports_tracing": True,
        "distributed": False,
    },
    "mp": {
        "deterministic": False,
        "supports_faults": True,
        "supports_tracing": False,
        "distributed": True,
    },
}


def supports(backend: str, capability: str) -> bool:
    return CAPABILITIES[backend][capability]


def backends_supporting(capability: str) -> Tuple[str, ...]:
    """Backends with the capability, in registry order."""
    return tuple(
        name for name, caps in CAPABILITIES.items() if caps[capability]
    )


def unsupported_message(backend: str, capability: str) -> str:
    """The canonical rejection line: names the feature and the
    backends that actually have it, straight from the table."""
    feature = FEATURES[capability]
    alternatives = backends_supporting(capability)
    if alternatives:
        hint = "use --backend " + " or ".join(alternatives)
    else:  # pragma: no cover - every capability has a backend today
        hint = "no backend supports it"
    return (
        f"the {backend} backend does not support {feature} "
        f"({capability}=no); {hint}"
    )


def capability_table() -> str:
    """The matrix as a GitHub-flavoured markdown table (embedded in
    the README and pinned by tests — regenerate, don't hand-edit)."""
    names = list(CAPABILITIES)
    lines = [
        "| capability | " + " | ".join(f"`{n}`" for n in names) + " |",
        "|---|" + "---|" * len(names),
    ]
    for cap, feature in FEATURES.items():
        row = [f"| {feature} (`{cap}`)"]
        for name in names:
            row.append("yes" if CAPABILITIES[name][cap] else "no")
        lines.append(" | ".join(row) + " |")
    return "\n".join(lines)
