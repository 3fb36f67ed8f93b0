"""The capability table is the single source of truth — these tests
fail the build if any consumer drifts from it: machine class flags,
rejection messages, the CLI's trace refusal, and the README matrix.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.config import RuntimeConfig
from repro.errors import ReproError
from repro.platform.capabilities import (
    CAPABILITIES,
    FEATURES,
    backends_supporting,
    capability_table,
    supports,
    unsupported_message,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _machine_class(backend: str):
    if backend == "sim":
        from repro.platform.simbackend import SimMachine

        return SimMachine
    if backend == "threaded":
        from repro.platform.threaded import ThreadedMachine

        return ThreadedMachine
    from repro.platform.mp import MpMachine

    return MpMachine


class TestTableShape:
    def test_every_backend_declares_every_capability(self):
        for name, caps in CAPABILITIES.items():
            assert set(caps) == set(FEATURES), name

    def test_backends_supporting_matches_table(self):
        for cap in FEATURES:
            assert backends_supporting(cap) == tuple(
                n for n in CAPABILITIES if CAPABILITIES[n][cap]
            )
            for name in CAPABILITIES:
                assert supports(name, cap) == CAPABILITIES[name][cap]


class TestClassFlagsMatchTable:
    """The machines declare flags; the table must mirror them exactly.
    A new flag or backend has to land in both places to pass."""

    @pytest.mark.parametrize("backend", sorted(CAPABILITIES))
    def test_flags(self, backend):
        cls = _machine_class(backend)
        for cap, expected in CAPABILITIES[backend].items():
            assert getattr(cls, cap) == expected, f"{backend}.{cap}"


class TestRejectionMessages:
    def test_threaded_fault_rejection_uses_canonical_message(self):
        from repro.platform import make_machine
        from repro.sim.faults import FaultPlan, FaultRule

        plan = FaultPlan(by_kind={"deliver_keyed": FaultRule(drop_count=1)})
        config = RuntimeConfig(num_nodes=2, seed=1, backend="threaded")
        with pytest.raises(ReproError) as exc:
            make_machine(config, faults=plan)
        assert str(exc.value) == unsupported_message(
            "threaded", "supports_faults"
        )

    def test_message_names_the_supporting_backends(self):
        msg = unsupported_message("threaded", "supports_faults")
        assert "fault injection" in msg
        assert "--backend sim or mp" in msg
        msg = unsupported_message("mp", "supports_tracing")
        assert "span tracing" in msg
        assert "--backend sim or threaded" in msg

    def test_cli_trace_refuses_mp_with_canonical_message(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["trace", "ping_pong", "--backend", "mp"])
        assert unsupported_message("mp", "supports_tracing") in str(exc.value)


class TestReadmeMatrix:
    def test_readme_embeds_generated_table_verbatim(self):
        """README can only say what ``capability_table()`` renders —
        regenerate the block instead of hand-editing the README."""
        assert capability_table() in README.read_text(encoding="utf-8")
