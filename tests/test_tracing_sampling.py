"""Head sampling, span-ID economy, ring accounting, and the
backend-neutral trace CLI.

The always-on tracing design (see ``repro.tracing``) makes one
keep-or-elide decision per root trace from a seeded RNG stream and
carries it in the trace ID's low bit.  These tests pin the properties
that design depends on: determinism (same seed + same rate = the same
sampled trace-ID set), span-ID economy (IDs are only consumed by spans
that land in the ring), error paths that punch through sampling, exact
histograms at any rate, and honest accounting for everything elided or
overwritten.
"""

from __future__ import annotations

import json

import pytest

from repro import FaultPlan, FaultRule, HalRuntime, RuntimeConfig
from repro.config import TracingParams
from repro.tracing import SpanRecorder
from tests.conftest import Counter, EchoServer


def make_rt(*, sample_rate=1.0, span_capacity=65_536, seed=1995,
            num_nodes=4, faults=None):
    cfg = RuntimeConfig(
        num_nodes=num_nodes, seed=seed,
        tracing=TracingParams(sample_rate=sample_rate,
                              span_capacity=span_capacity),
    )
    rt = HalRuntime(cfg, trace=True, faults=faults)
    rt.load_behaviors(EchoServer, Counter)
    return rt


def drive(rt, journeys=40):
    """Root ``journeys`` independent traces (one remote send each)."""
    ref = rt.spawn(EchoServer, at=1)
    for i in range(journeys):
        rt.send(ref, "echo", i, from_node=0)
        rt.run()
    return ref


# ======================================================================
# span-ID economy (regression: span() used to consume an ID even when
# it recorded nothing)
# ======================================================================
class TestSpanIdEconomy:
    def test_disabled_recorder_consumes_no_ids(self):
        rec = SpanRecorder(enabled=False)
        assert rec.span(1, 0, "a", "send", 0, 0.0) == 0
        assert rec.force_span(1, 0, "a", "send", 0, 0.0) == (1, 0)
        rec.enabled = True
        assert rec.span(1, 0, "a", "send", 0, 0.0) == 1  # no gap

    def test_elided_span_consumes_no_id(self):
        rec = SpanRecorder(enabled=True)
        # Even trace ID = head draw lost: nothing recorded, no span ID
        # burned, the elision counted.
        assert rec.span(2, 0, "a", "send", 0, 0.0) == 0
        assert rec.elided == 1
        assert rec.span(3, 0, "b", "send", 0, 0.0) == 1
        assert rec.span(2, 0, "c", "send", 0, 0.0) == 0
        assert rec.span(3, 0, "d", "send", 0, 0.0) == 2  # consecutive

    def test_ring_at_capacity_still_consumes_ids(self):
        # Overwriting the oldest span is not a refusal: the new span
        # *is* recorded, so its ID is legitimately consumed.
        rec = SpanRecorder(enabled=True, capacity=1)
        first = rec.span(1, 0, "a", "send", 0, 0.0)
        second = rec.span(1, 0, "b", "send", 0, 1.0)
        assert (first, second) == (1, 2)
        assert rec.overwrites == 1


# ======================================================================
# ring wraparound
# ======================================================================
class TestRingWraparound:
    def test_wraparound_keeps_newest_and_counts_overwrites(self):
        rec = SpanRecorder(enabled=True, capacity=4)
        for i in range(10):
            rec.span(1, 0, f"s{i}", "send", 0, float(i))
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.overwrites == 6
        assert [s.name for s in rec.spans] == ["s6", "s7", "s8", "s9"]
        acct = rec.accounting()
        assert acct["ring_overwrites"] == 6
        assert acct["spans_held"] == 4
        assert acct["spans_recorded"] == 10

    def test_runtime_with_tiny_ring_reports_overwrites(self):
        rt = make_rt(span_capacity=8)
        drive(rt, journeys=20)
        assert len(rt.spans) == 8
        assert rt.spans.overwrites > 0
        # The newest span in the ring is the newest span recorded.
        newest = rt.spans.spans[-1]
        assert newest.start_us == max(s.start_us for s in rt.spans)


# ======================================================================
# deterministic head sampling
# ======================================================================
class TestDeterministicSampling:
    def _sampled_ids(self, *, seed, rate):
        rt = make_rt(sample_rate=rate, seed=seed)
        drive(rt)
        ids = set(rt.spans.trace_ids())
        acct = rt.spans.accounting()
        return ids, acct

    def test_same_seed_same_rate_identical_sampled_set(self):
        a_ids, a_acct = self._sampled_ids(seed=7, rate=0.5)
        b_ids, b_acct = self._sampled_ids(seed=7, rate=0.5)
        assert a_ids == b_ids
        assert a_acct == b_acct
        # The draw actually cut something: some journeys sampled, some
        # elided (40 journeys at rate .5 — both outcomes occur).
        assert 0 < a_acct["traces_sampled"] < a_acct["traces_started"]
        assert a_acct["spans_elided"] > 0

    def test_sampled_ids_carry_the_verdict_bit(self):
        ids, _ = self._sampled_ids(seed=7, rate=0.5)
        assert ids, "rate 0.5 over 40 journeys must sample something"
        assert all(tid & 1 for tid in ids)

    def test_rate_one_skips_the_draw_entirely(self):
        rt = make_rt(sample_rate=1.0)
        drive(rt, journeys=10)
        acct = rt.spans.accounting()
        assert acct["traces_sampled"] == acct["traces_started"]
        assert acct["spans_elided"] == 0

    def test_histograms_identical_at_any_rate(self):
        """Sampling applies to span recording only: the latency
        histograms are exact and bit-identical at rate 0 and rate 1."""
        dumps = {}
        for rate in (0.0, 1.0):
            rt = make_rt(sample_rate=rate)
            drive(rt, journeys=15)
            dumps[rate] = {k: h.as_dict()
                           for k, h in sorted(rt.stats.hists.items())}
        assert dumps[0.0] == dumps[1.0]
        assert dumps[0.0]["delivery_latency_us"]["count"] > 0


# ======================================================================
# error paths punch through sampling
# ======================================================================
class TestForcedErrorPaths:
    def test_dropped_ack_retransmit_recorded_at_rate_zero(self):
        # Drop the first ack: the sender's timeout fires and the
        # envelope is retransmitted.  At sample rate 0 every ordinary
        # span is elided, but the retransmit must still be captured.
        plan = FaultPlan(by_kind={"__rel_ack__": FaultRule(drop_count=1)})
        rt = make_rt(sample_rate=0.0, faults=plan)
        ref = rt.spawn(Counter, at=1)
        rt.send(ref, "incr", from_node=0)
        rt.run()
        assert rt.call(ref, "get", from_node=0) == 1
        assert rt.stats.counter("rel.retries") >= 1
        retrans = rt.spans.of_kind("rel.retransmit")
        assert retrans, "retransmit spans must survive sample rate 0"
        # The forced span keeps the journey's (unsampled, even) trace
        # ID so its causal identity is preserved, and the trace is
        # queryable even though every ordinary span in it was elided.
        tid = retrans[0].trace_id
        assert rt.spans.of_trace(tid), "forced trace must be queryable"
        assert rt.spans.accounting()["spans_forced"] >= 1

    def test_ordinary_spans_all_elided_at_rate_zero(self):
        rt = make_rt(sample_rate=0.0)
        drive(rt, journeys=10)
        acct = rt.spans.accounting()
        assert acct["traces_sampled"] == 0
        assert acct["spans_recorded"] == 0
        assert acct["spans_elided"] > 0


# ======================================================================
# the trace CLI is backend-neutral
# ======================================================================
class TestCliBackends:
    def test_trace_on_mp_backend(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "tour.json"
        assert main(["trace", "migration_tour", "--backend", "mp",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        tracks = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(tracks) >= 2  # complete spans from several workers
        text = capsys.readouterr().out
        assert "backend" in text and "mp" in text

    def test_trace_on_mp_at_sample_rate_zero_elides_everything(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        out = tmp_path / "spans.jsonl"
        assert main(["trace", "ping_pong", "--backend", "mp",
                     "--sample-rate", "0", "--format", "jsonl",
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        rows = dict(
            line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()
            if line.startswith(("spans recorded", "spans elided"))
        )
        assert int(rows["spans recorded"]) == 0
        assert int(rows["spans elided (sampling)"]) > 0

    def test_trace_sample_rate_flag_reaches_the_recorder(self, tmp_path,
                                                         capsys):
        from repro.cli import main
        out = tmp_path / "spans.jsonl"
        assert main(["trace", "ping_pong", "--sample-rate", "0.0",
                     "--format", "jsonl", "--out", str(out)]) == 0
        assert out.read_text() == ""  # everything elided
        text = capsys.readouterr().out
        assert "spans elided (sampling)" in text

    def test_stats_json_surfaces_sampling_accounting(self, capsys):
        from repro.cli import main
        assert main(["stats", "migration_tour", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        acct = doc["tracing"]
        for key in ("spans_recorded", "spans_elided", "ring_overwrites",
                    "sample_rate", "traces_started", "traces_sampled"):
            assert key in acct
        assert acct["spans_recorded"] > 0


# ======================================================================
# spans recorded in the mp workers, merged on the driver
# ======================================================================
@pytest.fixture(scope="module")
def mp_tour_spans():
    from repro.apps.scenarios import run_scenario
    res = run_scenario("migration_tour", backend="mp", trace=True)
    try:
        yield res.runtime.spans
    finally:
        res.runtime.close()


class TestMpSpans:
    def test_every_worker_records_spans(self, mp_tour_spans):
        assert {s.node for s in mp_tour_spans} == set(range(5))

    def test_a_trace_tree_crosses_nodes(self, mp_tour_spans):
        """TraceCtx rides the pickled args, so a journey's spans on
        different workers share one trace and link parent to child."""
        by_id = {s.span_id: s for s in mp_tour_spans}
        cross = [
            s for s in mp_tour_spans
            if s.parent_id in by_id and by_id[s.parent_id].node != s.node
        ]
        assert cross
        assert any(
            len({s.node for s in mp_tour_spans.of_trace(tid)}) >= 2
            for tid in mp_tour_spans.trace_ids()
        )

    def test_span_ids_unique_across_workers(self, mp_tour_spans):
        ids = [s.span_id for s in mp_tour_spans]
        assert len(ids) == len(set(ids))
        # Each worker roots its own traces: their IDs never collide.
        roots = [s.trace_id for s in mp_tour_spans if s.parent_id == 0]
        assert len(roots) == len(set(roots))

    def test_workers_share_the_drivers_time_base(self, mp_tour_spans):
        """A hop span runs from the sender's clock to the receiver's:
        only one epoch for every worker keeps it non-negative."""
        hops = mp_tour_spans.of_kind("hop")
        assert hops
        assert all(0.0 <= s.duration_us < 10e6 for s in hops)

    def test_accounting_sums_the_workers(self, mp_tour_spans):
        acct = mp_tour_spans.accounting()
        assert acct["spans_recorded"] == acct["spans_held"] == len(
            mp_tour_spans.spans
        )
        assert acct["ring_capacity"] == 5 * 65_536
        assert acct["traces_started"] == acct["traces_sampled"] > 0

    @pytest.mark.parametrize(
        "name", ["ping_pong", "migration_tour", "group_broadcast"]
    )
    def test_sequential_scenarios_record_the_sims_span_kinds(self, name):
        from repro.apps.scenarios import run_scenario
        kinds = {}
        for backend in ("sim", "mp"):
            res = run_scenario(name, backend=backend, trace=True)
            try:
                kinds[backend] = {s.kind for s in res.runtime.spans}
            finally:
                res.runtime.close()
        assert kinds["mp"] == kinds["sim"]


class TestMergedRecorder:
    def test_merge_from_orders_by_start_and_sums_accounting(self):
        a = SpanRecorder(enabled=True, capacity=2)
        b = SpanRecorder(enabled=True, capacity=4, id_base=1 << 40)
        for t in (3.0, 1.0, 2.0):  # wraps a's ring once
            a.span(a.new_trace_id(), 0, "x", "send", 0, t)
        b.span(b.new_trace_id(), 0, "y", "send", 1, 1.5)
        merged = SpanRecorder(enabled=True, capacity=1)
        merged.merge_from([a.export(), b.export()])
        assert [s.start_us for s in merged.spans] == [1.0, 1.5, 2.0]
        acct = merged.accounting()
        assert acct["spans_recorded"] == 4
        assert acct["ring_overwrites"] == 1
        assert acct["ring_capacity"] == 6
        assert acct["traces_started"] == 4
        assert len({s.span_id for s in merged.spans}) == 3
