"""Property tests on the interconnect model's invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetworkParams
from repro.sim.engine import SimNode, Simulator
from repro.sim.network import Network
from repro.stats import StatsRegistry
from repro.topology import HypercubeTopology


def make_net(n=4, **over):
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(n)]
    net = Network(sim, HypercubeTopology(n), nodes,
                  NetworkParams(**over), StatsRegistry())
    return sim, net


@st.composite
def transmissions(draw):
    n = 4
    count = draw(st.integers(1, 25))
    msgs = []
    for _ in range(count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if dst == src:
            dst = (dst + 1) % n
        size = draw(st.sampled_from([24, 100, 2000, 40_000]))
        msgs.append((src, dst, size))
    return msgs


class TestNicInvariants:
    @given(transmissions())
    @settings(max_examples=60, deadline=None)
    def test_pairwise_fifo(self, msgs):
        """Messages between one (src, dst) pair deliver in send order."""
        sim, net = make_net()
        deliveries = []
        for i, (src, dst, size) in enumerate(msgs):
            net.unicast(src, dst, size,
                        lambda i=i, s=src, d=dst: deliveries.append((s, d, i)))
        sim.run()
        assert len(deliveries) == len(msgs)
        for pair in {(s, d) for s, d, _ in deliveries}:
            seq = [i for s, d, i in deliveries if (s, d) == pair]
            assert seq == sorted(seq)

    @given(transmissions())
    @settings(max_examples=60, deadline=None)
    def test_rx_drains_never_overlap(self, msgs):
        """The interval-gap scheduler never double-books a receive NIC."""
        sim, net = make_net()
        for (src, dst, size) in msgs:
            net.unicast(src, dst, size, lambda: None)
        for dst in range(4):
            windows = sorted(
                (s, t) for (_a, s, t, _b) in net._rx_sched[dst]
            )
            for (s1, t1), (s2, t2) in zip(windows, windows[1:]):
                assert t1 <= s2 + 1e-9, "overlapping drains"
        sim.run()

    @given(transmissions())
    @settings(max_examples=40, deadline=None)
    def test_delivery_never_precedes_wire_latency(self, msgs):
        sim, net = make_net()
        records = []
        for (src, dst, size) in msgs:
            send_time = sim.now
            min_arrival = (
                size * net.params.inject_us_per_byte
                + net.wire_latency(src, dst)
                + size * net.params.drain_us_per_byte
            )
            net.unicast(
                src, dst, size,
                lambda lo=send_time + min_arrival: records.append(
                    (sim.now, lo)
                ),
            )
        sim.run()
        for at, lo in records:
            assert at >= lo - 1e-9

    @given(st.integers(2, 10), st.integers(1000, 60_000))
    @settings(max_examples=40, deadline=None)
    def test_backpressure_monotone_in_fan_in(self, senders_count, size):
        """More concurrent senders never *reduce* total delivery time."""
        def last_delivery(k):
            sim, net = make_net(n=16, rx_buffer_bytes=2048)
            times = []
            for src in range(1, k + 1):
                net.unicast(src, 0, size, lambda: times.append(sim.now))
            sim.run()
            return max(times)

        few = last_delivery(max(1, senders_count // 2))
        many = last_delivery(senders_count)
        assert many >= few - 1e-9
