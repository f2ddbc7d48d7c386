"""Metric definitions and trace serialization round trips."""

import pytest
from hypothesis import given, strategies as st

from manetsim.metrics import (MetricsRecord, NothingReceived, NoTraffic,
                              PacketTrace, compute_avg_delay, compute_pdr,
                              compute_throughput, read_trace_csv, summarize,
                              write_trace_csv)

US = 1_000_000


def make_trace(records):
    """records: list of (flow, seq, gen_us, recv_us | None, hops, size)."""
    trace = PacketTrace()
    for flow, seq, gen, recv, hops, size in records:
        trace.record_generated(flow, seq, gen, size)
        if recv is not None:
            trace.record_received(flow, seq, recv, hops)
    return trace


def test_pdr_all_delivered():
    trace = make_trace([(0, i, i * 1000, i * 1000 + 3048, 1, 512)
                        for i in range(1000)])
    assert compute_pdr(trace) == 100.0


def test_pdr_eighty_percent():
    records = [(0, i, i * 1000, i * 1000 + 3048 if i % 5 else None, 1, 512)
               for i in range(10_000)]
    assert compute_pdr(make_trace(records)) == 80.0


def test_pdr_no_traffic_raises():
    with pytest.raises(NoTraffic):
        compute_pdr(PacketTrace())


def test_throughput_single_packet():
    trace = make_trace([(0, 0, 0, US, 1, 512)])
    assert compute_throughput(trace) == 4096.0


def test_throughput_two_packets_same_rate():
    trace = make_trace([(0, 0, 0, US, 1, 512),
                        (0, 1, US, 2 * US, 1, 512)])
    assert compute_throughput(trace) == 4096.0


def test_throughput_nothing_received_raises():
    trace = make_trace([(0, 0, 0, None, 0, 512)])
    with pytest.raises(NothingReceived):
        compute_throughput(trace)


def test_avg_delay_mean_of_delays():
    trace = make_trace([(0, 0, 0, 100_000, 1, 512),
                        (0, 1, 0, 300_000, 2, 512)])
    assert compute_avg_delay(trace) == 0.2


def test_avg_delay_excludes_lost_packets():
    trace = make_trace([(0, 0, 0, 100_000, 1, 512),
                        (0, 1, 0, None, 0, 512)])
    assert compute_avg_delay(trace) == 0.1


def test_avg_delay_nothing_received_raises():
    trace = make_trace([(0, 0, 0, None, 0, 512)])
    with pytest.raises(NothingReceived):
        compute_avg_delay(trace)


def test_one_hop_ideal_delay_constant():
    # One 512 B frame at 2 Mb/s plus 1 ms hop latency: 2048 + 1000 us.
    trace = make_trace([(0, 0, 0, 3048, 1, 512)])
    assert compute_avg_delay(trace) == 0.003048


def test_received_before_generated_asserts():
    trace = PacketTrace()
    trace.record_generated(0, 0, 1000, 512)
    with pytest.raises(AssertionError):
        trace.record_received(0, 0, 500, 1)


def test_duplicate_generation_asserts():
    trace = PacketTrace()
    trace.record_generated(0, 0, 0, 512)
    with pytest.raises(AssertionError):
        trace.record_generated(0, 0, 10, 512)


def test_duplicate_delivery_asserts():
    trace = PacketTrace()
    trace.record_generated(0, 0, 0, 512)
    trace.record_received(0, 0, 3048, 1)
    with pytest.raises(AssertionError):
        trace.record_received(0, 0, 9999, 3)


def test_window_filters_by_generation_time():
    trace = make_trace([(0, 0, 5 * US, 6 * US, 1, 512),
                        (0, 1, 15 * US, 16 * US, 1, 512),
                        (0, 2, 99 * US, None, 0, 512),
                        (0, 3, 100 * US, 101 * US, 1, 512)])
    w = trace.window(10 * US, 100 * US)
    assert set(w.records) == {(0, 1), (0, 2)}


def test_summarize_zero_deliveries():
    trace = make_trace([(0, 0, 0, None, 0, 512)])
    rec = summarize(trace)
    assert rec.throughput == 0.0
    assert rec.avg_e2e_delay is None
    assert rec.pdr == 0.0
    assert rec.packets_sent == 1 and rec.packets_received == 0


def test_summarize_counts_control_bytes():
    trace = make_trace([(0, 0, 0, 3048, 1, 512)])
    trace.record_control("aodv-rreq", 24)
    trace.record_control("aodv-rrep", 20)
    rec = summarize(trace)
    assert rec.control_bytes == 44
    assert rec.pdr == 100.0


def test_metrics_record_equality():
    a = MetricsRecord(1.0, 100.0, 0.1, 0, 1, 1)
    b = MetricsRecord(1.0, 100.0, 0.1, 0, 1, 1)
    c = MetricsRecord(2.0, 100.0, 0.1, 0, 1, 1)
    assert a == b and not (a == c)


def test_trace_csv_round_trip_bit_exact(tmp_path):
    for size in (512, 1024):
        trace = make_trace([(0, 0, 123456, 3048 + 123456, 1, size),
                            (0, 1, 373456, None, 0, size),
                            (1, 0, 500000, 812345, 3, size)])
        path = tmp_path / f"trace{size}.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path, size)
        assert back.records == trace.records
        assert summarize(back.window(0, US)) == summarize(trace.window(0, US))


def test_trace_csv_header(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(make_trace([(0, 0, 0, 3048, 1, 512)]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "flow,seq,generated_at,received_at,hops"
    assert lines[1] == "0,0,0.000000,0.003048,1"


@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10 * US),
              st.integers(0, 10 * US), st.integers(1, 8)),
    min_size=1, max_size=60, unique_by=lambda r: (r[0], r[1])))
def test_metrics_invariants_random_traces(rows):
    trace = PacketTrace()
    for i, (flow, gen, extra, hops) in enumerate(rows):
        trace.record_generated(flow, i, gen, 512)
        if extra % 3:  # mix of delivered and lost
            trace.record_received(flow, i, gen + extra + 3048, hops)
    rec = summarize(trace)
    assert 0.0 <= rec.pdr <= 100.0
    if rec.packets_received:
        assert rec.avg_e2e_delay >= 0.003048
        assert rec.throughput > 0
