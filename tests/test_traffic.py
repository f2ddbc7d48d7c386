"""CBR flow setup and generation timing."""

from manetsim.engine import RngStream, Simulator
from manetsim.metrics import PacketTrace, summarize
from manetsim.scenario import ScenarioConfig
from manetsim.traffic import (START_STAGGER_S, AppPacket, Flow, TrafficGenerator,
                              setup_flows)

US = 1_000_000

DEFAULTS = ScenarioConfig()
CBR = dict(rate=DEFAULTS.rate, packet_size=DEFAULTS.packet_size,
           stop_s=DEFAULTS.sim_time)


def test_setup_flows_endpoints_are_disjoint():
    rng = RngStream(1, "traffic")
    flows = setup_flows(10, range(50), rng, **CBR)
    endpoints = [f.src for f in flows] + [f.dst for f in flows]
    assert len(endpoints) == len(set(endpoints)) == 20
    for f in flows:
        assert f.src != f.dst


def test_setup_flows_deterministic_per_seed():
    a = setup_flows(5, range(20), RngStream(3, "traffic"), **CBR)
    b = setup_flows(5, range(20), RngStream(3, "traffic"), **CBR)
    assert [(f.src, f.dst, f.start_us) for f in a] == \
           [(f.src, f.dst, f.start_us) for f in b]


def test_flow_starts_are_staggered_within_window():
    flows = setup_flows(10, range(40), RngStream(5, "traffic"), **CBR)
    for f in flows:
        assert 0 <= f.start_us <= START_STAGGER_S * US
    assert len({f.start_us for f in flows}) > 1


def run_generator(flows):
    sim = Simulator()
    trace = PacketTrace()
    sent = []
    gen = TrafficGenerator(sim, flows, trace,
                           lambda src, pkt: sent.append((sim.now, src, pkt)))
    gen.start()
    sim.run_until(200 * US)
    return trace, sent


def test_cbr_packet_count_and_spacing():
    flow = Flow(0, 1, 2, rate=4.0, packet_size=512, start_us=0, stop_us=10 * US)
    trace, sent = run_generator([flow])
    assert len(sent) == 40  # 4 pkt/s for 10 s
    times = [t for t, _, _ in sent]
    assert all(b - a == 250_000 for a, b in zip(times, times[1:]))


def test_generation_stops_at_stop_time():
    flow = Flow(0, 1, 2, rate=4.0, packet_size=512,
                start_us=US // 2, stop_us=10 * US)
    # A start at the stop time, as the stagger of a short run can draw.
    late = Flow(1, 3, 4, rate=4.0, packet_size=512, start_us=10 * US, stop_us=10 * US)
    _, sent = run_generator([flow, late])
    assert all(t < 10 * US for t, _, _ in sent)
    assert len(sent) == 38  # 0.5 s late start loses the first two slots


def test_packets_carry_flow_metadata_and_sequence():
    flow = Flow(7, 3, 9, rate=2.0, packet_size=256, start_us=0, stop_us=2 * US)
    trace, sent = run_generator([flow])
    pkts = [p for _, _, p in sent]
    assert [p.seq for p in pkts] == list(range(len(pkts)))
    assert all(isinstance(p, AppPacket) and p.flow_id == 7 and p.dst == 9
               and p.size == 256 for p in pkts)
    assert all(src == 3 for _, src, _ in sent)
    assert all(trace.records[(7, p.seq)][0] == t for t, _, p in sent)


def test_every_generated_packet_is_traced():
    flows = setup_flows(4, range(10), RngStream(2, "traffic"), rate=DEFAULTS.rate,
                        packet_size=DEFAULTS.packet_size, stop_s=5.0)
    trace, sent = run_generator(flows)
    record = summarize(trace)
    assert (record.packets_sent, record.packets_received) == (len(sent), 0)
