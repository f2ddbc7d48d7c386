"""Scenario assembly: build engine, mobility, radio, routers and traffic
from a ScenarioConfig and run one simulation."""

import math
import os
from dataclasses import dataclass, fields

from .engine import US_PER_S, RngStream, Simulator, to_us
from .metrics import PacketTrace, summarize, write_trace_csv
from .mobility import (STATIC, FixedPositions, RandomWaypoint, init_positions,
                       write_movement_trace)
from .protocols import connect, make_router
from .radio import Radio
from .traffic import TrafficGenerator, setup_flows

# The shortest time, in seconds, in which a node may cross the area's
# diagonal at max_speed: a thousand ticks of the microsecond clock, so that
# rounding a leg up to whole microseconds changes a crossing by at most
# 0.1%.  Shorter crossings bring legs down to the one-tick floor, one leg
# per node per simulated microsecond.
MIN_CROSSING_S = 1e-3

PROTOCOL_NAMES = ("DSDV", "AODV", "DSR")
MAC_MODES = ("realistic", "ideal")


class ConfigInvalid(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ScenarioConfig:
    protocol: str = "AODV"
    node_count: int = 50
    area_width: float = 500.0
    area_height: float = 500.0
    max_speed: float = 10.0
    min_speed: float = 0.1          # random waypoint's speed decays when it is 0
    pause_time: float = 20.0        # seconds, or math.inf for a static network
    sim_time: float = 100.0
    n_flows: int = 10
    rate: float = 4.0
    packet_size: int = 512
    seed: int = 1
    mac_mode: str = "realistic"
    warmup: float = 10.0            # seconds excluded from metrics
    drain: float = 2.0              # extra run time so in-flight packets land
    radio_range: float = 250.0      # nominal two-ray-ground range at default power
    bandwidth: int = 2_000_000
    per_hop_latency: float = 0.001
    retry_limit: int = 3            # MAC retries before a unicast is declared broken

    def validate(self):
        errors = []
        if self.protocol.upper() not in PROTOCOL_NAMES:
            errors.append(f"protocol must be one of {PROTOCOL_NAMES}, got {self.protocol!r}")
        if self.node_count < 2:
            errors.append(f"node_count must be >= 2, got {self.node_count}")
        if self.area_width <= 0 or self.area_height <= 0:
            errors.append("area dimensions must be positive")
        if self.max_speed <= 0:
            errors.append("max_speed must be positive")
        if not (0 < self.min_speed <= self.max_speed):
            errors.append("need 0 < min_speed <= max_speed")
        if self.pause_time != STATIC and self.pause_time < 0:
            errors.append("pause_time must be >= 0 or static")
        # The longest leg, a diagonal at min_speed or a pause, must end
        # within the int64 microsecond clock.
        diagonal = math.hypot(self.area_width, self.area_height)
        leg_s = max(diagonal / self.min_speed if self.min_speed > 0 else 0.0,
                    0.0 if self.pause_time == STATIC else self.pause_time)
        if (self.sim_time + self.drain + leg_s) * US_PER_S >= 2 ** 63:
            errors.append(f"legs at min_speed {self.min_speed} or pauses of "
                          f"{self.pause_time} s overrun the microsecond clock")
        if self.pause_time != STATIC and diagonal < self.max_speed * MIN_CROSSING_S:
            errors.append(f"a {self.area_width} x {self.area_height} m area is "
                          f"crossed in under {MIN_CROSSING_S} s at max_speed "
                          f"{self.max_speed}")
        if not self.sim_time > self.warmup >= 0:
            errors.append("need sim_time > warmup >= 0")
        if self.n_flows < 1 or self.n_flows > self.node_count // 2:
            errors.append(f"n_flows must be in [1, node_count/2], got {self.n_flows}")
        if self.rate <= 0:
            errors.append("rate must be positive")
        if self.packet_size < 1:
            errors.append("packet_size must be positive")
        if self.mac_mode not in MAC_MODES:
            errors.append(f"mac_mode must be one of {MAC_MODES}, got {self.mac_mode!r}")
        if self.radio_range <= 0 or self.bandwidth <= 0:
            errors.append("radio_range and bandwidth must be positive")
        if self.drain < 0:
            errors.append(f"drain must be >= 0, got {self.drain}")
        if self.per_hop_latency < 0:
            errors.append(f"per_hop_latency must be >= 0, got {self.per_hop_latency}")
        if self.retry_limit < 0:
            errors.append(f"retry_limit must be >= 0, got {self.retry_limit}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value) \
                    and not (f.name == "pause_time" and value == STATIC):
                errors.append(f"{f.name} must be finite, got {value}")
        return errors

    def check(self):
        errors = self.validate()
        if errors:
            raise ConfigInvalid(errors)


def build_mobility(config):
    """The movement model *config* describes, at t=0: a fixed placement
    drawn from the seed for a static network, random waypoint otherwise."""
    if config.pause_time == STATIC:
        return FixedPositions(init_positions(
            config.node_count, RngStream(config.seed, "mobility:init"),
            config.area_width, config.area_height))
    return RandomWaypoint(
        config.node_count, config.area_width, config.area_height,
        config.max_speed, config.seed, min_speed=config.min_speed,
        pause_time=config.pause_time,
    )


def build_simulation(config, mobility=None):
    """Wire up one run; returns (sim, radio, routers, trace, flows, generator)."""
    config.check()
    if mobility is None:
        mobility = build_mobility(config)
    elif mobility.node_count != config.node_count:
        raise ConfigInvalid([f"the mobility model moves {mobility.node_count} "
                             f"nodes, node_count is {config.node_count}"])
    sim = Simulator()
    trace = PacketTrace()
    radio = Radio(sim, mobility, range_m=config.radio_range,
                  bandwidth_bps=config.bandwidth,
                  latency_us=to_us(config.per_hop_latency),
                  retry_limit=config.retry_limit,
                  ideal=config.mac_mode == "ideal")
    routers = [
        make_router(config.protocol, node, sim, radio, trace,
                    RngStream(config.seed, f"protocol:{node}"))
        for node in range(config.node_count)
    ]
    connect(radio, routers)
    radio.on_transmit = _control_counter(trace)

    traffic_rng = RngStream(config.seed, "traffic")
    flows = setup_flows(config.n_flows, range(config.node_count), traffic_rng,
                        rate=config.rate, packet_size=config.packet_size,
                        stop_s=config.sim_time)
    generator = TrafficGenerator(sim, flows, trace,
                                 lambda src, pkt: routers[src].send_app_packet(pkt))
    return sim, radio, routers, trace, flows, generator


def _control_counter(trace):
    def on_transmit(frame):
        if frame.kind != "data":
            trace.record_control(frame.kind, frame.size)
    return on_transmit


def run_scenario(config, trace_path=None, move_trace_path=None,
                 move_trace_interval=1.0, mobility=None):
    """Run one scenario; returns (MetricsRecord, full PacketTrace).

    Metrics are computed over packets generated in [warmup, sim_time]; the
    engine runs a short drain past sim_time so in-flight packets can land.
    A *mobility* model passed in replaces the one the config describes.  It
    must answer position queries at any time, because the movement trace
    samples it again from t=0 once the run is over; without one, the trace
    samples a fresh model built from the config.  The movement trace takes
    a sample every *move_trace_interval* seconds, which must round to at
    least one microsecond.  The directories of the output files are made
    when the files are written, so a refused run leaves none behind.
    """
    if move_trace_path and not (math.isfinite(move_trace_interval)
                                and to_us(move_trace_interval) > 0):
        raise ConfigInvalid([f"move_trace_interval must round to at least "
                             f"1 us, got {move_trace_interval} s"])
    trace = _simulate(config, mobility)
    windowed = trace.window(to_us(config.warmup), to_us(config.sim_time))
    record = summarize(windowed)
    for path in filter(None, (trace_path, move_trace_path)):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if trace_path:
        write_trace_csv(trace, trace_path)
    if move_trace_path:
        if mobility is None:
            mobility = build_mobility(config)
        write_movement_trace(move_trace_path, mobility, to_us(config.sim_time),
                             to_us(move_trace_interval))
    return record, trace


def _simulate(config, mobility):
    """Build and run one simulation; returns its PacketTrace."""
    sim, radio, routers, trace, flows, generator = build_simulation(config, mobility)
    for router in routers:
        router.start()
    generator.start()
    try:
        sim.run_until(to_us(config.sim_time + config.drain))
    finally:
        # Routers, radio and engine point at each other, and pending events
        # at all three: cut those cycles, so that reference counting frees
        # the run at once and a sweep holds one run's state at a time.
        sim.clear()
        radio.disconnect()
    return trace
