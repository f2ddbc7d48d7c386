"""Event loop ordering, cancellation and seeded stream behaviour."""

import pytest
from hypothesis import given, strategies as st

from manetsim.engine import RngStream, SchedulingInPast, Simulator, to_us


def test_unit_conversions_round_trip():
    assert to_us(1.0) == 1_000_000
    assert to_us(0.003048) == 3048


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for t in (500, 100, 300, 200, 400):
        sim.at(t, lambda t=t: fired.append(t))
    sim.run_until(1000)
    assert fired == [100, 200, 300, 400, 500]
    assert sim.now == 1000


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.at(42, lambda label=label: fired.append(label))
    sim.run_until(42)
    assert fired == list("abcde")


def test_after_is_relative_to_current_clock():
    sim = Simulator()
    out = []
    sim.at(100, lambda: sim.after(50, lambda: out.append(sim.now)))
    sim.run_until(1000)
    assert out == [150]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run_until(200)
    with pytest.raises(SchedulingInPast):
        sim.at(150, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(100, lambda: fired.append("no"))
    sim.at(150, lambda: fired.append("yes"))
    sim.cancel(handle)
    sim.cancel(handle)  # a second cancel changes nothing
    assert sim.run_until(200) == 1
    assert fired == ["yes"]


def test_at_and_after_pass_their_arguments_in_order():
    sim = Simulator()
    calls = []

    def record(*args):
        calls.append((sim.now, args))

    sim.at(10, record, 1, "b", None)
    sim.at(20, lambda: sim.after(5, record, "c", 2))
    sim.at(30, record)
    sim.run_until(100)
    assert calls == [(10, (1, "b", None)), (25, ("c", 2)), (30, ())]


def test_cancelled_event_with_arguments_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(100, fired.append, "no")
    sim.after(150, fired.append, "yes")
    sim.cancel(handle)
    assert sim.run_until(200) == 1
    assert fired == ["yes"]


def test_clear_cancels_and_drops_every_pending_event():
    sim = Simulator()
    fired = []
    handle = sim.at(100, fired.append, "a")
    sim.at(200, fired.append, "b")
    sim.clear()
    assert handle.payload is None
    assert sim.run_until(300) == 0
    assert fired == []


def test_cancel_after_fire_changes_nothing():
    sim = Simulator()
    fired = []
    handle = sim.at(100, lambda: fired.append(sim.now))
    sim.at(300, lambda: fired.append(sim.now))
    sim.run_until(200)
    sim.cancel(handle)
    assert sim.run_until(400) == 1
    assert fired == [100, 300]


def test_run_until_returns_dispatch_count():
    sim = Simulator()
    for t in range(10):
        sim.at(t, lambda: None)
    h = sim.at(5, lambda: None)
    sim.cancel(h)
    assert sim.run_until(100) == 10


def test_events_scheduled_during_dispatch_run_same_call():
    sim = Simulator()
    out = []
    sim.at(10, lambda: (out.append("a"), sim.at(10, lambda: out.append("b"))))
    sim.run_until(10)
    assert out == ["a", "b"]


def test_rng_stream_reproducible_and_labelled():
    a = RngStream(42, "traffic")
    b = RngStream(42, "traffic")
    c = RngStream(42, "mobility:0")
    d = RngStream(43, "traffic")
    seq_a = [a.random() for _ in range(20)]
    assert seq_a == [b.random() for _ in range(20)]
    assert seq_a != [c.random() for _ in range(20)]
    assert seq_a != [d.random() for _ in range(20)]
    assert a.master_seed == 42 and a.stream_id == "traffic"


def test_rng_streams_do_not_perturb_each_other():
    a1 = RngStream(7, "x")
    ref = [a1.random() for _ in range(10)]
    a2 = RngStream(7, "x")
    b = RngStream(7, "y")
    out = []
    for i in range(10):
        out.append(a2.random())
        b.random()  # interleaved draws on another stream
    assert out == ref


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_dispatch_order_is_sorted_for_any_schedule(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, lambda t=t: fired.append(t))
    sim.run_until(10_000)
    assert fired == sorted(times)
