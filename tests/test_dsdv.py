"""DSDV: update acceptance rule, invalidation, hold-down, forwarding."""

from hypothesis import example, given, settings, strategies as st

from manetsim.protocols.dsdv import (INFINITY, SETTLE_US, UPDATE_ENTRY_BYTES,
                                     UPDATE_HEADER_BYTES, DsdvEntry)

from conftest import Net

US = 1_000_000


def one_router(**kw):
    return Net([(0, 0)], protocol="DSDV", **kw).routers[0]


def two_net(**kw):
    return Net([(0, 0), (100, 0)], protocol="DSDV", **kw)


# -- acceptance rule ----------------------------------------------------

def test_unknown_destination_is_installed():
    r = one_router()
    assert r.apply_update_entry(5, 10, 2, origin=3)
    e = r.table[5]
    assert (e.next_hop, e.hops, e.seq) == (3, 3, 10)


def test_newer_sequence_always_wins():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    # fresher but longer route still replaces the stored one
    assert r.apply_update_entry(5, 12, 4, origin=7)
    assert r.table[5].seq == 12 and r.table[5].hops == 5


def test_equal_sequence_needs_strictly_fewer_hops():
    r = one_router()
    r.apply_update_entry(5, 10, 3, origin=3)
    assert not r.apply_update_entry(5, 10, 3, origin=7)   # same hops: ignore
    assert not r.apply_update_entry(5, 10, 5, origin=7)   # more hops: ignore
    assert r.table[5].next_hop == 3
    assert r.apply_update_entry(5, 10, 1, origin=7)       # fewer: replace
    assert r.table[5].next_hop == 7 and r.table[5].hops == 2


def test_older_sequence_is_ignored():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    assert not r.apply_update_entry(5, 8, 0, origin=7)
    assert r.table[5].seq == 10


def test_own_entry_is_never_overwritten():
    r = one_router()
    assert not r.apply_update_entry(0, 999, 0, origin=3)
    assert r.table[0].hops == 0 and r.table[0].next_hop == 0


def test_advertised_infinity_stays_infinite():
    r = one_router()
    r.apply_update_entry(5, 11, INFINITY, origin=3)
    assert r.table[5].hops == INFINITY
    assert not r.table[5].valid  # odd seq and infinite metric


def test_entry_validity_follows_sequence_parity():
    e = DsdvEntry(1, 2, 3, seq=4, install_us=0)
    assert e.valid
    e.seq = 5
    assert not e.valid
    e.seq = 6
    e.hops = INFINITY
    assert not e.valid


# -- full dumps ---------------------------------------------------------

def test_periodic_advertise_bumps_sequence_by_two():
    r = one_router()
    assert r.own_seq == 0
    r.periodic_advertise()
    r.periodic_advertise()
    assert r.own_seq == 4
    assert r.own_seq % 2 == 0


def test_dump_size_counts_header_plus_entries():
    net = two_net()
    sizes = []
    net.radio.on_transmit = lambda fr: sizes.append((fr.kind, fr.size))
    r = net.routers[0]
    r.apply_update_entry(5, 10, 1, origin=1)
    r.periodic_advertise()
    kind, size = sizes[-1]
    assert kind == "dsdv-update"
    assert size == UPDATE_HEADER_BYTES + 2 * UPDATE_ENTRY_BYTES  # self + dest 5


def test_handle_update_matches_per_entry_rule():
    """The inlined bulk path and the single-entry rule must agree."""
    entries = [(1, 4, 0), (2, 6, 1), (1, 2, 0), (3, 7, INFINITY),
               (2, 6, 0), (4, 0, 2), (1, 4, 5)]
    bulk = one_router()
    ref = one_router()
    bulk.handle_update((9, tuple(entries)))
    for dest, seq, hops in entries:
        ref.apply_update_entry(dest, seq, hops, origin=9)
    assert set(bulk.table) == set(ref.table)
    for dest in bulk.table:
        b, r = bulk.table[dest], ref.table[dest]
        assert (b.next_hop, b.hops, b.seq) == (r.next_hop, r.hops, r.seq)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY])),
                min_size=1, max_size=30),
       st.integers(1, 4))
def test_handle_update_equivalence_fuzz(entries, origin):
    bulk = one_router()
    ref = one_router()
    bulk.handle_update((origin, tuple(entries)))
    for dest, seq, hops in entries:
        ref.apply_update_entry(dest, seq, hops, origin=origin)
    assert {d: (e.next_hop, e.hops, e.seq) for d, e in bulk.table.items()} == \
           {d: (e.next_hop, e.hops, e.seq) for d, e in ref.table.items()}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6),
                          st.sampled_from([0, 1, 2, 3, INFINITY]),
                          st.integers(-1, 1), st.integers(-3, 3)),
                max_size=12),
       st.booleans())
# One entry each side, tied or one step apart on the sequence number and
# on the hop count the receiver would install.
@example([(2, 4, 0, 0, 1)], False)
@example([(2, 4, 0, 0, 2)], False)
@example([(2, 4, 1, 1, 0)], False)
@example([(2, 4, 1, -1, 0)], False)
@example([(2, 4, INFINITY, 0, 0)], True)
def test_dump_ranks_skip_only_ignored_entries(pairs, break_link):
    """A dump carries ranks that let a receiver skip entries before the
    rule runs; the result must equal running the rule on every entry."""
    # The receiver holds each advertised entry with its sequence number
    # and hop count nudged, so the rule's ties and near-ties all occur.
    held = [(dest, max(0, seq + dseq),
             hops if hops == INFINITY else max(0, hops + dhops))
            for dest, seq, hops, dseq, dhops in pairs]
    sender_net = Net([(0, 0), (1000, 0)], protocol="DSDV")
    sender = sender_net.routers[0]
    for dest, seq, hops, _dseq, _dhops in pairs:
        sender.apply_update_entry(dest, seq, hops, origin=2)
    dumps = []
    sender_net.radio.on_transmit = lambda fr: dumps.append(fr.payload)
    sender.periodic_advertise()
    msg = dumps[-1]
    receivers = []
    for _ in range(2):
        r = Net([(0, 0), (1000, 0)], protocol="DSDV").routers[1]
        for dest, seq, hops in held:
            r.apply_update_entry(dest, seq, hops, origin=3 * (dest % 2))
        if break_link:
            r.invalidate_via(0)
        receivers.append(r)
    screened, plain = receivers
    got = screened.handle_update(msg)
    want = plain.handle_update((msg[0], tuple(map(tuple, msg[1].tolist()))))
    assert got == want
    assert {d: (e.next_hop, e.hops, e.seq, e.install_us)
            for d, e in screened.table.items()} == \
           {d: (e.next_hop, e.hops, e.seq, e.install_us)
            for d, e in plain.table.items()}
    assert screened._settling == plain._settling


# -- invalidation -------------------------------------------------------

def test_invalidate_via_makes_sequence_odd():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    r.apply_update_entry(6, 20, 2, origin=3)
    r.apply_update_entry(7, 30, 1, origin=4)
    gone = r.invalidate_via(3)
    assert sorted(gone) == [5, 6]
    for dest in (5, 6):
        assert r.table[dest].seq % 2 == 1
        assert r.table[dest].hops == INFINITY
        assert not r.table[dest].valid
    assert r.table[7].valid


def test_route_lookup_skips_invalid_routes():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    assert r.route_lookup(5) == 3
    r.invalidate_via(3)
    assert r.route_lookup(5) is None


def test_newer_odd_sequence_resurrects_route():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    r.invalidate_via(3)                       # seq now 11
    assert r.apply_update_entry(5, 12, 1, origin=4)
    assert r.route_lookup(5) == 4


# -- hold-down ----------------------------------------------------------

def test_worse_fresher_route_is_shadowed_until_confirmed():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    r.apply_update_entry(5, 12, 4, origin=7)  # fresher but worse, other hop
    assert r.table[5].next_hop == 7           # table follows the rule
    assert r.route_lookup(5) == 3             # forwarding holds the old hop
    r.apply_update_entry(5, 12, 1, origin=3)  # equally fresh, as short
    assert r.route_lookup(5) == 3
    assert 5 not in r._settling


def test_hold_down_expires():
    net = Net([(0, 0)], protocol="DSDV")
    r = net.routers[0]
    r.apply_update_entry(5, 10, 1, origin=3)
    r.apply_update_entry(5, 12, 4, origin=7)
    net.sim.run_until(SETTLE_US + 1)
    assert r.route_lookup(5) == 7


def test_hold_down_cleared_when_old_hop_dies():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    r.apply_update_entry(5, 12, 4, origin=7)
    r.invalidate_via(3)
    assert r.route_lookup(5) == 7


# -- end to end ---------------------------------------------------------

def test_chain_delivery_after_convergence(chain3):
    net = chain3(protocol="DSDV")
    net.run(10)                   # a few advertise rounds
    key = net.send(0, 2)
    net.run(11)
    assert net.delivered(key)
    assert net.hops(key) == 2


def test_no_route_is_dropped_not_crashed():
    net = Net([(0, 0), (10_000, 0)], protocol="DSDV")
    net.run(5)
    key = net.send(0, 1)
    net.run(6)
    assert not net.delivered(key)
    assert net.trace.drops["dsdv:no_route"] == 1
