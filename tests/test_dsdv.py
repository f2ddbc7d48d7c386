"""DSDV: update acceptance rule, invalidation, hold-down, forwarding."""

from hypothesis import example, given, settings, strategies as st

from manetsim.protocols.dsdv import (INFINITY, SETTLE_US, UPDATE_ENTRY_BYTES,
                                     UPDATE_HEADER_BYTES)

from conftest import Net

US = 1_000_000


def one_router(**kw):
    return Net([(0, 0)], protocol="DSDV", **kw).routers[0]


def two_net(**kw):
    return Net([(0, 0), (100, 0)], protocol="DSDV", **kw)


def far_pair(node):
    """Router node of a fresh network of two nodes out of each other's range."""
    return Net([(0, 0), (1000, 0)], protocol="DSDV").routers[node]


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
    assert r.route_lookup(5) is None  # odd seq and infinite metric


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


def dump_of(sender):
    """The update message a periodic advertisement of sender broadcasts."""
    msgs = []
    sender.radio.on_transmit = lambda frame: msgs.append(frame.payload)
    sender.periodic_advertise()
    return msgs[-1]


def receiver(held, break_link):
    """Router 1 of a far pair holding the (dest, seq, hops) routes held,
    learnt over router 0 (the sender) for even dests and over 3 for odd."""
    r = far_pair(1)
    for dest, seq, hops in held:
        r.apply_update_entry(dest, seq, hops, origin=3 * (dest % 2))
    if break_link:
        r.invalidate_via(0)
    return r


def metric(route):
    """The hop count and validity of a table route, or None for none."""
    if route is None:
        return None
    return route.hops, route.seq % 2 == 0 and route.hops < INFINITY


def check_dump_against_rows(sender, held, break_link=False):
    """Deliver a real dump of sender to a receiver holding held, and apply
    the same rows one at a time to a twin with apply_update_entry: both
    must end in the same routes, hold-downs and next hops, the changed
    list must name each destination whose metric or validity changed, and
    a row must be installed exactly when the acceptance rule says so."""
    msg = dump_of(sender)
    rows = [(dest, route.seq, route.hops) for dest, route in sender.table.items()]
    dests = msg[1][:, 0].tolist()
    assert dests == [dest for dest, _seq, _hops in rows]
    assert len(set(dests)) == len(dests)
    bulk, ref = receiver(held, break_link), receiver(held, break_link)
    got = bulk.handle_update(msg)
    want = []
    for dest, seq, hops in rows:
        cur = ref.table.get(dest)
        installed = ref.apply_update_entry(dest, seq, hops, origin=sender.node_id)
        hops = hops + 1 if hops < INFINITY else INFINITY
        assert installed == (dest != ref.node_id and (
            cur is None or seq > cur.seq or (seq == cur.seq and hops < cur.hops)))
        if metric(ref.table.get(dest)) != metric(cur):
            want.append(dest)
    assert got == want
    assert bulk.table == ref.table
    assert bulk._settling == ref._settling
    for dest in bulk.table:
        hop = bulk.route_lookup(dest)
        assert hop == ref.route_lookup(dest)
        assert hop is None or type(hop) is int


def sender_with(routes):
    """Router 0 of a far pair holding the (dest, seq, hops, origin) routes."""
    sender = far_pair(0)
    for dest, seq, hops, origin in routes:
        sender.apply_update_entry(dest, seq, hops, origin)
    return sender


def test_handle_update_matches_per_entry_rule():
    """A dump and its rows applied one by one must agree."""
    sender = sender_with([(2, 6, 1, 4), (3, 7, INFINITY, 4), (4, 0, 2, 5),
                          (5, 10, 0, 5), (6, 4, 3, 4), (7, 12, 2, 4)])
    sender.invalidate_via(5)                  # 4 and 5 become odd
    # 7 arrives fresher but longer over a new next hop: a hold-down starts.
    held = [(1, 40, 0), (2, 6, 0), (3, 7, 2), (4, 2, 1), (5, 10, 1), (6, 4, 0),
            (7, 10, 0)]
    check_dump_against_rows(sender, held)
    check_dump_against_rows(sender, held, break_link=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY]),
                          st.integers(2, 4)), max_size=12),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY])),
                max_size=12),
       st.sampled_from([None, 2, 3]), st.booleans())
def test_handle_update_equivalence_fuzz(routes, held, dead, break_link):
    sender = sender_with(routes)
    if dead is not None:
        sender.invalidate_via(dead)
    check_dump_against_rows(sender, held, break_link)


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
    """A receiver skips a dump row by its rank; the rows it skips must be
    exactly those the acceptance rule ignores."""
    # The receiver holds each advertised entry with its sequence number
    # and hop count nudged, so the rule's ties and near-ties all occur.
    held = [(dest, max(0, seq + dseq),
             hops if hops == INFINITY else max(0, hops + dhops))
            for dest, seq, hops, dseq, dhops in pairs]
    sender = sender_with([(dest, seq, hops, 2)
                          for dest, seq, hops, _dseq, _dhops in pairs])
    check_dump_against_rows(sender, held, break_link)


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
        assert r.route_lookup(dest) is None
    assert r.route_lookup(7) == 4


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
