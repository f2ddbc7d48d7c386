"""DSDV: update acceptance rule, invalidation, hold-down, forwarding."""

from hypothesis import example, given, settings, strategies as st

import numpy as np

from manetsim.protocols.dsdv import (INFINITY, SETTLE_US, UNRANKED,
                                     UPDATE_ENTRY_BYTES, UPDATE_HEADER_BYTES,
                                     DsdvRouter, _decode, _rank, _valid)

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
    assert r.route_lookup(5) is None  # odd seq and infinite metric


# -- ranks --------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 40), st.integers(0, INFINITY))
@example(0, 0)
@example(0, INFINITY)
@example(1, INFINITY - 1)
@example(1 << 40, INFINITY)
def test_rank_decodes_to_seq_and_hops(seq, hops):
    """A table stores only ranks: each gives back its (seq, hops) and its
    validity, as a scalar and in an array."""
    rank = _rank(seq, hops)
    assert _decode(rank) == (seq, hops)
    assert _valid(rank) == (seq % 2 == 0 and hops < INFINITY)
    seqs, hopss = _decode(np.array([rank, rank]))
    assert seqs.tolist() == [seq, seq] and hopss.tolist() == [hops, hops]
    assert _valid(np.array([rank])).tolist() == [_valid(rank)]


def test_unranked_decodes_as_invalid():
    assert not _valid(UNRANKED)
    assert not _valid(np.array([UNRANKED]))[0]
    assert _decode(UNRANKED)[1] > INFINITY


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


def dsdv_net(n):
    """A network of n DSDV routers, none in range of another."""
    return Net([(1000 * i, 0) for i in range(n)], protocol="DSDV")


def dump_of(sender):
    """The frame a periodic advertisement of sender broadcasts."""
    frames = []
    sender.radio.on_transmit = frames.append
    sender.periodic_advertise()
    return frames[-1]


def hold(router, held, dead):
    """Install the (dest, seq, hops, origin) routes held one at a time, then
    break the link to dead, unless it is None."""
    for dest, seq, hops, origin in held:
        router.apply_update_entry(dest, seq, hops, origin)
    if dead is not None:
        router.invalidate_via(dead)


def metric(route):
    """The hop count and validity of a table route, or None for none."""
    if route is None:
        return None
    return route.hops, route.seq % 2 == 0 and route.hops < INFINITY


def check_dump_against_rows(routes, sender_dead, holdings):
    """Router 0 holds routes, loses its link to sender_dead and broadcasts
    a dump, which deliver_broadcast hands to routers 1, 2, ... at once;
    router r first holds holdings[r - 1] = (held, dead).  A twin of each
    receiver in a second network applies the same rows one at a time with
    apply_update_entry.  The dump must reach handle_update in at most one
    call, holding each (receiver, dest) pair the acceptance rule installs
    and no other.  Each receiver must end in its twin's routes, hold-downs
    and next hops, the changed pairs returned must name each destination
    whose metric or validity changed at each receiver, and the receivers
    with a change must send their triggered dumps in node order."""
    n = len(holdings) + 2
    net, twins = dsdv_net(n), dsdv_net(n)
    sender = net.routers[0]
    # A first update, to the spare last router, joins the network's ranks
    # into one array, as a run's first update does; tables that grow to
    # hold the routes below grow after that.
    DsdvRouter.deliver_broadcast(net.routers, 1 << (n - 1), dump_of(sender))
    hold(sender, routes, sender_dead)
    for node, (held, dead) in enumerate(holdings, 1):
        hold(net.routers[node], held, dead)
        hold(twins.routers[node], held, dead)
    frame = dump_of(sender)
    rows = [(dest, route.seq, route.hops) for dest, route in sender.table.items()]
    origin, dests, _ranks = frame.payload
    assert origin == 0
    assert dests.tolist() == [dest for dest, _seq, _hops in rows]
    assert len(set(dests.tolist())) == len(dests)

    calls = []

    def recorded(msg, handle=sender.handle_update):
        changed = handle(msg)
        calls.append((msg, changed))
        return changed

    sender.handle_update = recorded
    triggered = []
    net.radio.on_transmit = lambda fr: triggered.append(fr.src)
    receivers = range(1, n - 1)
    mask = sum(1 << node for node in receivers)
    DsdvRouter.deliver_broadcast(net.routers, mask, frame)

    assert len(calls) <= 1
    pairs, got = [], {node: [] for node in receivers}
    for (_origin, won, _ranks, who), changed in calls:
        assert len(won) == len(who)
        pairs = list(zip(who.tolist(), won.tolist()))
        for node, dest in changed:
            assert type(node) is int and type(dest) is int
            got[node].append(dest)
    installs, want = [], {node: [] for node in receivers}
    for node in receivers:
        bulk, ref = net.routers[node], twins.routers[node]
        for dest, seq, hops in rows:
            cur = ref.table.get(dest)
            installed = ref.apply_update_entry(dest, seq, hops, origin=0)
            hops = hops + 1 if hops < INFINITY else INFINITY
            assert installed == (dest != node and (
                cur is None or seq > cur.seq or (seq == cur.seq and hops < cur.hops)))
            if installed:
                installs.append((node, dest))
            if metric(ref.table.get(dest)) != metric(cur):
                want[node].append(dest)
        assert got[node] == want[node]
        assert bulk.table == ref.table
        assert bulk._settling == ref._settling
        for dest in bulk.table:
            hop = bulk.route_lookup(dest)
            assert hop == ref.route_lookup(dest)
            assert hop is None or type(hop) is int
    assert pairs == installs
    assert triggered == [node for node in receivers if want[node]]


def one_receiver(held, break_link):
    """The holdings of a single receiver that learnt the (dest, seq, hops)
    routes held over the sender for even dests and over 3 for odd, and
    lost its link to the sender if break_link."""
    return [([(dest, seq, hops, 3 * (dest % 2)) for dest, seq, hops in held],
             0 if break_link else None)]


def test_handle_update_matches_per_entry_rule():
    """A dump and its rows applied one by one must agree."""
    routes = [(2, 6, 1, 4), (3, 7, INFINITY, 4), (4, 0, 2, 5), (5, 10, 0, 5),
              (6, 4, 3, 4), (7, 12, 2, 4)]
    # 4 and 5 become odd at the sender.  7 arrives fresher but longer over
    # a new next hop: a hold-down starts.
    held = [(1, 40, 0), (2, 6, 0), (3, 7, 2), (4, 2, 1), (5, 10, 1), (6, 4, 0),
            (7, 10, 0)]
    check_dump_against_rows(routes, 5, one_receiver(held, False))
    check_dump_against_rows(routes, 5, one_receiver(held, True))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY]),
                          st.integers(2, 4)), max_size=12),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY])),
                max_size=12),
       st.sampled_from([None, 2, 3]), st.booleans())
def test_handle_update_equivalence_fuzz(routes, held, dead, break_link):
    check_dump_against_rows(routes, dead, one_receiver(held, break_link))


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
    routes = [(dest, seq, hops, 2) for dest, seq, hops, _dseq, _dhops in pairs]
    check_dump_against_rows(routes, None, one_receiver(held, break_link))


# Routes to destinations up to 9 on networks of 3 to 7 nodes, so some
# tables grow while the routes are installed.
ROUTE = st.tuples(st.integers(0, 9), st.integers(0, 20),
                  st.sampled_from([0, 1, 2, 3, INFINITY]), st.integers(0, 9))


@settings(max_examples=100, deadline=None)
@given(st.lists(ROUTE, max_size=14), st.sampled_from([None, 2, 3, 7]),
       st.lists(st.tuples(st.lists(ROUTE, max_size=10),
                          st.sampled_from([None, 0, 2, 3, 7])),
                min_size=2, max_size=6))
# The sender re-advertises receiver 1's own route with an odd sequence
# number above receiver 1's own; receiver 2 installs it, receiver 1 must not.
@example([(1, 4, 1, 2), (2, 6, 0, 2)], 2, [([], None), ([(1, 2, 0, 0)], None)])
# Both receivers change, and each has a hold-down before the dump.
@example([(3, 8, 2, 2), (4, 6, 0, 2)], None,
         [([(3, 6, 0, 5), (3, 8, 4, 6)], None),
          ([(4, 4, 0, 5), (4, 6, 3, 6), (9, 2, 0, 5)], 6)])
def test_dump_to_several_receivers_matches_rows_one_by_one(routes, dead, holdings):
    check_dump_against_rows(routes, dead, holdings)


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


def test_fresher_route_as_short_switches_at_once():
    r = one_router()
    r.apply_update_entry(5, 10, 1, origin=3)
    r.apply_update_entry(5, 12, 1, origin=7)  # fresher, as short, other hop
    assert r.route_lookup(5) == 7
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
