"""DSDV: update acceptance rule, invalidation, hold-down, forwarding.

Every route reaches a table through DsdvRouter.deliver_broadcast, the path
a run's updates take."""

from collections import namedtuple

from hypothesis import example, given, settings, strategies as st

import numpy as np

from manetsim.protocols.dsdv import (INFINITY, SETTLE_US, UNRANKED, UPDATE,
                                     UPDATE_ENTRY_BYTES, UPDATE_HEADER_BYTES,
                                     DsdvRouter, _decode, _rank, _valid)
from manetsim.radio import Frame

from conftest import Net

# Every destination and origin the tests name is a node of the network.
SIZE = 10


def dsdv_net(n=SIZE):
    """A network of n DSDV routers, none in range of another."""
    return Net([(1000 * i, 0) for i in range(n)], protocol="DSDV")


def deliver(net, origin, rows, receivers=(0,)):
    """Broadcast an update from origin listing rows of (dest, seq, hops) as
    origin holds them, each one hop further unless unreachable, to the
    routers numbered in receivers; returns the (receiver, dest) pairs whose
    rank or next hop changed."""
    dests = np.array([dest for dest, _seq, _hops in rows], dtype=np.int64)
    ranks = np.array([_rank(seq, hops + (hops < INFINITY)) for _dest, seq, hops in rows],
                     dtype=np.int64)

    def stored(node):
        router = net.routers[node]
        return zip(router._ranks[dests].tolist(), router._next_hops[dests].tolist())

    before = [list(stored(node)) for node in receivers]
    DsdvRouter.deliver_broadcast(net.routers, sum(1 << node for node in receivers),
                                 Frame(origin, 0, UPDATE, (origin, dests, ranks)))
    return [(node, dest) for node, old in zip(receivers, before)
            for dest, was, now in zip(dests.tolist(), old, stored(node)) if was != now]


Route = namedtuple("Route", "next_hop hops seq")


def routes(router):
    """The routes of router as {dest: Route}, decoded from its rank and
    next-hop rows."""
    dests = (router._ranks != UNRANKED).nonzero()[0]
    seq, hops = _decode(router._ranks[dests])
    return {dest: Route(*route) for dest, *route in zip(
        dests.tolist(), router._next_hops[dests].tolist(), hops.tolist(), seq.tolist())}


# -- acceptance rule ----------------------------------------------------

def test_unknown_destination_is_installed():
    net = dsdv_net()
    assert deliver(net, 3, [(5, 10, 2)]) == [(0, 5)]
    assert routes(net.routers[0])[5] == (3, 3, 10)


def test_newer_sequence_always_wins():
    net = dsdv_net()
    deliver(net, 3, [(5, 10, 1)])
    # fresher but longer route still replaces the stored one
    assert deliver(net, 7, [(5, 12, 4)]) == [(0, 5)]
    assert routes(net.routers[0])[5] == (7, 5, 12)


def test_equal_sequence_needs_strictly_fewer_hops():
    net = dsdv_net()
    deliver(net, 3, [(5, 10, 3)])
    assert deliver(net, 7, [(5, 10, 3)]) == []       # same hops: ignore
    assert deliver(net, 7, [(5, 10, 5)]) == []       # more hops: ignore
    assert routes(net.routers[0])[5].next_hop == 3
    assert deliver(net, 7, [(5, 10, 1)]) == [(0, 5)]  # fewer: replace
    assert routes(net.routers[0])[5] == (7, 2, 10)


def test_older_sequence_is_ignored():
    net = dsdv_net()
    deliver(net, 3, [(5, 10, 1)])
    assert deliver(net, 7, [(5, 8, 0)]) == []
    assert routes(net.routers[0])[5].seq == 10


def test_own_entry_is_never_overwritten():
    net = dsdv_net()
    assert deliver(net, 3, [(0, 999, 0)]) == []
    assert routes(net.routers[0])[0] == (0, 0, 0)


def test_advertised_infinity_stays_infinite():
    net = dsdv_net()
    deliver(net, 3, [(5, 11, INFINITY)])
    assert routes(net.routers[0])[5].hops == INFINITY
    assert net.routers[0].route_lookup(5) is None  # odd seq and infinite metric


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
    r = Net([(0, 0)], protocol="DSDV").routers[0]
    assert r.own_seq == 0
    r.periodic_advertise()
    r.periodic_advertise()
    assert r.own_seq == 4
    assert r.own_seq % 2 == 0


def test_dump_size_counts_header_plus_entries():
    net = dsdv_net()
    sizes = []
    net.radio.on_transmit = lambda fr: sizes.append((fr.kind, fr.size))
    deliver(net, 1, [(5, 10, 1)])
    net.routers[0].periodic_advertise()
    kind, size = sizes[-1]
    assert kind == "dsdv-update"
    assert size == UPDATE_HEADER_BYTES + 2 * UPDATE_ENTRY_BYTES  # self + dest 5


def dump_of(sender):
    """The frame a periodic advertisement of sender broadcasts."""
    frames = []
    sender.radio.on_transmit = frames.append
    sender.periodic_advertise()
    return frames[-1]


def hold(net, node, held, dead):
    """Deliver the (dest, seq, hops, origin) routes held to node one at a
    time, then break its link to dead, unless it is None."""
    for dest, seq, hops, origin in held:
        deliver(net, origin, [(dest, seq, hops)], (node,))
    if dead is not None:
        net.routers[node].invalidate_via(dead)


def metric(route):
    """The hop count and validity of a table route, or None for none."""
    if route is None:
        return None
    return route.hops, route.seq % 2 == 0 and route.hops < INFINITY


def check_dump_against_rows(routes_held, sender_dead, holdings):
    """Router 0 holds routes_held, loses its link to sender_dead and
    broadcasts a dump, which deliver_broadcast hands to routers 1, 2, ...
    at once; router r first holds holdings[r - 1] = (held, dead).  A twin
    of each receiver in a second network is sent the dump's rows as
    one-row updates, one after the other.  The dump must reach
    handle_update in at most one call, holding each (receiver, dest) pair
    the acceptance rule installs and no other.  Each receiver must end in
    its twin's routes, hold-downs and next hops, the changed pairs returned
    must name each destination whose metric or validity changed at each
    receiver, and the receivers with a change must trigger their updates
    in node order."""
    net, twins = dsdv_net(), dsdv_net()
    sender = net.routers[0]
    hold(net, 0, routes_held, sender_dead)
    for node, (held, dead) in enumerate(holdings, 1):
        hold(net, node, held, dead)
        hold(twins, node, held, dead)
    frame = dump_of(sender)
    rows = [(dest, route.seq, route.hops) for dest, route in routes(sender).items()]
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
    receivers = range(1, len(holdings) + 1)
    triggered = []
    for node in receivers:
        net.routers[node]._trigger_update = lambda node=node: triggered.append(node)
    DsdvRouter.deliver_broadcast(net.routers, sum(1 << node for node in receivers), frame)

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
            cur = routes(ref).get(dest)
            installed = deliver(twins, 0, [(dest, seq, hops)], (node,)) == [(node, dest)]
            hops = hops + 1 if hops < INFINITY else INFINITY
            assert installed == (dest != node and (
                cur is None or seq > cur.seq or (seq == cur.seq and hops < cur.hops)))
            if installed:
                installs.append((node, dest))
                assert routes(ref)[dest] == (0, hops, seq)
            if metric(routes(ref).get(dest)) != metric(cur):
                want[node].append(dest)
        assert got[node] == want[node]
        assert routes(bulk) == routes(ref)
        assert bulk._settling == ref._settling
        for dest in routes(bulk):
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
    """A dump and its rows sent one by one must agree."""
    routes_held = [(2, 6, 1, 4), (3, 7, INFINITY, 4), (4, 0, 2, 5), (5, 10, 0, 5),
                   (6, 4, 3, 4), (7, 12, 2, 4)]
    # 4 and 5 become odd at the sender.  7 arrives fresher but longer over
    # a new next hop: a hold-down starts.
    held = [(1, 40, 0), (2, 6, 0), (3, 7, 2), (4, 2, 1), (5, 10, 1), (6, 4, 0),
            (7, 10, 0)]
    check_dump_against_rows(routes_held, 5, one_receiver(held, False))
    check_dump_against_rows(routes_held, 5, one_receiver(held, True))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY]),
                          st.integers(2, 4)), max_size=12),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 20),
                          st.sampled_from([0, 1, 2, 3, INFINITY])),
                max_size=12),
       st.sampled_from([None, 2, 3]), st.booleans())
def test_handle_update_equivalence_fuzz(routes_held, held, dead, break_link):
    check_dump_against_rows(routes_held, dead, one_receiver(held, break_link))


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
    routes_held = [(dest, seq, hops, 2) for dest, seq, hops, _dseq, _dhops in pairs]
    check_dump_against_rows(routes_held, None, one_receiver(held, break_link))


# Routes to any node of the network, learnt over any node.
ROUTE = st.tuples(st.integers(0, SIZE - 1), st.integers(0, 20),
                  st.sampled_from([0, 1, 2, 3, INFINITY]), st.integers(0, SIZE - 1))


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
def test_dump_to_several_receivers_matches_rows_one_by_one(routes_held, dead, holdings):
    check_dump_against_rows(routes_held, dead, holdings)


# -- invalidation -------------------------------------------------------

def test_invalidate_via_makes_sequence_odd():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1), (6, 20, 2)])
    deliver(net, 4, [(7, 30, 1)])
    gone = r.invalidate_via(3)
    assert sorted(gone) == [5, 6]
    for dest in (5, 6):
        assert routes(r)[dest].seq % 2 == 1
        assert routes(r)[dest].hops == INFINITY
        assert r.route_lookup(dest) is None
    assert r.route_lookup(7) == 4


def test_route_lookup_skips_invalid_routes():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    assert r.route_lookup(5) == 3
    r.invalidate_via(3)
    assert r.route_lookup(5) is None


def test_newer_odd_sequence_resurrects_route():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    r.invalidate_via(3)                       # seq now 11
    assert deliver(net, 4, [(5, 12, 1)]) == [(0, 5)]
    assert r.route_lookup(5) == 4


# -- hold-down ----------------------------------------------------------

def test_worse_fresher_route_is_shadowed_until_confirmed():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    deliver(net, 7, [(5, 12, 4)])             # fresher but worse, other hop
    assert routes(r)[5].next_hop == 7         # table follows the rule
    assert r.route_lookup(5) == 3             # forwarding holds the old hop
    deliver(net, 3, [(5, 12, 1)])             # equally fresh, as short
    assert r.route_lookup(5) == 3
    assert 5 not in r._settling


def test_fresher_route_as_short_switches_at_once():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    deliver(net, 7, [(5, 12, 1)])             # fresher, as short, other hop
    assert r.route_lookup(5) == 7
    assert 5 not in r._settling


def test_hold_down_expires():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    deliver(net, 7, [(5, 12, 4)])
    net.sim.run_until(SETTLE_US + 1)
    assert r.route_lookup(5) == 7


def test_hold_down_cleared_when_old_hop_dies():
    net = dsdv_net()
    r = net.routers[0]
    deliver(net, 3, [(5, 10, 1)])
    deliver(net, 7, [(5, 12, 4)])
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
