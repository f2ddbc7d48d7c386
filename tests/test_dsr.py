"""DSR: source routes, route cache, discovery, error propagation."""

from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from manetsim.protocols.dsr import (CACHE_CAPACITY, RERR, RERR_BYTES, RREP,
                                    RREP_BASE_BYTES, RouteCache, data_header_bytes)
from manetsim.radio import Frame

from conftest import Net

US = 1_000_000


# -- source routes ------------------------------------------------------

def test_data_header_grows_with_route_length():
    assert data_header_bytes((0, 1)) == 24
    assert data_header_bytes((0, 1, 2, 3)) == 32


# -- route cache --------------------------------------------------------

def test_cache_find_prefers_shortest_then_oldest():
    c = RouteCache()
    c.insert((0, 1, 2, 9))
    c.insert((0, 3, 9))
    c.insert((0, 4, 9))     # same length as (0,3,9) but newer
    assert c.find(9) == (0, 3, 9)


def test_cache_ignores_duplicate_paths():
    c = RouteCache()
    c.insert((0, 9))
    c.insert((0, 9))
    assert c.paths == [(0, 9)]


def test_cache_capacity_evicts_oldest():
    c = RouteCache()
    paths = [(0, i, 1000 + i) for i in range(1, CACHE_CAPACITY + 2)]
    for path in paths:
        c.insert(path)
    assert c.paths == paths[1:]


def test_purge_link_removes_both_orientations():
    c = RouteCache()
    c.insert((0, 1, 2, 3))
    c.insert((5, 2, 1, 6))   # same link traversed the other way
    c.insert((0, 1, 4, 3))
    c.purge_link(1, 2)
    assert c.paths == [(0, 1, 4, 3)]


def test_missing_route_returns_none():
    assert RouteCache().find(9) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=6,
                         unique=True), max_size=2 * CACHE_CAPACITY))
@example([list(p) for p in permutations(range(10), 2)][:CACHE_CAPACITY + 1])
def test_cache_paths_always_duplicate_free(paths):
    c = RouteCache()
    for p in paths:
        c.insert(tuple(p))
    for path in c.paths:
        assert len(set(path)) == len(path)
    assert len(c.paths) <= CACHE_CAPACITY


# -- discovery and forwarding ------------------------------------------

def test_chain_discovery_and_delivery(chain3):
    net = chain3(protocol="DSR")
    key = net.send(0, 2)
    net.run(5)
    assert net.delivered(key)
    assert net.hops(key) == 2
    assert net.routers[0].cache.find(2) == (0, 1, 2)


def test_data_frames_carry_route_header(chain3):
    net = chain3(protocol="DSR")
    net.send(0, 2)
    net.run(5)
    sizes = []
    net.radio.on_transmit = lambda fr: fr.kind == "data" and sizes.append(fr.size)
    net.send(0, 2)
    net.run(6)
    assert sizes == [540, 540]   # 512 payload + 16 + 4 * 3 route header, per hop


def test_return_path_nodes_cache_suffixes(chain4):
    net = chain4(protocol="DSR")
    net.send(0, 3)
    net.run(5)
    # every node on the reply path learns its own suffix toward the dest
    assert net.routers[1].cache.find(3) == (1, 2, 3)
    assert net.routers[2].cache.find(3) == (2, 3)


def test_intermediate_cache_reply(chain4):
    net = chain4(protocol="DSR")
    net.send(1, 3)
    net.run(5)
    rreqs = []
    net.radio.on_transmit = lambda fr: fr.kind == "dsr-rreq" and rreqs.append(fr.src)
    key = net.send(0, 3)    # node 1 can answer from its cache
    net.run(10)
    assert net.delivered(key)
    assert 1 not in rreqs   # the cached reply stops the flood at node 1


def test_unreachable_destination_gives_up():
    net = Net([(0, 0), (10_000, 0)], protocol="DSR")
    key = net.send(0, 1)
    net.run(10)
    assert not net.delivered(key)
    assert net.trace.drops["dsr:no_route_ever"] == 1


# -- route errors -------------------------------------------------------

def test_link_break_purges_caches_along_return_path(chain4):
    net = chain4(protocol="DSR", ideal=False)
    net.send(0, 3)
    net.run(5)
    net.mobility.move(3, (5000, 0))
    key = net.send(0, 3)
    net.run(9)
    assert not net.delivered(key)
    assert net.trace.drops["dsr:link_break"] == 1
    for node in (0, 1, 2):
        for path in net.routers[node].cache.paths:
            for a, b in zip(path, path[1:]):
                assert {a, b} != {2, 3}


@pytest.mark.parametrize("moved, errors", [
    (3, [(2, (2, 1, 0)), (1, (2, 1, 0))]),  # link 2-3: node 2 reports it
    (1, []),                                # link 0-1: the source sees it
])
def test_route_error_runs_from_the_break_back_to_the_source(chain4, moved,
                                                             errors):
    net = chain4(protocol="DSR", ideal=False)
    net.send(0, 3)
    net.run(5)
    sent = []
    net.radio.on_transmit = lambda fr: fr.kind == RERR and sent.append(
        (fr.src, fr.payload.return_path))
    net.mobility.move(moved, (0, 5000))
    net.send(0, 3)
    net.run(9)
    assert net.trace.drops["dsr:link_break"] == 1
    assert sent == errors


def test_a_broken_reply_is_counted_and_a_broken_error_is_not():
    net = Net([(0, 0)], protocol="DSR")
    router = net.routers[0]
    router.handle_link_break(1, Frame(0, RREP_BASE_BYTES, RREP, (2, 1, 0)))
    assert net.trace.drops == {"dsr:rrep_return_broken": 1}
    router.handle_link_break(1, Frame(0, RERR_BYTES, RERR, None))
    assert net.trace.drops == {"dsr:rrep_return_broken": 1}


def test_broken_path_is_purged_and_survivor_takes_over():
    # Two disjoint 2-hop routes from 0 to 3; break the preferred one.
    positions = [(0, 0), (200, 0), (200, 140), (400, 0)]
    net = Net(positions, protocol="DSR", ideal=False)
    net.send(0, 3)
    net.run(5)
    r0 = net.routers[0]
    used = r0.cache.find(3)
    via = used[1]
    other = 2 if via == 1 else 1
    r0.cache.insert((0, other, 3))   # alternate path, same length, newer
    net.mobility.move(via, (0, 5000))
    lost = net.send(0, 3)            # still routed over the broken path
    net.run(8)
    assert not net.delivered(lost)
    assert r0.cache.find(3) == (0, other, 3)
    key = net.send(0, 3)
    net.run(12)
    assert net.delivered(key)
