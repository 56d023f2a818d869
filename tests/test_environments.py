"""Tests for the gossip environments."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.environments import (
    NeighborhoodEnvironment,
    SpatialGridEnvironment,
    TraceEnvironment,
    UniformEnvironment,
)
from repro.environments.base import LiveRoster
from repro.mobility.traces import ContactRecord, ContactTrace
from repro.topology import grid_graph


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@st.composite
def _uniform_cases(draw):
    """``(n, id-space size, alive ids, host, count, seed)`` for ``select_peers``."""
    n = draw(st.integers(1, 40))
    id_space = n + draw(st.integers(0, 30))  # ids past n
    alive = draw(st.sets(st.integers(0, id_space - 1), min_size=1))
    host = draw(st.sampled_from(sorted(alive)))
    return n, id_space, alive, host, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


#: 30 of 200 ids: a frozenset of them does not iterate in id order.
_SPARSE_IDS = frozenset(range(0, 180, 6))


class TestUniformEnvironment:
    @settings(max_examples=200, deadline=None)
    @given(_uniform_cases())
    @example((10, 10, set(range(10)), 0, 1, 0))  # dense ids
    @example((10, 10, {0, 2, 4, 6, 8}, 2, 3, 1))  # a sparse half
    @example((4, 12, {0, 9, 11}, 9, 2, 2))  # ids past n
    @example((5, 5, {3}, 3, 1, 3))  # population 1
    @example((5, 5, {1, 3}, 3, 4, 4))  # population 2, count > population - 1
    @example((200, 200, set(_SPARSE_IDS), 36, 3, 5))  # roster not in id order
    def test_roster_contract(self, case):
        n, id_space, alive, host, count, seed = case
        env = UniformEnvironment(n)
        roster = LiveRoster(sorted(alive))
        roster_rng, set_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        peers = env.select_peers(host, roster, 0, count, roster_rng)
        assert len(peers) == len(set(peers)) == min(count, len(alive) - 1)
        assert host not in peers and set(peers) <= alive
        # A plain set is the same call: same peers, same draws.
        assert env.select_peers(host, set(sorted(alive)), 0, count, set_rng) == peers
        assert roster_rng.bit_generator.state == set_rng.bit_generator.state
        # One round's batch is the same stream as its hosts one by one, in
        # any host order and with a requester outside the roster.
        hosts = np.random.default_rng(seed).permutation(sorted(alive)).tolist() + [id_space]
        for round_count in (1, 3):
            round_rng, host_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = env.select_peers_round(hosts, roster, 0, round_count, round_rng)
            assert batch == [env.select_peers(h, roster, 0, round_count, host_rng) for h in hosts]
            assert round_rng.bit_generator.state == host_rng.bit_generator.state

    @pytest.mark.parametrize("count", [1, 3])
    def test_peers_are_uniform_over_the_live_others(self, count):
        # Chi-square goodness of fit at alpha = 0.001, one test per pick
        # column (a count-1 round is the batched draw); critical values are
        # the chi-square 0.999 quantiles for 10 (a live requester: 11
        # others) and 11 (an outsider: all 12 members) degrees of freedom.
        live = sorted(_SPARSE_IDS)[:12]
        roster, env, draws = LiveRoster(live), UniformEnvironment(200), 6000
        for host, others, critical in ((live[5], 11, 29.588), (199, 12, 31.264)):
            rng = np.random.default_rng(3)
            rounds = env.select_peers_round([host] * draws, roster, 0, count, rng)
            picks = np.array(rounds)
            assert picks.shape == (draws, count) and host not in picks
            assert all(len(set(row)) == count for row in rounds)
            for column in picks.T:
                observed = np.unique(column, return_counts=True)[1]
                assert len(observed) == others
                expected = draws / others
                assert ((observed - expected) ** 2 / expected).sum() < critical

    def test_requester_outside_the_roster_draws_from_every_member(self, rng):
        env = UniformEnvironment(10)
        assert env.select_peers(7, {3}, 0, 1, rng) == [3]  # a lone survivor
        assert sorted(env.select_peers(7, {1, 2, 3}, 0, 5, rng)) == [1, 2, 3]
        assert env.select_peers(7, set(), 0, 1, rng) == []

    def test_roster_is_a_value(self):
        env = UniformEnvironment(6)
        roster = LiveRoster(range(6))
        members = tuple(roster.members)
        rng = np.random.default_rng(1)
        for call in range(1000):
            host = call % 6
            # Three of five others: every call skips the host and its own
            # earlier picks in the shared members, and must not reorder them.
            peers = env.select_peers(host, roster, call, 3, rng)
            assert len(set(peers)) == 3 and host not in peers and set(peers) <= roster
        assert tuple(roster.members) == members == tuple(roster)
        assert not hasattr(roster, "add") and not hasattr(roster, "discard")

    def test_selects_live_peer_not_self(self, rng):
        env = UniformEnvironment(10)
        alive = set(range(10))
        for host in range(10):
            peers = env.select_peers(host, alive, 0, 1, rng)
            assert len(peers) == 1
            assert peers[0] != host
            assert peers[0] in alive

    def test_never_selects_failed_hosts(self, rng):
        env = UniformEnvironment(10)
        alive = {0, 1, 2}
        for _ in range(50):
            peers = env.select_peers(0, alive, 0, 1, rng)
            assert peers[0] in {1, 2}

    def test_multiple_distinct_peers(self, rng):
        env = UniformEnvironment(20)
        peers = env.select_peers(0, set(range(20)), 0, 5, rng)
        assert len(peers) == 5
        assert len(set(peers)) == 5

    def test_isolated_population_returns_empty(self, rng):
        env = UniformEnvironment(1)
        assert env.select_peers(0, {0}, 0, 1, rng) == []

    def test_count_capped_by_population(self, rng):
        env = UniformEnvironment(3)
        peers = env.select_peers(0, {0, 1, 2}, 0, 10, rng)
        assert sorted(peers) == [1, 2]

    def test_ids_past_n_are_peers(self, rng):
        # n is informational: the roster alone decides who can be drawn.
        env = UniformEnvironment(3)
        env.register_host(7)
        assert env.n == 3
        assert env.select_peers(0, {0, 7}, 0, 1, rng) == [7]

    def test_default_groups_are_global(self, rng):
        env = UniformEnvironment(5)
        assert env.groups({0, 1, 2}, 0) == [{0, 1, 2}]
        assert env.groups(set(), 0) == []

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            UniformEnvironment(-1)


class TestNeighborhoodEnvironment:
    def test_peers_restricted_to_neighbors(self, rng):
        env = NeighborhoodEnvironment(grid_graph(3, 3))
        alive = set(range(9))
        for _ in range(20):
            peers = env.select_peers(4, alive, 0, 1, rng)
            assert peers[0] in {1, 3, 5, 7}

    def test_dead_neighbors_excluded(self, rng):
        env = NeighborhoodEnvironment(grid_graph(3, 1))  # path 0-1-2
        assert env.select_peers(0, {0, 2}, 0, 1, rng) == []

    def test_groups_are_components(self):
        adjacency = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        env = NeighborhoodEnvironment(adjacency)
        groups = env.groups({0, 1, 2, 3}, 0)
        assert sorted(sorted(g) for g in groups) == [[0, 1], [2, 3]]

    def test_adjacency_symmetrised(self, rng):
        env = NeighborhoodEnvironment({0: {1}, 1: set()})
        assert 0 in env.adjacency[1]

    def test_only_listed_links_carry_gossip(self, rng):
        linked = NeighborhoodEnvironment({0: {1}, 1: {0}})
        assert linked.select_peers(0, {0, 1}, 0, 1, rng) == [1]
        unlinked = NeighborhoodEnvironment({0: set(), 1: set()})
        assert unlinked.select_peers(0, {0, 1}, 0, 1, rng) == []

    def test_self_loop_is_never_a_peer(self, rng):
        env = NeighborhoodEnvironment({0: {0, 1}, 1: {0}})
        for _ in range(20):
            assert env.select_peers(0, {0, 1}, 0, 2, rng) == [1]
        assert NeighborhoodEnvironment({0: {0}}).select_peers(0, {0}, 0, 1, rng) == []

    def test_register_host_adds_isolated_node(self, rng):
        env = NeighborhoodEnvironment({0: {1}, 1: {0}})
        env.register_host(2)
        assert env.select_peers(2, {0, 1, 2}, 0, 1, rng) == []


class TestSampleDistinct:
    """Regression: peer sampling must stay random when every candidate is taken."""

    def test_full_draw_is_a_random_permutation(self, rng):
        from repro.environments.base import GossipEnvironment

        candidates = [10, 20, 30, 40]
        seen_orders = set()
        for _ in range(60):
            picks = GossipEnvironment._sample_distinct(candidates, 10, rng)
            assert sorted(picks) == candidates  # everyone still included
            seen_orders.add(tuple(picks))
        # Previously the unshuffled candidate list came back every time;
        # a random permutation produces many distinct orders in 60 draws.
        assert len(seen_orders) > 1

    def test_low_degree_host_does_not_always_gossip_first_neighbor(self, rng):
        # Exchange mode uses peers[0] only, so a degree-2 host whose draw
        # came back in adjacency order would gossip its lowest-id neighbour
        # every single round.
        env = NeighborhoodEnvironment({0: {1, 2}, 1: {0}, 2: {0}})
        alive = {0, 1, 2}
        first_peers = {env.select_peers(0, alive, t, 2, rng)[0] for t in range(40)}
        assert first_peers == {1, 2}


class TestSpatialGridEnvironment:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            SpatialGridEnvironment(0, 5)

    def test_peers_are_live_and_distinct(self, rng):
        env = SpatialGridEnvironment(5, 5)
        alive = set(range(25))
        for host in (0, 12, 24):
            peers = env.select_peers(host, alive, 0, 1, rng)
            assert all(p in alive and p != host for p in peers)

    def test_walk_peer_reachable_only_through_live_hosts(self, rng):
        env = SpatialGridEnvironment(3, 1)  # path 0-1-2
        # Host 1 dead: host 0 can never reach host 2 by walking.
        for _ in range(30):
            peers = env.select_peers(0, {0, 2}, 0, 1, rng)
            assert peers == []

    def test_ring_selection_mode(self, rng):
        env = SpatialGridEnvironment(5, 5, walk=False)
        alive = set(range(25))
        counts = {}
        for _ in range(200):
            peers = env.select_peers(12, alive, 0, 1, rng)
            if peers:
                counts[peers[0]] = counts.get(peers[0], 0) + 1
        # Neighbours at distance 1 should dominate under the 1/d^2 law.
        near = sum(counts.get(p, 0) for p in (7, 11, 13, 17))
        assert near > sum(counts.values()) * 0.4

    def test_neighbors_are_grid_adjacent(self):
        env = SpatialGridEnvironment(3, 3)
        assert sorted(env.adjacency[4]) == [1, 3, 5, 7]

    def test_groups_follow_grid_components(self):
        env = SpatialGridEnvironment(3, 1)
        groups = env.groups({0, 2}, 0)
        assert sorted(sorted(g) for g in groups) == [[0], [2]]

    def test_register_beyond_grid_rejected(self):
        env = SpatialGridEnvironment(2, 2)
        with pytest.raises(ValueError):
            env.register_host(4)

    def test_truncated_walk_fails_the_attempt(self, rng):
        # Regression: a walk that dead-ends before completing its sampled
        # length must return None (the attempt is retried with a fresh
        # distance), NOT the dead-end host — returning the dead end
        # over-weights short distances next to failed regions and distorts
        # the 1/d² long-link distribution.  A dead pocket is modelled by
        # pruning the back edge, the way a directed corridor would look.
        env = SpatialGridEnvironment(3, 1)  # path 0-1-2
        env.adjacency[1] = {2}
        env.adjacency[2] = set()
        alive = {0, 1, 2}
        for _ in range(20):
            # The walk is forced 0 -> 1 -> 2 and then strands with its
            # remaining steps unspent; host 2 must not be reported.
            assert env._random_walk(0, 5, alive, rng) is None

    def test_walk_of_completed_length_still_returns_peer(self, rng):
        env = SpatialGridEnvironment(3, 1)
        results = {env._random_walk(0, 2, {0, 1, 2}, rng) for _ in range(50)}
        # A 2-step walk from 0 on the path either returns home (None) or
        # reaches host 2; both happen, and the dead end never appears.
        assert results == {None, 2}

    def test_dead_pocket_distribution_not_overweighted(self, rng):
        # Hosts next to a failed region keep drawing valid long links
        # rather than collapsing onto the pocket boundary.
        env = SpatialGridEnvironment(4, 4)
        alive = set(range(16)) - {5, 6, 9, 10}  # the centre block is dead
        counts = {}
        for _ in range(300):
            for peer in env.select_peers(0, alive, 0, 1, rng):
                counts[peer] = counts.get(peer, 0) + 1
        assert set(counts) <= alive - {0}
        # The surviving ring stays reachable through live-host walks: a
        # healthy spread of distances shows up, not just hosts 1 and 4.
        assert len(counts) >= 6


def _two_phase_trace():
    """Devices 0-1 together for 10 minutes, then 1-2 together for 10 minutes."""
    records = [
        ContactRecord(0, 1, 0.0, 600.0),
        ContactRecord(1, 2, 600.0, 1200.0),
    ]
    return ContactTrace(3, records, name="two-phase")


class TestTraceEnvironment:
    def test_round_time_mapping(self):
        env = TraceEnvironment(_two_phase_trace(), round_seconds=30.0)
        assert env.time_of_round(0) == 0.0
        assert env.time_of_round(10) == 300.0
        assert env.total_rounds() == 41

    def test_peers_follow_current_contacts(self, rng):
        env = TraceEnvironment(_two_phase_trace(), round_seconds=30.0)
        alive = {0, 1, 2}
        assert env.select_peers(0, alive, 5, 1, rng) == [1]
        assert env.select_peers(2, alive, 5, 1, rng) == []
        assert env.select_peers(2, alive, 25, 1, rng) == [1]
        assert env.select_peers(0, alive, 25, 1, rng) == []

    def test_broadcast_returns_all_in_range(self, rng):
        trace = ContactTrace(
            3, [ContactRecord(0, 1, 0, 100), ContactRecord(0, 2, 0, 100)], name="star"
        )
        env = TraceEnvironment(trace, round_seconds=30.0, broadcast=True)
        assert sorted(env.select_peers(0, {0, 1, 2}, 0, 1, rng)) == [1, 2]

    def test_groups_use_trailing_window_union(self):
        env = TraceEnvironment(_two_phase_trace(), round_seconds=30.0, group_window_seconds=600.0)
        alive = {0, 1, 2}
        # At t=900s the live window [300, 900] covers the tail of the 0-1
        # contact and the 1-2 contact, so everybody is one group.
        groups_mid = env.groups(alive, 30)
        assert sorted(len(g) for g in groups_mid) == [3]
        # Shortly after the start only 0-1 have ever met.
        groups_early = env.groups(alive, 10)
        assert sorted(len(g) for g in groups_early) == [1, 2]

    def test_groups_include_isolated_hosts_as_singletons(self):
        env = TraceEnvironment(_two_phase_trace(), round_seconds=30.0)
        groups = env.groups({0, 1, 2}, 0)
        assert set().union(*groups) == {0, 1, 2}

    def test_zero_window_uses_instantaneous_adjacency(self):
        env = TraceEnvironment(_two_phase_trace(), round_seconds=30.0, group_window_seconds=0.0)
        groups = env.groups({0, 1, 2}, 25)
        assert {1, 2} in groups

    def test_register_host_beyond_trace_rejected(self):
        env = TraceEnvironment(_two_phase_trace())
        with pytest.raises(ValueError):
            env.register_host(3)

    def test_invalid_round_seconds_rejected(self):
        with pytest.raises(ValueError):
            TraceEnvironment(_two_phase_trace(), round_seconds=0.0)
