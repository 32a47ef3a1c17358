"""Property tests for the evaluation-core caches.

The contract under test (docs/performance.md): projecting an ordering
through the prefix :class:`ProjectionCache` and the
:class:`ProfileCache` — cold, warm, and after eviction pressure — is
*bit-identical* to the from-scratch projection: same ``mapped_ids``,
same ``failed_id``, same utilization accumulators, same ``Fitness``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AllocationState, ProfileCache, compute_profile
from repro.core.exceptions import AllocationError
from repro.heuristics import ProjectionCache, allocate_sequence
from repro.workload import SCENARIO_1, generate_model


def random_orders(model, rng, n_orders):
    """Random permutations plus suffix-perturbed variants (shared
    prefixes — the case the trie exists for)."""
    base = [
        tuple(int(g) for g in rng.permutation(model.n_strings))
        for _ in range(n_orders)
    ]
    cut = model.n_strings // 2
    return base + [o[:cut] + tuple(reversed(o[cut:])) for o in base]


def assert_identical(ref, got):
    assert ref.mapped_ids == got.mapped_ids
    assert ref.failed_id == got.failed_id
    assert np.array_equal(ref.state.machine_util, got.state.machine_util)
    assert np.array_equal(ref.state.route_util, got.state.route_util)
    assert ref.fitness() == got.fitness()


class TestProjectionBitIdentity:
    @pytest.mark.parametrize("model_seed", [321, 7, 99])
    def test_cold_and_warm_match_scratch(self, model_seed):
        params = SCENARIO_1.scaled(n_strings=20, n_machines=4)
        model = generate_model(params, seed=model_seed)
        rng = np.random.default_rng(model_seed)
        cache = ProjectionCache(snapshot_stride=4)
        profiles = ProfileCache()
        for _ in range(2):  # pass 1 cold, pass 2 warm (trie + snapshots)
            for order in random_orders(model, rng, 10):
                ref = allocate_sequence(model, order)
                got = allocate_sequence(
                    model, order, cache=cache, profile_cache=profiles
                )
                assert_identical(ref, got)
        assert cache.lookups > 0
        assert cache.mean_hit_depth > 0.0
        assert profiles.hit_rate > 0.0

    def test_post_eviction_match_scratch(self):
        params = SCENARIO_1.scaled(n_strings=20, n_machines=4)
        model = generate_model(params, seed=5)
        rng = np.random.default_rng(5)
        # Tiny budget: every projection overflows the trie and prunes.
        cache = ProjectionCache(max_nodes=30, snapshot_stride=3)
        orders = random_orders(model, rng, 12)
        for order in orders + orders:
            ref = allocate_sequence(model, order)
            got = allocate_sequence(model, order, cache=cache)
            assert_identical(ref, got)
        assert cache.prunes > 0
        assert cache.n_nodes <= 30

    def test_known_failure_short_circuit(self):
        """A repeated failing ordering must short-circuit yet produce the
        identical outcome."""
        params = SCENARIO_1.scaled(n_strings=20, n_machines=2)  # overloaded
        model = generate_model(params, seed=11)
        rng = np.random.default_rng(11)
        cache = ProjectionCache(snapshot_stride=2)
        failing = None
        for order in random_orders(model, rng, 10):
            if allocate_sequence(model, order).failed_id is not None:
                failing = order
                break
        assert failing is not None, "expected an infeasible ordering"
        first = allocate_sequence(model, failing, cache=cache)
        before = cache.fail_short_circuits
        second = allocate_sequence(model, failing, cache=cache)
        assert cache.fail_short_circuits == before + 1
        assert_identical(first, second)
        assert_identical(allocate_sequence(model, failing), second)

    def test_full_hit_restores_terminal_snapshot(self, scenario3_small):
        cache = ProjectionCache()
        order = tuple(range(scenario3_small.n_strings))
        first = allocate_sequence(scenario3_small, order, cache=cache)
        assert first.complete
        before = cache.snapshot_restores
        second = allocate_sequence(scenario3_small, order, cache=cache)
        assert cache.snapshot_restores == before + 1
        assert cache.hit_depth_hist[len(order)] >= 1
        assert_identical(first, second)

    def test_cache_bypassed_with_rng_or_no_stop(self, scenario3_small):
        cache = ProjectionCache()
        order = tuple(range(scenario3_small.n_strings))
        allocate_sequence(
            scenario3_small, order, rng=np.random.default_rng(0), cache=cache
        )
        allocate_sequence(
            scenario3_small, order, stop_on_failure=False, cache=cache
        )
        assert cache.lookups == 0
        assert cache.n_nodes == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProjectionCache(max_nodes=0)
        with pytest.raises(ValueError):
            ProjectionCache(snapshot_stride=0)

    def test_stats_are_json_shaped(self, scenario3_small):
        cache = ProjectionCache()
        allocate_sequence(
            scenario3_small, tuple(range(scenario3_small.n_strings)),
            cache=cache,
        )
        stats = cache.stats()
        assert set(stats) == {
            "nodes", "lookups", "mean_hit_depth", "hit_depth_histogram",
            "snapshot_restores", "fail_short_circuits", "prunes",
        }
        assert all(isinstance(k, str) for k in stats["hit_depth_histogram"])


class TestEviction:
    def test_deep_chain_evicts_without_recursion(self):
        """A trie deeper than the interpreter's recursion limit (models
        with more than ~1 000 strings) prunes like any other."""
        cache = ProjectionCache(max_nodes=1_000)
        node = cache.root
        for string_id in range(1_200):
            node = cache.extend(node, string_id)
        cache.maybe_evict()
        assert cache.prunes == 1
        assert cache.n_nodes == 700
        depth, node = 0, cache.root
        while node.children:
            (node,) = node.children.values()
            depth += 1
        assert depth == 700  # equal ticks: deepest nodes go first

    def test_candidate_order_matches_recursive_walk(self):
        """The explicit-stack walk lists (subtree tick, parent, key) in
        the recursive post-order, so eviction picks the same victims."""
        from repro.heuristics.projection_cache import _subtree_ticks

        rng = np.random.default_rng(3)
        cache = ProjectionCache()
        nodes = [cache.root]
        for key in range(300):
            parent = nodes[int(rng.integers(len(nodes)))]
            child = cache.extend(parent, key)
            child.tick = int(rng.integers(50))
            nodes.append(child)

        def walk(node, out):
            subtree_tick = node.tick
            for key, child in node.children.items():
                child_tick = walk(child, out)
                subtree_tick = max(subtree_tick, child_tick)
                out.append((child_tick, node, key))
            return subtree_tick

        expected = []
        walk(cache.root, expected)
        got = _subtree_ticks(cache.root)
        assert [(t, id(p), k) for t, p, k in got] == [
            (t, id(p), k) for t, p, k in expected
        ]


class TestProfileCache:
    def test_memoized_profile_matches_compute(self, small_model):
        cache = ProfileCache()
        machines = [0, 1, 2]
        a = cache.get_or_compute(small_model, 0, machines)
        b = cache.get_or_compute(small_model, 0, machines)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1
        fresh = compute_profile(small_model, 0, machines)
        assert a.m_load == fresh.m_load
        assert a.m_tmax == fresh.m_tmax
        assert a.m_count == fresh.m_count
        assert a.r_load == fresh.r_load
        assert a.r_tmax == fresh.r_tmax
        assert a.r_count == fresh.r_count
        assert a.key == fresh.key
        assert a.nominal_path == fresh.nominal_path

    def test_distinct_assignments_distinct_entries(self, small_model):
        cache = ProfileCache()
        cache.get_or_compute(small_model, 0, [0, 1, 2])
        cache.get_or_compute(small_model, 0, [0, 0, 2])
        assert len(cache) == 2
        assert cache.misses == 2

    def test_lru_eviction(self, small_model):
        cache = ProfileCache(max_entries=2)
        cache.get_or_compute(small_model, 0, [0, 1, 2])
        cache.get_or_compute(small_model, 0, [0, 0, 2])
        cache.get_or_compute(small_model, 0, [0, 1, 2])  # refresh first
        cache.get_or_compute(small_model, 0, [1, 1, 2])  # evicts [0, 0, 2]
        assert cache.evictions == 1
        assert len(cache) == 2
        before = cache.misses
        cache.get_or_compute(small_model, 0, [0, 1, 2])  # still resident
        assert cache.misses == before

    def test_validates_assignment(self, small_model):
        cache = ProfileCache()
        with pytest.raises(AllocationError):
            cache.get_or_compute(small_model, 0, [0, 1])  # wrong length
        with pytest.raises(AllocationError):
            cache.get_or_compute(small_model, 0, [0, 1, 99])  # bad machine

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ProfileCache(max_entries=0)

    def test_state_with_profile_cache_matches_without(self, small_model):
        plain = AllocationState(small_model)
        cached = AllocationState(small_model, profile_cache=ProfileCache())
        for k, machines in ((0, [0, 1, 2]), (1, [1, 1]), (3, [0, 2, 1, 0])):
            assert plain.try_add(k, machines) == cached.try_add(k, machines)
        assert np.array_equal(plain.machine_util, cached.machine_util)
        assert np.array_equal(plain.route_util, cached.route_util)
        assert plain.fitness() == cached.fitness()


class TestSnapshotRestore:
    def test_roundtrip_is_exact(self, small_model):
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        assert state.try_add(1, [1, 1])
        snap = state.snapshot()
        assert snap.n_strings == 2
        assert state.try_add(3, [0, 2, 1, 0])
        mutated_fitness = state.fitness()
        state.restore(snap)
        assert set(state.as_allocation().string_ids) == {0, 1}
        assert state.fitness() != mutated_fitness
        reference = AllocationState(small_model)
        reference.try_add(0, [0, 1, 2])
        reference.try_add(1, [1, 1])
        assert np.array_equal(state.machine_util, reference.machine_util)
        assert np.array_equal(state.route_util, reference.route_util)
        assert state.fitness() == reference.fitness()

    def test_snapshot_is_reusable_after_restore(self, small_model):
        """Restoring must not alias: mutating the restored state twice
        from the same snapshot yields independent, identical states."""
        state = AllocationState(small_model)
        assert state.try_add(0, [0, 1, 2])
        snap = state.snapshot()
        state.restore(snap)
        assert state.try_add(1, [1, 1])
        other = AllocationState(small_model)
        other.restore(snap)
        assert set(other.as_allocation().string_ids) == {0}
        assert other.try_add(1, [1, 1])
        assert np.array_equal(state.machine_util, other.machine_util)
        assert state.fitness() == other.fitness()

    def test_restore_clears_rejection(self):
        from conftest import build_string, uniform_network

        from repro.core import SystemModel

        # Two 0.9-load single-app strings: the second overloads machine 0.
        strings = [
            build_string(k, 1, 2, period=50.0, t=45.0, u=1.0)
            for k in (0, 1)
        ]
        model = SystemModel(uniform_network(2), strings)
        state = AllocationState(model)
        assert state.try_add(0, [0])
        snap = state.snapshot()
        assert not state.try_add(1, [0])
        assert state.last_rejection is not None
        state.restore(snap)
        assert state.last_rejection is None
