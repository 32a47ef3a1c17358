"""Prefix-trie cache for the permutation→solution projection.

GENITOR's positional crossover produces children that share long
prefixes with their parents, and the projection
(:func:`repro.heuristics.ordering.allocate_sequence`) is a strict
left-to-right fold: the allocation state after consuming ``order[:d]``
is a pure function of that prefix whenever the IMR runs without
tie-breaking randomness (``rng is None``).  Replaying a chromosome from
scratch therefore repeats work its parents already paid for.

:class:`ProjectionCache` stores a trie over ordering prefixes:

* every visited prefix owns a node;
* nodes along successful chains carry a state snapshot (either
  backend's: the trie is duck-typed over
  :data:`~repro.core.state.StateSnapshotLike`) every ``snapshot_stride``
  depths (and always at the terminal of a fully projected ordering), so
  a later projection restores the deepest snapshotted prefix and
  replays only the suffix;
* a node whose string *failed* given its prefix is marked, letting a
  repeat projection short-circuit the final (most expensive) failing
  feasibility analysis entirely;
* the node count is bounded: when it exceeds ``max_nodes`` the least
  recently used subtrees are pruned (recency propagates upward, so an
  ancestor of a hot path is never evicted before the hot path itself).

The cache is **only sound** for the deterministic, stop-on-failure
projection the PSG uses; :func:`allocate_sequence` bypasses it whenever
``rng`` is supplied or ``stop_on_failure`` is false.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..core.state import StateSnapshotLike

__all__ = ["ProjectionCache", "PrefixLookup"]


class _TrieNode:
    """One ordering prefix; ``children`` maps the next string id."""

    __slots__ = ("children", "snapshot", "fails", "tick")

    def __init__(self, tick: int) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.snapshot: StateSnapshotLike | None = None
        self.fails = False
        self.tick = tick


class PrefixLookup:
    """Where a projection may resume, per :meth:`ProjectionCache.lookup`.

    Attributes
    ----------
    node:
        Deepest trie node matching a *successful* prefix of the order.
    matched_depth:
        Number of leading order elements with existing successful nodes.
    snapshot / snapshot_depth / snapshot_node:
        Deepest stored state snapshot on the matched path, its depth,
        and its trie node (``None`` / 0 / the root when the projection
        must start from an empty state).  The replay walks the trie from
        ``snapshot_node``.
    known_failure:
        True when the cache already knows the element at
        ``matched_depth`` fails given the matched prefix, so the
        projection can stop without re-running its feasibility analysis.
    """

    __slots__ = ("node", "matched_depth", "snapshot", "snapshot_depth",
                 "snapshot_node", "known_failure")

    def __init__(
        self,
        node: _TrieNode,
        matched_depth: int,
        snapshot: StateSnapshotLike | None,
        snapshot_depth: int,
        snapshot_node: _TrieNode,
        known_failure: bool,
    ) -> None:
        self.node = node
        self.matched_depth = matched_depth
        self.snapshot = snapshot
        self.snapshot_depth = snapshot_depth
        self.snapshot_node = snapshot_node
        self.known_failure = known_failure


class ProjectionCache:
    """Bounded prefix trie of projection states with LRU subtree pruning.

    Parameters
    ----------
    max_nodes:
        Upper bound on trie nodes (excluding the root).  When exceeded,
        least-recently-used subtrees are pruned down to
        ``max_nodes * prune_target`` nodes.
    snapshot_stride:
        A state snapshot is stored every this many depths along a
        successful chain (plus one at the chain's end).  Smaller strides
        resume deeper but cost more memory per chain.
    """

    __slots__ = ("root", "max_nodes", "snapshot_stride", "_tick", "n_nodes",
                 "lookups", "hit_depth_sum", "hit_depth_hist",
                 "fail_short_circuits", "snapshot_restores", "prunes")

    def __init__(self, max_nodes: int = 50_000,
                 snapshot_stride: int = 8) -> None:
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        if snapshot_stride < 1:
            raise ValueError(
                f"snapshot_stride must be >= 1, got {snapshot_stride}"
            )
        self.root = _TrieNode(tick=0)
        self.max_nodes = max_nodes
        self.snapshot_stride = snapshot_stride
        self._tick = 0
        self.n_nodes = 0
        self.lookups = 0
        self.hit_depth_sum = 0
        self.hit_depth_hist: dict[int, int] = {}
        self.fail_short_circuits = 0
        self.snapshot_restores = 0
        self.prunes = 0

    # -- lookup / growth -----------------------------------------------------

    def lookup(self, order: Sequence[int]) -> PrefixLookup:
        """Match the longest known prefix of ``order`` and pick the
        deepest snapshot to resume from."""
        self._tick += 1
        self.lookups += 1
        node = self.root
        node.tick = self._tick
        snapshot: StateSnapshotLike | None = None
        snapshot_depth = 0
        snapshot_node = self.root
        matched = 0
        known_failure = False
        for k in order:
            child = node.children.get(k)
            if child is None:
                break
            child.tick = self._tick
            if child.fails:
                known_failure = True
                break
            node = child
            matched += 1
            if child.snapshot is not None:
                snapshot = child.snapshot
                snapshot_depth = matched
                snapshot_node = child
        self.hit_depth_sum += snapshot_depth
        self.hit_depth_hist[snapshot_depth] = (
            self.hit_depth_hist.get(snapshot_depth, 0) + 1
        )
        if snapshot is not None:
            self.snapshot_restores += 1
        if known_failure:
            self.fail_short_circuits += 1
        return PrefixLookup(node, matched, snapshot, snapshot_depth,
                            snapshot_node, known_failure)

    def extend(self, node: _TrieNode, string_id: int) -> _TrieNode:
        """Child of ``node`` for a *successfully* added string (created
        on demand)."""
        child = node.children.get(string_id)
        if child is None:
            child = _TrieNode(tick=self._tick)
            node.children[string_id] = child
            self.n_nodes += 1
        child.tick = self._tick
        child.fails = False
        return child

    def mark_failure(self, node: _TrieNode, string_id: int) -> None:
        """Record that ``string_id`` fails feasibility given the prefix
        ending at ``node``."""
        child = node.children.get(string_id)
        if child is None:
            child = _TrieNode(tick=self._tick)
            node.children[string_id] = child
            self.n_nodes += 1
        child.tick = self._tick
        child.fails = True
        child.snapshot = None

    def store_snapshot(self, node: _TrieNode,
                       snapshot: StateSnapshotLike) -> None:
        node.snapshot = snapshot

    @property
    def mean_hit_depth(self) -> float:
        """Average resume depth over all lookups (0 when unused)."""
        return self.hit_depth_sum / self.lookups if self.lookups else 0.0

    # -- eviction ------------------------------------------------------------

    def maybe_evict(self, prune_target: float = 0.7) -> None:
        """Prune least-recently-used subtrees once over ``max_nodes``.

        Recency is the *subtree maximum* tick, so a stale ancestor whose
        descendants are hot is kept; whole cold subtrees go first.
        """
        if self.n_nodes <= self.max_nodes:
            return
        target = int(self.max_nodes * prune_target)
        candidates = _subtree_ticks(self.root)
        candidates.sort(key=lambda c: c[0])
        for _, parent, key in candidates:
            if self.n_nodes <= target:
                break
            child = parent.children.pop(key, None)
            if child is None:
                continue  # already gone with an evicted ancestor
            self.n_nodes -= _count_nodes(child)
        self.prunes += 1

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Counters for telemetry (JSON-serializable)."""
        return {
            "nodes": self.n_nodes,
            "lookups": self.lookups,
            "mean_hit_depth": self.mean_hit_depth,
            "hit_depth_histogram": {
                str(d): c for d, c in sorted(self.hit_depth_hist.items())
            },
            "snapshot_restores": self.snapshot_restores,
            "fail_short_circuits": self.fail_short_circuits,
            "prunes": self.prunes,
        }

    def __repr__(self) -> str:
        return (
            f"ProjectionCache(nodes={self.n_nodes}, "
            f"lookups={self.lookups}, "
            f"mean_hit_depth={self.mean_hit_depth:.2f})"
        )


def _subtree_ticks(root: _TrieNode) -> list[tuple[int, _TrieNode, int]]:
    """``(subtree max tick, parent, key)`` for every non-root node, in
    post-order (children in insertion order, each after its subtree).

    An explicit stack, not recursion: a trie is as deep as the longest
    ordering prefix, which can exceed Python's recursion limit.
    """
    out: list[tuple[int, _TrieNode, int]] = []
    # Frames: (node, its remaining children, key in parent); ticks[i]
    # is the running subtree max of stack[i].
    stack = [(root, iter(root.children.items()), -1)]
    ticks = [root.tick]
    while stack:
        _, children, key = stack[-1]
        nxt = next(children, None)
        if nxt is not None:
            child_key, child = nxt
            stack.append((child, iter(child.children.items()), child_key))
            ticks.append(child.tick)
            continue
        stack.pop()
        tick = ticks.pop()
        if stack:
            out.append((tick, stack[-1][0], key))
            ticks[-1] = max(ticks[-1], tick)
    return out


def _count_nodes(node: _TrieNode) -> int:
    """Size of a detached subtree (the node itself included)."""
    total = 1
    stack = list(node.children.values())
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(n.children.values())
    return total
