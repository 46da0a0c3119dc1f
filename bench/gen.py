"""Seeded hierarchies for the benchmark, built without the hipan package.

Every generator returns a `Hierarchy`: the edge list the program ingests,
and each leaf's expected digit code, worked out here from the order in
which children were made.  Node names are a zero-padded global creation
index ("n000123"); a node's children are created one after another, so
sorting siblings by name (the program's rule) keeps creation order, and a
child's sibling index is its position in that order.  The expected code
of a leaf is the list of sibling indices on its root path, padded with
zeros to the depth K of the deepest leaf.

Three shapes, one per workload:

* `complete_tree`: every internal node has `branching` children and every
  leaf sits at `depth`; the seed does not change it.
* `random_tree`: the law of hipan's `gen_synthetic("random", ...)` (each
  node above `depth` draws 1..`branching` children uniformly) on this
  module's own stream, conditioned on the leaf count falling in a band.
  Unconditioned, the root's draw alone spreads b8/d6 trees from about 100
  to 22,000 leaves, so a run's cost would follow the seed.
* `wordnet_tree`: a heavy-tailed stand-in for the WordNet noun hierarchy
  with an exact leaf count, an exact largest fanout and an exact depth,
  so that p, K and N, which set the program's costs, do not vary with the
  seed while the shape does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAME_WIDTH = 6


@dataclass(frozen=True)
class Hierarchy:
    """A generated tree: `edges` are (child, parent) names, the root first
    with parent "-"; `codes` maps each leaf name to its expected digits."""

    edges: tuple[tuple[str, str], ...]
    codes: dict[str, tuple[int, ...]]
    K: int
    b_max: int

    @property
    def n_leaves(self) -> int:
        return len(self.codes)

    def edge_text(self) -> str:
        return "".join(f"{child}\t{parent}\n" for child, parent in self.edges)


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(name.encode("ascii"), "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


class _Tree:
    """Names nodes in creation order and records each node's root path."""

    def __init__(self) -> None:
        self.edges: list[tuple[str, str]] = [(self._name(0), "-")]
        self.paths: list[tuple[int, ...]] = [()]
        self.leaves: list[int] = []

    @staticmethod
    def _name(index: int) -> str:
        return f"n{index:0{NAME_WIDTH}d}"

    def add_children(self, node: int, count: int) -> range:
        first = len(self.paths)
        if first + count > 10**NAME_WIDTH:
            raise ValueError("tree too large for the node name width")
        parent = self._name(node)
        for j in range(count):
            self.edges.append((self._name(first + j), parent))
            self.paths.append(self.paths[node] + (j,))
        return range(first, first + count)

    def finish(self) -> Hierarchy:
        K = max(len(self.paths[leaf]) for leaf in self.leaves)
        codes = {
            self._name(leaf): self.paths[leaf] + (0,) * (K - len(self.paths[leaf]))
            for leaf in self.leaves
        }
        counts: dict[str, int] = {}
        for _, parent in self.edges[1:]:
            counts[parent] = counts.get(parent, 0) + 1
        return Hierarchy(tuple(self.edges), codes, K, max(counts.values()))


def complete_tree(branching: int, depth: int) -> Hierarchy:
    """Complete `branching`-ary tree with all leaves at `depth`."""
    b = _Tree()
    level = [0]
    for _ in range(depth):
        level = [kid for node in level for kid in b.add_children(node, branching)]
    b.leaves = level
    return b.finish()


def _random_level_sizes(rng: np.random.Generator, branching: int, depth: int) -> int:
    n = 1
    for _ in range(depth):
        n = int(rng.integers(1, branching + 1, size=n).sum())
    return n


def random_tree(
    seed: int, branching: int, depth: int, leaves_lo: int, leaves_hi: int
) -> Hierarchy:
    """Random tree of uniform 1..branching fanout, all leaves at `depth`,
    whose leaf count lies in [leaves_lo, leaves_hi).

    Candidate trees are drawn from the sub-streams "random-0", "random-1",
    ... of the seed, and the first one in the band is built; the leaf count of a candidate
    is found from level sizes alone, so rejected candidates are cheap.
    """
    for attempt in range(100_000):
        stream = f"random-{attempt}"
        if leaves_lo <= _random_level_sizes(_rng(seed, stream), branching, depth) < leaves_hi:
            rng = _rng(seed, stream)
            b = _Tree()
            level = [0]
            for _ in range(depth):
                counts = rng.integers(1, branching + 1, size=len(level))
                level = [
                    kid
                    for node, c in zip(level, counts)
                    for kid in b.add_children(node, int(c))
                ]
            b.leaves = level
            return b.finish()
    raise ValueError(f"no tree with {leaves_lo}..{leaves_hi} leaves found")


# Fanout law of the WordNet stand-in: a node below the root is unary with
# probability UNARY_SHARE, otherwise its fanout is a discrete Pareto draw
# floor(2 U^(-1/FANOUT_TAIL)): 70% of those draws are 2-5 and 1.4% are 100
# or more.
UNARY_SHARE = 0.2
FANOUT_TAIL = 1.1
# Concentration of the symmetric Dirichlet that splits a node's leaves
# among its children; below 1, one child usually takes most of them.
SPLIT_CONCENTRATION = 0.5


def _split(rng: np.random.Generator, budget: int, fan: int, cap: int) -> np.ndarray:
    """Split `budget` leaves into `fan` positive parts of at most `cap`."""
    shares = rng.dirichlet(np.full(fan, SPLIT_CONCENTRATION))
    parts = 1 + rng.multinomial(budget - fan, shares)
    if parts.max() > cap:
        parts = np.minimum(parts, cap)
        deficit = budget - int(parts.sum())
        for j in np.argsort(parts, kind="stable"):
            moved = min(deficit, cap - int(parts[j]))
            parts[j] += moved
            deficit -= moved
            if deficit == 0:
                break
    return parts


def wordnet_tree(
    seed: int, n_leaves: int = 52_000, b_max: int = 408, K: int = 18
) -> Hierarchy:
    """Heavy-tailed stand-in for the WordNet noun hierarchy.

    Each node holds a budget of leaves, split among its children by the
    law above; a node with a budget of one is a leaf.  Three rules make
    the sizes exact whatever the seed: the first node at depth >= 2 with
    at least 4 b_max leaves takes exactly b_max children (a draw with no
    such node is replaced by the next sub-stream's); the heaviest
    child of each spine node (starting at the root) is itself on the
    spine and never a leaf, so the deepest leaf sits at exactly K; and no
    node is left more leaves than its remaining depth can hold, so every
    fanout stays at most b_max.
    """
    if n_leaves < b_max * 4 or K < 3:
        raise ValueError("wordnet_tree needs n_leaves >= 4 b_max and K >= 3")
    for attempt in range(1000):
        tree = _wordnet_attempt(_rng(seed, f"wordnet-{attempt}"), n_leaves, b_max, K)
        if tree is not None:
            return tree
    raise ValueError("no wordnet-shaped tree with a node of b_max children found")


def _wordnet_attempt(
    rng: np.random.Generator, n_leaves: int, b_max: int, K: int
) -> Hierarchy | None:
    b = _Tree()
    stack = [(0, n_leaves, True)]
    wide_done = False
    while stack:
        node, budget, spine = stack.pop()
        depth = len(b.paths[node])
        if budget == 1 and (not spine or depth == K):
            b.leaves.append(node)
            continue
        levels = K - depth
        cap = min(b_max ** (levels - 1), budget)
        if levels == 1:
            fan = budget
        elif not wide_done and depth >= 2 and budget >= 4 * b_max:
            fan = b_max
            wide_done = True
        elif depth > 0 and rng.random() < UNARY_SHARE:
            fan = 1
        else:
            fan = int(2 * rng.random() ** (-1.0 / FANOUT_TAIL))
        fan = max(-(-budget // cap), min(fan, budget, b_max))
        parts = _split(rng, budget, fan, cap)
        kids = b.add_children(node, fan)
        heaviest = int(np.argmax(parts)) if spine else -1
        for j in reversed(range(fan)):
            stack.append((kids[j], int(parts[j]), j == heaviest))
    return b.finish() if wide_done else None
