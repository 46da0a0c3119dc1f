"""Tests of the benchmark's hierarchy generators.

Run from the repository root: PYTHONPATH=src python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
from run import RANDOM_LEAVES, expected_prime  # noqa: E402


def codes_from_sorted_names(h: gen.Hierarchy) -> dict[str, tuple[int, ...]]:
    """Leaf codes by the program's rule (siblings sorted by name), padded to K."""
    kids: dict[str, list[str]] = {}
    for child, parent in h.edges[1:]:
        kids.setdefault(parent, []).append(child)
    out = {}
    stack = [(h.edges[0][0], ())]
    while stack:
        name, path = stack.pop()
        children = sorted(kids.get(name, []))
        if not children:
            out[name] = path + (0,) * (h.K - len(path))
        for j, child in enumerate(children):
            stack.append((child, path + (j,)))
    return out


def test_complete_tree_shape():
    h = gen.complete_tree(4, 7)
    assert (h.n_leaves, h.K, h.b_max) == (16384, 7, 4)
    assert h.codes == codes_from_sorted_names(h)
    assert len(set(h.codes.values())) == h.n_leaves


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_tree_band_and_codes(seed):
    h = gen.random_tree(seed, 8, 6, *RANDOM_LEAVES)
    assert RANDOM_LEAVES[0] <= h.n_leaves < RANDOM_LEAVES[1]
    assert h.K == 6 and h.b_max <= 8
    assert h.codes == codes_from_sorted_names(h)


def test_random_tree_is_seeded():
    a = gen.random_tree(5, 8, 6, *RANDOM_LEAVES)
    assert a == gen.random_tree(5, 8, 6, *RANDOM_LEAVES)
    assert a.edges != gen.random_tree(6, 8, 6, *RANDOM_LEAVES).edges


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wordnet_tree_sizes(seed):
    h = gen.wordnet_tree(seed)
    assert h.n_leaves == 52_000
    assert h.b_max == 408
    assert h.K == 18
    assert expected_prime(h.b_max) == 409
    assert h.codes == codes_from_sorted_names(h)


def test_wordnet_tree_is_seeded():
    a = gen.wordnet_tree(7, n_leaves=3000, b_max=60, K=9)
    assert a == gen.wordnet_tree(7, n_leaves=3000, b_max=60, K=9)
    assert a.edges != gen.wordnet_tree(8, n_leaves=3000, b_max=60, K=9).edges


def test_wordnet_tree_is_heavy_tailed():
    h = gen.wordnet_tree(0)
    fanout: dict[str, int] = {}
    for _, parent in h.edges[1:]:
        fanout[parent] = fanout.get(parent, 0) + 1
    counts = sorted(fanout.values())
    assert counts[len(counts) // 2] <= 3
    assert sum(c >= 100 for c in counts) >= 3


def test_codes_agree_with_hipan():
    hipan_tree = pytest.importorskip("hipan.tree")
    for h in (gen.complete_tree(3, 4), gen.wordnet_tree(1, n_leaves=2000, b_max=50, K=8)):
        ds = hipan_tree.encode_tree(hipan_tree.loads_tree(h.edge_text()))
        assert {r.leaf: r.code.digits for r in ds.records} == h.codes
        assert (ds.codec.p, ds.codec.K) == (expected_prime(h.b_max), h.K)
