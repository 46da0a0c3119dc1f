"""Shared fixtures: a small hand-checkable hierarchy and random-tree helpers."""

import numpy as np
import pytest

from hipan import CodecParams, EncodedDataset, encode_tree, loads_tree

# Two internal nodes, three leaves; children sort lexicographically, so
# animal=0, plant=1, cat=0, dog=1, fern=0.  p=3, K=2.
TOY_TEXT = (
    "root\t-\n"
    "animal\troot\n"
    "plant\troot\n"
    "cat\tanimal\n"
    "dog\tanimal\n"
    "fern\tplant\n"
)

# Same shape but with one shallow leaf (b at depth 1), so codes get padded.
PADDED_TEXT = (
    "root\t-\n"
    "a\troot\n"
    "b\troot\n"
    "a1\ta\n"
    "a2\ta\n"
)


@pytest.fixture
def toy_tree():
    return loads_tree(TOY_TEXT)


@pytest.fixture
def toy_dataset(toy_tree):
    return encode_tree(toy_tree)


@pytest.fixture
def padded_tree():
    return loads_tree(PADDED_TEXT)


def irregular_tree(seed, n_extra, max_children=7, max_depth=8):
    """Random tree by attachment: each new node picks any parent that still
    has room, so depths and branching vary and many leaves sit shallow."""
    rng = np.random.default_rng(seed)
    names = ["n0"]
    depth = {"n0": 0}
    kids = {"n0": 0}
    lines = ["n0\t-"]
    for i in range(1, n_extra + 1):
        cands = [n for n in names if depth[n] < max_depth and kids[n] < max_children]
        parent = cands[int(rng.integers(len(cands)))]
        name = f"n{i}"
        names.append(name)
        depth[name] = depth[parent] + 1
        kids[name] = 0
        kids[parent] += 1
        lines.append(f"{name}\t{parent}")
    return loads_tree("\n".join(lines) + "\n")


def digits_dataset(rows, p):
    """Dataset straight from digit rows; record names are synthetic."""
    rows = np.array(rows, dtype=np.int64)
    n, K = rows.shape
    return EncodedDataset(CodecParams(p, K), tuple(f"r{i}" for i in range(n)), rows, [K] * n)
