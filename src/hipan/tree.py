"""Finite rooted hierarchies and their digit encodings.

A hierarchy arrives as an edge list ("child<TAB>parent" lines, the root
as "name<TAB>-", "#" starts a comment line) or from a synthetic
generator.  Children are ordered lexicographically by name, and a node's
digit is its index within that ordering, so the code of a leaf is the
sequence of sibling indices along its path, zero-padded to the maximum
leaf depth K.  With a prime alphabet p >= B_max + 1 (B_max = largest
child count) every leaf receives a distinct code and the code ultrametric
equals p**-(LCA depth) on leaf pairs.

Every text is read and written in whole-buffer passes.  An edge list is
checked on its UTF-8 bytes and split at every tab and newline in one
call; only a text with blank or comment lines, padded names or other
line breaks is first rewritten line by line.  Both sources of a
hierarchy feed one builder that works in whole-array passes, one per
tree level; a TreeSpec keeps its per-node fields as read-only int64
arrays and the parser's name table, which name lookups read.  The dataset
interchange form is one json.loads, whose codes are parsed as bytes
into the (N, K) digit matrix, a block of codes per pass, and is written
by formatting every code in one byte buffer and joining all records in
one call.
"""

from __future__ import annotations

import json
import reprlib
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import countOf, itemgetter
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .padic import CodecParams, PadicCode, code_to_text, next_prime_geq
from .rng import child_rng


class TreeParseError(ValueError):
    """Malformed edge list; message names the offending line."""


class DecodeError(ValueError):
    """A code does not describe a leaf of the given hierarchy."""


class InvalidDigitError(DecodeError):
    """A digit selects a child index that does not exist."""


class InvalidPaddingError(DecodeError):
    """Digits past the leaf are not all zero."""


@dataclass(frozen=True, eq=False)
class TreeSpec:
    """Immutable rooted hierarchy with deterministic child order.

    Node ids are preorder positions of a depth-first walk that visits
    children in lexicographic name order; the root is id 0 and `leaves`
    lists leaf ids in that same sorted-path order.

    The per-node fields, `leaves` and the child table are read-only int64
    arrays; `children` (tuples of child ids) and `name_to_id` (a dict)
    are views built from them on first use.  Name lookups (id_of, ids_of)
    read `name_table`, the table the parser built, so no second dict of
    names is made.

    Attributes:
        names: node id -> name.
        parent: node id -> parent id (-1 for the root).
        depth: node id -> edge distance from the root.
        sibling_index: node id -> position among its parent's children.
        leaves: leaf ids in sorted-path order.
        child_table: (start, kids): node i's children are
            kids[start[i]:start[i + 1]], in sibling order.
        max_depth: K, the deepest leaf depth (>= 1).
        b_max: largest child count of any node.
        name_table: (rows, ids): rows maps each name to its row in the
            parsed input and ids[row] is that node's id (read-only int64).
            Two equal trees may number their rows differently, so
            equality ignores it.
    """

    names: tuple[str, ...]
    parent: np.ndarray
    depth: np.ndarray
    sibling_index: np.ndarray
    leaves: np.ndarray
    child_table: tuple[np.ndarray, np.ndarray]
    max_depth: int
    b_max: int
    name_table: tuple[dict[str, int], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (*self._arrays(), self.name_table[1]):
            arr.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.parent, self.depth, self.sibling_index, self.leaves, *self.child_table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSpec):
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays())
        )

    @property
    def root(self) -> int:
        return 0

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """node id -> child ids, in sibling order."""
        start, kids = self.child_table
        bounds, flat = start.tolist(), kids.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def name_to_id(self) -> dict[str, int]:
        """name -> node id."""
        return dict(zip(self.names, range(self.n_nodes)))

    @cached_property
    def depth_minima(self) -> _RangeMinima:
        """lca_depths' range minima over the preorder depths, built on first use."""
        dtype = np.min_scalar_type(self.max_depth + 1)
        return _RangeMinima(self.depth[1:].astype(dtype), (self.depth + 1).astype(dtype))

    def id_of(self, name: str) -> int:
        rows, ids = self.name_table
        try:
            return int(ids[rows[name]])
        except KeyError:
            raise KeyError(f"unknown node name {name!r}") from None

    def ids_of(self, names: Sequence[str]) -> np.ndarray:
        """int64 node ids of many names, looked up in the parser's name
        table; KeyError names the first unknown one.

        Names that list every leaf in the tree's own leaf order, as the
        dataset `encode_tree` makes of this tree does, give `leaves`
        itself (read-only) without a lookup.
        """
        leaves = self.leaves.tolist()
        # itemgetter of two or more indices gives a tuple of the names
        if len(names) == len(leaves) > 1 and itemgetter(*leaves)(self.names) == tuple(names):
            return self.leaves
        rows, ids = self.name_table
        try:
            return ids[np.fromiter(map(rows.__getitem__, names), np.int64, len(names))]
        except KeyError as exc:
            raise KeyError(f"unknown node name {exc.args[0]!r}") from None

    def is_leaf(self, node: int) -> bool:
        start = self.child_table[0]
        return bool(start[node] == start[node + 1])

    def leaf_names(self) -> list[str]:
        return list(map(self.names.__getitem__, self.leaves.tolist()))


def _build_tree(
    names: list[str], parent: np.ndarray, rows: dict[str, int], line_of: Callable[[int], int]
) -> TreeSpec:
    """Assemble a TreeSpec in whole-array passes.

    names are distinct and rows maps each to its index in `names`, the
    table the tree keeps; parent[i] is the index of node i's parent, -1
    for the one root; line_of(i) is the source line of node i for error
    messages.  Each pass below runs once per tree level, never once per
    node.
    """
    n = len(names)
    by_name = np.fromiter(sorted(range(n), key=names.__getitem__), np.int64, n)
    # Edges grouped by parent, each group in name order; the root (parent
    # -1) sorts first and is not a child.
    kids = by_name[np.argsort(parent[by_name], kind="stable")][1:]
    count = np.bincount(parent[kids], minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(count, out=start[1:])
    group = start[parent[kids]]  # where each child's sibling group starts in kids
    sibling = np.zeros(n, dtype=np.int64)
    sibling[kids] = np.arange(n - 1) - group

    # Breadth-first levels over the child table; a node no level reaches
    # sits on a parent cycle, since every node has exactly one parent.
    depth = np.full(n, -1, dtype=np.int64)
    levels = []
    level = np.flatnonzero(parent < 0)
    while level.size:
        depth[level] = len(levels)
        levels.append(level)
        width = count[level]
        first = np.cumsum(width) - width
        level = kids[np.repeat(start[level] - first, width) + np.arange(width.sum())]
    if (depth < 0).any():
        stray = int(np.argmax(depth < 0))
        raise TreeParseError(
            f"line {line_of(stray)}: node {names[stray]!r} is unreachable from "
            f"the root (parent cycle)"
        )
    if len(levels) == 1:
        raise TreeParseError("hierarchy has only a root: no digits to encode")

    # Preorder id: the parent's id + 1 + the sizes of the earlier siblings'
    # subtrees, with subtree sizes summed bottom-up.
    size = np.ones(n, dtype=np.int64)
    for level in reversed(levels[1:]):
        np.add.at(size, parent[level], size[level])
    before = np.cumsum(size[kids])
    before -= size[kids]
    offset = np.zeros(n, dtype=np.int64)
    offset[kids] = before - before[group]
    pre = np.zeros(n, dtype=np.int64)
    for level in levels[1:]:
        pre[level] = pre[parent[level]] + 1 + offset[level]

    node = np.empty(n, dtype=np.int64)
    node[pre] = np.arange(n)
    out_parent = pre[parent[node]]
    out_parent[0] = -1
    out_sibling = sibling[node]
    out_count = count[node]
    out_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_count, out=out_start[1:])
    out_kids = np.empty(n - 1, dtype=np.int64)
    out_kids[out_start[out_parent[1:]] + out_sibling[1:]] = np.arange(1, n)
    return TreeSpec(
        names=tuple(map(names.__getitem__, node.tolist())),
        parent=out_parent,
        depth=depth[node],
        sibling_index=out_sibling,
        leaves=np.flatnonzero(out_count == 0),
        child_table=(out_start, out_kids),
        max_depth=len(levels) - 1,
        b_max=int(out_count.max()),
        name_table=(rows, pre),
    )


# Whitespace that str.strip removes other than tab, newline and space;
# it holds every line break of str.splitlines other than newline.
_OTHER_SPACE = (
    "\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _separators(blob: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of a text and the byte offsets of its tabs and of
    its newlines."""
    buf = np.frombuffer(blob.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    return buf, np.flatnonzero(buf == ord("\t")), np.flatnonzero(buf == ord("\n"))


def _is_plain(blob: str, buf: np.ndarray, tabs: np.ndarray, breaks: np.ndarray) -> bool:
    """Whether an edge list (less one final newline) splits at its
    newlines into the lines that loads_tree keeps, each with unpadded
    names: no blank or comment line, no padding, no other line break.

    Once no other whitespace occurs, a name is padded or empty, or a line
    blank, exactly where a byte next to a tab or newline, or at either
    end, is a space, tab or newline; a comment line starts with "#".
    """
    if not blob:
        return True
    if any(map(blob.__contains__, _OTHER_SPACE)):
        return False
    name_ends = np.concatenate(([0, buf.size - 1], tabs - 1, tabs + 1, breaks - 1))
    name_ends = np.take(buf, name_ends, mode="clip")
    line_starts = np.take(buf, breaks + 1, mode="clip")
    return not (
        np.isin(name_ends, (ord("\t"), ord("\n"), ord(" "))).any()
        or np.isin(line_starts, (ord("\t"), ord("\n"), ord(" "), ord("#"))).any()
        or buf[0] == ord("#")
    )


def _one_edge_per_line(buf: np.ndarray, tabs: np.ndarray, breaks: np.ndarray) -> bool:
    """Whether every line holds one tab with a nonempty name on each side:
    the separators then run tab, newline, tab, ..., tab, and no two of
    them, nor a separator and an end of the text, are adjacent."""
    if tabs.size != breaks.size + 1:
        return False
    bounds = np.empty(2 * tabs.size + 1, dtype=np.int64)
    bounds[0], bounds[-1] = -1, buf.size
    bounds[1:-1:2], bounds[2:-1:2] = tabs, breaks
    return bool((np.diff(bounds) > 1).all())


def _edge_line_numbers(text: str) -> list[int]:
    """1-based numbers of the edge lines of a text, checked one line at a
    time in file order.

    Raises:
        TreeParseError: at the first line with a wrong tab count, an empty
            name, an already defined child or a second root.
    """
    root_name: str | None = None
    defined: set[str] = set()
    numbers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise TreeParseError(
                f"line {lineno}: expected 'child<TAB>parent', got {raw!r}"
            )
        child_name, parent_name = parts[0].strip(), parts[1].strip()
        if not child_name or not parent_name:
            raise TreeParseError(f"line {lineno}: empty node name in {raw!r}")
        if child_name in defined:
            raise TreeParseError(
                f"line {lineno}: duplicate definition of {child_name!r}"
            )
        if parent_name == "-":
            if root_name is not None:
                raise TreeParseError(
                    f"line {lineno}: second root {child_name!r} "
                    f"(root {root_name!r} already declared)"
                )
            root_name = child_name
        defined.add(child_name)
        numbers.append(lineno)
    return numbers


def loads_tree(text: str) -> TreeSpec:
    """Parse a hierarchy from edge-list text.

    Format: one "child<TAB>parent" pair per line; the root declares itself
    as "name<TAB>-"; blank lines and lines starting with "#" are ignored,
    names lose surrounding whitespace, and one leading byte order mark is
    dropped.  The text is checked on its bytes and split at every tab and
    newline in one call; a text with blank or comment lines, padded names
    or line breaks other than newline is first rewritten line by line,
    and only a text that fails the checks is walked line by line, to name
    its first bad line.  The tree keeps the name table built here
    (TreeSpec.name_table).

    Raises:
        TreeParseError: duplicate child, multiple roots, missing root,
            undefined parent, parent cycle, or a root-only hierarchy.
    """
    text = text.removeprefix("\ufeff")
    blob = text.removesuffix("\n")
    buf, tabs, breaks = _separators(blob)
    if not _is_plain(blob, buf, tabs, breaks):
        kept = (
            raw for raw in text.splitlines() if raw.strip() and not raw.lstrip().startswith("#")
        )
        blob = "\n".join("\t".join(map(str.strip, raw.split("\t"))) for raw in kept)
        buf, tabs, breaks = _separators(blob)
    fields = blob.replace("\n", "\t").split("\t")
    names, parents = fields[0::2], fields[1::2]
    rows = dict(zip(names, range(len(names))))
    if (
        not _one_edge_per_line(buf, tabs, breaks)
        or len(rows) < len(names)
        or parents.count("-") > 1
    ):
        _edge_line_numbers(text)  # raises at the first bad line
    if "-" not in parents:
        raise TreeParseError("no root line ('name<TAB>-') found")
    root = parents.index("-")
    parent = np.fromiter(map(rows.get, parents, repeat(-1)), np.int64, len(names))
    parent[root] = -1
    orphan = np.flatnonzero(parent < 0)
    orphan = orphan[orphan != root]
    if orphan.size:
        k = int(orphan[0])
        raise TreeParseError(
            f"line {_edge_line_numbers(text)[k]}: parent {parents[k]!r} of "
            f"{names[k]!r} is never defined"
        )
    return _build_tree(names, parent, rows, lambda k: _edge_line_numbers(text)[k])


def load_tree(source: str | TextIO) -> TreeSpec:
    """Parse a hierarchy from a file path or an open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return loads_tree(fh.read())
    return loads_tree(source.read())


def dump_tree(tree: TreeSpec) -> str:
    """Edge-list text that round-trips through loads_tree."""
    names = tree.names
    parent_names = map(names.__getitem__, tree.parent[1:].tolist())
    edges = map("\t".join, zip(names[1:], parent_names))
    return "\n".join([f"{names[tree.root]}\t-", *edges]) + "\n"


def gen_synthetic(kind: str, branching: int, depth: int, seed: int = 0) -> TreeSpec:
    """Deterministic synthetic hierarchies.

    Args:
        kind: "complete" (exact `branching`-ary) or "random" (each node
            above the target depth draws 1..branching children from the
            seeded tree-gen stream; every leaf sits at exactly `depth`).
        branching: maximum child count, >= 1 (>= 2 for "complete" to
            branch at all; 1 gives a chain).
        depth: leaf depth, >= 1.
        seed: master seed; only the "random" kind consumes it.

    Returns:
        A TreeSpec, identical for identical arguments.
    """
    if branching < 1:
        raise ValueError(f"branching must be >= 1, got {branching}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if kind not in ("complete", "random"):
        raise ValueError(f"unknown synthetic kind {kind!r}")

    rng = child_rng(seed, "tree-gen") if kind == "random" else None
    pad = len(str(branching - 1)) if branching > 1 else 1
    names, parent = ["n"], [-1]
    level = [0]
    for _ in range(depth):
        next_level: list[int] = []
        for node in level:
            if rng is None:
                count = branching
            else:
                count = int(rng.integers(1, branching + 1))
            stem = names[node]
            next_level.extend(range(len(names), len(names) + count))
            names.extend(f"{stem}.{j:0{pad}d}" for j in range(count))
            parent.extend([node] * count)
        level = next_level
    rows = dict(zip(names, range(len(names))))
    return _build_tree(names, np.array(parent, dtype=np.int64), rows, lambda k: 0)


def select_prime(tree: TreeSpec) -> int:
    """Alphabet for a hierarchy: smallest prime >= b_max + 1.

    The +1 keeps one spare digit value above the largest sibling index.
    For b_max = 1 this yields p = 2.
    """
    return next_prime_geq(tree.b_max + 1)


def make_codec(tree: TreeSpec, K: int | None = None) -> CodecParams:
    """CodecParams for a hierarchy: p = select_prime, K = max leaf depth."""
    return CodecParams(select_prime(tree), tree.max_depth if K is None else K)


def _check_codec(tree: TreeSpec, codec: CodecParams) -> None:
    if codec.p < tree.b_max + 1:
        raise ValueError(
            f"alphabet p={codec.p} too small for b_max={tree.b_max} "
            f"(need p >= b_max + 1)"
        )
    if codec.K < tree.max_depth:
        raise ValueError(
            f"code length K={codec.K} shorter than the deepest leaf "
            f"({tree.max_depth})"
        )


def encode_leaf(tree: TreeSpec, leaf: int | str, codec: CodecParams) -> PadicCode:
    """Code of a leaf: sibling indices root-to-leaf, zero-padded to K.

    Raises:
        ValueError: if the node is not a leaf or the codec is too small.
    """
    _check_codec(tree, codec)
    node = tree.id_of(leaf) if isinstance(leaf, str) else leaf
    if not tree.is_leaf(node):
        raise ValueError(f"node {tree.names[node]!r} is not a leaf")
    digits = [0] * codec.K
    cursor = node
    while cursor != tree.root:
        digits[tree.depth[cursor] - 1] = int(tree.sibling_index[cursor])
        cursor = int(tree.parent[cursor])
    return PadicCode(tuple(digits), codec)


def decode_code(tree: TreeSpec, c: PadicCode) -> tuple[int, ...]:
    """Root-to-leaf node id path a code walks; the leaf is the last entry.

    Raises:
        InvalidDigitError: a digit exceeds the current node's child count.
        InvalidPaddingError: digits past the reached leaf are not all zero.
    """
    node = tree.root
    path = [node]
    for k, d in enumerate(c.digits):
        kids = tree.children[node]
        if not kids:
            if any(rest != 0 for rest in c.digits[k:]):
                raise InvalidPaddingError(
                    f"code {code_to_text(c)} continues past leaf "
                    f"{tree.names[node]!r} with nonzero digits"
                )
            return tuple(path)
        if d >= len(kids):
            raise InvalidDigitError(
                f"digit {d} at index {k} exceeds the {len(kids)} children of "
                f"{tree.names[node]!r}"
            )
        node = kids[d]
        path.append(node)
    if not tree.is_leaf(node):
        raise InvalidDigitError(
            f"code {code_to_text(c)} ends at internal node {tree.names[node]!r}"
        )
    return tuple(path)


def lca_depth(tree: TreeSpec, a: int | str, b: int | str) -> int:
    """Depth of the lowest common ancestor of two nodes.

    Raises:
        KeyError: unknown node name.
    """
    x = tree.id_of(a) if isinstance(a, str) else a
    y = tree.id_of(b) if isinstance(b, str) else b
    while tree.depth[x] > tree.depth[y]:
        x = tree.parent[x]
    while tree.depth[y] > tree.depth[x]:
        y = tree.parent[y]
    while x != y:
        x = tree.parent[x]
        y = tree.parent[y]
    return int(tree.depth[x])


def lca_depths(tree: TreeSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Depth of the lowest common ancestor of each node pair (a[i], b[i]),
    in the smallest unsigned dtype that holds the tree's depth.

    Array form of lca_depth.  Node ids are preorder positions, so for
    ids u < v the nodes u+1..v all lie below the ancestor and the
    shallowest of them is its child: the depth is one less than their
    minimum depth, or depth[u] where u == v.  That is one range minimum
    per pair over the preorder depths, from the tree's depth_minima.
    A node id outside the tree raises IndexError.
    """
    x, y = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    for ids in (x, y):
        if ids.size and (ids.min() < 0 or ids.max() >= tree.n_nodes):
            raise IndexError(f"node ids must lie in [0, {tree.n_nodes})")
    return tree.depth_minima.window_minima(np.minimum(x, y), np.abs(x - y)) - 1


def branching_stats(tree: TreeSpec) -> dict[int, dict[int, int]]:
    """Histogram {depth: {child count: number of internal nodes}}, keys
    ascending."""
    count = np.diff(tree.child_table[0])
    inner = count > 0
    keys, n = np.unique(tree.depth[inner] * (tree.b_max + 1) + count[inner], return_counts=True)
    stats: dict[int, dict[int, int]] = {}
    for key, m in zip(keys.tolist(), n.tolist()):
        depth, width = divmod(key, tree.b_max + 1)
        stats.setdefault(depth, {})[width] = m
    return stats


@dataclass(frozen=True)
class Record:
    """One encoded leaf."""

    leaf: str
    code: PadicCode
    depth: int


class DigitPairs(NamedTuple):
    """The distinct (parent digit, child digit) pairs at one depth, sorted
    by (parent, child), with the number of records holding each."""

    parent: np.ndarray
    child: np.ndarray
    count: np.ndarray


def _read_only_int64(values) -> np.ndarray:
    """values as a read-only int64 array: an int64 array that is already
    read-only as it is, anything else as a new array."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Every leaf of a hierarchy as arrays: leaf names, the (N, K) digit
    matrix of their codes and their depths, one row per record.

    The arrays are read-only: an int64 array that is already read-only is
    kept as it is, anything else is copied at construction, where every
    digit is checked to lie in [0, p) and every depth in [1, K].  The
    training objective reads the records only through pair_counts: per
    depth, how many records hold each (digit k-1, digit k) pair.  Records
    keep the sorted-path leaf order of the source hierarchy.
    """

    codec: CodecParams
    leaves: tuple[str, ...]
    digits: np.ndarray
    depths: np.ndarray

    def __post_init__(self) -> None:
        K, p = self.codec.K, self.codec.p
        leaves = tuple(self.leaves)
        digits = _read_only_int64(self.digits)
        if digits.size == 0:
            digits = digits.reshape(0, K)
        depths = _read_only_int64(self.depths).reshape(-1)
        if digits.shape != (len(leaves), K) or depths.shape != (len(leaves),):
            raise ValueError(
                f"{len(leaves)} leaves need a ({len(leaves)}, {K}) digit matrix and "
                f"{len(leaves)} depths, got {digits.shape} and {depths.shape}"
            )
        if digits.size and (digits.min() < 0 or digits.max() >= p):
            i, k = np.argwhere((digits < 0) | (digits >= p))[0]
            raise ValueError(
                f"record {leaves[i]!r} has digit {digits[i, k]} at index {k} "
                f"outside [0, {p - 1}]"
            )
        bad = (depths < 1) | (depths > K)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(f"record {leaves[i]!r} has depth {depths[i]} outside [1, K]")
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "depths", depths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedDataset):
            return NotImplemented
        return (
            self.codec == other.codec
            and self.leaves == other.leaves
            and np.array_equal(self.digits, other.digits)
            and np.array_equal(self.depths, other.depths)
        )

    @property
    def n_records(self) -> int:
        return len(self.leaves)

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """The rows as Record objects, built on first use; the pipeline
        itself reads the arrays."""
        return tuple(
            Record(leaf, PadicCode(tuple(row), self.codec), depth)
            for leaf, row, depth in zip(self.leaves, self.digits.tolist(), self.depths.tolist())
        )

    @cached_property
    def code_index(self) -> CodeIndex:
        """The CodeIndex of the digit matrix, built on first use: the
        diagnostics read it, ingest, training and evaluation do not."""
        return CodeIndex(self.digits)

    def digits_matrix(self) -> np.ndarray:
        """(N, K) int64 matrix of record digits, row order = record order.

        The dataset's own `digits` array, shared by every caller, so it is
        read-only; copy it to modify it.
        """
        return self.digits

    def leaves_with_prefix(self, prefix: Sequence[int]) -> tuple[str, ...]:
        """Leaves whose codes start with a digit prefix, in record order;
        none when the prefix is longer than K or holds a digit outside
        [0, p)."""
        prefix = [int(d) for d in prefix]
        if len(prefix) > self.codec.K or any(not 0 <= d < self.codec.p for d in prefix):
            return ()
        hit = (self.digits[:, : len(prefix)] == np.array(prefix, dtype=np.int64)).all(axis=1)
        return tuple(self.leaves[i] for i in np.flatnonzero(hit))

    def pair_counts(self) -> tuple[DigitPairs, ...]:
        """(digit k-1, digit k) pair counts for each depth k in [0, K).

        The root digit has no parent; its pairs read parent digit 0.
        """
        D = self.digits_matrix()
        parents = np.zeros_like(D)
        parents[:, 1:] = D[:, :-1]
        p = self.codec.p
        out = []
        for k in range(self.codec.K):
            keys, count = np.unique(parents[:, k] * p + D[:, k], return_counts=True)
            out.append(DigitPairs(keys // p, keys % p, count))
        return tuple(out)


def encode_tree(tree: TreeSpec, codec: CodecParams | None = None) -> EncodedDataset:
    """Encode every leaf of a hierarchy.

    Every leaf climbs to the root at once, one level per step, writing
    its sibling index into the digit its depth names (encode_leaf, for
    all leaves in numpy).

    Args:
        tree: the hierarchy.
        codec: alphabet/length override; defaults to make_codec(tree).

    Returns:
        EncodedDataset with one record per leaf in sorted-path order.
    """
    cp = make_codec(tree) if codec is None else codec
    _check_codec(tree, cp)
    parent, depth, sibling, leaves = tree.parent, tree.depth, tree.sibling_index, tree.leaves
    digits = np.zeros((leaves.size, cp.K), dtype=np.int64)
    rows, node = np.arange(leaves.size), leaves
    while node.size:
        digits[rows, depth[node] - 1] = sibling[node]
        node = parent[node]
        below_root = node != tree.root
        rows, node = rows[below_root], node[below_root]
    digits.flags.writeable = False
    return EncodedDataset(cp, tuple(tree.leaf_names()), digits, depth[leaves])


def _code_texts(digits: np.ndarray) -> list[str]:
    """Canonical hyphen-separated text of every row of a matrix of
    non-negative digits.

    Every digit is written into one byte buffer, its last decimal place
    first and each higher place for the digits that reach it, between
    hyphens and a newline at each row's end; one split makes the texts.
    """
    n, K = digits.shape
    if not n:
        return []
    value = digits.ravel()
    top = int(value.max())
    places = len(str(top))
    width = np.ones(value.size, dtype=np.uint8)
    for place in range(1, places):
        width += value >= 10**place
    # each digit's text and the separator after it end at `end`
    end = np.cumsum(width + np.uint8(1), dtype=np.int64)
    buf = np.full(end[-1], ord("-"), dtype=np.uint8)
    buf[end[K - 1 :: K] - 1] = ord("\n")
    at = end - 2
    value = value.astype(np.min_scalar_type(top))
    for place in range(places):
        buf[at] = value % 10 + ord("0")
        if place + 1 < places:
            live = np.flatnonzero(value >= 10)
            at, value = at[live] - 1, value[live] // 10
    return buf[:-1].tobytes().decode("ascii").split("\n")


def dataset_to_json(ds: EncodedDataset) -> str:
    """Serialize to the dataset interchange form.

    One JSON document: {"codec": {"K", "p"}, "records": [...]} with one
    {"code", "depth", "leaf"} object per line, keys in sorted order; the
    code is its hyphen-separated digit text.  Leaf names are escaped as
    json.dumps escapes them, and every record piece goes into one join.
    """
    codec = json.dumps({"p": ds.codec.p, "K": ds.codec.K}, sort_keys=True)
    depth_text = list(map(str, range(ds.codec.K + 1)))
    records = zip(
        chain(['{"code": "'], repeat(',\n{"code": "')),
        _code_texts(ds.digits),
        repeat('", "depth": '),
        map(depth_text.__getitem__, ds.depths.tolist()),
        repeat(', "leaf": '),
        map(encode_basestring_ascii, ds.leaves),
        repeat("}"),
    )
    return "".join(
        chain([f'{{"codec": {codec}, "records": [\n'], chain.from_iterable(records), ["\n]}\n"])
    )


def tree_to_nested(tree: TreeSpec, dataset: EncodedDataset | None = None) -> dict:
    """Nested {name, children[]} document of a hierarchy, for visualization.

    Leaves carry a "code" field (digit text) when a dataset is supplied;
    children appear in sibling-index order, so flattening the document
    back to edges and re-encoding reproduces the same codes.
    """
    codes: dict[str, str] = {}
    if dataset is not None:
        codes = dict(zip(dataset.leaves, _code_texts(dataset.digits)))

    def build(node: int) -> dict:
        doc: dict = {"name": tree.names[node]}
        kids = tree.children[node]
        if kids:
            doc["children"] = [build(k) for k in kids]
        elif tree.names[node] in codes:
            doc["code"] = codes[tree.names[node]]
        return doc

    return build(tree.root)


_REQUIRED = object()


def _typed(
    obj: dict, key: str, kind: type | tuple[type, ...], what: str = "dataset JSON", default=_REQUIRED
):
    """obj[key], required to be of type kind (a type or a tuple of types),
    or default where obj has no key and a default is given; JSON true and
    false are not ints.  what names the document in the error."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"malformed {what}: {key!r} is missing")
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"malformed {what}: {key!r} must be {names}, got {reprlib.repr(value)}")
    return value


def _is_code(text: str, K: int) -> bool:
    """Whether a code text holds exactly K hyphen-separated integers that
    fit int64."""
    fields = text.split("-")
    try:
        np.array([int(d) for d in fields], dtype=np.int64)
    except (ValueError, OverflowError):
        return False
    return len(fields) == K


# Tokens read per block by _parse_ascii_codes: about a megabyte of
# temporaries, which the next block reuses where one pass over every
# code would page in tens of fresh megabytes.
_CODE_BLOCK = 1 << 16


def _parse_ascii_codes(codes: list[str], K: int) -> np.ndarray | None:
    """(N, K) digits of code texts read as bytes, or None unless every
    code is exactly K hyphen-separated tokens of 1 to 18 ASCII digits
    (18 digits always fit int64).  The codes are read in blocks of about
    _CODE_BLOCK tokens, each in whole-array passes."""
    value = np.empty((len(codes), K), dtype=np.int64)
    step = max(1, _CODE_BLOCK // K)
    for r in range(0, len(codes), step):
        if not _read_ascii_codes(codes[r : r + step], K, value[r : r + step].ravel()):
            return None
    return value


def _read_ascii_codes(codes: list[str], K: int, out: np.ndarray) -> bool:
    """Whether _parse_ascii_codes can read these codes, writing their
    digits into out (flat, row-major) when it can.

    The codes are joined between newlines, so the separators (the bytes
    below "0") must run newline, K - 1 hyphens, newline, ..., newline;
    with no two adjacent, the byte before each one after the first is a
    token's units digit.  Only the tokens of more digits are read again,
    a place at a time.
    """
    text = "\n".join(["", *codes, ""])
    if not text.isascii():
        return False
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if buf.max() > ord("9"):
        return False
    at = np.flatnonzero(buf < ord("0"))
    kind = buf[at]
    if not (
        kind.size == out.size + 1
        and (kind[::K] == ord("\n")).all()
        and np.count_nonzero(kind == ord("-")) == out.size - len(codes)
    ):
        return False
    at = at[1:]
    at -= 1
    units = buf[at]
    if units.min() < ord("0"):  # two adjacent separators
        return False
    np.subtract(units, ord("0"), out=out, dtype=np.int64)
    at -= 1
    tok = np.flatnonzero(buf[at] >= ord("0"))
    at = at[tok]
    for place in range(1, 18):
        out[tok] += (buf[at] - ord("0")) * np.int64(10) ** place
        at -= 1
        live = np.flatnonzero(buf[at] >= ord("0"))
        tok, at = tok[live], at[live]
        if not tok.size:
            return True
    return False


def _parse_codes(codes: list[str], leaves: list[str], K: int) -> np.ndarray:
    """(N, K) digits of code texts; digit ranges are left to
    EncodedDataset.

    Plain ASCII codes are read as bytes, a block of codes per pass; any
    other text (a sign, a non-ASCII digit, a token of 19 or more digits)
    sends every code to int(), token by token.

    Raises:
        ValueError: naming the first code that is not exactly K
            hyphen-separated integers.
    """
    if not codes:
        return np.zeros((0, K), dtype=np.int64)
    digits = _parse_ascii_codes(codes, K)
    if digits is not None:
        return digits
    hyphens = np.fromiter(map(str.count, codes, repeat("-")), np.int64, len(codes))
    if (hyphens == K - 1).all():
        parts = "-".join(codes).split("-")
        with suppress(ValueError, OverflowError):
            return np.fromiter(map(int, parts), np.int64, len(parts)).reshape(-1, K)
    leaf, text = next(
        (leaf, text) for leaf, text in zip(leaves, codes) if not _is_code(text, K)
    )
    raise ValueError(
        f"malformed dataset JSON: record {leaf!r} has code {text!r}, "
        f"not {K} hyphen-separated digits"
    )


def _rows_ascend(digits: np.ndarray) -> bool:
    """Whether each row of a matrix sorts after the one before it, as
    the rows of a dataset in sorted-path order do."""
    after, before = digits[1:], digits[:-1]
    col = (after != before).argmax(axis=1)
    rows = np.arange(col.size)
    return bool((after[rows, col] > before[rows, col]).all())


def _first_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the first column where digit rows a and b differ; the row
    width where they are equal."""
    diffs = a != b
    return np.where(diffs.any(axis=1), diffs.argmax(axis=1), a.shape[1])


class _RangeMinima:
    """Minima of an array over any window, two gathers each: a sparse table
    (Bender and Farach-Colton, "The LCA Problem Revisited", 2000).

    Level 0 holds `empty`, one value per position, the answer for an empty
    window; level l >= 1 the minima of `values` over windows of 2**(l-1).
    A window of length s is the union of two windows of its level (the bit
    length of s), one at each end, which start `_near[s]` and `_far[s]`
    into the table past the window's start.  Building costs O(n log n).
    """

    def __init__(self, values: np.ndarray, empty: np.ndarray) -> None:
        levels = [empty, values]
        window = 1
        while 2 * window <= len(values):
            levels.append(np.minimum(levels[-1][:-window], levels[-1][window:]))
            window *= 2
        self._table = np.concatenate(levels)
        span = np.arange(len(empty))
        level = np.frexp(span)[1]  # bit length: 0 for an empty window
        widths = np.array([0] + [1 << l for l in range(len(levels) - 1)])
        self._near = np.cumsum([0] + [len(t) for t in levels[:-1]])[level]
        self._far = self._near + span - widths[level]

    def window_minima(self, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
        """min(values[lo:lo + span]) for each window; empty[lo] where span is 0."""
        return np.minimum(self._table[self._near[span] + lo], self._table[self._far[span] + lo])


class CodeIndex(_RangeMinima):
    """The rows of an (N, K) digit matrix in lexicographic order, for
    first-difference queries on any pairs of rows.

    Two sorted rows first differ at the smallest first difference of the
    adjacent sorted rows between them, so one sort, the first differences
    of adjacent sorted rows (`lcp`, K where two rows are equal) and range
    minima over them answer any pair with two gathers and one np.minimum.
    Building costs O(N log N): no sort when the rows already ascend, as
    those of every encoded or loaded dataset in sorted-path order do,
    else one np.lexsort.

    `order` lists the rows in sorted order and `rank` is its inverse.
    The range minima are over `lcp`, with K for an empty window, which
    answers i == j.  Columns come back in the smallest unsigned dtype
    that holds K.
    """

    def __init__(self, digits: np.ndarray) -> None:
        n, K = digits.shape
        self.width = K
        ascend = _rows_ascend(digits)
        self.order = np.arange(n) if ascend else np.lexsort(digits.T[::-1])
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        rows = digits if ascend else digits[self.order]
        self.lcp = _first_difference(rows[1:], rows[:-1]).astype(np.min_scalar_type(K))
        super().__init__(self.lcp, np.full(n, K, dtype=self.lcp.dtype))

    def first_difference(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """First differing column of rows i and j (broadcast index arrays);
        K where i == j or the rows are equal."""
        return self.first_difference_sorted(self.rank[i], self.rank[j])

    def first_difference_sorted(self, ri: np.ndarray, rj: np.ndarray) -> np.ndarray:
        """first_difference of the rows at sorted positions ri and rj."""
        return self.window_minima(np.minimum(ri, rj), np.abs(ri - rj))

    def prefix_group_sizes(self) -> list[np.ndarray]:
        """For k = 1..K, how many rows share each distinct k-digit prefix,
        in lexicographic prefix order: the k-prefix groups are the runs
        of sorted rows between adjacent pairs that first differ before
        column k."""
        n = len(self.rank)
        if n == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(self.width)]
        return [
            np.diff(np.concatenate(([0], np.flatnonzero(self.lcp < k) + 1, [n])))
            for k in range(1, self.width + 1)
        ]


def dataset_from_json(text: str) -> EncodedDataset:
    """Parse the dataset interchange form.

    One json.loads; each field is then gathered and type-checked over all
    records at once, every code is parsed into the digit matrix in one
    pass, and the checks run on whole columns.

    Raises:
        ValueError: structurally invalid payload, wrongly typed fields,
            bad codes, bad depths, or a leaf name or code that repeats.
    """
    try:
        payload = json.loads(text)
        head = payload["codec"]
        codec = CodecParams(_typed(head, "p", int), _typed(head, "K", int))
        rows = payload["records"]
        if not isinstance(rows, list):
            raise TypeError(f"'records' must be a list, got {type(rows).__name__}")
        leaves, codes, depths = (
            list(map(itemgetter(key), rows)) for key in ("leaf", "code", "depth")
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed dataset JSON: {exc}") from exc
    for key, kind, values in (("leaf", str, leaves), ("code", str, codes), ("depth", int, depths)):
        if countOf(map(type, values), kind) < len(values):
            bad = next(v for v in values if type(v) is not kind)
            raise ValueError(
                f"malformed dataset JSON: {key!r} must be {kind.__name__}, got {bad!r}"
            )
    digits = _parse_codes(codes, leaves, codec.K)
    digits.flags.writeable = False
    try:
        ds = EncodedDataset(codec, tuple(leaves), digits, depths)
    except ValueError as exc:
        raise ValueError(f"malformed dataset JSON: {exc}") from None
    except OverflowError:  # a depth past int64
        leaf, depth = next((leaf, d) for leaf, d in zip(leaves, depths) if not 1 <= d <= codec.K)
        raise ValueError(
            f"malformed dataset JSON: record {leaf!r} has depth {depth} outside [1, K]"
        ) from None
    if len(set(leaves)) < len(leaves):
        raise ValueError("malformed dataset JSON: duplicate leaf")
    # rows that ascend are distinct; others are sorted to find a repeat
    if len(digits) > 1 and not _rows_ascend(digits):
        ordered = digits[np.lexsort(digits.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("malformed dataset JSON: duplicate code")
    return ds


__all__ = [
    "CodeIndex",
    "DecodeError",
    "DigitPairs",
    "EncodedDataset",
    "InvalidDigitError",
    "InvalidPaddingError",
    "Record",
    "TreeParseError",
    "TreeSpec",
    "branching_stats",
    "dataset_from_json",
    "dataset_to_json",
    "decode_code",
    "dump_tree",
    "encode_leaf",
    "encode_tree",
    "gen_synthetic",
    "lca_depth",
    "lca_depths",
    "load_tree",
    "loads_tree",
    "make_codec",
    "select_prime",
    "tree_to_nested",
]
