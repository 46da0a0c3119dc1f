"""Finite rooted hierarchies and their digit encodings.

A hierarchy arrives as an edge list ("child<TAB>parent" lines, the root
as "name<TAB>-", "#" starts a comment line) or from a synthetic
generator.  Children are ordered lexicographically by name, and a node's
digit is its index within that ordering, so the code of a leaf is the
sequence of sibling indices along its path, zero-padded to the maximum
leaf depth K.  With a prime alphabet p >= B_max + 1 (B_max = largest
child count) every leaf receives a distinct code and the code ultrametric
equals p**-(LCA depth) on leaf pairs.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple, Sequence, TextIO

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


@dataclass(frozen=True)
class TreeSpec:
    """Immutable rooted hierarchy with deterministic child order.

    Node ids are preorder positions of a depth-first walk that visits
    children in lexicographic name order; the root is id 0 and `leaves`
    lists leaf ids in that same sorted-path order.

    Attributes:
        names: node id -> name.
        parent: node id -> parent id (-1 for the root).
        children: node id -> child ids, sorted lexicographically by name.
        sibling_index: node id -> position among its parent's children.
        depth: node id -> edge distance from the root.
        leaves: leaf ids in sorted-path order.
        max_depth: K, the deepest leaf depth (>= 1).
        b_max: largest child count of any node.
    """

    names: tuple[str, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    sibling_index: tuple[int, ...]
    depth: tuple[int, ...]
    leaves: tuple[int, ...]
    max_depth: int
    b_max: int
    name_to_id: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @property
    def root(self) -> int:
        return 0

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def id_of(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise KeyError(f"unknown node name {name!r}") from None

    def ids_of(self, names: Sequence[str]) -> np.ndarray:
        """int64 node ids of many names; KeyError names the first unknown one."""
        try:
            return np.fromiter(map(self.name_to_id.__getitem__, names), np.int64, len(names))
        except KeyError as exc:
            raise KeyError(f"unknown node name {exc.args[0]!r}") from None

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def leaf_names(self) -> list[str]:
        return [self.names[leaf] for leaf in self.leaves]

    @cached_property
    def child_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Child lists as flat arrays (start, kids): node i's children are
        kids[start[i]:start[i + 1]], in sibling order."""
        start = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum([len(c) for c in self.children], out=start[1:])
        kids = np.fromiter(chain.from_iterable(self.children), np.int64, int(start[-1]))
        return start, kids


def _build_tree(root_name: str, parent_of: dict[str, str], line_of: dict[str, int]) -> TreeSpec:
    """Assemble a TreeSpec from name-level structure.

    parent_of maps every non-root name to its parent name; line_of maps
    names to 1-based source lines for error reporting (synthetic callers
    pass zeros).
    """
    all_names = [root_name] + list(parent_of.keys())
    kids_by_name: dict[str, list[str]] = {name: [] for name in all_names}
    for child_name, parent_name in parent_of.items():
        if parent_name not in kids_by_name:
            raise TreeParseError(
                f"line {line_of.get(child_name, 0)}: parent {parent_name!r} of "
                f"{child_name!r} is never defined"
            )
        kids_by_name[parent_name].append(child_name)
    for name in kids_by_name:
        kids_by_name[name].sort()

    # Preorder walk; anything left unvisited sits on a cycle, since every
    # node has exactly one defining parent edge.
    order: list[str] = []
    stack = [root_name]
    while stack:
        name = stack.pop()
        order.append(name)
        stack.extend(reversed(kids_by_name[name]))
    if len(order) != len(all_names):
        visited = set(order)
        stray = next(name for name in parent_of if name not in visited)
        raise TreeParseError(
            f"line {line_of.get(stray, 0)}: node {stray!r} is unreachable from "
            f"the root (parent cycle)"
        )

    ids = {name: i for i, name in enumerate(order)}
    n = len(order)
    parents = [-1] * n
    depths = [0] * n
    sibling = [0] * n
    children: list[tuple[int, ...]] = [()] * n
    for name in order:
        i = ids[name]
        kid_ids = tuple(ids[k] for k in kids_by_name[name])
        children[i] = kid_ids
        for j, kid in enumerate(kid_ids):
            parents[kid] = i
            sibling[kid] = j
            depths[kid] = depths[i] + 1

    leaves = tuple(i for i in range(n) if not children[i])
    max_depth = max(depths[leaf] for leaf in leaves)
    if max_depth == 0:
        raise TreeParseError("hierarchy has only a root: no digits to encode")
    b_max = max(len(c) for c in children)
    return TreeSpec(
        names=tuple(order),
        parent=tuple(parents),
        children=tuple(children),
        sibling_index=tuple(sibling),
        depth=tuple(depths),
        leaves=leaves,
        max_depth=max_depth,
        b_max=b_max,
        name_to_id=ids,
    )


def loads_tree(text: str) -> TreeSpec:
    """Parse a hierarchy from edge-list text.

    Format: one "child<TAB>parent" pair per line; the root declares itself
    as "name<TAB>-"; blank lines and lines starting with "#" are ignored.

    Raises:
        TreeParseError: duplicate child, multiple roots, missing root,
            undefined parent, parent cycle, or a root-only hierarchy.
    """
    root_name: str | None = None
    parent_of: dict[str, str] = {}
    line_of: dict[str, int] = {}
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
        if child_name in line_of or child_name == root_name:
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
            line_of[child_name] = lineno
        else:
            parent_of[child_name] = parent_name
            line_of[child_name] = lineno
    if root_name is None:
        raise TreeParseError("no root line ('name<TAB>-') found")
    return _build_tree(root_name, parent_of, line_of)


def load_tree(source: str | TextIO) -> TreeSpec:
    """Parse a hierarchy from a file path or an open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return loads_tree(fh.read())
    return loads_tree(source.read())


def dump_tree(tree: TreeSpec) -> str:
    """Edge-list text that round-trips through loads_tree."""
    lines = [f"{tree.names[tree.root]}\t-"]
    for node in range(1, tree.n_nodes):
        lines.append(f"{tree.names[node]}\t{tree.names[tree.parent[node]]}")
    return "\n".join(lines) + "\n"


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
    parent_of: dict[str, str] = {}
    level = ["n"]
    for _ in range(depth):
        next_level: list[str] = []
        for name in level:
            if rng is None:
                count = branching
            else:
                count = int(rng.integers(1, branching + 1))
            for j in range(count):
                kid = f"{name}.{j:0{pad}d}"
                parent_of[kid] = name
                next_level.append(kid)
        level = next_level
    return _build_tree("n", parent_of, {})


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
        digits[tree.depth[cursor] - 1] = tree.sibling_index[cursor]
        cursor = tree.parent[cursor]
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
    return tree.depth[x]


def lca_depths(tree: TreeSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Depth of the lowest common ancestor of each node pair (a[i], b[i]).

    Array form of lca_depth: every pair that has not met yet climbs one
    level per step (the deeper node, or both at equal depth), so the
    loop runs at most twice the hierarchy depth.
    """
    parent = np.asarray(tree.parent, dtype=np.int64)
    depth = np.asarray(tree.depth, dtype=np.int64)
    x = np.asarray(a, dtype=np.int64)
    y = np.asarray(b, dtype=np.int64)
    while True:
        apart = x != y
        if not apart.any():
            return depth[x]
        dx, dy = depth[x], depth[y]
        x = np.where(apart & (dx >= dy), parent[x], x)
        y = np.where(apart & (dy >= dx), parent[y], y)


def branching_stats(tree: TreeSpec) -> dict[int, dict[int, int]]:
    """Histogram {depth: {child count: number of internal nodes}}."""
    stats: dict[int, dict[int, int]] = {}
    for node in range(tree.n_nodes):
        count = len(tree.children[node])
        if count == 0:
            continue
        level = stats.setdefault(tree.depth[node], {})
        level[count] = level.get(count, 0) + 1
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


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Every leaf of a hierarchy as arrays: leaf names, the (N, K) digit
    matrix of their codes and their depths, one row per record.

    The arrays are read-only copies made at construction, where every
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
        digits = np.array(self.digits, dtype=np.int64)
        if digits.size == 0:
            digits = digits.reshape(0, K)
        depths = np.array(self.depths, dtype=np.int64).reshape(-1)
        if digits.shape != (len(leaves), K) or depths.shape != (len(leaves),):
            raise ValueError(
                f"{len(leaves)} leaves need a ({len(leaves)}, {K}) digit matrix and "
                f"{len(leaves)} depths, got {digits.shape} and {depths.shape}"
            )
        bad = (digits < 0) | (digits >= p)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ValueError(
                f"record {leaves[i]!r} has digit {digits[i, k]} at index {k} "
                f"outside [0, {p - 1}]"
            )
        bad = (depths < 1) | (depths > K)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(f"record {leaves[i]!r} has depth {depths[i]} outside [1, K]")
        digits.flags.writeable = False
        depths.flags.writeable = False
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
    parent = np.asarray(tree.parent, dtype=np.int64)
    depth = np.asarray(tree.depth, dtype=np.int64)
    sibling = np.asarray(tree.sibling_index, dtype=np.int64)
    leaves = np.asarray(tree.leaves, dtype=np.int64)
    digits = np.zeros((leaves.size, cp.K), dtype=np.int64)
    rows, node = np.arange(leaves.size), leaves
    while node.size:
        digits[rows, depth[node] - 1] = sibling[node]
        node = parent[node]
        below_root = node != tree.root
        rows, node = rows[below_root], node[below_root]
    return EncodedDataset(cp, tuple(tree.leaf_names()), digits, depth[leaves])


def _code_texts(digits: np.ndarray) -> list[str]:
    """Canonical hyphen-separated text of every row of a digit matrix."""
    n, K = digits.shape
    if n == 0:
        return []
    row = "-".join(["%d"] * K)
    return ("\n".join([row] * n) % tuple(digits.ravel().tolist())).split("\n")


def dataset_to_json(ds: EncodedDataset) -> str:
    """Serialize to the dataset interchange form.

    One JSON document: {"codec": {"K", "p"}, "records": [...]} with one
    {"code", "depth", "leaf"} object per line, keys in sorted order; the
    code is its hyphen-separated digit text.
    """
    lines = [
        f'{{"code": "{code}", "depth": {depth}, "leaf": {json.dumps(leaf)}}}'
        for code, depth, leaf in zip(_code_texts(ds.digits), ds.depths.tolist(), ds.leaves)
    ]
    codec = json.dumps({"p": ds.codec.p, "K": ds.codec.K}, sort_keys=True)
    return f'{{"codec": {codec}, "records": [\n' + ",\n".join(lines) + "\n]}\n"


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


def _typed(obj: dict, key: str, kind: type) -> int | str:
    """obj[key], required to be of type kind; JSON true and false are not ints."""
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"malformed dataset JSON: {key!r} must be {kind.__name__}, got {value!r}"
        )
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


def _parse_codes(codes: list[str], leaves: list[str], K: int) -> np.ndarray:
    """(N, K) digits of code texts, parsed in one pass over their join;
    digit ranges are left to EncodedDataset.

    Raises:
        ValueError: naming the first code that is not exactly K
            hyphen-separated integers.
    """
    if not codes:
        return np.zeros((0, K), dtype=np.int64)
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


def dataset_from_json(text: str) -> EncodedDataset:
    """Parse the dataset interchange form.

    Every code is parsed into the digit matrix in one pass; the checks
    run on whole columns.

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
        fields = {key: [r[key] for r in rows] for key in ("leaf", "code", "depth")}
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed dataset JSON: {exc}") from exc
    for key, kind in (("leaf", str), ("code", str), ("depth", int)):
        values = fields[key]
        if set(map(type, values)) - {kind}:
            bad = next(v for v in values if type(v) is not kind)
            raise ValueError(
                f"malformed dataset JSON: {key!r} must be {kind.__name__}, got {bad!r}"
            )
    leaves = fields["leaf"]
    digits = _parse_codes(fields["code"], leaves, codec.K)
    try:
        ds = EncodedDataset(codec, tuple(leaves), digits, fields["depth"])
    except ValueError as exc:
        raise ValueError(f"malformed dataset JSON: {exc}") from None
    except OverflowError:  # a depth past int64
        leaf, depth = next(
            (leaf, d) for leaf, d in zip(leaves, fields["depth"]) if not 1 <= d <= codec.K
        )
        raise ValueError(
            f"malformed dataset JSON: record {leaf!r} has depth {depth} outside [1, K]"
        ) from None
    if len(set(leaves)) < len(leaves):
        raise ValueError("malformed dataset JSON: duplicate leaf")
    if len(digits) > 1:
        ordered = digits[np.lexsort(digits.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("malformed dataset JSON: duplicate code")
    return ds


__all__ = [
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
