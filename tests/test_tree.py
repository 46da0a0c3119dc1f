"""Hierarchy parsing, encoding, decoding, and the dataset container."""

import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hipan.tree as _tree
from hipan import (
    CodecParams,
    EncodedDataset,
    InvalidDigitError,
    InvalidPaddingError,
    PadicCode,
    Record,
    TreeParseError,
    branching_stats,
    code,
    dataset_from_json,
    dataset_to_json,
    decode_code,
    dump_tree,
    encode_leaf,
    encode_tree,
    gen_synthetic,
    lca_depth,
    loads_tree,
    make_codec,
    select_prime,
    tree_to_nested,
    ultrametric_distance,
)
from conftest import TOY_TEXT, digits_dataset, irregular_tree


def test_toy_structure(toy_tree):
    t = toy_tree
    # preorder with lexicographic children: root, animal, cat, dog, plant, fern
    assert t.names == ("root", "animal", "cat", "dog", "plant", "fern")
    assert t.parent.tolist() == [-1, 0, 1, 1, 0, 4]
    assert t.children[0] == (1, 4)
    assert t.children[1] == (2, 3)
    assert t.children[4] == (5,)
    assert t.sibling_index.tolist() == [0, 0, 0, 1, 1, 0]
    assert t.depth.tolist() == [0, 1, 2, 2, 1, 2]
    assert t.leaves.tolist() == [2, 3, 5]
    assert t.max_depth == 2
    assert t.b_max == 2
    assert t.n_nodes == 6
    assert t.n_leaves == 3
    assert t.root == 0
    assert t.is_leaf(2) and not t.is_leaf(1)
    assert t.leaf_names() == ["cat", "dog", "fern"]
    assert t.id_of("fern") == 5
    with pytest.raises(KeyError):
        t.id_of("wolf")


def test_parse_skips_blanks_and_comments():
    text = "# taxonomy\n\nroot\t-\n# edge\ncat\troot\n\n"
    t = loads_tree(text)
    assert t.names == ("root", "cat")


def test_parse_strips_padding_spaces():
    t = loads_tree("root\t-\n cat \t root \n")
    assert t.names == ("root", "cat")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("root\n", "line 1"),
        ("root\t-\ncat\troot\textra\n", "line 2"),
        ("root\t-\ncat\troot\ncat\troot\n", "duplicate"),
        ("root\t-\nother\t-\n", "second root"),
        ("root\t-\n-\troot\nother\t-\n", "second root"),  # a node named "-"
        ("cat\tanimal\n", "no root"),
        ("root\t-\n\troot\n", "empty node name"),
        ("root\t-\ncat\tanimal\n", "never defined"),
        ("root\t-\na\tb\nb\ta\n", "unreachable"),
        ("root\t-\n", "only a root"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TreeParseError, match=fragment):
        loads_tree(text)


def test_dump_round_trip(toy_tree):
    assert loads_tree(dump_tree(toy_tree)) == toy_tree
    for seed in range(5):
        t = irregular_tree(seed, 30)
        assert loads_tree(dump_tree(t)) == t


def test_gen_synthetic_complete():
    t = gen_synthetic("complete", 3, 2)
    assert t.n_leaves == 9
    assert t.b_max == 3
    assert t.max_depth == 2
    assert all(t.depth[leaf] == 2 for leaf in t.leaves)
    # chain degenerates to one leaf
    chain = gen_synthetic("complete", 1, 4)
    assert chain.n_leaves == 1
    assert chain.max_depth == 4


def test_gen_synthetic_random_determinism():
    a = gen_synthetic("random", 4, 3, seed=11)
    b = gen_synthetic("random", 4, 3, seed=11)
    c = gen_synthetic("random", 4, 3, seed=12)
    assert a == b
    assert a != c
    assert a.max_depth == 3
    assert 1 <= a.b_max <= 4


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic("complete", 0, 2)
    with pytest.raises(ValueError):
        gen_synthetic("complete", 2, 0)
    with pytest.raises(ValueError):
        gen_synthetic("balanced", 2, 2)


def test_select_prime(toy_tree):
    assert select_prime(toy_tree) == 3
    assert select_prime(gen_synthetic("complete", 1, 3)) == 2
    assert select_prime(gen_synthetic("complete", 6, 1)) == 7
    assert select_prime(gen_synthetic("complete", 7, 1)) == 11


def test_make_codec(toy_tree):
    codec = make_codec(toy_tree)
    assert (codec.p, codec.K) == (3, 2)
    assert make_codec(toy_tree, K=5).K == 5


def test_encode_leaf_toy(toy_tree):
    codec = make_codec(toy_tree)
    assert encode_leaf(toy_tree, "cat", codec).digits == (0, 0)
    assert encode_leaf(toy_tree, "dog", codec).digits == (0, 1)
    assert encode_leaf(toy_tree, "fern", codec).digits == (1, 0)
    # id form matches name form
    assert encode_leaf(toy_tree, 5, codec) == encode_leaf(toy_tree, "fern", codec)


def test_encode_leaf_errors(toy_tree):
    codec = make_codec(toy_tree)
    with pytest.raises(ValueError, match="not a leaf"):
        encode_leaf(toy_tree, "animal", codec)
    with pytest.raises(ValueError, match="too small"):
        encode_leaf(toy_tree, "cat", CodecParams(2, 2))
    with pytest.raises(ValueError, match="shorter"):
        encode_leaf(toy_tree, "cat", CodecParams(3, 1))


def test_encode_tree_toy(toy_tree, toy_dataset):
    ds = toy_dataset
    assert [r.leaf for r in ds.records] == ["cat", "dog", "fern"]
    assert [r.code.digits for r in ds.records] == [(0, 0), (0, 1), (1, 0)]
    assert [r.depth for r in ds.records] == [2, 2, 2]
    assert ds.codec == CodecParams(3, 2)
    assert ds.n_records == 3


def test_encode_tree_pads_shallow_leaves(padded_tree):
    ds = encode_tree(padded_tree)
    by_name = {r.leaf: r for r in ds.records}
    assert by_name["b"].code.digits == (1, 0)
    assert by_name["b"].depth == 1
    assert by_name["a1"].code.digits == (0, 0)
    assert by_name["a2"].code.digits == (0, 1)


def test_decode_paths_toy(toy_tree):
    codec = make_codec(toy_tree)
    assert decode_code(toy_tree, code([0, 0], 3)) == (0, 1, 2)
    assert decode_code(toy_tree, code([0, 1], 3)) == (0, 1, 3)
    assert decode_code(toy_tree, code([1, 0], 3)) == (0, 4, 5)
    # path is root-to-leaf with strictly increasing depth
    path = decode_code(toy_tree, encode_leaf(toy_tree, "dog", codec))
    assert [toy_tree.depth[n] for n in path] == [0, 1, 2]


def test_decode_padding_stops_at_shallow_leaf(padded_tree):
    path = decode_code(padded_tree, code([1, 0], 3))
    assert path[-1] == padded_tree.id_of("b")
    with pytest.raises(InvalidPaddingError):
        decode_code(padded_tree, code([1, 1], 3))


def test_decode_invalid_digit(toy_tree):
    with pytest.raises(InvalidDigitError):
        decode_code(toy_tree, code([2, 0], 3))
    with pytest.raises(InvalidDigitError):
        decode_code(toy_tree, code([1, 1], 3))


def test_decode_short_code_ends_at_internal(toy_tree):
    # a hand codec shorter than the hierarchy walks out of digits mid-tree
    with pytest.raises(InvalidDigitError, match="internal"):
        decode_code(toy_tree, PadicCode((0,), CodecParams(3, 1)))


def test_round_trip_random_trees():
    for seed in range(20):
        t = irregular_tree(seed, 40)
        ds = encode_tree(t)
        seen = set()
        for r in ds.records:
            path = decode_code(t, r.code)
            assert path[0] == t.root
            assert path[-1] == t.id_of(r.leaf)
            assert r.code.digits not in seen
            seen.add(r.code.digits)


def _oracle_lca_depth(tree, a, b):
    # independent of the library walk: compare root paths as lists
    def root_path(n):
        path = []
        while n != -1:
            path.append(n)
            n = tree.parent[n]
        return path[::-1]

    pa, pb = root_path(a), root_path(b)
    k = 0
    while k < min(len(pa), len(pb)) and pa[k] == pb[k]:
        k += 1
    return tree.depth[pa[k - 1]]


def test_isometry_against_path_oracle(toy_tree):
    trees = [toy_tree] + [irregular_tree(s, 35) for s in range(4)]
    for t in trees:
        ds = encode_tree(t)
        p = ds.codec.p
        for ra, rb in combinations(ds.records, 2):
            d = _oracle_lca_depth(t, t.id_of(ra.leaf), t.id_of(rb.leaf))
            assert ultrametric_distance(ra.code, rb.code) == float(p) ** -d


def test_lca_depth(toy_tree):
    assert lca_depth(toy_tree, "cat", "dog") == 1
    assert lca_depth(toy_tree, "cat", "fern") == 0
    assert lca_depth(toy_tree, "cat", "cat") == 2
    assert lca_depth(toy_tree, "animal", "cat") == 1
    assert lca_depth(toy_tree, 2, 3) == 1
    with pytest.raises(KeyError):
        lca_depth(toy_tree, "cat", "wolf")


def test_branching_stats(toy_tree):
    assert branching_stats(toy_tree) == {0: {2: 1}, 1: {2: 1, 1: 1}}


def test_dataset_validation():
    codec = CodecParams(3, 2)
    EncodedDataset(codec, ("x",), [[0, 2]], [2])
    with pytest.raises(ValueError, match="depth"):
        EncodedDataset(codec, ("x",), [[0, 1]], [0])
    with pytest.raises(ValueError, match="depth"):
        EncodedDataset(codec, ("x",), [[0, 1]], [3])
    with pytest.raises(ValueError, match="digit 3 at index 1"):
        EncodedDataset(codec, ("x",), [[0, 3]], [2])
    with pytest.raises(ValueError, match="digit -1 at index 0"):
        EncodedDataset(codec, ("x",), [[-1, 0]], [2])
    with pytest.raises(ValueError, match="digit matrix"):
        EncodedDataset(codec, ("x",), [[0, 1, 0]], [2])
    with pytest.raises(ValueError, match="digit matrix"):
        EncodedDataset(codec, ("x", "y"), [[0, 1]], [2, 2])


def test_digits_matrix_and_pair_counts(toy_dataset):
    D = toy_dataset.digits_matrix()
    assert D.dtype == np.int64
    assert D.tolist() == [[0, 0], [0, 1], [1, 0]]
    # built once and shared, so no caller may write into it
    assert toy_dataset.digits_matrix() is D
    assert not D.flags.writeable
    counts = toy_dataset.pair_counts()
    assert len(counts) == 2

    def as_dict(pairs):
        keys = zip(pairs.parent.tolist(), pairs.child.tolist())
        return dict(zip(keys, pairs.count.tolist()))

    assert as_dict(counts[1]) == {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    assert as_dict(counts[0]) == {(0, 0): 2, (0, 1): 1}  # root digits, parent read as 0


def test_dataset_json_round_trip(toy_dataset):
    text = dataset_to_json(toy_dataset)
    assert dataset_from_json(text) == toy_dataset
    payload = json.loads(text)
    assert payload["codec"] == {"p": 3, "K": 2}
    assert payload["records"][0] == {"code": "0-0", "depth": 2, "leaf": "cat"}


def test_dataset_json_errors():
    with pytest.raises(ValueError):
        dataset_from_json("not json")
    with pytest.raises(ValueError):
        dataset_from_json("{}")
    with pytest.raises(ValueError):
        dataset_from_json('{"codec": {"p": 3, "K": 2}, "records": [{"leaf": "x", "code": "9-9", "depth": 2}]}')


_GOOD_RECORD = {"leaf": "x", "code": "0-1", "depth": 2}


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"codec": None, "records": []},
        {"codec": {"p": None, "K": 2}, "records": []},
        {"codec": {"p": 3, "K": 2}, "records": {"x": _GOOD_RECORD}},
        {"codec": {"p": 3, "K": 2}, "records": "0-1"},
        {"codec": {"p": 3, "K": 2}, "records": 7},
        {"codec": {"p": 3, "K": 2}, "records": [["x", "0-1", 2]]},
        {"codec": {"p": 3, "K": 2}, "records": ["x"]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "depth": None}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "code": None}]},
        {"codec": {"p": 3, "K": 2}, "records": [{"leaf": "x", "code": "0-1"}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "depth": "2"}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "depth": 2.7}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "depth": 2.0}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "depth": True}]},
        {"codec": {"p": 3, "K": 2}, "records": [{**_GOOD_RECORD, "leaf": 5}]},
        {"codec": {"p": "5", "K": 2}, "records": []},
        {"codec": {"p": 3, "K": 2.0}, "records": []},
        {"codec": {"p": 3, "K": True}, "records": []},
    ],
)
def test_dataset_json_wrong_types_are_value_errors(payload):
    with pytest.raises(ValueError):
        dataset_from_json(json.dumps(payload))


def test_dataset_json_rejects_duplicates():
    def doc(*records):
        return json.dumps({"codec": {"p": 3, "K": 2}, "records": list(records)})

    dataset_from_json(doc(_GOOD_RECORD, {"leaf": "y", "code": "1-0", "depth": 2}))
    with pytest.raises(ValueError, match="duplicate leaf"):
        dataset_from_json(doc(_GOOD_RECORD, {"leaf": "x", "code": "1-0", "depth": 2}))
    with pytest.raises(ValueError, match="duplicate code"):
        dataset_from_json(doc(_GOOD_RECORD, {"leaf": "y", "code": "0-1", "depth": 2}))


def test_tree_to_nested(toy_tree, toy_dataset):
    doc = tree_to_nested(toy_tree, toy_dataset)
    assert doc == {
        "name": "root",
        "children": [
            {
                "name": "animal",
                "children": [
                    {"name": "cat", "code": "0-0"},
                    {"name": "dog", "code": "0-1"},
                ],
            },
            {"name": "plant", "children": [{"name": "fern", "code": "1-0"}]},
        ],
    }
    # without a dataset the leaves carry no codes
    bare = tree_to_nested(toy_tree)
    assert "code" not in bare["children"][0]["children"][0]


def _flatten(doc, parent=None, lines=None):
    lines = [] if lines is None else lines
    lines.append(f"{doc['name']}\t{'-' if parent is None else parent}")
    for child in doc.get("children", []):
        _flatten(child, doc["name"], lines)
    return lines


def test_nested_export_reingests_to_same_codes():
    for seed in (0, 3):
        t = irregular_tree(seed, 25)
        ds = encode_tree(t)
        doc = tree_to_nested(t, ds)
        t2 = loads_tree("\n".join(_flatten(doc)) + "\n")
        ds2 = encode_tree(t2)
        assert {r.leaf: r.code.digits for r in ds2.records} == {
            r.leaf: r.code.digits for r in ds.records
        }


def test_complete_binary_codes_match_convention():
    t = gen_synthetic("complete", 2, 2)
    ds = encode_tree(t)
    # four leaves, codes come out in sorted-path order
    assert [r.code.digits for r in ds.records] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_digits_dataset_helper():
    ds = digits_dataset([[0, 1], [2, 0]], p=3)
    assert ds.codec == CodecParams(3, 2)
    assert ds.digits_matrix().tolist() == [[0, 1], [2, 0]]


def test_toy_text_is_stable():
    # guards the fixture itself: downstream hand oracles depend on it
    assert loads_tree(TOY_TEXT).leaf_names() == ["cat", "dog", "fern"]


def test_encode_tree_matches_encode_leaf():
    for seed in range(8):
        t = irregular_tree(seed, 60)
        for K in (None, t.max_depth + 2):
            codec = make_codec(t, K)
            ds = encode_tree(t, codec)
            assert ds.leaves == tuple(t.leaf_names())
            assert ds.digits.tolist() == [
                list(encode_leaf(t, leaf, codec).digits) for leaf in t.leaves
            ]
            assert ds.depths.tolist() == [t.depth[leaf] for leaf in t.leaves]


def test_dataset_arrays_and_record_view(padded_tree):
    ds = encode_tree(padded_tree)
    assert not ds.depths.flags.writeable
    assert ds.records[2] == Record("b", code([1, 0], 3), 1)
    assert ds.records is ds.records
    rebuilt = EncodedDataset(
        ds.codec,
        tuple(r.leaf for r in ds.records),
        [r.code.digits for r in ds.records],
        [r.depth for r in ds.records],
    )
    assert rebuilt == ds
    assert ds != encode_tree(padded_tree, CodecParams(3, 3))


def test_dataset_json_one_record_per_line():
    tree = loads_tree('r\t-\nsay "hi"\tr\ncafé\tr\n')
    ds = encode_tree(tree)
    text = dataset_to_json(ds)
    lines = text.splitlines()
    assert len(lines) == 2 + ds.n_records
    assert json.loads(lines[1].rstrip(",")) == {"code": "0", "depth": 1, "leaf": "café"}
    assert json.loads(lines[2]) == {"code": "1", "depth": 1, "leaf": 'say "hi"'}
    assert dataset_from_json(text) == ds
    empty = EncodedDataset(ds.codec, (), [], [])
    assert dataset_from_json(dataset_to_json(empty)) == empty


def test_leaves_with_prefix(toy_dataset):
    assert toy_dataset.leaves_with_prefix([]) == ("cat", "dog", "fern")
    assert toy_dataset.leaves_with_prefix([0]) == ("cat", "dog")
    assert toy_dataset.leaves_with_prefix([1, 0]) == ("fern",)
    assert toy_dataset.leaves_with_prefix([2]) == ()
    assert toy_dataset.leaves_with_prefix([0, 0, 0]) == ()
    assert toy_dataset.leaves_with_prefix([10**30]) == ()


def test_ids_of(toy_tree, toy_dataset):
    ids = toy_tree.ids_of(toy_dataset.leaves)
    assert ids.dtype == np.int64
    assert ids.tolist() == [toy_tree.id_of(name) for name in toy_dataset.leaves]
    with pytest.raises(KeyError, match="wolf"):
        toy_tree.ids_of(["cat", "wolf"])


def test_ids_of_any_order_of_names():
    tree = irregular_tree(5, 80)
    leaves = tree.leaf_names()
    # the encoded dataset lists the leaves in the tree's own order
    assert list(encode_tree(tree).leaves) == leaves
    for names in (leaves, tuple(leaves)):
        assert tree.ids_of(names) is tree.leaves
    rng = np.random.default_rng(0)
    shuffled = [leaves[i] for i in rng.permutation(len(leaves))]
    for names in (shuffled, shuffled[: len(leaves) // 2], leaves[::-1], leaves[:1], list(tree.names)):
        assert tree.ids_of(names).tolist() == [tree.id_of(name) for name in names]
    with pytest.raises(KeyError, match="wolf"):
        tree.ids_of([*leaves[:-1], "wolf"])
    with pytest.raises(KeyError, match="wolf"):
        tree.ids_of(["wolf", *shuffled[1:]])


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([2, 3, 409, 1_000_003]), st.integers(1, 5), st.data())
def test_dataset_json_round_trips_digit_matrices(p, K, data):
    row = st.tuples(*[st.integers(0, p - 1)] * K)
    digits = data.draw(st.lists(row, max_size=30, unique=True))
    n = len(digits)
    ds = EncodedDataset(CodecParams(p, K), tuple(f"r{i}" for i in range(n)), digits, [K] * n)
    assert dataset_from_json(dataset_to_json(ds)) == ds


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([2, 3, 409, 1_000_003]), st.integers(1, 5), st.data())
def test_code_texts_format_each_row_as_code_to_text(p, K, data):
    # large p makes the digit values outrun the matrix: the distinct-digit table
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * K), max_size=30))
    digits = np.array(rows, dtype=np.int64).reshape(len(rows), K)
    assert _tree._code_texts(digits) == ["-".join(map(str, row)) for row in rows]


def test_dataset_json_codes_parse_as_int_does():
    doc = {
        "codec": {"p": 11, "K": 2},
        "records": [
            {"leaf": "a", "code": "007-1", "depth": 2},
            {"leaf": "b", "code": " 2-+3", "depth": 2},
            {"leaf": "c", "code": "1_0-4", "depth": 2},
        ],
    }
    ds = dataset_from_json(json.dumps(doc))
    assert ds.digits.tolist() == [[7, 1], [2, 3], [10, 4]]


# --- Oracles: the record-at-a-time parser and code reader that the array
# versions replaced, kept here as references. ---


def _reference_loads_tree(text):
    """Line-by-line edge-list parser with a dict/stack tree walk; returns
    the fields of a TreeSpec as tuples."""
    root_name = None
    parent_of, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise TreeParseError(f"line {lineno}: expected 'child<TAB>parent', got {raw!r}")
        child_name, parent_name = parts[0].strip(), parts[1].strip()
        if not child_name or not parent_name:
            raise TreeParseError(f"line {lineno}: empty node name in {raw!r}")
        if child_name in line_of or child_name == root_name:
            raise TreeParseError(f"line {lineno}: duplicate definition of {child_name!r}")
        if parent_name == "-":
            if root_name is not None:
                raise TreeParseError(
                    f"line {lineno}: second root {child_name!r} "
                    f"(root {root_name!r} already declared)"
                )
            root_name = child_name
        else:
            parent_of[child_name] = parent_name
        line_of[child_name] = lineno
    if root_name is None:
        raise TreeParseError("no root line ('name<TAB>-') found")

    kids_by_name = {name: [] for name in [root_name, *parent_of]}
    for child_name, parent_name in parent_of.items():
        if parent_name not in kids_by_name:
            raise TreeParseError(
                f"line {line_of[child_name]}: parent {parent_name!r} of "
                f"{child_name!r} is never defined"
            )
        kids_by_name[parent_name].append(child_name)
    for kids in kids_by_name.values():
        kids.sort()
    order, stack = [], [root_name]
    while stack:
        name = stack.pop()
        order.append(name)
        stack.extend(reversed(kids_by_name[name]))
    if len(order) != len(kids_by_name):
        visited = set(order)
        stray = next(name for name in parent_of if name not in visited)
        raise TreeParseError(
            f"line {line_of[stray]}: node {stray!r} is unreachable from "
            f"the root (parent cycle)"
        )
    ids = {name: i for i, name in enumerate(order)}
    n = len(order)
    parents, depths, sibling, children = [-1] * n, [0] * n, [0] * n, [()] * n
    for name in order:
        i = ids[name]
        children[i] = tuple(ids[k] for k in kids_by_name[name])
        for j, kid in enumerate(children[i]):
            parents[kid], sibling[kid], depths[kid] = i, j, depths[i] + 1
    leaves = tuple(i for i in range(n) if not children[i])
    max_depth = max(depths[leaf] for leaf in leaves)
    if max_depth == 0:
        raise TreeParseError("hierarchy has only a root: no digits to encode")
    return (
        tuple(order), tuple(parents), tuple(children), tuple(sibling), tuple(depths),
        leaves, max_depth, max(len(c) for c in children),
    )


def _fields(tree):
    return (
        tree.names, tuple(tree.parent.tolist()), tree.children,
        tuple(tree.sibling_index.tolist()), tuple(tree.depth.tolist()),
        tuple(tree.leaves.tolist()), tree.max_depth, tree.b_max,
    )


def _outcome(parse, text):
    """A parse's result, or the message of the TreeParseError it raised."""
    try:
        return parse(text)
    except TreeParseError as exc:
        return f"TreeParseError: {exc}"


# Names differ in case, by a suffix, by quotes and by non-ASCII letters;
# none is "-", starts with "#", holds a tab or a line break, or has
# padding of its own.
_NAMES = st.text("aAbBß漢é'\" .0\x00", min_size=1, max_size=4).filter(
    lambda s: s == s.strip() and s != "-" and not s.startswith("#")
)


@st.composite
def _edge_texts(draw, malformed):
    """Edge-list texts of random trees, lines shuffled, with comments, blank
    lines, padding and CRLF; with malformed=True, also one or two
    breakages: a wrong tab count, an empty name, a repeated child, a
    second root, an undefined parent, a parent cycle or no root."""
    names = draw(st.lists(_NAMES, min_size=2, max_size=14, unique=True))
    edges = [[names[0], "-"]] + [
        [name, names[draw(st.integers(0, i - 1))]] for i, name in enumerate(names[1:], 1)
    ]
    for extra in range(draw(st.integers(1, 2)) if malformed else 0):
        edge = edges[draw(st.integers(0, len(names) - 1))]
        kind = draw(st.sampled_from(["tabs", "empty", "repeat", "root", *["parent"] * 3]))
        if kind == "tabs":
            edges.append(draw(st.sampled_from([["x"], ["a", "b", "c"], ["a", "b", ""]])))
        elif kind == "empty":
            edges.append(draw(st.sampled_from([["", names[0]], ["new", ""], [" ", " "]])))
        elif kind == "repeat":
            edges.append([edge[0], draw(st.sampled_from(names))])
        elif kind == "root":
            edges.append([f"root{extra}", "-"])
        else:  # undefined, a cycle through a descendant, or the root demoted
            edge[1] = draw(st.sampled_from([*names, "ghost"]))
    edges = draw(st.permutations(edges))
    pad = st.sampled_from(["", " ", "  "])
    lines = ["\t".join(draw(pad) + part + draw(pad) for part in edge) for edge in edges]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "  # a\tb", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=300, deadline=None, database=None)
@given(_edge_texts(malformed=False))
def test_loads_tree_matches_reference_parser(text):
    assert _fields(loads_tree(text)) == _reference_loads_tree(text)


@settings(max_examples=400, deadline=None, database=None)
@given(_edge_texts(malformed=True))
def test_loads_tree_errors_match_reference_parser(text):
    ours = _outcome(lambda t: _fields(loads_tree(t)), text)
    assert ours == _outcome(_reference_loads_tree, text)


# One character that makes loads_tree rewrite a text line by line before
# splitting it (padding, a blank or comment line, another line break or
# whitespace), or that breaks a line (a tab or line break mid-name).
_IRREGULAR = st.sampled_from(
    [" ", "\t", "\n", "\r", "\r\n", "#", "\x0b", "\x1f", "\xa0", "\u2028", "\u3000"]
)


@st.composite
def _nearly_plain_edge_texts(draw):
    """Edge-list texts of random trees that split at every newline as they
    stand (no padding, blank or comment line, one kind of line break),
    with or without a final newline, and then, in most examples, one
    irregular character inserted, often next to a separator or an end."""
    names = draw(st.lists(_NAMES, min_size=2, max_size=10, unique=True))
    edges = [(names[0], "-")] + [
        (name, names[draw(st.integers(0, i - 1))]) for i, name in enumerate(names[1:], 1)
    ]
    text = "\n".join(map("\t".join, draw(st.permutations(edges))))
    text += draw(st.sampled_from(["", "\n"]))
    if draw(st.integers(0, 3)):
        seps = [i for i, c in enumerate(text) if c in "\t\n"]
        spots = sorted({0, len(text), *seps, *(i + 1 for i in seps)})
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(spots)))
        text = text[:at] + draw(_IRREGULAR) + text[at:]
    return text


@settings(max_examples=400, deadline=None, database=None)
@given(_nearly_plain_edge_texts())
def test_loads_tree_splits_plain_texts_as_the_reference_parser(text):
    ours = _outcome(lambda t: _fields(loads_tree(t)), text)
    assert ours == _outcome(_reference_loads_tree, text)


@pytest.mark.parametrize(
    "text",
    [
        "r\t-\na\tr ", "r\t-\na\tr \n", " r\t-\na\tr", "r\t-\n a\tr", "r\t-\na \tr",
        "r\t-\na\t r", "r\t- \na\tr", "#c\nr\t-\na\tr", "r\t-\n#c\na\tr", "r\t-\na\t#r",
        "\nr\t-\na\tr", "r\t-\n\na\tr", "r\t-\na\tr\n\n", "r\t-\n\t\na\tr", "r\t-\r\na\tr\r\n",
        "r\t-\na\u2028b\tr", "r\t-\na\xa0b\tr", "r\t-\na\tr\t", "\tr\t-\na\tr", "", "\n", "#\n",
    ],
)
def test_loads_tree_edges_of_plain_texts_match_reference_parser(text):
    # one irregular byte at each place where names and lines start and end
    ours = _outcome(lambda t: _fields(loads_tree(t)), text)
    assert ours == _outcome(_reference_loads_tree, text)


def test_loads_tree_drops_one_byte_order_mark():
    text = "a\tr\nr\t-\nb\tr\n"
    for marked in ("\ufeff" + text, "\ufeffr\t-\na\tr\nb\tr\n"):
        tree = loads_tree(marked)
        assert tree == loads_tree(text)
        assert tree.leaf_names() == ["a", "b"]
        assert encode_tree(tree).digits.tolist() == [[0], [1]]
    # only the first: a second mark is part of the first name
    assert loads_tree("\ufeff\ufeff" + text).leaf_names() == ["b", "\ufeffa"]


def test_name_lookups_read_the_parser_table():
    text = dump_tree(irregular_tree(3, 60))
    shuffled = "\n".join(text.splitlines()[::-1])
    for tree in (loads_tree(text), loads_tree(shuffled), gen_synthetic("random", 4, 3, 2)):
        names = list(tree.names)
        want = list(range(tree.n_nodes))
        assert tree.ids_of(names).tolist() == want
        assert [tree.id_of(name) for name in names] == want
        assert tree.name_to_id == dict(zip(names, want))
        rows, ids = tree.name_table
        assert not ids.flags.writeable and ids.dtype == np.int64
        assert sorted(ids[list(rows.values())].tolist()) == want


@pytest.mark.parametrize(
    "args",
    [("complete", 3, 3, 0), ("complete", 1, 4, 0), ("random", 4, 4, 11), ("random", 12, 3, 5)],
)
def test_gen_synthetic_matches_reference_parser(args):
    tree = gen_synthetic(*args)
    assert _fields(tree) == _reference_loads_tree(dump_tree(tree))


def test_reversed_edge_lists_match_reference_parser():
    for seed in range(3):
        text = dump_tree(irregular_tree(seed, 300, max_children=30))
        lines = text.splitlines()
        shuffled = "\n".join(lines[::-1]) + "\n"
        assert _fields(loads_tree(shuffled)) == _reference_loads_tree(shuffled)


def _reference_parse_codes(codes, leaves, K):
    """Codes through int() one token at a time."""
    if all(text.count("-") == K - 1 for text in codes):
        try:
            parts = [int(d) for text in codes for d in text.split("-")]
            return np.array(parts, dtype=np.int64).reshape(-1, K)
        except (ValueError, OverflowError):
            pass
    leaf, text = next(
        (leaf, text) for leaf, text in zip(leaves, codes) if not _tree._is_code(text, K)
    )
    raise ValueError(
        f"malformed dataset JSON: record {leaf!r} has code {text!r}, "
        f"not {K} hyphen-separated digits"
    )


@pytest.mark.parametrize(
    "codes,K,byte_path",
    [
        (["0-1", "1-0", "2-2"], 2, True),
        (["007-1", "00-000"], 2, True),
        (["999999999999999999-0"], 2, True),  # 18 digits: the largest byte token
        (["0", "12", "408"], 1, True),
        (["+1-2"], 2, False),
        (["1-+2", "3-4"], 2, False),
        (["١-٢"], 2, False),  # Arabic-Indic digits
        (["1-٣"], 2, False),
        (["1234567890123456789-0"], 2, False),  # 19 digits, fits int64
        (["9999999999999999999-0"], 2, False),  # 19 digits, past int64
        ([" 1-2"], 2, False),
        (["1_0-2"], 2, False),
        (["1--2"], 3, False),
        (["-1-2"], 3, False),
        (["1-2-"], 3, False),
        (["1-2", ""], 2, False),
        ([""], 1, False),
        (["1-2-3"], 2, False),
        (["1"], 2, False),
        (["1-2", "3"], 2, False),
        (["1", "2-3"], 2, False),
        (["1-2\n3-4"], 2, False),
        (["1-a"], 2, False),
    ],
)
def test_parse_codes_matches_int_reading(codes, K, byte_path):
    leaves = [f"r{i}" for i in range(len(codes))]
    assert (_tree._parse_ascii_codes(codes, K) is not None) == byte_path
    try:
        want = _reference_parse_codes(codes, leaves, K)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _tree._parse_codes(codes, leaves, K)
        assert str(got.value) == str(exc)
    else:
        got = _tree._parse_codes(codes, leaves, K)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _reference_dataset_to_json(ds):
    """Record-at-a-time writer: json.dumps of each leaf and each code's
    digits joined one row at a time."""
    lines = [
        f'{{"code": "{"-".join(map(str, row))}", "depth": {depth}, "leaf": {json.dumps(leaf)}}}'
        for row, depth, leaf in zip(ds.digits.tolist(), ds.depths.tolist(), ds.leaves)
    ]
    codec = json.dumps({"p": ds.codec.p, "K": ds.codec.K}, sort_keys=True)
    return f'{{"codec": {codec}, "records": [\n' + ",\n".join(lines) + "\n]}\n"


# Leaf names with quotes, backslashes, control characters, non-ASCII and
# astral characters and a lone surrogate, which JSON escapes.
_LEAF_NAMES = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é漢\U0001f600\ud800'), st.characters()),
    max_size=6,
)


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([2, 3, 11, 409, 1_000_003, 2**61 - 1]), st.integers(1, 4), st.data())
def test_dataset_to_json_matches_record_writer(p, K, data):
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * K), max_size=25, unique=True))
    n = len(rows)
    leaves = data.draw(st.lists(_LEAF_NAMES, min_size=n, max_size=n, unique=True))
    depths = data.draw(st.lists(st.integers(1, K), min_size=n, max_size=n))
    ds = EncodedDataset(CodecParams(p, K), tuple(leaves), rows, depths)
    text = dataset_to_json(ds)
    assert text == _reference_dataset_to_json(ds)
    assert dataset_from_json(text) == ds


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([3, 409, 2**61 - 1]), st.integers(1, 4), st.integers(1, 9), st.data())
def test_parse_codes_reads_block_by_block(p, K, block, data):
    # small blocks put block boundaries between every few codes; a code
    # the byte reader refuses, in any block, sends them all to int()
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * K), min_size=1, max_size=30))
    codes = ["-".join(map(str, row)) for row in rows]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(codes) - 1))
        codes[i] = data.draw(st.sampled_from(["+" + codes[i], codes[i] + "-0", "0" * 19, "x"]))
    leaves = [f"r{i}" for i in range(len(codes))]
    saved, _tree._CODE_BLOCK = _tree._CODE_BLOCK, block
    try:
        got = _outcome_of(lambda: _tree._parse_codes(codes, leaves, K))
    finally:
        _tree._CODE_BLOCK = saved
    want = _outcome_of(lambda: _reference_parse_codes(codes, leaves, K))
    assert got == want


def _outcome_of(parse):
    """A parse's digits as lists, or the message of the ValueError it raised."""
    try:
        return parse().tolist()
    except ValueError as exc:
        return f"ValueError: {exc}"
