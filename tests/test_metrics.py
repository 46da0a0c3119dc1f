"""Diagnostics: accuracy, rank correlation, triangles, entropy, fractal, ECE."""

import json
import math
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hipan import (
    ModelConfig,
    accuracy_report,
    binned_calibration,
    box_count_dimension,
    code,
    diagnose,
    digit_entropy_profile,
    encode_tree,
    evaluate,
    gen_synthetic,
    lca_depth,
    lca_depths,
    loads_tree,
    new_model,
    prefix_entropy_profile,
    spearman_ultrametric,
    triangle_violation_count,
    triangle_violations,
    ultrametric_distance,
)
from hipan import metrics, tree as tree_module
from hipan.metrics import (
    BoxCountResult,
    DiagnosticsReport,
    SpearmanResult,
    TriangleReport,
    average_ranks,
    evaluate_digits,
    write_box_counts_tsv,
    write_distance_matrix_tsv,
    write_entropy_tsv,
    write_reliability_tsv,
)
from hipan.rng import child_rng
from hipan.tree import CodeIndex, EncodedDataset
from conftest import digits_dataset, irregular_tree


# --- the gather engine: the diagnostics before the code index, kept as an
# oracle.  Every pair distance gathers both digit rows; every prefix count
# sorts the matrix again.


def _first_difference(a, b):
    diffs = a != b
    return np.where(diffs.any(axis=1), diffs.argmax(axis=1), a.shape[1])


def _pair_distances(D, p, i, j):
    val = _first_difference(D[i], D[j])
    return np.where(val < D.shape[1], np.power(float(p), -val.astype(np.float64)), 0.0)


def _gather_triangles(D, p, distance_fn, exhaustive_limit, seed):
    n = D.shape[0]
    if n < 3:
        return TriangleReport(0, 0, True)
    exhaustive = n * (n - 1) * (n - 2) // 6 <= exhaustive_limit
    if exhaustive:
        triples = np.array(list(combinations(range(n), 3)), dtype=np.int64)
    else:
        draws = child_rng(seed, "triangles").integers(
            0, n, size=(int(exhaustive_limit * 1.3) + 16, 3)
        )
        distinct = (
            (draws[:, 0] != draws[:, 1])
            & (draws[:, 0] != draws[:, 2])
            & (draws[:, 1] != draws[:, 2])
        )
        triples = draws[distinct][:exhaustive_limit]
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    if distance_fn is None:
        sides = [_pair_distances(D, p, x, y) for x, y in ((a, b), (b, c), (a, c))]
    else:
        sides = [
            np.array([distance_fn(D[u], D[v]) for u, v in zip(x, y)])
            for x, y in ((a, b), (b, c), (a, c))
        ]
    sides = np.sort(np.stack(sides, axis=1), axis=1)
    return TriangleReport(len(triples), int((sides[:, 2] > sides[:, 1]).sum()), exhaustive)


def _gather_group_sizes(D):
    n, K = D.shape
    if n == 0:
        return [np.zeros(0, dtype=np.int64) for _ in range(K)]
    S = D[np.lexsort(D.T[::-1])]
    first_diff = _first_difference(S[1:], S[:-1])
    return [
        np.diff(np.concatenate(([0], np.flatnonzero(first_diff < k) + 1, [n])))
        for k in range(1, K + 1)
    ]


def _gather_box_count(D, p):
    K = D.shape[1]
    counts = [1] + [len(sizes) for sizes in _gather_group_sizes(D)]
    points = tuple((k, counts[k]) for k in range(K + 1))
    fit_ks = [k for k in range(K + 1) if 1 < counts[k] < counts[K]]
    if len(fit_ks) < 2:
        return BoxCountResult(float("nan"), float("nan"), points, tuple(fit_ks), False)
    x = np.array(fit_ks, dtype=np.float64) * np.log(p)
    y = np.log([counts[k] for k in fit_ks])
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    resid = y - (ym + slope * (x - xm))
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return BoxCountResult(slope, r2, points, tuple(fit_ks), True)


def _gather_diagnose(model, dataset, tree, max_pairs, triangle_limit, seed):
    D, p = dataset.digits_matrix(), dataset.codec.p
    evaluation = evaluate_digits(model, D, tree, tree.ids_of(dataset.leaves))
    prefix = [0.0] + [metrics._entropy_bits(c) for c in _gather_group_sizes(D)]
    return DiagnosticsReport(
        accuracy=evaluation.accuracy(),
        spearman=_spearman_per_pair(dataset, tree, max_pairs, seed),
        triangles=_gather_triangles(D, p, None, triangle_limit, seed),
        digit_entropy=tuple(float(h) for h in digit_entropy_profile(dataset)),
        prefix_entropy=tuple(prefix),
        box_count=_gather_box_count(D, p),
        calibration=evaluation.calibration(15),
    )


def _decisive_zero_model(codec):
    """Always answers digit 0, with scores far beyond the accept margin and
    every anchor at 0."""
    m = new_model(ModelConfig(codec), seed=0)
    for head in m.heads:
        head.table[...] = 0.0
        head.table[:, 0] = 9.0
        head.anchor[:] = 0.0
    return m


def test_average_ranks_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.integers(0, 6, size=40).astype(float)
        assert np.allclose(average_ranks(x), scipy.stats.rankdata(x, method="average"))


def test_accuracy_report_hand_counts(toy_tree, toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    rep = accuracy_report(m, toy_dataset, toy_tree)
    # cat 0-0 reconstructs; dog and fern collapse onto cat
    assert rep.leaf_accuracy == pytest.approx(1 / 3)
    assert rep.code_accuracy == pytest.approx(1 / 3)
    assert rep.root_accuracy == pytest.approx(2 / 3)
    assert rep.digit_accuracy == (pytest.approx(2 / 3), pytest.approx(2 / 3))
    assert rep.n_records == 3


def test_accuracy_report_without_tree(toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    rep = accuracy_report(m, toy_dataset)
    assert rep.leaf_accuracy == rep.code_accuracy


def test_accuracy_report_empty_dataset(toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    empty = type(toy_dataset)(toy_dataset.codec, (), [], [])
    with pytest.raises(ValueError, match="empty"):
        accuracy_report(m, empty)


def _spearman_oracle(dataset, tree):
    depths, dists = [], []
    for ra, rb in combinations(dataset.records, 2):
        depths.append(lca_depth(tree, ra.leaf, rb.leaf))
        dists.append(ultrametric_distance(ra.code, rb.code))
    return scipy.stats.spearmanr(depths, dists).statistic


def test_spearman_matches_scipy_oracle():
    for seed in (0, 1, 2):
        tree = irregular_tree(seed, 30)
        ds = encode_tree(tree)
        got = spearman_ultrametric(ds, tree)
        assert not got.degenerate
        assert got.n_pairs == len(ds.records) * (len(ds.records) - 1) // 2
        assert got.rho == pytest.approx(_spearman_oracle(ds, tree), abs=1e-12)


def _spearman_per_pair(dataset, tree, max_pairs, seed):
    """spearman_ultrametric with pairs from combinations (or the same
    seeded draws) and one lca_depth call per pair."""
    n = len(dataset.records)
    if n < 2:
        return SpearmanResult(0.0, 0, True)
    if n * (n - 1) // 2 <= max_pairs:
        pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64)
    else:
        draws = child_rng(seed, "spearman").integers(0, n, size=(int(max_pairs * 1.2) + 16, 2))
        pairs = draws[draws[:, 0] != draws[:, 1]][:max_pairs]
    names = [r.leaf for r in dataset.records]
    depths = np.array([lca_depth(tree, names[a], names[b]) for a, b in pairs], dtype=np.float64)
    dists = _pair_distances(dataset.digits_matrix(), dataset.codec.p, pairs[:, 0], pairs[:, 1])
    rx, ry = average_ranks(depths), average_ranks(dists)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return SpearmanResult(0.0, len(pairs), True)
    rho = float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))
    return SpearmanResult(rho, len(pairs), False)


@st.composite
def _irregular_trees(draw):
    branching, depth = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    room = sum(branching**d for d in range(1, depth + 1))
    size = min(room, draw(st.integers(1, 60)))
    return irregular_tree(draw(st.integers(0, 10_000)), size, branching, depth)


@settings(max_examples=150, deadline=None, database=None)
@given(_irregular_trees(), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_spearman_matches_per_pair_lca_depth(tree, max_pairs, seed):
    # max_pairs from 1 to 400 against up to ~1,800 leaf pairs takes both
    # the sampled and the all-pairs branch
    ds = encode_tree(tree)
    got = spearman_ultrametric(ds, tree, max_pairs=max_pairs, seed=seed)
    assert got == _spearman_per_pair(ds, tree, max_pairs, seed)


@settings(max_examples=100, deadline=None, database=None)
@given(_irregular_trees(), st.data())
def test_lca_depths_match_lca_depth(tree, data):
    nodes = st.lists(st.integers(0, tree.n_nodes - 1), min_size=0, max_size=40)
    a = np.array(data.draw(nodes), dtype=np.int64)
    b = np.array(data.draw(st.permutations(a.tolist())), dtype=np.int64)
    b[::3] = a[::3]  # some pairs of a node with itself
    want = [lca_depth(tree, int(x), int(y)) for x, y in zip(a, b)]
    assert lca_depths(tree, a, b).tolist() == want


def test_lca_depths_refuse_ids_outside_the_tree(toy_tree):
    n = toy_tree.n_nodes
    assert lca_depths(toy_tree, [], []).tolist() == []
    assert lca_depths(toy_tree, [n - 1], [0]).tolist() == [0]
    for bad in (n, -1):
        with pytest.raises(IndexError, match="node ids"):
            lca_depths(toy_tree, [0, bad], [0, 0])
        with pytest.raises(IndexError, match="node ids"):
            lca_depths(toy_tree, [0, 0], [0, bad])


def test_spearman_complete_tree_is_minus_one():
    tree = gen_synthetic("complete", 3, 3)
    ds = encode_tree(tree)
    res = spearman_ultrametric(ds, tree)
    assert res.rho == pytest.approx(-1.0, abs=1e-12)


def test_spearman_sampling_path():
    tree = gen_synthetic("complete", 3, 3)  # 351 pairs
    ds = encode_tree(tree)
    res = spearman_ultrametric(ds, tree, max_pairs=100)
    assert res.n_pairs == 100
    assert res.rho == pytest.approx(-1.0, abs=1e-12)


def test_spearman_degenerate_inputs(toy_tree, toy_dataset):
    single = type(toy_dataset)(
        toy_dataset.codec,
        toy_dataset.leaves[:1],
        toy_dataset.digits[:1],
        toy_dataset.depths[:1],
    )
    res = spearman_ultrametric(single, toy_tree)
    assert res.degenerate and res.rho == 0.0 and res.n_pairs == 0
    # star tree: every pair has LCA depth 0 and distance 1, both axes tie
    star = loads_tree("root\t-\na\troot\nb\troot\nc\troot\n")
    res2 = spearman_ultrametric(encode_tree(star), star)
    assert res2.degenerate and res2.rho == 0.0


def test_triangle_violations_valuation_metric(toy_dataset):
    rep = triangle_violations(toy_dataset)
    assert rep.violations == 0
    assert rep.checked == 1
    assert rep.exhaustive


def test_triangle_violations_corrupted_hook_fires():
    # euclidean distance on digit rows is not ultrametric
    ds = digits_dataset([[0, 0], [1, 1], [2, 2]], p=3)
    euclid = lambda a, b: float(np.linalg.norm(a - b))
    assert triangle_violations(ds, distance_fn=euclid).violations > 0
    assert triangle_violations(ds).violations == 0


def test_triangle_violations_sampled():
    tree = gen_synthetic("complete", 3, 4)  # C(81,3) = 85320 triples
    ds = encode_tree(tree)
    rep = triangle_violations(ds, exhaustive_limit=500)
    assert not rep.exhaustive
    assert rep.checked <= 500
    assert rep.violations == 0


def test_triangle_violation_count_over_codes():
    codes = [code([0, 0], 3), code([1, 1], 3), code([2, 2], 3)]
    assert triangle_violation_count(codes) == 0
    euclid = lambda a, b: float(np.linalg.norm(a - b))
    assert triangle_violation_count(codes, distance_fn=euclid) > 0
    assert triangle_violation_count([]) == 0
    assert triangle_violation_count(codes[:2]) == 0
    with pytest.raises(ValueError, match="mix"):
        triangle_violation_count([code([0, 0], 3), code([0, 0], 5)])


def test_digit_entropy_profile(toy_dataset):
    prof = digit_entropy_profile(toy_dataset)
    h = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert prof == pytest.approx([h, h])


def test_digit_entropy_can_decrease():
    # all branching at the root: digit 1 is deterministic
    tree = loads_tree("root\t-\na\troot\nb\troot\na1\ta\nb1\tb\n")
    prof = digit_entropy_profile(encode_tree(tree))
    assert prof[0] == pytest.approx(1.0)
    assert prof[1] == 0.0


def test_prefix_entropy_profile(toy_dataset):
    prof = prefix_entropy_profile(toy_dataset)
    h = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert prof == pytest.approx([0.0, h, math.log2(3)])
    assert len(prof) == toy_dataset.codec.K + 1


def test_prefix_entropy_nondecreasing_random_trees():
    for seed in range(10):
        ds = encode_tree(irregular_tree(seed, 30))
        prof = prefix_entropy_profile(ds)
        assert np.all(np.diff(prof) >= -1e-12)


@st.composite
def _digit_matrices(draw):
    n, K = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    # few digit values, so prefixes repeat and whole rows repeat
    top = draw(st.integers(0, 3))
    cells = draw(st.lists(st.integers(0, top), min_size=n * K, max_size=n * K))
    return np.array(cells, dtype=np.int64).reshape(n, K)


@settings(max_examples=300, deadline=None, database=None)
@given(_digit_matrices())
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((0, 1), dtype=np.int64))
@example(np.array([[2, 0, 1]], dtype=np.int64))
@example(np.array([[1], [0], [1]], dtype=np.int64))
def test_prefix_group_sizes_match_unique_per_prefix_length(D):
    sizes = CodeIndex(D).prefix_group_sizes()
    assert len(sizes) == D.shape[1]
    for k, got in enumerate(sizes, start=1):
        _, want = np.unique(D[:, :k], axis=0, return_counts=True)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _all_pairs(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return i.ravel(), j.ravel()


@settings(max_examples=300, deadline=None, database=None)
@given(_digit_matrices())
@example(np.zeros((0, 2), dtype=np.int64))
@example(np.array([[3]], dtype=np.int64))
@example(np.array([[1, 1], [1, 1]], dtype=np.int64))
@example(np.array([[1], [0], [1]], dtype=np.int64))
@example(np.array([[2, 0, 1], [0, 3, 3], [0, 3, 1]], dtype=np.int64))
def test_code_index_first_difference_matches_gathered_rows(D):
    # rows in any order, repeated rows and every pair of a row with itself
    index = CodeIndex(D)
    i, j = _all_pairs(len(D))
    got = index.first_difference(i, j)
    assert np.array_equal(got, _first_difference(D[i], D[j]))
    for row in range(len(D)):  # one row against all, as the TSV writer asks
        cols = np.arange(len(D))
        assert np.array_equal(
            index.first_difference(row, cols), _first_difference(D[[row] * len(D)], D)
        )
    assert np.array_equal(D[index.order], D[np.lexsort(D.T[::-1])])


@settings(max_examples=100, deadline=None, database=None)
@given(_digit_matrices())
def test_code_index_ascending_rows_skip_the_sort(D):
    rows = np.unique(D, axis=0)
    assert tree_module._rows_ascend(rows)
    fast = CodeIndex(rows)
    with patch.object(tree_module, "_rows_ascend", lambda digits: False):
        sorted_ = CodeIndex(rows)
    for name in ("order", "rank", "lcp", "_table"):
        assert np.array_equal(getattr(fast, name), getattr(sorted_, name))
    i, j = _all_pairs(len(rows))
    assert np.array_equal(fast.first_difference(i, j), sorted_.first_difference(i, j))


def _shuffled(ds, seed):
    perm = np.random.default_rng(seed).permutation(ds.n_records)
    return EncodedDataset(
        ds.codec, tuple(ds.leaves[k] for k in perm), ds.digits[perm], ds.depths[perm]
    )


@settings(max_examples=80, deadline=None, database=None)
@given(
    _irregular_trees(),
    st.booleans(),
    st.integers(1, 400),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
def test_diagnose_matches_gather_engine(tree, shuffle, max_pairs, triangle_limit, seed):
    ds = encode_tree(tree)
    if shuffle:
        ds = _shuffled(ds, seed)
    model = new_model(ModelConfig(ds.codec), seed=seed % 97)
    got = diagnose(
        model, ds, tree, max_pairs=max_pairs, triangle_limit=triangle_limit, seed=seed
    )
    want = _gather_diagnose(model, ds, tree, max_pairs, triangle_limit, seed)
    assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())


@settings(max_examples=80, deadline=None, database=None)
@given(_digit_matrices(), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_triangle_counts_match_gather_engine(D, limit, seed):
    # bare codes may repeat; the corrupted hook takes the per-pair path
    euclid = lambda a, b: float(np.linalg.norm(a - b))
    codes = [code(row, 5) for row in D.tolist()]
    ds = digits_dataset(D, 5)
    for hook in (None, euclid):
        want = _gather_triangles(D, 5, hook, limit, seed)
        assert triangle_violations(ds, hook, limit, seed) == want
        assert triangle_violation_count(codes, limit, seed, hook) == want.violations


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "sides",
    [
        (1, 1, 1), (2, 2, 1), (2, 1, 2), (1, 2, 2), (0, 3, 3),  # ties at the maximum
        (1, 1, 2), (2, 1, 1), (1, 2, 1), (0, 1, 3),  # a unique maximum
        (0.5, 0.5, 0.5), (0.25, 0.5, 0.5), (0.5, 0.25, 0.125), (-0.0, 0.0, -1.0),
        (NAN, 1, 1), (1, NAN, 2), (2, 1, NAN), (NAN, NAN, 1), (NAN, NAN, NAN),
        (INF, 1, 1), (INF, INF, 1), (1, INF, INF), (INF, INF, INF), (INF, NAN, 1),
        (-INF, -INF, 0), (-INF, 0, 0), (-INF, -INF, -INF),
    ],
)
def test_violation_rule_matches_sort_oracle(sides):
    # the one triple of three rows, whose sides ab, bc and ac the hook gives;
    # the gather engine's sort-based rule is the oracle
    D = np.array([[0], [1], [2]], dtype=np.int64)
    table = {(0, 1): sides[0], (1, 2): sides[1], (0, 2): sides[2]}
    hook = lambda u, v: table[int(u[0]), int(v[0])]
    want = _gather_triangles(D, 3, hook, 1, 0)
    unique_max = sides.count(max(sides)) == 1 and not any(map(math.isnan, sides))
    assert want == TriangleReport(1, int(unique_max), True)
    assert triangle_violations(digits_dataset(D, 3), distance_fn=hook) == want


@settings(max_examples=80, deadline=None, database=None)
@given(_digit_matrices(), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_hook_with_nan_and_inf_matches_sort_oracle(D, limit, seed):
    values = [0.0, 1.0, 1.0, 2.0, INF, NAN, -INF, 2.0]
    hook = lambda u, v: values[(3 * int(u.sum()) + int(v.sum())) % len(values)]
    codes = [code(row, 5) for row in D.tolist()]
    want = _gather_triangles(D, 5, hook, limit, seed)
    assert triangle_violations(digits_dataset(D, 5), hook, limit, seed) == want
    assert triangle_violation_count(codes, limit, seed, hook) == want.violations


@pytest.mark.parametrize("limit", [1000, 60])
def test_index_sides_are_ab_bc_and_ac(monkeypatch, limit):
    # no ultrametric: a made-up first difference (0..K) of two sorted positions
    fake = lambda self, ri, rj: np.asarray((ri + 2 * rj) % 3, dtype=np.uint8)
    monkeypatch.setattr(CodeIndex, "first_difference_sorted", fake)
    D = np.array(list(np.ndindex(3, 4)), dtype=np.int64)[::-1]  # 12 rows, descending
    ds = digits_dataset(D, 5)
    rank = {tuple(row): int(r) for row, r in zip(D.tolist(), ds.code_index.rank)}
    level = lambda u, v: 2 - int(fake(None, rank[tuple(u)], rank[tuple(v)]))
    got = triangle_violations(ds, exhaustive_limit=limit, seed=4)
    assert got.exhaustive == (limit == 1000) and got.violations > 0
    assert got == _gather_triangles(D, 5, level, limit, 4)


@pytest.mark.parametrize("n", [*range(13), 107])
def test_triples_match_combinations(n):
    want = np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    got = metrics._triples(n)
    assert all(col.dtype == np.int64 for col in got)
    assert np.array_equal(np.stack(got, axis=1), want)


# --- streamed samples: the geometry checks draw, keep and measure their
# samples in blocks of metrics._BLOCK rows, and must take exactly the rows
# one draw of the whole budget takes


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(1, 2**40),
    st.integers(0, 300),
    st.integers(1, 3),
    st.lists(st.integers(1, 70), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_chunked_integers_match_one_draw(n, rows, width, sizes, seed):
    # the property the block sampler rests on, for even and odd block sizes
    want = child_rng(seed, "spearman").integers(0, n, size=(rows, width))
    rng, parts, drawn = child_rng(seed, "spearman"), [], 0
    while drawn < rows:
        size = min(sizes[len(parts) % len(sizes)], rows - drawn)
        parts.append(rng.integers(0, n, size=(size, width)))
        drawn += size
    assert np.array_equal(np.concatenate([want[:0], *parts]), want)


def _all_differ(draws):
    distinct = np.ones(len(draws), dtype=bool)
    for x, y in combinations(draws.T, 2):
        distinct &= x != y
    return distinct


def _one_draw_sample(seed, stream, n, width, limit, rate):
    """The sample as one block takes it: all int(limit * rate) + 16 rows
    in one draw, then the first limit rows whose entries all differ."""
    draws = child_rng(seed, stream).integers(0, n, size=(int(limit * rate) + 16, width))
    return draws[_all_differ(draws)][:limit]


def _streamed_blocks(block, *args):
    with patch.object(metrics, "_BLOCK", block):
        return [np.stack(cols, axis=1) for cols in metrics._distinct_blocks(*args)]


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.sampled_from([1, 7, 64]),
    st.integers(2, 40),
    st.integers(2, 3),
    st.integers(1, 300),
    st.sampled_from([0.0, 1.2, 1.3]),
    st.integers(0, 2**32 - 1),
)
def test_distinct_blocks_match_one_draw(block, n, width, limit, rate, seed):
    # rate 0 leaves a budget of 16 rows, which runs out before most limits
    args = (seed, "triangles", n, width, limit, rate)
    blocks = _streamed_blocks(block, *args)
    assert all(b.dtype == np.int64 and b.shape[1] == width for b in blocks)
    assert np.array_equal(np.concatenate(blocks), _one_draw_sample(*args))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_distinct_blocks_stop_at_a_block_that_ends_at_the_limit(block):
    # pick the limit whose last row closes a block: the sampler yields
    # exactly the blocks up to it and draws no further
    seed, n, width, rate = 3, 6, 3, 10.0
    prefix = child_rng(seed, "triangles").integers(0, n, size=(4000, width))
    ends = np.flatnonzero(_all_differ(prefix)) + 1  # row count up to each kept row
    limit = 1 + int(np.flatnonzero((ends % block == 0) & (ends > block))[0])
    args = (seed, "triangles", n, width, limit, rate)
    blocks = _streamed_blocks(block, *args)
    assert len(blocks) == ends[limit - 1] // block
    assert np.array_equal(np.concatenate(blocks), _one_draw_sample(*args))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_distinct_blocks_when_the_budget_runs_out(block):
    # 3 indices make 6 distinct triples of 27: 146 rows keep about 32
    args = (0, "triangles", 3, 3, 100, 1.3)
    got = np.concatenate(_streamed_blocks(block, *args))
    assert 0 < len(got) < 100
    assert np.array_equal(got, _one_draw_sample(*args))


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from([1, 7, 64]),
    _irregular_trees(),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_streamed_checks_match_one_draw_oracles(block, tree, limit, seed):
    # both oracles draw their whole sample at once; the exhaustive pairs
    # come in row blocks of every size too, and the euclidean hook makes
    # violations to add up over the blocks
    ds = encode_tree(tree)
    D, p = ds.digits_matrix(), ds.codec.p
    euclid = lambda a, b: float(np.linalg.norm(a - b))
    with patch.object(metrics, "_BLOCK", block):
        assert spearman_ultrametric(ds, tree, limit, seed) == _spearman_per_pair(
            ds, tree, limit, seed
        )
        for hook in (None, euclid):
            assert triangle_violations(ds, hook, limit, seed) == _gather_triangles(
                D, p, hook, limit, seed
            )


@pytest.mark.parametrize("block", [1, 7, 64])
def test_streamed_triangles_when_the_budget_runs_out(block):
    # seed 10 keeps 215 distinct triples of 12 rows in its 300-row budget
    D = np.array(list(np.ndindex(3, 4)), dtype=np.int64)
    ds = digits_dataset(D, 5)
    with patch.object(metrics, "_BLOCK", block):
        got = triangle_violations(ds, exhaustive_limit=219, seed=10)
    assert got.checked < 219
    assert got == _gather_triangles(D, 5, None, 219, 10)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_triangles_hold_one_block_whatever_the_limit():
    ds = digits_dataset(np.random.default_rng(0).integers(0, 5, (400, 6)), 5)
    ds.code_index  # built once, outside the traced calls
    peaks = [
        _traced_peak(lambda: triangle_violations(ds, exhaustive_limit=limit))
        for limit in (200_000, 800_000)
    ]
    # one block's draws alone take 3 int64 entries a row
    assert abs(peaks[1] - peaks[0]) < metrics._BLOCK * 3 * 8, peaks


def test_spearman_holds_at_most_40_bytes_a_pair():
    tree = gen_synthetic("random", 8, 5, 0)  # 1,637 leaves: 1.3M pairs
    ds = encode_tree(tree)
    ids = tree.ids_of(ds.leaves)
    ds.code_index, tree.depth_minima  # built once, outside the traced call
    pairs = 400_000
    result = []
    run = lambda: result.append(spearman_ultrametric(ds, tree, max_pairs=pairs, leaf_ids=ids))
    peak = _traced_peak(run)
    assert result[0].n_pairs == pairs and result[0].rho == pytest.approx(-1.0, abs=1e-12)
    assert peak <= 40 * pairs, peak / pairs


def test_depth_minima_are_built_once_per_tree(monkeypatch):
    # neither the per-block lca_depths calls nor a second run rebuild them
    tree = irregular_tree(4, 60)
    ds = encode_tree(tree)
    ds.code_index
    built, init = [], tree_module._RangeMinima.__init__

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)

    monkeypatch.setattr(tree_module._RangeMinima, "__init__", counted)
    with patch.object(metrics, "_BLOCK", 7):
        first = spearman_ultrametric(ds, tree, max_pairs=300, seed=1)
        again = spearman_ultrametric(ds, tree, max_pairs=300, seed=1)
    assert first == again and first.n_pairs == 300
    assert built == [tree_module._RangeMinima]


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=60), st.sampled_from([np.uint8, np.uint16]))
def test_average_ranks_counts_small_unsigned_as_it_sorts(values, dtype):
    x = np.array(values, dtype=np.int64) % (np.iinfo(dtype).max + 1)
    counted = average_ranks(x.astype(dtype))
    sorted_ = average_ranks(x.astype(np.float64))
    assert counted.dtype == sorted_.dtype == np.float64
    assert np.array_equal(counted, sorted_)
    assert np.array_equal(average_ranks(x.astype(np.uint64)), sorted_)


def test_sample_sizes_below_one_raise(toy_tree, toy_dataset):
    model = new_model(ModelConfig(toy_dataset.codec), seed=0)
    codes = [code([0, 0], 3), code([1, 1], 3), code([2, 2], 3)]
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"max_pairs must be at least 1, got {bad}"):
            spearman_ultrametric(toy_dataset, toy_tree, max_pairs=bad)
        with pytest.raises(ValueError, match="exhaustive_limit must be at least 1"):
            triangle_violations(toy_dataset, exhaustive_limit=bad)
        with pytest.raises(ValueError, match="exhaustive_limit must be at least 1"):
            triangle_violation_count(codes, max_triples=bad)
        with pytest.raises(ValueError, match=f"n_bins must be at least 1, got {bad}"):
            binned_calibration([0.5], [True], n_bins=bad)
        for name in ("max_pairs", "triangle_limit", "n_bins"):
            with pytest.raises(ValueError, match=f"{name} must be at least 1, got {bad}"):
                diagnose(model, toy_dataset, toy_tree, **{name: bad})


def _gather_distance_tsv(path, dataset, limit=None):
    leaves = dataset.leaves if limit is None else dataset.leaves[:limit]
    n = len(leaves)
    D = dataset.digits_matrix()[:n]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("leaf\t" + "\t".join(leaves) + "\n")
        for i in range(n):
            row = _pair_distances(D, dataset.codec.p, np.full(n, i), np.arange(n))
            fh.write(leaves[i] + "\t" + "\t".join(repr(float(d)) for d in row) + "\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("limit", [None, 0, 1, 7])
def test_distance_tsv_matches_gather_engine(tmp_path, seed, limit):
    ds = encode_tree(irregular_tree(seed, 40))
    for dataset in (ds, _shuffled(ds, seed)):
        write_distance_matrix_tsv(str(tmp_path / "got.tsv"), dataset, limit)
        _gather_distance_tsv(str(tmp_path / "want.tsv"), dataset, limit)
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_uniform_digits_hit_log2p_exactly():
    p, K = 3, 3
    rows = [[(i // p**k) % p for k in range(K)] for i in range(p**K)]
    ds = digits_dataset(rows, p)
    assert np.allclose(digit_entropy_profile(ds), math.log2(p), atol=1e-12)


def test_box_count_complete_binary():
    tree = gen_synthetic("complete", 2, 4)
    res = box_count_dimension(encode_tree(tree))
    assert res.defined
    # N(k) = 2^k under p=3: slope is exactly log 2 / log 3
    assert res.d0 == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert res.fit_r2 == pytest.approx(1.0, abs=1e-12)
    assert res.points == ((0, 1), (1, 2), (2, 4), (3, 8), (4, 16))
    assert res.fit_levels == (1, 2, 3)


def test_box_count_undefined_cases():
    single = digits_dataset([[0, 0, 0]], p=2)
    res = box_count_dimension(single)
    assert not res.defined
    assert math.isnan(res.d0) and math.isnan(res.fit_r2)
    assert res.fit_levels == ()
    # two leaves at K=1 saturate instantly: no interior scales
    pair = digits_dataset([[0], [1]], p=2)
    assert not box_count_dimension(pair).defined


def test_binned_calibration_hand_oracle():
    rep = binned_calibration([0.9, 0.9, 0.6, 0.6], [True, True, True, False])
    assert rep.ece == pytest.approx(0.1, abs=1e-12)
    assert rep.brier == pytest.approx(0.135, abs=1e-12)
    assert rep.n_records == 4
    assert len(rep.bins) == 15
    filled = [b for b in rep.bins if b.count]
    assert [(b.count, b.mean_confidence, b.accuracy) for b in filled] == [
        (2, pytest.approx(0.6), pytest.approx(0.5)),
        (2, pytest.approx(0.9), pytest.approx(1.0)),
    ]


def test_binned_calibration_perfect_predictor():
    rep = binned_calibration([1.0] * 5, [True] * 5)
    assert rep.ece == 0.0
    assert rep.brier == 0.0
    # confidence 1.0 belongs to the last (closed) bin
    assert rep.bins[-1].count == 5


def test_binned_calibration_validation():
    with pytest.raises(ValueError):
        binned_calibration([1.2], [True])
    with pytest.raises(ValueError):
        binned_calibration([-0.1], [True])
    with pytest.raises(ValueError):
        binned_calibration([0.5, 0.5], [True])
    empty = binned_calibration([], [])
    assert (empty.ece, empty.brier, empty.n_records) == (0.0, 0.0, 0)


@pytest.mark.parametrize("conf", [[math.nan], [0.5, math.nan, 0.25]])
def test_binned_calibration_refuses_nan(conf):
    # NaN fails both range comparisons; binned, it would land in no bin
    with pytest.raises(ValueError, match=r"confidences must lie in \[0, 1\]"):
        binned_calibration(conf, [True] * len(conf))


def test_ece_never_rises_with_perfect_confident_records():
    base_conf = [0.9, 0.9, 0.6, 0.6]
    base_hit = [True, True, True, False]
    before = binned_calibration(base_conf, base_hit).ece
    after = binned_calibration(
        base_conf + [1.0] * 4, base_hit + [True] * 4
    ).ece
    assert after <= before
    assert after == pytest.approx(0.05, abs=1e-12)


def test_calibration_report_on_toy(toy_tree, toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    rep = evaluate(m, toy_dataset, toy_tree).calibration()
    assert rep.n_records == 3
    assert 0.0 <= rep.ece <= 1.0
    # decisive wrong answers are overconfident: ECE must be positive here
    assert rep.ece > 0.3


def test_diagnose_as_dict_keys(toy_tree, toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    doc = diagnose(m, toy_dataset, toy_tree).as_dict()
    assert set(doc) == {
        "leaf_acc", "root_acc", "per_digit_acc", "code_acc", "n_records",
        "spearman_rho", "spearman", "triangle_violations", "triangles",
        "entropy_profile", "prefix_entropy", "fractal", "calibration",
    }
    assert set(doc["fractal"]) == {"D0", "fit_r2", "points", "fit_levels", "defined"}
    assert set(doc["calibration"]) == {"ece", "brier", "n_records", "bins"}
    assert set(doc["spearman"]) == {"n_pairs", "degenerate"}
    assert set(doc["triangles"]) == {"checked", "exhaustive"}
    assert doc["leaf_acc"] == pytest.approx(1 / 3)
    assert doc["spearman_rho"] == pytest.approx(-1.0)
    assert doc["triangle_violations"] == 0
    # toy tree has no interior box-count scales, so D0 is null
    assert doc["fractal"]["defined"] in (True, False)
    if not doc["fractal"]["defined"]:
        assert doc["fractal"]["D0"] is None


def test_tsv_writers(tmp_path, toy_tree, toy_dataset):
    m = _decisive_zero_model(toy_dataset.codec)
    rep = diagnose(m, toy_dataset, toy_tree)

    entropy = tmp_path / "entropy.tsv"
    write_entropy_tsv(str(entropy), rep.digit_entropy, rep.prefix_entropy)
    lines = entropy.read_text().splitlines()
    assert lines[0] == "digit\tmarginal_bits\tprefix_bits"
    assert len(lines) == 1 + toy_dataset.codec.K
    k, marginal, prefix = lines[1].split("\t")
    assert (k, float(marginal), float(prefix)) == (
        "0", rep.digit_entropy[0], rep.prefix_entropy[1]
    )

    boxes = tmp_path / "boxes.tsv"
    write_box_counts_tsv(str(boxes), rep.box_count)
    lines = boxes.read_text().splitlines()
    assert lines[0] == "prefix_len\tboxes\tused_in_fit"
    assert len(lines) == 1 + toy_dataset.codec.K + 1

    reli = tmp_path / "reliability.tsv"
    write_reliability_tsv(str(reli), rep.calibration)
    lines = reli.read_text().splitlines()
    assert len(lines) == 1 + 15

    dist = tmp_path / "distances.tsv"
    write_distance_matrix_tsv(str(dist), toy_dataset)
    lines = dist.read_text().splitlines()
    assert lines[0] == "leaf\tcat\tdog\tfern"
    assert len(lines) == 4
    row = lines[1].split("\t")
    assert row[0] == "cat"
    assert [float(v) for v in row[1:]] == [0.0, pytest.approx(1 / 3), 1.0]
