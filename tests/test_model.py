"""Digit heads: shapes, prediction rules, reconstruction margin, descent."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hipan import (
    CodecParams,
    ModelConfig,
    RECONSTRUCT_MARGIN,
    clamped_descent_matrix,
    describe_ball,
    encode_tree,
    new_model,
    parameter_count,
    reconstruct_matrix,
    reconstruction_confidence,
)
from hipan.model import (
    _anchored_choice_rows,
    _effective_depth,
    model_arrays,
    model_from_state,
    model_state,
    softmax_rows,
)
from hipan.rng import child_rng
from conftest import irregular_tree


def _config(p, K, K_heads=None, **kw):
    return ModelConfig(CodecParams(p, K), K_heads, **kw)


def _constant_model(p=3, K=2, top=0):
    """Decisive model that always answers `top`: scores 5 at `top`, 0
    elsewhere, and every anchor at `top`."""
    m = new_model(_config(p, K), seed=0)
    for head in m.heads:
        head.table[...] = 0.0
        head.table[:, top] = 5.0
        head.anchor[:] = top
    return m


def test_config_validation():
    cfg = _config(3, 4)
    assert cfg.K_heads == 4
    _config(3, 4, K_heads=1)
    with pytest.raises(ValueError):
        _config(3, 4, K_heads=0)
    with pytest.raises(ValueError):
        _config(3, 4, K_heads=5)
    with pytest.raises(ValueError):
        _config(3, 4, tau=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite"):
            _config(3, 4, tau=bad)


def test_new_model_shapes_and_integer_init():
    m = new_model(_config(5, 6, K_heads=4), seed=3)
    assert len(m.heads) == 4
    for head in m.heads:
        assert head.table.shape == (5, 5)
        assert head.anchor.shape == (5,)
    for arr in (m.heads[0].table, m.heads[0].anchor, m.heads[1].table, m.heads[3].anchor):
        assert arr.dtype == np.float64
        assert np.all(arr == np.floor(arr))
        assert arr.min() >= 0 and arr.max() <= 4


def test_new_model_seed_determinism():
    a = new_model(_config(5, 4), seed=9)
    b = new_model(_config(5, 4), seed=9)
    c = new_model(_config(5, 4), seed=10)
    assert np.array_equal(a.heads[0].table, b.heads[0].table)
    assert np.array_equal(a.heads[1].table, b.heads[1].table)
    assert model_state(a) == model_state(b)
    assert model_state(a) != model_state(c)


def test_k_heads_one_has_only_root():
    m = new_model(_config(3, 4, K_heads=1))
    assert len(m.heads) == 1


def test_parameter_count():
    assert parameter_count(_config(3, 3)) == 36
    assert parameter_count(_config(2, 1)) == 6
    assert parameter_count(_config(3, 4, K_heads=1)) == 12
    assert parameter_count(_config(409, 18)) == 3_018_420


@pytest.mark.parametrize(
    "p, K, K_heads", [(2, 1, 1), (3, 4, 1), (3, 4, 2), (5, 3, 3), (7, 6, 4), (11, 2, None)]
)
def test_parameter_count_is_the_layout(p, K, K_heads):
    config = _config(p, K, K_heads)
    arrays = model_arrays(new_model(config))
    assert parameter_count(config) == sum(a.size for a in arrays.values())


@pytest.mark.parametrize("K_heads", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7])
def test_init_keeps_uniform_v2_draws_of_every_deeper_head(K_heads, seed):
    # uniform-v2 drew the root scores, then each deeper head's table and
    # anchors, from one stream; v3 gives the root draw to head 0's row 0
    # and draws head 0's other rows and its anchors last
    p = 5
    m = new_model(_config(p, 4, K_heads), seed=seed)
    rng = child_rng(seed, "init")
    assert np.array_equal(m.heads[0].table[0], rng.integers(0, p, size=p))
    for head in m.heads[1:]:
        assert np.array_equal(head.table, rng.integers(0, p, size=(p, p)))
        assert np.array_equal(head.anchor, rng.integers(0, p, size=p))
    assert np.array_equal(m.heads[0].table[1:], rng.integers(0, p, size=(p - 1, p)))
    assert np.array_equal(m.heads[0].anchor, rng.integers(0, p, size=p))


def test_weight_tying_past_last_head():
    m = new_model(_config(3, 6, K_heads=2), seed=1)
    # depths >= K_heads reuse the last head
    assert [_effective_depth(m, k) for k in range(6)] == [0, 1, 1, 1, 1, 1]
    deep = new_model(_config(3, 6, K_heads=3), seed=1)
    assert [_effective_depth(deep, k) for k in range(6)] == [0, 1, 2, 2, 2, 2]
    one = new_model(_config(3, 6, K_heads=1), seed=1)
    assert [_effective_depth(one, k) for k in range(6)] == [0] * 6


def test_anchored_two_logit_choice():
    # anchor arbitrates between the top two columns of the row
    m = new_model(_config(5, 3), seed=0)
    m.heads[0].table[0] = 0.0
    m.heads[1].table[0] = 0.0
    m.heads[2].table[1] = np.array([0.0, 1.0, 3.0, 0.0, 4.0])
    # digits 0 and 1 are accepted; digit 2 scores 0, beyond the margin of
    # row 1's maximum, so the digit-2 head answers with its rule
    x = np.array([[0, 1, 0]])
    m.heads[2].anchor[1] = 3.9
    assert reconstruct_matrix(m, x)[0, 2] == 4  # (3.9-4)^2 < (3.9-2)^2
    m.heads[2].anchor[1] = 2.5
    assert reconstruct_matrix(m, x)[0, 2] == 2  # (2.5-2)^2 < (2.5-4)^2


def test_reconstruct_accepts_within_margin():
    m = _constant_model()
    # own digit 1 scores exactly max - margin: accepted
    m.heads[1].table[0] = np.array([5.0, 5.0 - RECONSTRUCT_MARGIN, 0.0])
    pred = reconstruct_matrix(m, np.array([[0, 1]]))
    assert pred[0].tolist() == [0, 1]
    # a hair below the margin: falls back to the anchor's choice, the top
    m.heads[1].table[0, 1] -= 1e-9
    pred = reconstruct_matrix(m, np.array([[0, 1]]))
    assert pred[0].tolist() == [0, 0]


def test_reconstruct_matrix_free_runs_on_predictions():
    m = _constant_model()
    # head 0 rejects digit 1, so row selection at depth 1 must use digit 0
    m.heads[1].table[1] = np.array([0.0, 0.0, 5.0])
    pred = reconstruct_matrix(m, np.array([[1, 0]]))
    assert pred[0].tolist() == [0, 0]
    assert reconstruction_confidence(m, pred).shape == (1, 2)


def _reconstruct_reference(model, D):
    """Reference reconstruction: gathers each record's whole (N, p) score
    row at every depth and takes its full softmax."""
    n = D.shape[0]
    pred = np.zeros((n, model.K), dtype=np.int64)
    conf = np.zeros((n, model.K), dtype=np.float64)
    ar = np.arange(n)
    for k in range(model.K):
        ke = _effective_depth(model, k)
        prev = pred[:, k - 1] if k > 0 else np.zeros(n, dtype=np.int64)
        rows = model.heads[ke].table[prev]
        t = D[:, k]
        accept = rows[ar, t] >= rows.max(axis=1) - RECONSTRUCT_MARGIN
        fallback = _anchored_choice_rows(model, ke, prev, rows)
        chosen = np.where(accept, t, fallback)
        pred[:, k] = chosen
        conf[:, k] = softmax_rows(rows)[ar, chosen]
    return pred, conf


@st.composite
def _model_and_digits(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    K = draw(st.integers(1, 5))
    K_heads = draw(st.integers(1, K))  # K_heads < K ties the deeper digits
    model = new_model(_config(p, K, K_heads), seed=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers: ties, and scores exactly RECONSTRUCT_MARGIN below a max
        def fill(shape):
            return rng.integers(0, 5, size=shape).astype(np.float64)
    else:
        def fill(shape):
            return rng.normal(0.0, 3.0, size=shape)
    for head in model.heads:
        head.table[...] = fill((p, p))
        head.anchor[...] = fill(p)
    n = draw(st.integers(0, 30))
    return model, rng.integers(0, p, size=(n, K))


def _assert_matches_reference(model, D):
    """Predictions equal the reference's; confidences equal its full-row
    softmax bit for bit."""
    pred = reconstruct_matrix(model, D)
    ref_pred, ref_conf = _reconstruct_reference(model, D)
    assert np.array_equal(pred, ref_pred)
    conf = reconstruction_confidence(model, pred)
    assert conf.shape == ref_conf.shape
    assert np.array_equal(conf.view(np.int64), ref_conf.view(np.int64))


@settings(max_examples=300, deadline=None, database=None)
@given(_model_and_digits())
def test_reconstruct_matrix_matches_full_row_reference(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("k_heads", [1, 2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reconstruct_matrix_matches_reference_on_tied_heads(k_heads, seed):
    # K=5: one head serves every depth (K_heads=1), the depth-1 head
    # serves depths 1-4 (K_heads=2), or each depth has its own head; the
    # rows are drawn in random order and repeat, so they neither ascend
    # nor stay distinct, and small integer scores (heads 0 and 1) put
    # many own digits exactly at the accept margin
    p, K, n = 7, 5, 400
    rng = np.random.default_rng(seed)
    model = new_model(_config(p, K, k_heads), seed=seed)
    for i, head in enumerate(model.heads):
        if i < 2:
            head.table[...] = rng.integers(0, 4, size=(p, p))
        else:
            head.table[...] = rng.normal(0.0, 2.0, size=(p, p))
        head.anchor[...] = rng.normal(3.0, 2.0, size=p)
    D = rng.integers(0, p, size=(n // 2, K))
    D = D[rng.integers(0, len(D), size=n)]
    assert not (np.diff(D[:, 0]) >= 0).all()
    _assert_matches_reference(model, D)
    _assert_matches_reference(model, np.asfortranarray(D[::-1]))


def test_reconstruct_matrix_memory_stays_below_one_n_by_p_array():
    # one (N, p) float64 array here is 20,000 x 101 x 8 B = 16 MB
    p, K, n = 101, 3, 20_000
    model = new_model(_config(p, K), seed=0)
    D = np.random.default_rng(0).integers(0, p, size=(n, K))
    tracemalloc.start()
    try:
        reconstruct_matrix(model, D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_reconstruct_codec_mismatch():
    # a code of K=3 digits does not fit a model of K=2
    m = _constant_model()
    with pytest.raises(ValueError, match="does not match K=2"):
        reconstruct_matrix(m, np.zeros((2, 3), dtype=np.int64))


def test_constant_model_toy_accuracy(toy_tree, toy_dataset):
    # decisive all-zero answers: cat exact, dog/fern mispredicted as cat
    m = _constant_model()
    D = toy_dataset.digits_matrix()
    pred = reconstruct_matrix(m, D)
    assert (pred == D).all(axis=1).sum() == 1
    assert (pred[:, 0] == D[:, 0]).sum() == 2


def test_confidence_is_softmax_of_row():
    m = _constant_model()
    pred = reconstruct_matrix(m, np.array([[0, 0]]))
    conf = reconstruction_confidence(m, pred)
    row0 = softmax_rows(m.heads[0].table[:1])[0]
    row1 = softmax_rows(m.heads[1].table[:1])[0]
    assert conf[0, 0] == pytest.approx(float(row0[pred[0, 0]]))
    assert conf[0, 1] == pytest.approx(float(row1[pred[0, 1]]))


def test_clamped_descent(toy_tree):
    assert clamped_descent_matrix(toy_tree, [[0, 0]])[0] == toy_tree.id_of("cat")
    # digit 2 exceeds both child lists and clamps to the last child
    assert clamped_descent_matrix(toy_tree, [[2, 2]])[0] == toy_tree.id_of("fern")
    # extra digits past a leaf are ignored
    assert clamped_descent_matrix(toy_tree, [[1, 0, 2, 2]])[0] == toy_tree.id_of("fern")
    with pytest.raises(ValueError):
        clamped_descent_matrix(toy_tree, [[0]])


def _walk(tree, digits):
    """Reference clamped descent: one child list lookup per digit."""
    node = tree.root
    for d in digits:
        kids = tree.children[node]
        if not kids:
            break
        node = kids[min(int(d), len(kids) - 1)]
    if not tree.is_leaf(node):
        raise ValueError("digit sequence shorter than the hierarchy depth")
    return node


@st.composite
def _tree_and_rows(draw):
    tree = irregular_tree(draw(st.integers(0, 10_000)), draw(st.integers(1, 40)),
                          max_children=4, max_depth=5)
    width = draw(st.integers(0, tree.max_depth + 1))
    # digits reach past every child list, so clamping is exercised
    row = st.lists(st.integers(0, tree.b_max + 2), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return tree, np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=150, deadline=None, database=None)
@given(_tree_and_rows())
def test_clamped_descent_matrix_matches_row_walks(case):
    tree, rows = case
    try:
        expected = [_walk(tree, row) for row in rows]
    except ValueError:
        with pytest.raises(ValueError, match="shorter than the hierarchy depth"):
            clamped_descent_matrix(tree, rows)
        for row in rows:
            try:
                _walk(tree, row)
            except ValueError:
                with pytest.raises(ValueError, match="shorter than the hierarchy depth"):
                    clamped_descent_matrix(tree, row[None, :])
        return
    assert clamped_descent_matrix(tree, rows).tolist() == expected
    assert [clamped_descent_matrix(tree, row[None, :])[0] for row in rows] == expected


def test_clamped_descent_rejects_negative_digits(toy_tree):
    with pytest.raises(ValueError, match="nonnegative"):
        clamped_descent_matrix(toy_tree, [[-1, 0]])


def test_describe_ball(toy_tree, toy_dataset):
    whole = describe_ball(toy_dataset, toy_tree, [])
    assert whole.member_count == 3
    assert whole.subtree_root == "root"
    animals = describe_ball(toy_dataset, toy_tree, [0])
    assert animals.members == ("cat", "dog")
    assert animals.subtree_root == "animal"
    dog = describe_ball(toy_dataset, toy_tree, [0, 1])
    assert dog.members == ("dog",)
    assert dog.subtree_root == "dog"
    empty = describe_ball(toy_dataset, toy_tree, [2])
    assert empty.member_count == 0
    assert empty.subtree_root is None
    with pytest.raises(ValueError):
        describe_ball(toy_dataset, toy_tree, [0, 0, 0])


def test_describe_ball_padded(padded_tree):
    ds = encode_tree(padded_tree)
    # zero padding past the shallow leaf still denotes that leaf
    summary = describe_ball(ds, padded_tree, [1, 0])
    assert summary.members == ("b",)
    assert summary.subtree_root == "b"


def test_model_state_round_trip():
    m = new_model(_config(3, 4, K_heads=3), seed=2)
    m.heads[1].anchor[1] = 0.1234567890123456789
    state = model_state(m)
    m2 = model_from_state(state)
    for a, b in zip(model_arrays(m).values(), model_arrays(m2).values()):
        assert np.array_equal(a, b)
    assert m2.config.codec == m.config.codec
    assert m2.config.K_heads == m.config.K_heads
    assert m2.init_seed == 2


def test_model_state_errors():
    m = new_model(_config(3, 2), seed=0)
    state = model_state(m)
    bad = dict(state, format="other")
    with pytest.raises(ValueError, match="format"):
        model_from_state(bad)
    broken = dict(state, tables=dict(state["tables"], **{"head0.table": [1.0]}))
    with pytest.raises(ValueError, match="head0.table"):
        model_from_state(broken)
