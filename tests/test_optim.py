"""Losses, both trainers, plans, and checkpointed resume."""

import dataclasses
import json
import math
import io
import tempfile
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from hipan import (
    AdamConfig,
    CodecParams,
    GistConfig,
    ModelConfig,
    NumericAbort,
    OptimState,
    RECONSTRUCT_MARGIN,
    TrainPhase,
    TrainPlan,
    anchor_loss,
    dataset_loss,
    default_plan,
    encode_tree,
    gen_synthetic,
    gist_minimize,
    huffman_weights,
    loads_tree,
    new_model,
    project_digit,
    restore_optim_state,
    train,
    two_logit_grad,
    two_logit_loss,
    uniform_plan,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hipan.checkpoint import checkpoint_fingerprint, load_checkpoint, load_model, save_checkpoint
from hipan import optim
from hipan.model import (
    _anchored_choice_rows,
    _array_views,
    _effective_depth,
    _top_two,
    model_arrays,
    model_from_state,
    model_state,
    softmax_rows,
)
from hipan.optim import (
    _Batches,
    _accumulate_grads,
    _adam_step,
    _epoch_metrics,
    _gist_sweep,
    _pair_table,
    optim_state_dict,
)
from hipan.rng import child_rng
from conftest import digits_dataset, irregular_tree


# frozen oracle: z = 0.5 * ((3.9-2)^2 - (3.9-4)^2) = 1.8, loss = log(1+e^-1.8)
TWO_LOGIT_ORACLE = math.log1p(math.exp(-1.8))


def test_two_logit_loss_oracle():
    assert two_logit_loss(3.9, 4, 2, 0.5) == pytest.approx(TWO_LOGIT_ORACLE, abs=1e-12)
    assert TWO_LOGIT_ORACLE == pytest.approx(0.15297761, abs=1e-8)


def test_two_logit_loss_weight_scales():
    base = two_logit_loss(3.9, 4, 2, 0.5)
    assert two_logit_loss(3.9, 4, 2, 0.5, weight=2.5) == pytest.approx(2.5 * base)
    assert two_logit_loss(3.9, 4, 2, 0.5, weight=0.0) == 0.0


def test_two_logit_loss_equidistant_is_log2():
    # |v-t| == |v-c| zeroes the logit gap
    assert two_logit_loss(3.0, 4, 2, 0.7) == pytest.approx(math.log(2.0))
    assert two_logit_loss(1.0, 2, 2, 0.5, weight=3.0) == pytest.approx(3.0 * math.log(2.0))


def test_two_logit_loss_extreme_scores_stay_finite():
    assert math.isfinite(two_logit_loss(1e4, 0, 1, 2.0))
    assert two_logit_loss(0.0, 0, 1000, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_two_logit_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(200):
        tau = float(rng.choice([0.1, 0.5, 2.0]))
        v = float(rng.uniform(-5, 10))
        psi = float(rng.uniform(-5, 10))
        correct = bool(rng.integers(2))
        fd = (anchor_loss(v + h, psi, tau, correct) - anchor_loss(v - h, psi, tau, correct)) / (2 * h)
        g = two_logit_grad(v, psi, tau, correct)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_two_logit_grad_zero_at_anchor():
    assert two_logit_grad(1.5, 1.5, 0.5, True) == 0.0
    assert two_logit_grad(1.5, 1.5, 0.5, False) == 0.0


def test_project_digit():
    assert project_digit(2.6, 5) == 3
    assert project_digit(4.7, 5) == 0  # rounds to 5, wraps
    assert project_digit(-0.4, 5) == 0
    assert project_digit(-0.6, 5) == 4
    assert project_digit(0.5, 5) == 1  # half away from zero
    assert project_digit(-0.5, 5) == 4
    assert project_digit(7.2, 5) == 2
    assert project_digit(1.49, 2) == 1


def test_project_digit_wrap_distance():
    rng = np.random.default_rng(1)
    for p in (2, 5, 11):
        for theta in rng.uniform(-3 * p, 3 * p, size=500):
            d = project_digit(float(theta), p)
            assert 0 <= d < p
            circ = abs((theta - d + p / 2) % p - p / 2)
            assert circ <= 0.5 + 1e-12


def test_huffman_weights():
    # pair counts (0,0): 4 and (0,1): 1
    assert huffman_weights(np.array([4, 1])).tolist() == [0.5, 1.0]
    assert huffman_weights(np.array([], dtype=np.int64)).size == 0


def test_gist_minimize_single_coordinate():
    # +1 lands on 1 (no gain), -1 lands on 2 (optimum): one accepted move
    objective = lambda d: 0.0 if d[0] == 2 else 1.0
    digits, history = gist_minimize(objective, [0], p=3)
    assert digits == [2]
    assert history[0] == 1
    assert history[-2:] == [0, 0]  # patience sweeps close the run


def test_gist_minimize_prefers_incumbent_on_tie():
    flat = lambda d: 7.0
    digits, history = gist_minimize(flat, [1, 2], p=3, patience=3)
    assert digits == [1, 2]
    assert history == [0, 0, 0]


def test_gist_minimize_prefers_plus_move_on_candidate_tie():
    objective = lambda d: 0.0 if d[0] in (1, 2) else 5.0
    digits, _ = gist_minimize(objective, [0], p=3)
    assert digits == [1]


def test_gist_minimize_separable_quadratic():
    target = [3, 0, 2, 4]
    objective = lambda d: sum((a - b) ** 2 for a, b in zip(d, target))
    digits, _ = gist_minimize(objective, [0, 0, 0, 0], p=5)
    assert digits == target


def test_gist_minimize_reaches_local_fixpoint():
    rng = np.random.default_rng(3)
    p, n = 3, 4
    table = {tuple(idx): float(rng.uniform()) for idx in np.ndindex(*(p,) * n)}
    objective = lambda d: table[tuple(d)]
    digits, _ = gist_minimize(objective, [0] * n, p, max_sweeps=500)
    base = objective(digits)
    for i in range(n):
        for delta in (1, -1):
            nb = list(digits)
            nb[i] = (nb[i] + delta) % p
            assert objective(nb) >= base


def _sequential_minimize(objective, digits0, p, max_sweeps, patience):
    """gist_minimize one coordinate at a time: each coordinate, in index
    order, scores itself, +1 and -1 (mod p) against the current digits and
    keeps the strictly lowest, ties to the incumbent, then to +1."""
    digits = [d % p for d in digits0]
    history, streak = [], 0
    for _ in range(max_sweeps):
        accepted = 0
        for i in range(len(digits)):
            cands = [digits[i], (digits[i] + 1) % p, (digits[i] - 1) % p]
            losses = []
            for cand in cands:
                digits[i] = cand
                losses.append(objective(digits))
            stay, up, down = losses
            best = 1 if up < stay and up <= down else 2 if down < stay and down < up else 0
            digits[i] = cands[best]
            accepted += best != 0
        history.append(accepted)
        streak = 0 if accepted else streak + 1
        if streak >= patience:
            break
    return digits, history


@st.composite
def _lookup_problems(draw):
    """A lattice problem whose objective is a sum of table lookups over a
    few values, so candidates tie: one per coordinate, and one per pair of
    a coordinate and a partner, often its successor, so that a move
    changes the scores of the coordinates after it."""
    p = draw(st.sampled_from([2, 3, 5, 13]))
    n = draw(st.integers(0, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.integers(1, 4))
    unary = rng.integers(0, values, size=(n, p)).tolist()
    partner = [i + 1 if rng.random() < 0.5 else int(rng.integers(n)) for i in range(n - 1)]
    pair = rng.integers(0, values, size=(max(n - 1, 0), p, p)).tolist()
    as_float = draw(st.booleans())

    def objective(d):
        total = sum(unary[i][d[i]] for i in range(n))
        total += sum(pair[i][d[i]][d[j]] for i, j in enumerate(partner))
        return float(total) if as_float else total

    start = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n))
    return objective, start, p, draw(st.integers(1, 8)), draw(st.integers(1, 3))


def _counted(objective):
    def counted(d):
        counted.calls += 1
        return objective(d)

    counted.calls = 0
    return counted


@settings(max_examples=150, deadline=None, database=None)
@given(_lookup_problems())
def test_gist_minimize_matches_one_coordinate_at_a_time(problem):
    # n up to 100: a pass runs from its cursor to its first move, far past
    # the trainer's window of optim._WINDOW columns
    objective, start, p, max_sweeps, patience = problem
    want_calls, got_calls = _counted(objective), _counted(objective)
    want = _sequential_minimize(want_calls, start, p, max_sweeps, patience)
    assert gist_minimize(got_calls, start, p, max_sweeps, patience) == want
    # a pass scores its incumbent once and nothing after its first mover
    assert got_calls.calls <= want_calls.calls


@settings(max_examples=60, deadline=None, database=None)
@given(_lookup_problems(), st.lists(st.integers(-30, 30), min_size=1, max_size=3), st.integers(1, 9))
def test_lattice_sweep_scoring_every_candidate_matches_one_coordinate_at_a_time(problem, shifts,
                                                                                 width):
    # the trainer's way: rows, here one problem from several starts, sweep
    # side by side, every candidate of a pass's window is scored at once
    # against the pass's incumbent, and each row keeps the moves up to its
    # first mover
    objective, start, p, max_sweeps, _ = problem
    starts = [[d + shift for d in start] for shift in shifts]
    x = np.array([[d % p for d in row] for row in starts], dtype=np.int64).reshape(len(starts), -1)

    def decide(act, cols):
        moves = np.zeros(cols.shape, dtype=np.int64)
        done = np.empty(act.size, dtype=np.int64)
        for i, r in enumerate(act.tolist()):
            digits = x[r].tolist()
            stay = objective(digits)
            valid = [c for c in cols[i].tolist() if c < len(digits)]
            for k, c in enumerate(valid):
                here = digits[c]
                digits[c] = (here + 1) % p
                up = objective(digits)
                digits[c] = (here - 1) % p
                down = objective(digits)
                digits[c] = here
                moves[i, k] = optim._lattice_move(stay, up, down)
            first = np.flatnonzero(moves[i])
            done[i] = first[0] + 1 if first.size else len(valid)
        return moves, done

    history = [optim._lattice_sweep(x, p, decide, width).tolist() for _ in range(max_sweeps)]
    for i, row in enumerate(starts):
        # patience past max_sweeps: every sweep runs
        want = _sequential_minimize(objective, row, p, max_sweeps, max_sweeps + 1)
        assert (x[i].tolist(), [h[i] for h in history]) == want


def test_gist_minimize_compares_values_as_python_does():
    # 2^60 + 1 and float(2^60) are one float64, and tuples are not
    # numbers; Python's comparison still tells them apart
    big = {0: 2**60 + 1, 1: float(2**60), 2: 2**60 + 2}
    assert gist_minimize(lambda d: big[d[0]], [0], 3) == ([1], [1, 0, 0])
    lexicographic = lambda d: (abs(d[0] - 2), -d[1])  # noqa: E731
    want = _sequential_minimize(lexicographic, [0, 0], 5, 200, 2)
    assert gist_minimize(lexicographic, [0, 0], 5) == want == ([2, 4], [2, 1, 0, 0])


def test_gist_minimize_holds_no_matrix_of_candidate_rows():
    # idle sweeps widen their passes to the whole of n = 2000 digits
    n = 2000
    tracemalloc.start()
    digits, history = gist_minimize(lambda d: 0, [0] * n, 13)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (digits, history) == ([0] * n, [0, 0])
    assert peak < 1_000_000


def test_gist_minimize_calls_at_most_3_per_coordinate_on_a_chain():
    # digit 0 is pulled to 1 and each digit to the one before it, with
    # falling weights, so each move makes the next digit improvable and
    # each pass ends at its first coordinate
    n = 300
    objective = _counted(
        lambda d: 2 * n * (d[0] - 1) ** 2 + sum((n - i) * abs(d[i] - d[i - 1]) for i in range(1, n))
    )
    assert gist_minimize(objective, [0] * n, 13) == ([1] * n, [n, 0, 0])
    assert objective.calls <= 3 * n + 2 * (3 * n)


def _toy_setup(seed=0):
    tree = loads_tree(
        "root\t-\nanimal\troot\nplant\troot\ncat\tanimal\ndog\tanimal\nfern\tplant\n"
    )
    ds = encode_tree(tree)
    model = new_model(ModelConfig(ds.codec), seed=seed)
    return tree, ds, model


def _digit_losses_reference(model, k, prev, t, w):
    """Per-pair oracle of _pair_losses, less the counts: every pair
    gathers its whole parent row, and the row's log-sum-exp and top two
    columns are taken over the (pairs, p) gather."""
    head = model.heads[min(k, model.config.K_heads - 1)]
    rows = head.table[prev]
    top, second = _top_two(rows)
    ce = optim._lse_rows(rows) - rows[np.arange(t.size), t]
    return optim._pair_terms(model.config.tau, ce, top, second, head.anchor[prev], t, w)


def _selection_losses(model, table, digits):
    """(_select of the digits, their _pair_losses) under model."""
    pairs = optim._select(table, digits)
    h, r = pairs.live
    X, v = model.latents[h, r], model.latents[h, model.p, r]
    return pairs, optim._pair_losses(model.config.tau, pairs, X, v)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("source", ["digits", "tree"])
@pytest.mark.parametrize("integer", [False, True])
def test_digit_losses_match_the_per_pair_gather_bit_for_bit(seed, source, integer):
    rng = np.random.default_rng(seed)
    if source == "digits":
        # 3,000 random rows over an alphabet of 61: up to 61 pairs per parent row
        ds = digits_dataset(rng.integers(0, 61, size=(3000, 4)), 61)
    else:
        ds = encode_tree(irregular_tree(seed, 400, max_children=7, max_depth=5))
    K = ds.codec.K
    counts = ds.pair_counts()
    for k_heads in sorted({K, 3, 2, 1}):
        model = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
        for arr in model_arrays(model).values():
            # a two-value range ties the top two columns of many rows
            if integer:
                arr[...] = rng.integers(0, 2, size=arr.shape)
            else:
                arr[...] = rng.normal(0.0, 3.0, size=arr.shape)
        table = _pair_table(model, counts)
        every, terms = _selection_losses(model, table, range(K))
        for k in range(K):
            pairs = counts[k]
            assert k < 2 or (np.diff(pairs.parent) == 0).sum() >= pairs.parent.size // 4
            want = pairs.count * _digit_losses_reference(
                model, k, pairs.parent, pairs.child, huffman_weights(pairs.count)
            )
            # one digit's selection, and the digit's pairs among every
            # digit's, hold the digit's pairs in DigitPairs order
            sel, got = _selection_losses(model, table, [k])
            assert np.array_equal(sel.child, pairs.child) and np.array_equal(sel.count, pairs.count)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            mine = terms[every.digit == k]
            assert np.array_equal(mine.view(np.int64), want.view(np.int64))
        want_total = sum(
            float((counts[k].count * _digit_losses_reference(
                model, k, counts[k].parent, counts[k].child, huffman_weights(counts[k].count)
            )).sum())
            for k in range(K)
        ) / ds.n_records
        assert dataset_loss(model, counts, range(K)) == want_total


def _reference_row_loss(model, counts, digits, ke, row):
    """Loss of the pairs whose parent digit selects row `row` of head ke
    at the given digits: the per-pair gather oracle weighted by the
    pairs' counts, as dataset_loss adds them."""
    last = model.config.K_heads - 1
    total = 0.0
    for k in digits:
        if min(k, last) != ke:
            continue
        pairs = counts[k]
        sel = pairs.parent == row
        if not sel.any():
            continue
        w = huffman_weights(pairs.count)[sel]
        losses = _digit_losses_reference(model, k, pairs.parent[sel], pairs.child[sel], w)
        total += float((pairs.count[sel] * losses).sum())
    return total


def _row_pairs(model, counts, digits, ke, row):
    """(child, count, rarity weight) of each pair of the given digits whose
    parent digit selects row `row` of head ke, in (child, digit) order."""
    last = model.config.K_heads - 1
    pairs = [
        (int(t), int(n), k)
        for k in digits if min(k, last) == ke
        for prev, t, n in zip(*counts[k]) if prev == row
    ]
    pairs.sort(key=lambda pair: (pair[0], pair[2]))
    return [(t, n, 1.0 / np.sqrt(np.float64(n))) for t, n, _ in pairs]


def _reference_top_two(x):
    """The row's largest and second-largest columns, ties to the lowest
    index."""
    order = sorted(range(len(x)), key=lambda c: (-x[c], c))
    return order[0], order[1]


def _reference_term(tau, cw, d, v, t, c):
    """cw ((M - x_t) + softplus(-z)) of one pair, d = M - x_t."""
    z = tau * ((v - c) ** 2 - (v - t) ** 2)
    return cw * (d + np.logaddexp(0.0, -z))


def _reference_sweep(model, counts, digits):
    """One coordinate at a time, in scalars: each live row's table columns
    in index order, then its anchor, each scoring the incumbent, +1 and
    -1 (mod p) by the sweep's running sums (_RowSweep) and keeping the
    strictly best, ties to the incumbent, then to +1; the row's running
    state is recomputed from the row after each move.  Last, a row whose
    loss, its pairs' terms times counts summed in order, rose is put
    back.  Returns the accepted moves."""
    p, tau = model.p, model.config.tau
    accepted = 0
    for ke, head in enumerate(model.heads):
        for r in range(p):
            pairs = _row_pairs(model, counts, digits, ke, r)
            if not pairs:
                continue
            row, v = head.table[r], float(head.anchor[r])
            row0, v0 = row.copy(), v
            A = 0.0
            for _, n, w in pairs:
                A += n * w

            def state(v):
                M = row.max()
                top = _reference_top_two(row)
                terms = []
                for t, n, w in pairs:
                    c = top[1] if top[0] == t else top[0]
                    terms.append(_reference_term(tau, n * w, M - row[t], v, t, c))
                Q = 0.0
                for h in terms:
                    Q += h
                return M, np.exp(row - M).sum(), top, terms, Q

            def score(M, S, top, terms, Q, j, y):
                x = row[j]
                cand = row.copy()
                cand[j] = y
                if x == M and y < x:
                    top_c = cand.max()
                    L = (top_c - M) + np.log(np.exp(cand - top_c).sum())
                elif y > M:
                    L = (y - M) + np.log((S - np.exp(x - M)) * np.exp(M - y) + 1.0)
                else:
                    L = np.log((S - np.exp(x - M)) + np.exp(y - M))
                new_top = _reference_top_two(cand)
                delta = 0.0
                for (t, n, w), h in zip(pairs, terms):
                    c = new_top[1] if new_top[0] == t else new_top[0]
                    if t == j or c != (top[1] if top[0] == t else top[0]):
                        delta += _reference_term(tau, n * w, M - cand[t], v, t, c) - h
                return A * L + (Q + delta)

            def lattice_move(stay, up, down):
                return 1 if up < stay and up <= down else -1 if down < stay and down < up else 0

            moves = 0
            M, S, top, terms, Q = state(v)
            for j in range(p):
                x = row[j]
                cands = [(x + 1) % p, (x - 1) % p]
                up, down = (score(M, S, top, terms, Q, j, y) for y in cands)
                move = lattice_move(A * np.log(S) + Q, up, down)
                if move:
                    row[j] = cands[0] if move == 1 else cands[1]
                    moves += 1
                    M, S, top, terms, Q = state(v)
            cands = [(v + 1) % p, (v - 1) % p]
            up, down = (A * np.log(S) + state(y)[4] for y in cands)
            move = lattice_move(A * np.log(S) + Q, up, down)
            if move:
                v = cands[0] if move == 1 else cands[1]
                moves += 1

            def logged(row, v):
                lse = optim._lse_rows(row[None])[0]
                top = _reference_top_two(row)
                total = 0.0
                for t, n, w in pairs:
                    c = top[1] if top[0] == t else top[0]
                    z = tau * ((v - c) ** 2 - (v - t) ** 2)
                    total += n * (w * ((lse - row[t]) + np.logaddexp(0.0, -z)))
                return total

            if logged(row, v) > logged(row0, v0):
                row[:], v, moves = row0, v0, 0
            head.anchor[r] = v
            accepted += moves
    return accepted


@st.composite
def _sweep_cases(draw):
    """A dataset, a model on it with integer latents (often from a two- or
    three-value range, so rows hold ties) and a digit set.

    The dataset is a small irregular tree's, or random digit rows over a
    few values of an alphabet of up to 61: rows then hold 8 or more pairs,
    from where numpy adds a row's terms pairwise rather than in order,
    and scores spread over more than 37, from where a low score's softmax
    term vanishes beside the row's sum, so that rounding decides between
    candidates."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        branching, depth = draw(st.integers(2, 7)), draw(st.integers(1, 5))
        room = sum(branching**d for d in range(1, depth + 1))
        size = min(room, draw(st.integers(2, 40)))
        ds = encode_tree(irregular_tree(seed % 10_000, size, branching, depth))
    else:
        p = draw(st.sampled_from([2, 3, 13, 41, 61]))
        values = draw(st.integers(1, p))
        shape = (draw(st.integers(1, 40)), draw(st.integers(1, 3)))
        ds = digits_dataset(rng.integers(0, values, size=shape), p)
    K = ds.codec.K
    config = ModelConfig(ds.codec, draw(st.integers(1, K)), draw(st.sampled_from([0.25, 0.5, 1.0])))
    model = new_model(config, seed=seed)
    top = draw(st.sampled_from([None, 1, 2]))
    if top is not None:
        for arr in model_arrays(model).values():
            arr[...] = rng.integers(0, top + 1, size=arr.shape)
    digits = sorted(draw(st.sets(st.integers(0, K - 1), min_size=1)))
    return ds, model, tuple(digits)


@settings(max_examples=200, deadline=None, database=None)
@given(_sweep_cases())
def test_gist_sweep_matches_per_coordinate_reference(case):
    ds, model, digits = case
    reference = model_from_state(model_state(model))
    counts = ds.pair_counts()
    table = _pair_table(model, counts)
    for _ in range(3):
        want = _reference_sweep(reference, counts, digits)
        got, _ = _gist_sweep(model, table, digits)
        assert got == want
        for a, b in zip(model_arrays(model).values(), model_arrays(reference).values()):
            assert np.array_equal(a, b)


# The sweep scores a candidate row as its loss from running sums, in
# another order of operations than the per-pair gather: each term is within
# a few units of rounding of the loss's size, and so is their difference.
# With the size of a pair's terms read as at most cw (p + 1 + softplus(tau
# p^2)), which bounds |lse - M| + |M - x_t| + softplus, the differences
# seen stay near one unit (2^-52) of the rows' size; this allows 64.
_SCORE_ROUNDING = 2.0**-46


@settings(max_examples=100, deadline=None, database=None)
@given(_sweep_cases())
def test_sweep_scores_are_the_reference_row_losses_within_rounding(case):
    # every +-1 candidate of every column of every live row, scored from
    # the row's running state, and every row's logged loss
    ds, model, digits = case
    counts = ds.pair_counts()
    p, tau = model.p, model.config.tau
    sweep = optim._RowSweep(model, _pair_table(model, counts), digits)
    n = sweep.A.size
    rows, cols = np.repeat(np.arange(n), p), np.tile(np.arange(p), n)
    x = sweep.X[rows, cols]
    size = [
        _SCORE_ROUNDING * sum(c * w * (p + 1 + np.logaddexp(0.0, tau * p * p))
                              for _, c, w in _row_pairs(model, counts, digits, ke, r))
        for ke, r in zip(sweep.heads, sweep.rows)
    ]
    stay = sweep.A * np.log(sweep.cur.S) + sweep.cur.Q
    logged = sweep.logged()
    for i in range(n):
        want = _reference_row_loss(model, counts, digits, sweep.heads[i], sweep.rows[i])
        assert abs(stay[i] - want) <= size[i]
        assert abs(logged[i] - want) <= size[i]
    for y in ((x + 1) % p, (x - 1) % p):
        got = sweep.scores(sweep.cur, sweep.X, rows, rows, cols, y)
        for i, (r, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            table = model.heads[sweep.heads[r]].table[sweep.rows[r]]
            table[j] = y[i]
            want = _reference_row_loss(model, counts, digits, sweep.heads[r], sweep.rows[r])
            table[j] = x[i]
            assert abs(got[i] - want) <= size[r], (got[i], want)


@settings(max_examples=60, deadline=None, database=None)
@given(_sweep_cases())
def test_gist_sweep_full_loss_never_rises(case):
    ds, model, digits = case
    counts = ds.pair_counts()
    table = _pair_table(model, counts)
    losses = [dataset_loss(model, counts, digits)]
    for _ in range(6):
        accepted, _ = _gist_sweep(model, table, digits)
        loss = dataset_loss(model, counts, digits)
        # a move lowers its row's loss strictly; dataset_loss adds the
        # rows' terms in another order, so a move between two candidates
        # that tie exactly may show as a rise of a few units of rounding
        assert loss <= losses[-1] + 1e-12 * abs(losses[-1])
        if not accepted:
            assert loss == losses[-1]
        losses.append(loss)


def test_gist_sweep_deterministic():
    def run():
        _, ds, model = _toy_setup(seed=4)
        counts = ds.pair_counts()
        for _ in range(3):
            _gist_sweep(model, _pair_table(model, counts), (0, 1))
        return dataset_loss(model, counts, (0, 1)), model_state(model)

    a = run()
    b = run()
    assert a == b


def test_gist_sweep_pass_width_stays_within_the_row():
    # root -> w with 100 one-leaf children, o with 10 children of 1 to 6
    # leaves: p = 101, K = 3.  From an all-zero digit-2 table the first
    # sweep of digit 2 leaves rows whose later passes run many times past
    # columns an earlier pass saw move, without a move; an uncapped pass
    # width doubled on each of them until it no longer fit an int64.
    lines = ["root\t-", "w\troot", "o\troot"]
    for i in range(100):
        lines += [f"w{i}\tw", f"w{i}.0\tw{i}"]
    for i in range(10):
        lines.append(f"o{i}\to")
        lines += [f"o{i}.{j}\to{i}" for j in range(1 + i % 6)]
    ds = encode_tree(loads_tree("\n".join(lines) + "\n"))
    assert (ds.codec.p, ds.codec.K) == (101, 3)
    model = new_model(ModelConfig(ds.codec), seed=0)
    model.heads[2].table[:] = 0.0
    reference = model_from_state(model_state(model))
    counts = ds.pair_counts()
    table = _pair_table(model, counts)
    for _ in range(2):
        got, _ = _gist_sweep(model, table, (2,))
        assert got == _reference_sweep(reference, counts, (2,))
        for a, b in zip(model_arrays(model).values(), model_arrays(reference).values()):
            assert np.array_equal(a, b)


@st.composite
def _wide_sweep_cases(draw):
    """Sweep cases past numpy's pairwise block: at p = 131 or 257 a row's
    sum of exponentials adds more than 128 entries.  Records hold digits
    0 and p - 1, so rows have targets at both ends; under the uniform
    init, latents at 0 and p - 1 make candidates wrap.  Head 0's row 0
    holds a single maximum, p - 1, at a column no record's digit
    targets, and the rest lie in [1, p - 4].  Digit 0 is always swept.

    A sweep moves each column of a row at most once, by +-1, and no
    column in [1, p - 4] can wrap: when the sweep reaches the maximum,
    it is still the row's only entry above p - 3.  Its -1 keeps it the
    only maximum, so every pair keeps its competitor and its target's
    score while the log-sum-exp falls: the first sweep lowers the
    maximum (by the -1, or by the +1 that wraps it to 0 when that is
    better), through the max-lowering rescoring."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = draw(st.sampled_from([131, 257]))
    K = draw(st.integers(1, 2))
    rows = rng.integers(0, p, size=(draw(st.integers(2, 6)), K))
    rows[0], rows[1] = 0, p - 1
    ds = digits_dataset(rows, p)
    config = ModelConfig(ds.codec, draw(st.integers(1, K)), draw(st.sampled_from([0.25, 1.0])))
    model = new_model(config, seed=seed)
    top = draw(st.sampled_from([None, 2]))
    if top is not None:
        for arr in model_arrays(model).values():
            arr[...] = rng.integers(0, top + 1, size=arr.shape)
    row = model.heads[0].table[0]
    np.clip(row, 1, p - 4, out=row)
    free = np.setdiff1d(np.arange(p), rows)
    row[free[int(rng.integers(free.size))]] = p - 1
    digits = {0} | draw(st.sets(st.integers(0, K - 1)))
    return ds, model, tuple(sorted(digits))


@settings(max_examples=12, deadline=None, database=None)
@given(_wide_sweep_cases())
def test_gist_sweep_past_the_pairwise_block(case):
    ds, model, digits = case
    counts = ds.pair_counts()
    start = model_from_state(model_state(model))
    # the one-coordinate-at-a-time oracle, bit for bit
    reference = model_from_state(model_state(model))
    peak = int(model.heads[0].table[0].argmax())
    table = _pair_table(model, counts)
    losses = [dataset_loss(model, counts, digits)]
    for sweep in range(2):
        want = _reference_sweep(reference, counts, digits)
        got, _ = _gist_sweep(model, table, digits)
        assert got == want
        for a, b in zip(model_arrays(model).values(), model_arrays(reference).values()):
            assert np.array_equal(a, b)
        if sweep == 0:
            # the single maximum came down, through the whole-row rescoring
            assert model.heads[0].table[0, peak] < start.heads[0].table[0, peak]
        # the logged loss never rises
        losses.append(dataset_loss(model, counts, digits))
        assert losses[-1] <= losses[-2] + 1e-12 * abs(losses[-2])
    # a run resumed mid-phase ends bit for bit on the uninterrupted run
    plan = TrainPlan((TrainPhase("only", 4, 0.0, digits),), checkpoint_interval=2)
    with tempfile.TemporaryDirectory() as tmp:
        train(model_from_state(model_state(start)), ds, GistConfig(patience=9), plan,
              checkpoint_dir=f"{tmp}/one")
        doc = load_checkpoint(f"{tmp}/one/ckpt-00002.json")
        train(load_model(doc), ds, GistConfig(patience=9), plan, checkpoint_dir=f"{tmp}/two",
              resume=doc)
        finals = [checkpoint_fingerprint(load_checkpoint(f"{tmp}/{run}/ckpt-final.json"))
                  for run in ("one", "two")]
    assert finals[0] == finals[1]


def test_gist_sweep_puts_back_the_rows_whose_loss_rose(monkeypatch):
    # scores that favour every +1: each row moves all its table columns,
    # and the check against the logged loss decides which rows keep that
    tree = gen_synthetic("complete", 4, 3)
    ds = encode_tree(tree)
    counts = ds.pair_counts()
    model = new_model(ModelConfig(ds.codec), seed=1)
    start = model_from_state(model_state(model))
    digits = (0, 1, 2)
    table = _pair_table(model, counts)
    sweep = optim._RowSweep(model, table, digits)
    before = [_reference_row_loss(model, counts, digits, ke, r)
              for ke, r in zip(sweep.heads, sweep.rows)]
    monkeypatch.setattr(optim._RowSweep, "scores",
                        lambda self, st, Xs, s, r, j, y: np.where(y == (self.X[r, j] + 1) % self.p,
                                                                  -np.inf, np.inf))
    report = {}
    accepted, _ = _gist_sweep(model, table, digits, report=report)
    kept = moves = 0
    for ke, r, was in zip(sweep.heads, sweep.rows, before):
        now = _reference_row_loss(model, counts, digits, ke, r)
        head, old = model.heads[ke], start.heads[ke]
        if np.array_equal(head.table[r], old.table[r]):
            assert head.anchor[r] == old.anchor[r] and now == was
        else:
            assert np.array_equal(head.table[r], (old.table[r] + 1) % model.p)
            assert now <= was + 1e-12 * was
            kept += 1
            moves += model.p + (head.anchor[r] != old.anchor[r])
    assert 0 < kept < sweep.A.size
    assert report == {"reverts": sweep.A.size - kept}
    assert accepted == moves
    # the epoch line reports them
    buf = io.StringIO()
    plan = TrainPlan((TrainPhase("only", 1, 0.0, digits),), checkpoint_interval=0)
    train(model_from_state(model_state(start)), ds, GistConfig(), plan, log_stream=buf)
    line = json.loads(buf.getvalue())
    assert (line["reverts"], line["accepted_moves"]) == (report["reverts"], accepted)


def _adam_once(latent, grad, state, cfg, lr=None):
    """One trainer update (_adam_step) of a single array, with state's
    moments shaped like it; returns it."""
    arr = np.array(latent, dtype=np.float64, ndmin=1)
    if state.m is None:
        state.m, state.u = np.zeros(arr.shape), np.zeros(arr.shape)
    x, m, u = (a.reshape(-1) for a in (arr, state.m, state.u))
    g = np.asarray(grad, dtype=np.float64).ravel()
    _adam_step(x, m, u, g, state, cfg, cfg.lr if lr is None else lr, np.empty((2, x.size)))
    return arr


def test_adam_step_first_step_is_signed_lr():
    cfg = AdamConfig()
    state = OptimState()
    out = _adam_once(3.0, 2.0, state, cfg)
    # bias correction makes the first step lr * g / (|g| + eps)
    assert out[0] == pytest.approx(3.0 - cfg.lr, abs=1e-9)
    assert state.t == 1
    out2 = _adam_once(3.0, -0.5, OptimState(), cfg)
    assert out2[0] == pytest.approx(3.0 + cfg.lr, abs=1e-9)


def test_adam_step_zero_grad_is_identity():
    state = OptimState()
    out = _adam_once(1.25, 0.0, state, AdamConfig())
    assert out[0] == 1.25
    assert state.t == 1


def test_adam_step_array_and_state_accumulation():
    cfg = AdamConfig()
    state = OptimState()
    latent = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.array([[1.0, -1.0], [0.0, 2.0]])
    out = _adam_once(latent, g, state, cfg)
    assert out.shape == (2, 2)
    assert out[1, 0] == 3.0
    assert state.m.shape == (2, 2)
    out2 = _adam_once(out, g, state, cfg)
    assert state.t == 2
    assert np.all(np.abs(out2 - out) <= cfg.lr + 1e-9)


def test_adam_step_explicit_t_and_lr():
    cfg = AdamConfig()
    state = OptimState(t=3)
    out = _adam_once(0.0, 1.0, state, cfg, lr=0.4)
    assert state.t == 4
    # the step count t drives the bias correction
    m_hat = (1 - cfg.beta1) / (1 - cfg.beta1**4)
    u_hat = (1 - cfg.beta2) / (1 - cfg.beta2**4)
    assert out[0] == pytest.approx(-0.4 * m_hat / (math.sqrt(u_hat) + cfg.eps), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        GistConfig(patience=0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(beta2=0.0)
    with pytest.raises(ValueError):
        AdamConfig(lr=0.0)
    with pytest.raises(ValueError):
        AdamConfig(warmup_lr=-0.1)
    with pytest.raises(ValueError):
        AdamConfig(eps=0.0)
    for name in ("lr", "eps", "warmup_lr"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
                AdamConfig(**{name: bad})


def test_default_plan_shape():
    plan = default_plan(5)
    assert [ph.name for ph in plan.phases] == ["deep-warmup", "root-warmup", "fine-tune"]
    assert [ph.epochs for ph in plan.phases] == [8, 4, 100]
    assert [ph.lr for ph in plan.phases] == [0.03, 0.03, 0.015]
    assert plan.phases[0].digits == (2, 3, 4)
    assert plan.phases[1].digits == (0, 1)
    assert plan.phases[2].digits == (0, 1, 2, 3, 4)
    assert plan.checkpoint_interval == 20


def test_default_plan_small_k():
    assert len(default_plan(2).phases) == 2  # no deep digits to warm up
    shallow = default_plan(1)
    assert shallow.phases[0].digits == (0,)
    custom = default_plan(3, lr=0.5, warmup_lr=0.25)
    assert custom.phases[0].lr == 0.25
    assert custom.phases[-1].lr == 0.5


def test_uniform_plan_shape():
    plan = uniform_plan(4, epochs=7, lr=1e-3)
    assert [ph.epochs for ph in plan.phases] == [7, 7, 7]
    assert {ph.lr for ph in plan.phases} == {1e-3}


def test_dataset_loss_teacher_forcing_isolation():
    # a digit's loss reads only its own head: perturbing others is invisible
    tree_text = "root\t-\na\troot\nb\troot\n"
    lines = [tree_text]
    for top in ("a", "b"):
        for mid in range(2):
            lines.append(f"{top}{mid}\t{top}\n")
            for bot in range(2):
                lines.append(f"{top}{mid}x{bot}\t{top}{mid}\n")
    tree = loads_tree("".join(lines))
    ds = encode_tree(tree)
    model = new_model(ModelConfig(ds.codec), seed=1)
    counts = ds.pair_counts()
    per_digit = [dataset_loss(model, counts, [k]) for k in range(3)]
    model.heads[0].table[0, 0] += 3.0
    assert dataset_loss(model, counts, [1]) == per_digit[1]
    assert dataset_loss(model, counts, [2]) == per_digit[2]
    model.heads[1].table[...] -= 1.0
    assert dataset_loss(model, counts, [2]) == per_digit[2]
    model.heads[2].table[...] += 2.0
    assert dataset_loss(model, counts, [0]) != per_digit[0]  # head 0 did change above


def _reference_dataset_loss(model, ds, digits):
    """Per-record loop over the teacher-forced objective, in plain floats."""
    p, tau = model.p, model.config.tau
    rows = [r.code.digits for r in ds.records]
    pair_count = Counter(
        (k, row[k - 1] if k else 0, row[k]) for row in rows for k in range(ds.codec.K)
    )

    def lse(xs):
        m = max(xs)
        return m + math.log(sum(math.exp(x - m) for x in xs))

    total = 0.0
    for row in rows:
        for k in digits:
            head = model.heads[min(k, model.config.K_heads - 1)]
            prev, t = row[k - 1] if k else 0, row[k]
            scores = head.table[prev].tolist()
            competitor = max((j for j in range(p) if j != t), key=lambda j: scores[j])
            w = 1.0 / math.sqrt(pair_count[k, prev, t])
            ce = lse(scores) - scores[t]
            v = float(head.anchor[prev])
            total += w * ce + two_logit_loss(v, t, competitor, tau, weight=w)
    return total / len(rows)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("real_valued", [False, True])
def test_dataset_loss_matches_per_record_reference(seed, real_valued):
    ds = encode_tree(irregular_tree(seed, 60, max_children=5, max_depth=6))
    K = ds.codec.K
    assert K >= 3
    for k_heads in (K, 3):
        model = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
        if real_valued:
            rng = np.random.default_rng(seed)
            for arr in model_arrays(model).values():
                arr += rng.normal(0.0, 1.5, size=arr.shape)
        digits = range(K)
        got = dataset_loss(model, ds, digits)
        want = _reference_dataset_loss(model, ds, digits)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert dataset_loss(model, ds.pair_counts(), [K - 1]) == pytest.approx(
            _reference_dataset_loss(model, ds, [K - 1]), rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("digit", [-1, 2, 5])
def test_dataset_loss_refuses_a_digit_outside_the_code(digit):
    _, ds, model = _toy_setup()
    assert ds.codec.K == 2
    for data in (ds, ds.pair_counts()):
        with pytest.raises(ValueError, match=f"digit {digit} lies outside \\[0, 2\\)"):
            dataset_loss(model, data, [0, digit])


@pytest.mark.parametrize("optimizer", [GistConfig(), AdamConfig()])
@pytest.mark.parametrize("digit", [-1, 5])
def test_train_refuses_a_phase_digit_outside_the_code_before_any_move(optimizer, digit):
    # the first phase is valid and would move the model; the refusal comes
    # before it
    _, ds, model = _toy_setup()
    before = model_state(model)
    plan = TrainPlan((TrainPhase("first", 2, 0.03, (0, 1)), TrainPhase("bad", 1, 0.03, (1, digit))))
    with pytest.raises(ValueError, match=f"phase 'bad': digit {digit} lies outside \\[0, 2\\)"):
        train(model, ds, optimizer, plan)
    assert model_state(model) == before


@pytest.mark.parametrize("optimizer", [GistConfig(), AdamConfig()])
def test_train_weighs_the_pairs_once_per_run(monkeypatch, optimizer):
    # the run's pair table holds the rarity weights: one huffman_weights
    # call per digit, however many epochs log a loss
    calls = []

    def counted(counts):
        calls.append(1)
        return huffman_weights(counts)

    monkeypatch.setattr(optim, "huffman_weights", counted)
    tree = gen_synthetic("complete", 3, 5)
    ds = encode_tree(tree)
    result = train(new_model(ModelConfig(ds.codec), seed=0), ds, optimizer, tree=tree)
    assert len(result.history) > 1
    assert len(calls) == ds.codec.K


def test_train_single_leaf_first_sweep_is_exact():
    tree = loads_tree("root\t-\nonly\troot\n")
    ds = encode_tree(tree)
    model = new_model(ModelConfig(ds.codec), seed=0)
    result = train(model, ds, GistConfig(), default_plan(ds.codec.K), tree=tree)
    assert result.history[0]["leaf_acc"] == 1.0
    assert all(h["leaf_acc"] == 1.0 for h in result.history)


def test_train_log_stream_fields():
    tree, ds, model = _toy_setup()
    buf = io.StringIO()
    plan = TrainPlan((TrainPhase("only", 2, 0.03, (0, 1)),), checkpoint_interval=0)
    train(model, ds, GistConfig(), plan, tree=tree, log_stream=buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 2
    for entry in lines:
        assert set(entry) == {
            "phase", "epoch", "loss", "per_digit_acc", "leaf_acc",
            "accepted_moves", "reverts", "wall_ms",
        }
        assert entry["reverts"] == 0
        assert entry["phase"] == "only"
        assert len(entry["per_digit_acc"]) == 2


def test_train_gist_fits_toy():
    tree, ds, model = _toy_setup(seed=0)
    result = train(model, ds, GistConfig(), tree=tree)
    assert result.history[-1]["leaf_acc"] == 1.0
    assert result.evals > 0
    # lattice moves keep every latent integral
    for arr in model_arrays(model).values():
        assert np.all(arr == np.floor(arr))


def test_train_adam_fits_toy():
    tree, ds, model = _toy_setup(seed=0)
    result = train(model, ds, AdamConfig(), tree=tree)
    assert result.history[-1]["leaf_acc"] == 1.0
    assert result.steps > 0


@pytest.mark.parametrize("optimizer", [GistConfig(), AdamConfig()], ids=["gist", "adam"])
def test_trained_head_one_rejects_every_unobserved_digit(optimizer):
    # c07's desk tree (p = 5, three children per node): after the default
    # plan, every cell of a live row of digit 1's head that no record
    # holds scores below the row max less the margin, so reconstruction
    # rejects that digit rather than accepting whatever the input says
    tree = gen_synthetic("complete", 3, 5)
    ds = encode_tree(tree)
    model = new_model(ModelConfig(ds.codec), seed=0)
    train(model, ds, optimizer, default_plan(ds.codec.K), tree=tree)
    pairs = ds.pair_counts()[1]
    live = np.unique(pairs.parent)
    observed = np.zeros((model.p, model.p), dtype=bool)
    observed[pairs.parent, pairs.child] = True
    rows = model.heads[1].table[live]
    floor = rows.max(axis=1, keepdims=True) - RECONSTRUCT_MARGIN
    unobserved = ~observed[live]
    assert unobserved.sum() == 6
    assert (rows < floor)[unobserved].all(), rows


@pytest.mark.parametrize("optimizer", [GistConfig(), AdamConfig()], ids=["gist", "adam"])
@pytest.mark.parametrize("k_heads", [None, 3])
def test_heads_below_head_zero_train_independently_of_it(optimizer, k_heads):
    # a digit's loss and gradient read only its own head, so two models
    # that differ only in head 0 end with the same heads below it
    tree = gen_synthetic("complete", 3, 5)
    ds = encode_tree(tree)
    config = ModelConfig(ds.codec, k_heads)
    a, b = new_model(config, seed=0), new_model(config, seed=0)
    rng = np.random.default_rng(1)
    for arr in (b.heads[0].table, b.heads[0].anchor):
        arr[...] = rng.integers(0, ds.codec.p, size=arr.shape)
    assert not np.array_equal(a.heads[0].table, b.heads[0].table)
    for model in (a, b):
        train(model, ds, optimizer, default_plan(ds.codec.K), tree=tree)
    for name, arr in model_arrays(a).items():
        if not name.startswith("head0."):
            assert np.array_equal(arr.view(np.int64), model_arrays(b)[name].view(np.int64)), name


def test_train_empty_dataset_rejected():
    tree, ds, model = _toy_setup()
    empty = type(ds)(ds.codec, (), [], [])
    with pytest.raises(ValueError):
        train(model, empty, GistConfig())


@pytest.mark.parametrize("batch_size", [0, -3])
def test_train_adam_rejects_batch_size_below_one(batch_size):
    tree, ds, model = _toy_setup()
    with pytest.raises(ValueError, match="batch_size"):
        train(model, ds, AdamConfig(), tree=tree, batch_size=batch_size)


def test_train_numeric_abort_names_head():
    tree, ds, model = _toy_setup()
    model.heads[0].table[0, 1] = np.nan
    with pytest.raises(NumericAbort) as err, np.errstate(invalid="ignore"):
        train(model, ds, AdamConfig(), tree=tree)
    assert (err.value.head, err.value.index) == ("head0.table", (0, 1))
    assert "head0.table" in str(err.value)


def test_train_numeric_abort_names_untrained_head():
    # a phase checks only the arrays it trains; a non-finite latent
    # elsewhere is caught before the first step
    tree = irregular_tree(0, 40, 4, 5)
    ds = encode_tree(tree)
    model = new_model(ModelConfig(ds.codec), seed=0)
    model.heads[2].anchor[2] = np.inf
    plan = TrainPlan((TrainPhase("shallow", 2, 0.03, (0, 1)),), checkpoint_interval=0)
    with pytest.raises(NumericAbort) as err:
        train(model, ds, AdamConfig(), plan, tree=tree)
    assert (err.value.head, err.value.index) == ("head2.anchor", (2,))


def test_optim_state_dict_round_trip_gist():
    doc = optim_state_dict("gist", OptimState(t=5), streak=1)
    assert doc == {"kind": "gist", "t": 5, "streak": 1}
    _, ds, model = _toy_setup()
    back = restore_optim_state(doc, model)
    assert back.t == 5


@pytest.mark.parametrize("kind, key", [("gist", "streak"), ("gist", "t"), ("adam", "t")])
def test_resume_refuses_a_negative_count(tmp_path, kind, key):
    tree, ds, model = _toy_setup()
    opt = GistConfig() if kind == "gist" else AdamConfig()
    plan = TrainPlan((TrainPhase("a", 4, 0.03, (0, 1)),), checkpoint_interval=2)
    train(model, ds, opt, plan, tree=tree, checkpoint_dir=str(tmp_path))
    doc = load_checkpoint(str(tmp_path / "ckpt-00002.json"))
    doc["optim"][key] = -1
    with pytest.raises(ValueError, match=f"'{key}' must be >= 0, got -1"):
        train(load_model(doc), ds, opt, plan, tree=tree, resume=doc)


def test_optim_state_dict_round_trip_adam():
    state = OptimState()
    _, ds, model = _toy_setup()
    # one step on head 0's table alone sets bits of head 0's moments only
    g = np.zeros(model.latents.shape)
    _array_views(g)["head0.table"][...] = 1.0
    _adam_once(model.latents, g, state, AdamConfig())
    doc = optim_state_dict("adam", state)
    assert doc["m"].keys() == doc["u"].keys() == {"head0.table", "head0.anchor"}
    assert doc["shapes"] == {"head0.table": [model.p, model.p], "head0.anchor": [model.p]}
    back = restore_optim_state(doc, model)
    assert back.t == 1
    assert back.m.shape == model.latents.shape
    assert np.array_equal(back.m, state.m)
    assert np.array_equal(back.u, state.u)


def _fingerprint(path):
    return checkpoint_fingerprint(load_checkpoint(path))


@pytest.mark.parametrize("kind", ["gist", "adam"])
def test_train_same_seed_is_bit_identical(tmp_path, kind):
    opt = GistConfig() if kind == "gist" else AdamConfig()
    plan = TrainPlan(
        (TrainPhase("a", 3, 0.03, (0, 1)), TrainPhase("b", 4, 0.015, (0, 1))),
        checkpoint_interval=2,
    )
    prints = []
    for run in ("one", "two"):
        tree, ds, model = _toy_setup(seed=7)
        train(
            model, ds, opt, plan, seed=7, tree=tree,
            checkpoint_dir=str(tmp_path / f"{kind}-{run}"),
            run_config={"case": kind},
        )
        prints.append(_fingerprint(str(tmp_path / f"{kind}-{run}" / "ckpt-final.json")))
    assert prints[0] == prints[1]


@pytest.mark.parametrize("kind", ["gist", "adam"])
def test_train_split_resume_is_bit_identical(tmp_path, kind):
    opt = GistConfig() if kind == "gist" else AdamConfig()
    # interval 2 with 2-epoch phases puts one checkpoint exactly on the
    # phase boundary, the trickiest resume point
    plan = TrainPlan(
        (TrainPhase("a", 2, 0.03, (0, 1)), TrainPhase("b", 5, 0.015, (0, 1))),
        checkpoint_interval=2,
    )
    tree, ds, model = _toy_setup(seed=11)
    full = train(
        model, ds, opt, plan, seed=11, tree=tree,
        checkpoint_dir=str(tmp_path / "full"), run_config={"case": kind},
    )
    assert str(tmp_path / "full" / "ckpt-00002.json") in full.checkpoints
    for mid in ("ckpt-00002.json", "ckpt-00004.json"):
        doc = load_checkpoint(str(tmp_path / "full" / mid))
        resumed_model = load_model(doc)
        out = tmp_path / f"resume-{mid}"
        train(
            resumed_model, ds, opt, plan, seed=11, tree=tree,
            checkpoint_dir=str(out), run_config={"case": kind}, resume=doc,
        )
        assert _fingerprint(str(out / "ckpt-final.json")) == _fingerprint(
            str(tmp_path / "full" / "ckpt-final.json")
        ), mid


@pytest.mark.parametrize("p, K", [(2, 3), (5, 3), (3, 4)])
def test_train_refuses_a_model_of_another_codec(tmp_path, p, K):
    tree, ds, _ = _toy_setup()
    model = new_model(ModelConfig(CodecParams(p, K)), seed=0)
    with pytest.raises(ValueError) as err:
        train(model, ds, GistConfig(), tree=tree, checkpoint_dir=str(tmp_path / "ck"))
    assert str(ds.codec) in str(err.value) and str(model.config.codec) in str(err.value)
    assert not (tmp_path / "ck").exists()


# phases of 2, 0 and 3 epochs, a checkpoint after every epoch
_PLAN_203 = TrainPlan(
    (
        TrainPhase("a", 2, 0.03, (0, 1)),
        TrainPhase("b", 0, 0.03, (0,)),
        TrainPhase("c", 3, 0.03, (0, 1)),
    ),
    checkpoint_interval=1,
)


@pytest.mark.parametrize(
    "phase, epoch",
    [(99, 0), (0, -5), (-1, 0), (0, 2), (1, 1), (2, 3), (3, 1), (4, 0)],
)
def test_train_refuses_a_resume_cursor_outside_the_plan(tmp_path, phase, epoch):
    tree, ds, model = _toy_setup(seed=3)
    train(model, ds, GistConfig(), _PLAN_203, tree=tree, checkpoint_dir=str(tmp_path))
    doc = load_checkpoint(str(tmp_path / "ckpt-00001.json"))
    doc["cursor"] = {"phase": phase, "epoch": epoch}
    want = rf"resume cursor \(phase {phase}, epoch {epoch}\) lies outside the plan"
    with pytest.raises(ValueError, match=want):
        train(load_model(doc), ds, GistConfig(), _PLAN_203, tree=tree, resume=doc)


def test_train_resumes_from_every_cursor_it_writes(tmp_path):
    tree, ds, model = _toy_setup(seed=3)
    opt = GistConfig(patience=99)
    full = train(model, ds, opt, _PLAN_203, tree=tree, checkpoint_dir=str(tmp_path / "full"))
    cursors = []
    for path in full.checkpoints:
        doc = load_checkpoint(path)
        cursors.append((doc["cursor"]["phase"], doc["cursor"]["epoch"]))
        out = tmp_path / f"resume-{len(cursors)}"
        train(load_model(doc), ds, opt, _PLAN_203, tree=tree, checkpoint_dir=str(out), resume=doc)
        assert _fingerprint(str(out / "ckpt-final.json")) == _fingerprint(full.checkpoints[-1])
    # after phase a, the cursor (1, 0) opens phase b, which has no epochs
    assert cursors == [(0, 1), (1, 0), (2, 1), (2, 2), (3, 0), (3, 0)]


def test_train_checkpoint_schedule(tmp_path):
    tree, ds, model = _toy_setup()
    plan = TrainPlan((TrainPhase("a", 5, 0.03, (0, 1)),), checkpoint_interval=2)
    result = train(
        model, ds, AdamConfig(), plan, tree=tree, checkpoint_dir=str(tmp_path)
    )
    names = [p.split("/")[-1] for p in result.checkpoints]
    assert names == ["ckpt-00002.json", "ckpt-00004.json", "ckpt-final.json"]


# --- reference Adam trainer ---------------------------------------------------
# The trainer as a plain per-array loop: per step, a fresh zero gradient
# per trained array, each row set from the step's cells one at a time in
# the arithmetic _accumulate_grads defines, and one moment update per
# array.  The flat, cell-wise trainer must follow it bit for bit; the
# per-record gradient (_reference_grads) checks the cell-wise one within
# rounding.


def _rarity_weights(D):
    """(N, K) rarity weight 1/sqrt(count) of each row's (digit k-1, digit
    k) pair, counted over the rows of D; digit 0's parent reads as 0."""
    W = np.empty(D.shape)
    for k in range(D.shape[1]):
        prev = D[:, k - 1] if k else np.zeros(len(D), dtype=np.int64)
        _, inv, count = np.unique(
            np.stack([prev, D[:, k]], axis=1), axis=0, return_inverse=True, return_counts=True
        )
        W[:, k] = huffman_weights(count)[inv.ravel()]
    return W


@pytest.mark.parametrize("k_heads", [None, 2, 1])
def test_record_tables_weigh_each_record_by_its_pair_rarity(k_heads):
    ds = encode_tree(irregular_tree(3, 60, 4, 6))
    D = ds.digits_matrix()
    p, K = ds.codec.p, ds.codec.K
    model = new_model(ModelConfig(ds.codec, k_heads), seed=0)
    counts = ds.pair_counts()
    tables = _pair_table(model, counts, D)
    pair, live = tables.pair, tables.live
    assert np.array_equal(tables.weight[pair], _rarity_weights(D))
    # each digit selects the live row of its head that its previous
    # digit names, row 0 for digit 0, and targets its own digit
    for k in range(K):
        rows = tables.row[pair[:, k]]
        assert (live[0, rows] == _effective_depth(model, k)).all()
        assert np.array_equal(live[1, rows], D[:, k - 1] if k else np.zeros(len(D)))
        assert np.array_equal(tables.child[pair[:, k]], D[:, k])
    # one pair per digit's distinct pair, each of one digit, numbered in
    # (live row, child, digit) order
    assert tables.child.size == sum(c.child.size for c in counts)
    digit = np.full(tables.child.size, -1)
    for k in range(K):
        ids = np.unique(pair[:, k])
        assert (digit[ids] == -1).all() and ids.size == counts[k].child.size
        digit[ids] = k
        assert np.array_equal(np.sort(tables.count[ids]), np.sort(counts[k].count))
    assert np.array_equal(tables.digit, digit)
    assert (np.diff((tables.row * p + tables.child) * K + digit) > 0).all()
    assert _pair_table(model, counts).pair is None


def _reference_grads(model, D, W, k, idx, grads):
    """Add digit k's mean gradient over the records idx into grads."""
    ke = _effective_depth(model, k)
    t = D[idx, k]
    n = idx.size
    ar = np.arange(n)
    prev = D[idx, k - 1] if k else np.zeros(n, dtype=np.int64)
    head = model.heads[ke]
    rows = head.table[prev]
    sm = softmax_rows(rows)
    one_hot = np.zeros_like(rows)
    one_hot[ar, t] = 1.0
    w = W[idx, k]
    np.add.at(grads[f"head{ke}.table"], prev, w[:, None] * (sm - one_hot) / n)
    v = head.anchor[prev]
    correct = (_anchored_choice_rows(model, ke, prev, rows) == t).astype(np.float64)
    tau = model.config.tau
    d = v - t
    ga = w * 2.0 * tau * d * (1.0 / (1.0 + np.exp(-(d * d / tau))) - correct)
    np.add.at(grads[f"head{ke}.anchor"], prev, ga / n)


def _reference_cell_grads(model, D, W, step, grads):
    """Set the mean gradient of one step's records in grads, one cell at a
    time; step maps each phase digit to its records.

    A cell is a (head, row, child) that some record of some digit selects
    and targets.  Its weight sums each of its digits' records times their
    rarity weight, in digit order, divided by the records per digit; a
    row's weight sums its cells' weights in child order."""
    tau = model.config.tau
    cells = {}  # (head, row, child) -> {digit: [records, rarity weight]}
    for k, idx in step.items():
        for i in idx.tolist():
            key = (_effective_depth(model, k), int(D[i, k - 1]) if k else 0, int(D[i, k]))
            cells.setdefault(key, {}).setdefault(k, [0, W[i, k]])[0] += 1
    n = len(next(iter(step.values())))
    rows = {}
    for (ke, r, t), pairs in sorted(cells.items()):
        w = 0.0
        for k in sorted(pairs):
            records, weight = pairs[k]
            w += records * weight
        rows.setdefault((ke, r), []).append((t, w / n))
    for (ke, r), row_cells in rows.items():
        head = model.heads[ke]
        table = head.table[r : r + 1]
        choice = _anchored_choice_rows(model, ke, np.array([r]), table)[0]
        row_w = 0.0
        for _, w in row_cells:
            row_w += w
        g = softmax_rows(table)[0] * row_w
        ga = 0.0
        for t, w in row_cells:
            g[t] -= w
            d = head.anchor[r] - t
            ga += w * 2.0 * tau * d * (1.0 / (1.0 + np.exp(-(d * d / tau))) - float(choice == t))
        grads[f"head{ke}.table"][r] = g
        grads[f"head{ke}.anchor"][r] = ga


def _reference_update(arr, g, m, u, cfg, lr, t):
    """Bias-corrected moment update of one latent array, in place."""
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    u *= cfg.beta2
    u += (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    u_hat = u / (1.0 - cfg.beta2**t)
    arr -= lr * m_hat / (np.sqrt(u_hat) + cfg.eps)


def _reference_adam_train(model, ds, cfg, plan, batch_size, seed, tree, checkpoint_dir):
    """Epoch log (without wall_ms) of a run from scratch; writes the same
    checkpoints as train."""
    D = ds.digits_matrix()
    n = D.shape[0]
    table = _pair_table(model, ds.pair_counts())
    W = _rarity_weights(D)
    leaf_ids = tree.ids_of(ds.leaves)
    history, global_epoch = [], 0
    state = OptimState()

    def save(name, cursor):
        # a phase entry's moments are reset before any step reads them:
        # its checkpoint holds none
        held = state if cursor[1] else OptimState(t=state.t)
        save_checkpoint(
            f"{checkpoint_dir}/{name}", model, optim_state=optim_state_dict("adam", held),
            cursor={"phase": cursor[0], "epoch": cursor[1]}, seed=seed,
        )

    for pi, phase in enumerate(plan.phases):
        state = OptimState()
        served = sorted({_effective_depth(model, k) for k in phase.digits})
        for e in range(phase.epochs):
            perms = {k: child_rng(seed, "shuffle", pi, e, k).permutation(n) for k in phase.digits}
            for s in range(math.ceil(n / batch_size)):
                grads = {
                    name: np.zeros_like(arr)
                    for name, arr in _array_views(model.latents, served).items()
                }
                step = {k: perms[k][s * batch_size : (s + 1) * batch_size] for k in phase.digits}
                _reference_cell_grads(model, D, W, step, grads)
                state.t += 1
                if state.m is None:
                    state.m, state.u = np.zeros_like(model.latents), np.zeros_like(model.latents)
                m, u = _array_views(state.m), _array_views(state.u)
                for name, g in grads.items():
                    arr = model_arrays(model)[name]
                    _reference_update(arr, g, m[name], u[name], cfg, phase.lr, state.t)
            loss, per_digit, leaf_acc = _epoch_metrics(model, D, table, tree, leaf_ids, phase.digits)
            history.append({
                "phase": phase.name, "epoch": e, "loss": loss, "per_digit_acc": per_digit,
                "leaf_acc": leaf_acc, "accepted_moves": math.ceil(n / batch_size),
            })
            global_epoch += 1
            cursor = (pi, e + 1) if e + 1 < phase.epochs else (pi + 1, 0)
            if global_epoch % plan.checkpoint_interval == 0:
                save(f"ckpt-{global_epoch:05d}.json", cursor)
    save("ckpt-final.json", (len(plan.phases), 0))
    return history


# (tree seed, extra nodes, max children, max depth, K_heads, batch size,
# digits of the first phase or None for the staged plan, leaf children
# added to one node at the tree's deepest level)
_ORACLE_CASES = [
    (0, 70, 5, 6, None, 16, None, 0),  # one head per digit
    (1, 60, 4, 6, 3, 7, None, 0),  # the last head serves digits >= 2
    (2, 60, 4, 6, 1, 9, None, 0),  # head 0 serves every digit
    (3, 60, 4, 6, 2, 64, None, 0),  # the depth-1 head serves digits >= 1
    (4, 80, 6, 5, None, 13, (0, 3), 0),  # trained heads not adjacent
    (5, 90, 5, 6, 4, 11, (4, 1, 0), 0),  # digits out of order
    (6, 100, 4, 6, None, 64, None, 0),  # one partial step per epoch
    (7, 100, 4, 6, 3, 13, None, 0),  # a last step of one record
    (8, 40, 4, 6, 3, 16, None, 40),  # few distinct rows per step
]


def _with_wide_node(tree, width):
    """tree with width more leaves under the parent of a deepest leaf, so
    the records below it share their digits up to the last."""
    names, parent = tree.names, tree.parent
    hub = int(parent[tree.leaves[np.argmax(tree.depth[tree.leaves])]])
    lines = [f"{name}\t{names[q] if q >= 0 else '-'}" for name, q in zip(names, parent.tolist())]
    lines += [f"wide{i}\t{names[hub]}" for i in range(width)]
    return loads_tree("\n".join(lines) + "\n")


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_adam_trainer_matches_per_array_reference(tmp_path, case):
    seed, size, branching, depth, k_heads, batch_size, digits, wide = case
    tree = irregular_tree(seed, size, branching, depth)
    if wide:
        tree = _with_wide_node(tree, wide)
    ds = encode_tree(tree)
    K = ds.codec.K
    assert K >= 5 and len(ds.leaves) % batch_size != 0
    cfg = AdamConfig()
    if digits is None:
        plan = TrainPlan(uniform_plan(K, epochs=3, lr=0.03).phases, checkpoint_interval=2)
    else:
        phases = (TrainPhase("a", 3, 0.03, digits), TrainPhase("b", 2, 0.015, tuple(range(K))))
        plan = TrainPlan(phases, checkpoint_interval=2)
    reference = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
    want = _reference_adam_train(
        reference, ds, cfg, plan, batch_size, seed, tree, str(tmp_path / "ref")
    )
    model = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
    got = train(
        model, ds, cfg, plan, batch_size=batch_size, seed=seed, tree=tree,
        checkpoint_dir=str(tmp_path / "new"),
    )
    assert [{k: v for k, v in h.items() if k != "wall_ms"} for h in got.history] == want
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    final = _fingerprint(str(tmp_path / "ref" / "ckpt-final.json"))
    for name in names:
        assert _fingerprint(str(tmp_path / "new" / name)) == _fingerprint(
            str(tmp_path / "ref" / name)
        ), name
    # resuming from every interval checkpoint, mid-phase ones included,
    # ends on the reference's final checkpoint
    for name in names[:-1]:
        doc = load_checkpoint(str(tmp_path / "ref" / name))
        out = tmp_path / f"resume-{name}"
        train(
            load_model(doc), ds, cfg, plan, batch_size=batch_size, seed=seed, tree=tree,
            checkpoint_dir=str(out), resume=doc,
        )
        assert _fingerprint(str(out / "ckpt-final.json")) == final, name


def _trained_heads(model, digits):
    """The heads an Adam epoch over digits steps: from the first to the
    last that serves one of them."""
    heads = [_effective_depth(model, k) for k in digits]
    return slice(min(heads), max(heads) + 1)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_adam_step_gradient_is_the_per_record_gradient(case, perturbed):
    # every step of one epoch of each phase: the cell-wise gradient is the
    # per-record one, which sums each record's terms, within rounding
    seed, size, branching, depth, k_heads, batch_size, digits, wide = case
    tree = irregular_tree(seed, size, branching, depth)
    if wide:
        tree = _with_wide_node(tree, wide)
    ds = encode_tree(tree)
    K = ds.codec.K
    model = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
    rng = np.random.default_rng(seed)
    if perturbed:
        for arr in model_arrays(model).values():
            arr += rng.normal(0.0, 1.5, size=arr.shape)
    D = ds.digits_matrix()
    n = D.shape[0]
    W = _rarity_weights(D)
    tables = _pair_table(model, ds.pair_counts(), D)
    if digits is None:
        phase_sets = [ph.digits for ph in uniform_plan(K).phases]
    else:
        phase_sets = [digits, tuple(range(K))]
    for phase_digits in phase_sets:
        heads = _trained_heads(model, phase_digits)
        perms = {k: rng.permutation(n) for k in phase_digits}
        b = _Batches(model, heads.start, D, tables, perms, batch_size)
        for s in range(b.steps):
            got = _accumulate_grads(model.latents[heads].reshape(-1), b, s)
            grads = np.zeros_like(model.latents)
            for k in phase_digits:
                idx = perms[k][s * batch_size : (s + 1) * batch_size]
                _reference_grads(model, D, W, k, idx, _array_views(grads))
            want = grads[heads].ravel()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (phase_digits, s)


def _anchor_records(model, D, W, digits, ke):
    """(row, target, rarity weight, arbitration correct) of every record
    that a digit of digits reads through the anchors of head ke, the
    arbitration read from the model as it stands."""
    parts = []
    for k in digits:
        if _effective_depth(model, k) == ke:
            prev, t = D[:, k - 1] if k else np.zeros(len(D), dtype=np.int64), D[:, k]
            choice = _anchored_choice_rows(model, ke, prev, model.heads[ke].table[prev])
            parts.append((prev, t, W[:, k], choice == t))
    return [np.concatenate(a) for a in zip(*parts)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k_heads", [None, 3, 2, 1])
def test_adam_full_batch_gradient_is_the_objective_gradient(seed, k_heads):
    # with one batch holding every record, the step gradient of the table
    # entries is the gradient of dataset_loss.  An anchor's
    # update is not the gradient of the logged loss (the module docstring's
    # defect (b)): it is the gradient of sum w anchor_loss(v, t, tau,
    # correct) / n over the records that read the anchor, with each
    # record's arbitration held fixed
    ds = encode_tree(irregular_tree(seed, 40, 4, 5))
    K = ds.codec.K
    model = new_model(ModelConfig(ds.codec, k_heads), seed=seed)
    rng = np.random.default_rng(seed)
    for arr in model_arrays(model).values():
        arr += rng.normal(0.0, 1.5, size=arr.shape)
    counts = ds.pair_counts()
    D = ds.digits_matrix()
    W = _rarity_weights(D)
    n = D.shape[0]
    tau = model.config.tau
    for digits in (tuple(range(K)), (0, 3), tuple(range(2, K))):
        heads = _trained_heads(model, digits)
        served = {_effective_depth(model, k) for k in digits}
        perms = {k: rng.permutation(n) for k in digits}
        batches = _Batches(model, heads.start, D, _pair_table(model, counts, D), perms, n)
        grad = np.zeros_like(model.latents)
        x = model.latents[heads].reshape(-1)
        grad[heads] = _accumulate_grads(x, batches, 0).reshape(grad[heads].shape)
        grads = _array_views(grad)
        h = 1e-6
        for name, arr in _array_views(model.latents, sorted(served)).items():
            if name.endswith(".anchor"):
                ke = int(name[len("head") : name.index(".")])
                rows, t, w, correct = _anchor_records(model, D, W, digits, ke)
                top, second = _top_two(model.heads[ke].table)
                for r in np.unique(rows):
                    v = arr[r]
                    # away from switch points: the arbitration compares
                    # (v - top)^2 - (v - second)^2, linear in v with slope
                    # 2 (second - top), with 0; a step of h must not flip it
                    gap = (v - top[r]) ** 2 - (v - second[r]) ** 2
                    assert abs(gap) > 10 * 2 * abs(second[r] - top[r]) * h
                    on = np.flatnonzero(rows == r)

                    def potential(u):
                        return sum(
                            w[i] * anchor_loss(u, t[i], tau, bool(correct[i])) for i in on
                        ) / n

                    fd = (potential(v + h) - potential(v - h)) / (2 * h)
                    assert grads[name][r] == pytest.approx(fd, rel=1e-5, abs=1e-8), (
                        name, r, digits,
                    )
                assert not np.any(np.delete(grads[name], rows))
                continue
            # away from ties: a step of h must not reorder a row's top three
            top3 = -np.sort(-arr, axis=1)[:, :3]
            assert np.all(np.diff(-top3, axis=1) > 1e3 * h)
            for at in np.ndindex(arr.shape):
                x0 = arr[at]
                arr[at] = x0 + h
                up = dataset_loss(model, counts, digits)
                arr[at] = x0 - h
                down = dataset_loss(model, counts, digits)
                arr[at] = x0
                fd = (up - down) / (2 * h)
                assert grads[name][at] == pytest.approx(fd, rel=1e-5, abs=1e-8), (
                    name, at, digits,
                )


def test_adam_epoch_layout_is_linear_in_digits_times_records():
    # at p = 409 a (records, p) block of the whole epoch would take
    # digits * N * p * 8 bytes (157 MB at N = 3,000); the layout holds a
    # few arrays of at most digits * N entries
    p, K, size = 409, 16, 64
    rng = np.random.default_rng(0)
    for N in (1500, 3000):
        ds = digits_dataset(rng.integers(0, p, (N, K)), p)
        model = new_model(ModelConfig(ds.codec), seed=0)
        D = ds.digits_matrix()
        counts = ds.pair_counts()
        tables = _pair_table(model, counts, D)
        perms = {k: rng.permutation(N) for k in range(K)}
        tracemalloc.start()
        try:
            b = _Batches(model, 0, D, tables, perms, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each step allocates its own (rows, p) block: the layout holds no
        # per-step buffer
        scratch = 0
        assert peak <= 16 * 8 * K * N + scratch, (N, peak, scratch)


@pytest.mark.parametrize("k_heads", [None, 2])
def test_heads_are_views_of_one_latent_array(tmp_path, k_heads):
    # the trainers write the served arrays in place: the heads, and every
    # array checkpoints name, stay views of the one array new_model made
    tree = irregular_tree(0, 40, 4, 5)
    ds = encode_tree(tree)
    K = ds.codec.K

    def assert_views(model, latents):
        assert model.latents is latents
        for name, arr in model_arrays(model).items():
            assert np.shares_memory(arr, latents), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.heads[0].table = np.zeros_like(model.heads[0].table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.latents = latents.copy()

    model = new_model(ModelConfig(ds.codec, k_heads), seed=0)
    latents = model.latents
    assert_views(model, latents)
    for opt in (GistConfig(), AdamConfig()):
        before = latents.copy()
        plan = TrainPlan((TrainPhase("all", 1, 0.03, tuple(range(K))),), checkpoint_interval=0)
        result = train(model, ds, opt, plan, tree=tree, checkpoint_dir=str(tmp_path))
        assert result.history[0]["accepted_moves"] > 0
        assert not np.array_equal(before, latents)
        assert_views(model, latents)
    loaded = load_model(load_checkpoint(str(tmp_path / "ckpt-final.json")))
    assert np.array_equal(loaded.latents.view(np.int64), latents.view(np.int64))
    assert_views(loaded, loaded.latents)


def test_adam_train_calls_the_traced_names_once_per_step(monkeypatch):
    # bench/spans.py times Adam by replacing these module attributes, so
    # train must look each one up per call: one gradient and one moment
    # update per step, one metrics pass per epoch
    calls = Counter()
    for name in ("_accumulate_grads", "_adam_step", "_epoch_metrics"):

        def counted(*args, _f=getattr(optim, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(optim, name, counted)
    tree = irregular_tree(0, 40, 4, 5)
    ds = encode_tree(tree)
    plan = TrainPlan(uniform_plan(ds.codec.K, epochs=2, lr=0.03).phases)
    result = train(new_model(ModelConfig(ds.codec), seed=0), ds, AdamConfig(), plan,
                   batch_size=8, seed=0, tree=tree)
    steps = len(result.history) * math.ceil(len(ds.leaves) / 8)
    assert result.steps == steps > 0
    assert calls == {"_accumulate_grads": steps, "_adam_step": steps,
                     "_epoch_metrics": len(result.history)}


def test_adam_frees_each_epoch_layout_before_the_next(monkeypatch):
    # an epoch's layout is O(digits x N), so holding the previous one
    # while the next is built would double Adam's peak layout memory
    layouts = []

    class Tracked(optim._Batches):
        def __init__(self, *args):
            assert all(ref() is None for ref in layouts)
            super().__init__(*args)
            layouts.append(weakref.ref(self))

    monkeypatch.setattr(optim, "_Batches", Tracked)
    tree = irregular_tree(0, 40, 4, 5)
    ds = encode_tree(tree)
    plan = TrainPlan(uniform_plan(ds.codec.K, epochs=3, lr=0.03).phases)
    result = train(new_model(ModelConfig(ds.codec), seed=0), ds, AdamConfig(), plan,
                   batch_size=8, seed=0, tree=tree)
    assert len(layouts) == len(result.history) > 1
