"""Trainers for digit-head models: lattice descent and Adam.

The loss every epoch logs, and `hipan eval` reports, is a teacher-forced
objective summed over the digits a training phase enables.  Each digit
adds the rarity-weighted cross entropy of the table row that the true
previous digit selects (row 0 for digit 0), plus a two-logit term that
trains the row's scalar anchor to arbitrate between the top two columns.
The rarity weight of a (previous, digit) pair is 1/sqrt(count), its
count read from the dataset.

A record's loss at digit k depends only on its (digit k-1, digit k)
pair, so the objective reads the data only through the dataset's pair
counts (`EncodedDataset.pair_counts`), laid out once per run as one
table (_PairTable).  The loss, the epoch log and the lattice sweep's
check read the same per-pair terms from it (_pair_losses), each distinct
pair scored once and weighed by its count; nothing about the data is
stored on the model.

The lattice trainer moves one latent at a time by +-1 (wrapping mod p),
accepting only strict improvement of this objective on the full data, so
integer-valued latents stay integers forever.  A coordinate of a head
row, or the row's anchor, changes only the loss of the pairs whose parent
digit selects that row, so rows are independent blocks: the sweep skips
rows that no pair reaches, and every live row of every served head
advances in the same passes of gist_minimize's routine (_lattice_sweep).
A pass scores the +-1 candidates of a window of columns of each row, and
each row takes the moves that a one-coordinate-at-a-time sweep of its
columns in index order makes; then one pass moves every anchor.  A
candidate is scored from its row's running sums (_RowSweep): the
log-sum-exp from the row's max and its sum of exponentials with one term
swapped, the top two from the kept top three, and pair terms only for
the pairs the move changes, so it costs O(1), plus O(pairs) where it
touches a target column or the top two.  That is not the arithmetic of
the loss, so after the passes each row's loss is recomputed in the loss's
arithmetic, and a row whose loss rose is put back as it was and counted
as a revert: the logged loss never rises from sweep to sweep.  Moves can
differ from those of candidates scored in the loss's own arithmetic only
where two candidates tie within rounding, that is where a move's gain is
below the rounding of one arithmetic or the other.

The Adam trainer does not descend this objective as a whole.  Its table
gradients are the analytic gradients of the objective,
but its anchor gradient is not the gradient of the two-logit term: it is
the closed form 2 tau (v - psi) (sigma((v - psi)^2 / tau) - I), with psi
the true digit and I = 1 when the arbitration already picks it, whose
antiderivative in v is anchor_loss, a different potential.  An Adam
anchor step can therefore raise the logged loss.  Note the sign
structure: the anchor is pushed toward psi when the arbitration is wrong
and away when right, so the anchor settles between competing row maxima
rather than on top of one.

An Adam step is one pass over every digit the phase trains.  The heads
serving the phase's digits, and every head between them, are one
contiguous slice of the model's latents, and the epoch steps that slice,
viewed as 1-d, in place; the first and second moments are arrays shaped
like the latents, sliced the same way.  A head of the slice that serves
no phase digit has a zero gradient, so its step is exactly 0.  A step's
records reach its gradient only through its cells, the (head row, child
digit) pairs they select and target, each weighted by its records'
rarity weights summed: the epoch is laid out once, by one sort of a
(step, pair) key per record and digit, as each step's distinct rows and
cells with their weights, in O(digits x N) memory (_Batches).
A step scores each of its U rows once (softmax, top two columns, anchor
arbitration) and each of its C cells once, so it costs O(U p + C) with
no term in its records; it assigns each row's gradient into one flat
gradient and applies the bias-corrected moment update of Kingma and Ba
once, over the slice.  _accumulate_grads defines the arithmetic.
Weighing a cell by counts regroups the per-record sums, so a step's
gradient is the per-record gradient within rounding; runs are
deterministic, and a run resumed from any checkpoint ends bit for bit on
the uninterrupted run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .metrics import evaluate_digits
from .model import (
    HiPaNModel,
    _array_views,
    _effective_depth,
    _top_two,
    model_arrays,
    pack_rows,
    softmax_rows,
    unpack_rows,
)
from .rng import child_rng
from .tree import DigitPairs, EncodedDataset, TreeSpec, _typed


class NumericAbort(RuntimeError):
    """A latent or loss left the finite floats; names the bad coordinate."""

    def __init__(self, head: str, index: tuple[int, ...], detail: str = ""):
        self.head = head
        self.index = index
        msg = f"non-finite value in {head}{list(index)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def sigmoid(x: float) -> float:
    """Logistic function, stable on both tails."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softplus(x: float) -> float:
    """log(1 + e^x) without overflow."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def two_logit_loss(
    v: float, target: int, competitor: int, tau: float, weight: float = 1.0
) -> float:
    """Weighted negative log odds that the anchor sides with the target digit.

    The two logits are quadratic pulls g = -tau (v - target)^2 and
    o = -tau (v - competitor)^2; the loss is -weight * log sigma(g - o).
    Target and competitor are meant to be distinct digits; equal ones
    degenerate to weight * log 2.
    """
    z = tau * ((v - competitor) ** 2 - (v - target) ** 2)
    return weight * softplus(-z)


def anchor_loss(v: float, psi: float, tau: float, correct: bool) -> float:
    """Scalar potential behind the anchor update rule.

    tau^2 softplus((v - psi)^2 / tau) - I tau (v - psi)^2, with I = 1 when
    the arbitration currently picks the true digit.  Its exact derivative
    in v is two_logit_grad; finite differences of this function must
    match that closed form tightly, which is why both are written in
    overflow-free forms.
    """
    q = (v - psi) ** 2
    loss = tau * tau * softplus(q / tau)
    if correct:
        loss -= tau * q
    return loss


def two_logit_grad(v: float, psi: float, tau: float, correct: bool) -> float:
    """d anchor_loss / dv in closed form: 2 tau (v-psi) (sigma((v-psi)^2/tau) - I)."""
    d = v - psi
    return 2.0 * tau * d * (sigmoid(d * d / tau) - (1.0 if correct else 0.0))


def project_digit(theta: float, p: int) -> int:
    """Nearest alphabet digit: round half away from zero, wrap mod p.

    The wrap makes the projection distance-optimal on the digit circle:
    |theta - digit| <= 0.5 once both are read mod p.
    """
    r = math.floor(abs(theta) + 0.5)
    if theta < 0:
        r = -r
    return int(r) % p


def huffman_weights(counts: np.ndarray) -> np.ndarray:
    """Rarity loss weight of each digit pair from its count: 1/sqrt(count)."""
    return 1.0 / np.sqrt(np.asarray(counts, dtype=np.float64))


@dataclass(frozen=True)
class GistConfig:
    """Lattice descent settings; sweep counts come from the phase plan.

    patience: consecutive zero-acceptance sweeps that end a phase early.
    seed: the run seed train records in checkpoints; the full-batch sweep
    itself draws nothing.
    """

    patience: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class AdamConfig:
    """First-order trainer settings.

    lr is the fine-tune rate and warmup_lr the warm-up stage rate; a
    phase plan built from this config carries them per stage.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    lr: float = 0.015
    eps: float = 1e-8
    warmup_lr: float = 0.03

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 < b < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {b}")
        for name in ("lr", "eps", "warmup_lr"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class TrainPhase:
    """One curriculum stage: which digits train, for how long, how fast."""

    name: str
    epochs: int
    lr: float
    digits: tuple[int, ...]


@dataclass(frozen=True)
class TrainPlan:
    phases: tuple[TrainPhase, ...]
    checkpoint_interval: int = 20


def _staged_plan(
    K: int, epochs: tuple[int, int, int], rates: tuple[float, float, float]
) -> TrainPlan:
    """The three curriculum stages, deep digits (>= 2), the shallow pair
    {0, 1}, then all digits, with the given epochs and rates each.
    Stages whose digit set is empty at this K are dropped."""
    stages = (
        ("deep-warmup", tuple(range(2, K))),
        ("root-warmup", tuple(range(min(2, K)))),
        ("fine-tune", tuple(range(K))),
    )
    return TrainPlan(tuple(
        TrainPhase(name, n, lr, digits)
        for (name, digits), n, lr in zip(stages, epochs, rates)
        if digits
    ))


def default_plan(K: int, lr: float = 0.015, warmup_lr: float = 0.03) -> TrainPlan:
    """Deep digits first, then the shallow pair, then everything.

    Stage lengths and rates: 8 epochs at warmup_lr on digits >= 2, 4
    epochs at warmup_lr on digits {0, 1}, then 100 epochs at lr on all
    digits.  Stages whose digit set is empty at this K are dropped.
    """
    return _staged_plan(K, (8, 4, 100), (warmup_lr, warmup_lr, lr))


def uniform_plan(K: int, epochs: int = 20, lr: float = 1e-3) -> TrainPlan:
    """Flat alternative: the same three stages, equal length, one rate."""
    return _staged_plan(K, (epochs,) * 3, (lr,) * 3)


def _lattice_move(stay, up, down):
    """Move of a lattice coordinate from the losses of its three candidates
    (the incumbent, +1 and -1 mod p): 1 or -1 for the strictly lowest,
    else 0.  Ties go to the incumbent, then to +1.  Elementwise on arrays;
    a candidate list [stay, up, down] indexed by the move is the value
    the coordinate takes."""
    return np.where(
        (up < stay) & (up <= down), 1, np.where((down < stay) & (down < up), -1, 0)
    )


def _idle_streak(streak: int, accepted: int) -> int:
    """Consecutive sweeps without an accepted move, after one more sweep;
    a run stops once it reaches its patience."""
    return 0 if accepted else streak + 1


def _lattice_sweep(x: np.ndarray, p: int, decide, width: int) -> np.ndarray:
    """Sweep the columns of every row of the 2-d array x in index order,
    in place, by the lattice rule; returns each row's accepted moves.

    The rows advance side by side, one pass at a time.  A pass hands
    decide(act, cols) the rows act that have columns left and, for each,
    its window cols: the next `width` columns from the row's cursor
    (entries >= x.shape[1] lie past the row's end).  decide returns
    (moves, done): a move per window column (1 for +1, -1 for -1 mod p,
    0 to stay), of which the first done[i] >= 1 of row i are the moves a
    one-coordinate-at-a-time sweep makes there.  The pass applies those
    and moves the row's cursor past them.  Steps add the integer 1:
    integer x stays exact."""
    rows, n = x.shape
    cursor = np.zeros(rows, dtype=np.int64)
    accepted = np.zeros(rows, dtype=np.int64)
    span = np.arange(width)
    act = np.arange(rows if n else 0)
    while act.size:
        cols = cursor[act, None] + span
        moves, done = decide(act, cols)
        i, w = np.nonzero((span < done[:, None]) & (moves != 0))
        r, c = act[i], cols[i, w]
        x[r, c] = (x[r, c] + moves[i, w]) % p
        accepted += np.bincount(r, minlength=rows)
        cursor[act] += done
        act = act[cursor[act] < n]
    return accepted


def gist_minimize(
    objective,
    digits0: Sequence[int],
    p: int,
    max_sweeps: int = 200,
    patience: int = 2,
) -> tuple[list[int], list[int]]:
    """Generic coordinate descent on the digit lattice {0..p-1}^n, p < 2^63.

    Each sweep is the trainer's (_lattice_sweep), over the digits as one
    int64 row whose window is the rest of the row.  objective gets the
    digits as a list of ints, and its values are compared as Python
    compares them.  A pass calls it on its incumbent, then on each
    coordinate's +1 and -1 until one moves, and ends there, so a sweep
    makes at most 3 calls per coordinate, in O(n) memory.  Stops after
    `patience` consecutive sweeps with no accepted move.

    Returns:
        (digits, accepted_per_sweep).
    """
    x = np.array([[int(d) % p for d in digits0]], dtype=np.int64)

    def decide(act: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = x[0].tolist()
        moves = np.zeros(cols.shape, dtype=np.int64)
        stay = objective(r)
        for k, c in enumerate(range(int(cols[0, 0]), len(r))):
            here = r[c]
            r[c] = (here + 1) % p
            up = objective(r)
            r[c] = (here - 1) % p
            down = objective(r)
            r[c] = here
            moves[0, k] = _lattice_move(stay, up, down)
            if moves[0, k]:
                break
        return moves, np.array([k + 1])

    history: list[int] = []
    streak = 0
    for _ in range(max_sweeps):
        accepted = int(_lattice_sweep(x, p, decide, max(x.size, 1))[0])
        history.append(accepted)
        streak = _idle_streak(streak, accepted)
        if streak >= patience:
            break
    return x[0].tolist(), history


# --- model-coupled training -------------------------------------------------


def _lse_rows(rows: np.ndarray) -> np.ndarray:
    m = rows.max(axis=1)
    e = rows - m[:, None]
    s = np.exp(e, out=e).sum(axis=1)
    return m + np.log(s, out=s)


def _pair_terms(
    tau: float,
    ce: np.ndarray,
    top: np.ndarray,
    second: np.ndarray,
    v: np.ndarray | float,
    t: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Loss of target digits t: weight w times the cross entropy
    ce plus the two-logit term of anchor v against the competitor, the
    best column other than t (from the row's top two columns)."""
    c = np.where(top == t, second, top)
    z = tau * ((v - c) ** 2 - (v - t) ** 2)
    return w * (ce + np.logaddexp(0.0, -z))


class _PairTable(NamedTuple):
    """A run's pairs, built once per run for the loss and both trainers
    (or a digit set's share of them, _select).  A pair is one
    digit's distinct (previous digit, digit) pair; pairs are numbered in
    (live row, child, digit) order, so the pairs of one row, and of one
    (row, child) cell, are adjacent.  Pair j of digit digit[j] selects
    live row row[j], targets child[j], is held by count[j] records and
    has the rarity weight weight[j].  The live rows are the head rows
    that some pair of a digit the head serves reaches, in (head, row)
    order; live row r is row live[1, r] of the head at depth live[0, r].
    pair[i, k] is the pair of record i's digit k (digit -1 read as 0), or
    pair is None when the table was built without the records."""

    row: np.ndarray
    child: np.ndarray
    digit: np.ndarray
    count: np.ndarray
    weight: np.ndarray
    live: np.ndarray
    pair: np.ndarray | None = None


def _pair_table(
    model: HiPaNModel, counts: Sequence[DigitPairs], D: np.ndarray | None = None
) -> _PairTable:
    """The run's _PairTable from its pair counts, with each record's pairs
    when the records D are given."""
    p, K = model.p, len(counts)
    heads = [_effective_depth(model, k) for k in range(K)]
    # every digit's pairs end to end, then ranked by (live row, child, digit)
    keys, row = np.unique(np.concatenate([heads[k] * p + c.parent for k, c in enumerate(counts)]),
                          return_inverse=True)
    child = np.concatenate([c.child for c in counts])
    digit = np.repeat(np.arange(K), [c.child.size for c in counts])
    order = np.lexsort((digit, child, row))
    row, child, digit = row[order], child[order], digit[order]
    weight = np.concatenate([huffman_weights(c.count) for c in counts])[order]
    count = np.concatenate([c.count for c in counts])[order]
    pair = None
    if D is not None:
        rank = (row * p + child) * K + digit  # ascends
        pair = np.empty(D.shape, dtype=np.int64)
        for k in range(K):
            r = np.searchsorted(keys, heads[k] * p + (D[:, k - 1] if k else 0))
            pair[:, k] = np.searchsorted(rank, (r * p + D[:, k]) * K + k)
    return _PairTable(row, child, digit, count, weight, np.array(np.divmod(keys, p)), pair)


def _select(table: _PairTable, digits: Sequence[int]) -> _PairTable:
    """The pairs of the given digits, in table order, as a table of their
    own: its live rows are the rows those pairs reach, renumbered from 0
    in the table's order.  It holds no records' pairs."""
    sel = np.isin(table.digit, digits)
    live, row = np.unique(table.row[sel], return_inverse=True)
    return _PairTable(row, table.child[sel], table.digit[sel], table.count[sel],
                      table.weight[sel], table.live[:, live])


def _pair_losses(tau: float, pairs: _PairTable, X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each pair's count times its loss (_pair_terms) under the table rows
    X and anchors v of the live rows of pairs: each row's log-sum-exp and
    top two columns are taken once."""
    r, t = pairs.row, pairs.child
    top, second = _top_two(X)
    ce = _lse_rows(X)[r] - X[r, t]
    return pairs.count * _pair_terms(tau, ce, top[r], second[r], v[r], t, pairs.weight)


def _check_digits(digits: Sequence[int], K: int, where: str = "") -> None:
    """Raise ValueError naming the first of digits outside [0, K)."""
    for k in digits:
        if not 0 <= k < K:
            raise ValueError(f"{where}digit {k} lies outside [0, {K})")


def _table_loss(model: HiPaNModel, table: _PairTable, digits: Sequence[int]) -> float:
    """dataset_loss over the run's table: each digit's pair losses
    (_pair_losses) summed in DigitPairs order, then the digits in order."""
    pairs = _select(table, digits)
    h, r = pairs.live
    terms = _pair_losses(model.config.tau, pairs, model.latents[h, r], model.latents[h, model.p, r])
    total = 0.0
    for k in digits:
        total += float(terms[pairs.digit == k].sum())
    return total / max(1, int(table.count[table.digit == 0].sum()))


def dataset_loss(model: HiPaNModel, data: EncodedDataset | Sequence[DigitPairs],
                 digits: Sequence[int]) -> float:
    """Mean per-record loss over the given digit depths.

    data is a dataset or its pair_counts(); each distinct pair's loss is
    computed once, from a _PairTable of the counts, and counted as often
    as records hold the pair.

    Raises:
        ValueError: a digit lies outside [0, K) (named).
    """
    counts = data.pair_counts() if isinstance(data, EncodedDataset) else data
    _check_digits(digits, len(counts))
    return _table_loss(model, _pair_table(model, counts), digits)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index): every index of the ranges [lo[i], hi[i]) in order,
    with the i of its range."""
    n = hi - lo
    owner = np.repeat(np.arange(lo.size), n)
    return owner, np.arange(owner.size) + np.repeat(lo - (np.cumsum(n) - n), n)


class _RowState(NamedTuple):
    """Running sums of table rows under the lattice sweep's scoring.

    Per row: its max M and sum of exponentials S at that shift, in
    _lse_rows' arithmetic; its three largest columns a1, a2, a3 (ties to
    the lowest index) and the values b2, b3 of the last two (a3 = p and
    b3 = -inf when p = 2); and Q, the sum over the row's pairs, in pair
    order from 0.0, of cw ((M - x_t) + softplus(-z)), with cw the pair's
    count times its rarity weight, x_t its target column's score and z
    its two-logit margin against the row's top two (_pair_terms).  Those
    terms are kept too: row i's are H[h0[i]:], one per pair in pair
    order."""

    M: np.ndarray
    S: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    h0: np.ndarray


# Columns of a row that one pass of the model's lattice sweep scores, and
# the most window entries (rows x columns x p) a block of rows sweeping
# side by side may hold, which bounds the candidate rows of a pass.
_WINDOW = 64
_BLOCK = 2**21


class _RowSweep:
    """One lattice sweep of the live rows of the heads serving some digits:
    every row's table columns, the rows advancing side by side in the same
    passes (_lattice_sweep, decide), then every anchor in one pass.

    The rows are worked on in copies: X holds each live row's table row,
    v its anchor.  A candidate, column j of a row moved from x to y, is
    scored as the row's loss A L' + Q' from the row's running state
    (_RowState), with A the sum of the row's cw:
    - L' is the candidate row's log-sum-exp less the incumbent's max M,
      from S with one term swapped:
          log((S - e^(x - M)) + e^(y - M))              if y <= M,
          (y - M) + log((S - e^(x - M)) e^(M - y) + 1)  if y > M;
      a candidate that lowers a column at the max has its max M' and sum
      S' recomputed from the whole row instead, without subtraction, and
      L' = (M' - M) + log S';
    - its top two come from the kept top three;
    - Q' is Q plus the sum, in pair order from 0.0, of each changed pair's
      new term less its kept one.  A pair changes when it targets column
      j or its competitor changes, which can happen only where the top
      two do.
    So a candidate costs O(1), plus O(pairs of column j) where it touches
    a target and O(pairs of the row) where it changes the top two.  The
    incumbent scores A log S + Q.  A column whose exponential vanishes
    beside S leaves S as it is, so its candidates tie with the incumbent.
    After each move the row's state is recomputed from the row."""

    def __init__(self, model: HiPaNModel, table: _PairTable, digits: Sequence[int]):
        p = self.p = model.p
        self.tau = model.config.tau
        pairs = self.pairs = _select(table, digits)
        self.heads, self.rows = pairs.live
        self.prow, self.t = pairs.row, pairs.child
        self.cw = pairs.count * pairs.weight
        n = self.heads.size
        self.start = np.searchsorted(self.prow, np.arange(n + 1))
        self.A = np.bincount(self.prow, self.cw, minlength=n)
        self.key = self.prow * p + self.t  # ascends
        self.target = np.zeros((n, p), dtype=bool)
        self.target[self.prow, self.t] = True
        self.X = model.latents[self.heads, self.rows]
        self.v = model.latents[self.heads, p, self.rows]
        self.cur = self.states(self.X, np.arange(n))
        self.stale = np.zeros(n, dtype=bool)

    def _pairs_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_ranges of the pairs of each of the given live rows."""
        return _ranges(self.start[rows], self.start[rows + 1])

    def states(self, Xs: np.ndarray, rows: np.ndarray) -> _RowState:
        """_RowState of the rows Xs, each one a version of the live row at
        the same place in rows."""
        at = np.arange(rows.size)
        a1 = Xs.argmax(axis=1)
        M = Xs[at, a1]
        S = np.exp(Xs - M[:, None]).sum(axis=1)
        rest = Xs.copy()
        rest[at, a1] = -np.inf
        a2 = rest.argmax(axis=1)
        b2 = rest[at, a2]
        rest[at, a2] = -np.inf
        a3 = rest.argmax(axis=1)
        b3 = rest[at, a3]
        a3[b3 == -np.inf] = self.p
        o, q = self._pairs_of(rows)
        t = self.t[q]
        H = _pair_terms(self.tau, M[o] - Xs[o, t], a1[o], a2[o], self.v[rows][o], t, self.cw[q])
        Q = np.bincount(o, H, minlength=rows.size)
        h0 = np.searchsorted(o, at)
        return _RowState(M, S, a1, a2, a3, b2, b3, Q, H, h0)

    def scores(self, st: _RowState, Xs: np.ndarray, s, r, j, y) -> np.ndarray:
        """Scores of moving column j of state s, a version Xs[s] of live row
        r, to y (the class docstring)."""
        M, S, a1, a2 = st.M[s], st.S[s], st.a1[s], st.a2[s]
        x = self.X[r, j]
        rest = S - np.exp(x - M)
        L = np.where(y > M, (y - M) + np.log(rest * np.exp(np.minimum(M - y, 0.0)) + 1.0),
                     np.log(rest + np.exp(np.minimum(y - M, 0.0))))
        low = np.flatnonzero((x == M) & (y < x))
        if low.size:
            rows = Xs[s[low]]
            rows[np.arange(low.size), j[low]] = y[low]
            top = rows.max(axis=1)
            L[low] = (top - M[low]) + np.log(np.exp(rows - top[:, None]).sum(axis=1))
        # the top two of the other columns, then y's place among them
        hit = j == a1
        o1, v1 = np.where(hit, a2, a1), np.where(hit, st.b2[s], M)
        hit |= j == a2
        o2, v2 = np.where(hit, st.a3[s], a2), np.where(hit, st.b3[s], st.b2[s])
        first = (y > v1) | ((y == v1) & (j < o1))
        top1 = np.where(first, j, o1)
        top2 = np.where(first, o1, np.where((y > v2) | ((y == v2) & (j < o2)), j, o2))
        Q = st.Q[s]
        whole = (top1 != a1) | (top2 != a2)
        f = np.flatnonzero(self.target[r, j] | whole)
        if f.size:
            # the pairs that may change: the column's, or every pair of the
            # row when the top two change; those whose target or competitor
            # does change add their new term less their old one to Q
            rf, key = r[f], r[f] * self.p + j[f]
            lo = np.where(whole[f], self.start[rf], np.searchsorted(self.key, key))
            hi = np.where(whole[f], self.start[rf + 1], np.searchsorted(self.key, key, "right"))
            o, q = _ranges(lo, hi)
            g, t = f[o], self.t[q]
            c = np.where(top1[g] == t, top2[g], top1[g])
            new = np.flatnonzero((t == j[g]) | (c != np.where(a1[g] == t, a2[g], a1[g])))
            o, q, g, t = o[new], q[new], g[new], t[new]
            xt = np.where(t == j[g], y[g], Xs[s[g], t])
            delta = _pair_terms(self.tau, M[g] - xt, top1[g], top2[g], self.v[r[g]], t, self.cw[q])
            delta -= st.H[st.h0[s[g]] + (q - self.start[r[g]])]
            Q[f] += np.bincount(o, delta, minlength=f.size)
        return self.A[r] * L + Q

    def moves(self, st: _RowState, Xs: np.ndarray, s, r, j) -> np.ndarray:
        """The lattice move (_lattice_move) of column j of state s, a
        version Xs[s] of live row r."""
        x = self.X[r, j]
        y = np.concatenate([(x + 1) % self.p, (x - 1) % self.p])
        up, down = np.split(self.scores(st, Xs, np.tile(s, 2), np.tile(r, 2), np.tile(j, 2), y), 2)
        return _lattice_move(self.A[r] * np.log(st.S[s]) + st.Q[s], up, down)

    def refresh(self, rows: np.ndarray) -> None:
        """Recompute the state of those of the rows that moved."""
        rows = rows[self.stale[rows]]
        if rows.size:
            new = self.states(self.X[rows], rows)
            # the per-row fields; the current states' terms H lie in pair
            # order, so their h0 stays self.start
            for cur, fresh in zip(self.cur[:-2], new[:-2]):
                cur[rows] = fresh
            self.cur.H[self._pairs_of(rows)[1]] = new.H
            self.stale[rows] = False

    def decide(self, act: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_lattice_sweep's decide over the live rows act.

        Every window column is scored against its row's state; the first
        one to move is the one-coordinate-at-a-time sweep's.  The columns
        after it are scored again, each against its row with the moves
        of the window's earlier columns applied (states built from the
        whole row, as after a move), and the row's moves are final up to
        the first column whose move changed, that one included."""
        p = self.p
        self.refresh(act)
        n, width = cols.shape
        valid = cols < p
        rows = np.repeat(act, width)
        moves = self.moves(self.cur, self.X, rows, rows, np.minimum(cols, p - 1).ravel())
        moves = np.where(valid, moves.reshape(n, width), 0)
        moved = moves != 0
        before = np.cumsum(moved, axis=1) - moved  # moves earlier in the window
        last = valid.sum(axis=1) - 1
        states = before[np.arange(n), last]
        done = last + 1
        if states.any():
            # state k of row i: the row with the window's first k moves
            first = np.cumsum(states) - states
            i = np.repeat(np.arange(n), states)
            k = np.arange(i.size) - first[i] + 1
            Xs = self.X[act[i]]
            si, w = np.nonzero(moved[i] & (before[i] < k[:, None]))
            c = cols[i[si], w]
            Xs[si, c] = (Xs[si, c] + moves[i[si], w]) % p
            ci, cj = np.nonzero(valid & (before > 0))
            again = self.moves(self.states(Xs, act[i]), Xs, first[ci] + before[ci, cj] - 1,
                               act[ci], cols[ci, cj])
            changed = np.zeros((n, width), dtype=bool)
            changed[ci, cj] = again != moves[ci, cj]
            moves[ci, cj] = again
            done = np.where(changed.any(axis=1), changed.argmax(axis=1) + 1, done)
        self.stale[act[((np.arange(width) < done[:, None]) & (moves != 0)).any(axis=1)]] = True
        return moves, done

    def columns(self) -> np.ndarray:
        """Sweep the table columns of every live row, the rows in blocks
        of at most _BLOCK window entries; returns each row's moves."""
        p, n = self.p, self.A.size
        width = min(_WINDOW, p)
        rows = max(1, _BLOCK // (width * p))
        moved = np.zeros(n, dtype=np.int64)
        for a in range(0, n, rows):
            block = slice(a, a + rows)
            decide = lambda act, cols, a=a: self.decide(act + a, cols)  # noqa: E731
            moved[block] = _lattice_sweep(self.X[block], p, decide, width)
        return moved

    def anchors(self) -> np.ndarray:
        """Move every row's anchor by the lattice rule, scored as A L + Q
        with Q at each candidate anchor; returns the moves (0 or 1)."""
        p, prow = self.p, self.prow
        self.refresh(np.arange(self.A.size))
        st = self.cur
        d = st.M[prow] - self.X[prow, self.t]
        base = self.A * np.log(st.S)

        def score(v):
            terms = _pair_terms(self.tau, d, st.a1[prow], st.a2[prow], v[prow], self.t, self.cw)
            return base + np.bincount(prow, terms, minlength=base.size)

        up, down = (self.v + 1) % p, (self.v - 1) % p
        move = _lattice_move(base + st.Q, score(up), score(down))
        self.v = np.choose(move + 1, [down, self.v, up])
        return move != 0

    def logged(self) -> np.ndarray:
        """Each row's loss in the arithmetic of dataset_loss: the terms of
        its pairs (_pair_losses), summed in pair order."""
        return np.bincount(self.prow, _pair_losses(self.tau, self.pairs, self.X, self.v),
                           minlength=self.A.size)


def _gist_sweep(
    model: HiPaNModel, table: _PairTable, digits: tuple[int, ...], report: dict | None = None
) -> tuple[int, int]:
    """One full-batch lattice sweep of the heads serving the given digits,
    in place, over the run's _PairTable; returns (accepted moves, loss
    evaluations), three evaluations per coordinate of a live row.

    Rows that no pair of the digits reaches are skipped: no move there
    can change the loss.  A row's pairs read only that row and its
    anchor, so every live row of every head advances in the same passes
    (_lattice_sweep, _RowSweep): each pass scores a window of columns
    from each row's cursor from running sums, and each row takes the
    moves a one-coordinate-at-a-time sweep of its table columns in index
    order would.  One pass then moves every anchor.  Last, each row's
    loss is recomputed from the loss's own per-pair terms
    (_RowSweep.logged); a row whose loss rose is put back as it was
    before the sweep, and its moves are not counted.  report, when given,
    gets the number of those rows under "reverts"."""
    sweep = _RowSweep(model, table, digits)
    before = sweep.logged()
    moved = sweep.columns() + sweep.anchors()
    keep = sweep.logged() <= before
    h, r = sweep.heads[keep], sweep.rows[keep]
    model.latents[h, r] = sweep.X[keep]
    model.latents[h, model.p, r] = sweep.v[keep]
    if report is not None:
        report["reverts"] = int(keep.size - keep.sum())
    return int(moved[keep].sum()), 3 * (model.p + 1) * sweep.A.size


@dataclass
class OptimState:
    """Mutable optimizer memory, serialized into checkpoints.

    t counts Adam steps or lattice sweeps; m and u are Adam's per-latent
    first and second moments, arrays shaped like the model's latents, or
    None before Adam's first step (and for the lattice).
    """

    t: int = 0
    m: np.ndarray | None = None
    u: np.ndarray | None = None


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Whether each entry of key, whose equal entries are adjacent, opens
    a run of them."""
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return new


class _Batches:
    """One epoch's records of every phase digit in shuffled order, as the
    distinct rows and cells of each step, in O(digits x N) memory.

    Step s holds positions [s size, (s + 1) size) of each digit's
    permutation (perms, in phase order): n = min(size, N - s size)
    records per digit.  A cell of the step is a (live row, child) that
    some of its records select and target, at any digit: digits whose
    heads are tied share a cell.  A cell's weight sums, over its pairs in
    digit order, the pair's records in the step times its rarity weight,
    then is divided by n; a row's weight sums its cells' weights in child
    order.  Both sums run left to right from 0.0.  A step's rows are the
    distinct rows of its cells, in live-row order, and its cells are in
    (row, child) order.

    Step s's rows are [row_bounds[s], row_bounds[s + 1]): row_x gives
    each one's index in x viewed as rows of p, row_anchor its anchor's
    index in x and row_w its weight.  Step s's cells are [cell_bounds[s],
    cell_bounds[s + 1]): cell_slot is the index of the cell's row among
    the step's rows, cell_child its child, cell_at its entry in the
    step's (rows, p) block, cell_w its weight and cell_w2tau its weight
    times 2, times tau.  x is model.latents from head head0 on, viewed
    as 1-d: row r of head ke is its row (ke - head0)(p + 1) + r, and that
    row's anchor its entry ((ke - head0)(p + 1) + p) p + r."""

    def __init__(self, model: HiPaNModel, head0: int, D: np.ndarray, tables: _PairTable,
                 perms: dict[int, np.ndarray], size: int):
        p, n = model.p, D.shape[0]
        self.p, self.n, self.size, self.tau = p, n, size, model.config.tau
        n_pairs = tables.child.size
        # one key per record and phase digit: its step, then its pair
        keys = np.empty(len(perms) * n, dtype=np.int64)
        step_key = np.arange(n) // size * n_pairs
        for j, (k, perm) in enumerate(perms.items()):
            np.add(tables.pair[perm, k], step_key, out=keys[j * n : (j + 1) * n])
        keys.sort()
        first = np.flatnonzero(_run_starts(keys))
        count = np.diff(first, append=keys.size)
        step, pair = np.divmod(keys[first], n_pairs)
        del keys, first
        # a step's cells, and each cell's pairs, are adjacent in key order
        n_live = tables.live.shape[1]
        row = step * n_live + tables.row[pair]
        new = _run_starts(row * p + tables.child[pair])
        self.cell_w = np.bincount(np.cumsum(new) - 1, count * tables.weight[pair])
        first = np.flatnonzero(new)
        del new, count
        pair, step, row = pair[first], step[first], row[first]
        self.cell_w /= np.minimum(size, n - np.arange(self.steps) * size)[step]
        new = _run_starts(row)
        first, slot = np.flatnonzero(new), np.cumsum(new) - 1
        self.row_w = np.bincount(slot, self.cell_w)
        steps = np.arange(self.steps + 1)
        row_bounds = np.searchsorted(step[first], steps)
        self.row_bounds = row_bounds.tolist()
        self.cell_bounds = np.searchsorted(step, steps).tolist()
        slot -= row_bounds[step]
        heads, rows = tables.live[:, row[first] % n_live]
        self.cell_child = tables.child[pair]
        del step, row, first, pair
        block = (heads - head0) * (p + 1)
        self.row_x = block + rows
        self.row_anchor = (block + p) * p + rows
        self.cell_slot = slot
        self.cell_at = slot * p + self.cell_child
        self.cell_w2tau = self.cell_w * 2.0 * self.tau

    @property
    def steps(self) -> int:
        return -(-self.n // self.size)


def _accumulate_grads(x: np.ndarray, b: _Batches, s: int) -> np.ndarray:
    """Mean gradient over the records of step s of every phase digit,
    flat over the latents x of _Batches.

    Table entries are the analytic gradients of the objective; an
    anchor's is the closed-form update of the module docstring.  The
    step's records enter only through its rows and cells (_Batches), each
    scored once; their weights already divide by the step's records per
    digit.  A row's table gradient is softmax_rows of the row times the
    row weight, less each cell's weight at the cell's child.  Its anchor
    gradient sums, in cell order from 0.0, each cell's (weight 2 tau)
    (v - t) (sigma((v - t)^2 / tau) - I), multiplied left to right, with
    t the cell's child and I = 1 when the row's arbitration picks t.  A
    step costs O(U p + C) for U rows and C cells, and its rows are
    distinct, so each is assigned into the zero gradient once."""
    p = b.p
    rows = slice(b.row_bounds[s], b.row_bounds[s + 1])
    cells = slice(b.cell_bounds[s], b.cell_bounds[s + 1])
    at = b.row_x[rows]
    X = x.reshape(-1, p).take(at, axis=0)
    G = softmax_rows(X)
    G *= b.row_w[rows, None]
    G.ravel()[b.cell_at[cells]] -= b.cell_w[cells]
    # anchor: arbitration between the row's top two, trained toward or
    # away from each cell's child by the closed-form update
    anchors = b.row_anchor[rows]
    v = x[anchors]
    top, second = _top_two(X)
    choice = np.where((v - top) ** 2 <= (v - second) ** 2, top, second)
    slot, t = b.cell_slot[cells], b.cell_child[cells]
    d = v[slot] - t
    # d^2 / tau >= 0, so exp(-d^2 / tau) cannot overflow
    terms = b.cell_w2tau[cells] * d * (1.0 / (1.0 + np.exp(-(d * d / b.tau))) - (choice[slot] == t))
    grad = np.zeros(x.size)
    grad.reshape(-1, p)[at] = G
    grad[anchors] = np.bincount(slot, terms, minlength=at.size)
    return grad


def _adam_step(x: np.ndarray, m: np.ndarray, u: np.ndarray, g: np.ndarray, state: OptimState,
               cfg: AdamConfig, lr: float, scratch: np.ndarray) -> None:
    """One bias-corrected moment update of the 1-d latents x with the
    gradient g, in place, as are x's moments m and u; advances state.t,
    the shared step count.  scratch is (2, x.size) of any values."""
    state.t += 1
    t = state.t
    a, b = scratch
    # in place, in the arithmetic of
    #   m = beta1 m + (1 - beta1) g,  u = beta2 u + ((1 - beta2) g) g,
    #   x -= (lr m_hat) / (sqrt(u_hat) + eps)
    np.multiply(g, 1.0 - cfg.beta1, out=a)
    m *= cfg.beta1
    m += a
    np.multiply(g, 1.0 - cfg.beta2, out=a)
    a *= g
    u *= cfg.beta2
    u += a
    np.divide(u, 1.0 - cfg.beta2**t, out=a)
    np.sqrt(a, out=a)
    a += cfg.eps
    np.divide(m, 1.0 - cfg.beta1**t, out=b)
    b *= lr
    b /= a
    x -= b


def _check_finite(model: HiPaNModel) -> None:
    """Raise NumericAbort naming the first non-finite latent of model."""
    for name, arr in model_arrays(model).items():
        bad = ~np.isfinite(arr)
        if bad.any():
            raise NumericAbort(name, tuple(map(int, np.unravel_index(bad.argmax(), arr.shape))))


def _epoch_metrics(
    model: HiPaNModel,
    D: np.ndarray,
    table: _PairTable,
    tree: TreeSpec | None,
    leaf_ids: np.ndarray | None,
    phase_digits: tuple[int, ...],
) -> tuple[float, list[float], float]:
    """(loss over the phase's digits, per-digit accuracy, leaf accuracy),
    the loss read from the run's table."""
    acc = evaluate_digits(model, D, tree, leaf_ids).accuracy()
    loss = _table_loss(model, table, phase_digits)
    return loss, list(acc.digit_accuracy), acc.leaf_accuracy


@dataclass
class TrainResult:
    history: list[dict]
    evals: int
    steps: int
    checkpoints: list[str]


def optim_state_dict(
    kind: str, state: OptimState, streak: int = 0, phase_entry: bool = False
) -> dict:
    """Serializable optimizer state for checkpoints.  Adam's moments are
    stored for each head with a set bit in them (the heads the phase
    trains), by model_arrays' names, as nonzero rows (pack_rows), unless
    phase_entry: a checkpoint whose cursor enters a phase (epoch 0, the
    final checkpoint too) holds none, because train starts every phase
    from fresh moments and a resume there never reads them.

    Raises:
        ValueError: a moment array holds NaN or infinity.
    """
    if kind == "gist":
        return {"kind": "gist", "t": state.t, "streak": int(streak)}
    m = u = {}
    if state.m is not None and not phase_entry:
        held = (state.m.view(np.int64) | state.u.view(np.int64)).any(axis=(1, 2))
        m, u = (_array_views(a, np.flatnonzero(held).tolist()) for a in (state.m, state.u))
    return {
        "kind": "adam",
        "t": state.t,
        "shapes": {k: list(a.shape) for k, a in m.items()},
        "m": {k: pack_rows(f"m.{k}", a) for k, a in m.items()},
        "u": {k: pack_rows(f"u.{k}", a) for k, a in u.items()},
    }


def restore_optim_state(doc: dict, model: HiPaNModel) -> OptimState:
    """Rebuild an OptimState from its checkpoint form: Adam's moments are
    zeros shaped like model's latents with each stored array's nonzero
    rows written into its named view.

    Raises:
        ValueError: a field of the wrong JSON type (named), a stored shape
            that is not a list of sizes or not its model array's, an m, u
            or shapes entry that names no model array (named), or a
            malformed moment array.
    """
    what = "checkpoint optim"
    state = OptimState(t=_typed(doc, "t", int, what, 0))
    if doc.get("kind") == "gist":
        return state
    state.m, state.u = np.zeros(model.latents.shape), np.zeros(model.latents.shape)
    views = {"m": _array_views(state.m), "u": _array_views(state.u)}
    shapes = {k: a.shape for k, a in views["m"].items()}

    def known(part: str, name: str) -> str:
        if name not in shapes:
            raise ValueError(f"malformed {what}: {part} {name!r} names no model array")
        return name

    for name, shape in _typed(doc, "shapes", dict, what, {}).items():
        sizes = isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
        want = list(shapes[name]) if name in shapes else "a list of sizes"
        if not sizes or (name in shapes and shape != want):
            raise ValueError(f"malformed {what}: shapes {name!r} must be {want}, got {shape!r}")
        known("shapes", name)
    for part, target in views.items():
        for name, value in _typed(doc, part, dict, what).items():
            unpack_rows(f"{part}.{name}", value, target[known(part, name)])
    return state


def train(
    model: HiPaNModel,
    dataset: EncodedDataset,
    optimizer: GistConfig | AdamConfig,
    plan: TrainPlan | None = None,
    *,
    batch_size: int = 64,
    seed: int | None = None,
    tree: TreeSpec | None = None,
    log_stream: IO[str] | None = None,
    checkpoint_dir: str | None = None,
    run_config: dict | None = None,
    resume: dict | None = None,
) -> TrainResult:
    """Run the phase plan, logging one JSON line per epoch.

    Epoch log fields: phase, epoch (phase-local), loss (mean per-record
    over the phase's digits), per_digit_acc (reconstruction accuracy per
    digit, all K), leaf_acc, accepted_moves (lattice moves, or optimizer
    steps for Adam), reverts (lattice only: the live rows that the sweep
    put back because their loss, recomputed in the loss's arithmetic,
    rose; their moves are not in accepted_moves), wall_ms.

    batch_size is Adam's records per step; the lattice sweep scores the
    whole dataset.  Checkpoints go to checkpoint_dir every
    plan.checkpoint_interval global epochs plus a final one; resume
    continues from a loaded checkpoint document's cursor with its
    optimizer state.

    Raises:
        NumericAbort: a latent became non-finite.
        ValueError: the dataset is empty or not of the model's codec, a
            phase's digit lies outside [0, K) (named, with its phase),
            Adam's batch_size is below 1, or the resume checkpoint holds
            a field of the wrong JSON type (named), a cursor that train
            does not write, or the state of the other optimizer.
    """
    import json as _json

    from . import checkpoint as _ckpt

    kind = "gist" if isinstance(optimizer, GistConfig) else "adam"
    if seed is None:
        seed = getattr(optimizer, "seed", 0)
    if plan is None:
        if kind == "adam":
            plan = default_plan(model.K, lr=optimizer.lr, warmup_lr=optimizer.warmup_lr)
        else:
            plan = default_plan(model.K)
    if model.config.codec != dataset.codec:
        raise ValueError(f"dataset codec {dataset.codec} does not match model {model.config.codec}")
    for phase in plan.phases:
        _check_digits(phase.digits, model.K, f"phase {phase.name!r}: ")
    D = dataset.digits_matrix()
    n = D.shape[0]
    if n == 0:
        raise ValueError("dataset has no records")
    if kind == "adam" and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    leaf_ids = None
    if tree is not None:
        leaf_ids = tree.ids_of(dataset.leaves)
    table = _pair_table(model, dataset.pair_counts(), D if kind == "adam" else None)
    if kind == "adam":
        _check_finite(model)

    start_phase, start_epoch = 0, 0
    streak = 0
    state = OptimState()
    if resume is not None:
        cur = _typed(resume, "cursor", dict, "checkpoint")
        start_phase, start_epoch = (
            _typed(cur, key, int, "checkpoint cursor") for key in ("phase", "epoch")
        )
        # train writes (phase, epoch) inside a phase's epochs, and (phase, 0)
        # for any phase up to len(plan.phases)
        n_phases = len(plan.phases)
        epochs = plan.phases[start_phase].epochs if 0 <= start_phase < n_phases else 0
        if not (0 <= start_phase <= n_phases and 0 <= start_epoch < max(epochs, 1)):
            raise ValueError(
                f"resume cursor (phase {start_phase}, epoch {start_epoch}) lies outside the "
                f"plan, whose {n_phases} phases run {[ph.epochs for ph in plan.phases]} epochs"
            )
        saved = _typed(resume, "optim", dict, "checkpoint", {})
        for key in ("t", "streak"):
            if _typed(saved, key, int, "checkpoint optim", 0) < 0:
                bad = f"{key!r} must be >= 0, got {saved[key]}"
                raise ValueError(f"malformed checkpoint optim: {bad}")
        saved_kind = saved.get("kind")
        if saved_kind not in (None, kind):
            raise ValueError(
                f"resume checkpoint holds {saved_kind} optimizer state; "
                f"this run uses {kind}"
            )
        if saved_kind == kind:
            state = restore_optim_state(saved, model)
            if kind == "gist":
                streak = saved.get("streak", 0)

    global_epoch = (
        sum(ph.epochs for ph in plan.phases[:start_phase] if ph.digits) + start_epoch
    )
    history: list[dict] = []
    evals = 0
    steps = 0
    checkpoints: list[str] = []

    def write_ckpt(name: str, cursor: tuple[int, int]) -> None:
        if checkpoint_dir is None:
            return
        path = _ckpt.save_checkpoint(
            f"{checkpoint_dir}/{name}",
            model,
            optim_state=optim_state_dict(kind, state, streak, phase_entry=cursor[1] == 0),
            cursor={"phase": cursor[0], "epoch": cursor[1]},
            seed=seed,
            run_config=run_config,
        )
        checkpoints.append(path)

    for pi in range(start_phase, len(plan.phases)):
        phase = plan.phases[pi]
        if not phase.digits:
            continue
        first_epoch = start_epoch if pi == start_phase else 0
        # optimizer memory starts fresh at each phase entry; a mid-phase
        # resume (first_epoch > 0) keeps the restored state instead
        if first_epoch == 0:
            streak = 0
            if kind == "adam":
                state = OptimState()
        # a resume point can coincide with a patience stop; honor it before
        # running any further sweeps or the resumed run diverges
        if kind == "gist" and streak >= optimizer.patience:
            continue
        for e in range(first_epoch, phase.epochs):
            t0 = time.monotonic()
            sweep: dict = {}
            if kind == "gist":
                moves, ev = _gist_sweep(model, table, phase.digits, sweep)
                state.t += 1
                evals += ev
            else:
                perms = {
                    k: child_rng(seed, "shuffle", pi, e, k).permutation(n)
                    for k in phase.digits
                }
                heads = [_effective_depth(model, k) for k in phase.digits]
                a, b = min(heads), max(heads) + 1
                if state.m is None:
                    state.m, state.u = np.zeros(model.latents.shape), np.zeros(model.latents.shape)
                x, m, u = (arr[a:b].reshape(-1) for arr in (model.latents, state.m, state.u))
                scratch = np.empty((2, x.size))
                batches = _Batches(model, a, D, table, perms, batch_size)
                for s in range(batches.steps):
                    g = _accumulate_grads(x, batches, s)
                    _adam_step(x, m, u, g, state, optimizer, phase.lr, scratch)
                moves = batches.steps
                # the layout is O(digits x N): free it before the next
                # epoch lays out its own
                del batches
                steps += moves
                _check_finite(model)
            loss, per_digit, leaf_acc = _epoch_metrics(
                model, D, table, tree, leaf_ids, phase.digits
            )
            if not math.isfinite(loss):
                raise NumericAbort("loss", (pi, e), f"phase {phase.name}")
            entry = {
                "phase": phase.name,
                "epoch": e,
                "loss": loss,
                "per_digit_acc": per_digit,
                "leaf_acc": leaf_acc,
                "accepted_moves": moves,
                **sweep,
                "wall_ms": int((time.monotonic() - t0) * 1000),
            }
            history.append(entry)
            if log_stream is not None:
                log_stream.write(_json.dumps(entry) + "\n")
            global_epoch += 1
            cursor = (pi, e + 1) if e + 1 < phase.epochs else (pi + 1, 0)
            if kind == "gist":
                streak = _idle_streak(streak, moves)
            if (
                plan.checkpoint_interval
                and global_epoch % plan.checkpoint_interval == 0
            ):
                write_ckpt(f"ckpt-{global_epoch:05d}.json", cursor)
            if kind == "gist" and streak >= optimizer.patience:
                break
    write_ckpt("ckpt-final.json", (len(plan.phases), 0))
    return TrainResult(history, evals, steps, checkpoints)


__all__ = [
    "AdamConfig",
    "GistConfig",
    "NumericAbort",
    "OptimState",
    "TrainPhase",
    "TrainPlan",
    "TrainResult",
    "anchor_loss",
    "dataset_loss",
    "default_plan",
    "gist_minimize",
    "huffman_weights",
    "optim_state_dict",
    "project_digit",
    "restore_optim_state",
    "sigmoid",
    "softplus",
    "train",
    "two_logit_grad",
    "two_logit_loss",
    "uniform_plan",
]
