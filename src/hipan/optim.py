"""Trainers for digit-head models: lattice descent and Adam.

The loss every epoch logs, and `hipan eval` reports, is a teacher-forced
objective summed over the digits a training phase enables:

* digit 0: cross entropy of the root score softmax against the true
  root digit;
* digit 1: squared distance between the dense head's row (selected by
  the true digit 0) and the one-hot target, summed over columns;
* digits >= 2: rarity-weighted cross entropy on the selected table row
  plus a two-logit term that trains the row's scalar anchor to arbitrate
  between the top two columns.  The rarity weight of a (parent, child)
  digit pair is 1/sqrt(count), its count read from the dataset.

A record's loss at digit k depends only on its (digit k-1, digit k)
pair, so the objective reads the data only through the dataset's pair
counts (`EncodedDataset.pair_counts`): `dataset_loss` scores each
distinct pair once and weighs it by its count, and nothing about the
data is stored on the model.

The lattice trainer moves one latent at a time by +-1 (wrapping mod p),
accepting only strict improvement of this objective on a fixed
minibatch, so integer-valued latents stay integers forever.

The Adam trainer does not descend this objective as a whole.  Its root,
dense and table gradients are the analytic gradients of the objective,
but its anchor gradient is not the gradient of the two-logit term: it is
the closed form 2 tau (v - psi) (sigma((v - psi)^2 / tau) - I), with psi
the true digit and I = 1 when the arbitration already picks it, whose
antiderivative in v is anchor_loss, a different potential.  An Adam
anchor step can therefore raise the logged loss.  Note the sign
structure: the anchor is pushed toward psi when the arbitration is wrong
and away when right, so the anchor settles between competing row maxima
rather than on top of one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence

import numpy as np

from .metrics import evaluate_digits
from .model import (
    HiPaNModel,
    _anchored_choice_rows,
    _effective_depth,
    softmax,
    softmax_rows,
)
from .rng import child_rng
from .tree import DigitPairs, EncodedDataset, TreeSpec


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


def _record_weights(D: np.ndarray, counts: Sequence[DigitPairs], p: int) -> np.ndarray:
    """(N, K) rarity weight of each record's (digit k-1, digit k) pair."""
    W = np.empty(D.shape)
    for k, pairs in enumerate(counts):
        prev = D[:, k - 1] if k else 0
        pos = np.searchsorted(pairs.parent * p + pairs.child, prev * p + D[:, k])
        W[:, k] = huffman_weights(pairs.count)[pos]
    return W


@dataclass(frozen=True)
class GistConfig:
    """Lattice descent settings; sweep counts come from the phase plan.

    patience: consecutive zero-acceptance sweeps that end a phase early.
    batch_size/seed: minibatch draw defaults, overridable per train call.
    """

    patience: int = 2
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class AdamConfig:
    """First-order trainer settings.

    lr is the fine-tune rate and warmup_lr the warm-up stage rate; a
    phase plan built from this config carries them per stage.  With
    sqrt_decay the effective rate at step t is lr_t = lr_1 / sqrt(t).
    """

    beta1: float = 0.9
    beta2: float = 0.999
    lr: float = 0.015
    eps: float = 1e-8
    warmup_lr: float = 0.03
    sqrt_decay: bool = False

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 < b < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {b}")
        if self.lr <= 0 or self.eps <= 0 or self.warmup_lr <= 0:
            raise ValueError("lr, eps and warmup_lr must be positive")


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


def default_plan(K: int, lr: float = 0.015, warmup_lr: float = 0.03) -> TrainPlan:
    """Deep digits first, then the shallow pair, then everything.

    Stage lengths and rates: 8 epochs at warmup_lr on digits >= 2, 4
    epochs at warmup_lr on digits {0, 1}, then 100 epochs at lr on all
    digits.  Stages whose digit set is empty at this K are dropped.
    """
    phases = []
    deep = tuple(range(2, K))
    if deep:
        phases.append(TrainPhase("deep-warmup", 8, warmup_lr, deep))
    phases.append(TrainPhase("root-warmup", 4, warmup_lr, tuple(range(min(2, K)))))
    phases.append(TrainPhase("fine-tune", 100, lr, tuple(range(K))))
    return TrainPlan(tuple(phases))


def uniform_plan(K: int, epochs: int = 20, lr: float = 1e-3) -> TrainPlan:
    """Flat alternative: the same three stages, equal length, one rate."""
    phases = []
    deep = tuple(range(2, K))
    if deep:
        phases.append(TrainPhase("deep-warmup", epochs, lr, deep))
    phases.append(TrainPhase("root-warmup", epochs, lr, tuple(range(min(2, K)))))
    phases.append(TrainPhase("fine-tune", epochs, lr, tuple(range(K))))
    return TrainPlan(tuple(phases))


def gist_minimize(
    objective,
    digits0: Sequence[int],
    p: int,
    max_sweeps: int = 200,
    patience: int = 2,
) -> tuple[list[int], list[int]]:
    """Generic coordinate descent on the digit lattice {0..p-1}^n.

    Each sweep visits coordinates in index order; a coordinate tries +1
    then -1 (mod p) and keeps the strictly best candidate, preferring the
    incumbent on ties and the +1 move when both candidates tie each
    other.  Stops after `patience` consecutive sweeps with no accepted
    move.

    Returns:
        (digits, accepted_per_sweep).
    """
    digits = [int(d) % p for d in digits0]
    history: list[int] = []
    streak = 0
    for _ in range(max_sweeps):
        accepted = 0
        for i in range(len(digits)):
            cur = digits[i]
            best_val = objective(digits)
            best = cur
            for delta in (1, -1):
                digits[i] = (cur + delta) % p
                val = objective(digits)
                if val < best_val:
                    best_val, best = val, digits[i]
            digits[i] = best
            if best != cur:
                accepted += 1
        history.append(accepted)
        streak = streak + 1 if accepted == 0 else 0
        if streak >= patience:
            break
    return digits, history


# --- model-coupled training -------------------------------------------------


def _lse_rows(rows: np.ndarray) -> np.ndarray:
    m = rows.max(axis=1)
    return m + np.log(np.exp(rows - m[:, None]).sum(axis=1))


def _softplus_vec(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    # callers pass x >= 0 only, so exp(-x) cannot overflow
    return 1.0 / (1.0 + np.exp(-x))


def _arrays(model: HiPaNModel) -> dict[str, np.ndarray]:
    """Named views of every trainable array, in sweep order."""
    out = {"root": model.root.scores}
    if model.dense is not None:
        out["dense"] = model.dense.table
    for i, head in enumerate(model.deep):
        out[f"deep{i}.table"] = head.table
        out[f"deep{i}.anchor"] = head.anchor
    return out


def _served_digits(model: HiPaNModel, ke: int, phase_digits: tuple[int, ...]) -> tuple[int, ...]:
    """Digits of the phase that head depth ke is responsible for."""
    last = model.config.K_heads - 1
    if ke < last:
        return tuple(k for k in phase_digits if k == ke)
    return tuple(k for k in phase_digits if k >= last)


def _head_of_array(name: str) -> int:
    if name == "root":
        return 0
    if name == "dense":
        return 1
    return 2 + int(name.split(".")[0][len("deep"):])


def _digit_losses(
    model: HiPaNModel,
    k: int,
    prev: np.ndarray | None,
    t: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Teacher-forced loss of digit k for each (parent digit prev, digit t)
    pair, the deep heads' terms scaled by the pair's rarity weight w.

    prev is not read for the root digit.
    """
    ke = _effective_depth(model, k)
    n = t.size
    ar = np.arange(n)
    if ke == 0:
        s = model.root.scores
        return np.full(n, _lse_rows(s[None, :])[0]) - s[t]
    if ke == 1:
        assert model.dense is not None
        rows = model.dense.table[prev]
        one_hot = np.zeros_like(rows)
        one_hot[ar, t] = 1.0
        return ((rows - one_hot) ** 2).sum(axis=1)
    head = model.deep[ke - 2]
    rows = head.table[prev]
    ce = _lse_rows(rows) - rows[ar, t]
    masked = rows.copy()
    masked[ar, t] = -np.inf
    c = masked.argmax(axis=1)
    v = head.anchor[prev]
    tau = model.config.tau
    z = tau * ((v - c) ** 2 - (v - t) ** 2)
    tl = _softplus_vec(-z)
    return w * (ce + tl)


def dataset_loss(
    model: HiPaNModel,
    data: EncodedDataset | Sequence[DigitPairs],
    digits: Sequence[int],
) -> float:
    """Mean per-record loss over the given digit depths.

    data is a dataset or its pair_counts(); each distinct pair's loss is
    computed once and counted as often as records hold the pair.
    """
    counts = data.pair_counts() if isinstance(data, EncodedDataset) else data
    total = 0.0
    for k in digits:
        pairs = counts[k]
        w = huffman_weights(pairs.count)
        losses = _digit_losses(model, k, pairs.parent, pairs.child, w)
        total += float((pairs.count * losses).sum())
    return total / max(1, int(counts[0].count.sum()))


def _coordinates(
    model: HiPaNModel, phase_digits: tuple[int, ...]
) -> Iterator[tuple[str, np.ndarray, tuple[int, ...], tuple[int, ...], int | None]]:
    """Sweep order: root scores, dense table row-major, each deep head's
    table row-major then its anchors.  Yields (name, array, index, served
    digits, row constraint)."""
    p = model.p
    served = _served_digits(model, 0, phase_digits)
    if served:
        for j in range(p):
            yield "root", model.root.scores, (j,), served, None
    if model.dense is not None:
        served = _served_digits(model, 1, phase_digits)
        if served:
            for r in range(p):
                for j in range(p):
                    yield "dense", model.dense.table, (r, j), served, r
    for i, head in enumerate(model.deep):
        served = _served_digits(model, 2 + i, phase_digits)
        if not served:
            continue
        for r in range(p):
            for j in range(p):
                yield f"deep{i}.table", head.table, (r, j), served, r
        for r in range(p):
            yield f"deep{i}.anchor", head.anchor, (r,), served, r


def _coord_loss(
    model: HiPaNModel,
    D: np.ndarray,
    W: np.ndarray,
    served: tuple[int, ...],
    row: int | None,
    batch: np.ndarray,
) -> float:
    """Loss restricted to the records a single coordinate can influence."""
    total = 0.0
    for k in served:
        if k == 0 or row is None:
            idx = batch
        else:
            idx = batch[D[batch, k - 1] == row]
        if idx.size:
            prev = D[idx, k - 1] if k else None
            total += float(_digit_losses(model, k, prev, D[idx, k], W[idx, k]).sum())
    return total


def _gist_sweep(
    model: HiPaNModel,
    D: np.ndarray,
    W: np.ndarray,
    phase: TrainPhase,
    batch_size: int,
    rng: np.random.Generator,
    state: "OptimState | None" = None,
) -> tuple[int, int]:
    """One full coordinate sweep; returns (accepted moves, loss evals)."""
    n = D.shape[0]
    p = model.p
    accepted = 0
    evals = 0
    sweep_no = state.t + 1 if state is not None else 0
    for name, arr, index, served, row in _coordinates(model, phase.digits):
        batch = rng.choice(n, size=min(batch_size, n), replace=False)
        evals += 3
        cur = float(arr[index])
        best_val = _coord_loss(model, D, W, served, row, batch)
        best = cur
        for delta in (1.0, -1.0):
            cand = (cur + delta) % p
            arr[index] = cand
            val = _coord_loss(model, D, W, served, row, batch)
            if val < best_val:
                best_val, best = val, cand
        arr[index] = best
        if best != cur:
            accepted += 1
            if state is not None:
                key = f"{name}[{','.join(str(i) for i in index)}]"
                state.last_improved[key] = sweep_no
    if state is not None:
        state.t = sweep_no
    return accepted, evals


def gist_sweep(
    model: HiPaNModel,
    dataset: EncodedDataset,
    digits: Sequence[int],
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
    state: "OptimState | None" = None,
) -> tuple[HiPaNModel, int, float]:
    """One deterministic lattice sweep over the given digit depths.

    Visits every coordinate the digits activate in fixed order (root
    scores, dense rows, each deep table then its anchors), tries +-1
    (mod p) moves against one minibatch per coordinate, and keeps strict
    improvements only.

    Returns:
        (model, accepted move count, full-dataset loss after the sweep).
    """
    D = dataset.digits_matrix()
    counts = dataset.pair_counts()
    if rng is None:
        rng = child_rng(0, "gist", 0, 0)
    phase = TrainPhase("sweep", 1, 0.0, tuple(int(k) for k in digits))
    W = _record_weights(D, counts, model.p)
    accepted, _ = _gist_sweep(model, D, W, phase, batch_size, rng, state)
    return model, accepted, dataset_loss(model, counts, phase.digits)


def _accumulate_grads(
    model: HiPaNModel,
    D: np.ndarray,
    W: np.ndarray,
    k: int,
    idx: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Add digit k's mean gradient over the records idx into grads."""
    ke = _effective_depth(model, k)
    t = D[idx, k]
    n = idx.size
    ar = np.arange(n)
    p = model.p
    if ke == 0:
        sm = softmax(model.root.scores)
        grads["root"] += sm - np.bincount(t, minlength=p) / n
        return
    prev = D[idx, k - 1]
    if ke == 1:
        assert model.dense is not None
        rows = model.dense.table[prev]
        one_hot = np.zeros_like(rows)
        one_hot[ar, t] = 1.0
        np.add.at(grads["dense"], prev, 2.0 * (rows - one_hot) / n)
        return
    i = ke - 2
    head = model.deep[i]
    rows = head.table[prev]
    sm = softmax_rows(rows)
    one_hot = np.zeros_like(rows)
    one_hot[ar, t] = 1.0
    w = W[idx, k]
    np.add.at(grads[f"deep{i}.table"], prev, w[:, None] * (sm - one_hot) / n)
    # anchor: arbitration between the row's top two, trained toward/away
    # from the true digit by the closed-form update
    v = head.anchor[prev]
    correct = (_anchored_choice_rows(model, ke, prev, rows) == t).astype(np.float64)
    tau = model.config.tau
    d = v - t
    ga = w * 2.0 * tau * d * (_sigmoid_vec(d * d / tau) - correct)
    np.add.at(grads[f"deep{i}.anchor"], prev, ga / n)


@dataclass
class OptimState:
    """Mutable optimizer memory, serialized into checkpoints.

    t counts Adam steps or lattice sweeps; m/u hold the per-latent first
    and second moments (Adam only); last_improved maps a coordinate key
    like "dense[2,1]" to the sweep that last accepted a move there (the
    lattice trainer only).
    """

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    u: dict[str, np.ndarray] = field(default_factory=dict)
    last_improved: dict[str, int] = field(default_factory=dict)

    def ensure(self, name: str, shape: tuple[int, ...]) -> None:
        if name not in self.m:
            self.m[name] = np.zeros(shape)
            self.u[name] = np.zeros(shape)


def _adam_update_array(
    arr: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    u: np.ndarray,
    cfg: AdamConfig,
    lr: float,
    t: int,
) -> None:
    """Bias-corrected moment update of one latent array, in place."""
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    u *= cfg.beta2
    u += (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    u_hat = u / (1.0 - cfg.beta2**t)
    arr -= lr * m_hat / (np.sqrt(u_hat) + cfg.eps)


def _effective_lr(cfg: AdamConfig, base_lr: float, t: int) -> float:
    if cfg.sqrt_decay:
        return base_lr / math.sqrt(t)
    return base_lr


def adam_step(
    latent: np.ndarray | float,
    grad: np.ndarray | float,
    state: OptimState,
    config: AdamConfig,
    t: int | None = None,
    *,
    lr: float | None = None,
    name: str = "latent",
) -> tuple[np.ndarray | float, OptimState]:
    """One first-order update of a single latent (scalar or array).

    Advances state.t when t is not given, else adopts t.  The rate
    defaults to config.lr (config.sqrt_decay divides it by sqrt(t)); the
    projected public digit of the result is project_digit of each entry.

    Returns:
        (updated latent, the same state object).
    """
    scalar = np.isscalar(latent) or getattr(latent, "ndim", 1) == 0
    arr = np.array(latent, dtype=np.float64, ndmin=1)
    g = np.asarray(grad, dtype=np.float64).reshape(arr.shape)
    if t is None:
        state.t += 1
        t = state.t
    else:
        state.t = t
    state.ensure(name, arr.shape)
    eff = _effective_lr(config, config.lr if lr is None else lr, t)
    _adam_update_array(arr, g, state.m[name], state.u[name], config, eff, t)
    return (float(arr[0]) if scalar else arr), state


def _adam_step(
    model: HiPaNModel,
    grads: dict[str, np.ndarray],
    state: OptimState,
    cfg: AdamConfig,
    base_lr: float,
) -> None:
    """One optimizer step over all gradient-bearing arrays (shared t)."""
    state.t += 1
    t = state.t
    lr = _effective_lr(cfg, base_lr, t)
    arrays = _arrays(model)
    for name, g in grads.items():
        state.ensure(name, g.shape)
        _adam_update_array(arrays[name], g, state.m[name], state.u[name], cfg, lr, t)


def _check_finite(model: HiPaNModel) -> None:
    for name, arr in _arrays(model).items():
        if not np.all(np.isfinite(arr)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise NumericAbort(name, bad)


def _epoch_metrics(
    model: HiPaNModel,
    D: np.ndarray,
    counts: Sequence[DigitPairs],
    tree: TreeSpec | None,
    leaf_ids: np.ndarray | None,
    phase_digits: tuple[int, ...],
) -> tuple[float, list[float], float]:
    """(loss over the phase's digits, per-digit accuracy, leaf accuracy)."""
    acc = evaluate_digits(model, D, tree, leaf_ids).accuracy()
    loss = dataset_loss(model, counts, phase_digits)
    return loss, list(acc.digit_accuracy), acc.leaf_accuracy


@dataclass
class TrainResult:
    history: list[dict]
    evals: int
    steps: int
    checkpoints: list[str]


def optim_state_dict(kind: str, state: OptimState, streak: int = 0) -> dict:
    """Serializable optimizer state for checkpoints."""
    if kind == "gist":
        return {
            "kind": "gist",
            "t": state.t,
            "streak": int(streak),
            "last_improved": dict(sorted(state.last_improved.items())),
        }
    return {
        "kind": "adam",
        "t": state.t,
        "shapes": {k: list(a.shape) for k, a in state.m.items()},
        "m": {k: a.ravel().tolist() for k, a in state.m.items()},
        "u": {k: a.ravel().tolist() for k, a in state.u.items()},
    }


def restore_optim_state(doc: dict, model: HiPaNModel) -> OptimState:
    """Rebuild an OptimState from its checkpoint form."""
    state = OptimState(t=int(doc.get("t", 0)))
    if doc.get("kind") == "gist":
        state.last_improved = {
            str(k): int(v) for k, v in doc.get("last_improved", {}).items()
        }
        return state
    shapes = {k: a.shape for k, a in _arrays(model).items()}
    shapes.update({k: tuple(v) for k, v in doc.get("shapes", {}).items()})
    for part, target in (("m", state.m), ("u", state.u)):
        for name, flat in doc[part].items():
            target[name] = np.array(flat, dtype=np.float64).reshape(shapes[name])
    return state


def train(
    model: HiPaNModel,
    dataset: EncodedDataset,
    optimizer: GistConfig | AdamConfig,
    plan: TrainPlan | None = None,
    *,
    batch_size: int | None = None,
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
    steps for Adam), wall_ms.

    Checkpoints go to checkpoint_dir every plan.checkpoint_interval
    global epochs plus a final one; resume continues from a loaded
    checkpoint document's cursor with its optimizer state.

    Raises:
        NumericAbort: a latent became non-finite.
        ValueError: the dataset is empty, or the resume checkpoint holds
            the state of the other optimizer.
    """
    import json as _json

    from . import checkpoint as _ckpt

    kind = "gist" if isinstance(optimizer, GistConfig) else "adam"
    if batch_size is None:
        batch_size = getattr(optimizer, "batch_size", 64)
    if seed is None:
        seed = getattr(optimizer, "seed", 0)
    if plan is None:
        if kind == "adam":
            plan = default_plan(model.K, lr=optimizer.lr, warmup_lr=optimizer.warmup_lr)
        else:
            plan = default_plan(model.K)
    D = dataset.digits_matrix()
    n = D.shape[0]
    if n == 0:
        raise ValueError("dataset has no records")
    leaf_ids = None
    if tree is not None:
        leaf_ids = np.array([tree.id_of(r.leaf) for r in dataset.records], dtype=np.int64)
    counts = dataset.pair_counts()
    W = _record_weights(D, counts, model.p)

    start_phase, start_epoch = 0, 0
    streak = 0
    state = OptimState()
    if resume is not None:
        cur = resume["cursor"]
        start_phase, start_epoch = int(cur["phase"]), int(cur["epoch"])
        saved = resume.get("optim", {})
        saved_kind = saved.get("kind")
        if saved_kind not in (None, kind):
            raise ValueError(
                f"resume checkpoint holds {saved_kind} optimizer state; "
                f"this run uses {kind}"
            )
        if saved_kind == kind:
            state = restore_optim_state(saved, model)
            if kind == "gist":
                streak = int(saved.get("streak", 0))

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
            optim_state=optim_state_dict(kind, state, streak),
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
        slots = max(1, math.ceil(n / batch_size))
        for e in range(first_epoch, phase.epochs):
            t0 = time.monotonic()
            if kind == "gist":
                rng = child_rng(seed, "gist", pi, e)
                moves, ev = _gist_sweep(model, D, W, phase, batch_size, rng, state)
                evals += ev
            else:
                perms = {
                    k: child_rng(seed, "shuffle", pi, e, k).permutation(n)
                    for k in phase.digits
                }
                moves = 0
                for s in range(slots):
                    grads = {
                        name: np.zeros_like(arr)
                        for name, arr in _arrays(model).items()
                        if _served_digits(model, _head_of_array(name), phase.digits)
                    }
                    any_records = False
                    for k in phase.digits:
                        idx = perms[k][s * batch_size : (s + 1) * batch_size]
                        if idx.size:
                            any_records = True
                            _accumulate_grads(model, D, W, k, idx, grads)
                    if any_records:
                        _adam_step(model, grads, state, optimizer, phase.lr)
                        moves += 1
                        steps += 1
                _check_finite(model)
            loss, per_digit, leaf_acc = _epoch_metrics(
                model, D, counts, tree, leaf_ids, phase.digits
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
                "wall_ms": int((time.monotonic() - t0) * 1000),
            }
            history.append(entry)
            if log_stream is not None:
                log_stream.write(_json.dumps(entry) + "\n")
            global_epoch += 1
            cursor = (pi, e + 1) if e + 1 < phase.epochs else (pi + 1, 0)
            if kind == "gist":
                streak = streak + 1 if moves == 0 else 0
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
    "adam_step",
    "anchor_loss",
    "dataset_loss",
    "default_plan",
    "gist_minimize",
    "gist_sweep",
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
