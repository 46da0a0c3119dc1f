"""Digit-head models over p-adic codes.

One kind of head at every learnable digit depth predicts that digit from
the previous one: a p x p score table, row = previous digit, plus a
per-row scalar anchor that arbitrates between the row's top two columns
through two quadratic logits.  Digit 0 reads row 0 of head 0 (the digit
before it is read as 0, as `EncodedDataset.pair_counts` does).  Depths at
or beyond K_heads reuse the last head's weights.

One prediction path serves evaluation: per-record reconstruction
(`reconstruct_matrix`).  The model's input is the record's own code, so
each head may read the input digit it is asked to reproduce.  Rows chain
on the digits actually predicted; a digit is accepted when its score sits
within RECONSTRUCT_MARGIN of the row maximum (trained rows tie their
observed digits up to quantization), otherwise the head falls back to its
generative rule, the anchor's arbitration between the row's top two
columns.
`clamped_descent_matrix` walks the predicted digits to hierarchy leaves.
Accuracy reports this path: how much of the hierarchy the factorized
tables actually store.  Only calibration also asks how sure each head
was, through `reconstruction_confidence`, which reads the predicted
digits back.

A model is its latents, one (K_heads, p + 1, p) array: block ke holds
head ke's table (rows 0..p-1) and anchors (row p), so the heads of a
range of depths are one contiguous slice.  The heads and `model_arrays`
are views of it, which the trainers step in place.
"""

from __future__ import annotations

import base64
import binascii
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .padic import CodecParams
from .rng import child_rng
from .tree import EncodedDataset, TreeSpec, _typed

# A record's own digit is accepted during reconstruction when its score is
# within this margin of the row maximum.  2.0 covers exact ties (complete
# trees), the integer-quantized gap of 1 left by +-1 moves at a 2:1 branch
# imbalance, and real-valued gaps up to ~e^2:1 imbalance; rarer branches
# fall back to the generative rule and may miss.
RECONSTRUCT_MARGIN = 2.0

CHECKPOINT_FORMAT = "hipan-model-v5"
# Names the init that format v5 tables are stored against: new_model's
# i.i.d. uniform draws over {0, ..., p-1} from child_rng(seed, "init"),
# in the order _init_draws gives.  "uniform-v1" and "uniform-v2" drew the
# arrays of earlier head layouts; their files are not read.
INIT_SCHEME = "uniform-v3"


@dataclass
class ModelConfig:
    """Shape and fixed scalars of a digit-head model.

    Attributes:
        codec: alphabet p and code length K.
        K_heads: number of learnable digit depths, in [1, K]; deeper
            digits reuse the last head (weight tying).  With K_heads = 1
            one head serves every digit, each through the row of the
            digit before it.
        tau: sharpness of the two-logit quadratic comparison, finite and
            > 0.
    """

    codec: CodecParams
    K_heads: int | None = None
    tau: float = 0.5

    def __post_init__(self) -> None:
        if self.K_heads is None:
            self.K_heads = self.codec.K
        if not (1 <= self.K_heads <= self.codec.K):
            raise ValueError(
                f"K_heads={self.K_heads} outside [1, K={self.codec.K}]"
            )
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")


@dataclass(frozen=True)
class TwoLogitCEHead:
    """p x p score table, row = previous digit, column = digit, plus one
    scalar anchor per row: views of one block of a model's latents."""

    table: np.ndarray
    anchor: np.ndarray


@dataclass(frozen=True)
class HiPaNModel:
    """Trainable digit heads: heads[ke] serves digit ke, and the last head
    every deeper digit too.

    latents is the C-ordered (K_heads, p + 1, p) float64 array of every
    weight (module docstring); heads are views of it.  Neither can be
    rebound.  The model holds no data: the rarity weights of the loss
    come from a dataset's pair counts each time a loss is computed.
    """

    config: ModelConfig
    latents: np.ndarray
    init_seed: int = 0
    heads: tuple[TwoLogitCEHead, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, arr = self.p, self.latents
        shape = (self.config.K_heads, p + 1, p)
        if arr.shape != shape or arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ValueError(f"latents must be a C-ordered float64 array of shape {shape}")
        object.__setattr__(self, "heads", tuple(TwoLogitCEHead(b[:p], b[p]) for b in arr))

    @property
    def p(self) -> int:
        return self.config.codec.p

    @property
    def K(self) -> int:
        return self.config.codec.K


def parameter_count(config: ModelConfig) -> int:
    """Latent count of the layout: K_heads (p^2 + p), a p x p table and p
    anchors per head."""
    p = config.codec.p
    return config.K_heads * (p * p + p)


def _physical_memory() -> float:
    """Bytes of physical memory; infinite where the platform does not say."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return have if have > 0 else math.inf


def new_model(config: ModelConfig, seed: int = 0) -> HiPaNModel:
    """Fresh model with latents drawn i.i.d. uniform over {0, ..., p-1}.

    Integer-valued floats keep the +-1 move lattice exact and make the
    initial rounded digits uniform over the alphabet.  `_init_draws`
    fixes the draw order; checkpoints (`model_state`) store each array
    as its rows that differ from these draws.

    Raises:
        ValueError: the latents would not fit in physical memory.
    """
    p = config.codec.p
    need, have = parameter_count(config) * 8, _physical_memory()
    if need > have:
        raise ValueError(
            f"a model with p={p} needs {need} bytes of float64 latents, "
            f"more than the {have} bytes of physical memory"
        )
    model = HiPaNModel(config, np.empty((config.K_heads, p + 1, p)), init_seed=seed)
    for _, arr, draw in _init_draws(model, seed):
        arr[...] = draw
    return model


def model_arrays(model: HiPaNModel) -> dict[str, np.ndarray]:
    """Every latent array of model, by name: "head{ke}.table" and
    "head{ke}.anchor" for the head of each depth ke, in depth order.

    Views of model.latents, not copies, in its memory order.  Checkpoints
    name their tables by these names.
    """
    return _array_views(model.latents)


def _array_views(latents: np.ndarray, heads: Iterable[int] | None = None) -> dict[str, np.ndarray]:
    """model_arrays' named views of any array shaped like a model's
    latents (Adam's moments too), for the given heads (default: all)."""
    p = latents.shape[2]
    out = {}
    for ke in range(len(latents)) if heads is None else heads:
        out[f"head{ke}.table"] = latents[ke, :p]
        out[f"head{ke}.anchor"] = latents[ke, p]
    return out


def _init_draws(
    model: HiPaNModel, seed: int
) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """(name, array, init draw) for each array of model: the integers
    new_model(model.config, seed) gives that array, drawn one array at a
    time but for head 0's table.

    The draws are uniform-v2's in their order, head 0's row 0 taking the
    root scores' draw, and head 0's other rows and anchors are drawn after
    everything else: every deeper head starts, and so trains, bit for bit
    as under uniform-v2, when the root was a bare score vector."""
    rng = child_rng(seed, "init")
    p = model.p
    arrays = list(model_arrays(model).items())
    row0 = rng.integers(0, p, size=p)
    for name, arr in arrays[2:]:
        yield name, arr, rng.integers(0, p, size=arr.shape)
    (table_name, table), (anchor_name, anchor) = arrays[:2]
    yield table_name, table, np.vstack([row0, rng.integers(0, p, size=(p - 1, p))])
    yield anchor_name, anchor, rng.integers(0, p, size=p)


def _effective_depth(model: HiPaNModel, k: int) -> int:
    """Head depth serving digit k (weight tying past the last head)."""
    return min(k, model.config.K_heads - 1)


def softmax_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-d score array."""
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _top_two(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of each row's largest and second-largest score, ties to the
    lowest index."""
    top = rows.argmax(axis=1)
    masked = rows.copy()
    masked[np.arange(rows.shape[0]), top] = -np.inf
    return top, masked.argmax(axis=1)


def _anchored_choice_rows(
    model: HiPaNModel, ke: int, prev: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Generative rule of the head at depth ke for a batch of its rows,
    selected by the previous digits prev: the top two columns (ties to the
    lowest index), arbitrated by the row's anchor."""
    t_star, c = _top_two(rows)
    v = model.heads[ke].anchor[prev]
    pick_top = (v - t_star) ** 2 <= (v - c) ** 2
    return np.where(pick_top, t_star, c)


def _row_summary(
    model: HiPaNModel, ke: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat row-major table, acceptance floor, generative fallback column)
    of the head at depth ke; a row's floor is its max less
    RECONSTRUCT_MARGIN."""
    table = model.heads[ke].table
    fallback = _anchored_choice_rows(model, ke, np.arange(model.p), table)
    return table.ravel(), table.max(axis=1) - RECONSTRUCT_MARGIN, fallback


def _serving_rows(pred: np.ndarray, k: int) -> np.ndarray:
    """Row of digit k's head that each reconstruction selects: the digit
    predicted before it, or row 0 for digit 0."""
    if k == 0:
        return np.zeros(pred.shape[1], dtype=np.int64)
    return pred[k - 1]


def reconstruct_matrix(model: HiPaNModel, digits_mat: np.ndarray) -> np.ndarray:
    """Reconstruct every row of an (N, K) digit matrix at once.

    Rows chain on the digits actually predicted (free running); at each
    depth a record's own digit is read off its code and accepted when its
    score is within RECONSTRUCT_MARGIN of the row maximum, otherwise the
    head answers with its generative rule.

    Cost: each head serving some depth (tied depths share one) is
    summarized once per row, its acceptance floor (row max less the
    margin) and fallback column, in O(p^2) time; each depth then reads
    one contiguous digit column and makes three O(N) flat gathers, the
    score at r * p + t, the floor and the fallback of row r.  The total is
    O(K_heads p^2 + N K) time and O(p^2 + N K) memory, with no (N, p)
    temporary.  Confidences are not computed here: see
    `reconstruction_confidence`.

    Returns:
        (N, K) int predicted digits, a transposed view of a (K, N) array,
        so each depth's predictions are contiguous.
    """
    digits_mat = np.asarray(digits_mat, dtype=np.int64)
    n, width = digits_mat.shape
    if width != model.K:
        raise ValueError(f"digit matrix width {width} does not match K={model.K}")
    cols = np.ascontiguousarray(digits_mat.T)
    pred = np.empty((model.K, n), dtype=np.int64)
    summaries: dict[int, tuple[np.ndarray, ...]] = {}
    for k in range(model.K):
        ke = _effective_depth(model, k)
        if ke not in summaries:
            summaries[ke] = _row_summary(model, ke)
        flat, floor, fallback = summaries[ke]
        r = _serving_rows(pred, k)
        t = cols[k]
        accept = flat.take(r * model.p + t) >= floor.take(r)
        pred[k] = np.where(accept, t, fallback.take(r))
    return pred.T


def reconstruction_confidence(model: HiPaNModel, pred: np.ndarray) -> np.ndarray:
    """(N, K) softmax mass of each reconstructed digit within the score row
    that chose it, for predictions from reconstruct_matrix.

    Per depth, only the rows some reconstruction selects get their max
    and softmax denominator, one exp pass over each such row; each record
    then costs O(1) gathers.  The total is O(N K + p * rows selected).
    """
    pred = np.ascontiguousarray(np.asarray(pred, dtype=np.int64).T)
    conf = np.zeros(pred.shape[::-1], dtype=np.float64)
    for k in range(model.K):
        table = model.heads[_effective_depth(model, k)].table
        r = _serving_rows(pred, k)
        used = np.flatnonzero(np.bincount(r, minlength=table.shape[0]))
        rows = table[used]
        top, denom = np.empty(table.shape[0]), np.empty(table.shape[0])
        top[used] = rows.max(axis=1)
        denom[used] = np.exp(rows - top[used, None]).sum(axis=1)
        score = table.ravel().take(r * model.p + pred[k])
        conf[:, k] = np.exp(score - top.take(r)) / denom.take(r)
    return conf


def clamped_descent_matrix(tree: TreeSpec, digits_mat: np.ndarray) -> np.ndarray:
    """Node ids of the leaves every row of a digit matrix walks to.

    A digit past the last child clamps to the last child; a row stops at
    the first leaf and ignores its remaining digits.

    Raises:
        ValueError: a negative digit, or a row ending at an internal node.
    """
    cols = np.ascontiguousarray(np.asarray(digits_mat, dtype=np.int64).T)
    if (cols < 0).any():
        raise ValueError("clamped descent needs nonnegative digits")
    start, kids = tree.child_table
    n_kids = np.diff(start)
    node = np.zeros(cols.shape[1], dtype=np.int64)
    for col in cols:
        inner = n_kids[node] > 0
        at = node[inner]
        node[inner] = kids[start[at] + np.minimum(col[inner], n_kids[at] - 1)]
    short = n_kids[node] > 0
    if short.any():
        raise ValueError(
            f"digit sequence shorter than the hierarchy depth at "
            f"{tree.names[node[short.argmax()]]!r}"
        )
    return node


@dataclass(frozen=True)
class BallSummary:
    """What a digit prefix denotes inside an encoded hierarchy."""

    depth: int
    member_count: int
    members: tuple[str, ...]
    subtree_root: str | None


def describe_ball(
    dataset: EncodedDataset, tree: TreeSpec, prefix: Sequence[int]
) -> BallSummary:
    """Summarize the ball of codes extending a digit prefix.

    Members are dataset records whose codes start with the prefix; the
    subtree root is the hierarchy node the prefix walks to (None when the
    prefix leaves the hierarchy).
    """
    prefix = [int(d) for d in prefix]
    if len(prefix) > dataset.codec.K:
        raise ValueError(f"prefix longer than K={dataset.codec.K}")
    members = dataset.leaves_with_prefix(prefix)
    node: int | None = tree.root
    for d in prefix:
        kids = tree.children[node]
        if not kids:
            node = node if d == 0 else None
            if node is None:
                break
            continue
        if d >= len(kids):
            node = None
            break
        node = kids[d]
    return BallSummary(
        depth=len(prefix),
        member_count=len(members),
        members=members,
        subtree_root=None if node is None else tree.names[node],
    )


def pack_array(name: str, arr: np.ndarray) -> str:
    """Checkpoint text of an array, such as the row indices of a stored
    table: its flat row-major values as base64 little-endian bytes,
    tagged "int16:" when int16 holds every value exactly (integers, no
    -0.0) and "float64:" otherwise.  unpack_array gives the values back
    bit for bit.

    Raises:
        ValueError: the array holds NaN or infinity (named by name).
    """
    flat = np.ascontiguousarray(arr, dtype=np.float64).ravel()
    if not np.isfinite(flat).all():
        raise ValueError(f"table {name} holds a non-finite value; it cannot be saved")
    if ((flat >= -32768) & (flat <= 32767)).all():
        small = flat.astype("<i2")
        if np.array_equal(small.astype(np.float64).view(np.int64), flat.view(np.int64)):
            return "int16:" + base64.b64encode(small.tobytes()).decode("ascii")
    return "float64:" + base64.b64encode(flat.astype("<f8").tobytes()).decode("ascii")


_BLOB_DTYPES = {"int16": np.dtype("<i2"), "float64": np.dtype("<f8")}


def _unbase64(name: str, text: str) -> bytes:
    """The bytes of base64 text."""
    try:
        return base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"table {name} is not valid base64 ({exc})") from None


def unpack_array(name: str, value: str) -> np.ndarray:
    """Flat float64 values of pack_array text, bit for bit.

    Raises:
        ValueError: (naming the table) an unknown tag, invalid base64, a
            byte count that is not whole values, or a NaN or infinite
            value.
    """
    if not isinstance(value, str):
        raise ValueError(f"table {name} is not an array text")
    tag, _, text = value.partition(":")
    dtype = _BLOB_DTYPES.get(tag)
    if dtype is None:
        raise ValueError(f"table {name} has unknown array type {tag!r}")
    raw = _unbase64(name, text)
    if len(raw) % dtype.itemsize:
        raise ValueError(f"table {name} holds {len(raw)} bytes, not whole {tag} values")
    arr = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"table {name} holds a non-finite value; it cannot be loaded")
    return arr


def _deflate(data: np.ndarray) -> str:
    """base64 of the zlib stream of data's bytes."""
    # run-length matching only: on XOR and delta rows, mostly zero bytes,
    # it deflates smaller than the default strategy's level 6 and faster
    # than level 1
    deflate = zlib.compressobj(strategy=zlib.Z_RLE)
    return base64.b64encode(deflate.compress(data.tobytes()) + deflate.flush()).decode("ascii")


def pack_rows(name: str, arr: np.ndarray, base: np.ndarray | None = None) -> dict | None:
    """Checkpoint form of the rows of arr whose float64 bits differ from
    base's, or None when no row does.  Each entry of a 1-d array is a
    row.  base holds nonnegative integers, such as the seeded init (all
    zeros when None); unpack_rows writes the rows back over it.

    The form is {"rows": their ascending indices, packed by pack_array,
    codec: base64 of a zlib stream}, and the key names the codec:
    "deltas" holds each entry minus base's as little-endian int16, taken
    whenever base plus those deltas gives back every stored bit, as it
    does for lattice rows; "values" holds the little-endian XOR of the
    rows' float64 bits against base's, so any other float, -0.0
    included, comes back bit for bit.

    Raises:
        ValueError: a stored row holds NaN or infinity (named by name).
    """
    # against +0.0 and positive numbers, bits differ exactly where the
    # values differ (NaN included) or the sign bit is set (-0.0 included)
    differs = (arr != (0 if base is None else base)) | np.signbit(arr)
    rows = np.flatnonzero(differs.any(axis=tuple(range(1, differs.ndim))))
    if not len(rows):
        return None
    kept = arr[rows]
    if not np.isfinite(kept).all():
        raise ValueError(f"table {name} holds a non-finite value; it cannot be saved")
    under = np.zeros(kept.shape) if base is None else np.asarray(base[rows], dtype=np.float64)
    step = kept - under
    if ((step >= -32768) & (step <= 32767)).all():
        deltas = step.astype("<i2")
        if np.array_equal((under + deltas).view(np.int64), kept.view(np.int64)):
            return {"rows": pack_array(name, rows), "deltas": _deflate(deltas)}
    xor = kept.view(np.uint64) ^ under.view(np.uint64)
    return {"rows": pack_array(name, rows), "values": _deflate(xor.astype("<u8"))}


def _inflate(name: str, text: str, size: int) -> bytes:
    """The bytes of base64 zlib text, inflated to at most size bytes.

    Raises:
        ValueError: (naming the table) invalid base64, a stream that does
            not inflate whole, or one that inflates past size bytes.
    """
    if not isinstance(text, str):
        raise ValueError(f"table {name} is not an array text")
    stream = zlib.decompressobj()
    try:
        # one byte past size tells an overlong stream from a whole one
        out = stream.decompress(_unbase64(name, text), size + 1)
    except zlib.error as exc:
        raise ValueError(f"table {name} does not inflate ({exc})") from None
    if len(out) > size:
        raise ValueError(f"table {name} inflates past the {size} bytes of its rows")
    if not stream.eof or stream.unused_data:
        raise ValueError(f"table {name} does not inflate (not one whole zlib stream)")
    return out


# pack_rows' codecs: the stored dtype of each entry, and its name
_ROW_CODECS = {"values": (np.dtype("<u8"), "float64"), "deltas": (np.dtype("<i2"), "int16")}


def unpack_rows(name: str, value: dict, out: np.ndarray) -> np.ndarray:
    """Write the rows that pack_rows stored over out, in place: out's
    entries plus the deltas, or out's bits XORed with the values; returns
    out.

    Raises:
        ValueError: (naming the table) value is not the rows and one
            codec's text, a row index is not one of out's rows, the
            indices do not strictly ascend, the codec's text is malformed
            (_inflate) or not len(rows) whole rows of entries, a row
            comes out NaN or infinite, or the indices' text is malformed
            as unpack_array says.
    """
    if not isinstance(value, dict) or value.keys() not in ({"rows", "values"}, {"rows", "deltas"}):
        raise ValueError(f"table {name} is not a rows/values pair or a rows/deltas pair")
    codec = "deltas" if "deltas" in value else "values"
    dtype, kind = _ROW_CODECS[codec]
    at = unpack_array(name, value["rows"])
    outside = (at < 0) | (at >= len(out)) | (at != np.floor(at))
    if outside.any():
        raise ValueError(
            f"table {name} names row {at[outside.argmax()]:g}, not one of its {len(out)} rows"
        )
    rows = at.astype(np.int64)
    if (np.diff(rows) <= 0).any():
        raise ValueError(f"table {name} row indices do not strictly ascend")
    shape = (len(rows), *out.shape[1:])
    size = math.prod(shape) * dtype.itemsize
    raw = _inflate(name, value[codec], size)
    if len(raw) % dtype.itemsize:
        raise ValueError(f"table {name} inflates to {len(raw)} bytes, not whole {kind} values")
    if len(raw) != size:
        raise ValueError(f"table {name} has {len(raw) // dtype.itemsize} values, wanted {shape}")
    stored = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if codec == "deltas":
        values = out[rows] + stored
    else:
        values = (out[rows].view(np.uint64) ^ stored).view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"table {name} holds a non-finite value; it cannot be loaded")
    out[rows] = values
    return out


def _pack_tables(
    named: Iterable[tuple[str, np.ndarray, np.ndarray | None]], prefix: str = ""
) -> dict:
    """{name: pack_rows(prefix + name, arr, base)} for each (name, arr,
    base), leaving out every table that stores no row."""
    packed = ((name, pack_rows(prefix + name, arr, base)) for name, arr, base in named)
    return {name: rows for name, rows in packed if rows is not None}


def model_state(model: HiPaNModel) -> dict:
    """JSON-ready model snapshot in format v5: header scalars, the init
    scheme, and, keyed by name, each table whose rows differ from the
    model's seeded init, as those rows (pack_rows: int16 deltas against
    the init for lattice rows, their deflated bit XOR otherwise).  A
    table that training left at its init is not stored.

    The init is drawn again one array at a time, so a save never holds a
    second whole model.
    """
    cfg = model.config
    return {
        "format": CHECKPOINT_FORMAT,
        "init": INIT_SCHEME,
        "p": cfg.codec.p,
        "K": cfg.codec.K,
        "K_heads": cfg.K_heads,
        "tau": cfg.tau,
        "seed": model.init_seed,
        "tables": _pack_tables(_init_draws(model, model.init_seed)),
    }


def model_from_state(state: dict) -> HiPaNModel:
    """Inverse of model_state: the seeded init with each stored table's
    rows written over it.  A table not stored loads as its init.

    Raises:
        ValueError: a format tag or init scheme other than this version's
            (named), a header field or the tables of the wrong JSON type
            (named), a table naming no model array (named), or malformed
            tables.
    """
    fmt = state.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unknown model state format {fmt!r}; this version reads {CHECKPOINT_FORMAT!r}"
        )
    what = "checkpoint model"
    codec = CodecParams(_typed(state, "p", int, what), _typed(state, "K", int, what))
    tau = float(_typed(state, "tau", (int, float), what))
    config = ModelConfig(codec, _typed(state, "K_heads", int, what), tau)
    seed = _typed(state, "seed", int, what, 0)
    tables = _typed(state, "tables", dict, what)
    if state.get("init") != INIT_SCHEME:
        raise ValueError(
            f"unknown init scheme {state.get('init')!r}; this version reads {INIT_SCHEME!r}"
        )
    model = new_model(config, seed)
    arrays = model_arrays(model)
    stray = sorted(tables.keys() - arrays.keys())
    if stray:
        raise ValueError(f"malformed {what}: table {stray[0]!r} names no model array")
    for name, value in tables.items():
        unpack_rows(name, value, arrays[name])
    return model


__all__ = [
    "BallSummary",
    "CHECKPOINT_FORMAT",
    "HiPaNModel",
    "ModelConfig",
    "RECONSTRUCT_MARGIN",
    "TwoLogitCEHead",
    "clamped_descent_matrix",
    "describe_ball",
    "model_arrays",
    "model_from_state",
    "model_state",
    "new_model",
    "pack_array",
    "pack_rows",
    "parameter_count",
    "reconstruct_matrix",
    "reconstruction_confidence",
    "softmax_rows",
    "unpack_array",
    "unpack_rows",
]
