"""Structural diagnostics for encoded hierarchies and trained models.

Everything here answers one of two questions.  Does the code geometry
carry the hierarchy faithfully (rank correlation against ancestry depth,
strong-triangle violations, digit and prefix entropies, box-count
dimension)?  And does a trained model actually hold the codes it was
fit on (reconstruction accuracy, confidence calibration)?

Distances between codes use the valuation metric p^-(first differing
digit index); identical codes are at distance exactly 0.

The geometry checks (rank correlation, triangles, prefix entropy, box
counting) share one sorted index of the dataset's codes,
`EncodedDataset.code_index`, built by the first check that reads it.
Building it costs O(N log N), with no sort when the records already
ascend; then each pair distance costs O(1), a few gathers whatever K
is, and the prefix groups of every length come from one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import (
    HiPaNModel,
    clamped_descent_matrix,
    reconstruct_matrix,
    reconstruction_confidence,
)
from .padic import PadicCode
from .rng import child_rng
from .tree import CodeIndex, EncodedDataset, TreeSpec, lca_depths


# --- reconstruction accuracy --------------------------------------------------


@dataclass(frozen=True)
class AccuracyReport:
    """Reconstruction quality over a dataset.

    leaf_accuracy: predicted digit paths land on the right leaf (needs a
        hierarchy; equals code_accuracy when none is given).
    digit_accuracy: per-digit hit rate, index 0 = root digit.
    code_accuracy: all K digits reproduced exactly.
    """

    leaf_accuracy: float
    digit_accuracy: tuple[float, ...]
    code_accuracy: float
    n_records: int

    @property
    def root_accuracy(self) -> float:
        return self.digit_accuracy[0]


@dataclass(frozen=True)
class Evaluation:
    """One free-running reconstruction of every record, read by accuracy,
    calibration and the epoch log: the true and reconstructed (N, K)
    digits, whether each record reached its own leaf (its whole code,
    without a tree), and the model that reconstructed them.  Confidences
    are computed only for calibration, from the model and pred."""

    digits: np.ndarray
    pred: np.ndarray
    leaf_hit: np.ndarray
    model: HiPaNModel

    def accuracy(self) -> AccuracyReport:
        if not len(self.digits):
            raise ValueError("accuracy over an empty dataset is undefined")
        hit = self.pred == self.digits
        per_digit = tuple(float(a) for a in hit.mean(axis=0))
        code_acc = float(hit.all(axis=1).mean())
        return AccuracyReport(float(self.leaf_hit.mean()), per_digit, code_acc, len(hit))

    def calibration(self, n_bins: int = 15) -> CalibrationReport:
        """Whole-code confidence against leaf_hit: the product over digits
        of each reconstructed digit's softmax mass within its score row."""
        conf = reconstruction_confidence(self.model, self.pred)
        return binned_calibration(conf.prod(axis=1), self.leaf_hit, n_bins)


def evaluate_digits(
    model: HiPaNModel,
    D: np.ndarray,
    tree: TreeSpec | None = None,
    leaf_ids: np.ndarray | None = None,
) -> Evaluation:
    """One reconstruction of an (N, K) digit matrix and, given the tree and
    each row's leaf id, one clamped descent of all the reconstructions."""
    pred = reconstruct_matrix(model, D)
    if tree is None:
        return Evaluation(D, pred, (pred == D).all(axis=1), model)
    return Evaluation(D, pred, clamped_descent_matrix(tree, pred) == leaf_ids, model)


def evaluate(
    model: HiPaNModel, dataset: EncodedDataset, tree: TreeSpec | None = None
) -> Evaluation:
    """evaluate_digits over a dataset's records."""
    leaf_ids = None if tree is None else tree.ids_of(dataset.leaves)
    return evaluate_digits(model, dataset.digits_matrix(), tree, leaf_ids)


def accuracy_report(
    model: HiPaNModel, dataset: EncodedDataset, tree: TreeSpec | None = None
) -> AccuracyReport:
    """Free-running reconstruction accuracy; empty datasets are an error."""
    return evaluate(model, dataset, tree).accuracy()


# --- rank correlation ---------------------------------------------------------


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank.  Small
    unsigned integers (at most 16 bits), like the levels that
    spearman_ultrametric ranks, are counted; anything else is sorted."""
    x = np.asarray(values)
    if x.dtype.kind == "u" and x.dtype.itemsize <= 2:
        inverse, counts = x, np.bincount(x)
    else:
        _, inverse, counts = np.unique(x.astype(float), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def _at_least_one(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")


_BLOCK = 1 << 14  # rows per block of the geometry checks' samples


def _distinct_blocks(
    seed: int, stream: str, n: int, width: int, limit: int, rate: float
) -> Iterator[list[np.ndarray]]:
    """The columns of the first `limit` of int(limit * rate) + 16 seeded
    rows of `width` indices below n whose entries all differ, drawn in
    blocks of _BLOCK rows that hold the values of one whole draw."""
    rng, budget = child_rng(seed, stream), int(limit * rate) + 16
    while limit > 0 and budget > 0:
        draws = rng.integers(0, n, size=(min(_BLOCK, budget), width))
        budget -= len(draws)
        distinct = np.logical_and.reduce([x != y for x, y in combinations(draws.T, 2)])
        keep = np.flatnonzero(distinct)[:limit]
        limit -= len(keep)
        yield [col[keep] for col in draws.T]


def _pairs(n: int) -> Iterator[list[np.ndarray]]:
    """Every (i, j) with i < j < n in np.triu_indices order, in row blocks."""
    cols, step = np.arange(n), max(1, _BLOCK // n)
    for lo in range(0, n, step):
        i, j = np.nonzero(cols > cols[lo : lo + step, None])
        yield [i + lo, j]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    n_pairs: int
    degenerate: bool


def spearman_ultrametric(
    dataset: EncodedDataset,
    tree: TreeSpec,
    max_pairs: int = 100_000,
    seed: int = 0,
    leaf_ids: np.ndarray | None = None,
) -> SpearmanResult:
    """Rank correlation between ancestry depth and code distance.

    Pairs of records are ranked by the depth of their deepest common
    ancestor and by the valuation distance of their codes; a faithful
    encoding makes the two orderings exact mirrors, so the coefficient
    is -1.  All pairs are used when there are at most max_pairs of them;
    otherwise a seeded sample of max_pairs pairs (ValueError below 1).

    Degenerate inputs (every pair tied on either axis) report rho = 0
    with the degenerate flag set.  leaf_ids, the node id of each record's
    leaf, is looked up in the tree when not given.

    Both axes are integer levels, ranked by counting: the LCA depth, and
    K minus the first differing column v from the dataset's code_index
    (O(N log N) to build on first use, then O(1) per pair), whose ranks
    are those of the distances, since p**-v falls strictly as v rises.
    Pairs are drawn in fixed blocks; working memory peaks at 24 B a pair.
    """
    _at_least_one(max_pairs=max_pairs)
    n = dataset.n_records
    if n < 2:
        return SpearmanResult(0.0, 0, True)
    exhaustive = n * (n - 1) // 2 <= max_pairs
    pairs = _pairs(n) if exhaustive else _distinct_blocks(seed, "spearman", n, 2, max_pairs, 1.2)
    ids = tree.ids_of(dataset.leaves) if leaf_ids is None else leaf_ids
    index = dataset.code_index
    levels = (
        (lca_depths(tree, ids[i], ids[j]), index.width - index.first_difference(i, j))
        for i, j in pairs
    )
    rx, ry = (average_ranks(np.concatenate(axis)) for axis in zip(*levels))
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return SpearmanResult(0.0, rx.size, True)
    rx -= rx.mean()
    ry -= ry.mean()
    return SpearmanResult(float((rx * ry).mean() / (sx * sy)), rx.size, False)


# --- strong triangle inequality ----------------------------------------------


@dataclass(frozen=True)
class TriangleReport:
    checked: int
    violations: int
    exhaustive: bool


def _triples(n: int) -> list[np.ndarray]:
    """The columns of every (a, b, c) with a < b < c < n, in the order of
    itertools.combinations: for each a, its pairs (b, c) are the last
    C(n-1-a, 2) of the ordered pairs b < c."""
    b, c = np.triu_indices(n, k=1)
    after = np.arange(n - 1, -1, -1)
    tails = after * (after - 1) // 2
    pair = np.arange(tails.sum()) + np.repeat(len(b) - np.cumsum(tails), tails)
    return [np.repeat(np.arange(n), tails), b[pair], c[pair]]


def _triangle_engine(
    rows: CodeIndex | np.ndarray,
    distance_fn: Callable[[np.ndarray, np.ndarray], float] | None,
    exhaustive_limit: int,
    seed: int,
) -> TriangleReport:
    """Strong-triangle check over triples of a CodeIndex's rows, with sides
    K minus first differing columns, or of a digit matrix's rows, with
    distance_fn sides.  A triple violates where its largest side is
    attained exactly once; a NaN side leaves it no largest side."""
    _at_least_one(exhaustive_limit=exhaustive_limit)
    n = len(rows.rank) if distance_fn is None else len(rows)
    if n < 3:
        return TriangleReport(0, 0, True)
    exhaustive = n * (n - 1) * (n - 2) // 6 <= exhaustive_limit
    if exhaustive:
        blocks = [_triples(n)]
    else:
        blocks = _distinct_blocks(seed, "triangles", n, 3, exhaustive_limit, 1.3)
    checked = violations = 0
    for a, b, c in blocks:
        if distance_fn is None:
            a, b, c = rows.rank[a], rows.rank[b], rows.rank[c]
        x, y, z = (
            rows.width - rows.first_difference_sorted(u, v)
            if distance_fn is None
            else np.array([distance_fn(rows[i], rows[j]) for i, j in zip(u, v)])
            for u, v in ((a, b), (b, c), (a, c))
        )
        top = np.maximum(np.maximum(x, y), z)
        ties = (x == top).astype(np.uint8) + (y == top) + (z == top)
        checked += len(a)
        violations += int(np.count_nonzero(ties == 1))
    return TriangleReport(checked, violations, exhaustive)


def triangle_violations(
    dataset: EncodedDataset,
    distance_fn: Callable[[np.ndarray, np.ndarray], float] | None = None,
    exhaustive_limit: int = 200_000,
    seed: int = 0,
) -> TriangleReport:
    """Count triples whose largest side exceeds the runner-up.

    In an ultrametric the two largest of any triple's three distances are
    equal, so `violations` must be 0 for the valuation metric; the
    distance_fn hook exists to confirm the detector fires on anything
    less rigid (it receives two digit rows).

    All C(n,3) triples are checked when that count is at most
    exhaustive_limit, else a seeded sample of that many, in fixed blocks
    of bounded memory (ValueError below 1).  Without a hook the sides
    are first differing columns, by which the distance falls strictly,
    from the dataset's code_index (O(N log N) to build on first use,
    then O(1) per side).  Hook sides stay floats; NaN makes no violation.
    """
    rows = dataset.code_index if distance_fn is None else dataset.digits_matrix()
    return _triangle_engine(rows, distance_fn, exhaustive_limit, seed)


def triangle_violation_count(
    codes: Sequence[PadicCode],
    max_triples: int = 200_000,
    seed: int = 0,
    distance_fn: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> int:
    """Violation count over bare codes; see triangle_violations.

    Raises:
        ValueError: the codes mix codecs.
    """
    if not codes:
        return 0
    codec = codes[0].params
    if any(c.params != codec for c in codes):
        raise ValueError("codes mix codecs")
    D = np.array([c.digits for c in codes], dtype=np.int64)
    rows = CodeIndex(D) if distance_fn is None else D
    return _triangle_engine(rows, distance_fn, max_triples, seed).violations


# --- entropy profiles ---------------------------------------------------------


def _entropy_bits(counts: np.ndarray) -> float:
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def digit_entropy_profile(dataset: EncodedDataset) -> np.ndarray:
    """Shannon entropy (bits) of each digit's marginal over the records.

    Not monotone in general: an irregular hierarchy can put most of its
    branching at one depth.  The joint prefix profile is the monotone
    quantity.
    """
    D = dataset.digits_matrix()
    p = dataset.codec.p
    return np.array(
        [_entropy_bits(np.bincount(D[:, k], minlength=p)) for k in range(D.shape[1])]
    )


def prefix_entropy_profile(dataset: EncodedDataset) -> np.ndarray:
    """Entropy (bits) of the distribution over k-digit prefixes, k = 0..K.

    Nondecreasing in k for any dataset: extending a prefix only refines
    the partition of the records.
    """
    sizes = dataset.code_index.prefix_group_sizes()
    out = np.zeros(len(sizes) + 1)
    for k, counts in enumerate(sizes, start=1):
        out[k] = _entropy_bits(counts)
    return out


# --- box-count dimension ------------------------------------------------------


@dataclass(frozen=True)
class BoxCountResult:
    """Least-squares slope of log N(k) against k log p.

    points holds (k, N(k)) for every prefix length; the fit uses only the
    interior points where 1 < N(k) < the number of distinct codes, so
    the saturated ends do not flatten the slope.  With fewer than two
    interior points the dimension is undefined: defined is False and d0
    and fit_r2 are NaN.
    """

    d0: float
    fit_r2: float
    points: tuple[tuple[int, int], ...]
    fit_levels: tuple[int, ...]
    defined: bool


def box_count_dimension(dataset: EncodedDataset) -> BoxCountResult:
    K = dataset.codec.K
    p = dataset.codec.p
    groups = dataset.code_index.prefix_group_sizes()
    counts = [1] + [len(sizes) for sizes in groups]
    n_codes = counts[K]
    points = tuple((k, counts[k]) for k in range(K + 1))
    fit_ks = [k for k in range(K + 1) if 1 < counts[k] < n_codes]
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


# --- calibration --------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean_confidence: float
    accuracy: float


@dataclass(frozen=True)
class CalibrationReport:
    ece: float
    brier: float
    bins: tuple[CalibrationBin, ...]
    n_records: int


def binned_calibration(
    confidences: Sequence[float], correct: Sequence[bool], n_bins: int = 15
) -> CalibrationReport:
    """Equal-width reliability bins over [0, 1]; the last bin is closed.

    ECE is the count-weighted mean absolute gap between each bin's
    accuracy and its mean confidence; Brier is the mean squared gap
    between confidence and the 0/1 outcome.  n_bins below 1 is a ValueError.
    """
    _at_least_one(n_bins=n_bins)
    conf = np.asarray(confidences, dtype=np.float64)
    hit = np.asarray(correct, dtype=np.float64)
    if conf.shape != hit.shape:
        raise ValueError("confidences and outcomes differ in length")
    n = len(conf)
    if n == 0:
        return CalibrationReport(0.0, 0.0, (), 0)
    if not (conf.min() >= 0.0 and conf.max() <= 1.0):  # NaN fails both
        raise ValueError("confidences must lie in [0, 1]")
    which = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    bins = []
    ece = 0.0
    for b in range(n_bins):
        mask = which == b
        cnt = int(mask.sum())
        lo, hi = b / n_bins, (b + 1) / n_bins
        if cnt == 0:
            bins.append(CalibrationBin(lo, hi, 0, 0.0, 0.0))
            continue
        mean_conf = float(conf[mask].mean())
        acc = float(hit[mask].mean())
        bins.append(CalibrationBin(lo, hi, cnt, mean_conf, acc))
        ece += (cnt / n) * abs(acc - mean_conf)
    brier = float(((conf - hit) ** 2).mean())
    return CalibrationReport(float(ece), brier, tuple(bins), n)


# --- assembled report ---------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    accuracy: AccuracyReport
    spearman: SpearmanResult
    triangles: TriangleReport
    digit_entropy: tuple[float, ...]
    prefix_entropy: tuple[float, ...]
    box_count: BoxCountResult
    calibration: CalibrationReport

    def as_dict(self) -> dict:
        bc = self.box_count
        return {
            "leaf_acc": self.accuracy.leaf_accuracy,
            "root_acc": self.accuracy.root_accuracy,
            "per_digit_acc": list(self.accuracy.digit_accuracy),
            "code_acc": self.accuracy.code_accuracy,
            "n_records": self.accuracy.n_records,
            "spearman_rho": self.spearman.rho,
            "spearman": {
                "n_pairs": self.spearman.n_pairs,
                "degenerate": self.spearman.degenerate,
            },
            "triangle_violations": self.triangles.violations,
            "triangles": {
                "checked": self.triangles.checked,
                "exhaustive": self.triangles.exhaustive,
            },
            "entropy_profile": list(self.digit_entropy),
            "prefix_entropy": list(self.prefix_entropy),
            "fractal": {
                "D0": None if not bc.defined else bc.d0,
                "fit_r2": None if not bc.defined else bc.fit_r2,
                "points": [list(pt) for pt in bc.points],
                "fit_levels": list(bc.fit_levels),
                "defined": bc.defined,
            },
            "calibration": {
                "ece": self.calibration.ece,
                "brier": self.calibration.brier,
                "n_records": self.calibration.n_records,
                "bins": [
                    {
                        "lo": b.lo,
                        "hi": b.hi,
                        "count": b.count,
                        "mean_confidence": b.mean_confidence,
                        "accuracy": b.accuracy,
                    }
                    for b in self.calibration.bins
                ],
            },
        }


def diagnose(
    model: HiPaNModel,
    dataset: EncodedDataset,
    tree: TreeSpec,
    *,
    max_pairs: int = 100_000,
    triangle_limit: int = 200_000,
    n_bins: int = 15,
    seed: int = 0,
) -> DiagnosticsReport:
    """Run every structural check against one model and dataset; a
    sample size or bin count below 1 is a ValueError.  Working memory:
    24 B per Spearman pair, a fixed block for the sampled triangles."""
    _at_least_one(max_pairs=max_pairs, triangle_limit=triangle_limit, n_bins=n_bins)
    leaf_ids = tree.ids_of(dataset.leaves)
    evaluation = evaluate_digits(model, dataset.digits_matrix(), tree, leaf_ids)
    return DiagnosticsReport(
        accuracy=evaluation.accuracy(),
        spearman=spearman_ultrametric(
            dataset, tree, max_pairs=max_pairs, seed=seed, leaf_ids=leaf_ids
        ),
        triangles=triangle_violations(dataset, exhaustive_limit=triangle_limit, seed=seed),
        digit_entropy=tuple(float(h) for h in digit_entropy_profile(dataset)),
        prefix_entropy=tuple(float(h) for h in prefix_entropy_profile(dataset)),
        box_count=box_count_dimension(dataset),
        calibration=evaluation.calibration(n_bins),
    )


# --- tab-separated exports ----------------------------------------------------


def write_entropy_tsv(
    path: str, digit: Sequence[float], prefix: Sequence[float]
) -> None:
    """One row per digit: its marginal entropy (digit_entropy_profile) and
    the entropy of the prefix ending at it (prefix_entropy_profile)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digit\tmarginal_bits\tprefix_bits\n")
        for k in range(len(digit)):
            fh.write(f"{k}\t{float(digit[k])!r}\t{float(prefix[k + 1])!r}\n")


def write_box_counts_tsv(path: str, result: BoxCountResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix_len\tboxes\tused_in_fit\n")
        for k, cnt in result.points:
            fh.write(f"{k}\t{cnt}\t{int(k in result.fit_levels)}\n")


def write_reliability_tsv(path: str, report: CalibrationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo\tbin_hi\tcount\tmean_confidence\taccuracy\n")
        for b in report.bins:
            fh.write(f"{b.lo!r}\t{b.hi!r}\t{b.count}\t{b.mean_confidence!r}\t{b.accuracy!r}\n")


def write_distance_matrix_tsv(
    path: str, dataset: EncodedDataset, limit: int | None = None
) -> None:
    """Pairwise valuation distances between record codes.

    limit caps the number of records written (row and column count);
    None writes all of them.
    """
    leaves = dataset.leaves if limit is None else dataset.leaves[:limit]
    index, cols = dataset.code_index, np.arange(len(leaves))
    # p**-v for first differing column v, 0.0 for equal codes
    scale = np.power(float(dataset.codec.p), -np.arange(index.width + 1, dtype=np.float64))
    scale[-1] = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("leaf\t" + "\t".join(leaves) + "\n")
        for i, leaf in enumerate(leaves):
            row = scale[index.first_difference(i, cols)]
            fh.write(leaf + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


__all__ = [
    "AccuracyReport",
    "BoxCountResult",
    "CalibrationBin",
    "CalibrationReport",
    "DiagnosticsReport",
    "Evaluation",
    "SpearmanResult",
    "TriangleReport",
    "accuracy_report",
    "average_ranks",
    "binned_calibration",
    "box_count_dimension",
    "diagnose",
    "digit_entropy_profile",
    "evaluate",
    "evaluate_digits",
    "prefix_entropy_profile",
    "spearman_ultrametric",
    "triangle_violation_count",
    "triangle_violations",
    "write_box_counts_tsv",
    "write_distance_matrix_tsv",
    "write_entropy_tsv",
    "write_reliability_tsv",
]
