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
from typing import Callable, Sequence

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
    """1-based ranks with ties sharing their group's average rank."""
    x = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    n_pairs: int
    degenerate: bool


def _code_distances(
    index: CodeIndex, p: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Valuation distances between rows i and j of an indexed digit
    matrix: p**-v for first differing column v, 0.0 for equal codes."""
    scale = np.power(float(p), -np.arange(index.width + 1, dtype=np.float64))
    scale[-1] = 0.0
    return lambda i, j: scale[index.first_difference(i, j)]


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
    otherwise a seeded sample of max_pairs pairs.

    Degenerate inputs (every pair tied on either axis) report rho = 0
    with the degenerate flag set.  leaf_ids, the node id of each record's
    leaf, is looked up in the tree when not given.

    Code distances come from the dataset's code_index: O(N log N) to
    build on first use, then O(1) per pair.
    """
    n = dataset.n_records
    if n < 2:
        return SpearmanResult(0.0, 0, True)
    total = n * (n - 1) // 2
    if total <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = child_rng(seed, "spearman")
        draws = rng.integers(0, n, size=(int(max_pairs * 1.2) + 16, 2))
        draws = draws[draws[:, 0] != draws[:, 1]][:max_pairs]
        i, j = draws[:, 0], draws[:, 1]
    ids = tree.ids_of(dataset.leaves) if leaf_ids is None else leaf_ids
    depths = lca_depths(tree, ids[i], ids[j]).astype(np.float64)
    dists = _code_distances(dataset.code_index, dataset.codec.p)(i, j)
    rx = average_ranks(depths)
    ry = average_ranks(dists)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return SpearmanResult(0.0, i.size, True)
    rho = float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))
    return SpearmanResult(rho, i.size, False)


# --- strong triangle inequality ----------------------------------------------


@dataclass(frozen=True)
class TriangleReport:
    checked: int
    violations: int
    exhaustive: bool


def _hook_distances(
    D: np.ndarray, distance_fn: Callable[[np.ndarray, np.ndarray], float]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """distance_fn over rows i and j of a digit matrix, one pair per call."""
    return lambda i, j: np.array([distance_fn(D[x], D[y]) for x, y in zip(i, j)])


def _triangle_engine(
    n: int,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    exhaustive_limit: int,
    seed: int,
) -> TriangleReport:
    """Strong-triangle check over triples of n rows, whose sides are
    distance(rows, rows) for index arrays."""
    if n < 3:
        return TriangleReport(0, 0, True)
    total = n * (n - 1) * (n - 2) // 6
    exhaustive = total <= exhaustive_limit
    if exhaustive:
        triples = np.array(list(combinations(range(n), 3)), dtype=np.int64)
    else:
        rng = child_rng(seed, "triangles")
        draws = rng.integers(0, n, size=(int(exhaustive_limit * 1.3) + 16, 3))
        distinct = (
            (draws[:, 0] != draws[:, 1])
            & (draws[:, 0] != draws[:, 2])
            & (draws[:, 1] != draws[:, 2])
        )
        triples = draws[distinct][:exhaustive_limit]
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    sides = np.sort(np.stack([distance(a, b), distance(b, c), distance(a, c)], axis=1), axis=1)
    violations = int((sides[:, 2] > sides[:, 1]).sum())
    return TriangleReport(len(triples), violations, exhaustive)


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
    exhaustive_limit, otherwise a seeded sample of exhaustive_limit
    triples.  Without a hook the sides come from the dataset's
    code_index: O(N log N) to build on first use, then O(1) per side.
    """
    if distance_fn is None:
        distance = _code_distances(dataset.code_index, dataset.codec.p)
    else:
        distance = _hook_distances(dataset.digits_matrix(), distance_fn)
    return _triangle_engine(dataset.n_records, distance, exhaustive_limit, seed)


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
    if distance_fn is None:
        distance = _code_distances(CodeIndex(D), codec.p)
    else:
        distance = _hook_distances(D, distance_fn)
    return _triangle_engine(len(D), distance, max_triples, seed).violations


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
    between confidence and the 0/1 outcome.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    hit = np.asarray(correct, dtype=np.float64)
    if conf.shape != hit.shape:
        raise ValueError("confidences and outcomes differ in length")
    n = len(conf)
    if n == 0:
        return CalibrationReport(0.0, 0.0, (), 0)
    if conf.min() < 0.0 or conf.max() > 1.0:
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
    """Run every structural check against one model and dataset."""
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
    distance = _code_distances(dataset.code_index, dataset.codec.p)
    cols = np.arange(len(leaves))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("leaf\t" + "\t".join(leaves) + "\n")
        for i, leaf in enumerate(leaves):
            fh.write(leaf + "\t" + "\t".join(map(repr, distance(i, cols).tolist())) + "\n")


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
