"""Segmentation and classification metrics.

Dice, boundary Hausdorff distance, sensitivity/specificity (one-vs-rest over
pixels), top-1 accuracy, and mean +/- SD aggregation (population SD). Dice
of two empty sets is 1.0 (agreement on absence); Hausdorff with an empty
side is undefined and excluded from aggregates but counted.

A scored test set is a list of (sample, class, metric, value) rows, one per
line of its per-sample CSV: per foreground class, dice, hausdorff,
sensitivity and specificity of a segmentation sample; with an empty class,
the predicted class and top1 (0 or 1) of a classification sample.
:func:`report` aggregates the rows; the per-sample and the comparison
files are written through :func:`tensorio.write_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError
from .tensorio import write_csv


def _check_extents(pred: np.ndarray, truth: np.ndarray) -> None:
    if np.asarray(pred).shape != np.asarray(truth).shape:
        raise InvalidShapeError(f"label map extents differ: {np.shape(pred)} vs {np.shape(truth)}")


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Coordinates of mask pixels with a 4-neighbor outside the mask or on the image edge."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise InvalidShapeError(f"expected a 2-d mask, got shape {mask.shape}")
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (
        mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:]
    )
    return np.argwhere(mask & ~inner)


# bytes of one block of squared boundary distances in hausdorff
_HAUSDORFF_BLOCK_BYTES = 1 << 20


def hausdorff(a: np.ndarray, b: np.ndarray) -> float | None:
    """Max directed sup-inf Euclidean distance between the boundary pixel
    sets of two masks.

    Returns None (undefined) when either mask is empty. The squared
    distances are taken over blocks of A's boundary points, so memory stays
    bounded; they are integers, so the result does not depend on the block
    size.
    """
    _check_extents(a, b)
    if not np.any(a) or not np.any(b):
        return None
    pa = boundary_pixels(a)
    pb = boundary_pixels(b)
    rows = max(1, _HAUSDORFF_BLOCK_BYTES // (8 * len(pb)))
    forward = 0
    column_min = np.full(len(pb), np.iinfo(np.int64).max)
    for lo in range(0, len(pa), rows):
        block = pa[lo : lo + rows]
        d2 = (block[:, None, 0] - pb[:, 0]) ** 2 + (block[:, None, 1] - pb[:, 1]) ** 2
        forward = max(forward, d2.min(axis=1).max())
        np.minimum(column_min, d2.min(axis=0), out=column_min)
    return float(np.sqrt(max(forward, column_min.max())))


def aggregate(values) -> tuple[float, float]:
    """Two-pass mean and population SD (divide by N)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise InvalidShapeError("cannot aggregate an empty value list")
    mean = arr.mean()
    sd = float(np.sqrt(((arr - mean) ** 2).mean()))
    return float(mean), sd


# ---------------------------------------------------------------------------
# Per-sample rows and reports


def evaluate_segmentation_sample(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> list[tuple]:
    """(class, metric, value) rows of one sample, foreground classes 1..k-1
    only; an undefined value is None.

    Per class, with A the predicted and B the true pixel set over N pixels:
    dice 2|A^B| / (|A|+|B|) (1.0 when both are empty), sensitivity
    |A^B| / |B| (None when B is empty), specificity, one-vs-rest,
    (N-|A|-|B|+|A^B|) / (N-|B|) (None when B is every pixel), and the
    boundary :func:`hausdorff` distance.
    """
    _check_extents(pred, truth)
    pred, truth = np.asarray(pred), np.asarray(truth)
    n = pred.size
    rows = []
    for c in range(1, num_classes):
        a, b = pred == c, truth == c
        na, nb, both = int(a.sum()), int(b.sum()), int(np.logical_and(a, b).sum())
        rows += [
            (c, "dice", 2.0 * both / (na + nb) if na + nb else 1.0),
            (c, "hausdorff", hausdorff(a, b)),
            (c, "sensitivity", both / nb if nb else None),
            (c, "specificity", (n - na - nb + both) / (n - nb) if nb < n else None),
        ]
    return rows


# metrics averaged over each sample's defined values before aggregation, and
# metrics aggregated over every defined value; other metrics are not aggregated
_SAMPLE_MEAN = ("dice", "hausdorff")
_POOLED = ("sensitivity", "specificity", "top1")


@dataclass
class MetricsReport:
    """Evaluation of one scheme on one test set: the per-sample
    (sample, class, metric, value) rows and their aggregates."""

    rows: list
    aggregates: dict  # metric name -> (mean, sd)
    hausdorff_undefined: int


def report(rows: list[tuple]) -> MetricsReport:
    """Aggregate (sample, class, metric, value) rows. A metric with no
    defined value is left out, and so is a sample with no defined value of
    a per-sample mean metric."""
    defined: dict = {}  # metric -> sample -> defined values, in row order
    undefined = 0
    for sample, _, metric, value in rows:
        if value is None:
            undefined += metric == "hausdorff"
        else:
            defined.setdefault(metric, {}).setdefault(sample, []).append(value)
    aggregates = {}
    for metric, by_sample in defined.items():
        if metric in _SAMPLE_MEAN:
            aggregates[metric] = aggregate(float(np.mean(values)) for values in by_sample.values())
        elif metric in _POOLED:
            aggregates[metric] = aggregate(v for values in by_sample.values() for v in values)
    return MetricsReport(rows=rows, aggregates=aggregates, hausdorff_undefined=undefined)


# ---------------------------------------------------------------------------
# CSV export


def write_per_sample_csv(report: MetricsReport, path) -> None:
    """One line per report row; an undefined value is left empty."""
    write_csv(path, ["sample", "class", "metric", "value"], report.rows)


def write_compare_csv(rows: list, path) -> None:
    """One line per (scheme, test noise tag, report): mean and SD of every
    metric any report aggregates (empty where a report lacks it), then the
    count of undefined Hausdorff values."""
    names = sorted({name for _, _, r in rows for name in r.aggregates})
    stats = [f"{name}_{stat}" for name in names for stat in ("mean", "sd")]
    lines = [
        [scheme, tag, *(v for n in names for v in r.aggregates.get(n, (None, None))), r.hausdorff_undefined]
        for scheme, tag, r in rows
    ]
    write_csv(path, ["scheme", "test_noise", *stats, "hausdorff_undefined"], lines)
