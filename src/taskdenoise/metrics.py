"""Segmentation and classification metrics.

Dice, boundary Hausdorff distance, sensitivity/specificity (one-vs-rest over
pixels), top-1 accuracy, and mean +/- SD aggregation (population SD). Dice
of two empty sets is 1.0 (agreement on absence); Hausdorff with an empty
side is undefined and excluded from aggregates but counted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidShapeError


def _class_mask(labels: np.ndarray, class_id: int) -> np.ndarray:
    return np.asarray(labels) == class_id


def _check_extents(pred: np.ndarray, truth: np.ndarray) -> None:
    if np.asarray(pred).shape != np.asarray(truth).shape:
        raise InvalidShapeError(f"label map extents differ: {np.shape(pred)} vs {np.shape(truth)}")


def dice(pred: np.ndarray, truth: np.ndarray, class_id: int) -> float:
    """2|A^B| / (|A|+|B|) over the class-id pixel sets."""
    _check_extents(pred, truth)
    a = _class_mask(pred, class_id)
    b = _class_mask(truth, class_id)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


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


def hausdorff(pred: np.ndarray, truth: np.ndarray, class_id: int) -> float | None:
    """Max directed sup-inf Euclidean distance between boundary pixel sets.

    Returns None (undefined) when either class set is empty.
    """
    _check_extents(pred, truth)
    a = _class_mask(pred, class_id)
    b = _class_mask(truth, class_id)
    if not a.any() or not b.any():
        return None
    pa = boundary_pixels(a).astype(np.float64)
    pb = boundary_pixels(b).astype(np.float64)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    forward = np.sqrt(d2.min(axis=1)).max()
    backward_ = np.sqrt(d2.min(axis=0)).max()
    return float(max(forward, backward_))


def sensitivity(pred: np.ndarray, truth: np.ndarray, class_id: int) -> float | None:
    """TP / (TP + FN) over pixels, one-vs-rest; None when the class is absent."""
    _check_extents(pred, truth)
    a = _class_mask(pred, class_id)
    b = _class_mask(truth, class_id)
    positives = int(b.sum())
    if positives == 0:
        return None
    return int(np.logical_and(a, b).sum()) / positives


def specificity(pred: np.ndarray, truth: np.ndarray, class_id: int) -> float | None:
    """TN / (TN + FP) over pixels, one-vs-rest; None when everything is the class."""
    _check_extents(pred, truth)
    a = _class_mask(pred, class_id)
    b = _class_mask(truth, class_id)
    negatives = int((~b).sum())
    if negatives == 0:
        return None
    return int(np.logical_and(~a, ~b).sum()) / negatives


def aggregate(values) -> tuple[float, float]:
    """Two-pass mean and population SD (divide by N)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise InvalidShapeError("cannot aggregate an empty value list")
    mean = arr.mean()
    sd = float(np.sqrt(((arr - mean) ** 2).mean()))
    return float(mean), sd


# ---------------------------------------------------------------------------
# Per-sample evaluation and reports


@dataclass
class SampleMetrics:
    """Metrics for one segmentation sample, per foreground class."""

    dice_by_class: dict[int, float]
    hausdorff_by_class: dict[int, float | None]
    sensitivity_by_class: dict[int, float | None]
    specificity_by_class: dict[int, float | None]

    @property
    def mean_dice(self) -> float:
        return float(np.mean(list(self.dice_by_class.values())))

    @property
    def mean_hausdorff(self) -> float | None:
        defined = [v for v in self.hausdorff_by_class.values() if v is not None]
        return float(np.mean(defined)) if defined else None


def evaluate_segmentation_sample(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> SampleMetrics:
    """All per-class metrics for one sample. Foreground classes only: 1..k-1."""
    classes = range(1, num_classes)
    return SampleMetrics(
        dice_by_class={c: dice(pred, truth, c) for c in classes},
        hausdorff_by_class={c: hausdorff(pred, truth, c) for c in classes},
        sensitivity_by_class={c: sensitivity(pred, truth, c) for c in classes},
        specificity_by_class={c: specificity(pred, truth, c) for c in classes},
    )


@dataclass
class MetricsReport:
    """Aggregated evaluation of one scheme on one test set."""

    task: str
    num_classes: int
    per_sample: list = field(default_factory=list)  # SampleMetrics, or (pred, truth) class pairs
    aggregates: dict = field(default_factory=dict)  # metric name -> (mean, sd)
    hausdorff_undefined: int = 0

    @property
    def sample_count(self) -> int:
        return len(self.per_sample)


def segmentation_report(per_sample: list[SampleMetrics], num_classes: int) -> MetricsReport:
    report = MetricsReport(task="segmentation", num_classes=num_classes, per_sample=per_sample)
    report.aggregates["dice"] = aggregate([s.mean_dice for s in per_sample])
    defined = [s.mean_hausdorff for s in per_sample if s.mean_hausdorff is not None]
    report.hausdorff_undefined = sum(
        1 for s in per_sample for v in s.hausdorff_by_class.values() if v is None
    )
    if defined:
        report.aggregates["hausdorff"] = aggregate(defined)
    sens = [v for s in per_sample for v in s.sensitivity_by_class.values() if v is not None]
    spec = [v for s in per_sample for v in s.specificity_by_class.values() if v is not None]
    if sens:
        report.aggregates["sensitivity"] = aggregate(sens)
    if spec:
        report.aggregates["specificity"] = aggregate(spec)
    return report


def classification_report(predictions, truths, num_classes: int) -> MetricsReport:
    report = MetricsReport(task="classification", num_classes=num_classes)
    report.per_sample = list(zip(np.asarray(predictions).tolist(), np.asarray(truths).tolist()))
    correct = [1.0 if p == t else 0.0 for p, t in report.per_sample]
    report.aggregates["top1"] = aggregate(correct)
    return report


# ---------------------------------------------------------------------------
# CSV export (UTF-8, comma separated, header row, 6 significant digits)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def write_per_sample_csv(report: MetricsReport, path) -> None:
    """One row per (sample, class, metric)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "class", "metric", "value"])
        if report.task == "classification":
            for i, (pred, truth) in enumerate(report.per_sample):
                writer.writerow([i, "", "predicted", pred])
                writer.writerow([i, "", "top1", _fmt(1.0 if pred == truth else 0.0)])
            return
        for i, sm in enumerate(report.per_sample):
            for c in sorted(sm.dice_by_class):
                writer.writerow([i, c, "dice", _fmt(sm.dice_by_class[c])])
                writer.writerow([i, c, "hausdorff", _fmt(sm.hausdorff_by_class[c])])
                writer.writerow([i, c, "sensitivity", _fmt(sm.sensitivity_by_class[c])])
                writer.writerow([i, c, "specificity", _fmt(sm.specificity_by_class[c])])
