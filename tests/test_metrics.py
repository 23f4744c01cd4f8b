"""Metric oracles: exhaustive pixel counting and brute-force Hausdorff."""

import math
import tracemalloc

import numpy as np
import pytest

from taskdenoise import metrics
from taskdenoise.autodiff import Tensor
from taskdenoise.data import Sample
from taskdenoise.errors import InvalidShapeError
from taskdenoise.metrics import (
    aggregate,
    boundary_pixels,
    evaluate_segmentation_sample,
    hausdorff,
    report,
    write_per_sample_csv,
)
from taskdenoise.schemes import evaluate_scheme


def brute_force_boundary(mask):
    """Independent loop oracle: 4-neighbor or image-edge boundary pixels."""
    points = []
    m, n = mask.shape
    for i in range(m):
        for j in range(n):
            if not mask[i, j]:
                continue
            if i in (0, m - 1) or j in (0, n - 1):
                points.append((i, j))
                continue
            if not (mask[i - 1, j] and mask[i + 1, j] and mask[i, j - 1] and mask[i, j + 1]):
                points.append((i, j))
    return points


def brute_force_hausdorff(a, b):
    a = brute_force_boundary(np.asarray(a, dtype=bool))
    b = brute_force_boundary(np.asarray(b, dtype=bool))
    if not a or not b:
        return None

    def directed(src, dst):
        return max(min(math.dist(p, q) for q in dst) for p in src)

    return max(directed(a, b), directed(b, a))


def pairwise_hausdorff(a, b):
    """The full [|A|, |B|] squared-distance matrix formula, in one piece."""
    pa = boundary_pixels(a).astype(np.float64)
    pb = boundary_pixels(b).astype(np.float64)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return float(max(np.sqrt(d2.min(axis=1)).max(), np.sqrt(d2.min(axis=0)).max()))


def confusion_rows(pred, truth, num_classes):
    """Independent oracle: the scorer's rows from a confusion matrix counted
    pixel by pixel, Hausdorff left out."""
    rows = []
    for c in range(1, num_classes):
        tp = fp = fn = tn = 0
        for p, t in zip(np.ravel(pred).tolist(), np.ravel(truth).tolist()):
            if p == c and t == c:
                tp += 1
            elif p == c:
                fp += 1
            elif t == c:
                fn += 1
            else:
                tn += 1
        rows += [
            (c, "dice", 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0),
            (c, "sensitivity", tp / (tp + fn) if tp + fn else None),
            (c, "specificity", tn / (tn + fp) if tn + fp else None),
        ]
    return rows


def _value(pred, truth, class_id, metric):
    """One value of the scorer's rows of a single label-map pair."""
    num_classes = max(class_id, int(np.max(pred)), int(np.max(truth))) + 1
    values = {(c, m): v for c, m, v in evaluate_segmentation_sample(pred, truth, num_classes)}
    return values[class_id, metric]


class TestDice:
    def test_identity_is_one(self):
        lab = np.array([[0, 1], [1, 2]])
        assert _value(lab, lab, 1, "dice") == 1.0

    def test_disjoint_is_zero(self):
        pred = np.array([[1, 1], [0, 0]])
        truth = np.array([[0, 0], [1, 1]])
        assert _value(pred, truth, 1, "dice") == 0.0

    def test_counting_oracle(self):
        # |A|=6, |B|=4, |A^B|=3 -> 0.6
        pred = np.zeros((4, 4), int)
        truth = np.zeros((4, 4), int)
        pred.ravel()[[0, 1, 2, 3, 4, 5]] = 1
        truth.ravel()[[3, 4, 5, 9]] = 1
        assert _value(pred, truth, 1, "dice") == pytest.approx(0.6)

    def test_both_empty_is_one(self):
        assert _value(np.zeros((3, 3), int), np.zeros((3, 3), int), 2, "dice") == 1.0

    def test_one_empty_is_zero(self):
        pred = np.zeros((3, 3), int)
        truth = np.zeros((3, 3), int)
        truth[1, 1] = 1
        assert _value(pred, truth, 1, "dice") == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 3, size=(6, 6))
            b = rng.integers(0, 3, size=(6, 6))
            assert _value(a, b, 1, "dice") == _value(b, a, 1, "dice")

    def test_extent_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            evaluate_segmentation_sample(np.zeros((2, 2), int), np.zeros((2, 3), int), 2)
        with pytest.raises(InvalidShapeError):
            hausdorff(np.ones((2, 2), bool), np.ones((3, 2), bool))


class TestScorerRows:
    @pytest.mark.parametrize("case", ["random", "absent_class", "all_class_truth", "empty_prediction"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_counted_confusion_matrix(self, case, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 12, size=2)
        k = int(rng.integers(2, 5))
        pred = rng.integers(0, k, size=(m, n))
        truth = rng.integers(0, k, size=(m, n))
        if case == "absent_class":  # class k-1 is in neither map
            pred, truth = pred % (k - 1), truth % (k - 1)
        elif case == "all_class_truth":
            truth = np.full((m, n), k - 1)
        elif case == "empty_prediction":
            pred = np.zeros((m, n), int)
        rows = evaluate_segmentation_sample(pred, truth, k)
        assert [row for row in rows if row[1] != "hausdorff"] == confusion_rows(pred, truth, k)
        for c, metric, value in rows:
            if metric == "hausdorff":
                expected = brute_force_hausdorff(pred == c, truth == c)
                assert (value is None) == (expected is None)
                if value is not None:
                    assert value == pytest.approx(expected, abs=1e-9)


class TestHausdorff:
    def test_identity_is_zero(self):
        mask = np.zeros((5, 5), bool)
        mask[1:4, 1:4] = True
        assert hausdorff(mask, mask) == 0.0

    def test_single_points_345(self):
        a = np.zeros((5, 6), bool)
        b = np.zeros((5, 6), bool)
        a[0, 0] = True
        b[3, 4] = True
        assert hausdorff(a, b) == pytest.approx(5.0)

    def test_empty_side_is_undefined(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        b[1, 1] = True
        assert hausdorff(a, b) is None
        assert hausdorff(b, a) is None

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_on_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(3, 13), rng.integers(3, 13)
        a = rng.random((m, n)) < 0.35
        b = rng.random((m, n)) < 0.35
        expected = brute_force_hausdorff(a, b)
        actual = hausdorff(a, b)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("block_bytes", [1, 4096, metrics._HAUSDORFF_BLOCK_BYTES])
    def test_blocks_equal_the_pairwise_formula(self, monkeypatch, block_bytes):
        monkeypatch.setattr(metrics, "_HAUSDORFF_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(11)
        for shape, density in [((64, 64), 0.5), ((20, 37), 0.1), ((1, 9), 0.5), ((40, 40), 0.9)]:
            a = rng.random(shape) < density
            b = rng.random(shape) < density
            if a.any() and b.any():
                assert hausdorff(a, b) == pairwise_hausdorff(a, b)

    def test_memory_is_bounded_on_speckle(self):
        # two 50% speckle masks, boundaries of 1,936 and 1,871 pixels: the
        # full distance matrix peaks at 83 MiB
        rng = np.random.default_rng(1)
        a = rng.random((64, 64)) < 0.5
        b = rng.random((64, 64)) < 0.5
        tracemalloc.start()
        try:
            value = hausdorff(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pairwise_hausdorff(a, b)
        assert peak < 8 * 2**20

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.random((8, 8)) < 0.4
            b = rng.random((8, 8)) < 0.4
            ha, hb = hausdorff(a, b), hausdorff(b, a)
            assert (ha is None) == (hb is None)
            if ha is not None:
                assert ha == pytest.approx(hb)

    def test_boundary_includes_image_edge(self):
        mask = np.ones((3, 3), bool)
        pts = {tuple(p) for p in boundary_pixels(mask)}
        assert (1, 1) not in pts
        assert len(pts) == 8

    def test_interior_is_not_boundary(self):
        mask = np.zeros((5, 5), bool)
        mask[1:4, 1:4] = True
        pts = {tuple(p) for p in boundary_pixels(mask)}
        assert (2, 2) not in pts
        assert len(pts) == 8


class TestSensitivitySpecificity:
    def test_perfect_prediction(self):
        lab = np.array([[1, 0], [0, 1]])
        assert _value(lab, lab, 1, "sensitivity") == 1.0
        assert _value(lab, lab, 1, "specificity") == 1.0

    def test_all_background_prediction(self):
        pred = np.zeros((2, 2), int)
        truth = np.array([[1, 0], [0, 1]])
        assert _value(pred, truth, 1, "sensitivity") == 0.0
        assert _value(pred, truth, 1, "specificity") == 1.0

    def test_hand_built_confusion_counts(self):
        pred = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]])
        truth = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        tp = int(((pred == 1) & (truth == 1)).sum())
        fn = int(((pred != 1) & (truth == 1)).sum())
        tn = int(((pred != 1) & (truth != 1)).sum())
        fp = int(((pred == 1) & (truth != 1)).sum())
        assert _value(pred, truth, 1, "sensitivity") == pytest.approx(tp / (tp + fn))
        assert _value(pred, truth, 1, "specificity") == pytest.approx(tn / (tn + fp))

    def test_absent_class_undefined(self):
        assert _value(np.zeros((2, 2), int), np.zeros((2, 2), int), 1, "sensitivity") is None


def _classification_report(predictions, truths):
    """Report of scoring one-hot logits of the predictions against the truths."""
    samples = [Sample(Tensor(np.zeros((1, 2, 2))), np.asarray(t, np.int32)) for t in truths]
    return evaluate_scheme(samples, np.eye(3, dtype=np.float32)[predictions])


def _top1(predictions, truths) -> float:
    return _classification_report(predictions, truths).aggregates["top1"][0]


class TestTop1:
    def test_all_correct(self):
        assert _top1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        assert _top1([1, 2, 0], [0, 1, 2]) == 0.0

    def test_three_of_four(self):
        assert _top1([0, 1, 2, 2], [0, 1, 2, 0]) == 0.75


class TestAggregate:
    def test_constant_vector_sd_zero(self):
        assert aggregate([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_zero_one_closed_form(self):
        mean, sd = aggregate([0.0, 1.0])
        assert mean == 0.5 and sd == 0.5

    def test_single_value_sd_zero(self):
        assert aggregate([3.25]) == (3.25, 0.0)

    def test_population_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        mean, sd = aggregate(values)
        assert mean == 2.5
        assert sd == pytest.approx(np.sqrt(np.mean((np.asarray(values) - 2.5) ** 2)))


class TestReportsAndCsv:
    def _sample_rows(self, index=0):
        pred = np.array([[1, 1, 0], [0, 2, 2], [0, 0, 0]])
        truth = np.array([[1, 0, 0], [0, 2, 2], [0, 0, 0]])
        return [(index, *row) for row in evaluate_segmentation_sample(pred, truth, num_classes=3)]

    def test_sample_metrics_fields(self):
        rows = self._sample_rows()
        metrics = ["dice", "hausdorff", "sensitivity", "specificity"]
        assert [(c, m) for _, c, m, _ in rows] == [(c, m) for c in (1, 2) for m in metrics]
        values = {(c, m): v for _, c, m, v in rows}
        assert values[2, "dice"] == 1.0
        assert values[1, "dice"] == pytest.approx(2 / 3)

    def test_segmentation_report_aggregates(self):
        r = report([row for i in range(3) for row in self._sample_rows(i)])
        assert {row[0] for row in r.rows} == {0, 1, 2}
        mean, sd = r.aggregates["dice"]
        assert sd == pytest.approx(0.0, abs=1e-12)
        assert mean == pytest.approx((2 / 3 + 1.0) / 2)  # classes averaged first

    def test_undefined_hausdorff_counted(self):
        pred = np.zeros((3, 3), int)
        truth = np.zeros((3, 3), int)
        truth[0, 0] = 1
        r = report([(0, *row) for row in evaluate_segmentation_sample(pred, truth, 2)])
        assert r.hausdorff_undefined == 1
        assert "hausdorff" not in r.aggregates

    def test_classification_report(self):
        r = _classification_report([0, 1, 2, 0], [0, 1, 1, 0])
        assert set(r.aggregates) == {"top1"}  # the predicted class is not aggregated
        assert r.aggregates["top1"][0] == pytest.approx(0.75)
        assert {row[0] for row in r.rows} == {0, 1, 2, 3}

    def test_per_sample_csv_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_per_sample_csv(report(self._sample_rows()), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample,class,metric,value"
        assert len(lines) == 1 + 2 * 4  # two classes x four metrics

    def test_csv_six_significant_digits(self, tmp_path):
        r = _classification_report([0, 1, 1], [0, 1, 0])
        path = tmp_path / "c.csv"
        write_per_sample_csv(r, path)
        assert "0.666667" not in path.read_text()  # values are 0/1 exactly
        mean, _ = r.aggregates["top1"]
        assert f"{mean:.6g}" == "0.666667"
