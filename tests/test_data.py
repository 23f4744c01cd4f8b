"""Phantom generator invariants and sample/dataset round trips."""

import numpy as np
import pytest

from taskdenoise.data import (
    CLASSIFICATION,
    SEGMENTATION,
    DatasetSpec,
    generate_dataset,
    load_dataset,
    load_sample,
    save_dataset,
    save_sample,
)
from taskdenoise.errors import FormatError, InvalidSpecError


def _seg_spec(**kw):
    base = dict(task=SEGMENTATION, height=64, width=64, num_classes=4, train_count=40, test_count=10, seed=5)
    base.update(kw)
    return DatasetSpec(**base)


def _cls_spec(**kw):
    base = dict(task=CLASSIFICATION, height=64, width=64, num_classes=3, train_count=30, test_count=9, seed=6)
    base.update(kw)
    return DatasetSpec(**base)


class TestSegmentationGenerator:
    def test_shapes_and_ranges(self):
        train, test = generate_dataset(_seg_spec())
        assert len(train) == 40 and len(test) == 10
        for s in train + test:
            assert s.image.shape == (1, 64, 64)
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 255.0
            assert s.label_map.shape == (64, 64)
            assert s.label_map.min() >= 0 and s.label_map.max() < 4

    def test_single_disk_marks_exactly_its_pixels(self):
        train, _ = generate_dataset(_seg_spec(num_classes=2, train_count=4, test_count=1))
        for s in train:
            labeled = s.label_map == 1
            assert labeled.sum() > 20  # a real structure exists
            # labeled pixels are bright relative to their complement
            inside = s.image.data[0][labeled].mean()
            outside = s.image.data[0][~labeled].mean()
            assert inside > outside + 20

    def test_every_class_appears_in_training_set(self):
        spec = _seg_spec(train_count=10 * 4)
        train, _ = generate_dataset(spec)
        seen = set()
        for s in train:
            seen.update(np.unique(s.label_map).tolist())
        assert seen == {0, 1, 2, 3}

    def test_deterministic(self):
        a_train, a_test = generate_dataset(_seg_spec())
        b_train, b_test = generate_dataset(_seg_spec())
        for sa, sb in zip(a_train + a_test, b_train + b_test):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert np.array_equal(sa.label_map, sb.label_map)

    def test_train_test_disjoint(self):
        train, test = generate_dataset(_seg_spec())
        train_bytes = {s.image.data.tobytes() for s in train}
        for s in test:
            assert s.image.data.tobytes() not in train_bytes

    def test_intensity_alone_cannot_separate_classes(self):
        # Bayes-optimal per-pixel intensity classifier (histogram over training
        # pixels) upper-bounds any threshold rule; its Dice must stay below 0.8
        spec = _seg_spec(train_count=60, test_count=20)
        train, test = generate_dataset(spec)
        k = spec.num_classes
        bins = np.arange(257)
        counts = np.zeros((k, 256))
        for s in train:
            intensities = s.image.data[0].ravel()
            labels = s.label_map.ravel()
            for c in range(k):
                counts[c] += np.histogram(intensities[labels == c], bins=bins)[0]
        best_class = counts.argmax(axis=0)
        from taskdenoise.metrics import dice

        scores = []
        for s in test:
            idx = np.clip(s.image.data[0].astype(np.int64), 0, 255)
            pred = best_class[idx]
            scores.extend(dice(pred, s.label_map, c) for c in range(1, k))
        assert float(np.mean(scores)) < 0.8


class TestClassificationGenerator:
    def test_shapes_and_classes(self):
        train, test = generate_dataset(_cls_spec())
        assert len(train) == 30 and len(test) == 9
        for s in train + test:
            assert s.image.shape == (1, 64, 64)
            assert s.class_index in (0, 1, 2)
            assert s.label_map is None

    def test_every_class_appears(self):
        train, _ = generate_dataset(_cls_spec(train_count=30))
        assert {s.class_index for s in train} == {0, 1, 2}

    def test_deterministic(self):
        a, _ = generate_dataset(_cls_spec())
        b, _ = generate_dataset(_cls_spec())
        for sa, sb in zip(a, b):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert sa.class_index == sb.class_index

    def test_global_mean_intensity_cannot_classify(self):
        # Bayes classifier on the global mean (histogram) must stay below 0.5
        spec = _cls_spec(train_count=120, test_count=60)
        train, test = generate_dataset(spec)
        means = np.array([s.image.data.mean() for s in train])
        labels = np.array([s.class_index for s in train])
        edges = np.linspace(means.min() - 1e-6, means.max() + 1e-6, 25)
        counts = np.zeros((3, len(edges) - 1))
        for c in range(3):
            counts[c] = np.histogram(means[labels == c], bins=edges)[0]
        best = counts.argmax(axis=0)
        correct = 0
        for s in test:
            bin_idx = np.clip(np.searchsorted(edges, s.image.data.mean()) - 1, 0, len(best) - 1)
            correct += int(best[bin_idx] == s.class_index)
        assert correct / len(test) < 0.5

    def test_more_than_three_classes_rejected(self):
        with pytest.raises(InvalidSpecError):
            _cls_spec(num_classes=5).validate()


class TestSampleIO:
    def test_segmentation_round_trip(self, tmp_path):
        train, _ = generate_dataset(_seg_spec(train_count=2, test_count=1))
        save_sample(train[0], tmp_path, "0000")
        back = load_sample(tmp_path, "0000")
        assert back.image.data.tobytes() == train[0].image.data.tobytes()
        assert np.array_equal(back.label_map, train[0].label_map)

    def test_classification_round_trip(self, tmp_path):
        train, _ = generate_dataset(_cls_spec(train_count=3, test_count=1))
        save_sample(train[1], tmp_path, "0001")
        back = load_sample(tmp_path, "0001")
        assert back.image.data.tobytes() == train[1].image.data.tobytes()
        assert back.class_index == train[1].class_index

    def test_missing_sample_raises(self, tmp_path):
        with pytest.raises(FormatError):
            load_sample(tmp_path, "0099")

    def test_dataset_round_trip(self, tmp_path):
        spec = _seg_spec(train_count=4, test_count=2)
        train, test = generate_dataset(spec)
        save_dataset(spec, train, test, tmp_path / "ds")
        spec2, train2, test2 = load_dataset(tmp_path / "ds")
        assert spec2 == spec
        for sa, sb in zip(train + test, train2 + test2):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert np.array_equal(sa.label_map, sb.label_map)

    def test_dataset_layout(self, tmp_path):
        spec = _cls_spec(train_count=2, test_count=1)
        train, test = generate_dataset(spec)
        save_dataset(spec, train, test, tmp_path / "ds")
        assert (tmp_path / "ds" / "manifest.json").is_file()
        assert (tmp_path / "ds" / "train" / "0000.img.tsr1").is_file()
        assert (tmp_path / "ds" / "train" / "0001.cls").is_file()
        assert (tmp_path / "ds" / "test" / "0000.img.tsr1").is_file()
