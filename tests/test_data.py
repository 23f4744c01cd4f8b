"""Phantom generator invariants and sample/dataset round trips."""

import json

import numpy as np
import pytest

from taskdenoise.data import (
    CLASSIFICATION,
    SEGMENTATION,
    DatasetSpec,
    generate_dataset,
    load_dataset,
    load_dataset_spec,
    save_dataset,
)
from taskdenoise.errors import ConfigError, FormatError
from taskdenoise.tensorio import read_tensor, write_tensor


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
            assert s.target.shape == (64, 64) and s.target.dtype == np.int32
            assert s.target.min() >= 0 and s.target.max() < 4

    def test_single_disk_marks_exactly_its_pixels(self):
        train, _ = generate_dataset(_seg_spec(num_classes=2, train_count=4, test_count=1))
        for s in train:
            labeled = s.target == 1
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
            seen.update(np.unique(s.target).tolist())
        assert seen == {0, 1, 2, 3}

    def test_deterministic(self):
        a_train, a_test = generate_dataset(_seg_spec())
        b_train, b_test = generate_dataset(_seg_spec())
        for sa, sb in zip(a_train + a_test, b_train + b_test):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert np.array_equal(sa.target, sb.target)

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
            labels = s.target.ravel()
            for c in range(k):
                counts[c] += np.histogram(intensities[labels == c], bins=bins)[0]
        best_class = counts.argmax(axis=0)
        from taskdenoise.metrics import evaluate_segmentation_sample

        scores = []
        for s in test:
            idx = np.clip(s.image.data[0].astype(np.int64), 0, 255)
            pred = best_class[idx]
            scores.extend(v for _, m, v in evaluate_segmentation_sample(pred, s.target, k) if m == "dice")
        assert float(np.mean(scores)) < 0.8


class TestClassificationGenerator:
    def test_shapes_and_classes(self):
        train, test = generate_dataset(_cls_spec())
        assert len(train) == 30 and len(test) == 9
        for s in train + test:
            assert s.image.shape == (1, 64, 64)
            assert s.target.shape == () and s.target.dtype == np.int32
            assert int(s.target) in (0, 1, 2)

    def test_every_class_appears(self):
        train, _ = generate_dataset(_cls_spec(train_count=30))
        assert {int(s.target) for s in train} == {0, 1, 2}

    def test_deterministic(self):
        a, _ = generate_dataset(_cls_spec())
        b, _ = generate_dataset(_cls_spec())
        for sa, sb in zip(a, b):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
            assert sa.target == sb.target

    def test_global_mean_intensity_cannot_classify(self):
        # Bayes classifier on the global mean (histogram) must stay below 0.5
        spec = _cls_spec(train_count=120, test_count=60)
        train, test = generate_dataset(spec)
        means = np.array([s.image.data.mean() for s in train])
        labels = np.array([s.target for s in train])
        edges = np.linspace(means.min() - 1e-6, means.max() + 1e-6, 25)
        counts = np.zeros((3, len(edges) - 1))
        for c in range(3):
            counts[c] = np.histogram(means[labels == c], bins=edges)[0]
        best = counts.argmax(axis=0)
        correct = 0
        for s in test:
            bin_idx = np.clip(np.searchsorted(edges, s.image.data.mean()) - 1, 0, len(best) - 1)
            correct += int(best[bin_idx] == s.target)
        assert correct / len(test) < 0.5

    def test_more_than_three_classes_rejected(self):
        with pytest.raises(ConfigError):
            _cls_spec(num_classes=5)


def _assert_round_trip_exact(tmp_path, spec):
    train, test = generate_dataset(spec)
    save_dataset(spec, train, test, tmp_path / "ds")
    _, train2, test2 = load_dataset(tmp_path / "ds")
    assert len(train2) == len(train) and len(test2) == len(test)
    for sa, sb in zip(train + test, train2 + test2):
        assert sa.image.data.tobytes() == sb.image.data.tobytes()
        assert sb.target.dtype == np.int32 and sb.target.shape == sa.target.shape
        assert np.array_equal(sa.target, sb.target)


class TestSampleIO:
    def test_segmentation_round_trip(self, tmp_path):
        _assert_round_trip_exact(tmp_path, _seg_spec(train_count=3, test_count=2))

    def test_classification_round_trip(self, tmp_path):
        _assert_round_trip_exact(tmp_path, _cls_spec(train_count=4, test_count=2))

    def test_dataset_round_trip(self, tmp_path):
        spec = _cls_spec(train_count=3, test_count=2)
        save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        spec2, train, test = load_dataset(tmp_path / "ds")
        assert spec2 == spec and len(train) == 3 and len(test) == 2
        # only the splits named are read
        _, train, test = load_dataset(tmp_path / "ds", ("test",))
        assert train is None and len(test) == 2

    def test_dataset_layout(self, tmp_path):
        spec = _cls_spec(train_count=2, test_count=1)
        train, test = generate_dataset(spec)
        save_dataset(spec, train, test, tmp_path / "ds")
        names = sorted(p.relative_to(tmp_path / "ds").as_posix() for p in (tmp_path / "ds").rglob("*") if p.is_file())
        assert names == [
            "manifest.json",
            "test/0000.img.tsr1",
            "test/0000.lbl.tsr1",
            "train/0000.img.tsr1",
            "train/0000.lbl.tsr1",
            "train/0001.img.tsr1",
            "train/0001.lbl.tsr1",
        ]
        # a class index is a rank-0 tensor
        assert read_tensor(tmp_path / "ds" / "train" / "0001.lbl.tsr1").shape == ()

    def test_smaller_regeneration_leaves_only_its_own_files(self, tmp_path):
        for train_count, test_count in ((6, 4), (3, 2)):
            spec = _seg_spec(train_count=train_count, test_count=test_count)
            save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        names = sorted(p.relative_to(tmp_path / "ds").as_posix() for p in (tmp_path / "ds").rglob("*") if p.is_file())
        samples = [
            f"{split}/{i:04d}.{kind}.tsr1" for split, n in (("test", 2), ("train", 3)) for i in range(n) for kind in ("img", "lbl")
        ]
        assert names == ["manifest.json", *samples]

    def test_missing_sample_raises(self, tmp_path):
        spec = _seg_spec(train_count=2, test_count=1)
        save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        (tmp_path / "ds" / "train" / "0001.img.tsr1").unlink()
        with pytest.raises(FormatError, match="0001.img.tsr1"):
            load_dataset(tmp_path / "ds")

    def test_manifest_count_of_the_wrong_type_raises(self, tmp_path):
        # a float count used to reach range() and fail there with a TypeError
        spec = _seg_spec(height=16, width=16, train_count=3, test_count=1)
        save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["train_count"] = 3.0
        manifest.write_text(json.dumps(raw))
        with pytest.raises(FormatError, match="malformed manifest: train_count must be int, got 3.0$"):
            load_dataset_spec(tmp_path / "ds")

    def test_dataset_without_label_tensors_names_the_missing_file(self, tmp_path):
        # a classification dataset kept its class indices in text files before
        spec = _cls_spec(train_count=2, test_count=1)
        save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        (tmp_path / "ds" / "train" / "0000.lbl.tsr1").unlink()
        (tmp_path / "ds" / "train" / "0000.cls").write_text("0\n")
        with pytest.raises(FormatError, match=r"0000\.lbl\.tsr1"):
            load_dataset(tmp_path / "ds")


class TestSampleChecks:
    """Every sample read must match the manifest's extents, task and classes."""

    def _saved(self, tmp_path, spec):
        save_dataset(spec, *generate_dataset(spec), tmp_path / "ds")
        return tmp_path / "ds"

    @pytest.mark.parametrize("value", [3.0, -1.0, 1.5, float("nan")])
    def test_class_index_outside_the_classes_raises(self, tmp_path, value):
        ds = self._saved(tmp_path, _cls_spec(train_count=2, test_count=1))
        write_tensor(ds / "test" / "0000.lbl.tsr1", np.asarray(value, dtype=np.float32))
        # a NaN is rejected as the file is read, before it is checked as a target
        reason = "target" if value == value else "non-finite value"
        with pytest.raises(FormatError, match=rf"test/0000\.lbl\.tsr1: byte 5: {reason}") as err:
            load_dataset(ds)
        assert "\n" not in str(err.value)

    def test_fractional_label_in_a_map_names_its_byte(self, tmp_path):
        ds = self._saved(tmp_path, _seg_spec(height=16, width=16, train_count=2, test_count=1))
        labels = read_tensor(ds / "train" / "0001.lbl.tsr1")
        labels[2, 3] = 0.5
        write_tensor(ds / "train" / "0001.lbl.tsr1", labels)
        offset = 5 + 4 * 2 + 4 * (2 * 16 + 3)
        with pytest.raises(FormatError, match=f"0001\\.lbl\\.tsr1: byte {offset}: target 0.5"):
            load_dataset(ds)

    @pytest.mark.parametrize("make_spec, shape", [(_seg_spec, (16, 15)), (_seg_spec, ()), (_cls_spec, (16, 16))])
    def test_target_of_wrong_shape_raises(self, tmp_path, make_spec, shape):
        ds = self._saved(tmp_path, make_spec(height=16, width=16, train_count=2, test_count=1))
        write_tensor(ds / "test" / "0000.lbl.tsr1", np.zeros(shape, np.float32))
        with pytest.raises(FormatError, match=r"0000\.lbl\.tsr1: byte 5: shape"):
            load_dataset(ds)

    @pytest.mark.parametrize("shape", [(1, 16, 15), (16, 16), (2, 16, 16)])
    def test_image_of_wrong_extent_raises(self, tmp_path, shape):
        ds = self._saved(tmp_path, _seg_spec(height=16, width=16, train_count=2, test_count=1))
        write_tensor(ds / "train" / "0001.img.tsr1", np.zeros(shape, np.float32))
        with pytest.raises(FormatError, match=r"0001\.img\.tsr1: byte 5: shape"):
            load_dataset(ds)
