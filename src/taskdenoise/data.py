"""Deterministic synthetic phantom datasets with exact labels.

Images are [0, 255] float32 grids containing smooth-edged geometric
structures (filled ellipses, annuli, striped ellipses) on a textured
background. Structure intensity ranges overlap across classes on purpose:
pixel intensity alone cannot separate classes, shape and texture can.

A sample's target is one int32 array: a per-pixel label map
(0 = background) for segmentation, or a 0-d class index for classification,
encoded in structure morphology (compact blob / multiple foci / ring), not
in global intensity statistics.

A saved dataset holds ``<split>/<i>.img.tsr1`` (the [1, H, W] image) and
``<split>/<i>.lbl.tsr1`` (the target: [H, W], or rank 0 for a class index)
for both tasks, and ``manifest.json``, written last. Saving replaces each
split directory whole, so a regenerated dataset holds only its own samples.
Reading checks every sample against the manifest.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, FormatError
from .rng import Rng, derive_seed
from .tensorio import read_tensor, write_tensor

SEGMENTATION = "segmentation"
CLASSIFICATION = "classification"
# a saved dataset's split directories
SPLITS = ("train", "test")

_ARCH_FILLED, _ARCH_ANNULUS, _ARCH_STRIPED = 0, 1, 2


@dataclass(frozen=True)
class DatasetSpec:
    task: str = SEGMENTATION
    height: int = 64
    width: int = 64
    num_classes: int = 4
    train_count: int = 200
    test_count: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in (SEGMENTATION, CLASSIFICATION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.task == CLASSIFICATION and self.num_classes > 3:
            raise ConfigError("classification morphologies are defined for 2 or 3 classes")
        if self.height < 16 or self.width < 16:
            raise ConfigError("extents must be >= 16")
        if self.train_count < 1 or self.test_count < 1:
            raise ConfigError("train_count and test_count must be >= 1")


@dataclass
class Sample:
    """One [1, H, W] image and its int32 target: an [H, W] label map
    (segmentation) or a 0-d class index (classification)."""

    image: Tensor
    target: np.ndarray


@dataclass
class _Structure:
    cy: float
    cx: float
    ra: float  # radius along the rotated y axis
    rb: float
    angle: float

    @property
    def rmax(self) -> float:
        return max(self.ra, self.rb)

    def radius_field(self, m: int, n: int) -> np.ndarray:
        """Normalized elliptical radius per pixel (1.0 on the boundary)."""
        yy, xx = np.ogrid[0:m, 0:n]
        dy = yy - self.cy
        dx = xx - self.cx
        c, s = math.cos(self.angle), math.sin(self.angle)
        u = (c * dy + s * dx) / self.ra
        v = (-s * dy + c * dx) / self.rb
        return np.sqrt(u * u + v * v)


_EDGE_WIDTH = 2.5  # px, soft intensity falloff at structure boundaries


def _soft_inside(dist_px: np.ndarray) -> np.ndarray:
    """Blend weight from a signed pixel distance (positive inside)."""
    return np.clip(0.5 + dist_px / _EDGE_WIDTH, 0.0, 1.0)


def _background(rng: Rng, m: int, n: int) -> np.ndarray:
    base = 25.0 + 30.0 * float(rng.uniform(1)[0])
    yy, xx = np.ogrid[0:m, 0:n]
    field = np.full((m, n), base, dtype=np.float64)
    for _ in range(2):
        amp = 4.0 + 5.0 * float(rng.uniform(1)[0])
        wavelength = 20.0 + 30.0 * float(rng.uniform(1)[0])
        theta = 2.0 * math.pi * float(rng.uniform(1)[0])
        phase = 2.0 * math.pi * float(rng.uniform(1)[0])
        k = 2.0 * math.pi / wavelength
        field = field + amp * np.sin(k * (math.cos(theta) * yy + math.sin(theta) * xx) + phase)
    field = field + rng.gaussian(m * n, 3.0).reshape(m, n)
    return field


def _place(rng: Rng, m: int, n: int, placed: list[_Structure], rmax: float) -> _Structure | None:
    for _ in range(50):
        margin = rmax + 2.0
        cy = margin + (m - 2 * margin) * float(rng.uniform(1)[0])
        cx = margin + (n - 2 * margin) * float(rng.uniform(1)[0])
        if all(math.hypot(cy - p.cy, cx - p.cx) >= rmax + p.rmax + 3.0 for p in placed):
            ecc = 1.0 + 1.0 * float(rng.uniform(1)[0])
            rb = rmax / ecc
            angle = math.pi * float(rng.uniform(1)[0])
            return _Structure(cy, cx, rmax, rb, angle)
    return None


def _intensity_range(class_id: int) -> tuple[float, float]:
    lo = 80.0 + 25.0 * ((class_id - 1) % 6)
    return lo, lo + 90.0


def _blend(rng: Rng, image: np.ndarray, struct: _Structure, fill, archetype: int) -> np.ndarray:
    """Blend ``fill`` into ``image`` over the structure's soft-edged shape and
    return the shape's hard mask. An annulus draws its inner radius here,
    after every draw the caller made for ``fill``."""
    r = struct.radius_field(*image.shape)
    rmin = min(struct.ra, struct.rb)
    weight = _soft_inside((1.0 - r) * rmin)
    member = r <= 1.0
    if archetype == _ARCH_ANNULUS:
        q = 0.45 + 0.15 * float(rng.uniform(1)[0])
        weight = np.minimum(weight, _soft_inside((r - q) * rmin))
        member &= r >= q
    np.copyto(image, image * (1.0 - weight) + fill * weight)
    return member


def _render_structure(
    rng: Rng, image: np.ndarray, labels: np.ndarray, struct: _Structure, class_id: int, archetype: int
) -> None:
    m, n = image.shape
    lo, hi = _intensity_range(class_id)
    value = lo + (hi - lo) * float(rng.uniform(1)[0])
    fill = np.full((m, n), value, dtype=np.float64)
    if archetype == _ARCH_STRIPED:
        period = 4.0 + 3.0 * float(rng.uniform(1)[0])
        theta = math.pi * float(rng.uniform(1)[0])
        phase = 2.0 * math.pi * float(rng.uniform(1)[0])
        yy, xx = np.ogrid[0:m, 0:n]
        k = 2.0 * math.pi / period
        fill = fill + 30.0 * np.sin(k * (math.cos(theta) * yy + math.sin(theta) * xx) + phase)
    labels[_blend(rng, image, struct, fill, archetype)] = class_id


def _segmentation_sample(spec: DatasetSpec, rng: Rng, force_class: int) -> Sample:
    m, n = spec.height, spec.width
    k = spec.num_classes
    image = _background(rng, m, n)
    labels = np.zeros((m, n), dtype=np.int32)
    count = 1 + int(rng.uniform(1)[0] * (k - 1))
    placed: list[_Structure] = []
    scale = min(m, n)
    for j in range(count):
        class_id = force_class if j == 0 else 1 + int(rng.uniform(1)[0] * (k - 1))
        rmax = (0.09 + 0.10 * float(rng.uniform(1)[0])) * scale
        struct = _place(rng, m, n, placed, rmax)
        if struct is None:
            continue
        placed.append(struct)
        _render_structure(rng, image, labels, struct, class_id, (class_id - 1) % 3)
    image = np.clip(image, 0.0, 255.0)
    return Sample(Tensor(image[None].astype(np.float32)), labels)


def _classification_sample(spec: DatasetSpec, rng: Rng, class_id: int) -> Sample:
    """Class 0 is one compact blob, class 1 two or three elongated foci of
    the same total area, class 2 one ring whose annular area (area factor
    1 - 0.5**2) matches the blob's."""
    m, n = spec.height, spec.width
    image = _background(rng, m, n)
    scale = (min(m, n) / 64.0) ** 2
    total_area = (120.0 + 140.0 * float(rng.uniform(1)[0])) * scale
    placed: list[_Structure] = []
    value = 100.0 + 100.0 * float(rng.uniform(1)[0])
    foci = 2 + int(rng.uniform(1)[0] * 2) if class_id == 1 else 1
    ring = 0.75 if class_id == 2 else 1.0
    for _ in range(foci):
        u = float(rng.uniform(1)[0])
        ecc = 1.2 + 1.0 * u if class_id == 1 else 1.0 + 0.3 * u
        rb = math.sqrt(total_area / foci / (math.pi * ecc * ring))
        struct = _place(rng, m, n, placed, ecc * rb)
        if struct is None:
            continue
        struct.rb = rb
        placed.append(struct)
        _blend(rng, image, struct, value, _ARCH_ANNULUS if class_id == 2 else _ARCH_FILLED)
    image = np.clip(image, 0.0, 255.0)
    return Sample(Tensor(image[None].astype(np.float32)), np.asarray(class_id, dtype=np.int32))


def _generate_split(spec: DatasetSpec, split: str, count: int) -> list[Sample]:
    samples = []
    k = spec.num_classes
    for i in range(count):
        rng = Rng(derive_seed(spec.seed, f"{split}/{i}"))
        if spec.task == SEGMENTATION:
            samples.append(_segmentation_sample(spec, rng, force_class=1 + i % (k - 1)))
        else:
            samples.append(_classification_sample(spec, rng, class_id=i % k))
    return samples


def generate_dataset(spec: DatasetSpec) -> tuple[list[Sample], list[Sample]]:
    return _generate_split(spec, "train", spec.train_count), _generate_split(spec, "test", spec.test_count)


# ---------------------------------------------------------------------------
# Dataset I/O


def save_dataset(spec: DatasetSpec, train: list[Sample], test: list[Sample], directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    for split, samples in zip(SPLITS, (train, test)):
        split_dir = directory / split
        if split_dir.exists():  # a regenerated split holds only its own samples
            shutil.rmtree(split_dir)
        split_dir.mkdir()
        for i, sample in enumerate(samples):
            write_tensor(split_dir / f"{i:04d}.img.tsr1", sample.image.data)
            write_tensor(split_dir / f"{i:04d}.lbl.tsr1", sample.target)
    # last: only a complete dataset has a manifest
    (directory / "manifest.json").write_text(json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n")


def load_dataset_spec(directory) -> DatasetSpec:
    """The spec in a saved dataset's manifest; reads no sample."""
    manifest = Path(directory) / "manifest.json"
    if not manifest.is_file():
        raise FormatError(manifest, 0, "missing dataset manifest")
    try:
        return DatasetSpec(**json.loads(manifest.read_text()))
    except (TypeError, ValueError, ConfigError) as exc:
        raise FormatError(manifest, 0, f"malformed manifest: {exc}") from exc


def _read_checked(path: Path, shape: tuple) -> np.ndarray:
    data = read_tensor(path)
    if data.shape != shape:
        raise FormatError(path, 5, f"shape {data.shape} does not match the manifest's {shape}")
    return data


def load_dataset(directory, splits: tuple = SPLITS) -> tuple[DatasetSpec, list[Sample] | None, list[Sample] | None]:
    """(spec, train, test) of a saved dataset. Only the ``splits`` named
    are read; a split not named comes back as None. Every image must be
    [1, H, W] and every target [H, W] or 0-d (by task) with integer values
    in [0, num_classes); anything else is a FormatError naming the file."""
    directory = Path(directory)
    spec = load_dataset_spec(directory)
    counts = {"train": spec.train_count, "test": spec.test_count}
    target_shape = (spec.height, spec.width) if spec.task == SEGMENTATION else ()
    loaded = {}
    for split in splits:
        loaded[split] = []
        for i in range(counts[split]):
            image = _read_checked(directory / split / f"{i:04d}.img.tsr1", (1, spec.height, spec.width))
            lbl_path = directory / split / f"{i:04d}.lbl.tsr1"
            target = _read_checked(lbl_path, target_shape)
            bad = np.flatnonzero((target != np.rint(target)) | (target < 0) | (target >= spec.num_classes))
            if bad.size:  # name the byte of the first bad value
                at, value = 5 + 4 * target.ndim + 4 * int(bad[0]), target.flat[bad[0]]
                raise FormatError(lbl_path, at, f"target {value} is not a class index in [0, {spec.num_classes})")
            loaded[split].append(Sample(Tensor(image), target.astype(np.int32)))
    return spec, loaded.get("train"), loaded.get("test")
