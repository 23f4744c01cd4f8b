"""Byte pin of the scoring path, from fixed logits to the per-sample CSV.

The application is a stub whose forward hands each image back as its
logits, so no BLAS runs and the pinned text holds on any numpy build
(``test_golden_digest.py`` skips on builds other than the recorded one).
"""

import numpy as np

from conftest import LogitsStub
from taskdenoise.autodiff import Tensor
from taskdenoise.data import Sample
from taskdenoise.metrics import write_compare_csv, write_per_sample_csv
from taskdenoise.schemes import evaluate_scheme


def _one_hot(label_map: np.ndarray, num_classes: int) -> Tensor:
    return Tensor(np.stack([label_map == c for c in range(num_classes)]).astype(np.float32))


# (truth, prediction) per sample. Sample 0 lacks class 2 on both sides
# (Dice 1, Hausdorff undefined); sample 1 has no class with both sides
# present, so no Hausdorff at all; sample 2 misses one class-2 pixel.
SEG = [
    (
        [[0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
    ),
    (
        [[2, 2, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
    ),
    (
        [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]],
        [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 0]],
    ),
]

SEG_CSV = """\
sample,class,metric,value
0,1,dice,0.727273
0,1,hausdorff,2.23607
0,1,sensitivity,1
0,1,specificity,0.75
0,2,dice,1
0,2,hausdorff,
0,2,sensitivity,
0,2,specificity,1
1,1,dice,0
1,1,hausdorff,
1,1,sensitivity,
1,1,specificity,0.75
1,2,dice,0
1,2,hausdorff,
1,2,sensitivity,0
1,2,specificity,1
2,1,dice,1
2,1,hausdorff,0
2,1,sensitivity,1
2,1,specificity,1
2,2,dice,0.857143
2,2,hausdorff,1
2,2,sensitivity,0.75
2,2,specificity,1
"""

# mean Dice and mean defined Hausdorff per sample first (sample 1 has none),
# sensitivity and specificity over every defined value
SEG_AGGREGATES = {
    "dice": (0.5974025974025974, 0.42325842240256145),
    "hausdorff": (1.368033988749895, 0.8680339887498949),
    "sensitivity": (0.6875, 0.409839907768875),
    "specificity": (0.9166666666666666, 0.11785113019775792),
}

# (truth, logits) per sample: three of five correct
CLS = [(0, [2.0, 1.0, 0.0]), (1, [0.0, 0.5, 1.5]), (2, [0.0, 0.0, 3.0]), (0, [0.1, 0.2, 0.0]), (1, [-1.0, 4.0, 0.0])]

CLS_CSV = """\
sample,class,metric,value
0,,predicted,0
0,,top1,1
1,,predicted,2
1,,top1,0
2,,predicted,2
2,,top1,1
3,,predicted,1
3,,top1,0
4,,predicted,1
4,,top1,1
"""

COMPARE_CSV = """\
scheme,test_noise,dice_mean,dice_sd,hausdorff_mean,hausdorff_sd,sensitivity_mean,sensitivity_sd,\
specificity_mean,specificity_sd,top1_mean,top1_sd,hausdorff_undefined
tc,gaussian_s40,0.597403,0.423258,1.36803,0.868034,0.6875,0.40984,0.916667,0.117851,,,3
hv,poisson_p0.1,,,,,,,,,0.6,0.489898,0
"""


def _score(samples, images, num_classes, tmp_path) -> tuple:
    report = evaluate_scheme(LogitsStub(num_classes), samples, images)
    path = tmp_path / "m.csv"
    write_per_sample_csv(report, path)
    return report, path.read_bytes()


def _seg_inputs() -> tuple:
    samples = [Sample(Tensor(np.zeros((1, 4, 4))), np.array(t, np.int32)) for t, _ in SEG]
    return samples, [_one_hot(np.array(p), 3) for _, p in SEG]


def _cls_inputs() -> tuple:
    samples = [Sample(Tensor(np.zeros((1, 4, 4))), np.asarray(t, np.int32)) for t, _ in CLS]
    return samples, [Tensor(np.array(logits)) for _, logits in CLS]


def test_segmentation_csv_and_aggregates(tmp_path):
    report, text = _score(*_seg_inputs(), 3, tmp_path)
    assert text == SEG_CSV.replace("\n", "\r\n").encode()
    assert report.aggregates == SEG_AGGREGATES
    assert report.hausdorff_undefined == 3
    assert {row[0] for row in report.rows} == {0, 1, 2}


def test_classification_csv_and_aggregates(tmp_path):
    report, text = _score(*_cls_inputs(), 3, tmp_path)
    assert text == CLS_CSV.replace("\n", "\r\n").encode()
    assert report.aggregates == {"top1": (0.6, 0.48989794855663565)}
    assert report.hausdorff_undefined == 0
    assert {row[0] for row in report.rows} == {0, 1, 2, 3, 4}


def test_compare_csv(tmp_path):
    seg, _ = _score(*_seg_inputs(), 3, tmp_path)
    cls, _ = _score(*_cls_inputs(), 3, tmp_path)
    path = tmp_path / "compare.csv"
    # a metric a row lacks is left empty
    write_compare_csv([("tc", "gaussian_s40", seg), ("hv", "poisson_p0.1", cls)], path)
    assert path.read_bytes() == COMPARE_CSV.replace("\n", "\r\n").encode()
