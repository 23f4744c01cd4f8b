"""Byte pins of the training curve (``loss.csv``) and of one DCT heatmap
(CSV and PGM), from fixed values, so no BLAS runs and the pins hold on
any numpy build."""

import hashlib
import math

import numpy as np

from taskdenoise.dct import export_heatmap
from taskdenoise.experiment import _save_trained
from taskdenoise.networks import NetworkSpec, build_network
from taskdenoise.schemes import TrainResult

# five epochs at checkpoint_cadence 2: epochs 1 and 3 are not validated,
# the last epoch always is
TRACE = [
    (1, 2.0 / 3.0, math.nan),
    (2, 1234567.0, 0.1),
    (3, 1e-5 / 3.0, math.nan),
    (4, 2.0, 100.0),
    (5, 0.5, 1.0 / 7.0),
]

LOSS_CSV = """\
epoch,train_loss,val_loss
1,0.666667,
2,1.23457e+06,0.1
3,3.33333e-06,
4,2,100
5,0.5,0.142857
"""


def test_loss_csv(tmp_path):
    model = build_network(NetworkSpec(kind="redcnn", base_channels=2, seed=3))
    _save_trained(model, TrainResult(trace=TRACE, best_epoch=5, best_val_loss=1.0 / 7.0), tmp_path / "ckpt")
    assert (tmp_path / "ckpt" / "loss.csv").read_bytes() == LOSS_CSV.replace("\n", "\r\n").encode()


def _grid() -> np.ndarray:
    grid = np.arange(64, dtype=np.float64).reshape(8, 8) / 7.0
    grid[0, 1] = 1e-7 / 3.0
    grid[7, 7] = 12.5
    return grid


def test_heatmap_csv_and_pgm(tmp_path):
    csv_path, pgm_path = export_heatmap(_grid(), tmp_path / "dct" / "grid")
    assert (csv_path.name, pgm_path.name) == ("grid.csv", "grid.pgm")
    text = csv_path.read_bytes()
    lines = text.decode().split("\r\n")
    assert lines[:4] == ["i,j,value", "0,0,0", "0,1,3.33333e-08", "0,2,0.285714"]
    assert lines[-3:] == ["7,6,8.85714", "7,7,12.5", ""]
    assert hashlib.sha256(text).hexdigest() == "f07d05fdae9baa34902d3cc2c0588d9ba2329cc1174b0837d2aa298bac5cdba2"
    raw = pgm_path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    # every value scaled so the peak is 255, then rounded
    assert list(raw[-64:]) == [int(v) for v in np.rint(_grid() / 12.5 * 255.0).ravel()]
    assert hashlib.sha256(raw).hexdigest() == "1fa67a01c3189a7ee254469284e1f9d32bbbf47791c7810d7562e4944c722ca0"
