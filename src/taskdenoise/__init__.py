"""Task-guided image denoising experiments.

A denoising network can be trained two ways: against clean pixels (the
usual route) or through the loss of the downstream segmentation or
classification network it feeds. This package implements both, plus the
no-denoising baselines, on deterministic synthetic phantom data, with an
8x8 block-DCT toolkit for comparing what each kind of denoiser keeps.
"""

__version__ = "0.1.0"
