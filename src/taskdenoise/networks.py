"""Constructors for the four network recipes at configurable width.

Two denoisers (residual encoder-decoder, residual conv stack with batch
norm), a U-Net style segmentation network, and a small classification CNN,
all expressed over the autodiff op set. Convolutions are 3x3 unless a layer
is a 1x1 projection or the U-Net's 2x2 stride-2 upsampling; each op's
padding follows from its kernel. Widths default to desk scale.

Every layer is one ``_Layer``: an autodiff op with its tensors, declared by
shape. ``build_network`` draws a fresh network's values from the spec seed
and each tensor's checkpoint name; ``load_checkpoint`` reads a saved one's
from its files. A checkpoint holds one TSR1 file per ``Model.named_state()``
tensor: the parameters, then the batchnorm running statistics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, InvalidShapeError
from .optim import xavier_uniform_init
from .rng import derive_seed
from .tensorio import read_tensor, write_tensor

REDCNN = "redcnn"
MCDNCNN = "mcdncnn"
NONEWNET2D = "nonewnet2d"
CCNN = "ccnn"

DENOISER_KINDS = (REDCNN, MCDNCNN)
APPLICATION_KINDS = (NONEWNET2D, CCNN)
ALL_KINDS = DENOISER_KINDS + APPLICATION_KINDS


@dataclass(frozen=True)
class NetworkSpec:
    """Everything needed to rebuild a network bit-identically. The input
    extents must fit the kind's downsampling: ccnn pools four times and the
    U-Net ``depth`` times."""

    kind: str
    base_channels: int = 8
    num_classes: int = 2
    height: int = 64
    width: int = 64
    seed: int = 0
    depth: int = 3  # encoder stages; used by the U-Net kind only
    input_residual: bool = False  # redcnn variant: add the input to the output

    def __post_init__(self) -> None:
        for f in fields(self):
            if type(getattr(self, f.name)).__name__ != f.type:
                raise ConfigError(f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}")
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown network kind {self.kind!r}; expected one of {ALL_KINDS}")
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        if self.kind in APPLICATION_KINDS and self.num_classes < 2:
            raise ConfigError(f"{self.kind} requires num_classes >= 2")
        if self.kind == NONEWNET2D and self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.height < 1 or self.width < 1:
            raise ConfigError("input extents must be positive")
        factor = 16 if self.kind == CCNN else 2**self.depth if self.kind == NONEWNET2D else 1
        if self.height % factor or self.width % factor:
            raise ConfigError(
                f"{self.kind} input extents {self.height}x{self.width} must be divisible by {factor}"
            )


class _Layer:
    """The autodiff op named ``op`` with its tensors: trainable ``params``
    and, for batchnorm, ``state`` (the running statistics), each declared
    as ``{name: shape}`` and allocated as float32 zeros. A call runs
    ``op(x, *params, *state, *args, *call_args)``, looking the op up in
    :mod:`autodiff` at call time."""

    def __init__(self, name: str, op: str, params: dict, state: dict | None = None, args: tuple = ()):
        self.name, self.op = name, op
        self.params = {key: Tensor(np.zeros(shape, dtype=np.float32)) for key, shape in params.items()}
        self.state = {key: Tensor(np.zeros(shape, dtype=np.float32)) for key, shape in (state or {}).items()}
        self._operands = (*self.params.values(), *self.state.values(), *args)

    def __call__(self, x: Tensor, *call_args) -> Tensor:
        return getattr(ad, self.op)(x, *self._operands, *call_args)


def _conv(name: str, cin: int, cout: int, kernel: int = 3) -> _Layer:
    return _Layer(name, "conv2d", {"weight": (cout, cin, kernel, kernel), "bias": (cout,)})


def _tconv(name: str, cin: int, cout: int, kernel: int = 3, stride: int = 1) -> _Layer:
    return _Layer(name, "transpose_conv2d", {"weight": (cin, cout, kernel, kernel), "bias": (cout,)}, args=(stride,))


def _batchnorm(name: str, c: int) -> _Layer:
    return _Layer(name, "batchnorm2d", {"gamma": (c,), "beta": (c,)}, {"running_mean": (c,), "running_var": (c,)})


class Model:
    """Base: an ordered list of layers; each kind defines ``forward(x, train)``."""

    kind = ""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self._layers: list[_Layer] = []

    def _register(self, layer: _Layer) -> _Layer:
        self._layers.append(layer)
        return layer

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{layer.name}.{key}", p) for layer in self._layers for key, p in layer.params.items()]

    def named_state(self) -> list[tuple[str, Tensor]]:
        """Every tensor a checkpoint holds: the parameters in registration
        order, then the batchnorm running statistics."""
        stats = [(f"{layer.name}.{key}", t) for layer in self._layers for key, t in layer.state.items()]
        return self.named_parameters() + stats

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 3 or x.shape[0] != 1:
            raise InvalidShapeError(f"{self.kind} expects input [1, m, n], got {x.shape}")


class RedCnn(Model):
    """Residual encoder-decoder denoiser: five convolutions, five
    transposed convolutions, with encoder activations added back at the
    symmetric decoder positions. Final layer is linear; the input_residual
    variant adds the input image to the output, so the stack predicts a
    correction instead of reconstructing the image."""

    kind = REDCNN

    def __init__(self, spec: NetworkSpec):
        super().__init__(spec)
        c = spec.base_channels
        self.conv1 = self._register(_conv("conv1", 1, c))
        self.conv2 = self._register(_conv("conv2", c, c))
        self.conv3 = self._register(_conv("conv3", c, c))
        self.conv4 = self._register(_conv("conv4", c, c))
        self.conv5 = self._register(_conv("conv5", c, c))
        self.deconv1 = self._register(_tconv("deconv1", c, c))
        self.deconv2 = self._register(_tconv("deconv2", c, c))
        self.deconv3 = self._register(_tconv("deconv3", c, c))
        self.deconv4 = self._register(_tconv("deconv4", c, c))
        self.deconv5 = self._register(_tconv("deconv5", c, 1))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        self._check_input(x)
        h1 = ad.relu(self.conv1(x))
        h2 = ad.relu(self.conv2(h1))
        h3 = ad.relu(self.conv3(h2))
        h4 = ad.relu(self.conv4(h3))
        h5 = ad.relu(self.conv5(h4))
        u = ad.relu(ad.add(self.deconv1(h5), h4))
        u = ad.relu(self.deconv2(u))
        u = ad.relu(ad.add(self.deconv3(u), h2))
        u = ad.relu(self.deconv4(u))
        out = self.deconv5(u)
        if self.spec.input_residual:
            out = ad.add(out, x)
        return out


class McDnCnn(Model):
    """Residual denoiser: conv+relu, seven conv+batchnorm+relu blocks, and a
    final convolution predicting the noise, subtracted from the input."""

    kind = MCDNCNN

    def __init__(self, spec: NetworkSpec):
        super().__init__(spec)
        c = spec.base_channels
        self.conv_in = self._register(_conv("conv1", 1, c))
        self.blocks = []
        for i in range(7):
            conv = self._register(_conv(f"conv{i + 2}", c, c))
            bn = self._register(_batchnorm(f"bn{i + 2}", c))
            self.blocks.append((conv, bn))
        self.conv_out = self._register(_conv("conv9", c, 1))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        self._check_input(x)
        h = ad.relu(self.conv_in(x))
        for conv, bn in self.blocks:
            h = ad.relu(bn(conv(h), train))
        residual = self.conv_out(h)
        return ad.sub(x, residual)


class NoNewNet2d(Model):
    """U-Net: encoder stages of two conv+relu then 2x max-pool downsampling,
    a two-conv bottleneck, and a mirrored decoder with transposed-conv
    upsampling and skip concatenation. Final 1x1 projection to k channels."""

    kind = NONEWNET2D

    def __init__(self, spec: NetworkSpec):
        super().__init__(spec)
        base, d = spec.base_channels, spec.depth
        widths = [base * (2**i) for i in range(d)]
        self.enc = []
        cin = 1
        for i, w in enumerate(widths):
            a = self._register(_conv(f"enc{i}a", cin, w))
            b = self._register(_conv(f"enc{i}b", w, w))
            self.enc.append((a, b))
            cin = w
        bott = base * (2**d)
        self.bott_a = self._register(_conv("bottlenecka", cin, bott))
        self.bott_b = self._register(_conv("bottleneckb", bott, bott))
        self.dec = []
        prev = bott
        for i in reversed(range(d)):
            w = widths[i]
            up = self._register(_tconv(f"up{i}", prev, w, kernel=2, stride=2))
            a = self._register(_conv(f"dec{i}a", 2 * w, w))
            b = self._register(_conv(f"dec{i}b", w, w))
            self.dec.append((i, up, a, b))
            prev = w
        self.head = self._register(_conv("head", base, spec.num_classes, kernel=1))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        self._check_input(x)
        _, m, n = x.shape
        factor = 2**self.spec.depth
        if m % factor or n % factor:
            raise InvalidShapeError(f"input extents {m}x{n} must be divisible by {factor}")
        skips = []
        h = x
        for a, b in self.enc:
            h = ad.relu(a(h))
            h = ad.relu(b(h))
            skips.append(h)
            h = ad.maxpool2d(h)
        h = ad.relu(self.bott_a(h))
        h = ad.relu(self.bott_b(h))
        for i, up, a, b in self.dec:
            h = up(h)
            h = ad.concat_channels(skips[i], h)
            h = ad.relu(a(h))
            h = ad.relu(b(h))
        return self.head(h)


class Ccnn(Model):
    """Classification CNN: four conv+relu+maxpool blocks, then one fully
    connected layer to k logits. Input extents are fixed by the spec."""

    kind = CCNN

    BLOCKS = 4

    def __init__(self, spec: NetworkSpec):
        super().__init__(spec)
        base = spec.base_channels
        self.convs = []
        cin = 1
        for i in range(self.BLOCKS):
            w = base * (2**i)
            self.convs.append(self._register(_conv(f"conv{i + 1}", cin, w)))
            cin = w
        feat = cin * (spec.height // 16) * (spec.width // 16)
        k = spec.num_classes
        self.fc = self._register(_Layer("fc", "linear", {"weight": (k, feat), "bias": (k,)}))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        self._check_input(x)
        if x.shape[1] != self.spec.height or x.shape[2] != self.spec.width:
            raise InvalidShapeError(
                f"ccnn was built for {self.spec.height}x{self.spec.width}, got {x.shape[1]}x{x.shape[2]}"
            )
        h = x
        for conv in self.convs:
            h = ad.maxpool2d(ad.relu(conv(h)))
        return self.fc(ad.flatten(h))


_BUILDERS = {REDCNN: RedCnn, MCDNCNN: McDnCnn, NONEWNET2D: NoNewNet2d, CCNN: Ccnn}


def build_network(spec: NetworkSpec) -> Model:
    """A fresh network: each weight Xavier-uniform from the spec seed and its
    checkpoint name, each batchnorm scale and running variance ones, the rest zero."""
    model = _BUILDERS[spec.kind](spec)
    for name, t in model.named_state():
        if name.endswith(".weight"):
            t.data = xavier_uniform_init(t.shape, derive_seed(spec.seed, name)).data
        elif name.endswith((".gamma", ".running_var")):
            t.data = np.ones(t.shape, dtype=np.float32)
    return model


# ---------------------------------------------------------------------------
# Checkpoints: a manifest plus one TSR1 blob per named_state() tensor

_MANIFEST = "manifest.json"


def save_checkpoint(model: Model, directory, epoch: int = 0) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / _MANIFEST).unlink(missing_ok=True)
    for stale in directory.glob("*.tsr1"):  # an earlier checkpoint's tensors
        stale.unlink()
    for name, t in model.named_state():
        write_tensor(directory / f"{name}.tsr1", t.data)
    # last: only a complete checkpoint has a manifest
    manifest = {"format": "taskdenoise-checkpoint-v1", "epoch": epoch, "spec": asdict(model.spec)}
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory) -> tuple[Model, int]:
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        spec = NetworkSpec(**manifest["spec"])
        epoch = int(manifest["epoch"])
        model = _BUILDERS[spec.kind](spec)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"malformed checkpoint manifest at {manifest_path}: {exc}") from exc
    for name, t in model.named_state():
        path = directory / f"{name}.tsr1"
        if not path.is_file():
            raise CheckpointError(f"checkpoint is missing tensor file {path}")
        data = read_tensor(path)
        if data.shape != t.shape:
            raise CheckpointError(f"{path}: shape {data.shape} does not match expected {t.shape}")
        t.data = data
    return model, epoch

