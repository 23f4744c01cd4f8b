"""Shape contracts, parameter-count oracles, and gradient reachability."""

import json
import re

import numpy as np
import pytest

from conftest import parameter_checksum
from taskdenoise import autodiff as ad
from taskdenoise import networks
from taskdenoise.autodiff import Tape, Tensor
from taskdenoise.errors import CheckpointError, ConfigError, InvalidShapeError
from taskdenoise.networks import (
    NetworkSpec,
    build_network,
    load_checkpoint,
    save_checkpoint,
)
from taskdenoise.tensorio import write_tensor


def _image(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.normal(size=shape)).astype(np.float32))


def _assert_all_params_reached(model, loss_builder):
    with Tape(model.parameters()) as tape:
        loss = loss_builder()
        grads = ad.backward(loss, tape)
    for name, p in model.named_parameters():
        assert p in grads, f"no gradient for {name}"
        assert np.any(grads[p] != 0), f"zero gradient for {name}"


class TestRedCnn:
    def test_shape_contract(self):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=1))
        out = model.forward(_image((1, 16, 16)))
        assert out.shape == (1, 16, 16)

    def test_zero_final_layer_gives_constant_map(self):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=2))
        model.deconv5.params["weight"].data = np.zeros_like(model.deconv5.params["weight"].data)
        out = model.forward(_image((1, 12, 12), seed=3))
        np.testing.assert_array_equal(out.data, np.zeros((1, 12, 12), np.float32))

    def test_parameter_count_oracle(self):
        c = 8
        # conv1 + conv2..5 + deconv1..4 + deconv5, each with bias
        expected = (9 * c + c) + 4 * (9 * c * c + c) + 4 * (9 * c * c + c) + (9 * c + 1)
        model = build_network(NetworkSpec(kind="redcnn", base_channels=c, seed=0))
        assert sum(p.data.size for p in model.parameters()) == expected

    def test_gradient_reaches_every_parameter(self):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=4))
        x = _image((1, 16, 16), seed=5, scale=0.5)
        target = _image((1, 16, 16), seed=6, scale=0.5)
        _assert_all_params_reached(model, lambda: ad.mse_loss(model.forward(x, train=True), target))

    def test_input_residual_with_zero_final_layer_returns_the_input(self):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=2, input_residual=True))
        model.deconv5.params["weight"].data = np.zeros_like(model.deconv5.params["weight"].data)
        x = _image((1, 12, 12), seed=3)
        assert model.forward(x).data.tobytes() == x.data.tobytes()

    def test_input_residual_gradient_reaches_every_parameter(self):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=4, input_residual=True))
        x = _image((1, 16, 16), seed=5, scale=0.5)
        target = _image((1, 16, 16), seed=6, scale=0.5)
        _assert_all_params_reached(model, lambda: ad.mse_loss(model.forward(x, train=True), target))

    def test_input_residual_survives_a_checkpoint_round_trip(self, tmp_path):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=7, input_residual=True))
        save_checkpoint(model, tmp_path / "ckpt")
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        assert loaded.spec.input_residual
        x = _image((1, 16, 16), seed=8)
        assert loaded.forward(x).data.tobytes() == model.forward(x).data.tobytes()


class TestMcDnCnn:
    def test_shape_contract(self):
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=4, seed=1))
        out = model.forward(_image((1, 16, 16)), train=True)
        assert out.shape == (1, 16, 16)

    def test_zero_final_layer_is_identity(self):
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=4, seed=2))
        model.conv_out.params["weight"].data = np.zeros_like(model.conv_out.params["weight"].data)
        x = _image((1, 10, 10), seed=3)
        out = model.forward(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_parameter_count_oracle(self):
        c = 8
        expected = (9 * c + c) + 7 * (9 * c * c + c) + 7 * (2 * c) + (9 * c + 1)
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=c, seed=0))
        assert sum(p.data.size for p in model.parameters()) == expected

    def test_gradient_reaches_every_parameter(self):
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=4, seed=4))
        x = _image((1, 16, 16), seed=5, scale=0.5)
        target = _image((1, 16, 16), seed=6, scale=0.5)
        _assert_all_params_reached(model, lambda: ad.mse_loss(model.forward(x, train=True), target))


class TestNoNewNet2d:
    def test_shape_contract(self):
        spec = NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=3, height=64, width=64, seed=1)
        model = build_network(spec)
        out = model.forward(_image((1, 64, 64)))
        assert out.shape == (3, 64, 64)

    def test_indivisible_spec_extents_raise(self):
        with pytest.raises(ConfigError, match="20x20 must be divisible by 8"):
            NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=2, height=20, width=20, depth=3)

    def test_indivisible_extents_raise(self):
        spec = NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=2, seed=1, depth=3)
        model = build_network(spec)
        with pytest.raises(InvalidShapeError):
            model.forward(_image((1, 20, 20)))

    def test_parameter_count_oracle(self):
        b, d, k = 8, 3, 4
        widths = [b * 2**i for i in range(d)]
        bott = b * 2**d
        expected = 0
        cin = 1
        for w in widths:
            expected += 9 * cin * w + w + 9 * w * w + w
            cin = w
        expected += 9 * cin * bott + bott + 9 * bott * bott + bott
        prev = bott
        for w in reversed(widths):
            expected += 4 * prev * w + w  # 2x2 upsample
            expected += 9 * (2 * w) * w + w + 9 * w * w + w
            prev = w
        expected += b * k + k  # 1x1 head
        spec = NetworkSpec(kind="nonewnet2d", base_channels=b, num_classes=k, seed=0, depth=d)
        assert sum(p.data.size for p in build_network(spec).parameters()) == expected

    def test_skip_concatenation_channel_arithmetic(self):
        spec = NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=2, seed=0, depth=2)
        model = build_network(spec)
        for i, up, a, b in model.dec:
            w = 4 * 2**i
            assert up.params["weight"].shape[1] == w
            assert a.params["weight"].shape == (w, 2 * w, 3, 3)

    def test_gradient_reaches_every_parameter(self):
        spec = NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=3, seed=4, depth=3)
        model = build_network(spec)
        x = _image((1, 16, 16), seed=5, scale=0.5)
        labels = np.random.default_rng(6).integers(0, 3, size=(16, 16))
        _assert_all_params_reached(model, lambda: ad.cross_entropy_loss(model.forward(x, train=True), labels))


class TestCcnn:
    def test_shape_contract(self):
        spec = NetworkSpec(kind="ccnn", base_channels=4, num_classes=3, height=64, width=64, seed=1)
        model = build_network(spec)
        out = model.forward(_image((1, 64, 64)))
        assert out.shape == (3,)

    def test_wrong_extents_raise(self):
        spec = NetworkSpec(kind="ccnn", base_channels=4, num_classes=3, height=64, width=64, seed=1)
        model = build_network(spec)
        with pytest.raises(InvalidShapeError):
            model.forward(_image((1, 32, 32)))

    def test_indivisible_spec_extents_raise(self):
        with pytest.raises(ConfigError):
            build_network(NetworkSpec(kind="ccnn", base_channels=4, num_classes=3, height=60, width=64, seed=1))

    def test_parameter_count_oracle(self):
        b, k, m = 8, 3, 64
        chans = [1, b, 2 * b, 4 * b, 8 * b]
        expected = sum(9 * cin * cout + cout for cin, cout in zip(chans, chans[1:]))
        expected += (8 * b * (m // 16) * (m // 16)) * k + k
        spec = NetworkSpec(kind="ccnn", base_channels=b, num_classes=k, height=m, width=m, seed=0)
        assert sum(p.data.size for p in build_network(spec).parameters()) == expected

    def test_equal_fc_weights_give_equal_logits(self):
        spec = NetworkSpec(kind="ccnn", base_channels=2, num_classes=3, height=16, width=16, seed=2)
        model = build_network(spec)
        model.fc.params["weight"].data = np.ones_like(model.fc.params["weight"].data)
        model.fc.params["bias"].data = np.zeros_like(model.fc.params["bias"].data)
        out = model.forward(_image((1, 16, 16), seed=3))
        assert np.ptp(out.data) == 0.0

    def test_gradient_reaches_every_parameter(self):
        spec = NetworkSpec(kind="ccnn", base_channels=4, num_classes=3, height=16, width=16, seed=4)
        model = build_network(spec)
        x = _image((1, 16, 16), seed=5, scale=0.5)
        _assert_all_params_reached(model, lambda: ad.cross_entropy_loss(model.forward(x, train=True), np.asarray(1)))


class TestDeterminismAndComposition:
    def test_same_spec_same_seed_bit_identical(self):
        spec = NetworkSpec(kind="nonewnet2d", base_channels=8, num_classes=4, seed=11)
        a, b = build_network(spec), build_network(spec)
        for (name_a, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes(), name_a

    def test_different_seed_differs(self):
        base = NetworkSpec(kind="redcnn", base_channels=4, seed=1)
        other = NetworkSpec(kind="redcnn", base_channels=4, seed=2)
        pa = build_network(base).parameters()[0]
        pb = build_network(other).parameters()[0]
        assert pa.data.tobytes() != pb.data.tobytes()

    def test_denoiser_composes_with_segmentation(self):
        f = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=1))
        g = build_network(NetworkSpec(kind="nonewnet2d", base_channels=4, num_classes=3, seed=2))
        out = g.forward(f.forward(_image((1, 16, 16))))
        assert out.shape == (3, 16, 16)

    @pytest.mark.parametrize("kind,extent", [("redcnn", 24), ("mcdncnn", 24), ("nonewnet2d", 24), ("ccnn", 64)])
    def test_shape_contract_over_random_extents(self, kind, extent):
        spec = NetworkSpec(kind=kind, base_channels=4, num_classes=3, height=extent, width=extent, seed=3)
        model = build_network(spec)
        out = model.forward(_image((1, extent, extent)))
        if kind in ("redcnn", "mcdncnn"):
            assert out.shape == (1, extent, extent)
        elif kind == "nonewnet2d":
            assert out.shape == (3, extent, extent)
        else:
            assert out.shape == (3,)


# Parameter names with their shapes, in registration order, and the
# parameter_checksum of a fresh build. Init draws only from the in-repo
# SplitMix64 stream, so these hold on any numpy/BLAS build.
_PINNED_INIT = {
    "redcnn": (
        "conv1.weight:2x1x3x3 conv1.bias:2 conv2.weight:2x2x3x3 conv2.bias:2 conv3.weight:2x2x3x3 "
        "conv3.bias:2 conv4.weight:2x2x3x3 conv4.bias:2 conv5.weight:2x2x3x3 conv5.bias:2 "
        "deconv1.weight:2x2x3x3 deconv1.bias:2 deconv2.weight:2x2x3x3 deconv2.bias:2 deconv3.weight:2x2x3x3 "
        "deconv3.bias:2 deconv4.weight:2x2x3x3 deconv4.bias:2 deconv5.weight:2x1x3x3 deconv5.bias:1",
        "fe77b538ff5523424e5e9a72aaa9bff6a6b23eaa7a80b70cfb5c5697de63f2fd",
    ),
    "mcdncnn": (
        "conv1.weight:2x1x3x3 conv1.bias:2 conv2.weight:2x2x3x3 conv2.bias:2 bn2.gamma:2 bn2.beta:2 "
        "conv3.weight:2x2x3x3 conv3.bias:2 bn3.gamma:2 bn3.beta:2 conv4.weight:2x2x3x3 conv4.bias:2 "
        "bn4.gamma:2 bn4.beta:2 conv5.weight:2x2x3x3 conv5.bias:2 bn5.gamma:2 bn5.beta:2 conv6.weight:2x2x3x3 "
        "conv6.bias:2 bn6.gamma:2 bn6.beta:2 conv7.weight:2x2x3x3 conv7.bias:2 bn7.gamma:2 bn7.beta:2 "
        "conv8.weight:2x2x3x3 conv8.bias:2 bn8.gamma:2 bn8.beta:2 conv9.weight:1x2x3x3 conv9.bias:1",
        "dc4eb2dfbe3bb4acc7a1f418fbf2a506fbba98b895e69a4bc27b1ed8ac034c99",
    ),
    "nonewnet2d": (
        "enc0a.weight:2x1x3x3 enc0a.bias:2 enc0b.weight:2x2x3x3 enc0b.bias:2 enc1a.weight:4x2x3x3 "
        "enc1a.bias:4 enc1b.weight:4x4x3x3 enc1b.bias:4 bottlenecka.weight:8x4x3x3 bottlenecka.bias:8 "
        "bottleneckb.weight:8x8x3x3 bottleneckb.bias:8 up1.weight:8x4x2x2 up1.bias:4 dec1a.weight:4x8x3x3 "
        "dec1a.bias:4 dec1b.weight:4x4x3x3 dec1b.bias:4 up0.weight:4x2x2x2 up0.bias:2 dec0a.weight:2x4x3x3 "
        "dec0a.bias:2 dec0b.weight:2x2x3x3 dec0b.bias:2 head.weight:3x2x1x1 head.bias:3",
        "026b31d85288cffbe5190e393d24075edc6688e5b0c1c763c145b50e94e4bcc4",
    ),
    "ccnn": (
        "conv1.weight:2x1x3x3 conv1.bias:2 conv2.weight:4x2x3x3 conv2.bias:4 conv3.weight:8x4x3x3 "
        "conv3.bias:8 conv4.weight:16x8x3x3 conv4.bias:16 fc.weight:3x16 fc.bias:3",
        "b6778d898925728e4738516d134ad509b4201ea9f9bfacdba47580884ae3cafd",
    ),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_INIT))
def test_init_is_pinned(kind):
    spec = NetworkSpec(kind=kind, base_channels=2, num_classes=3, height=16, width=16, seed=5, depth=2)
    model = build_network(spec)
    names, checksum = _PINNED_INIT[kind]
    assert [f"{n}:{'x'.join(map(str, p.shape))}" for n, p in model.named_parameters()] == names.split()
    assert parameter_checksum(model).hex() == checksum


@pytest.mark.parametrize("kind", sorted(_PINNED_INIT))
def test_built_and_loaded_parameters_take_no_gradient(kind, tmp_path):
    # a parameter takes a gradient only inside a tape that watches it
    spec = NetworkSpec(kind=kind, base_channels=2, num_classes=3, height=16, width=16, seed=5, depth=2)
    model = build_network(spec)
    save_checkpoint(model, tmp_path / "ckpt")
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    x = _image((1, 16, 16))
    with Tape([x]) as tape:
        for m in (model, loaded):
            assert list(ad.backward(ad.tsum(m.forward(x, train=True)), tape)) == [x]


@pytest.mark.parametrize("kind", sorted(_PINNED_INIT))
def test_loading_draws_nothing(kind, tmp_path, monkeypatch):
    spec = NetworkSpec(kind=kind, base_channels=2, num_classes=3, height=16, width=16, seed=5, depth=2)
    model = build_network(spec)
    save_checkpoint(model, tmp_path / "ckpt")

    def draw(*args):
        raise AssertionError("load_checkpoint drew an init value")

    monkeypatch.setattr(networks, "xavier_uniform_init", draw)
    monkeypatch.setattr(networks, "derive_seed", draw)
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    assert parameter_checksum(loaded) == parameter_checksum(model)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = NetworkSpec(kind="mcdncnn", base_channels=4, seed=7)
        model = build_network(spec)
        # move running stats away from their init values
        model.forward(_image((1, 16, 16), seed=8), train=True)
        save_checkpoint(model, tmp_path / "ckpt", epoch=5)
        loaded, epoch = load_checkpoint(tmp_path / "ckpt")
        assert epoch == 5
        assert parameter_checksum(loaded) == parameter_checksum(model)
        x = _image((1, 16, 16), seed=9)
        np.testing.assert_array_equal(loaded.forward(x).data, model.forward(x).data)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        spec = NetworkSpec(kind="redcnn", base_channels=4, seed=7)
        for name in ("a", "b"):
            save_checkpoint(build_network(spec), tmp_path / name, epoch=1)
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_saving_another_kind_over_a_checkpoint_leaves_only_its_files(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        save_checkpoint(build_network(NetworkSpec(kind="mcdncnn", base_channels=2, seed=1)), ckpt)
        (ckpt / "loss.csv").write_text("epoch,train_loss,val_loss\n")  # written before the checkpoint
        redcnn = build_network(NetworkSpec(kind="redcnn", base_channels=2, seed=1))
        save_checkpoint(redcnn, ckpt)
        expected = {f"{name}.tsr1" for name, _ in redcnn.named_state()} | {"manifest.json", "loss.csv"}
        assert {f.name for f in ckpt.iterdir()} == expected
        assert load_checkpoint(ckpt)[0].kind == "redcnn"

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope")

    def test_missing_parameter_file_raises(self, tmp_path):
        model = build_network(NetworkSpec(kind="redcnn", base_channels=4, seed=1))
        save_checkpoint(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "conv1.weight.tsr1").unlink()
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_running_stat_file_names_it(self, tmp_path):
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=4, seed=1))
        save_checkpoint(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "bn8.running_var.tsr1").unlink()
        with pytest.raises(CheckpointError, match="bn8.running_var.tsr1"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "key,value", [("input_residual", "false"), ("depth", 3.5), ("seed", "x"), ("seed", 1.5)]
    )
    def test_manifest_field_of_the_wrong_type_raises(self, tmp_path, key, value):
        # a string "false" is truthy: read back, the redcnn would add its input
        save_checkpoint(build_network(NetworkSpec(kind="redcnn", base_channels=2, seed=1)), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["spec"][key] = value
        manifest.write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match=re.escape(f"{manifest}: {key} must be")):
            load_checkpoint(tmp_path / "ckpt")

    def test_named_state_is_parameters_then_running_stats(self):
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=2, seed=5))
        state, params = model.named_state(), model.named_parameters()
        assert state[: len(params)] == params
        assert [name for name, _ in state[len(params) :]] == [
            f"bn{i}.{stat}" for i in range(2, 9) for stat in ("running_mean", "running_var")
        ]
        # each tensor owns its array: gamma and running_var both start at ones
        arrays = [t.data for _, t in state]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])

    @pytest.mark.parametrize("stat", ["running_mean", "running_var"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_shape_running_stat_raises(self, tmp_path, stat, length):
        # a (1,) stat would broadcast through the forward pass unnoticed
        model = build_network(NetworkSpec(kind="mcdncnn", base_channels=4, seed=1))
        save_checkpoint(model, tmp_path / "ckpt")
        write_tensor(tmp_path / "ckpt" / f"bn2.{stat}.tsr1", np.ones(length, np.float32))
        with pytest.raises(CheckpointError, match=stat):
            load_checkpoint(tmp_path / "ckpt")
