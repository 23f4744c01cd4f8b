"""Op semantics, gradient exactness, and engine invariants."""

import numpy as np
import pytest

import conv_reference
from conftest import check_op_gradients, fd_gradient, rel_err
from taskdenoise import autodiff as ad
from taskdenoise.autodiff import Tape, Tensor
from taskdenoise.errors import InvalidInputError, InvalidLabelError, InvalidShapeError


def _t(data):
    return Tensor(np.asarray(data, dtype=np.float32))


def _rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.normal(size=shape)).astype(np.float32))


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Tensor(np.array([1.0, np.nan], dtype=np.float32))
        with pytest.raises(InvalidInputError):
            Tensor(np.array([np.inf], dtype=np.float32))

    def test_scalar_shape(self):
        t = Tensor(np.float32(3.0))
        assert t.shape == ()
        assert t.item() == 3.0


class TestConv2d:
    # (stride, padding) of the layouts conv2d runs, each given by the odd
    # kernel 2*padding + 1: the U-Net's 1x1 head and every 3x3 conv
    LAYOUTS = [(1, 0), (1, 1)]

    def test_identity_kernel(self):
        x = _t(np.ones((1, 3, 3)))
        k = _t(np.ones((1, 1, 1, 1)))
        b = _t(np.zeros(1))
        out = ad.conv2d(x, k, b)
        assert out.shape == (1, 3, 3)
        np.testing.assert_array_equal(out.data, np.ones((1, 3, 3), np.float32))

    def test_hand_summed_cross_correlation(self):
        # sums of the elementwise product with the zero-padded input: the
        # centre sees 1+...+9 = 45, the corner 1+2+4+5 = 12
        x = _t(np.arange(1.0, 10.0).reshape(1, 3, 3))
        k = _t(np.ones((1, 1, 3, 3)))
        b = _t(np.zeros(1))
        out = ad.conv2d(x, k, b)
        assert out.shape == (1, 3, 3)
        assert out.data[0, 1, 1] == 45.0 and out.data[0, 0, 0] == 12.0

    def test_output_extent_formula(self):
        # "same" padding (k-1)/2 at stride 1 keeps the input extents
        x = _rand((3, 10, 8), 0)
        b = _t(np.zeros(4))
        for kk in (1, 3, 5):
            assert ad.conv2d(x, _rand((4, 3, kk, kk), 1), b).shape == (4, 10, 8)

    def test_channel_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            ad.conv2d(_rand((2, 4, 4), 0), _rand((3, 5, 3, 3), 1), _t(np.zeros(3)))

    @pytest.mark.parametrize("stride,padding", LAYOUTS)
    def test_gradients(self, stride, padding):
        kk = 2 * padding + 1
        x = _rand((2, 6, 5), 10)
        k = _rand((3, 2, kk, kk), 11)
        b = _rand((3,), 12)
        extents = ((6 + 2 * padding - kk) // stride + 1, (5 + 2 * padding - kk) // stride + 1)
        assert ad.conv2d(x, k, b).shape[1:] == extents
        check_op_gradients(lambda: ad.conv2d(x, k, b), [x, k, b])

    @pytest.mark.parametrize("stride,padding", LAYOUTS)
    def test_gradients_vs_brute_force(self, stride, padding):
        # independent float64 loop oracle for forward and kernel/input grads
        rng = np.random.default_rng(13)
        cin, cout, h, w = 2, 3, 6, 5
        kk = 2 * padding + 1
        x = Tensor(rng.normal(size=(cin, h, w)).astype(np.float32))
        k = Tensor(rng.normal(size=(cout, cin, kk, kk)).astype(np.float32))
        b = Tensor(rng.normal(size=cout).astype(np.float32))
        out = ad.conv2d(x, k, b)
        g_out = rng.normal(size=out.shape).astype(np.float32).astype(np.float64)

        xp = np.pad(x.data.astype(np.float64), ((0, 0), (padding, padding), (padding, padding)))
        oh, ow = out.shape[1], out.shape[2]
        ref = np.zeros(out.shape)
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[:, i * stride : i * stride + kk, j * stride : j * stride + kk]
                    ref[o, i, j] = (patch * k.data[o]).sum() + b.data[o]
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)

        with Tape([x, k, b]) as tape:
            head = Tensor(g_out.reshape(1, -1))
            loss = ad.tsum(ad.linear(ad.flatten(ad.conv2d(x, k, b)), head, Tensor(np.zeros(1))))
            grads = ad.backward(loss, tape)
        dk_ref = np.zeros(k.shape)
        dxp_ref = np.zeros(xp.shape)
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[:, i * stride : i * stride + kk, j * stride : j * stride + kk]
                    dk_ref[o] += g_out[o, i, j] * patch
                    dxp_ref[:, i * stride : i * stride + kk, j * stride : j * stride + kk] += (
                        g_out[o, i, j] * k.data[o]
                    )
        dx_ref = dxp_ref[:, padding : padding + h, padding : padding + w]
        np.testing.assert_allclose(grads[k], dk_ref, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(grads[x], dx_ref, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(grads[b], g_out.sum(axis=(1, 2)), rtol=1e-5)


class TestTransposeConv2d:
    def test_identity(self):
        x = _rand((1, 4, 4), 0)
        k = _t(np.ones((1, 1, 1, 1)))
        b = _t(np.zeros(1))
        out = ad.transpose_conv2d(x, k, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_output_extent_formula(self):
        x = _rand((2, 5, 4), 1)
        b = _t(np.zeros(3))
        # a stride equal to the kernel tiles the output: (H-1)*stride + kernel
        out = ad.transpose_conv2d(x, _rand((2, 3, 2, 2), 2), b, stride=2)
        assert out.shape == (3, (5 - 1) * 2 + 2, (4 - 1) * 2 + 2)
        # stride 1 with "same" padding keeps the extents
        assert ad.transpose_conv2d(x, _rand((2, 3, 3, 3), 2), b).shape == (3, 5, 4)

    # (stride, padding, kernel) of transpose_conv2d's layouts: redcnn's 3x3
    # deconvs, a 1x1 one and the U-Net's 2x2/2 upsampling
    LAYOUTS = [(1, 1, 3), (1, 0, 1), (2, 0, 2)]

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_of_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        stride, padding, kk = self.LAYOUTS[seed % len(self.LAYOUTS)]
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        # stride-exact extents so conv does not truncate trailing rows
        oh, ow = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h = (oh - 1) * stride + kk - 2 * padding
        w = (ow - 1) * stride + kk - 2 * padding
        x = _t(rng.normal(size=(cin, h, w)))
        k = _t(rng.normal(size=(cout, cin, kk, kk)))
        # conv2d runs only stride 1: the tiling conv comes from the reference
        conv = ad.conv2d if stride == 1 else lambda *a: conv_reference.conv2d(*a, stride, padding)
        conv_out = conv(x, k, _t(np.zeros(cout)))
        y = _t(rng.normal(size=conv_out.shape))
        back = ad.transpose_conv2d(y, k, _t(np.zeros(cin)), stride)
        lhs = float((conv_out.data.astype(np.float64) * y.data).sum())
        rhs = float((x.data.astype(np.float64) * back.data).sum())
        assert abs(lhs - rhs) < 1e-4

    # (stride, padding) of each layout, run by the kernel that gives it
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0)])
    def test_gradients(self, stride, padding):
        kk = 2 * padding + 1 if stride == 1 else stride
        x = _rand((2, 4, 4), 20)
        k = _rand((2, 3, kk, kk), 21)
        b = _rand((3,), 22)
        check_op_gradients(lambda: ad.transpose_conv2d(x, k, b, stride), [x, k, b])


class TestConvInvalidShapes:
    # x shape, kernel shape and bias length of a valid call (conv2d kernels are
    # [C_out, C_in, kh, kw], transpose_conv2d kernels [C_in, C_out, kh, kw])
    VALID = {"conv2d": ((2, 6, 6), (3, 2, 3, 3), 3), "transpose_conv2d": ((2, 6, 6), (2, 3, 3, 3), 3)}

    @pytest.mark.parametrize(
        "case,op",
        [
            (case, op)
            for case in ("kernel_2d", "cin_mismatch", "bias_length", "even_kernel")
            for op in ("conv2d", "transpose_conv2d")
        ]
        # a transposed conv's stride must be 1 or its kernel size
        + [("stride_0", "transpose_conv2d"), ("stride_2_kernel_3", "transpose_conv2d")],
    )
    def test_raises(self, op, case):
        xs, ks, nb = self.VALID[op]
        stride = ()
        if case == "kernel_2d":
            ks = ks[:2]
        elif case == "cin_mismatch":
            xs = (4,) + xs[1:]
        elif case == "bias_length":
            nb += 1
        elif case == "even_kernel":
            ks = ks[:2] + (2, 2)
        else:
            stride = (0,) if case == "stride_0" else (2,)
        # a layout outside the op's rule names the op and states the rule
        rule = f"{op} takes an odd square kernel at stride 1" if case.startswith(("even", "stride")) else None
        with pytest.raises(InvalidShapeError, match=rule):
            getattr(ad, op)(_rand(xs, 0), _rand(ks, 1), _t(np.zeros(nb)), *stride)

    @pytest.mark.parametrize("op", ["conv2d", "transpose_conv2d"])
    def test_valid_call_is_accepted(self, op):
        xs, ks, nb = self.VALID[op]
        assert getattr(ad, op)(_rand(xs, 0), _rand(ks, 1), _t(np.zeros(nb))).shape[0] == nb

class TestMaxPool:
    def test_constant_input(self):
        x = _t(np.full((2, 4, 4), 7.0))
        out = ad.maxpool2d(x)
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 7.0, np.float32))

    def test_exhaustive_max(self):
        x = _t([[[1.0, 2.0], [3.0, 4.0]]])
        out = ad.maxpool2d(x)
        assert out.data.ravel().tolist() == [4.0]

    def test_gradient_routes_to_argmax(self):
        x = _t([[[1.0, 2.0], [3.0, 4.0]]])
        with Tape([x]) as tape:
            loss = ad.tsum(ad.maxpool2d(x))
            grads = ad.backward(loss, tape)
        np.testing.assert_array_equal(grads[x][0], [[0.0, 0.0], [0.0, 1.0]])

    def test_tie_breaks_to_lowest_linear_index(self):
        x = _t(np.full((1, 2, 2), 5.0))
        with Tape([x]) as tape:
            loss = ad.tsum(ad.maxpool2d(x))
            grads = ad.backward(loss, tape)
        np.testing.assert_array_equal(grads[x][0], [[1.0, 0.0], [0.0, 0.0]])

    def test_window_too_large_raises(self):
        # the 2x2 window does not fit an input under 2x2
        for extents in [(1, 2), (2, 1), (1, 1)]:
            with pytest.raises(InvalidShapeError, match="maxpool2d pools 2x2 windows at stride 2"):
                ad.maxpool2d(_rand((1, *extents), 0))

    def test_gradient_vs_fd(self):
        # values spread out so no window has near-ties within the fd step
        vals = 0.25 * np.arange(32, dtype=np.float32).reshape(2, 4, 4)
        x = Tensor(vals + 0.01 * np.random.default_rng(3).normal(size=vals.shape).astype(np.float32))
        check_op_gradients(lambda: ad.maxpool2d(x), [x])


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        x = _rand((3, 8, 8), 0, scale=5.0)
        gamma = _t(np.ones(3))
        beta = _t(np.zeros(3))
        out = ad.batchnorm2d(x, gamma, beta, _t(np.zeros(3)), _t(np.ones(3)), train=True)
        means = out.data.mean(axis=(1, 2))
        variances = out.data.var(axis=(1, 2))
        assert np.abs(means).max() < 1e-4
        assert np.abs(variances - 1.0).max() < 1e-3

    def test_affine_transform(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(2, 16, 16))
        normalized = (raw - raw.mean(axis=(1, 2), keepdims=True)) / raw.std(axis=(1, 2), keepdims=True)
        x = _t(normalized)
        out = ad.batchnorm2d(x, _t([2.0, 2.0]), _t([3.0, 3.0]), _t(np.zeros(2)), _t(np.ones(2)), train=True)
        assert np.abs(out.data.mean(axis=(1, 2)) - 3.0).max() < 1e-3
        assert np.abs(out.data.std(axis=(1, 2)) - 2.0).max() < 1e-3

    def test_running_stats_update(self):
        x = _t(np.full((1, 4, 4), 10.0))
        mean, var = _t([0.0]), _t([1.0])
        ad.batchnorm2d(x, _t([1.0]), _t([0.0]), mean, var, train=True)
        assert mean.data[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)
        assert var.data[0] == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)
        assert mean.data.dtype == var.data.dtype == np.float32

    def test_eval_mode_uses_running_stats(self):
        mean, var = _t([2.0]), _t([4.0])
        x = _t(np.full((1, 2, 2), 6.0))
        out = ad.batchnorm2d(x, _t([1.0]), _t([0.0]), mean, var, train=False)
        assert mean.data[0] == 2.0 and var.data[0] == 4.0
        assert out.data[0, 0, 0] == pytest.approx((6.0 - 2.0) / np.sqrt(4.0 + 1e-5), rel=1e-5)

    def test_running_stats_are_not_recorded(self):
        x, gamma, beta = _rand((2, 4, 4), 31), _t([1.5, 0.8]), _t([0.3, -0.2])
        mean, var = _t([0.0, 0.0]), _t([1.0, 1.0])
        with Tape([x, gamma, beta]) as tape:
            loss = ad.tsum(ad.batchnorm2d(x, gamma, beta, mean, var, train=True))
            grads = ad.backward(loss, tape)
            assert not ad._needs(mean)
        assert len(tape.records[0].inputs) == 3
        assert mean not in grads and var not in grads

    @pytest.mark.parametrize("train", [True, False])
    def test_gradients(self, train):
        x = _rand((2, 4, 4), 30, scale=2.0)
        gamma = _t([1.5, 0.8])
        beta = _t([0.3, -0.2])
        mean, var = _t([0.1, -0.2]), _t([1.2, 0.7])
        check_op_gradients(lambda: ad.batchnorm2d(x, gamma, beta, mean, var, train=train), [x, gamma, beta])


class TestActivations:
    def test_relu_values(self):
        out = ad.relu(_t([-1.0, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    def test_gradient_passes_only_where_input_is_positive(self):
        x = _t([-1.0, -0.0, 0.0, 2.0])
        with Tape([x]) as tape:
            grads = ad.backward(ad.tsum(ad.relu(x)), tape)
        assert grads[x].tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("op", [ad.relu], ids=["relu"])
    def test_gradients(self, op):
        # keep relu inputs away from the kink at 0 relative to the fd step
        rng = np.random.default_rng(40)
        vals = rng.normal(size=(3, 4, 4))
        vals = np.where(np.abs(vals) < 0.05, 0.3, vals)
        x = Tensor(vals.astype(np.float32))
        check_op_gradients(lambda: op(x), [x])


class TestElementwise:
    def test_add_sub_concat_flatten_linear_gradients(self):
        a = _rand((2, 3, 3), 50)
        b = _rand((2, 3, 3), 51)
        check_op_gradients(lambda: ad.add(a, b), [a, b])
        check_op_gradients(lambda: ad.sub(a, b), [a, b])
        check_op_gradients(lambda: ad.concat_channels(a, b), [a, b])
        check_op_gradients(lambda: ad.flatten(a), [a])
        x = _rand((6,), 52)
        w = _rand((4, 6), 53)
        bias = _rand((4,), 54)
        check_op_gradients(lambda: ad.linear(x, w, bias), [x, w, bias])

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            ad.add(_rand((2, 3, 3), 0), _rand((2, 3, 4), 1))


class TestMseLoss:
    def test_identity_is_zero(self):
        x = _rand((2, 5, 5), 0)
        assert ad.mse_loss(x, x).item() == 0.0

    def test_hand_oracle(self):
        pred = _t([0.0, 0.0])
        target = _t([3.0, 4.0])
        assert ad.mse_loss(pred, target).item() == pytest.approx((9.0 + 16.0) / 2.0)

    def test_gradient_formula_and_fd(self):
        pred = _rand((3, 4), 60, scale=2.0)
        target = _rand((3, 4), 61, scale=2.0)
        with Tape([pred]) as tape:
            loss = ad.mse_loss(pred, target)
            grads = ad.backward(loss, tape)
        expected = 2.0 * (pred.data.astype(np.float64) - target.data) / pred.size
        np.testing.assert_allclose(grads[pred], expected, rtol=1e-5)
        fd = fd_gradient(lambda: ad.mse_loss(pred, target).item(), pred)
        analytic = grads[pred].reshape(-1)
        for idx, fd_val in fd.items():
            assert rel_err(analytic[idx], fd_val) < 1e-3


class TestCrossEntropyLoss:
    def test_uniform_logits(self):
        loss = ad.cross_entropy_loss(_t(np.zeros(5)), np.asarray(2))
        assert loss.item() == pytest.approx(np.log(5.0), rel=1e-6)

    def test_confident_correct_is_tiny(self):
        loss = ad.cross_entropy_loss(_t([10.0, -10.0]), np.asarray(0))
        assert loss.item() == pytest.approx(2.06e-9, abs=1e-10)

    def test_label_out_of_range_raises(self):
        with pytest.raises(InvalidLabelError):
            ad.cross_entropy_loss(_t(np.zeros(3)), np.asarray(3))
        with pytest.raises(InvalidLabelError):
            ad.cross_entropy_loss(_t(np.zeros((3, 2, 2))), np.full((2, 2), -1))

    def test_segmentation_labels(self):
        logits = _rand((3, 4, 4), 70, scale=2.0)
        labels = np.random.default_rng(71).integers(0, 3, size=(4, 4))
        loss = ad.cross_entropy_loss(logits, labels)
        # direct per-pixel oracle
        z = logits.data.astype(np.float64)
        z = z - z.max(axis=0)
        logp = z - np.log(np.exp(z).sum(axis=0))
        expected = -np.mean([logp[labels[i, j], i, j] for i in range(4) for j in range(4)])
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_gradient_softmax_minus_onehot_and_fd(self):
        logits = _rand((4, 3, 3), 72, scale=2.0)
        labels = np.random.default_rng(73).integers(0, 4, size=(3, 3))
        with Tape([logits]) as tape:
            loss = ad.cross_entropy_loss(logits, labels)
            grads = ad.backward(loss, tape)
        z = logits.data.astype(np.float64)
        z = z - z.max(axis=0, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=0, keepdims=True)
        onehot = np.zeros_like(p)
        for i in range(3):
            for j in range(3):
                onehot[labels[i, j], i, j] = 1.0
        np.testing.assert_allclose(grads[logits], (p - onehot) / 9.0, atol=1e-7)
        fd = fd_gradient(lambda: ad.cross_entropy_loss(logits, labels).item(), logits)
        analytic = grads[logits].reshape(-1)
        for idx, fd_val in fd.items():
            assert rel_err(analytic[idx], fd_val) < 1e-3


class TestTapeAndBackward:
    def test_backward_requires_scalar(self):
        x = _rand((2, 2), 0)
        with Tape([x]) as tape:
            y = ad.relu(x)
            with pytest.raises(InvalidShapeError):
                ad.backward(y, tape)

    def test_backward_requires_loss_on_tape(self):
        x = _rand((2, 2), 0)
        with Tape([x]):
            loss = ad.tsum(x)
        with Tape([x]) as tape:
            ad.tsum(x)
            with pytest.raises(InvalidInputError, match="not produced on this tape"):
                ad.backward(loss, tape)

    def test_backward_outside_its_tape_raises(self):
        # the ops' backward asks the innermost active tape which inputs take
        # a gradient
        x = _rand((2, 2), 0)
        with Tape([x]) as tape:
            loss = ad.tsum(x)
        with pytest.raises(InvalidInputError, match="inside its tape"):
            ad.backward(loss, tape)

    def test_backward_under_an_inner_tape_raises(self):
        x = _rand((2, 2), 0)
        with Tape([x]) as outer:
            loss = ad.tsum(x)
            with Tape():
                with pytest.raises(InvalidInputError, match="innermost active tape"):
                    ad.backward(loss, outer)

    def test_watched_scalar_leaf_is_not_a_loss(self):
        x = _t(3.0)
        with Tape([x]) as tape:
            with pytest.raises(InvalidInputError, match="not produced on this tape"):
                ad.backward(x, tape)

    def test_outer_tape_records_after_an_inner_tape_watching_the_same_tensor(self):
        x = _t([2.0])
        with Tape([x]) as outer:
            with Tape([x]):
                pass
            y = ad.tsum(ad.add(x, x))
            grads = ad.backward(y, outer)
        assert grads[x].tolist() == [2.0]

    def test_inner_tape_does_not_see_the_outer_tapes_watched_tensors(self):
        x = _rand((2, 2), 0)
        with Tape([x]) as outer:
            with Tape() as inner:
                ad.relu(x)
        assert inner.records == [] and outer.records == []

    def test_gradient_accumulates_over_multiple_uses(self):
        x = _t([2.0])
        with Tape([x]) as tape:
            y = ad.add(x, x)
            loss = ad.tsum(y)
            grads = ad.backward(loss, tape)
        assert grads[x].tolist() == [2.0]

    def test_no_recording_without_tape(self):
        # y stays in its tape's id set after the tape exits; with no tape
        # active, an op on y or on the watched x is not recorded anywhere
        x = _rand((2, 2), 0)
        with Tape([x]) as tape:
            y = ad.relu(x)
        out = ad.relu(y)
        ad.relu(x)
        assert [rec.out for rec in tape.records] == [y]
        with Tape() as later:
            ad.relu(out)
            ad.relu(x)
        assert later.records == []

    def test_no_recording_of_unwatched_inputs(self):
        # an op none of whose inputs the active tape watches is not recorded
        x, w = _rand((2, 2), 0), _rand((2, 2), 1)
        with Tape([w]) as tape:
            out = ad.relu(x)
            assert not ad._needs(out)
        assert len(tape.records) == 0

    def test_entering_or_leaving_a_tape_changes_no_tensor(self):
        x, w = _rand((2, 2), 0), _rand((2, 2), 1)
        before = [(t, slot, getattr(t, slot), t.data.tobytes()) for t in (x, w) for slot in Tensor.__slots__]

        def unchanged():
            return all(getattr(t, slot) is v and t.data.tobytes() == b for t, slot, v, b in before)

        with Tape([x, w]) as tape:
            assert ad._needs(x) and ad._needs(w) and unchanged()
            loss = ad.tsum(ad.add(x, w))
        assert unchanged()
        with pytest.raises(RuntimeError):
            with Tape([x, w]):
                raise RuntimeError("body failed")
        assert unchanged()
        with Tape() as later:
            ad.add(x, w)
            ad.tsum(loss)
        assert len(tape.records) == 2 and later.records == []

    def test_deterministic_gradients(self):
        def run():
            x = _rand((2, 8, 8), 80)
            k = _rand((3, 2, 3, 3), 81)
            b = _rand((3,), 82)
            with Tape([x, k, b]) as tape:
                h = ad.relu(ad.conv2d(x, k, b))
                loss = ad.mse_loss(h, _rand(h.shape, 83))
                grads = ad.backward(loss, tape)
            return grads[k].tobytes(), grads[x].tobytes(), loss.data.tobytes()

        assert run() == run()

    def test_frozen_parameters_get_no_gradient(self):
        # a parameter the tape does not watch
        x = _rand((1, 4, 4), 90)
        k = _rand((2, 1, 3, 3), 91)
        b = _rand((2,), 92)
        with Tape([x]) as tape:
            loss = ad.tsum(ad.conv2d(x, k, b))
            grads = ad.backward(loss, tape)
        assert k not in grads and b not in grads and x in grads


class TestFiniteOutputs:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_pipelines_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor((100 * rng.normal(size=(2, 8, 8))).astype(np.float32))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        out = ad.conv2d(x, k, Tensor(np.zeros(3, np.float32)))
        out = ad.relu(out)
        assert np.all(np.isfinite(out.data))
