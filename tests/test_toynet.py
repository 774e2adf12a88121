import hashlib
import io
import json
import math
import tracemalloc
import zipfile

import numpy as np
import pytest

from polardet import toynet
from polardet.encoding import BoxArrays, GridConfig, encode_boxes
from polardet.errors import (DivergenceError, ShapeError, StateError,
                             VersionError)
from polardet.geometry import quads_to_polar
from polardet.gradcheck import check_net_gradients
from polardet.losses import LossConfig, pole_focal_loss, total_regression_loss
from polardet.toynet import (Adam, BatchLoss, Conv2d, ReLU, ToyNet,
                             TrainConfig, _on_pitch, _pitched_cols, _sigmoid,
                             compute_batch_loss, image_to_input,
                             load_checkpoint, predict_planes, save_checkpoint,
                             train)

from oracles import (adam_step_reference, batch_loss_reference,
                     col2im_reference, encode_records_reference,
                     im2col_reference, sigmoid_reference)


def conv3x3_reference(x, weight, bias, stride):
    """Seven nested loops; nothing shared with the im2col implementation."""
    n, cin, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    oh = (h - 1) // stride + 1
    ow = (w - 1) // stride + 1
    out = np.zeros((n, weight.shape[0], oh, ow))
    for ni in range(n):
        for oc in range(weight.shape[0]):
            for oy in range(oh):
                for ox in range(ow):
                    acc = bias[oc]
                    for ic in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                acc += (weight[oc, ic, ky, kx]
                                        * xp[ni, ic, oy * stride + ky,
                                             ox * stride + kx])
                    out[ni, oc, oy, ox] = acc
    return out


def conv3x3_backward_reference(x, weight, dout, stride):
    """Gradients of sum(conv3x3(x) * dout) w.r.t. weight, bias and x, one
    product at a time; nothing shared with the im2col implementation."""
    n, cin, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dweight = np.zeros_like(weight)
    dbias = np.zeros(weight.shape[0])
    dxp = np.zeros_like(xp)
    for ni in range(n):
        for oc in range(weight.shape[0]):
            for oy in range(dout.shape[2]):
                for ox in range(dout.shape[3]):
                    g = dout[ni, oc, oy, ox]
                    dbias[oc] += g
                    for ic in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy * stride + ky, ox * stride + kx
                                dweight[oc, ic, ky, kx] += g * xp[ni, ic, iy, ix]
                                dxp[ni, ic, iy, ix] += g * weight[oc, ic, ky, kx]
    return dweight, dbias, dxp[:, :, 1:-1, 1:-1]


def encode_scenes(boxes_per_image, cfg):
    """One ``Targets`` for the images' lists of (class_id, x, y, rho,
    theta1, theta2) boxes, from one ``encode_boxes`` call."""
    rows = [(k, *b) for k, boxes in enumerate(boxes_per_image) for b in boxes]
    rows = np.array(rows, dtype=np.float64).reshape(-1, 7)
    arrays = BoxArrays(rows[:, 0].astype(np.intp), rows[:, 1].astype(np.intp),
                       rows[:, 2:4], rows[:, 4], rows[:, 5:])
    return encode_boxes(arrays, len(boxes_per_image), cfg)


def encode_generated(scenes, cfg):
    """One ``Targets`` for generated scenes, each a ((B, 4, 2) corners,
    (B,) class ids) pair, from one ``encode_boxes`` call."""
    corners = np.concatenate([c for c, _k in scenes]).reshape(-1, 4, 2)
    class_id = np.concatenate([k for _c, k in scenes]).astype(np.intp)
    image = np.repeat(np.arange(len(scenes)), [len(k) for _c, k in scenes])
    return encode_boxes(BoxArrays(image, class_id, *quads_to_polar(corners)),
                        len(scenes), cfg)


def tiny_batch(seed=0, num_images=2, size=32, num_classes=2, empty=()):
    """Synthetic images plus encoded targets for loss-level tests; the
    images in ``empty`` get their boxes drawn but encode none."""
    rng = np.random.default_rng(seed)
    cfg = GridConfig(size, size, 4, num_classes)
    images, targets = [], []
    for k in range(num_images):
        images.append(rng.uniform(0, 1, (size, size)))
        boxes, cells = [], set()
        while len(boxes) < 2:
            x, y = rng.uniform(6, size - 6, 2)
            cell = (int(x // 4), int(y // 4))
            if cell in cells:
                continue
            cells.add(cell)
            t1 = rng.uniform(0.3, 1.0)
            rho = rng.uniform(3, 6)
            t2 = t1 + rng.uniform(0.6, 1.4)
            boxes.append((int(rng.integers(num_classes)), x, y, rho, t1, t2))
        targets.append([] if k in empty else boxes)
    return image_to_input(images), encode_scenes(targets, cfg)


def flat_spans(net) -> list[slice]:
    """The slice of ``net.flat`` that each of ``net.parameters()`` views,
    in parameter order; every value and gradient must be such a view."""
    spans = []
    for p in net.parameters():
        starts = set()
        for arr, base in ((p.value, net.flat.value), (p.grad, net.flat.grad)):
            assert arr.flags.c_contiguous and np.shares_memory(arr, base)
            start, rest = divmod(arr.ctypes.data - base.ctypes.data, base.itemsize)
            assert rest == 0 and 0 <= start <= base.size - arr.size
            starts.add(start)
        (start,) = starts
        spans.append(slice(start, start + p.value.size))
    return spans


def float64_digests() -> tuple[str, str]:
    """SHA-256 of the outputs and of the parameter gradients of one forward
    and backward of a small all-float64 net."""
    rng = np.random.default_rng(8)
    net = ToyNet(num_classes=2, base_channels=4, seed=2, dtype=np.float64)
    out = net.forward(rng.standard_normal((3, 1, 32, 32)))
    net.zero_grads()
    net.backward(*(rng.standard_normal(a.shape)
                   for a in (out.heat, out.rho, out.theta)))

    def digest(arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    return (digest([out.heat, out.rho, out.theta]),
            digest([p.grad for p in net.parameters()]))


def float64_train_digest() -> str:
    """SHA-256 of the parameters of a small all-float64 net after three
    ``train`` iterations (forward, losses, backward and Adam) on a fixed
    tiny set of rasters."""
    _x, targets = tiny_batch(seed=6, num_images=3)
    images = np.random.default_rng(6).integers(0, 256, (3, 32, 32), dtype=np.uint8)
    net = ToyNet(num_classes=2, base_channels=4, seed=3, dtype=np.float64)
    train(net, images, targets, TrainConfig(learning_rate=0.01, batch_size=2,
                                            iterations=3, seed=1))
    return hashlib.sha256(b"".join(p.value.tobytes()
                                   for p in net.parameters())).hexdigest()


class TestConv2d:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_reference(self, stride):
        rng = np.random.default_rng(0)
        conv = Conv2d("c", 3, 4, stride, rng, dtype=np.float64)
        conv.bias.value[:] = rng.standard_normal(4)
        for h, w in [(8, 8), (7, 5)]:
            x = rng.standard_normal((2, 3, h, w))
            expected = conv3x3_reference(x, conv.weight.value, conv.bias.value,
                                         stride)
            # the training forward (caches) and the inference call (does not)
            for got in (conv.forward(x), conv(x)):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                assert got.shape == (2, 4, (h - 1) // stride + 1,
                                     (w - 1) // stride + 1)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_matches_loop_reference(self, stride):
        # odd, square and wide maps: every gradient entry, not a sample
        rng = np.random.default_rng(5)
        for h, w in [(7, 5), (9, 9), (5, 11)]:
            conv = Conv2d("c", 3, 4, stride, rng, dtype=np.float64)
            x = rng.standard_normal((2, 3, h, w))
            dout = rng.standard_normal(conv.forward(x).shape)
            dx = conv.backward(dout)
            dweight, dbias, dx_ref = conv3x3_backward_reference(
                x, conv.weight.value, dout, stride)
            assert dx.shape == x.shape
            np.testing.assert_allclose(conv.weight.grad, dweight, rtol=0, atol=1e-10)
            np.testing.assert_allclose(conv.bias.grad, dbias, rtol=0, atol=1e-10)
            np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_im2col_is_the_sliding_window_oracle(self, stride, dtype):
        # the ox < ow columns on the row pitch, byte for byte, from the
        # channel-major input
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            for h, w in [(8, 8), (7, 5), (6, 9), (9, 9), (1, 2)]:
                x = rng.standard_normal((n, 3, h, w)).astype(dtype)
                cols, (oh, ow, pitch) = _pitched_cols(x.transpose(1, 0, 2, 3), stride)
                ref = im2col_reference(x, stride)
                assert cols.dtype == dtype and cols.shape == (27, n * oh * pitch)
                valid = cols.reshape(27, n, oh, pitch)[..., :ow].reshape(27, -1)
                assert valid.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_pitched_columns_are_im2col_columns(self, stride, dtype):
        # byte for byte on the valid columns; at stride 1 the centre tap is
        # the input on the pitch with exact-zero junk (``_on_pitch``), the
        # layout the weight gradient multiplies the output gradient's taps by
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for h, w in [(8, 8), (7, 5), (6, 9), (9, 9)]:
                x = rng.standard_normal((n, 3, h, w)).astype(dtype)
                cols, (oh, ow, pitch) = _pitched_cols(x.transpose(1, 0, 2, 3), stride)
                assert (oh, ow) == ((h - 1) // stride + 1, (w - 1) // stride + 1)
                valid = cols.reshape(27, n, oh, pitch)[..., :ow].reshape(27, -1)
                assert valid.tobytes() == im2col_reference(x, stride).tobytes()
                if stride == 1:
                    centre = cols.reshape(3, 9, -1)[:, 4]
                    xpitch = _on_pitch(x.transpose(1, 0, 2, 3), pitch)
                    assert centre.tobytes() == xpitch.tobytes()

    @pytest.mark.parametrize("shape", [(8, 32, 16, 16, 32, 1),   # block convs
                                       (8, 16, 32, 32, 32, 2),   # down
                                       (8, 32, 16, 16, 5, 1)])   # fused head
    def test_input_gradient_is_the_strided_add_oracle(self, shape):
        n, cin, h, w, cout, stride = shape
        rng = np.random.default_rng(12)
        if stride == 2:
            # the pitched GEMM and slice adds give the nine strided adds' bytes
            conv = Conv2d("c", cin, cout, stride, rng)
            dout = rng.standard_normal(conv.forward(
                rng.standard_normal((n, cin, h, w))).shape)
            dx = conv.backward(dout)
            dmat = dout.astype(np.float32).transpose(1, 0, 2, 3).reshape(cout, -1)
            ref = col2im_reference(conv._wmat().T @ dmat, (n, cin, h, w), stride)
            assert dx.shape == ref.shape and dx.dtype == np.float32
            assert (np.ascontiguousarray(dx).tobytes()
                    == np.ascontiguousarray(ref).tobytes())
            return
        # stride 1 sums the flipped-filter taps in another order: float64
        # dx, dW and db within 1e-12 of each reference's largest magnitude
        # (measured: at most 1.6e-15 of it; 8.9e-15 for dx and 1.7e-13 for
        # dW, absolute)
        for n, h, w in [(n, h, w)] + [(k, 7, 5) for k in (1, 2, 3)] + [
                (k, 6, 9) for k in (1, 2, 3)] + [(k, 9, 9) for k in (1, 2, 3)]:
            conv = Conv2d("c", cin, cout, stride, rng, dtype=np.float64)
            x = rng.standard_normal((n, cin, h, w))
            dout = rng.standard_normal(conv.forward(x).shape)
            dx = conv.backward(dout)
            cols = im2col_reference(x, stride)
            dmat = dout.transpose(1, 0, 2, 3).reshape(cout, -1)
            wmat = conv.weight.value.reshape(cout, -1)
            refs = (col2im_reference(wmat.T @ dmat, x.shape, stride),
                    (dmat @ cols.T).reshape(conv.weight.value.shape),
                    dmat.sum(axis=1))
            for got, ref in zip((dx, conv.weight.grad, conv.bias.grad), refs):
                assert got.shape == ref.shape and got.dtype == np.float64
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_output_taps_forward_is_the_im2col_product(self, dtype, bound):
        # a stride-1 conv with fewer output than input channels (the fused
        # head) sums nine shifted output taps instead of multiplying im2col
        # columns: within ``bound`` of the float64 product's largest magnitude
        # (measured: 1.1e-15 in float64, 2.0e-7 in float32)
        rng = np.random.default_rng(16)
        for cin, cout in [(32, 5), (8, 5), (8, 7)]:
            for n in (1, 3):
                for h, w in [(7, 5), (6, 9), (9, 14)]:
                    conv = Conv2d("head", cin, cout, 1, rng, dtype=dtype)
                    conv.bias.value[:] = rng.standard_normal(cout)
                    x = rng.standard_normal((n, cin, h, w))
                    ref = (conv.weight.value.reshape(cout, -1) @ im2col_reference(x, 1)
                           + conv.bias.value[:, None])
                    ref = ref.reshape(cout, n, h, w).transpose(1, 0, 2, 3)
                    for got in (conv.forward(x), conv(x)):
                        assert got.dtype == dtype and got.shape == ref.shape
                        assert np.abs(got - ref).max() <= bound * np.abs(ref).max()

    def test_stride1_forward_keeps_only_its_input(self):
        # the backward rebuilds its taps from the output gradient, so the
        # forward keeps its input and not the 9x columns
        rng = np.random.default_rng(14)
        conv = Conv2d("c", 32, 32, 1, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = rng.standard_normal((8, 32, 16, 16)).astype(np.float32)
            nbytes = x.nbytes
            y = conv.forward(x)
            del x, y
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 1.5 * nbytes

    def test_weight_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        conv = Conv2d("c", 2, 3, 2, rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 6, 6))
        dout = rng.standard_normal((1, 3, 3, 3))
        conv.forward(x)
        conv.backward(dout)
        flat = conv.weight.value.reshape(-1)
        step = 1e-6
        for ci in [0, 7, 23, 53]:
            orig = flat[ci]
            flat[ci] = orig + step
            up = float((conv.forward(x) * dout).sum())
            flat[ci] = orig - step
            down = float((conv.forward(x) * dout).sum())
            flat[ci] = orig
            fd = (up - down) / (2 * step)
            assert conv.weight.grad.reshape(-1)[ci] == pytest.approx(fd, abs=1e-5)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        conv = Conv2d("c", 1, 2, 1, rng, dtype=np.float64)
        x = rng.standard_normal((1, 1, 5, 5))
        dout = rng.standard_normal((1, 2, 5, 5))
        conv.forward(x)
        dx = conv.backward(dout)
        step = 1e-6
        for idx in [(0, 0, 0, 0), (0, 0, 2, 3), (0, 0, 4, 4)]:
            probe = x.copy()
            probe[idx] += step
            up = float((conv.forward(probe) * dout).sum())
            probe[idx] -= 2 * step
            down = float((conv.forward(probe) * dout).sum())
            fd = (up - down) / (2 * step)
            assert dx[idx] == pytest.approx(fd, abs=1e-5)

    def test_bias_gradient_is_dout_sum(self):
        rng = np.random.default_rng(3)
        conv = Conv2d("c", 1, 2, 1, rng)
        x = rng.standard_normal((2, 1, 4, 4))
        dout = rng.standard_normal((2, 2, 4, 4))
        conv.forward(x)
        conv.backward(dout)
        np.testing.assert_allclose(conv.bias.grad, dout.sum(axis=(0, 2, 3)))

    def test_weight_only_backward_matches_loop_reference(self):
        rng = np.random.default_rng(6)
        conv = Conv2d("c", 1, 4, 2, rng, input_grad=False, dtype=np.float64)
        x = rng.standard_normal((2, 1, 7, 5))
        dout = rng.standard_normal(conv.forward(x).shape)
        assert conv.backward(dout) is None
        dweight, dbias, _dx = conv3x3_backward_reference(x, conv.weight.value,
                                                         dout, 2)
        np.testing.assert_allclose(conv.weight.grad, dweight, rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.bias.grad, dbias, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_float32_matches_loop_reference(self, stride):
        # float32 columns and products against the float64 loops: within
        # 1e-6 of each array's largest magnitude (float32's epsilon is 1.2e-7)
        rng = np.random.default_rng(5)
        conv = Conv2d("c", 3, 4, stride, rng)
        conv.bias.value[:] = rng.standard_normal(4)
        x = rng.standard_normal((2, 3, 7, 5))
        y = conv.forward(x)
        dout = rng.standard_normal(y.shape)
        dx = conv.backward(dout)
        assert y.dtype == dx.dtype == np.float32
        assert conv.weight.grad.dtype == conv.bias.grad.dtype == np.float64
        expected = (conv3x3_reference(x, conv.weight.value, conv.bias.value, stride),
                    *conv3x3_backward_reference(x, conv.weight.value, dout, stride))
        for got, ref in zip((y, conv.weight.grad, conv.bias.grad, dx), expected):
            assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_backward_requires_forward(self):
        conv = Conv2d("c", 1, 1, 1, np.random.default_rng(0))
        with pytest.raises(StateError):
            conv.backward(np.zeros((1, 1, 4, 4)))

    def test_he_init_scale(self):
        rng = np.random.default_rng(4)
        conv = Conv2d("c", 8, 64, 1, rng)
        std = conv.weight.value.std()
        assert std == pytest.approx(math.sqrt(2.0 / 72.0), rel=0.1)
        assert not conv.bias.value.any()


class TestReLU:
    def test_forward_and_mask(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
        grad = relu.backward(np.array([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 5.0])

    def test_signed_zeros_and_negatives(self):
        relu = ReLU()
        x = np.array([-np.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, 2.0])
        out = relu.forward(x)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, 1e-300, 2.0])
        assert not np.signbit(out[:3]).any()
        grad = relu.backward(np.full(7, -5.0))
        np.testing.assert_array_equal(grad, [0.0] * 5 + [-5.0, -5.0])
        # the mask backward and relu_signs form from the output is x > 0
        net = ToyNet(num_classes=1, base_channels=1)
        for r in net._relus():
            r.forward(x)
        np.testing.assert_array_equal(net.relu_signs(), np.tile(x > 0.0, 6))

    def test_nan_propagates(self):
        out = ReLU().forward(np.array([np.nan, 1.0]))
        assert np.isnan(out[0]) and out[1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_from_the_output_is_x_gt_0(self, dtype):
        # signed zeros, subnormals of both signs and NaN of both signs: the
        # backward's mask and relu_signs are x > 0, and the backward's bits
        # (signed zeros, NaN) are those of dout * (x > 0)
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([-np.inf, -2.0, -tiny, -0.0, 0.0, tiny, 3.0, np.inf,
                      np.nan, -np.nan], dtype=dtype)
        dout = np.array([-5.0, 5.0, -5.0, -5.0, 5.0, -5.0, np.inf, np.nan, -5.0,
                         np.nan], dtype=dtype)
        relu = ReLU()
        relu.forward(x)
        grad = relu.backward(dout)
        assert grad.dtype == dtype
        assert grad.tobytes() == (dout * (x > 0.0)).tobytes()
        net = ToyNet(num_classes=1, base_channels=1)
        for r in net._relus():
            r.forward(x)
        np.testing.assert_array_equal(net.relu_signs(), np.tile(x > 0.0, 6))

    def test_backward_and_signs_require_forward(self):
        with pytest.raises(StateError):
            ReLU().backward(np.ones(2))
        with pytest.raises(StateError):
            ToyNet(num_classes=1, base_channels=1).relu_signs()


class TestToyNetForward:
    def test_output_shapes(self):
        net = ToyNet(num_classes=3, base_channels=4)
        out = net.forward(np.zeros((2, 1, 64, 48)))
        assert out.heat.shape == (2, 3, 16, 12)
        assert out.rho.shape == (2, 16, 12)
        assert out.theta.shape == (2, 2, 16, 12)

    def test_activation_ranges(self):
        net = ToyNet(num_classes=2, base_channels=4, seed=1)
        x = image_to_input(np.random.default_rng(0).uniform(0, 1, (3, 32, 32)))
        out = net.forward(x)
        assert np.all((out.heat > 0) & (out.heat < 1))
        assert np.all(out.rho > 0)
        assert np.all((out.theta > 0) & (out.theta < math.pi))

    def test_initial_heat_biased_low(self):
        # fresh nets should predict background, not 0.5 everywhere
        net = ToyNet(num_classes=1, base_channels=8)
        out = net.forward(image_to_input(np.full((64, 64), 0.5)))
        assert out.heat.mean() < 0.3

    def test_indivisible_input_rejected(self):
        net = ToyNet(num_classes=1, base_channels=2)
        for run in (net.forward, net.predict):
            with pytest.raises(ShapeError):
                run(np.zeros((1, 1, 30, 32)))

    def test_wrong_channel_count_rejected(self):
        net = ToyNet(num_classes=1, base_channels=2)
        for run in (net.forward, net.predict):
            with pytest.raises(ShapeError):
                run(np.zeros((1, 3, 32, 32)))

    def test_backward_requires_forward(self):
        net = ToyNet(num_classes=1, base_channels=2)
        with pytest.raises(StateError):
            net.backward(np.zeros((1, 1, 8, 8)), np.zeros((1, 8, 8)),
                         np.zeros((1, 2, 8, 8)))

    def test_predict_planes_keeps_no_forward_cache(self):
        net = ToyNet(num_classes=2, base_channels=16)
        image = np.random.default_rng(0).uniform(0, 1, (128, 128))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            planes = predict_planes(net, image)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert planes[0].shape == (2, 32, 32)
        assert retained < 1e6
        with pytest.raises(StateError):
            net.backward(np.zeros((1, 2, 32, 32)), np.zeros((1, 32, 32)),
                         np.zeros((1, 2, 32, 32)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_is_forward_bit_for_bit(self, dtype):
        # a small net, then one 256x256 detect image and one training batch
        for shape, base in [((2, 1, 32, 48), 4), ((1, 1, 256, 256), 16),
                            ((8, 1, 64, 64), 16)]:
            net = ToyNet(num_classes=2, base_channels=base, seed=3, dtype=dtype)
            x = np.random.default_rng(4).standard_normal(shape)
            ref, got = net.forward(x), net.predict(x)
            for key in ("heat", "rho", "theta"):
                a, b = getattr(ref, key), getattr(got, key)
                assert b.dtype == np.float64 and b.shape == a.shape
                assert b.tobytes() == a.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_is_forward_within_rounding(self, dtype):
        # shapes where the pitched GEMM has a column count OpenBLAS's
        # small-matrix kernel rounds differently from forward's: within
        # 16 ulps of each output's largest magnitude (measured: 5.7e-7 in
        # float32, 1.2e-15 in float64)
        net = ToyNet(num_classes=2, base_channels=16, dtype=dtype)
        bound = 16 * np.finfo(dtype).eps
        for n, size in [(1, 32), (3, 28), (2, 36)]:
            x = np.random.default_rng(size).standard_normal((n, 1, size, size))
            ref, got = net.forward(x), net.predict(x)
            for key in ("heat", "rho", "theta"):
                a, b = getattr(ref, key), getattr(got, key)
                assert b.shape == a.shape
                assert np.abs(b - a).max() <= bound * np.abs(a).max()

    def test_only_the_head_sums_output_taps(self, monkeypatch):
        # the stem, down and the four block convs multiply im2col columns;
        # the fused head (5 rows from 32 channels) builds none
        seen = []
        cols = toynet._pitched_cols

        def spy(xt, stride):
            seen.append((xt.shape[0], stride))
            return cols(xt, stride)

        monkeypatch.setattr(toynet, "_pitched_cols", spy)
        net = ToyNet(num_classes=2, base_channels=16)
        for run in (net.forward, net.predict):
            seen.clear()
            run(np.zeros((2, 1, 32, 32)))
            assert seen == [(1, 2), (16, 2)] + [(32, 1)] * 4

    def test_sigmoid_is_the_masked_formulation_bit_for_bit(self):
        edges = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                          -np.nan, 36.0, -36.0, 5e-324, -5e-324])
        rand = np.random.default_rng(13).standard_normal((2, 3, 16, 16)) * 20.0
        for z in (edges, rand):
            assert _sigmoid(z).tobytes() == sigmoid_reference(z).tobytes()

    def test_predict_leaves_the_training_caches_alone(self):
        # forward -> predict on another batch -> backward gives the
        # gradients of forward -> backward, byte for byte
        rng = np.random.default_rng(9)
        x, other = rng.standard_normal((2, 2, 1, 32, 32))
        grads = []
        for interleave in (False, True):
            net = ToyNet(num_classes=2, base_channels=4, seed=2)
            out = net.forward(x)
            if interleave:
                net.predict(other)
            d_rng = np.random.default_rng(10)
            net.zero_grads()
            net.backward(*(d_rng.standard_normal(a.shape)
                           for a in (out.heat, out.rho, out.theta)))
            grads.append(b"".join(p.grad.tobytes() for p in net.parameters()))
        assert grads[0] == grads[1]

    def test_predict_planes_peak_memory(self):
        # one layer's columns alive at a time (4.9 MB at most here, on the
        # row pitch; the head's output taps take 0.8 MB): the traced peak is
        # 7.5 MB, where a training forward, which keeps the stride-2 columns
        # and the stride-1 inputs, peaks at 11.6 MB
        net = ToyNet(num_classes=2, base_channels=16)
        image = np.random.default_rng(0).uniform(0, 1, (256, 256))
        tracemalloc.start()
        try:
            predict_planes(net, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_parameter_layout_is_the_checkpoint_layout(self):
        net = ToyNet(num_classes=2, base_channels=16)
        convs = [("stem", 1, 16), ("down", 16, 32)] + [
            (f"block{b}.conv{c}", 32, 32) for b in (1, 2) for c in (1, 2)]
        heads = [("head_heat", 32, 2), ("head_rho", 32, 1), ("head_angle", 32, 2)]
        expected = []
        for name, cin, cout in convs + heads:
            expected += [(f"{name}.weight", (cout, cin, 3, 3)), (f"{name}.bias", (cout,))]
        assert [(p.name, p.value.shape) for p in net.parameters()] == expected

    def test_initial_parameter_bytes_are_pinned(self):
        # the values drawn before the three heads became one conv
        params = ToyNet(2, 16, seed=0).parameters()
        digest = hashlib.sha256(b"".join(p.value.tobytes() for p in params))
        assert digest.hexdigest() == ("d38d686b25bfb480d924a8cb8b3083e1"
                                      "bc784762fe5d24e71baf60312ef13e8a")

    def test_fused_head_gradients_match_three_convs(self):
        rng = np.random.default_rng(8)
        net = ToyNet(num_classes=2, base_channels=4, seed=2, dtype=np.float64)
        x = rng.standard_normal((3, 1, 32, 32))
        out = net.forward(x)
        d_heat, d_rho, d_theta = (rng.standard_normal(a.shape)
                                  for a in (out.heat, out.rho, out.theta))
        net.zero_grads()
        net.backward(d_heat, d_rho, d_theta)

        t = net.down_relu.forward(net.down.forward(
            net.stem_relu.forward(net.stem.forward(x))))
        f = net.block2.forward(net.block1.forward(t))

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        params = {p.name: p for p in net.parameters()}
        for head, dz_of in (
                ("head_heat", lambda z: d_heat * sig(z) * (1.0 - sig(z))),
                ("head_rho", lambda z: d_rho[:, None] * sig(z)),
                ("head_angle",
                 lambda z: d_theta * math.pi * sig(z) * (1.0 - sig(z)))):
            weight, bias = params[f"{head}.weight"], params[f"{head}.bias"]
            conv = Conv2d("ref", 8, weight.value.shape[0], 1, rng, dtype=np.float64)
            conv.weight.value[...] = weight.value
            conv.bias.value[...] = bias.value
            conv.backward(dz_of(conv.forward(f)))
            for got, ref in ((weight.grad, conv.weight.grad),
                             (bias.grad, conv.bias.grad)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_float32_net_matches_float64_net(self):
        # same parameters, one forward and backward in each precision: every
        # output and Param.grad within 1e-5 of the array's largest magnitude
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 1, 32, 32))
        nets = [ToyNet(2, 4, seed=2), ToyNet(2, 4, seed=2, dtype=np.float64)]
        assert nets[0].dtype == np.float32
        outs = [net.forward(x) for net in nets]
        grads = [rng.standard_normal(a.shape)
                 for a in (outs[0].heat, outs[0].rho, outs[0].theta)]
        for net in nets:
            net.zero_grads()
            net.backward(*grads)
        pairs = [(getattr(outs[0], k), getattr(outs[1], k))
                 for k in ("heat", "rho", "theta")]
        pairs += [(p.grad, q.grad) for p, q in zip(nets[0].parameters(),
                                                   nets[1].parameters())]
        for got, ref in pairs:
            assert got.dtype == np.float64
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_float64_outputs_and_gradients_are_pinned(self):
        # One digest per OpenBLAS float64 GEMM kernel family, as each rounds
        # differently: Prescott/Core2, Nehalem, Sandybridge, Haswell/Zen and
        # SkylakeX and later. ``python scripts/pin_digests.py`` recomputes
        # them, running ``float64_digests`` once per family with
        # OPENBLAS_CORETYPE=Prescott, Nehalem, Sandybridge, Haswell and
        # SkylakeX. The outputs are those of the fused head summing its
        # output taps; the gradients those of the stride-1 backward that
        # takes both gradients from the output gradient's taps, fed by
        # these outputs' activations.
        outputs, gradients = float64_digests()
        assert outputs in {
            "f88037806afa9339dcc9ae0a178f4a49f5c87d21ee831b55ad660f664824122c",
            "6026473c11fbe9463f3b5b357d2c162f54ef46e226e570c5bdc3b1cda2079522",
            "3d7c9fec438a11999098761e37e0be630090b6b115934b25e1cdacb7fd0d7b8a",
            "07675b531b4264de4fd5dd3ee0fff1bc46c8fdd97b1855c1cf73c55d08691af9",
            "e72f66590095b1de31672251c7115428bc9c7e1d328b42e75081ca3f71bb9f17",
        }
        assert gradients in {
            "d3f40b11051a2b793082b42b6969065028b31f8f92f80e398cca4caceca005a4",
            "ba6257134d8197076ce37f29e18ffca7d0f23511a7cab03e45936c4e23dcf898",
            "26d9f89ca1e1a96f403e2336d768ba7eba589fab04763a165001b95b36c57900",
            "cd6f5ed2e404709de657df806cdd2379e3494f3718365795930a9068bb22958a",
            "0dbb7769c3eaf2b34e2d501252a30928814a96e753278b59f2e41e538d82cee1",
        }

    def test_float64_train_step_is_pinned(self):
        # Three whole train iterations, Adam included, one digest per
        # OpenBLAS float64 GEMM kernel family as above (Nehalem and
        # Sandybridge agree here); ``python scripts/pin_digests.py`` prints
        # them in its last column.
        assert float64_train_digest() in {
            "4439a6296ecd8a9f01dbe17de8fb6759f72e1d0531a02cd0ec629aa7d7ae08b4",
            "925d9ecbf66da6faa0da7c750dbf83959bcf7851cd7017ce7ca76c2e9cba7550",
            "4cd8d79c524cd43846267e65ab118a022dab7dedb1784e0a50161cc78ca245ea",
            "289ca3698bde66842474bcc0f217065270905103adad41021eb30441bcadcf75",
        }

    def test_parameter_count_small_variant(self):
        # 20 + 76 + 2*296 + 74 + 37 + 74, counted layer by layer by hand
        net = ToyNet(num_classes=2, base_channels=2)
        assert net.num_parameters() == 873


class TestFlatParameters:
    @staticmethod
    def check(net):
        # each element of the flat vectors belongs to exactly one parameter,
        # and each conv's weight and bias are views too
        covered = np.zeros(net.flat.value.size, dtype=int)
        for span in flat_spans(net):
            covered[span] += 1
        assert (covered == 1).all()
        assert net.flat.value.dtype == net.flat.grad.dtype == np.float64
        for conv in net._convs():
            for p in (conv.weight, conv.bias):
                assert np.shares_memory(p.value, net.flat.value)
                assert np.shares_memory(p.grad, net.flat.grad)

    def test_every_parameter_views_the_flat_vectors(self, tmp_path):
        net = ToyNet(num_classes=3, base_channels=4, seed=1)
        self.check(net)
        self.check(ToyNet._unfilled(3, 4))
        self.check(ToyNet(num_classes=1, base_channels=2, dtype=np.float64))
        save_checkpoint(tmp_path / "net.npz", net)
        loaded, _meta = load_checkpoint(tmp_path / "net.npz")
        self.check(loaded)
        assert loaded.flat.value.tobytes() == net.flat.value.tobytes()

    def test_zero_grads_zeroes_every_gradient(self):
        x, targets = tiny_batch()
        net = ToyNet(num_classes=2, base_channels=2, seed=3)
        compute_batch_loss(net, x, targets, LossConfig())
        assert net.flat.grad.any()
        net.head.weight.grad[:] = np.nan
        net.zero_grads()
        assert not net.flat.grad.any()
        assert not any(p.grad.any() for p in net.parameters())


class TestBatchLoss:
    def test_matches_manual_composition(self):
        x, targets = tiny_batch()
        net = ToyNet(num_classes=2, base_channels=2, seed=3)
        cfg = LossConfig()
        stats = compute_batch_loss(net, x, targets, cfg, backward=False)

        out = net.forward(x)
        first = targets.first
        pole = np.mean([pole_focal_loss(out.heat[b], targets.heat[b], cfg,
                                        first[b + 1] - first[b]).value
                        for b in range(len(x))])
        reg_terms = []
        for b in range(len(x)):
            for r in range(first[b], first[b + 1]):
                cx, cy = targets.cell[r]
                reg_terms.append(total_regression_loss(
                    (out.rho[b, cy, cx], out.theta[b, 0, cy, cx],
                     out.theta[b, 1, cy, cx]), tuple(targets.value[r]), cfg).value)
        assert stats.pole == pytest.approx(pole, rel=1e-12)
        assert stats.reg == np.mean(reg_terms)
        assert stats.total == pole + 0.1 * np.mean(reg_terms)

    def test_batch_size_mismatch_rejected(self):
        x, targets = tiny_batch()
        net = ToyNet(num_classes=2, base_channels=2)
        with pytest.raises(ShapeError):
            compute_batch_loss(net, x, targets.take([0]), LossConfig())

    def test_gradients_match_finite_differences(self):
        x, targets = tiny_batch(seed=5)
        net = ToyNet(num_classes=2, base_channels=2, seed=7, dtype=np.float64)
        rng = np.random.default_rng(11)
        summary = check_net_gradients(net, x, targets, LossConfig(), rng,
                                      num_coords=80)
        assert summary.max_rel_error < 1e-5

    def test_gradient_audit_refuses_a_float32_net(self):
        x, targets = tiny_batch(seed=5)
        with pytest.raises(ValueError, match="float32"):
            check_net_gradients(ToyNet(num_classes=2, base_channels=2), x,
                                targets, LossConfig(), np.random.default_rng(11))

    def test_batch_without_pole_cells(self):
        x, _targets = tiny_batch()
        empty = encode_scenes([[]], GridConfig(32, 32, 4, 2)).take([0] * len(x))
        net = ToyNet(num_classes=2, base_channels=2, seed=3)
        stats = compute_batch_loss(net, x, empty, LossConfig())
        assert stats.reg == 0.0
        assert stats.total == stats.pole > 0.0
        assert all(np.isfinite(p.grad).all() for p in net.parameters())
        grads = {p.name: p.grad for p in net.parameters()}
        assert np.any(grads["head_heat.weight"] != 0.0)
        assert not np.any(grads["head_rho.weight"])
        assert not np.any(grads["head_angle.weight"])

    def test_gradients_match_fd_with_an_empty_image(self):
        x, targets = tiny_batch(seed=5, num_images=3, empty=(1,))
        assert targets.first.tolist() == [0, 2, 2, 4]
        net = ToyNet(num_classes=2, base_channels=2, seed=7, dtype=np.float64)
        summary = check_net_gradients(net, x, targets, LossConfig(),
                                      np.random.default_rng(11), num_coords=80)
        assert summary.max_rel_error < 1e-5

    def test_gathered_batch_matches_per_image_stacking(self):
        # the batch gather of one dataset-wide Targets against the per-box
        # reference's per-image dicts stacked for the batch: the same loss and
        # gradients, bit for bit in float64, with repeats and an empty image
        from types import SimpleNamespace
        from polardet.synthdata import SceneSpec, generate_dataset
        spec = SceneSpec(width=32, height=32, num_classes=2, max_objects=3)
        grid = GridConfig(32, 32, 4, 2)
        scenes = [(corners, class_id)
                  for _iid, _img, corners, class_id in generate_dataset(spec, 5, 3)]
        scenes[3] = (np.empty((0, 4, 2)), np.empty(0, np.intp))
        names = ["class0", "class1"]
        records = [[SimpleNamespace(corners=c, class_name=names[k])
                    for c, k in zip(corners, class_id.tolist())]
                   for corners, class_id in scenes]
        targets = encode_generated(scenes, grid)
        reference = encode_records_reference(records, names, grid)
        idx = np.array([4, 3, 0, 4, 1, 2, 0, 3])
        x = image_to_input(np.random.default_rng(2).uniform(0, 1, (len(idx), 32, 32)))
        cfg = LossConfig()
        runs = []
        for run in (lambda: compute_batch_loss(net, x, targets.take(idx), cfg),
                    lambda: batch_loss_reference(net, x, [reference[i] for i in idx],
                                                 cfg)):
            net = ToyNet(num_classes=2, base_channels=2, seed=4, dtype=np.float64)
            net.zero_grads()
            loss = tuple(run())
            runs.append((loss, [p.grad.tobytes() for p in net.parameters()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][0][2] > 0.0
        assert runs[0][1] == runs[1][1]


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # with constant gradient g: mhat = g, vhat = g^2, update ~ lr * sign(g)
        from polardet.toynet import Param
        p = Param("p", np.array([1.0, -2.0]))
        p.grad = np.array([0.5, -0.25])
        cfg = TrainConfig(learning_rate=0.01)
        opt = Adam(p, cfg)
        opt.step()
        np.testing.assert_allclose(p.value, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0025
        assert cfg.batch_size == 8
        assert cfg.iterations == 3000
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.001)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("beta1", 1.0), ("beta1", -0.5), ("beta1", 1.5),
        ("beta2", 1.0), ("beta2", 1.5), ("beta2", -1e-12),
        ("eps", 0.0), ("eps", -1e-8)])
    def test_decays_outside_0_1_and_nonpositive_eps_rejected(self, field, value):
        # beta = 1 makes the first step's bias correction 0 (0 / 0, then NaN
        # weights); eps = 0 divides by 0 where a gradient is 0
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(**{field: value})

    def test_decay_range_ends(self):
        cfg = TrainConfig(beta1=0.0, beta2=0.0, eps=1e-300)
        assert (cfg.beta1, cfg.beta2) == (0.0, 0.0)
        TrainConfig(beta1=np.nextafter(1.0, 0.0), beta2=np.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_the_per_parameter_loop_bit_for_bit(self, dtype):
        # Adam on the flat vectors against the per-array loop of oracles,
        # over every parameter view of a second net: same values and moments;
        # base 16 has 43,237 parameters, whole chunks and part of another
        cfg = TrainConfig(learning_rate=0.01, beta1=0.8, beta2=0.99)
        nets = [ToyNet(num_classes=2, base_channels=16, seed=5, dtype=dtype)
                for _ in range(2)]
        size = nets[0].flat.value.size
        assert size > toynet._ADAM_CHUNK and size % toynet._ADAM_CHUNK
        opt = Adam(nets[0].flat, cfg)
        params = nets[1].parameters()
        m = [np.zeros_like(p.value) for p in params]
        v = [np.zeros_like(p.value) for p in params]
        rng = np.random.default_rng(9)
        for t in range(1, 6):
            grad = rng.standard_normal(nets[0].flat.grad.size) * 10.0 ** rng.integers(-6, 3)
            grad[rng.uniform(size=grad.size) < 0.1] = 0.0
            for net in nets:
                net.flat.grad[:] = grad
            opt.step()
            adam_step_reference(params, m, v, t, cfg)
            assert nets[0].flat.value.tobytes() == nets[1].flat.value.tobytes()
            for span, mi, vi in zip(flat_spans(nets[0]), m, v):
                assert opt.m[span].tobytes() == mi.tobytes()
                assert opt.v[span].tobytes() == vi.tobytes()

    def test_zero_learning_rate_leaves_params_unchanged(self):
        from polardet.toynet import Param
        p = Param("p", np.array([3.0, -1.0]))
        p.grad = np.array([10.0, -10.0])
        opt = Adam(p, TrainConfig(learning_rate=0.0))
        opt.step()
        np.testing.assert_array_equal(p.value, [3.0, -1.0])


class TestTrain:
    def _samples(self, n=6, size=32, seed=0):
        """(images, targets) of ``n`` generated scenes."""
        from polardet.synthdata import SceneSpec, generate_dataset
        spec = SceneSpec(width=size, height=size, num_classes=2,
                         min_objects=1, max_objects=2)
        cfg = GridConfig(size, size, 4, 2)
        scenes = list(generate_dataset(spec, n, seed))
        return (np.array([img for _iid, img, _c, _k in scenes]),
                encode_generated([(c, k) for _iid, _img, c, k in scenes], cfg))

    def test_loss_decreases_on_overfit_task(self):
        images, targets = self._samples()
        net = ToyNet(num_classes=2, base_channels=4, seed=0)
        history = train(net, images, targets,
                        TrainConfig(iterations=200, batch_size=4, seed=0))
        assert len(history) == 200
        start = np.mean([h.total for h in history[:20]])
        end = np.mean([h.total for h in history[-20:]])
        assert end < 0.5 * start

    def test_history_entries(self):
        images, targets = self._samples(n=2)
        net = ToyNet(num_classes=2, base_channels=2)
        history = train(net, images, targets, TrainConfig(iterations=3, batch_size=2))
        assert len(history) == 3
        for h in history:
            assert isinstance(h, BatchLoss)
            assert h.total == pytest.approx(h.pole + 0.1 * h.reg)

    def test_nan_image_raises_divergence(self):
        # relu passes NaN on, so a NaN pixel reaches the loss; numpy's
        # invalid-value warnings on the way are expected here
        images, targets = self._samples(n=2)
        images[:, 3, 5] = np.nan
        net = ToyNet(num_classes=2, base_channels=2)
        with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
            train(net, images, targets, TrainConfig(iterations=5, batch_size=2))
        assert err.value.iteration == 0

    def test_non_finite_loss_raises_divergence_with_iteration(self):
        images, targets = self._samples(n=2)
        targets.value[targets.first[:-1], 0] = np.nan  # each image's first radius
        net = ToyNet(num_classes=2, base_channels=2)
        with pytest.raises(DivergenceError) as err:
            train(net, images, targets, TrainConfig(iterations=5, batch_size=2))
        assert err.value.iteration == 0

    def test_rasters_train_like_their_float_images(self):
        images, targets = self._samples(n=4)
        rasters = np.round(images * 255.0).astype(np.uint8)
        runs = []
        for batch in (rasters, rasters / 255.0):
            net = ToyNet(num_classes=2, base_channels=2, seed=3)
            history = train(net, batch, targets, TrainConfig(iterations=3, batch_size=2))
            runs.append((history, b"".join(p.value.tobytes() for p in net.parameters())))
        assert runs[0] == runs[1]

    def test_empty_samples_rejected(self):
        empty = encode_scenes([[]], GridConfig(32, 32, 4, 1)).take([])
        with pytest.raises(ValueError):
            train(ToyNet(1, 2), np.zeros((0, 32, 32)), empty, TrainConfig())

    def test_image_count_must_match_targets(self):
        images, targets = self._samples(n=3)
        for bad in (images[:2], np.concatenate((images, images[:1]))):
            with pytest.raises(ShapeError, match="images vs 3 targets"):
                train(ToyNet(2, 2), bad, targets, TrainConfig(iterations=1))

    def test_callback_sees_every_iteration(self):
        images, targets = self._samples(n=2)
        seen = []
        train(ToyNet(2, 2), images, targets, TrainConfig(iterations=4, batch_size=2),
              callback=lambda it, stats: seen.append(it))
        assert seen == [0, 1, 2, 3]


def _edited_checkpoint(path, edit_meta=None, edit_arrays=None):
    """Save a ToyNet(2, 2) to ``path``, then rewrite its header and arrays."""
    save_checkpoint(path, ToyNet(2, 2))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(arrays.pop("meta").item())
    meta = edit_meta(meta) if edit_meta else meta
    if edit_arrays:
        edit_arrays(arrays)
    np.savez(path, meta=json.dumps(meta), **arrays)


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _set_value(key, index, value):
    def edit(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key].flat[index] = value
    return edit


def _truncated(path):
    save_checkpoint(path, ToyNet(2, 2))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _plain_npy(path):
    with open(path, "wb") as fh:  # np.save appends .npy to a bare path
        np.save(fh, np.zeros((2, 2)))


def _rewritten_members(path, write_member, keys=None):
    """Save a ToyNet(2, 2) to ``path``, then store each member named in
    ``keys`` (every member if None) as the bytes ``write_member(arr)``."""
    save_checkpoint(path, ToyNet(2, 2))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    with zipfile.ZipFile(path, "w") as zf:
        for key, arr in arrays.items():
            rewrite = keys is None or key in keys
            zf.writestr(f"{key}.npy", write_member(arr) if rewrite else _npy_bytes(arr))


def _npy_bytes(arr, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, **kwargs)
    return buf.getvalue()


def _npy_header_bytes(header: str, data: bytes) -> bytes:
    """A format-1.0 member with the literal dict ``header``, padded as
    np.save pads it."""
    text = header + " " * (63 - (10 + len(header)) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode() + data


# a malformed file ``detect --checkpoint`` may be handed -> (its writer,
# what the VersionError must name)
MALFORMED_CHECKPOINTS = {
    "no-num-classes": (lambda p: _edited_checkpoint(p, _without("num_classes")),
                       "num_classes must be an integer >= 1, got None"),
    "header-list": (lambda p: _edited_checkpoint(p, lambda meta: list(meta)),
                    "header is a JSON list"),
    "string-base-channels": (
        lambda p: _edited_checkpoint(p, lambda meta: {**meta, "base_channels": "16"}),
        "base_channels must be an integer >= 1, got '16'"),
    "truncated": (_truncated, "not an npz archive"),
    "empty": (lambda p: p.write_bytes(b""), "not an npz archive"),
    "plain-npy": (_plain_npy, "single .npy array"),
    "nan-weight": (lambda p: _edited_checkpoint(
        p, edit_arrays=_set_value("param_004", 7, np.nan)),
        "block1.conv1.weight: non-finite value"),
    "inf-bias": (lambda p: _edited_checkpoint(
        p, edit_arrays=_set_value("param_013", 0, -np.inf)),
        "head_heat.bias: non-finite value"),
    "object-array": (lambda p: _rewritten_members(
        p, lambda arr: _npy_bytes(arr.astype(object), allow_pickle=True), {"param_004"}),
        "unreadable checkpoint array param_004: dtype '|O'"),
    "raw-bytes-member": (lambda p: _rewritten_members(p, lambda arr: b"{}", {"meta"}),
                         "unreadable checkpoint array meta: not an .npy member"),
}


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path):
        net = ToyNet(num_classes=2, base_channels=4, seed=5)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, extra={"classes": ["a", "b"]})
        loaded, meta = load_checkpoint(path)
        assert meta["extra"]["classes"] == ["a", "b"]
        assert meta["magic"] == "polardet-ckpt"
        assert loaded.dtype == net.dtype == np.float32
        img = np.random.default_rng(0).uniform(0, 1, (32, 32))
        for a, b in zip(predict_planes(net, img), predict_planes(loaded, img)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["net.npz", "net", "net.ckpt"])
    def test_file_is_the_savez_archive(self, tmp_path, name):
        # the archive np.savez writes for the header and parameters, byte for
        # byte, under the path np.savez would give it
        net = ToyNet(num_classes=2, base_channels=2, seed=5)
        save_checkpoint(tmp_path / name, net, extra={"iterations": 3})
        want = tmp_path / "want" / name
        want.parent.mkdir()
        meta = {"magic": "polardet-ckpt", "version": 1, "num_classes": 2,
                "base_channels": 2, "stride": 4,
                "reg_reduction": "mean_over_pole_cells", "extra": {"iterations": 3}}
        np.savez(want, meta=json.dumps(meta),
                 **{f"param_{i:03d}": p.value for i, p in enumerate(net.parameters())})
        written = sorted(f.name for f in tmp_path.iterdir() if f.is_file())
        assert written == sorted(f.name for f in want.parent.iterdir())
        assert (tmp_path / written[0]).read_bytes() == (want.parent / written[0]).read_bytes()

    def test_float64_checkpoint_loads_into_float32_net(self, tmp_path):
        # a net trained in float64, saved, and loaded into the default
        # float32 net: the parameters are the same bytes, and on held-out
        # scenes the detections agree in count and class, with corners and
        # scores within 1e-3 (float32 rounding moves them by about 1e-5)
        from polardet.postprocess import decode_poles, extract_pole_points
        from polardet.synthdata import SceneSpec, generate_dataset
        spec = SceneSpec(width=32, height=32, num_classes=2, max_objects=3)
        grid = GridConfig(32, 32, 4, 2)
        scenes = list(generate_dataset(spec, 20, 0))
        images = np.array([img for _iid, img, _c, _k in scenes])
        targets = encode_generated([(c, k) for _iid, _img, c, k in scenes], grid)
        net = ToyNet(2, 4, seed=0, dtype=np.float64)
        train(net, images, targets, TrainConfig(iterations=150, batch_size=4,
                                                learning_rate=0.005))
        save_checkpoint(tmp_path / "f64.npz", net)
        loaded, _meta = load_checkpoint(tmp_path / "f64.npz")
        assert loaded.dtype == np.float32
        for p, q in zip(net.parameters(), loaded.parameters()):
            assert p.value.tobytes() == q.value.tobytes()

        def decode(model, img):
            heat, *reg = predict_planes(model, img)
            return decode_poles(extract_pole_points(heat, 0.3), *reg, grid).detections

        total = 0
        for _iid, img, _corners, _class_id in generate_dataset(spec, 10, 99):
            ref, got = decode(net, img), decode(loaded, img)
            assert len(got) == len(ref)
            total += len(ref)
            np.testing.assert_array_equal(got.class_id, ref.class_id)
            assert np.abs(got.corners - ref.corners).max(initial=0.0) < 1e-3
            assert np.abs(got.score - ref.score).max(initial=0.0) < 1e-3
        assert total >= 5

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=json.dumps({"magic": "other", "version": 1}))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        net = ToyNet(1, 2)
        path = tmp_path / "v9.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(arrays["meta"].item())
        meta["version"] = 99
        arrays["meta"] = json.dumps(meta)
        np.savez(path, **arrays)
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "no_meta.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_tampered_array_shape_rejected(self, tmp_path):
        net = ToyNet(1, 2)
        path = tmp_path / "t.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param_000"] = np.zeros((1, 1, 1, 1))
        np.savez(path, **arrays)
        with pytest.raises(ShapeError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
    def test_malformed_file_is_version_error(self, tmp_path, case):
        write, message = MALFORMED_CHECKPOINTS[case]
        path = tmp_path / "bad.npz"
        write(path)
        with pytest.raises(VersionError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
    def test_every_npy_format_version_loads(self, tmp_path, version):
        path = tmp_path / "v.npz"
        _rewritten_members(path, lambda arr: _npy_bytes(arr, version=version))
        loaded, meta = load_checkpoint(path)
        assert meta["magic"] == "polardet-ckpt"
        for p, q in zip(ToyNet(2, 2).parameters(), loaded.parameters()):
            assert q.value.tobytes() == p.value.tobytes()

    def test_fortran_order_member_gives_the_same_values(self, tmp_path):
        path = tmp_path / "f.npz"
        _rewritten_members(path, lambda arr: _npy_bytes(np.asfortranarray(arr)))
        with zipfile.ZipFile(path) as zf:
            assert b"'fortran_order': True" in zf.read("param_004.npy")
        loaded, _meta = load_checkpoint(path)
        for p, q in zip(ToyNet(2, 2).parameters(), loaded.parameters()):
            assert q.value.tobytes() == p.value.tobytes()

    @pytest.mark.parametrize("header", [
        # what np.load reads but np.save never writes: keys out of order,
        # other spacing, a structured dtype, a descr without byte order
        "{'shape': (2, 1, 3, 3), 'fortran_order': False, 'descr': '<f8', }",
        "{'descr':'<f8','fortran_order':False,'shape':(2, 1, 3, 3)}",
        "{'descr': [('a', '<f8')], 'fortran_order': False, 'shape': (2, 1, 3, 3), }",
        "{'descr': 'f8', 'fortran_order': False, 'shape': (2, 1, 3, 3), }",
    ])
    def test_other_npy_header_is_version_error_naming_the_member(self, tmp_path,
                                                                   header):
        path = tmp_path / "h.npz"
        _rewritten_members(path, lambda arr: _npy_header_bytes(header, arr.tobytes()),
                           {"param_000"})
        with pytest.raises(VersionError, match="unreadable checkpoint array param_000"):
            load_checkpoint(path)

    def test_short_member_is_version_error_naming_it(self, tmp_path):
        path = tmp_path / "s.npz"
        _rewritten_members(path, lambda arr: _npy_bytes(arr)[:-8], {"param_002"})
        with pytest.raises(VersionError, match="unreadable checkpoint array param_002"):
            load_checkpoint(path)

    def test_deflated_archive_loads_the_same_weights(self, tmp_path):
        net = ToyNet(2, 2, seed=5)
        save_checkpoint(tmp_path / "net.npz", net)
        with np.load(tmp_path / "net.npz") as data:
            np.savez_compressed(tmp_path / "z.npz", **{k: data[k] for k in data.files})
        loaded, _meta = load_checkpoint(tmp_path / "z.npz")
        for p, q in zip(net.parameters(), loaded.parameters()):
            assert p.value.tobytes() == q.value.tobytes()

    @pytest.mark.parametrize("method", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
    def test_other_compression_is_version_error_naming_the_member(self, tmp_path,
                                                                  method):
        path = tmp_path / "c.npz"
        save_checkpoint(path, ToyNet(2, 2))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        with zipfile.ZipFile(path, "w") as zf:
            for key, arr in arrays.items():
                zf.writestr(f"{key}.npy", _npy_bytes(arr),
                            compress_type=method if key == "param_001" else None)
        with pytest.raises(VersionError, match="param_001: .* compressed by method"):
            load_checkpoint(path)

    def test_local_header_of_another_member_is_version_error(self, tmp_path):
        # the central directory points param_003 at a local header that
        # names another member
        path = tmp_path / "n.npz"
        save_checkpoint(path, ToyNet(2, 2))
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            offset = zf.getinfo("param_003.npy").header_offset
        raw[offset + 30:offset + 43] = b"param_009.npy"  # after the 30-byte header
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError, match="param_003: bad local header"):
            load_checkpoint(path)

    def test_load_draws_no_init(self, tmp_path, monkeypatch):
        # the topology comes from the header and the weights from the file:
        # a random init would be drawn only to be overwritten
        net = ToyNet(num_classes=3, base_channels=4, seed=2)
        save_checkpoint(tmp_path / "net.npz", net)

        def no_draw(*_args, **_kwargs):
            raise AssertionError("load_checkpoint made a generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded, _meta = load_checkpoint(tmp_path / "net.npz")
        assert [p.name for p in loaded.parameters()] == \
            [p.name for p in net.parameters()]
        for p, q in zip(net.parameters(), loaded.parameters()):
            assert q.value.tobytes() == p.value.tobytes()
            assert not q.grad.any()


class TestImageToInput:
    def test_range_and_shape(self):
        x = image_to_input(np.array([[0.0, 0.5], [1.0, 0.25]]))
        assert x.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(x[0, 0], [[-1.0, 0.0], [1.0, -0.5]])

    def test_batch_of_images(self):
        x = image_to_input([np.zeros((4, 4)), np.ones((4, 4))])
        assert x.shape == (2, 1, 4, 4)

    def test_raster_gives_the_bits_of_its_float_image(self):
        raster = np.arange(256, dtype=np.uint8).reshape(2, 8, 16)
        x = image_to_input(raster)
        assert x.dtype == np.float64 and x.shape == (2, 1, 8, 16)
        assert x.tobytes() == image_to_input(raster.astype(np.float64) / 255.0).tobytes()
        assert image_to_input(raster[0]).tobytes() == x[:1].tobytes()
