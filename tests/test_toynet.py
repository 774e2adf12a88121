import json
import math
import tracemalloc

import numpy as np
import pytest

from polardet.encoding import GridConfig, encode_regression
from polardet.errors import (DivergenceError, ShapeError, StateError,
                             VersionError)
from polardet.geometry import Point2, PolarBox
from polardet.gradcheck import check_net_gradients
from polardet.losses import LossConfig, pole_focal_loss, total_regression_loss
from polardet.toynet import (Adam, Conv2d, ReLU, ToyNet, TrainConfig,
                             TrainingSample, compute_batch_loss,
                             image_to_input, load_checkpoint, predict_planes,
                             save_checkpoint, train)


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


def tiny_batch(seed=0, num_images=2, size=32, num_classes=2):
    """Synthetic images plus encoded targets for loss-level tests."""
    rng = np.random.default_rng(seed)
    cfg = GridConfig(size, size, 4, num_classes)
    images, targets = [], []
    for _ in range(num_images):
        images.append(rng.uniform(0, 1, (size, size)))
        boxes, cells = [], set()
        while len(boxes) < 2:
            x, y = rng.uniform(6, size - 6, 2)
            cell = (int(x // 4), int(y // 4))
            if cell in cells:
                continue
            cells.add(cell)
            t1 = rng.uniform(0.3, 1.0)
            boxes.append(PolarBox(Point2(x, y), rng.uniform(3, 6), t1,
                                  t1 + rng.uniform(0.6, 1.4),
                                  int(rng.integers(num_classes))))
        targets.append(encode_regression(boxes, cfg))
    return image_to_input(images), targets


class TestConv2d:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_reference(self, stride):
        rng = np.random.default_rng(0)
        conv = Conv2d("c", 3, 4, stride, rng)
        conv.bias.value[:] = rng.standard_normal(4)
        for h, w in [(8, 8), (7, 5)]:
            x = rng.standard_normal((2, 3, h, w))
            got = conv.forward(x)
            expected = conv3x3_reference(x, conv.weight.value, conv.bias.value,
                                         stride)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            assert got.shape == (2, 4, (h - 1) // stride + 1,
                                 (w - 1) // stride + 1)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_matches_loop_reference(self, stride):
        # odd, non-square maps: every gradient entry, not a sample of them
        rng = np.random.default_rng(5)
        conv = Conv2d("c", 3, 4, stride, rng)
        x = rng.standard_normal((2, 3, 7, 5))
        dout = rng.standard_normal(conv.forward(x).shape)
        dx = conv.backward(dout)
        dweight, dbias, dx_ref = conv3x3_backward_reference(
            x, conv.weight.value, dout, stride)
        assert dx.shape == x.shape
        np.testing.assert_allclose(conv.weight.grad, dweight, rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.bias.grad, dbias, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-10)

    def test_weight_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        conv = Conv2d("c", 2, 3, 2, rng)
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
        conv = Conv2d("c", 1, 2, 1, rng)
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
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 1, 30, 32)))

    def test_wrong_channel_count_rejected(self):
        net = ToyNet(num_classes=1, base_channels=2)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 3, 32, 32)))

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

    def test_parameter_count_small_variant(self):
        # 20 + 76 + 2*296 + 74 + 37 + 74, counted layer by layer by hand
        net = ToyNet(num_classes=2, base_channels=2)
        assert net.num_parameters() == 873


class TestBatchLoss:
    def test_matches_manual_composition(self):
        x, targets = tiny_batch()
        net = ToyNet(num_classes=2, base_channels=2, seed=3)
        cfg = LossConfig()
        stats = compute_batch_loss(net, x, targets, cfg, backward=False)

        out = net.forward(x)
        pole = np.mean([pole_focal_loss(out.heat[b], t.heatmap, cfg,
                                        len(t.pole_cells)).value
                        for b, t in enumerate(targets)])
        reg_terms = []
        for b, t in enumerate(targets):
            for _cid, cx, cy in t.pole_cells:
                reg_terms.append(total_regression_loss(
                    (out.rho[b, cy, cx], out.theta[b, 0, cy, cx],
                     out.theta[b, 1, cy, cx]),
                    (t.rho[cy, cx], t.theta1[cy, cx], t.theta2[cy, cx]),
                    cfg).value)
        assert stats.pole == pytest.approx(pole, rel=1e-12)
        assert stats.reg == np.mean(reg_terms)
        assert stats.total == pole + 0.1 * np.mean(reg_terms)

    def test_batch_size_mismatch_rejected(self):
        x, targets = tiny_batch()
        net = ToyNet(num_classes=2, base_channels=2)
        with pytest.raises(ShapeError):
            compute_batch_loss(net, x, targets[:1], LossConfig())

    def test_gradients_match_finite_differences(self):
        x, targets = tiny_batch(seed=5)
        net = ToyNet(num_classes=2, base_channels=2, seed=7)
        rng = np.random.default_rng(11)
        summary = check_net_gradients(net, x, targets, LossConfig(), rng,
                                      num_coords=80)
        assert summary.max_rel_error < 1e-5

    def test_batch_without_pole_cells(self):
        x, targets = tiny_batch()
        empty = [encode_regression([], GridConfig(32, 32, 4, 2))] * len(targets)
        net = ToyNet(num_classes=2, base_channels=2, seed=3)
        stats = compute_batch_loss(net, x, empty, LossConfig())
        assert stats.reg == 0.0
        assert stats.total == stats.pole > 0.0
        assert all(np.isfinite(p.grad).all() for p in net.parameters())
        assert np.any(net.head_heat.weight.grad != 0.0)
        assert not np.any(net.head_rho.weight.grad)
        assert not np.any(net.head_angle.weight.grad)

    def test_gradients_match_fd_with_an_empty_image(self):
        x, targets = tiny_batch(seed=5, num_images=3)
        targets[1] = encode_regression([], GridConfig(32, 32, 4, 2))
        net = ToyNet(num_classes=2, base_channels=2, seed=7)
        summary = check_net_gradients(net, x, targets, LossConfig(),
                                      np.random.default_rng(11), num_coords=80)
        assert summary.max_rel_error < 1e-5


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # with constant gradient g: mhat = g, vhat = g^2, update ~ lr * sign(g)
        from polardet.toynet import Param
        p = Param("p", np.array([1.0, -2.0]))
        p.grad = np.array([0.5, -0.25])
        cfg = TrainConfig(learning_rate=0.01)
        opt = Adam([p], cfg)
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

    def test_zero_learning_rate_leaves_params_unchanged(self):
        from polardet.toynet import Param
        p = Param("p", np.array([3.0, -1.0]))
        p.grad = np.array([10.0, -10.0])
        opt = Adam([p], TrainConfig(learning_rate=0.0))
        opt.step()
        np.testing.assert_array_equal(p.value, [3.0, -1.0])


class TestTrain:
    def _samples(self, n=6, size=32, seed=0):
        from polardet.synthdata import SceneSpec, generate_dataset
        spec = SceneSpec(width=size, height=size, num_classes=2,
                         min_objects=1, max_objects=2)
        cfg = GridConfig(size, size, 4, 2)
        out = []
        from polardet.geometry import quad_to_polar
        for _iid, img, boxes in generate_dataset(spec, n, seed):
            out.append(TrainingSample(
                img, encode_regression([quad_to_polar(b) for b in boxes], cfg)))
        return out

    def test_loss_decreases_on_overfit_task(self):
        samples = self._samples()
        net = ToyNet(num_classes=2, base_channels=4, seed=0)
        history = train(net, samples,
                        TrainConfig(iterations=200, batch_size=4, seed=0))
        assert len(history) == 200
        start = np.mean([h.total for h in history[:20]])
        end = np.mean([h.total for h in history[-20:]])
        assert end < 0.5 * start

    def test_history_entries(self):
        samples = self._samples(n=2)
        net = ToyNet(num_classes=2, base_channels=2)
        history = train(net, samples, TrainConfig(iterations=3, batch_size=2))
        assert [h.iteration for h in history] == [0, 1, 2]
        for h in history:
            assert h.total == pytest.approx(h.pole + 0.1 * h.reg)

    def test_non_finite_loss_raises_divergence_with_iteration(self):
        # NaN images are laundered by relu masking (nan > 0 is False), so
        # poison a regression target instead to force a non-finite loss
        samples = self._samples(n=2)
        for s in samples:
            _cid, cx, cy = s.target.pole_cells[0]
            s.target.rho[cy, cx] = np.nan
        net = ToyNet(num_classes=2, base_channels=2)
        with pytest.raises(DivergenceError) as err:
            train(net, samples, TrainConfig(iterations=5, batch_size=2))
        assert err.value.iteration == 0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            train(ToyNet(1, 2), [], TrainConfig())

    def test_callback_sees_every_iteration(self):
        samples = self._samples(n=2)
        seen = []
        train(ToyNet(2, 2), samples, TrainConfig(iterations=4, batch_size=2),
              callback=lambda it, stats: seen.append(it))
        assert seen == [0, 1, 2, 3]


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path):
        net = ToyNet(num_classes=2, base_channels=4, seed=5)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, extra={"classes": ["a", "b"]})
        loaded, meta = load_checkpoint(path)
        assert meta["extra"]["classes"] == ["a", "b"]
        assert meta["magic"] == "polardet-ckpt"
        img = np.random.default_rng(0).uniform(0, 1, (32, 32))
        for a, b in zip(predict_planes(net, img), predict_planes(loaded, img)):
            np.testing.assert_array_equal(a, b)

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


class TestImageToInput:
    def test_range_and_shape(self):
        x = image_to_input(np.array([[0.0, 0.5], [1.0, 0.25]]))
        assert x.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(x[0, 0], [[-1.0, 0.0], [1.0, -0.5]])

    def test_batch_of_images(self):
        x = image_to_input([np.zeros((4, 4)), np.ones((4, 4))])
        assert x.shape == (2, 1, 4, 4)
