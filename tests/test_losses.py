import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet.errors import EmptyImage, InvalidRadius, ShapeError
from polardet.losses import (CLAMP_EPS, LossConfig, LossValue, pole_focal_loss,
                             polar_ring_loss, ring_area, smooth_l1,
                             total_loss, total_regression_loss)

from oracles import (fd_gradient, pole_focal_loss_reference,
                     regression_loss_reference)


def focal_reference(pred, target, alpha, beta, num_objects):
    """Plain-loop re-derivation of the heatmap focal loss value."""
    total = 0.0
    for p_raw, t in zip(np.ravel(pred), np.ravel(target)):
        p = min(max(p_raw, CLAMP_EPS), 1.0 - CLAMP_EPS)
        if t == 1.0:
            total += (1.0 - p) ** alpha * math.log(p)
        else:
            total += (1.0 - t) ** beta * p ** alpha * math.log(1.0 - p)
    return -total / num_objects


class TestPoleFocalLoss:
    def test_single_positive_hand_value(self):
        # -(1 - 0.6)^2 * ln(0.6) = 0.16 * 0.510825...
        out = pole_focal_loss(np.array([[0.6]]), np.array([[1.0]]),
                              LossConfig(), num_objects=1)
        assert out.value == pytest.approx(-0.16 * math.log(0.6), rel=1e-12)

    def test_single_negative_hand_value(self):
        # -(1 - 0.5)^4 * 0.3^2 * ln(0.7)
        out = pole_focal_loss(np.array([[0.3]]), np.array([[0.5]]),
                              LossConfig(), num_objects=1)
        assert out.value == pytest.approx(-0.0625 * 0.09 * math.log(0.7), rel=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = rng.uniform(0.0, 1.0, (2, 5, 5))
            target = rng.uniform(0.0, 0.999, (2, 5, 5))
            target[0, 2, 2] = 1.0
            target[1, 4, 1] = 1.0
            n = int(rng.integers(1, 5))
            out = pole_focal_loss(pred, target, LossConfig(), n)
            assert out.value == pytest.approx(
                focal_reference(pred, target, 2.0, 4.0, n), rel=1e-12)

    def test_perfect_prediction_is_tiny(self):
        target = np.zeros((1, 4, 4))
        target[0, 1, 1] = 1.0
        out = pole_focal_loss(target.copy(), target, LossConfig(), 1)
        assert 0.0 <= out.value < 1e-9

    def test_extreme_predictions_stay_finite(self):
        pred = np.array([[0.0, 1.0]])
        target = np.array([[1.0, 0.0]])
        out = pole_focal_loss(pred, target, LossConfig(), 1)
        assert math.isfinite(out.value)
        # positive cell at p ~ eps: value ~ -ln(eps)
        assert out.value > -math.log(CLAMP_EPS) * 0.9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, (1, 3, 3))
        target = rng.uniform(0.0, 0.9, (1, 3, 3))
        target[0, 1, 2] = 1.0
        cfg = LossConfig()
        grad = pole_focal_loss(pred, target, cfg, 2).gradients["pred"]
        for cell in [(0, 0, 0), (0, 1, 2), (0, 2, 1)]:
            def value_at(v, cell=cell):
                probe = pred.copy()
                probe[cell] = v
                return pole_focal_loss(probe, target, cfg, 2).value
            assert grad[cell] == pytest.approx(
                fd_gradient(value_at, pred[cell]), abs=1e-7)

    def test_positive_cell_gradient_pushes_up(self):
        out = pole_focal_loss(np.array([[0.4]]), np.array([[1.0]]), LossConfig(), 1)
        assert out.gradients["pred"][0, 0] < 0.0

    def test_negative_cell_gradient_pushes_down(self):
        out = pole_focal_loss(np.array([[0.4]]), np.array([[0.0]]), LossConfig(), 1)
        assert out.gradients["pred"][0, 0] > 0.0

    def test_normalization_by_object_count(self):
        pred = np.array([[0.3, 0.8]])
        target = np.array([[1.0, 0.2]])
        one = pole_focal_loss(pred, target, LossConfig(), 1)
        four = pole_focal_loss(pred, target, LossConfig(), 4)
        assert four.value == pytest.approx(one.value / 4.0)
        np.testing.assert_allclose(four.gradients["pred"],
                                   one.gradients["pred"] / 4.0)

    def test_batch_call_matches_per_image_loop(self):
        # one (N, C, H, W) call with an (N,) count vector: each image's value
        # sums its cells in another order than the plain loop, so it holds
        # to 1e-12 relative; the gradient equals a one-image call's exactly
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.0, 1.0, (4, 2, 6, 6))
        target = rng.uniform(0.0, 0.999, (4, 2, 6, 6))
        target[:, 1, 3, 2] = 1.0
        target[2, 0, 0, 5] = 1.0
        counts = np.array([1, 3, 2, 1])
        batch = pole_focal_loss(pred, target, LossConfig(), counts)
        assert batch.value.shape == (4,)
        for b, n in enumerate(counts.tolist()):
            one = pole_focal_loss(pred[b], target[b], LossConfig(), n)
            assert isinstance(one.value, float)
            assert batch.value[b] == pytest.approx(
                focal_reference(pred[b], target[b], 2.0, 4.0, n), rel=1e-12)
            np.testing.assert_array_equal(batch.gradients["pred"][b],
                                          one.gradients["pred"])

    @pytest.mark.parametrize("alpha, beta", [(2.0, 4.0), (1.5, 3.0), (0.0, 0.0)])
    def test_positives_overwritten_is_the_two_branch_formulation(self, alpha, beta):
        # every cell as a negative, then the positives' own terms: the value
        # and gradient bits of both branches taken everywhere and picked by
        # np.where, also on a channel-major pred (the net's fused head) and
        # at the clamp bounds
        cfg = LossConfig(alpha_focal=alpha, beta_focal=beta)
        rng = np.random.default_rng(21)
        target = rng.uniform(0.0, 1.0, (8, 2, 16, 16))
        target[rng.uniform(size=target.shape) < 0.1] = 1.0
        target[1] = 0.0
        pred = rng.uniform(0.0, 1.0, (2, 8, 16, 16)).transpose(1, 0, 2, 3)
        pred[0, 0, 0, :3] = (0.0, 1.0, 1e-9)
        target[0, 0, 0, :3] = 1.0
        for counts in (np.arange(1, 9), 5):
            for p, t in ((pred, target), (pred[0], target[0])):
                c = counts[0] if p.ndim == 3 and np.ndim(counts) else counts
                got = pole_focal_loss(p, t, cfg, c)
                value, grad = pole_focal_loss_reference(p, t, cfg, c)
                assert np.asarray(got.value).tobytes() == np.asarray(value).tobytes()
                assert got.gradients["pred"].tobytes() == grad.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            pole_focal_loss(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)),
                            LossConfig(), 1)
        with pytest.raises(ShapeError):  # three counts for two images
            pole_focal_loss(np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 2)),
                            LossConfig(), [1, 1, 1])

    def test_zero_objects_rejected(self):
        with pytest.raises(EmptyImage):
            pole_focal_loss(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                            LossConfig(), 0)
        with pytest.raises(EmptyImage):
            pole_focal_loss(np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 2)),
                            LossConfig(), [1, 0])


class TestSmoothL1:
    def test_quadratic_branch_hand_value(self):
        assert smooth_l1(1.4, 1.0).value == pytest.approx(0.08)

    def test_linear_branch_hand_value(self):
        assert smooth_l1(3.0, 1.3).value == pytest.approx(1.2)
        assert smooth_l1(-1.0, 1.5).value == pytest.approx(2.0)

    def test_custom_beta(self):
        # 0.5 * 1^2 / 2 inside the wider quadratic zone
        assert smooth_l1(2.0, 1.0, beta=2.0).value == pytest.approx(0.25)

    def test_branches_meet_at_beta(self):
        inner = 0.5 * (1.0 - 1e-12) ** 2
        assert smooth_l1(1.0 - 1e-12, 0.0).value == pytest.approx(inner)
        assert smooth_l1(1.0 + 1e-12, 0.0).value == pytest.approx(0.5, abs=1e-9)

    def test_gradients(self):
        assert smooth_l1(0.3, 0.0).gradients["u"] == pytest.approx(0.3)
        assert smooth_l1(5.0, 0.0).gradients["u"] == 1.0
        assert smooth_l1(-5.0, 0.0).gradients["u"] == -1.0

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100)
    def test_gradient_matches_fd(self, u, u_star):
        if abs(abs(u - u_star) - 1.0) < 1e-3:
            return  # second-derivative seam, central FD degrades there
        got = smooth_l1(u, u_star).gradients["u"]
        assert got == pytest.approx(fd_gradient(lambda v: smooth_l1(v, u_star).value, u),
                                    abs=1e-5)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            smooth_l1(1.0, 0.0, beta=0.0)


class TestRingArea:
    def test_zero_when_radii_agree(self):
        assert ring_area(2.0, 2.0, 0.4, 1.3) == 0.0

    def test_zero_when_angles_agree(self):
        assert ring_area(2.0, 5.0, 0.7, 0.7) == 0.0

    def test_hand_value(self):
        # 0.5 * |(2^2 - 1^2)(0.5 - 0.2)| = 0.45
        got = ring_area(2.0, 1.0, 0.5, 0.2)
        assert got == pytest.approx(0.45, rel=1e-15)

    def test_sign_invariance(self):
        assert ring_area(1.0, 2.0, 0.2, 0.5) == ring_area(2.0, 1.0, 0.5, 0.2)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidRadius):
            ring_area(0.0, 1.0, 0.1, 0.2)
        with pytest.raises(InvalidRadius):
            ring_area(1.0, -2.0, 0.1, 0.2)


class TestPolarRingLoss:
    def test_zero_when_radii_agree(self):
        out = polar_ring_loss(2.0, 2.0, 0.4, 1.3)
        assert out.value == 0.0
        assert out.gradients["rho"] == 0.0

    def test_zero_when_angles_agree(self):
        out = polar_ring_loss(2.0, 5.0, 0.7, 0.7)
        assert out.value == 0.0
        assert out.gradients["theta"] == 0.0

    def test_quadratic_branch_hand_value(self):
        # g = |(4-1)(0.3)| = 0.9 < beta -> 0.5 * 0.81
        out = polar_ring_loss(2.0, 1.0, 0.5, 0.2)
        assert out.value == pytest.approx(0.405, rel=1e-12)
        # dl/dg = 0.9; dg/drho = 2*2*0.3; dg/dtheta = 3
        assert out.gradients["rho"] == pytest.approx(0.9 * 1.2, rel=1e-12)
        assert out.gradients["theta"] == pytest.approx(0.9 * 3.0, rel=1e-12)

    def test_linear_branch_gradient(self):
        # g = |(9-1)(1.0)| = 8 > beta -> dl/dg = 1
        out = polar_ring_loss(3.0, 1.0, 1.5, 0.5)
        assert out.value == pytest.approx(7.5)
        assert out.gradients["rho"] == pytest.approx(2.0 * 3.0 * 1.0)

    def test_argument_is_twice_ring_area(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rho, rho_s = rng.uniform(0.5, 4.0, 2)
            t, t_s = rng.uniform(0.0, math.pi, 2)
            g = 2.0 * ring_area(rho, rho_s, t, t_s)
            expected = 0.5 * g * g if g < 1.0 else g - 0.5
            assert polar_ring_loss(rho, rho_s, t, t_s).value == \
                pytest.approx(expected, rel=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = rng.uniform(0.5, 3.0)
            rho_s = rng.uniform(0.5, 3.0)
            t, t_s = rng.uniform(0.1, 3.0, 2)
            if abs(rho - rho_s) < 0.05 or abs(t - t_s) < 0.05:
                continue
            if abs(abs((rho ** 2 - rho_s ** 2) * (t - t_s)) - 1.0) < 1e-3:
                continue
            out = polar_ring_loss(rho, rho_s, t, t_s)
            fd_rho = fd_gradient(lambda v: polar_ring_loss(v, rho_s, t, t_s).value, rho)
            fd_t = fd_gradient(lambda v: polar_ring_loss(rho, rho_s, v, t_s).value, t)
            assert out.gradients["rho"] == pytest.approx(fd_rho, abs=1e-6)
            assert out.gradients["theta"] == pytest.approx(fd_t, abs=1e-6)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidRadius):
            polar_ring_loss(-1.0, 1.0, 0.1, 0.2)


class TestTotalRegressionLoss:
    def test_composition(self):
        cfg = LossConfig()
        pred = (2.0, 0.5, 2.1)
        truth = (1.5, 0.8, 1.9)
        out = total_regression_loss(pred, truth, cfg)
        expected = (cfg.lambda_ring * (polar_ring_loss(2.0, 1.5, 0.5, 0.8).value
                                       + polar_ring_loss(2.0, 1.5, 2.1, 1.9).value)
                    + smooth_l1(2.0, 1.5).value
                    + smooth_l1(0.5, 0.8).value
                    + smooth_l1(2.1, 1.9).value)
        assert out.value == pytest.approx(expected, rel=1e-12)

    def test_perfect_prediction_is_zero(self):
        out = total_regression_loss((1.5, 0.4, 2.2), (1.5, 0.4, 2.2), LossConfig())
        assert out.value == 0.0
        assert all(g == 0.0 for g in out.gradients.values())

    def test_zero_ring_weight_leaves_smooth_l1_only(self):
        cfg = LossConfig(lambda_ring=0.0)
        pred, truth = (2.0, 0.5, 2.1), (1.5, 0.8, 1.9)
        out = total_regression_loss(pred, truth, cfg)
        expected = (smooth_l1(2.0, 1.5).value + smooth_l1(0.5, 0.8).value
                    + smooth_l1(2.1, 1.9).value)
        assert out.value == pytest.approx(expected, rel=1e-12)

    def test_gradients_match_fd(self):
        cfg = LossConfig()
        pred = [2.0, 0.5, 2.1]
        truth = (1.5, 0.8, 1.9)
        out = total_regression_loss(tuple(pred), truth, cfg)
        for i, key in enumerate(("rho", "theta1", "theta2")):
            def value_at(v, i=i):
                probe = list(pred)
                probe[i] = v
                return total_regression_loss(tuple(probe), truth, cfg).value
            assert out.gradients[key] == pytest.approx(
                fd_gradient(value_at, pred[i]), abs=1e-6)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestArrayInputs:
    """Shape-(K,) inputs give, bit for bit, what K scalar calls give."""

    @staticmethod
    def cells():
        rng = np.random.default_rng(9)
        rho, rho_s = rng.uniform(0.5, 4.0, (2, 12))
        t, t_s = rng.uniform(0.0, math.pi, (2, 12))
        rho_s[0], t_s[1] = rho[0], t[1]          # dr2 == 0, dt == 0
        rho[2], rho_s[2] = 2.5, 1.5              # |rho - rho*| == beta
        t[3], t_s[3] = 0.25, 1.25                # |t - t*| == beta
        rho[4], rho_s[4], t[4], t_s[4] = 1.5, 0.5, 1.0, 0.5  # ring g == beta
        rho[5], rho_s[5], t[5], t_s[5] = 1.0, 1.0, 0.7, 0.7
        return rho, rho_s, t, t_s

    def assert_matches_scalar_calls(self, fn, *args):
        got = fn(*args)
        calls = [fn(*(a[i] for a in args)) for i in range(len(args[0]))]
        if isinstance(got, LossValue):
            assert all(isinstance(c.value, np.float64) for c in calls)
            np.testing.assert_array_equal(_bits(got.value),
                                          _bits([c.value for c in calls]))
            for key, grad in got.gradients.items():
                assert grad.shape == got.value.shape
                assert all(isinstance(c.gradients[key], np.float64) for c in calls)
                np.testing.assert_array_equal(
                    _bits(grad), _bits([c.gradients[key] for c in calls]))
        else:
            assert all(isinstance(c, np.float64) for c in calls)
            np.testing.assert_array_equal(_bits(got), _bits(calls))

    def test_smooth_l1(self):
        rho, rho_s, t, t_s = self.cells()
        self.assert_matches_scalar_calls(smooth_l1, rho, rho_s)
        self.assert_matches_scalar_calls(smooth_l1, t, t_s)

    def test_ring_area(self):
        self.assert_matches_scalar_calls(ring_area, *self.cells())

    def test_polar_ring_loss(self):
        self.assert_matches_scalar_calls(polar_ring_loss, *self.cells())

    def test_total_regression_loss(self):
        rho, rho_s, t, t_s = self.cells()
        t2, t2_s = t[::-1].copy(), t_s[::-1].copy()
        cfg = LossConfig()
        pred, truth = (rho, t, t2), (rho_s, t_s, t2_s)
        got = total_regression_loss(pred, truth, cfg)
        calls = [total_regression_loss(tuple(a[i] for a in pred),
                                       tuple(a[i] for a in truth), cfg)
                 for i in range(len(rho))]
        np.testing.assert_array_equal(_bits(got.value),
                                      _bits([c.value for c in calls]))
        for key in ("rho", "theta1", "theta2"):
            np.testing.assert_array_equal(
                _bits(got.gradients[key]),
                _bits([c.gradients[key] for c in calls]))
        # and what the per-cell Python-float formulation gives
        reference = [regression_loss_reference(tuple(a[i] for a in pred),
                                               tuple(a[i] for a in truth),
                                               cfg.lambda_ring, cfg.smooth_l1_beta)
                     for i in range(len(rho))]
        np.testing.assert_array_equal(
            _bits(np.stack([got.value, got.gradients["rho"], got.gradients["theta1"],
                            got.gradients["theta2"]], axis=1)),
            _bits(reference))

    def test_empty_shape(self):
        empty = np.zeros(0)
        assert smooth_l1(empty, empty).value.shape == (0,)
        assert ring_area(empty, empty, empty, empty).shape == (0,)
        ring = polar_ring_loss(empty, empty, empty, empty)
        assert ring.value.shape == ring.gradients["theta"].shape == (0,)
        out = total_regression_loss((empty,) * 3, (empty,) * 3, LossConfig())
        assert out.value.shape == (0,)
        assert all(g.shape == (0,) for g in out.gradients.values())

    @pytest.mark.parametrize("bad", [0.0, -1.5])
    def test_any_nonpositive_radius_rejected(self, bad):
        rho, rho_s, t, t_s = self.cells()
        for i in range(len(rho)):
            for which in (0, 1):
                radii = [rho.copy(), rho_s.copy()]
                radii[which][i] = bad
                with pytest.raises(InvalidRadius, match=f"got .*{bad}"):
                    polar_ring_loss(radii[0], radii[1], t, t_s)
                with pytest.raises(InvalidRadius):
                    ring_area(radii[0], radii[1], t, t_s)
                with pytest.raises(InvalidRadius):
                    total_regression_loss((radii[0], t, t_s), (radii[1], t_s, t),
                                          LossConfig())


class TestTotalLoss:
    def test_weighted_sum(self):
        assert total_loss(3.0, 2.0, LossConfig()) == pytest.approx(3.2)

    def test_custom_weight(self):
        assert total_loss(1.0, 2.0, LossConfig(reg_weight=0.5)) == pytest.approx(2.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            total_loss(-0.1, 1.0, LossConfig())


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.alpha_focal == 2.0
        assert cfg.beta_focal == 4.0
        assert cfg.lambda_ring == 0.01
        assert cfg.reg_weight == 0.1

    def test_negative_hyperparameter_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(alpha_focal=-1.0)
        with pytest.raises(ValueError):
            LossConfig(smooth_l1_beta=0.0)
