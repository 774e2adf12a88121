"""Finite-difference validation of every analytic gradient in the package.

Central differences with a fixed step, compared by relative error with a
floored denominator so near-zero gradients do not blow the ratio up. The
samplers keep a margin around the genuinely non-differentiable loci (sign
flips inside absolute values) but otherwise roam the loss domains freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (LossConfig, pole_focal_loss, polar_ring_loss, smooth_l1,
                     total_regression_loss)
from .toynet import ToyNet, compute_batch_loss

DEFAULT_STEP = 1e-5
ERROR_FLOOR = 1e-3


@dataclass(frozen=True)
class GradCheckSummary:
    name: str
    num_points: int
    max_rel_error: float
    mean_rel_error: float


def central_difference(f, x: float, step: float = DEFAULT_STEP) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def relative_error(analytic: float, numeric: float,
                   floor: float = ERROR_FLOOR) -> float:
    scale = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / scale


def _summarize(name: str, errors: list[float]) -> GradCheckSummary:
    arr = np.asarray(errors)
    return GradCheckSummary(name, len(errors), float(arr.max()), float(arr.mean()))


def _audit(name: str, probe, num_points: int, step: float) -> GradCheckSummary:
    """Central differences at ``num_points`` probes: ``probe(i)`` draws the
    i-th sample and returns the loss as a function of one coordinate, that
    coordinate's value and the analytic derivative there."""
    errors = []
    for i in range(num_points):
        f, x, analytic = probe(i)
        errors.append(relative_error(analytic, central_difference(f, x, step)))
    return _summarize(name, errors)


def check_focal_gradients(rng: np.random.Generator, num_points: int = 1000,
                          step: float = DEFAULT_STEP,
                          cfg: LossConfig | None = None) -> GradCheckSummary:
    """Perturb one heatmap cell at a time on random positive/negative mixes."""
    cfg = cfg or LossConfig()

    def probe(_i):
        shape = (1, 4, 4)
        target = rng.uniform(0.0, 0.999, shape)
        pole = (0, int(rng.integers(4)), int(rng.integers(4)))
        target[pole] = 1.0
        # keep pred away from the clamp bounds so the step cannot cross them
        pred = rng.uniform(0.01, 0.99, shape)
        num_objects = int(rng.integers(1, 4))
        cell = (0, int(rng.integers(4)), int(rng.integers(4)))

        analytic = pole_focal_loss(pred, target, cfg, num_objects).gradients["pred"][cell]

        def value_at(v):
            moved = pred.copy()
            moved[cell] = v
            return pole_focal_loss(moved, target, cfg, num_objects).value

        return value_at, pred[cell], analytic

    return _audit("pole_focal_loss", probe, num_points, step)


def check_smooth_l1_gradients(rng: np.random.Generator, num_points: int = 1000,
                              step: float = DEFAULT_STEP,
                              beta: float = 1.0) -> GradCheckSummary:
    def probe(_i):
        while True:
            u = rng.uniform(-4.0, 4.0)
            u_star = rng.uniform(-4.0, 4.0)
            if abs(abs(u - u_star) - beta) >= 1e-3:  # off the second-derivative seam
                return (lambda v: smooth_l1(v, u_star, beta).value, u,
                        smooth_l1(u, u_star, beta).gradients["u"])

    return _audit("smooth_l1", probe, num_points, step)


def _ring_sample(rng: np.random.Generator, beta: float):
    """(rho, rho*, theta, theta*) away from sign flips and the SL1 seam."""
    while True:
        rho = rng.uniform(0.5, 3.5)
        rho_star = rng.uniform(0.5, 3.5)
        theta = rng.uniform(0.05, np.pi - 0.05)
        theta_star = rng.uniform(0.05, np.pi - 0.05)
        dr2 = rho * rho - rho_star * rho_star
        dt = theta - theta_star
        if abs(dr2) < 0.02 or abs(dt) < 0.02:
            continue
        if abs(abs(dr2 * dt) - beta) < 1e-3:
            continue
        return rho, rho_star, theta, theta_star


def check_ring_gradients(rng: np.random.Generator, num_points: int = 1000,
                         step: float = DEFAULT_STEP,
                         beta: float = 1.0) -> GradCheckSummary:
    def probe(i):
        rho, rho_star, theta, theta_star = _ring_sample(rng, beta)
        grads = polar_ring_loss(rho, rho_star, theta, theta_star, beta).gradients
        if i % 2 == 0:
            return (lambda v: polar_ring_loss(v, rho_star, theta, theta_star, beta).value,
                    rho, grads["rho"])
        return (lambda v: polar_ring_loss(rho, rho_star, v, theta_star, beta).value,
                theta, grads["theta"])

    return _audit("polar_ring_loss", probe, num_points, step)


def check_total_regression_gradients(rng: np.random.Generator,
                                     num_points: int = 1000,
                                     step: float = DEFAULT_STEP,
                                     cfg: LossConfig | None = None) -> GradCheckSummary:
    cfg = cfg or LossConfig()
    names = ("rho", "theta1", "theta2")

    def probe(i):
        rho, rho_star, t1, t1_star = _ring_sample(rng, cfg.smooth_l1_beta)
        _, _, t2, t2_star = _ring_sample(rng, cfg.smooth_l1_beta)
        pred = (rho, t1, t2)
        truth = (rho_star, t1_star, t2_star)
        coord = i % 3
        analytic = total_regression_loss(pred, truth, cfg).gradients[names[coord]]

        def value_at(v):
            moved = list(pred)
            moved[coord] = v
            return total_regression_loss(tuple(moved), truth, cfg).value

        return value_at, pred[coord], analytic

    return _audit("total_regression_loss", probe, num_points, step)


LOSS_CHECKERS = {
    "focal": check_focal_gradients,
    "smooth_l1": check_smooth_l1_gradients,
    "ring": check_ring_gradients,
    "total_reg": check_total_regression_gradients,
}


def check_all_losses(seed: int = 0, num_points: int = 1000,
                     losses=None) -> list[GradCheckSummary]:
    """Run the named loss checkers (all four by default) on one rng stream."""
    rng = np.random.default_rng(seed)
    names = list(LOSS_CHECKERS) if losses is None else list(losses)
    unknown = [n for n in names if n not in LOSS_CHECKERS]
    if unknown:
        raise ValueError(f"unknown loss checkers {unknown}")
    return [LOSS_CHECKERS[n](rng, num_points) for n in names]


def check_net_gradients(net: ToyNet, x: np.ndarray, targets, cfg: LossConfig,
                        rng: np.random.Generator, num_coords: int = 50,
                        step: float = DEFAULT_STEP) -> GradCheckSummary:
    """End-to-end check: perturb random weights, compare d(total loss).

    The net must compute in float64: at this step size a float32 forward's
    rounding swamps the central difference.
    """
    if net.dtype != np.float64:
        raise ValueError(f"gradient audit needs a float64 net, got {net.dtype}")
    net.zero_grads()
    compute_batch_loss(net, x, targets, cfg, backward=True)
    params = net.parameters()
    analytic = [p.grad.copy() for p in params]
    errors = []
    attempts = 0
    while len(errors) < num_coords and attempts < 20 * num_coords:
        attempts += 1
        pi = int(rng.integers(len(params)))
        flat = params[pi].value.reshape(-1)
        ci = int(rng.integers(flat.size))
        orig = flat[ci]
        flat[ci] = orig + step
        up = compute_batch_loss(net, x, targets, cfg, backward=False).total
        signs_up = net.relu_signs()
        flat[ci] = orig - step
        down = compute_batch_loss(net, x, targets, cfg, backward=False).total
        signs_down = net.relu_signs()
        flat[ci] = orig
        if not np.array_equal(signs_up, signs_down):
            # the perturbation pushed a unit across zero; the central
            # difference straddles a kink there, so the sample is invalid
            continue
        fd = (up - down) / (2.0 * step)
        errors.append(relative_error(analytic[pi].reshape(-1)[ci], fd))
    return _summarize("toynet_backward", errors)
