"""The three training losses with analytic gradients, plus the combined objectives.

Pole-point classification uses a penalty-reduced focal loss over the heatmap;
regression couples Smooth-L1 terms on (rho, theta1, theta2) with a ring-area
penalty that ties radius and angle errors together. Every loss returns its
value and the gradient with respect to each differentiated input, so the
trainer needs no autodiff.

Angle errors enter as raw differences: targets live in [0, pi) and the
network's angle head is range-bounded to (0, pi), so wrap-around cannot occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptyImage, InvalidRadius, ShapeError

# focal-loss probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before
# the logarithms; gradients are evaluated at the clamped values
CLAMP_EPS = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters (focal exponents, ring weight, total-loss weight)."""

    alpha_focal: float = 2.0
    beta_focal: float = 4.0
    lambda_ring: float = 0.01
    reg_weight: float = 0.1
    smooth_l1_beta: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("alpha_focal", "beta_focal", "lambda_ring", "reg_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.smooth_l1_beta <= 0:
            raise ValueError("smooth_l1_beta must be positive")


@dataclass
class LossValue:
    """A loss and its gradients; elementwise arrays for array inputs."""

    value: float | np.ndarray
    gradients: dict


def pole_focal_loss(pred: np.ndarray, target: np.ndarray, cfg: LossConfig,
                    num_objects: ArrayLike) -> LossValue:
    """Penalty-reduced focal loss over a predicted heatmap.

    Cells where the target is exactly 1 are positives; every other cell is a
    negative whose penalty is damped by (1 - target)^beta. The sum is
    normalized by the image's object count.

    With a scalar ``num_objects`` the whole array is one image and the value
    is a float. With an (N,) vector of counts the leading axis of ``pred``
    and ``target`` indexes images, and the value is the (N,) per-image
    losses; the gradient always has ``pred``'s shape.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    counts = np.asarray(num_objects, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if counts.ndim > 1 or counts.shape != pred.shape[:counts.ndim]:
        raise ShapeError(f"num_objects {counts.shape} vs pred {pred.shape}")
    if np.any(counts < 1):
        raise EmptyImage("num_objects must be >= 1")

    a, b = cfg.alpha_focal, cfg.beta_focal
    p = np.clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)

    # every cell as a negative, then the few positives overwritten with
    # their own term and gradient, taken at those cells only
    log_1p = np.log1p(-p)
    p_a = p ** a
    damp = (1.0 - target) ** b
    terms = damp * p_a * log_1p
    grad = -damp * (a * p ** (a - 1.0) * log_1p - p_a / (1.0 - p))
    pos = target == 1.0
    pp = p[pos]
    log_p = np.log(pp)
    terms[pos] = (1.0 - pp) ** a * log_p
    grad[pos] = -(-a * (1.0 - pp) ** (a - 1.0) * log_p + (1.0 - pp) ** a / pp)
    per_image = tuple(range(counts.ndim, pred.ndim))
    value = -terms.sum(axis=per_image) / counts
    grad /= counts.reshape(counts.shape + (1,) * len(per_image))
    return LossValue(value if counts.ndim else float(value), {"pred": grad})


def smooth_l1(u: ArrayLike, u_star: ArrayLike, beta: float = 1.0) -> LossValue:
    """Smooth-L1 distance between predictions and their targets, elementwise.

    Quadratic within ``beta`` of the target, linear outside; the gradient is
    w.r.t. ``u``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    r = u - u_star
    a = np.abs(r)
    q = np.minimum(a, beta)  # |r| where quadratic; cannot overflow where not
    return LossValue(np.where(a < beta, 0.5 * q * q / beta, a - 0.5 * beta)[()],
                     {"u": np.where(a < beta, r / beta, np.sign(r))[()]})


def ring_area(rho: ArrayLike, rho_star: ArrayLike, theta: ArrayLike,
              theta_star: ArrayLike) -> ArrayLike:
    """Area of the ring sector swept between predicted and true (rho, theta).

    Zero exactly when the radii agree or the angles agree.
    """
    radii = np.concatenate([np.ravel(rho), np.ravel(rho_star)])
    if np.any(radii <= 0):
        raise InvalidRadius(f"radii must be positive, got {radii[radii <= 0][0]}")
    return 0.5 * np.abs((rho * rho - rho_star * rho_star) * (theta - theta_star))


def polar_ring_loss(rho: ArrayLike, rho_star: ArrayLike, theta: ArrayLike,
                    theta_star: ArrayLike, beta: float = 1.0) -> LossValue:
    """Smooth-L1 of the ring-sector product magnitude against zero.

    The product |(rho^2 - rho*^2)(theta - theta*)| is used as defined for the
    loss, i.e. without the 1/2 factor of the plain ring area; the difference
    is absorbed by the ring weight. Gradients are w.r.t. ``rho`` and ``theta``.
    """
    sl1 = smooth_l1(2.0 * ring_area(rho, rho_star, theta, theta_star), 0.0, beta)
    dl_dg = sl1.gradients["u"]
    dr2 = rho * rho - rho_star * rho_star
    dt = theta - theta_star
    dg_drho = np.sign(dr2) * 2.0 * rho * np.abs(dt)
    dg_dtheta = np.abs(dr2) * np.sign(dt)
    return LossValue(sl1.value, {"rho": dl_dg * dg_drho,
                                 "theta": dl_dg * dg_dtheta})


def total_regression_loss(pred: tuple[ArrayLike, ArrayLike, ArrayLike],
                          target: tuple[ArrayLike, ArrayLike, ArrayLike],
                          cfg: LossConfig) -> LossValue:
    """Ring-area terms for both angles plus Smooth-L1 on all three values.

    ``pred`` and ``target`` are (rho, theta1, theta2) triples of scalars or
    of equal-shape arrays, one entry per pole cell (or (3, ...) arrays of
    the three rows); the value and the gradients for all three predictions
    are elementwise. The three Smooth-L1 terms run as one stacked array and
    the two ring terms as another, each entry with the expression of its
    own call, and the terms are summed in the order ring, rho, theta1,
    theta2.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    lam, beta = cfg.lambda_ring, cfg.smooth_l1_beta

    ring = polar_ring_loss(pred[0], target[0], pred[1:], target[1:], beta)
    sl = smooth_l1(pred, target, beta)
    ring_rho, ring_theta, sl_grad = ring.gradients["rho"], ring.gradients["theta"], sl.gradients["u"]

    value = lam * (ring.value[0] + ring.value[1]) + sl.value[0] + sl.value[1] + sl.value[2]
    grads = {
        "rho": lam * (ring_rho[0] + ring_rho[1]) + sl_grad[0],
        "theta1": lam * ring_theta[0] + sl_grad[1],
        "theta2": lam * ring_theta[1] + sl_grad[2],
    }
    return LossValue(value, grads)


def total_loss(pole_loss: float, reg_loss: float, cfg: LossConfig) -> float:
    """Combined objective: pole loss plus weighted regression loss."""
    if pole_loss < 0 or reg_loss < 0:
        raise ValueError("loss components must be nonnegative")
    return pole_loss + cfg.reg_weight * reg_loss
