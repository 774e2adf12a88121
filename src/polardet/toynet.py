"""A small numpy CNN with hand-written backprop for desk-scale training.

Layout: two stride-2 3x3 convs take a single-channel image down to the
stride-4 output grid, two residual blocks refine the features, and three
3x3 heads emit the heatmap logits, radius and the two angles. Activations
keep every output in its valid range: sigmoid for heatmap probabilities,
softplus for the radius (grid units, always positive) and pi * sigmoid for
angles in (0, pi).

Every layer caches what its backward pass needs, so the training loop is
forward -> loss gradients on the activated outputs -> backward -> Adam.
No autodiff framework is involved; the analytic gradients are validated
against finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoding import EncodedSample
from .errors import DivergenceError, ShapeError, StateError, VersionError
from .losses import LossConfig, pole_focal_loss, total_loss, total_regression_loss

CHECKPOINT_MAGIC = "polardet-ckpt"
CHECKPOINT_VERSION = 1

# heatmap-head bias so that sigmoid(bias) ~ 0.1: predictions start near the
# background value instead of 0.5, which keeps early focal gradients small
HEAT_BIAS_INIT = -2.19


class Param:
    """A learnable array and its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


def _out_len(size: int, stride: int) -> int:
    # 3x3 kernel with pad 1: output length for a given stride
    return (size - 1) // stride + 1


def _im2col(x: np.ndarray, stride: int) -> tuple[np.ndarray, tuple[int, int]]:
    """(N, C, H, W) -> (C*9, N*oh*ow) columns; rows run (c, ki, kj) like the
    flattened weight, columns run (n, oy, ox)."""
    n, c, h, w = x.shape
    oh, ow = _out_len(h, stride), _out_len(w, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * 9, n * oh * ow), (oh, ow)


def _col2im(dcols: np.ndarray, x_shape: tuple, stride: int) -> np.ndarray:
    """Scatter-add (C*9, N*oh*ow) column gradients back to (N, C, H, W)."""
    n, c, h, w = x_shape
    oh, ow = _out_len(h, stride), _out_len(w, stride)
    dc = dcols.reshape(c, 3, 3, n, oh, ow)
    dxp = np.zeros((c, n, h + 2, w + 2), dtype=dcols.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, :, ki:ki + stride * (oh - 1) + 1:stride,
                kj:kj + stride * (ow - 1) + 1:stride] += dc[:, ki, kj]
    return dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


class Conv2d:
    """3x3 convolution, pad 1, stride 1 or 2, He fan-in init, zero bias.

    Both directions are single matrix products over the whole batch: the
    columns of every image sit side by side in one (C*9, N*oh*ow) matrix.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator, bias_init: float = 0.0):
        fan_in = in_ch * 9
        weight = rng.standard_normal((out_ch, in_ch, 3, 3)) * math.sqrt(2.0 / fan_in)
        self.weight = Param(f"{name}.weight", weight)
        self.bias = Param(f"{name}.bias", np.full(out_ch, bias_init, dtype=np.float64))
        self.stride = stride
        self.out_ch = out_ch
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = None  # so two sets of columns are never live at once
        cols, (oh, ow) = _im2col(x, self.stride)
        wmat = self.weight.value.reshape(self.out_ch, -1)
        y = wmat @ cols
        y += self.bias.value[:, None]
        self._cache = (x.shape, cols)
        return y.reshape(self.out_ch, x.shape[0], oh, ow).transpose(1, 0, 2, 3)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError(f"{self.weight.name}: backward before forward")
        x_shape, cols = self._cache
        dmat = dout.transpose(1, 0, 2, 3).reshape(self.out_ch, -1)
        self.weight.grad += (dmat @ cols.T).reshape(self.weight.value.shape)
        self.bias.grad += dmat.sum(axis=1)
        wmat = self.weight.value.reshape(self.out_ch, -1)
        return _col2im(wmat.T @ dmat, x_shape, self.stride)


class ReLU:
    def __init__(self):
        self._cache = None  # the x > 0 mask

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0.0
        return np.where(self._cache, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("relu backward before forward")
        return np.where(self._cache, dout, 0.0)


class ResidualBlock:
    """conv-relu-conv plus identity skip, final relu."""

    def __init__(self, name: str, channels: int, rng: np.random.Generator):
        self.conv1 = Conv2d(f"{name}.conv1", channels, channels, 1, rng)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(f"{name}.conv2", channels, channels, 1, rng)
        self.relu2 = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.conv2.forward(self.relu1.forward(self.conv1.forward(x)))
        return self.relu2.forward(y + x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = self.relu2.backward(dout)
        dx = self.conv1.backward(self.relu1.backward(self.conv2.backward(d)))
        return dx + d


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # stable in both tails
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class NetOutputs:
    """Activated head outputs for a batch."""

    heat: np.ndarray   # (N, C, gh, gw), sigmoid probabilities
    rho: np.ndarray    # (N, gh, gw), softplus, grid units
    theta: np.ndarray  # (N, 2, gh, gw), pi * sigmoid, radians


class ToyNet:
    """Minimal stride-4 detector trunk plus heatmap/radius/angle heads."""

    stride = 4

    def __init__(self, num_classes: int, base_channels: int = 16, seed: int = 0):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        rng = np.random.default_rng(seed)
        c1, c2 = base_channels, base_channels * 2
        self.num_classes = num_classes
        self.base_channels = base_channels
        self.stem = Conv2d("stem", 1, c1, 2, rng)
        self.stem_relu = ReLU()
        self.down = Conv2d("down", c1, c2, 2, rng)
        self.down_relu = ReLU()
        self.block1 = ResidualBlock("block1", c2, rng)
        self.block2 = ResidualBlock("block2", c2, rng)
        self.head_heat = Conv2d("head_heat", c2, num_classes, 1, rng,
                                bias_init=HEAT_BIAS_INIT)
        self.head_rho = Conv2d("head_rho", c2, 1, 1, rng)
        self.head_angle = Conv2d("head_angle", c2, 2, 1, rng)
        self._cache = None

    def _convs(self) -> list[Conv2d]:
        return [self.stem, self.down, self.block1.conv1, self.block1.conv2,
                self.block2.conv1, self.block2.conv2,
                self.head_heat, self.head_rho, self.head_angle]

    def _relus(self) -> list[ReLU]:
        return [self.stem_relu, self.down_relu,
                self.block1.relu1, self.block1.relu2,
                self.block2.relu1, self.block2.relu2]

    def parameters(self) -> list[Param]:
        return [p for conv in self._convs() for p in (conv.weight, conv.bias)]

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def relu_signs(self) -> np.ndarray:
        """Concatenated activation sign pattern from the latest forward.

        Finite-difference checks use this to detect when a perturbation
        flips a unit across zero, which invalidates the central difference.
        """
        relus = self._relus()
        if any(r._cache is None for r in relus):
            raise StateError("relu_signs before forward")
        return np.concatenate([r._cache.reshape(-1) for r in relus])

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad.fill(0.0)

    def forward(self, x: np.ndarray) -> NetOutputs:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (N, 1, H, W) input, got {x.shape}")
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise ShapeError(f"input {x.shape[2]}x{x.shape[3]} not divisible "
                             f"by stride {self.stride}")
        t = self.stem_relu.forward(self.stem.forward(x))
        t = self.down_relu.forward(self.down.forward(t))
        f = self.block2.forward(self.block1.forward(t))
        z_rho = self.head_rho.forward(f)
        p = _sigmoid(self.head_heat.forward(f))
        sig_rho = _sigmoid(z_rho)
        rho = np.logaddexp(0.0, z_rho)  # softplus keeps the radius positive
        sig_ang = _sigmoid(self.head_angle.forward(f))
        theta = math.pi * sig_ang
        self._cache = (p, sig_rho, sig_ang)
        return NetOutputs(heat=p, rho=rho[:, 0], theta=theta)

    def backward(self, d_heat: np.ndarray, d_rho: np.ndarray,
                 d_theta: np.ndarray) -> None:
        """Backprop from gradients w.r.t. the activated head outputs."""
        if self._cache is None:
            raise StateError("backward before forward")
        p, sig_rho, sig_ang = self._cache
        dz_heat = d_heat * p * (1.0 - p)
        dz_rho = d_rho[:, None] * sig_rho  # d softplus(z) / dz = sigmoid(z)
        dz_ang = d_theta * math.pi * sig_ang * (1.0 - sig_ang)
        df = (self.head_heat.backward(dz_heat)
              + self.head_rho.backward(dz_rho)
              + self.head_angle.backward(dz_ang))
        dt = self.block1.backward(self.block2.backward(df))
        dt = self.down.backward(self.down_relu.backward(dt))
        self.stem.backward(self.stem_relu.backward(dt))
        self._cache = None


def image_to_input(images) -> np.ndarray:
    """Stack [0, 1] grayscale images into a centered (N, 1, H, W) batch."""
    x = np.asarray(images, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    return (2.0 * x - 1.0)[:, None]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0025
    batch_size: int = 8
    iterations: int = 3000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed so a no-op run can prove init identity
        if self.learning_rate < 0 or self.batch_size < 1 or self.iterations < 1:
            raise ValueError("learning_rate must be >= 0, batch_size and "
                             "iterations must be >= 1")


class Adam:
    def __init__(self, params: list[Param], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= c.beta1
            m += (1.0 - c.beta1) * p.grad
            v *= c.beta2
            v += (1.0 - c.beta2) * p.grad ** 2
            p.value -= c.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


@dataclass(frozen=True)
class TrainingSample:
    image: np.ndarray      # (H, W) in [0, 1]
    target: EncodedSample


class BatchLoss(NamedTuple):
    total: float
    pole: float
    reg: float


class IterStats(NamedTuple):
    iteration: int
    total: float
    pole: float
    reg: float


def compute_batch_loss(net: ToyNet, x: np.ndarray, targets: list[EncodedSample],
                       cfg: LossConfig, backward: bool = True) -> BatchLoss:
    """Forward a batch, reduce the losses and (optionally) backprop.

    The pole loss is the mean of per-image focal losses; the regression
    loss is the mean over all pole cells pooled across the batch. Images
    without objects normalize their focal loss by one.
    """
    if x.shape[0] != len(targets):
        raise ShapeError(f"batch {x.shape[0]} vs {len(targets)} targets")
    out = net.forward(x)
    n = x.shape[0]
    d_heat = np.zeros_like(out.heat)
    d_rho = np.zeros_like(out.rho)
    d_theta = np.zeros_like(out.theta)

    pole_sum = 0.0
    for b, tgt in enumerate(targets):
        fl = pole_focal_loss(out.heat[b], tgt.heatmap, cfg,
                             max(len(tgt.pole_cells), 1))
        pole_sum += fl.value
        d_heat[b] = fl.gradients["pred"] / n
    pole_mean = pole_sum / n

    # (b, cy, cx) of every pole cell, in pole_cells order (the mean's order)
    cells = [np.asarray(t.pole_cells, dtype=np.intp).reshape(-1, 3) for t in targets]
    b = np.repeat(np.arange(n), [len(c) for c in cells])
    _class_id, cx, cy = np.concatenate(cells).T
    truth = np.stack([(t.rho, t.theta1, t.theta2) for t in targets])[b, :, cy, cx]
    reg = total_regression_loss((out.rho[b, cy, cx], *out.theta[b, :, cy, cx].T),
                                tuple(truth.T), cfg)
    reg_mean = float(np.mean(reg.value)) if b.size else 0.0
    scale = cfg.reg_weight / b.size if b.size else 0.0
    np.add.at(d_rho, (b, cy, cx), reg.gradients["rho"] * scale)
    np.add.at(d_theta, (b, slice(None), cy, cx),
              np.stack((reg.gradients["theta1"], reg.gradients["theta2"]), axis=1) * scale)

    if backward:
        net.backward(d_heat, d_rho, d_theta)
    return BatchLoss(total_loss(pole_mean, reg_mean, cfg), pole_mean, reg_mean)


def train(net: ToyNet, samples: list[TrainingSample], cfg: TrainConfig,
          loss_cfg: LossConfig | None = None, callback=None) -> list[IterStats]:
    """SGD loop with Adam; returns per-iteration loss history.

    Raises DivergenceError the moment the total loss stops being finite.
    """
    if not samples:
        raise ValueError("no training samples")
    loss_cfg = loss_cfg or LossConfig()
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(net.parameters(), cfg)
    x_all = image_to_input([s.image for s in samples])
    history: list[IterStats] = []
    for it in range(cfg.iterations):
        idx = rng.integers(0, len(samples), size=cfg.batch_size)
        targets = [samples[i].target for i in idx]
        net.zero_grads()
        stats = compute_batch_loss(net, x_all[idx], targets, loss_cfg)
        if not math.isfinite(stats.total):
            raise DivergenceError(it)
        opt.step()
        history.append(IterStats(it, stats.total, stats.pole, stats.reg))
        if callback is not None:
            callback(it, stats)
    return history


def save_checkpoint(path, net: ToyNet, extra: dict | None = None) -> None:
    """Serialize weights plus a JSON header describing the topology."""
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "num_classes": net.num_classes,
        "base_channels": net.base_channels,
        "stride": net.stride,
        "reg_reduction": "mean_over_pole_cells",
    }
    if extra:
        meta["extra"] = extra
    arrays = {f"param_{i:03d}": p.value for i, p in enumerate(net.parameters())}
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> tuple[ToyNet, dict]:
    """Rebuild a ToyNet from a checkpoint; validates magic, version, shapes."""
    with np.load(path) as data:
        if "meta" not in data:
            raise VersionError("missing checkpoint header")
        meta = json.loads(data["meta"].item())
        if meta.get("magic") != CHECKPOINT_MAGIC:
            raise VersionError(f"bad magic {meta.get('magic')!r}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise VersionError(f"unsupported version {meta.get('version')!r}")
        net = ToyNet(meta["num_classes"], meta["base_channels"])
        for i, p in enumerate(net.parameters()):
            key = f"param_{i:03d}"
            if key not in data:
                raise VersionError(f"checkpoint missing array {key}")
            arr = data[key]
            if arr.shape != p.value.shape:
                raise ShapeError(f"{p.name}: checkpoint {arr.shape} vs "
                                 f"model {p.value.shape}")
            p.value[...] = arr
    return net, meta


def predict_planes(net: ToyNet, image: np.ndarray):
    """Run one image; returns (heatmap, rho, theta1, theta2), caching nothing."""
    out = net.forward(image_to_input(image))
    for layer in [net, *net._convs(), *net._relus()]:
        layer._cache = None  # no backward pass reads them
    return out.heat[0], out.rho[0], out.theta[0, 0], out.theta[0, 1]
