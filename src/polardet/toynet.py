"""A small numpy CNN with hand-written backprop for desk-scale training.

Layout: two stride-2 3x3 convs take a single-channel image down to the
stride-4 output grid, two residual blocks refine the features, and one 3x3
head conv emits the heatmap logits, radius and two angles as rows. Activations
keep every output in its valid range: sigmoid for heatmap probabilities,
softplus for the radius (grid units, always positive) and pi * sigmoid for
angles in (0, pi).

Every layer's ``forward`` caches what its backward pass needs, so the
training loop is forward -> loss gradients on the activated outputs ->
backward -> Adam. No autodiff framework is involved; the analytic gradients
are validated against finite differences in the test suite. Inference calls
the layers instead (``ToyNet.predict``): the same products, bit for bit,
with nothing cached, so only one band of one layer's columns is alive at a
time.

Each conv's forward multiplies on the padded input's row pitch, where each
3x3 tap is one long slice, and it builds whichever of its two product
matrices has fewer rows: the C*9 rows of im2col columns, built and
multiplied in row bands by ``_banded_product`` (one rule for ``forward``
and the call), or, for a stride-1 conv with fewer output than input
channels (only the fused head), the O*9 rows of output taps, which are then
added, each shifted by its offset. The stride-2 ``forward`` keeps its whole
columns, which its backward reads. A stride-1 backward lays the output
gradient's taps on the same pitch and takes both gradients from that one
matrix: the input gradient is the output gradient convolved with the
flipped filter, so the forward keeps only its input. The stride-2 layers
keep their forward columns for the weight gradient, and ``down``'s input
gradient adds its column gradients back tap by tap (``_col2im``): the same
fewer-rows rule, applied to the backward.

The parameters live in one flat float64 vector and their gradients in
another (``ToyNet.flat``); every layer's weight and bias, and each head's
rows that ``parameters()`` lists, are views of them, and the checkpoint
stores the parameter vector as it is. So ``zero_grads`` is one fill, and
an Adam step is one chain of vector ops per 8,192 elements, into two
scratch vectors of that size allocated with the optimizer. Each ReLU
keeps its output, and its backward forms the ``x > 0`` mask as ``out >
0`` (the same mask, signed zeros, subnormals and NaN included), so the
forward reads its input once.

Precision is split as in mixed-precision training: the conv stack (input,
im2col columns, activations and both backward products) computes in the
net's ``dtype``, float32 by default, while the parameters, their gradients,
Adam's moments, the checkpoint, the head activations and every loss stay
float64. Finite-difference audits build their nets with ``dtype=np.float64``,
which reproduces the all-float64 arithmetic exactly.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import Targets
from .errors import DivergenceError, ShapeError, StateError, VersionError
from .losses import LossConfig, pole_focal_loss, total_loss, total_regression_loss

CHECKPOINT_MAGIC = "polardet-ckpt"
CHECKPOINT_VERSION = 2
# a checkpoint file's first bytes
_MAGIC_LINE = f"{CHECKPOINT_MAGIC}\n".encode()

# heatmap-head bias so that sigmoid(bias) ~ 0.1: predictions start near the
# background value instead of 0.5, which keeps early focal gradients small
HEAT_BIAS_INIT = -2.19


class Param:
    """A learnable array and its accumulated gradient (zeros unless given)."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray | None = None):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value) if grad is None else grad


# the gradient of a Param whose owner binds a view of its own gradient vector
# in its place (``Conv2d(..., grads=False)``); read-only, so a backward into
# an unbound Param raises instead of writing anywhere
_UNBOUND = np.empty(0)
_UNBOUND.flags.writeable = False


def _out_len(size: int, stride: int) -> int:
    # 3x3 kernel with pad 1: output length for a given stride
    return (size - 1) // stride + 1


@functools.lru_cache(maxsize=64)
def _pitched_layout(h: int, w: int, stride: int) -> tuple[int, int, int, int, tuple]:
    """(oh, ow, pitch, rows, phases): the phase planes of a padded (h, w) map,
    computed once per (h, w, stride).

    The map, zero-padded by one, is split into stride x stride phase planes
    of ``rows`` rows of ``pitch`` columns: padded pixel (s*r + a, s*q + b)
    sits on plane (a, b) at row r, column q. Flattened, output cell
    (oy, ox) sits at oy*pitch + ox, and tap (ki, kj) reads plane
    (ki % s, kj % s) at offset (ki // s)*pitch + kj // s from it, so each
    tap is one slice of oh*pitch elements. Of each row's ``pitch`` cells
    the last ``pitch - ow`` are junk (2 at stride 1, 1 at stride 2): a tap
    reaches 2 // s rows and columns past its output cell, and the junk of
    the last row reads into one spare row. ``phases`` pairs, per plane, the
    index of the (C, N, H, W) pixels it holds with the index of their cells
    in the (s, s, C, N, rows, pitch) planes.
    """
    s = stride
    oh, ow = _out_len(h, s), _out_len(w, s)

    def axis(size: int, phase: int) -> tuple[slice, slice]:
        # pixel i is padded position i + 1: phase (i + 1) % s, cell (i + 1) // s
        first = (phase - 1) % s
        start = (first + 1) // s
        return slice(first, None, s), slice(start, start + len(range(first, size, s)))

    phases = []
    for a in range(s):
        ys, rs = axis(h, a)
        for b in range(s):
            xs, cs = axis(w, b)
            phases.append(((..., ys, xs), (a, b, ..., rs, cs)))
    return oh, ow, ow + 2 // s, oh + 2 // s + 1, tuple(phases)


def _padded_planes(xt: np.ndarray, stride: int) -> tuple[np.ndarray, tuple]:
    """Channel-major (C, N, H, W) -> its (s, s, C, N, rows*pitch) phase
    planes, laid out by ``_pitched_layout``, and (oh, ow, pitch)."""
    c, n, h, w = xt.shape
    s = stride
    oh, ow, pitch, rows, phases = _pitched_layout(h, w, s)
    planes = np.zeros((s, s, c, n, rows, pitch), dtype=xt.dtype)
    for pixels, cells in phases:
        planes[cells] = xt[pixels]
    return planes.reshape(s, s, c, n, rows * pitch), (oh, ow, pitch)


def _write_taps(planes: np.ndarray, stride: int, pitch: int, first: int,
                cols: np.ndarray) -> np.ndarray:
    """Fill ``cols``, (C, 3, 3, N, span), with the columns of the output rows
    ``first`` to ``first + span // pitch`` from the phase planes of
    ``_padded_planes``: each tap one slice per image, in tap order."""
    s = stride
    span = cols.shape[-1]
    for ki in range(3):
        for kj in range(3):
            off = (first + ki // s) * pitch + kj // s
            cols[:, ki, kj] = planes[ki % s, kj % s, :, :, off:off + span]
    return cols


# The column bytes of one image that one band of output rows may take. At a
# 256x256 detect image a block conv's whole columns take 4.9 MB, more than
# the 2 MiB per-core L2 of the Xeon this was sized on; in 640 KiB bands (8
# rows there) each band is multiplied while its columns are still in L2.
# Median time of `predict_planes` at 256x256 against whole columns, 400
# calls round robin at one BLAS thread: 384 KiB 0.94, 512 KiB 0.92,
# 640 KiB 0.86, 768 KiB 0.87, 1 MiB 0.88
_BAND_BYTES = 640 << 10


def _band_rows(c: int, pitch: int, itemsize: int) -> int:
    """Output rows per band of a conv with ``c`` input channels: the most
    whose columns for one image, C*9 rows of rows*pitch elements, fit
    ``_BAND_BYTES``, and at least one."""
    return max(1, _BAND_BYTES // (c * 9 * pitch * itemsize))


def _banded_product(wmat: np.ndarray, bias: np.ndarray, xt: np.ndarray,
                    stride: int, rows: int, keep: bool):
    """(columns or None, (O, N*oh*pitch) output, (oh, ow, pitch)): the
    im2col product of channel-major ``xt``, ``rows`` output rows at a time.
    This is the one builder of im2col columns.

    Column rows run (c, ki, kj) like the flattened weight, columns (n, oy,
    ox) on the row pitch; the products of each row's ``pitch - ow`` junk
    columns are the caller's to drop. The band rule, which ``forward`` and
    the call share so that they give the same bits: ``rows`` is
    ``_band_rows``, clamped to ``oh``, and each band's (C*9, N*rows*pitch)
    columns, for every image, go into one reused buffer and are multiplied
    at once, while they are still in cache; the last band may be shorter.
    Every training shape is one band; a 256x256 detect image's block convs
    take 8-row bands. A band's product goes straight into its slice of the
    output where that slice is one block: at N = 1 or for a map of one
    band. The bias is added to the whole output once: per band, numpy's
    broadcast add cost 4x as much. With ``keep`` the (C*9, N*oh*pitch)
    columns are returned: the buffer itself for a map of one band, else a
    copy of each band in its place.
    """
    c, n = xt.shape[:2]
    o = wmat.shape[0]
    planes, (oh, ow, pitch) = _padded_planes(xt, stride)
    rows = min(rows, oh)
    buf = np.empty(c * 9 * n * rows * pitch, dtype=xt.dtype)
    direct = n == 1 or rows == oh
    prod = None if direct else np.empty(o * n * rows * pitch, dtype=xt.dtype)
    cols = None
    if keep:
        cols = buf if rows == oh else np.empty(c * 9 * n * oh * pitch, dtype=xt.dtype)
    for first in range(0, oh, rows):
        span = (min(first + rows, oh) - first) * pitch
        band = _write_taps(planes, stride, pitch, first,
                           buf[:c * 9 * n * span].reshape(c, 3, 3, n, span))
        # in a map of one band the planes go before the output comes, so
        # only one of them is live beside the whole columns
        if first + rows >= oh:
            del planes
        if first == 0:
            y = np.empty((o, n * oh * pitch), dtype=xt.dtype)
        part = np.s_[..., first * pitch:first * pitch + span]
        if cols is not None and cols is not buf:
            cols.reshape(c, 3, 3, n, oh * pitch)[part] = band
        out = (y[:, n * first * pitch:n * (first * pitch + span)] if direct
               else prod[:o * n * span].reshape(o, -1))
        np.matmul(wmat, band.reshape(c * 9, -1), out=out)
        if not direct:
            y.reshape(o, n, oh * pitch)[part] = out.reshape(o, n, span)
    y += bias[:, None]
    return (None if cols is None else cols.reshape(c * 9, -1), y, (oh, ow, pitch))


def _on_pitch(a: np.ndarray, pitch: int) -> np.ndarray:
    """(C, N, h, w) -> (C, N*h*pitch): ``a`` laid on the row pitch, with
    exact zeros in the ``pitch - w`` junk columns of each row."""
    c, n, h, w = a.shape
    out = np.empty((c, n, h, pitch), dtype=a.dtype)
    out[..., w:] = 0.0
    out[..., :w] = a
    return out.reshape(c, -1)


def _col2im(dpitch: np.ndarray, wmat: np.ndarray, x_shape: tuple,
            stride: int) -> np.ndarray:
    """Input gradient (N, C, H, W) from the output gradient on the pitch.

    ``dpitch`` is the (O, N*oh*pitch) output gradient with exact-zero junk
    columns (``_on_pitch``); it is multiplied once by ``wmat.T`` and the
    nine taps are then added, in tap order, as one slice each into the
    phase planes of ``_pitched_layout``, and the planes are copied out to
    the pixels once. Only the stride-2 ``down`` layer takes this path: its
    C*9 column-gradient rows are fewer than its output gradient's O*9 taps.
    """
    n, c, h, w = x_shape
    s = stride
    oh, ow, pitch, rows, phases = _pitched_layout(h, w, s)
    span = oh * pitch
    dcols = (wmat.T @ dpitch).reshape(c, 3, 3, n, span)
    planes = np.zeros((s, s, c, n, rows * pitch), dtype=dpitch.dtype)
    for ki in range(3):
        for kj in range(3):
            off = ki // s * pitch + kj // s
            planes[ki % s, kj % s, :, :, off:off + span] += dcols[:, ki, kj]
    planes = planes.reshape(s, s, c, n, rows, pitch)
    dx = np.empty((c, n, h, w), dtype=dpitch.dtype)
    for pixels, cells in phases:
        dx[pixels] = planes[cells]
    return dx.transpose(1, 0, 2, 3)


class Conv2d:
    """3x3 convolution, pad 1, stride 1 or 2, He fan-in init, zero bias.

    With ``rng`` None the weight starts at zero instead, for a checkpoint to
    fill, and nothing is drawn. With ``grads`` False the weight and bias get
    no gradient arrays: their owner binds its own (``ToyNet._build``).

    Every product runs over the whole batch on the row pitch, in ``dtype``;
    the float64 weight is cast once per call, and the weight and bias
    gradients accumulate into float64. The forward builds whichever of its
    two product matrices has fewer rows (``_conv``): O*9 output taps or C*9
    im2col columns. ``forward`` and the call run the same products, so they
    give the same bits. A stride-1 ``forward`` keeps only its input:
    ``backward`` lays the output gradient's taps on the pitch, an (O*9,
    N*H*pitch) matrix, and multiplies it by the flipped, transposed weight
    for the input gradient and by the input on the pitch for the flipped
    weight gradient. A stride-2 ``forward`` keeps its whole columns for the
    weight gradient, and ``_col2im`` gives ``down``'s input gradient.
    Calling the layer computes the forward's output and keeps nothing.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator | None, input_grad: bool = True,
                 dtype=np.float32, grads: bool = True):
        shape = (out_ch, in_ch, 3, 3)
        weight = (np.zeros(shape) if rng is None
                  else rng.standard_normal(shape) * math.sqrt(2.0 / (in_ch * 9)))
        grad = None if grads else _UNBOUND
        self.weight = Param(f"{name}.weight", weight, grad)
        self.bias = Param(f"{name}.bias", np.zeros(out_ch), grad)
        self.stride = stride
        self.out_ch = out_ch
        self.input_grad = input_grad
        self.dtype = np.dtype(dtype)
        self._cache = None

    def _wmat(self) -> np.ndarray:
        return self.weight.value.reshape(self.out_ch, -1).astype(self.dtype, copy=False)

    def _conv(self, x: np.ndarray, keep: bool = False
              ) -> tuple[np.ndarray | None, np.ndarray]:
        """(columns, output) for an input already in ``dtype``.

        The product builds whichever matrix has fewer rows. A stride-1 conv
        with fewer output than input channels multiplies the (O*9, C) weight
        taps by the padded input on the pitch, and adds the nine (O, N*H*pitch)
        tap slices, each shifted by its offset, onto the bias; it has no
        columns (None). Every other conv multiplies the weight by its C*9
        rows of im2col columns through ``_banded_product``, which returns
        them only if asked to ``keep`` them.
        """
        n, c, h, w = x.shape
        o = self.out_ch
        bias = self.bias.value.astype(self.dtype, copy=False)
        xt = x.transpose(1, 0, 2, 3)
        if self.stride == 1 and o < c:
            planes, (oh, ow, pitch) = _padded_planes(xt, 1)
            wtaps = self.weight.value.transpose(0, 2, 3, 1).reshape(o * 9, c)
            taps = wtaps.astype(self.dtype) @ planes.reshape(c, -1)
            taps = taps.reshape(o, 9, n, -1)
            span = oh * pitch
            y = taps[:, 0, :, :span] + bias[:, None, None]
            for k in range(1, 9):
                off = k // 3 * pitch + k % 3
                y += taps[:, k, :, off:off + span]
            cols = None
        else:
            rows = _band_rows(c, _pitched_layout(h, w, self.stride)[2],
                              self.dtype.itemsize)
            cols, y, (oh, ow, pitch) = _banded_product(
                self._wmat(), bias, xt, self.stride, rows, keep)
        y = y.reshape(o, n, oh, pitch)
        return cols, y[..., :ow].transpose(1, 0, 2, 3)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._conv(x.astype(self.dtype, copy=False))[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = None  # so two sets of columns are never live at once
        x = x.astype(self.dtype, copy=False)
        cols, y = self._conv(x, keep=self.stride == 2)
        # stride 1 keeps the input, stride 2 the columns
        self._cache = (x.shape, x, None) if self.stride == 1 else (x.shape, None, cols)
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise StateError(f"{self.weight.name}: backward before forward")
        (n, c, h, w), x, cols = self._cache
        o = self.out_ch
        dout = dout.astype(self.dtype, copy=False)
        # (O, N, oh, ow), contiguous: the bias sums each row in one fixed order
        dmat = np.ascontiguousarray(dout.transpose(1, 0, 2, 3))
        self.bias.grad += dmat.reshape(o, -1).sum(axis=1)
        if cols is None:
            # tap row (o, ki, kj), column (n, y, x) holds dout[n, o, y+ki-1,
            # x+kj-1], which meets weight tap (2-ki, 2-kj)
            pitch = _pitched_layout(h, w, 1)[2]
            taps = _write_taps(_padded_planes(dmat, 1)[0], 1, pitch, 0,
                               np.empty((o, 3, 3, n, h * pitch), dtype=self.dtype))
            taps = taps.reshape(o * 9, -1)
            xpitch = _on_pitch(x.transpose(1, 0, 2, 3), pitch)
            dflip = (taps @ xpitch.T).reshape(o, 3, 3, c)
            self.weight.grad += dflip[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        else:
            dpitch = _on_pitch(dmat, _pitched_layout(h, w, self.stride)[2])
            self.weight.grad += (dpitch @ cols.T).reshape(self.weight.value.shape)
        if not self.input_grad:  # a layer reading the image: nothing uses dx
            return None
        if cols is not None:
            return _col2im(dpitch, self._wmat(), (n, c, h, w), self.stride)
        wflip = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = wflip.reshape(c, -1).astype(self.dtype) @ taps
        return dx.reshape(c, n, h, pitch)[..., :w].transpose(1, 0, 2, 3)


class ReLU:
    """max(x, 0), keeping its output: ``out > 0`` is the ``x > 0`` mask,
    signed zeros, subnormals and NaN included, without a second pass over
    the forward's input."""

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.maximum(x, 0.0)  # NaN stays NaN, so divergence shows
        return self._out

    def mask(self) -> np.ndarray:
        """The latest forward's ``x > 0``."""
        if self._out is None:
            raise StateError("relu mask before forward")
        return self._out > 0.0

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self.mask()


class ResidualBlock:
    """conv-relu-conv plus identity skip, final relu. Its convs get no
    gradient arrays: the net binds them (``ToyNet._build``)."""

    def __init__(self, name: str, channels: int, rng: np.random.Generator | None,
                 dtype):
        self.conv1 = Conv2d(f"{name}.conv1", channels, channels, 1, rng,
                            dtype=dtype, grads=False)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(f"{name}.conv2", channels, channels, 1, rng,
                            dtype=dtype, grads=False)
        self.relu2 = ReLU()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(self.conv2(np.maximum(self.conv1(x), 0.0)) + x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.conv2.forward(self.relu1.forward(self.conv1.forward(x)))
        return self.relu2.forward(y + x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = self.relu2.backward(dout)
        dx = self.conv1.backward(self.relu1.backward(self.conv2.backward(d)))
        return dx + d


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # stable in both tails: exp only sees -|z|; min(z, -z) rather than
    # -abs(z) keeps the sign of a NaN, so a NaN passes through as it came.
    # The numerator is 1 where z >= 0 and e elsewhere (e <= 1 where z >= 0,
    # and e >= 0), so 1 / (1 + e) and e / (1 + e) come without a branch
    e = np.exp(np.minimum(z, -z))
    return np.maximum(e, z >= 0) / (1.0 + e)


@dataclass
class NetOutputs:
    """Activated head outputs for a batch, float64 whatever the net's dtype."""

    heat: np.ndarray   # (N, C, gh, gw), sigmoid probabilities
    rho: np.ndarray    # (N, gh, gw), softplus, grid units
    theta: np.ndarray  # (N, 2, gh, gw), pi * sigmoid, radians


class ToyNet:
    """Minimal stride-4 detector trunk plus heatmap/radius/angle heads.

    ``dtype`` is the conv stack's compute precision; parameters stay float64.
    """

    stride = 4

    def __init__(self, num_classes: int, base_channels: int = 16, seed: int = 0,
                 dtype=np.float32):
        self._build(num_classes, base_channels, np.random.default_rng(seed), dtype)

    @classmethod
    def _unfilled(cls, num_classes: int, base_channels: int) -> ToyNet:
        """The float32 topology with zero weights, for a checkpoint to fill:
        no init is drawn."""
        net = cls.__new__(cls)
        net._build(num_classes, base_channels, None, np.float32)
        return net

    def _build(self, num_classes: int, base_channels: int,
               rng: np.random.Generator | None, dtype) -> None:
        """The layers, each conv drawing its init from ``rng`` in turn, or
        with zero weights when ``rng`` is None."""
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        c1, c2 = base_channels, base_channels * 2
        self.num_classes = num_classes
        self.base_channels = base_channels
        self.dtype = np.dtype(dtype)
        # the layers get no gradient arrays of their own: each is bound to a
        # view of the flat gradient vector below
        self.stem = Conv2d("stem", 1, c1, 2, rng, input_grad=False, dtype=dtype,
                           grads=False)
        self.stem_relu = ReLU()
        self.down = Conv2d("down", c1, c2, 2, rng, dtype=dtype, grads=False)
        self.down_relu = ReLU()
        self.block1 = ResidualBlock("block1", c2, rng, dtype)
        self.block2 = ResidualBlock("block2", c2, rng, dtype)
        # one conv for all heads (one draw gives three per-head draws' values);
        # parameters() keeps each head's rows as views
        self.head = Conv2d("head", c2, num_classes + 3, 1, rng, dtype=dtype,
                           grads=False)
        self.head.bias.value[:num_classes] = HEAT_BIAS_INIT
        # every layer's weight and bias become views of one flat vector, and
        # their gradients of one flat gradient vector, in layer order
        layer_params = [p for conv in self._convs() for p in (conv.weight, conv.bias)]
        self.flat = Param("flat", np.concatenate([p.value.reshape(-1)
                                                  for p in layer_params]))
        start = 0
        for p in layer_params:
            stop = start + p.value.size
            p.value = self.flat.value[start:stop].reshape(p.value.shape)
            p.grad = self.flat.grad[start:stop].reshape(p.value.shape)
            start = stop
        heads = (("head_heat", slice(0, num_classes)),
                 ("head_rho", slice(num_classes, num_classes + 1)),
                 ("head_angle", slice(num_classes + 1, None)))
        w, b = self.head.weight, self.head.bias
        self.head_params = [p for name, r in heads for p in (
            Param(f"{name}.weight", w.value[r], w.grad[r]),
            Param(f"{name}.bias", b.value[r], b.grad[r]))]
        self._cache = None

    def _convs(self) -> list[Conv2d]:
        return [self.stem, self.down, self.block1.conv1, self.block1.conv2,
                self.block2.conv1, self.block2.conv2, self.head]

    def _relus(self) -> list[ReLU]:
        return [self.stem_relu, self.down_relu,
                self.block1.relu1, self.block1.relu2,
                self.block2.relu1, self.block2.relu2]

    def parameters(self) -> list[Param]:
        return [p for conv in self._convs()[:-1]
                for p in (conv.weight, conv.bias)] + self.head_params

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def relu_signs(self) -> np.ndarray:
        """Concatenated activation sign pattern (``x > 0``) from the latest
        forward.

        Finite-difference checks use this to detect when a perturbation
        flips a unit across zero, which invalidates the central difference.
        """
        return np.concatenate([r.mask().reshape(-1) for r in self._relus()])

    def zero_grads(self) -> None:
        self.flat.grad.fill(0.0)

    def _input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (N, 1, H, W) input, got {x.shape}")
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise ShapeError(f"input {x.shape[2]}x{x.shape[3]} not divisible "
                             f"by stride {self.stride}")
        return x

    def _activate(self, z: np.ndarray) -> tuple[NetOutputs, np.ndarray]:
        """Float64 head logits -> (outputs, the angles' sigmoid)."""
        nc = self.num_classes
        sig_ang = _sigmoid(z[:, nc + 1:])
        # softplus keeps the radius positive
        out = NetOutputs(heat=_sigmoid(z[:, :nc]), rho=np.logaddexp(0.0, z[:, nc]),
                         theta=math.pi * sig_ang)
        return out, sig_ang

    def forward(self, x: np.ndarray) -> NetOutputs:
        x = self._input(x)
        t = self.stem_relu.forward(self.stem.forward(x))
        t = self.down_relu.forward(self.down.forward(t))
        z = self.head.forward(self.block2.forward(self.block1.forward(t)))
        z = z.astype(np.float64, copy=False)  # activations and losses in float64
        out, sig_ang = self._activate(z)
        nc = self.num_classes
        # backward's derivatives: softplus' is the radius logit's sigmoid
        self._cache = (out.heat, _sigmoid(z[:, nc:nc + 1]), sig_ang)
        return out

    def predict(self, x: np.ndarray) -> NetOutputs:
        """``forward``'s outputs, bit for bit, with nothing cached anywhere
        and none of the activations only ``backward`` reads."""
        t = np.maximum(self.stem(self._input(x)), 0.0)
        t = np.maximum(self.down(t), 0.0)
        z = self.head(self.block2(self.block1(t)))
        return self._activate(z.astype(np.float64, copy=False))[0]

    def backward(self, d_heat: np.ndarray, d_rho: np.ndarray,
                 d_theta: np.ndarray) -> None:
        """Backprop from gradients w.r.t. the activated head outputs."""
        if self._cache is None:
            raise StateError("backward before forward")
        p, sig_rho, sig_ang = self._cache
        dz = np.concatenate((
            d_heat * p * (1.0 - p),
            d_rho[:, None] * sig_rho,  # d softplus(z) / dz = sigmoid(z)
            d_theta * math.pi * sig_ang * (1.0 - sig_ang)), axis=1)
        dt = self.block1.backward(self.block2.backward(self.head.backward(dz)))
        dt = self.down.backward(self.down_relu.backward(dt))
        self.stem.backward(self.stem_relu.backward(dt))
        self._cache = None


# 2 * (k / 255) - 1 for every 8-bit value k, in float64
_RASTER_INPUT = 2.0 * (np.arange(256) / 255.0) - 1.0


def image_to_input(images, dtype=np.float64) -> np.ndarray:
    """Stack grayscale images into a centered (N, 1, H, W) batch of ``dtype``.

    uint8 rasters map value k to 2 * (k / 255) - 1 through one lookup in
    the float64 table rounded to ``dtype``; any other images are [0, 1]
    floats and map to 2 * x - 1 in float64, then rounded to ``dtype``. So a
    raster and its float image ``k / 255`` give the same bits, and a
    float32 batch has the bits of the float64 one cast to float32.
    """
    x = np.asarray(images)
    if x.dtype == np.uint8:
        x = _RASTER_INPUT.astype(dtype).take(x)
    else:
        x = (2.0 * np.asarray(x, dtype=np.float64) - 1.0).astype(dtype, copy=False)
    if x.ndim == 2:
        x = x[None]
    return x[:, None]


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
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # learning_rate 0 is allowed so a no-op run can prove init identity
        if self.learning_rate < 0 or self.batch_size < 1 or self.iterations < 1:
            raise ValueError("learning_rate must be >= 0, batch_size and "
                             "iterations must be >= 1")
        # a decay of 1 leaves a bias correction of 0, which Adam divides by
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")


# Adam runs over the flat vectors this many elements at a time, so that its
# two scratch vectors stay at 64 KiB whatever the net's size. On the train
# benchmark (a base-16 net, 43,237 parameters) one whole pass took 252 µs
# per step against 285, ~0.2% of an iteration, but raised the peak RSS by
# 0.55 MB, and 16,384-element chunks by 1.9 MB; 8,192 by 0.1-0.2 MB
_ADAM_CHUNK = 1 << 13


class Adam:
    """Adam on one parameter, in place: a ``Param`` whose value and gradient
    are flat vectors (``ToyNet.flat``), so a step is one chain of vector ops
    per ``_ADAM_CHUNK`` elements.

    Each element takes the update of Kingma & Ba through two scratch
    vectors allocated here, with the operations and rounding of the
    per-array expression ``value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``.
    """

    def __init__(self, param: Param, cfg: TrainConfig):
        self.param = param
        self.cfg = cfg
        self.m = np.zeros_like(param.value)
        self.v = np.zeros_like(param.value)
        self._step = np.empty_like(param.value[:_ADAM_CHUNK])
        self._denom = np.empty_like(self._step)
        self.t = 0

    def step(self) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for lo in range(0, self.m.size, _ADAM_CHUNK):
            part = slice(lo, lo + _ADAM_CHUNK)
            g, m, v = self.param.grad[part], self.m[part], self.v[part]
            step, denom = self._step[:len(g)], self._denom[:len(g)]
            m *= c.beta1
            m += np.multiply(g, 1.0 - c.beta1, out=step)
            v *= c.beta2
            v += np.multiply(np.square(g, out=step), 1.0 - c.beta2, out=step)
            np.multiply(np.divide(m, bc1, out=step), c.learning_rate, out=step)
            np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), c.eps, out=denom)
            self.param.value[part] -= np.divide(step, denom, out=step)


class BatchLoss(NamedTuple):
    total: float
    pole: float
    reg: float


def compute_batch_loss(net: ToyNet, x: np.ndarray, targets: Targets,
                       cfg: LossConfig, backward: bool = True) -> BatchLoss:
    """Forward a batch, reduce the losses and (optionally) backprop.

    The pole loss is the mean of per-image focal losses; the regression
    loss is the mean over all pole rows pooled across the batch, in row
    order. Images without objects normalize their focal loss by one.
    """
    n = x.shape[0]
    if n != len(targets.heat):
        raise ShapeError(f"batch {n} vs {len(targets.heat)} targets")
    out = net.forward(x)
    d_rho = np.zeros_like(out.rho)
    d_theta = np.zeros_like(out.theta)

    counts = np.diff(targets.first)
    fl = pole_focal_loss(out.heat, targets.heat, cfg, np.maximum(counts, 1))
    pole_mean = float(np.mean(fl.value))
    d_heat = fl.gradients["pred"] / n

    b = np.repeat(np.arange(n), counts)
    cx, cy = targets.cell.T
    reg = total_regression_loss((out.rho[b, cy, cx], *out.theta[b, :, cy, cx].T),
                                targets.value.T, cfg)
    reg_mean = float(np.mean(reg.value)) if b.size else 0.0
    scale = cfg.reg_weight / b.size if b.size else 0.0
    np.add.at(d_rho, (b, cy, cx), reg.gradients["rho"] * scale)
    np.add.at(d_theta, (b, slice(None), cy, cx),
              np.stack((reg.gradients["theta1"], reg.gradients["theta2"]), axis=1) * scale)

    if backward:
        net.backward(d_heat, d_rho, d_theta)
    return BatchLoss(total_loss(pole_mean, reg_mean, cfg), pole_mean, reg_mean)


def train(net: ToyNet, images, targets: Targets, cfg: TrainConfig,
          loss_cfg: LossConfig | None = None, callback=None) -> list[BatchLoss]:
    """SGD loop with Adam; returns each iteration's losses.

    ``images`` holds one (H, W) uint8 raster or [0, 1] float image per image
    of ``targets``. Each batch's images become network input as the batch is
    drawn, so uint8 rasters stay uint8 in memory. Raises DivergenceError the
    moment the total loss stops being finite.
    """
    images = np.asarray(images)
    if len(images) != len(targets.heat):
        raise ShapeError(f"{len(images)} images vs {len(targets.heat)} targets")
    if not len(images):
        raise ValueError("no training samples")
    loss_cfg = loss_cfg or LossConfig()
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(net.flat, cfg)
    history: list[BatchLoss] = []
    for it in range(cfg.iterations):
        idx = rng.integers(0, len(images), size=cfg.batch_size)
        net.zero_grads()
        # the float64 batch, cast by ToyNet._input: a float32 one from
        # image_to_input has the same bits, but it raised the peak RSS of
        # 30 s training runs (batch 8 of 64x64) by 1.4 MB
        stats = compute_batch_loss(net, image_to_input(images[idx]),
                                   targets.take(idx), loss_cfg)
        if not math.isfinite(stats.total):
            raise DivergenceError(it)
        opt.step()
        history.append(stats)
        if callback is not None:
            callback(it, stats)
    return history


def save_checkpoint(path, net: ToyNet, extra: dict | None = None) -> None:
    """Write ``net`` to exactly ``path`` as a version-2 checkpoint, in one
    write: the magic line, the JSON header's byte length (4 bytes, little
    endian) and the header, ``net.flat``'s values as little-endian float64,
    and a CRC-32 trailer (4 bytes, little endian) over every byte before
    it."""
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
    header = json.dumps(meta).encode()
    body = b"".join((_MAGIC_LINE, len(header).to_bytes(4, "little"), header,
                     net.flat.value.astype("<f8", copy=False).tobytes()))
    with open(path, "wb") as fh:
        fh.write(body + zlib.crc32(body).to_bytes(4, "little"))


def load_checkpoint(path) -> tuple[ToyNet, dict]:
    """Rebuild a float32 ToyNet and its header dict from a checkpoint.

    The file is read once and checked in turn: its magic line, its CRC-32,
    its header (a JSON object with the magic, the version, and
    ``num_classes`` and ``base_channels`` as integers >= 1), and the exact
    byte count of that topology's parameters. Then the vector is copied
    into the ``flat`` of a net built with zero weights, drawing no init,
    and checked finite. A failed check raises ``VersionError`` naming it
    (``ShapeError`` for a wrong byte count; a non-finite value names its
    parameter), and no net is returned.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"PK\x03\x04"):
        raise VersionError("a version-1 checkpoint (an npz archive); only "
                           f"version {CHECKPOINT_VERSION} is read")
    if not raw.startswith(_MAGIC_LINE):
        raise VersionError(f"not a polardet checkpoint: starts {raw[:16]!r}")
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != int.from_bytes(raw[-4:], "little"):
        raise VersionError("checkpoint CRC-32 mismatch: the file is damaged "
                           "or cut short")
    start = len(_MAGIC_LINE) + 4
    end = start + int.from_bytes(raw[len(_MAGIC_LINE):start], "little")
    try:
        meta = json.loads(raw[start:end])
    except ValueError as exc:
        raise VersionError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(meta, dict):
        raise VersionError(f"checkpoint header is a JSON {type(meta).__name__}, "
                           f"not an object")
    if meta.get("magic") != CHECKPOINT_MAGIC:
        raise VersionError(f"bad magic {meta.get('magic')!r}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise VersionError(f"unsupported version {meta.get('version')!r}")
    for key in ("num_classes", "base_channels"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise VersionError(f"checkpoint {key} must be an integer >= 1, "
                               f"got {meta.get(key)!r}")
    net = ToyNet._unfilled(meta["num_classes"], meta["base_channels"])
    flat = net.flat.value
    if len(body) - end != flat.nbytes:
        raise ShapeError(f"checkpoint holds {len(body) - end} parameter bytes, "
                         f"its topology {flat.nbytes}")
    flat[...] = np.frombuffer(raw, "<f8", count=flat.size, offset=end)
    if not np.isfinite(flat).all():
        name = next(p.name for p in net.parameters() if not np.isfinite(p.value).all())
        raise VersionError(f"{name}: non-finite value in checkpoint")
    return net, meta


def predict_planes(net: ToyNet, image: np.ndarray):
    """Run one image; returns (heatmap, rho, theta1, theta2), caching nothing."""
    out = net.predict(image_to_input(image, net.dtype))
    return out.heat[0], out.rho[0], out.theta[0, 0], out.theta[0, 1]
