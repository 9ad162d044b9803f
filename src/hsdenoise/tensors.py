"""Dense 5-axis feature tensors and the convolution kernels under everything.

Axis convention, used across the whole package:

    feature tensor: (batch N, channel C, height H, width W, band B)
    kernel weight:  (c1, c2, kh, kw, kb)

A kernel is shared between two maps that are exact adjoints of each other:

    conv3d_forward   consumes c2 channels and produces c1
    tconv3d_forward  consumes c1 channels and produces c2

so the decoder's upsampling layers reuse the same weight layout as the
encoder's downsampling layers, and <conv(x), y> == <x, tconv(y)> holds
bit-for-bit in exact arithmetic with zero bias.

Convolution here means cross-correlation (no kernel flip), the usual
deep-learning convention. Each core walks the T kernel offsets (di, dj, dk)
in float64 GEMMs with the batch folded into their long axis. When the thin
c2 side stacked over all offsets fits within the c1 side (T * c2 <= c1, as
in the 1-channel first layer), all offsets run as one GEMM; otherwise each
offset runs as its own. Forward: the group's stepped input slices stacked
into one (n * c2, M) column, times the group's (c1, n * c2) weight columns,
summed over groups. Input gradient, which is also the transposed map: one
(n * c2, c1) @ grad GEMM, scatter-added back slice by slice. Weight
gradient: grad @ column.T. Results are cast back to the working dtype once,
so float32 networks still get stable sums. The public maps build each
operand's float64 channels-first grid once and hand it to the cores, so a
backward converts grad_out once for both of its cores. Besides one group's
column and product, a call holds those grids and one float64 accumulator;
the grouping rule keeps the column and product no larger than the c1-side
array.
"""

import numpy as np


class ShapeError(ValueError):
    """Tensor extents disagree with what an operation requires."""


class ConfigError(ValueError):
    """A structural parameter (stride, padding, layer wiring) is invalid."""


class ConvKernel:
    """Weight bank (c1, c2, kh, kw, kb) plus a per-channel bias vector.

    The bias length is checked at the point of use: conv3d adds one bias
    per c1 channel, tconv3d one per c2 channel.
    """

    __slots__ = ("weight", "bias")

    def __init__(self, weight, bias):
        weight = np.asarray(weight)
        bias = np.asarray(bias)
        if weight.ndim != 5:
            raise ShapeError(f"kernel weight must have 5 axes, got {weight.ndim}")
        kh, kw, kb = weight.shape[2:]
        if kh % 2 == 0 or kw % 2 == 0 or kb % 2 == 0:
            raise ConfigError(f"kernel extents must be odd, got {kh}x{kw}x{kb}")
        if bias.ndim != 1:
            raise ShapeError("bias must be a vector")
        self.weight = weight
        self.bias = bias

    @property
    def ksize(self):
        return self.weight.shape[2:]

    def astype(self, dtype):
        return ConvKernel(self.weight.astype(dtype), self.bias.astype(dtype))


class ConvSpec:
    """Stride and zero-padding triples, ordered (height, width, band)."""

    __slots__ = ("stride", "pad")

    def __init__(self, stride=(1, 1, 1), pad=(1, 1, 1)):
        stride = tuple(int(s) for s in stride)
        pad = tuple(int(p) for p in pad)
        if len(stride) != 3 or any(s < 1 for s in stride):
            raise ConfigError(f"stride must be three positive ints, got {stride}")
        if len(pad) != 3 or any(p < 0 for p in pad):
            raise ConfigError(f"pad must be three non-negative ints, got {pad}")
        self.stride = stride
        self.pad = pad


def he_init(rng, shape, fan_in, dtype=np.float32):
    """Weight array drawn N(0, 2/fan_in). Caller supplies the fan-in
    (the layer's input channels times kernel volume) and pairs the result
    with a zero bias of the length its consuming op expects."""
    std = float(np.sqrt(2.0 / float(fan_in)))
    return rng.normal(0.0, std, size=shape).astype(dtype)


def _check_input(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(
            f"{name} must have axes (batch, channel, height, width, band); got {x.ndim} axes"
        )
    return x


def _out_extents(in_hwb, ksize, stride, pad):
    out = []
    for axis, (xlen, k, s, p) in enumerate(zip(in_hwb, ksize, stride, pad)):
        o = (xlen + 2 * p - k) // s + 1
        if o < 1:
            name = "HWB"[axis]
            raise ConfigError(
                f"non-positive output extent on axis {name}: "
                f"input {xlen}, kernel {k}, stride {s}, pad {p}"
            )
        out.append(o)
    return tuple(out)


def _tap_groups(ksize, stride, out_hwb, c1, c2):
    """Kernel offsets in the groups that each run as one GEMM.

    All T offsets form one group when T * c2 <= c1, so the stacked c2 side
    is no larger than the c1-side operand; otherwise each offset is its own
    group. Each group is (cols, taps): its columns of the tap-major weight
    (_tap_major) and, in the same order, the stepped slices each offset reads
    on a padded channels-first grid to produce an out_hwb output.
    """
    taps = [
        (slice(None), slice(None))
        + tuple(slice(d, d + (o - 1) * s + 1, s) for d, o, s in zip(offset, out_hwb, stride))
        for offset in np.ndindex(*ksize)
    ]
    n = len(taps) if len(taps) * c2 <= c1 else 1
    return [(slice(lo * c2, (lo + n) * c2), taps[lo : lo + n]) for lo in range(0, len(taps), n)]


def _tap_major(weight):
    """Float64 (c1, T * c2) copy of weight, column t * c2 + c holding
    weight[:, c] at kernel offset t (mixed-dtype matmul ran 2x slower)."""
    return np.ascontiguousarray(np.moveaxis(weight, 1, -1), dtype=np.float64).reshape(
        weight.shape[0], -1
    )


def _columns(xp, ksize, stride, out_hwb, c1):
    """Yield (cols, column) per offset group of a c2 -> c1 kernel: the
    group's stepped slices of xp stacked as (n * c2, N * Ho * Wo * Bo) rows
    in one reused buffer."""
    c2, n_n = xp.shape[:2]
    groups = _tap_groups(ksize, stride, out_hwb, c1, c2)
    buf = np.empty((len(groups[0][1]), c2, n_n) + tuple(out_hwb))
    column = buf.reshape(-1, buf[0, 0].size)
    for cols, taps in groups:
        for t, sl in enumerate(taps):
            buf[t] = xp[sl]
        yield cols, column


def _channels_first(x, pad=(0, 0, 0)):
    """Float64 copy (C, N, H + 2ph, W + 2pw, B + 2pb) of x, zero-bordered."""
    n_n, c, h, w, b = x.shape
    ph, pw, pb = pad
    xp = np.zeros((c, n_n, h + 2 * ph, w + 2 * pw, b + 2 * pb))
    xp[:, :, ph : ph + h, pw : pw + w, pb : pb + b] = x.transpose(1, 0, 2, 3, 4)
    return xp


def _batch_first(a, dtype):
    """Channels-first (C, N, H, W, B) back to a contiguous (N, C, H, W, B)."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3, 4), dtype=dtype)


def _forward_core(xp, weight, stride, out_dtype):
    """Cross-correlation without bias of a padded channels-first grid: one
    GEMM per offset group, the first product becoming the accumulator."""
    n_n = xp.shape[1]
    c1 = weight.shape[0]
    out_hwb = _out_extents(xp.shape[2:], weight.shape[2:], stride, (0, 0, 0))
    wt = _tap_major(weight)
    acc = None
    for cols, column in _columns(xp, weight.shape[2:], stride, out_hwb, c1):
        if acc is None:
            acc = wt[:, cols] @ column
        else:
            acc += wt[:, cols] @ column
    del column  # freed before the cast allocates the output
    return _batch_first(acc.reshape((c1, n_n) + out_hwb), out_dtype)


def _input_grad_core(g, weight, stride, pad, in_hwb, out_dtype):
    """Adjoint of _forward_core: scatter a channels-first grad_out back onto
    the input grid, one GEMM per offset group."""
    c1, n_n = g.shape[:2]
    c2 = weight.shape[1]
    (h, w, b), (ph, pw, pb) = in_hwb, pad
    wt = _tap_major(weight)
    gxp = np.zeros((c2, n_n, h + 2 * ph, w + 2 * pw, b + 2 * pb))
    flat = g.reshape(c1, -1)
    for cols, taps in _tap_groups(weight.shape[2:], stride, g.shape[2:], c1, c2):
        prod = (wt[:, cols].T @ flat).reshape((len(taps), c2, n_n) + g.shape[2:])
        for t, sl in enumerate(taps):
            gxp[sl] += prod[t]
        del prod  # freed before the next group's GEMM
    return _batch_first(gxp[:, :, ph : ph + h, pw : pw + w, pb : pb + b], out_dtype)


def _weight_grad_core(xp, g, weight_shape, stride):
    """Correlate a padded channels-first conv input against a channels-first
    grad_out; returns float64 weight grad."""
    c1, c2 = weight_shape[:2]
    ksize = weight_shape[2:]
    flat = g.reshape(c1, -1)
    gw = np.empty((c1, int(np.prod(ksize)) * c2))
    for cols, column in _columns(xp, ksize, stride, g.shape[2:], c1):
        gw[:, cols] = flat @ column.T
    return np.ascontiguousarray(np.moveaxis(gw.reshape((c1,) + tuple(ksize) + (c2,)), -1, 1))


def conv3d_forward(x, kernel, spec):
    """Strided zero-padded cross-correlation mapping c2 -> c1 channels."""
    x = _check_input(x)
    weight, bias = kernel.weight, kernel.bias
    c1, c2 = weight.shape[:2]
    if x.shape[1] != c2:
        raise ShapeError(
            f"input has {x.shape[1]} channels but kernel consumes {c2}"
        )
    if bias.shape[0] != c1:
        raise ShapeError(f"bias length {bias.shape[0]} != output channels {c1}")
    out_dtype = np.result_type(x.dtype, weight.dtype)
    y = _forward_core(_channels_first(x, spec.pad), weight, spec.stride, out_dtype)
    y += bias.reshape(1, c1, 1, 1, 1).astype(out_dtype, copy=False)
    return y


def conv3d_backward(x, kernel, spec, grad_out):
    """Gradients of conv3d_forward: (grad_input, grad_weight, grad_bias)."""
    x = _check_input(x)
    grad_out = _check_input(grad_out, "grad_out")
    weight = kernel.weight
    expect = (x.shape[0], weight.shape[0]) + _out_extents(
        x.shape[2:], weight.shape[2:], spec.stride, spec.pad
    )
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape}, expected {expect}")
    g = _channels_first(grad_out)
    gx = _input_grad_core(g, weight, spec.stride, spec.pad, x.shape[2:], x.dtype)
    gw = _weight_grad_core(_channels_first(x, spec.pad), g, weight.shape, spec.stride)
    gb = grad_out.sum(axis=(0, 2, 3, 4), dtype=np.float64)
    return gx, gw.astype(weight.dtype, copy=False), gb.astype(kernel.bias.dtype, copy=False)


def _tconv_out_hwb(in_hwb, ksize, stride, pad):
    """Output extents of the upsampling map, validated against its adjoint.

    The transposed conv targets exactly stride-times the input extent per
    axis; that is only self-consistent when the matching forward conv maps
    the target back to the input extent, which pins pad = (k - 1) / 2.
    """
    out = tuple(s * xlen for xlen, s in zip(in_hwb, stride))
    back = _out_extents(out, ksize, stride, pad)
    if back != tuple(in_hwb):
        raise ConfigError(
            f"stride {stride} / pad {pad} / kernel {ksize} do not form an "
            f"exact up-down pair: {out} maps back to {back}, not {tuple(in_hwb)}"
        )
    return out


def tconv3d_forward(x, kernel, spec):
    """Transposed conv mapping c1 -> c2 channels, upsampling by the stride.

    Exactly the adjoint of conv3d_forward with the same kernel and spec
    (plus a bias per c2 channel), so a stride of s plays the role of the
    fractional stride 1/s: output extents are s times the input's.
    """
    x = _check_input(x)
    weight, bias = kernel.weight, kernel.bias
    c1, c2 = weight.shape[:2]
    if x.shape[1] != c1:
        raise ShapeError(
            f"input has {x.shape[1]} channels but transposed kernel consumes {c1}"
        )
    if bias.shape[0] != c2:
        raise ShapeError(f"bias length {bias.shape[0]} != output channels {c2}")
    out_hwb = _tconv_out_hwb(x.shape[2:], weight.shape[2:], spec.stride, spec.pad)
    out_dtype = np.result_type(x.dtype, weight.dtype)
    y = _input_grad_core(_channels_first(x), weight, spec.stride, spec.pad, out_hwb, out_dtype)
    y += bias.reshape(1, c2, 1, 1, 1).astype(out_dtype, copy=False)
    return y


def tconv3d_backward(x, kernel, spec, grad_out):
    """Gradients of tconv3d_forward: (grad_input, grad_weight, grad_bias)."""
    x = _check_input(x)
    grad_out = _check_input(grad_out, "grad_out")
    weight = kernel.weight
    out_hwb = _tconv_out_hwb(x.shape[2:], weight.shape[2:], spec.stride, spec.pad)
    expect = (x.shape[0], weight.shape[1]) + out_hwb
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape}, expected {expect}")
    gp = _channels_first(grad_out, spec.pad)
    gx = _forward_core(gp, weight, spec.stride, x.dtype)
    gw = _weight_grad_core(gp, _channels_first(x), weight.shape, spec.stride)
    gb = grad_out.sum(axis=(0, 2, 3, 4), dtype=np.float64)
    return gx, gw.astype(weight.dtype, copy=False), gb.astype(kernel.bias.dtype, copy=False)


def activate(x, kind):
    """Elementwise nonlinearity: tanh, sigmoid, or identity (test hook)."""
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        # expit without the scipy import: exp only of -|x|, so it cannot
        # overflow; 1 / (1 + e) for x >= 0 and e / (1 + e) below.
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)
    if kind == "identity":
        return np.asarray(x)
    raise ConfigError(f"unknown activation kind {kind!r}")


def activate_grad(y, grad, kind):
    """Chain grad through the nonlinearity, given its *output* y."""
    if kind == "tanh":
        return grad * (1.0 - y * y)
    if kind == "sigmoid":
        return grad * y * (1.0 - y)
    if kind == "identity":
        return grad
    raise ConfigError(f"unknown activation kind {kind!r}")
