"""Dense 5-axis feature tensors and the convolution kernels under everything.

Axis convention, used across the whole package:

    feature tensor: (batch N, channel C, height H, width W, band B)
    kernel weight:  (c1, c2, kh, kw, kb)

That is the shape. In memory, every array a convolution map returns runs
(N, C, B, H, W): it is an np.moveaxis view of a bands-first block. The
band recurrence (qru) and the gcs walk step one band at a time, and a
band slice a[..., b] is then N * C whole H x W planes, not one element in
every B. Elementwise numpy keeps its input's layout, so activations,
pooling traces and their gradients stay bands-first as well. The padded
windows and im2col columns of kn2row maps (below) stay band-last, so every
kernel tap copies contiguous runs of B, which the 4x4 and 8x8 planes of
the deep layers would make short; the transpose happens once per element,
as a row enters a window from the input or leaves it into the input
gradient, or in the cast that writes the output. Maps with their band taps
in the column keep bands-first order from grid to output.

A kernel is shared between two maps that are exact adjoints of each other:

    conv3d_forward   consumes c2 channels and produces c1
    tconv3d_forward  consumes c1 channels and produces c2

so the decoder's upsampling layers reuse the same weight layout as the
encoder's downsampling layers, and <conv(x), y> == <x, tconv(y)> holds
bit-for-bit in exact arithmetic with zero bias.

Every map pads by half the kernel extent, k // 2 per axis ("same"
padding; kernel extents are odd), and takes only a stride triple s. So a
forward map's output extent is ceil(n / s) per axis and a transposed
map's s * n, and the two are adjoints for every input extent.

Convolution here means cross-correlation (no kernel flip), the usual
deep-learning convention. The cores lower it to one GEMM per block of
output rows of one sample (the column bounded by the blocking, as in MEC).
The band axis is contiguous in the padded window and never strided in the
network, so a band tap is a shift by one element along every band run.
The column therefore holds only the T = kh * kw spatial taps, each copied
over the whole padded run of Bo + kb - 1 bands, and the kb band taps move
to the c1 side of each product, the output or grad_out side (in the
forward, kn2row; Anderson et al. 2017):

    forward          (kb * c1, T * c2) band-stacked weight @ column; block
                     e of the product added onto block 0 shifted by e
                     columns; each run's last kb - 1 columns dropped
    weight gradient  band-stacked grad rows @ column.T, summed over
                     blocks; block e of the grad rows holds each run
                     after e zeros, so it meets the column e bands on
    input gradient   (T * c2, kb * c1) weight.T @ band-stacked grad rows,
    (= transposed)   added back slice by slice (T slices of whole runs)
                     onto a window of the padded input grid

Band taps stay in the column (T = kh * kw * kb, and kb = 1 on the c1
side) where the band axis is strided, or where c1 > kh * kw * c2, as in
the first layer (1 -> 64): there kb blocks of c1 rows cost more than the
column rows they save. The walk follows the map's shape: these maps and
kb = 1 kernels (qru2d's 3x3x1) run the forward product and the weight
gradient, of conv3d and of tconv3d's backward alike, on blocks of whole
band planes of a bands-first grid: the GEMM writes each block into the
output's planes, or reads the grad rows' planes in place.

Precision contract. A map computes in the result dtype of its array
operands, np.result_type(x, weight), with grad_out too in the backward
maps; there is no option and no second path. Each core works that dtype
out from the arrays it is handed and the dtype it returns. The tap-major weight copy,
the padded window, the block buffer and every GEMM product take that
dtype, and the forward's band-tap sums and the input gradient's window
sum in it. The weight gradient takes each block's product in it too but sums
the blocks in float64, so its float32 rounding spans one block, not the
whole batch; the bias gradient sums grad_out in float64. Results are cast once to the
output dtype: the forward product as it is written into the output, the
input gradient's rows as they are cropped, the weight gradient at the end,
in the kernel's dtype.

    float32 operands (every shipped model): each map and each gradient
    stays within 32 float32 epsilons (3.8e-6) of the largest magnitude of the
    float64 oracle on the same values, over the network's kernels on small
    cubes; the standard network's output on a case-5 cube stays within
    1e-5 absolute of its float64 shadow.
    float64 operands (Model.astype(np.float64), grad_check's shadow): every
    product and sum is float64, end to end.

Both bounds are pinned in tests/test_tensors.py. Every map checks that its
input has 5 axes, no zero extent and the channels its kernel consumes; each
walk pads its own input and works out the output's extents, so every core
takes the map's raw arrays. A call holds its weight copy, its output, one
block buffer of at most _BLOCK_BYTES and what its walk pads: the row walk
(_windows) one window of zero-padded grid rows, the input's or the input
gradient's, that spans a block within _BLOCK_BYTES; the plane walk
(_plane_blocks) the whole grid, bands-first (one channel in the shipped
net; tconv3d_backward's two cores pad grad_out one after the other). Block
and window sizes follow from shapes and the compute dtype alone, and a
walk copies each input row into a window, or input-gradient row out, once.
"""

import numpy as np

# Bytes of one block's column plus product in the compute dtype: a few MiB,
# the total L2 of the 2-vCPU benchmark machine, where 2, 4 and 8 MiB timed
# the same.
_BLOCK_BYTES = 4 << 20
_SCRATCH_BYTES = 256 << 10  # the sigmoid's: exp term and denominator of one chunk


class ShapeError(ValueError):
    """Tensor extents disagree with what an operation requires."""


class ConfigError(ValueError):
    """A structural parameter (stride, kernel extent, layer wiring) is invalid."""


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


def _check_input(x, weight, transposed=False):
    """x as an array with 5 axes, no zero extent, and the channels a map
    consumes: c1 of the weight for a transposed map, else c2."""
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(
            f"input must have axes (batch, channel, height, width, band); got {x.ndim} axes"
        )
    c = weight.shape[0 if transposed else 1]
    if x.shape[1] != c:
        kind = "transposed kernel" if transposed else "kernel"
        raise ShapeError(f"input has {x.shape[1]} channels but {kind} consumes {c}")
    if 0 in x.shape:
        raise ShapeError(f"input extents must be positive, got {x.shape}")
    return x


def _band_taps(weight_shape, stride):
    """How many band taps leave the column for the c1 side: all kb,
    unless the band axis is strided (a tap is then no shift of one run) or
    c1 > kh * kw * c2, where kb blocks of c1 rows (product or grad rows)
    cost more than the column rows they save (the first layer, 1 -> 64)."""
    c1, c2, kh, kw, kb = weight_shape
    return kb if stride[2] == 1 and c1 <= kh * kw * c2 else 1


def _tap_major(weight, stride, dtype):
    """(bands, c1, T * c2) copy of weight in dtype, one matrix per band tap
    e, column t * c2 + c holding weight[:, c] at column tap t; the T column
    taps are the kh x kw x (kb / bands) offsets (mixed-dtype matmul ran 2x
    slower)."""
    bands = _band_taps(weight.shape, stride)
    wt = weight.reshape(weight.shape[:4] + (bands, -1)).transpose(4, 0, 2, 3, 5, 1)
    return np.ascontiguousarray(wt, dtype=dtype).reshape(bands, weight.shape[0], -1)


def _strided_hwb(in_hwb, stride):
    """Output extents of the forward map: ceil(n / s) per axis."""
    return tuple(-(-n // s) for n, s in zip(in_hwb, stride))


def _windows(a, weight_shape, stride, dtype, gather=True):
    """Yield (n, rs, taps, work, view) per block of rows rs of sample n of
    the output, ceil(n / s) per axis of a's (N, C, H, W, B): the slices each
    column tap reads of view, the block's rows of a zero-padded, band-last
    (C, R, W + kw - 1, B + kb - 1) window on the grid of sample n of a, over
    runs of Bo + bands - 1 bands; and one reused buffer in dtype for the
    column or product on the c2 side (T * c2 rows) and the band-stacked
    product or grad rows on the c1 side (bands * c1 rows). A block holds the
    rows that fit _BLOCK_BYTES and the output's c1 side, one at least; the
    window's R grid rows span the block _BLOCK_BYTES alone would hold,
    several blocks where the output caps them. The window moves on when a
    block runs past it or starts a sample: rows no later block touches
    leave it (into a's rows, unless gather), those the block shares move up,
    and the rest are zeroed (and, if gather, filled from a's rows). The
    window is all it pads and, with work, all it holds; a's extents are
    positive (every map refuses zero)."""
    c1, c2, kh, kw, kb = weight_shape
    bands = _band_taps(weight_shape, stride)
    (ho, wo, bo), (sh, sw, sb), (h, w, b) = _strided_hwb(a.shape[2:], stride), stride, a.shape[2:]
    ph, pw, pb = kh // 2, kw // 2, kb // 2
    run = bo + bands - 1
    row = (kh * kw * (kb // bands) * c2 + bands * c1) * wo * run
    items = _BLOCK_BYTES // np.dtype(dtype).itemsize
    rows = max(1, min(items, c1 * len(a) * ho * wo * bo) // row)
    work = np.empty(min(rows, ho) * row, dtype)
    win = np.empty((a.shape[1], min(h + 2 * ph, (max(1, items // row) - 1) * sh + kh),
                    w + 2 * pw, b + 2 * pb), dtype)
    r, held = len(win[0]), None
    wb = [(dh, slice(dw, dw + (wo - 1) * sw + 1, sw), slice(db, db + (run - 1) * sb + 1, sb))
          for dh, dw, db in np.ndindex(kh, kw, kb // bands)]

    def copy(n, top, part):  # a's rows to or from part, grid rows top, top + 1, ...
        lo, hi = (min(max(i - ph, 0), h) for i in (top, top + part.shape[1]))
        pair = part[:, lo + ph - top:hi + ph - top, pw:pw + w, pb:pb + b], a[n, :, lo:hi]
        np.copyto(*(pair if gather else pair[::-1]))

    for n in range(len(a)):
        for i0 in range(0, ho, rows):
            i1 = min(i0 + rows, ho)
            p0, p1 = i0 * sh, (i1 - 1) * sh + kh
            if held is None or held[0] != n or p1 > held[1] + r:
                keep = max(0, held[1] + r - p0) if held and held[0] == n else 0
                if held and not gather:
                    copy(*held, win[:, :r - keep])
                win[:, :keep] = win[:, r - keep:]
                win[:, keep:] = 0
                if gather:
                    copy(n, p0 + keep, win[:, keep:])
                held = n, p0
            taps = [(slice(None), slice(dh, dh + (i1 - i0 - 1) * sh + 1, sh), ws, bs)
                    for dh, ws, bs in wb]
            yield n, slice(i0, i1), taps, work, win[:, p0 - held[1]:]
    if not gather:
        copy(*held, win)


def _im2col_blocks(x, weight_shape, stride, dtype):
    """Yield (n, rs, column, spare) per block: the block's T tap slices of
    x's zero-padded rows in dtype as a (T * c2, len(rs) * Wo * run) column in
    its work buffer, and the rest. Each row of x enters a window once."""
    for n, rs, taps, work, view in _windows(x, weight_shape, stride, dtype):
        shape = (len(taps),) + view[taps[0]].shape
        stacked = work[:int(np.prod(shape))].reshape(shape)
        for i, sl in enumerate(taps):
            stacked[i] = view[sl]
        yield n, rs, stacked.reshape(shape[0] * shape[1], -1), work[stacked.size:]


def _plane_blocks(x, weight_shape, stride, a, dtype):
    """Yield (rows, column) per block of a one-band-tap map within _BLOCK_BYTES,
    nb bands of all rows, else nr rows of one plane: a's c1 rows (views if a
    is bands-first) and the column in dtype, in _tap_major's order, of x's
    whole zero-padded grid, which it pads once, bands-first, and holds with
    one block's column (one channel in the shipped net). Every map refuses
    a zero extent, so nb's division by Ho * Wo holds."""
    (h, w, b), (ho, wo, bo), (sh, sw, sb) = x.shape[2:], a.shape[2:], stride
    ph, pw, pb = (k // 2 for k in weight_shape[2:])
    k, items = int(np.prod(weight_shape[1:])), _BLOCK_BYTES // np.dtype(dtype).itemsize
    nb, nr = max(1, min(bo, items // (k * ho * wo))), min(ho, max(1, items // (k * wo)))
    grid = np.zeros(x.shape[:2] + (b + 2 * pb, h + 2 * ph, w + 2 * pw), dtype)
    grid[:, :, pb:pb + b, ph:ph + h, pw:pw + w] = np.moveaxis(x, -1, 2)
    a = np.moveaxis(a, -1, 2)
    work = np.empty(k * nb * nr * wo, dtype)
    for n, i, j in np.ndindex(len(x), -(-bo // nb), -(-ho // nr)):
        bs, rs = slice(i * nb, min(i * nb + nb, bo)), slice(j * nr, min(j * nr + nr, ho))
        rows = a[n, :, bs, rs]
        column = work[:k * rows[0].size].reshape(weight_shape[2:] + (-1,) + rows.shape[1:])
        for dh, dw, db in np.ndindex(weight_shape[2:]):
            column[dh, dw, db] = grid[n, :, db::sb, dh::sh, dw::sw][:, bs, rs, :wo]
        yield rows.reshape(len(rows), -1), column.reshape(k, -1)


def _bands_first(shape, dtype, alloc=np.empty):
    """Array from alloc of an (N, C, H, W, B) shape over (N, C, B, H, W) memory."""
    n_n, c, h, w, b = shape
    return np.moveaxis(alloc((n_n, c, b, h, w), dtype), 2, -1)


def _band_rows(a, n, rs, buf, bands):
    """Rows rs of sample n of a in buf's dtype, once per band tap e, as a
    (bands * C, len(rs) * W * (B + bands - 1)) matrix: block e holds every
    band run after e zeros, so it meets the column shifted by e bands."""
    c, w, b = a.shape[1], a.shape[3], a.shape[4]
    rows = buf[: bands * c * (rs.stop - rs.start) * w * (b + bands - 1)].reshape(bands, c, -1)
    runs = rows[0].reshape(c, -1, w, b + bands - 1)
    runs[..., :b] = a[n, :, rs]
    runs[..., b:] = 0
    for e in range(1, bands):
        rows[e, :, :e] = 0
        rows[e, :, e:] = rows[0, :, :-e]
    return rows.reshape(bands * c, -1)


def _forward_core(x, weight, stride, out_dtype):
    """Cross-correlation without bias of x, in the result dtype of x, weight
    and the output: one GEMM of the band-stacked weight, then block e of the
    product added onto block 0 from e columns on, as band tap e reads every
    band run e elements further (kn2row); each run's last bands - 1 dropped."""
    c1, dtype = weight.shape[0], np.result_type(x, weight, out_dtype)
    wt = _tap_major(weight, stride, dtype)
    bands, (ho, wo, bo) = len(wt), _strided_hwb(x.shape[2:], stride)
    y = _bands_first((len(x), c1, ho, wo, bo), out_dtype)
    if bands == 1:  # the GEMM writes each block into its run of y's planes
        for out, column in _plane_blocks(x, weight.shape, stride, y, dtype):
            np.matmul(wt[0], column, out=out)
        return y
    for n, rs, column, spare in _im2col_blocks(x, weight.shape, stride, dtype):
        m = column.shape[1]
        prod = np.matmul(wt.reshape(-1, len(column)), column,
                         out=spare[:bands * c1 * m].reshape(-1, m)).reshape(bands, -1)
        for e in range(1, bands):  # flat: what crosses into the next c1 row is dropped
            prod[0, :-e] += prod[e, e:]
        y[n, :, rs] = prod[0].reshape(c1, -1, wo, bo + bands - 1)[..., :bo]
    return y


def _input_grad_core(g, weight, stride, in_hwb, out_dtype):
    """Adjoint of _forward_core: grad_out scattered onto windows of the
    input's padded grid, in the result dtype of g, weight and the output, by
    one GEMM of the transposed band-stacked weight with the band-stacked
    grad rows; a row no later block touches is cropped into the result."""
    (n_n, c1), c2 = g.shape[:2], weight.shape[1]
    bands, dtype = _band_taps(weight.shape, stride), np.result_type(g, weight, out_dtype)
    wt = _tap_major(weight, stride, dtype).transpose(2, 0, 1).reshape(-1, bands * c1)
    # A row stride above half the kernel leaves rows that no window reaches: zeros.
    gx = _bands_first((n_n, c2) + in_hwb, out_dtype,
                      np.zeros if 2 * stride[0] > weight.shape[2] + 1 else np.empty)
    for n, rs, taps, work, view in _windows(gx, weight.shape, stride, dtype, gather=False):
        rows = _band_rows(g, n, rs, work, bands)
        size = len(wt) * rows.shape[1]
        prod = np.matmul(wt, rows, out=work[rows.size:rows.size + size].reshape(len(wt), -1))
        prod = prod.reshape(len(taps), c2, -1, g.shape[3], g.shape[4] + bands - 1)
        for i, sl in enumerate(taps):
            view[sl] += prod[i]
    return gx


def _weight_grad_core(x, g, weight, stride):
    """Weight grad from x and grad_out in weight's dtype: each block's
    product, band-stacked grad rows @ column.T, in the result dtype of x, g
    and weight, their sum in float64."""
    c1, c2, kh, kw, kb = weight.shape
    bands, dtype = _band_taps(weight.shape, stride), np.result_type(x, g, weight)
    gw = np.zeros((bands * c1, kh * kw * (kb // bands) * c2))
    part = np.empty(gw.shape, dtype)
    blocks = _plane_blocks(x, weight.shape, stride, g, dtype) if bands == 1 else (
        (_band_rows(g, n, rs, spare, bands), column)
        for n, rs, column, spare in _im2col_blocks(x, weight.shape, stride, dtype))
    for rows, column in blocks:  # g's planes are read in place where g is bands-first
        gw += np.matmul(rows.astype(dtype, copy=False), column.T, out=part)
    gw = gw.reshape(bands, c1, kh, kw, kb // bands, c2).transpose(1, 5, 2, 3, 0, 4)
    return np.ascontiguousarray(gw, weight.dtype).reshape(weight.shape)


def conv3d_forward(x, kernel, stride):
    """Strided "same"-padded cross-correlation mapping c2 -> c1 channels."""
    weight, bias = kernel.weight, kernel.bias
    x = _check_input(x, weight)
    c1 = weight.shape[0]
    if bias.shape[0] != c1:
        raise ShapeError(f"bias length {bias.shape[0]} != output channels {c1}")
    out_dtype = np.result_type(x.dtype, weight.dtype)
    y = _forward_core(x, weight, stride, out_dtype)
    y += bias.reshape(1, c1, 1, 1, 1).astype(out_dtype, copy=False)
    return y


def conv3d_backward(x, kernel, stride, grad_out, input_grad=True):
    """(grad_input, grad_weight, grad_bias) of conv3d_forward; grad_input
    is None when input_grad is false."""
    weight = kernel.weight
    x, grad_out = _check_input(x, weight), np.asarray(grad_out)
    expect = (x.shape[0], weight.shape[0]) + _strided_hwb(x.shape[2:], stride)
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape}, expected {expect}")
    gw = _weight_grad_core(x, grad_out, weight, stride)
    gx = _input_grad_core(grad_out, weight, stride, x.shape[2:], x.dtype) if input_grad else None
    gb = grad_out.sum(axis=(0, 2, 3, 4), dtype=np.float64)
    return gx, gw, gb.astype(kernel.bias.dtype, copy=False)


def tconv3d_forward(x, kernel, stride):
    """Transposed conv mapping c1 -> c2 channels, upsampling by the stride.

    Exactly the adjoint of conv3d_forward with the same kernel and stride
    (plus a bias per c2 channel), so a stride of s plays the role of the
    fractional stride 1/s: output extents are s times the input's.
    """
    weight, bias = kernel.weight, kernel.bias
    x = _check_input(x, weight, transposed=True)
    c2 = weight.shape[1]
    if bias.shape[0] != c2:
        raise ShapeError(f"bias length {bias.shape[0]} != output channels {c2}")
    out_hwb = tuple(s * n for n, s in zip(x.shape[2:], stride))
    out_dtype = np.result_type(x.dtype, weight.dtype)
    y = _input_grad_core(x, weight, stride, out_hwb, out_dtype)
    y += bias.reshape(1, c2, 1, 1, 1).astype(out_dtype, copy=False)
    return y


def tconv3d_backward(x, kernel, stride, grad_out, input_grad=True):
    """(grad_input, grad_weight, grad_bias) of tconv3d_forward; grad_input
    is None when input_grad is false."""
    weight = kernel.weight
    x, grad_out = _check_input(x, weight, transposed=True), np.asarray(grad_out)
    expect = (x.shape[0], weight.shape[1]) + tuple(s * n for n, s in zip(x.shape[2:], stride))
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape}, expected {expect}")
    gw = _weight_grad_core(grad_out, x, weight, stride)
    gx = _forward_core(grad_out, weight, stride, x.dtype) if input_grad else None
    gb = grad_out.sum(axis=(0, 2, 3, 4), dtype=np.float64)
    return gx, gw, gb.astype(kernel.bias.dtype, copy=False)


def activate(x, kind, out=None):
    """Elementwise tanh or sigmoid into out (x itself, say) or a new array."""
    if kind not in ("tanh", "sigmoid"):
        raise ConfigError(f"unknown nonlinearity {kind!r}")
    out = np.empty_like(x) if out is None else out
    if kind == "tanh":
        return np.tanh(x, out=out)
    # expit without the scipy import: exp only of -|x|, so it cannot
    # overflow; 1 / (1 + e) for x >= 0 and e / (1 + e) below, the numerator
    # max(e, x >= 0) as e <= 1 (np.where's select took 3x the rest). e and
    # the denominator share one scratch per nditer chunk; buffersize=0 means numpy's default.
    items = max(1, min(x.size, _SCRATCH_BYTES // (2 * x.dtype.itemsize)))
    scratch = np.empty((2, items), x.dtype)
    with np.nditer([x, out], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["writeonly"]], order="K", buffersize=items) as chunks:
        for xc, oc in chunks:
            e, den = scratch[:, :len(xc)]
            np.exp(np.negative(np.abs(xc, out=e), out=e), out=e)
            np.add(e, 1.0, out=den)
            np.divide(np.maximum(e, xc >= 0, out=e), den, out=oc)
    return out


def activate_grad(y, grad, kind, out=None):
    """Chain grad through the nonlinearity, given its *output* y, into out
    (grad itself, say) or a new array: grad * (1 - y*y) for tanh and
    (grad * y) * (1 - y) for the sigmoid, each product in that order."""
    if kind == "tanh":
        return np.multiply(grad, 1.0 - y * y, out=out)
    if kind == "sigmoid":
        return np.multiply(grad * y, 1.0 - y, out=out)
    raise ConfigError(f"unknown nonlinearity {kind!r}")
