"""Tensor-core tests: conv/tconv against literal oracles and finite differences."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_impls import (
    bands_first,
    bands_first_copy,
    conv3d_im2col,
    conv3d_input_grad_im2col,
    conv3d_reference,
    conv3d_weight_grad_im2col,
    fd_grad,
    max_rel_err,
    sigmoid_masked,
)
from hsdenoise import tensors
from hsdenoise.hsio import gen_synthetic
from hsdenoise.network import build_network, standard_config
from hsdenoise.noise import synthesize_case
from hsdenoise.tensors import (
    ConfigError,
    ConvKernel,
    ShapeError,
    activate,
    activate_grad,
    conv3d_backward,
    conv3d_forward,
    he_init,
    tconv3d_backward,
    tconv3d_forward,
)


def delta_kernel(c=1, k=3):
    w = np.zeros((c, c, k, k, k))
    for i in range(c):
        w[i, i, k // 2, k // 2, k // 2] = 1.0
    return ConvKernel(w, np.zeros(c))


def rand_case(rng, n=1, cin=2, cout=3, hwb=(5, 5, 4), k=(3, 3, 3), dtype=np.float64):
    x = rng.standard_normal((n, cin) + hwb).astype(dtype)
    w = rng.standard_normal((cout, cin) + k).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return x, ConvKernel(w, b)


class TestConvForward:
    def test_delta_kernel_is_identity(self):
        """Center-one kernel with stride 1, pad 1 reproduces the input."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 5, 5, 5))
        y = conv3d_forward(x, delta_kernel(), (1, 1, 1))
        np.testing.assert_allclose(y, x, rtol=0, atol=0)

    def test_ones_kernel_counts_neighbors(self):
        """All-ones input and kernel: interior value 27, corner value 8."""
        x = np.ones((1, 1, 5, 5, 5))
        k = ConvKernel(np.ones((1, 1, 3, 3, 3)), np.zeros(1))
        y = conv3d_forward(x, k, (1, 1, 1))
        assert y[0, 0, 2, 2, 2] == 27.0
        assert y[0, 0, 0, 0, 0] == 8.0
        ref = conv3d_reference(x, k.weight, k.bias, (1, 1, 1), (1, 1, 1))
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)

    def test_strided_output_extents(self):
        """4x4x3 input at stride (2,2,1), pad 1, k=3 gives a 2x2x3 output."""
        x = np.zeros((1, 1, 4, 4, 3))
        y = conv3d_forward(x, delta_kernel(), (2, 2, 1))
        assert y.shape == (1, 1, 2, 2, 3)

    @pytest.mark.parametrize(
        "stride,pad,hwb,k",
        [
            ((1, 1, 1), (1, 1, 1), (5, 5, 4), (3, 3, 3)),
            ((2, 2, 1), (1, 1, 1), (6, 4, 5), (3, 3, 3)),
            ((1, 1, 1), (1, 1, 0), (5, 6, 4), (3, 3, 1)),
            ((2, 1, 2), (1, 1, 1), (7, 5, 5), (3, 3, 3)),
        ],
    )
    def test_matches_loop_oracle(self, stride, pad, hwb, k):
        """Random instances agree with the six-nested-loop reference padded
        by `pad`, half the kernel extent."""
        rng = np.random.default_rng(7)
        x, kern = rand_case(rng, n=2, cin=2, cout=3, hwb=hwb, k=k)
        y = conv3d_forward(x, kern, stride)
        ref = conv3d_reference(x, kern.weight, kern.bias, stride, pad)
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_linear_in_input_with_zero_bias(self):
        """conv(a*x + b*y) == a*conv(x) + b*conv(y) within 1e-5."""
        rng = np.random.default_rng(3)
        x, kern = rand_case(rng)
        y2 = rng.standard_normal(x.shape)
        kern = ConvKernel(kern.weight, np.zeros_like(kern.bias))
        stride = (1, 1, 1)
        lhs = conv3d_forward(0.7 * x - 1.3 * y2, kern, stride)
        rhs = 0.7 * conv3d_forward(x, kern, stride) - 1.3 * conv3d_forward(y2, kern, stride)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(1)
        x, kern = rand_case(rng, dtype=np.float32)
        y = conv3d_forward(x, kern, (1, 1, 1))
        assert y.dtype == np.float32

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(2)
        x, kern = rand_case(rng, cin=2)
        bad = np.zeros((1, 4) + x.shape[2:])
        with pytest.raises(ShapeError, match="channels"):
            conv3d_forward(bad, kern, (1, 1, 1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ConvKernel(np.zeros((1, 1, 2, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_bias_length_checked(self, transposed):
        """Each forward map adds one bias per channel it produces, c1 for
        conv3d and c2 for tconv3d, and refuses any other length."""
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 2, 3, 3, 3))
        fwd, c_in, c_out = (tconv3d_forward, 3, 2) if transposed else (conv3d_forward, 2, 3)
        x = rng.standard_normal((1, c_in, 4, 4, 3))
        with pytest.raises(ShapeError, match=f"bias length {c_in} != output channels {c_out}"):
            fwd(x, ConvKernel(w, np.zeros(c_in)), (1, 1, 1))


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        x, kern = rand_case(rng)
        stride = (1, 1, 1)
        y = conv3d_forward(x, kern, stride)
        gx, gw, gb = conv3d_backward(x, kern, stride, np.zeros_like(y))
        assert not gx.any() and not gw.any() and not gb.any()

    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 1)])
    def test_matches_finite_differences(self, stride):
        """Every input/weight/bias grad entry agrees with central FD at 1e-3."""
        rng = np.random.default_rng(5)
        x, kern = rand_case(rng, n=1, cin=2, cout=3, hwb=(5, 5, 4))
        r = rng.standard_normal(conv3d_forward(x, kern, stride).shape)

        def loss():
            return float(np.sum(conv3d_forward(x, kern, stride) * r))

        fx, fw, fb = fd_grad(loss, [x, kern.weight, kern.bias])
        gx, gw, gb = conv3d_backward(x, kern, stride, r)
        assert max_rel_err(gx, fx) <= 1e-3
        assert max_rel_err(gw, fw) <= 1e-3
        assert max_rel_err(gb, fb) <= 1e-3

    def test_grad_input_is_adjoint(self):
        """<conv(x), y> == <x, grad_input(y)> for random x, y."""
        rng = np.random.default_rng(6)
        x, kern = rand_case(rng, hwb=(6, 5, 4))
        kern = ConvKernel(kern.weight, np.zeros_like(kern.bias))
        stride = (2, 1, 1)
        y = conv3d_forward(x, kern, stride)
        yr = rng.standard_normal(y.shape)
        gx, _, _ = conv3d_backward(x, kern, stride, yr)
        lhs = float(np.sum(y * yr))
        rhs = float(np.sum(x * gx))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_grad_out_shape_checked(self):
        rng = np.random.default_rng(8)
        x, kern = rand_case(rng)
        with pytest.raises(ShapeError, match="grad_out"):
            conv3d_backward(x, kern, (1, 1, 1), np.zeros((1, 3, 2, 2, 2)))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_input_channels_checked(self, transposed):
        """Both backward maps name x's wrong channel count (the forward maps'
        check), given a grad_out of the right shape, before any product."""
        rng = np.random.default_rng(19)
        x, kern = rand_case(rng, cin=2, cout=3)
        fwd, bwd = ((tconv3d_forward, tconv3d_backward) if transposed
                    else (conv3d_forward, conv3d_backward))
        if transposed:
            x = rng.standard_normal((1, 3, 5, 5, 4))
            kern = ConvKernel(kern.weight, np.zeros(2))
        grad_out = np.ones_like(fwd(x, kern, (1, 1, 1)))
        with pytest.raises(ShapeError, match="channels"):
            bwd(x[:, :1], kern, (1, 1, 1), grad_out)

    @pytest.mark.parametrize("axis", [0, 2, 3, 4])
    @pytest.mark.parametrize("name", ["conv3d_forward", "conv3d_backward",
                                      "tconv3d_forward", "tconv3d_backward"])
    def test_zero_extents_refused(self, name, axis):
        """Every map refuses an input with no samples, rows, columns or
        bands, as read_hsi and the noise cases refuse an empty cube, before
        any walk divides by an extent; the backward maps given a grad_out of
        the shape that input would have."""
        transposed = name.startswith("t")
        c_in, c_out = (3, 2) if transposed else (2, 3)
        shape = [2, c_in, 4, 4, 4]
        shape[axis] = 0
        x = np.zeros(shape)
        kern = ConvKernel(np.zeros((3, 2, 3, 3, 3)), np.zeros(c_out))
        args = (x, kern, (1, 1, 1))
        if name.endswith("backward"):
            args += (np.zeros(shape[:1] + [c_out] + shape[2:]),)
        with pytest.raises(ShapeError, match=re.escape(
                f"input extents must be positive, got {tuple(shape)}")):
            getattr(tensors, name)(*args)


class TestTconv:
    def test_upsamples_spatial_extents(self):
        """Fractional stride 1/2: 2x2x3 input becomes 4x4x3 output."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 2, 2, 3))
        w = rng.standard_normal((4, 2, 3, 3, 3))
        kern = ConvKernel(w, np.zeros(2))
        y = tconv3d_forward(x, kern, (2, 2, 1))
        assert y.shape == (1, 2, 4, 4, 3)

    def test_adjoint_of_strided_conv(self):
        """Same kernel, zero bias: <x, tconv(u)> == <conv(x), u> within 1e-5."""
        rng = np.random.default_rng(10)
        w = rng.standard_normal((3, 2, 3, 3, 3))
        kern = ConvKernel(w, np.zeros(2))
        kern_c = ConvKernel(w, np.zeros(3))
        stride = (2, 2, 1)
        x = rng.standard_normal((1, 2, 6, 4, 5))
        u = rng.standard_normal((1, 3, 3, 2, 5))
        lhs = float(np.sum(conv3d_forward(x, kern_c, stride) * u))
        rhs = float(np.sum(x * tconv3d_forward(u, kern, stride)))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_delta_kernel_stride1_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1, 5, 4, 3))
        y = tconv3d_forward(x, delta_kernel(), (1, 1, 1))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 3, 3, 2, 4))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(2)
        kern = ConvKernel(w, b)
        stride = (2, 2, 1)
        r = rng.standard_normal(tconv3d_forward(x, kern, stride).shape)

        def loss():
            return float(np.sum(tconv3d_forward(x, kern, stride) * r))

        fx, fw, fb = fd_grad(loss, [x, w, b])
        gx, gw, gb = tconv3d_backward(x, kern, stride, r)
        assert max_rel_err(gx, fx) <= 1e-3
        assert max_rel_err(gw, fw) <= 1e-3
        assert max_rel_err(gb, fb) <= 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 1), (2, 2, 2)])
    @pytest.mark.parametrize("wshape", [(6, 4, 3, 3, 1), (6, 5, 3, 3, 3)], ids=["3x3x1", "3x3x3"])
    def test_backward_shares_the_adjoint_cores(self, wshape, stride, dtype):
        """tconv3d_backward(b, k, s, a) returns conv3d_forward(a, k, s) with
        zero bias as its input gradient and conv3d_backward(a, k, s, b)'s
        weight gradient, value for value: the 3x3x1 kernel walks planes, the
        3x3x3 kernel rows (kn2row) unless the band axis is strided. a's
        extents are multiples of the stride, so b is a's whole output."""
        rng = np.random.default_rng(34)
        c1, c2 = wshape[:2]
        w = rng.standard_normal(wshape).astype(dtype)
        a = rng.standard_normal((2, c2, 6, 4, 6)).astype(dtype)
        b = rng.standard_normal(
            (2, c1) + tuple(n // s for n, s in zip(a.shape[2:], stride))).astype(dtype)
        tgx, tgw, _ = tconv3d_backward(b, ConvKernel(w, np.zeros(c2, dtype)), stride, a)
        kern = ConvKernel(w, np.zeros(c1, dtype))
        _, gw, _ = conv3d_backward(a, kern, stride, b)
        assert np.array_equal(tgx, conv3d_forward(a, kern, stride))
        assert np.array_equal(tgw, gw)


# Stacked kernels (c1, c2, kh, kw, kb) and strides of the standard network,
# every bank of a unit concatenated along its output channels.
NET_KERNELS = {
    "L01": ((64, 1, 3, 3, 3), (1, 1, 1)),
    "L03": ((64, 16, 3, 3, 3), (2, 2, 1)),
    "L08-transposed": ((64, 64, 3, 3, 3), (2, 2, 1)),
    "L12": ((4, 16, 3, 3, 3), (1, 1, 1)),
    "qru2d": ((32, 16, 3, 3, 1), (1, 1, 1)),
}


class TestMemoryLayout:
    """Every array a convolution core returns keeps the public (N, C, H, W, B)
    shape over (N, C, B, H, W) memory, so a band slice is whole H x W planes."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 1)])
    def test_outputs_are_bands_first(self, n, stride):
        rng = np.random.default_rng(60)
        x, kern = rand_case(rng, n=n, hwb=(6, 4, 5), dtype=np.float32)
        y = conv3d_forward(x, kern, stride)
        t = tconv3d_forward(y, ConvKernel(kern.weight, np.zeros(2, np.float32)), stride)
        gx, _, _ = conv3d_backward(x, kern, stride, y)
        tgx, _, _ = tconv3d_backward(y, kern, stride, t)
        assert [bands_first(a) for a in (y, t, gx, tgx)] == [True] * 4

    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 1)])
    def test_same_bytes_from_either_input_layout(self, stride):
        rng = np.random.default_rng(61)
        x, kern = rand_case(rng, n=2, hwb=(6, 4, 5), dtype=np.float32)
        g = conv3d_forward(x, kern, stride)
        runs = [(conv3d_forward(a, kern, stride),) + conv3d_backward(a, kern, stride, ga)
                + tconv3d_backward(ga, kern, stride, a)
                for a, ga in ((x, np.ascontiguousarray(g)), (bands_first_copy(x), g))]
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()


def assert_rel(actual, expected, tol=1e-10):
    """Largest deviation within tol of the largest expected magnitude."""
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= tol * scale


@pytest.mark.parametrize("name", sorted(NET_KERNELS))
def test_network_kernels_match_im2col_oracle(name):
    """Both maps and all gradients of each stacked network kernel agree with
    the im2col oracle to 1e-10 in float64; the input-side maps through
    <conv_ref(x), y> == <x, map(y)>."""
    wshape, stride = NET_KERNELS[name]
    c1, c2 = wshape[:2]
    ksize = wshape[2:]
    pad = tuple(k // 2 for k in ksize)
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, c2, 8, 6, 5))
    w = rng.standard_normal(wshape)
    b = rng.standard_normal(c1)
    assert_rel(conv3d_forward(x, ConvKernel(w, b), stride),
               conv3d_im2col(x, w, b, stride, pad))

    y_ref = conv3d_im2col(x, w, np.zeros(c1), stride, pad)
    y = rng.standard_normal(y_ref.shape)
    lhs = float(np.vdot(y_ref, y))
    gx, gw, _ = conv3d_backward(x, ConvKernel(w, b), stride, y)
    up = tconv3d_forward(y, ConvKernel(w, np.zeros(c2)), stride)
    assert abs(lhs - float(np.vdot(x, gx))) <= 1e-10 * abs(lhs)
    assert abs(lhs - float(np.vdot(x, up))) <= 1e-10 * abs(lhs)

    gw_ref = conv3d_weight_grad_im2col(x, y, ksize, stride, pad)
    assert_rel(gw, gw_ref)
    # <tconv(y), x> is <conv(x), y>, so both weight gradients are gw_ref.
    _, tgw, _ = tconv3d_backward(y, ConvKernel(w, np.zeros(c2)), stride, x)
    assert_rel(tgw, gw_ref)


# Thin kernels, T * c2 <= c1 for T kernel offsets: every offset runs in one
# stacked GEMM. (wshape, stride, batch)
THIN_KERNELS = {
    "c2=1-strided": ((64, 1, 3, 3, 3), (2, 2, 1), 2),
    "qru2d-c2=1": ((32, 1, 3, 3, 1), (1, 1, 1), 2),
    "transposed-64to2": ((64, 2, 3, 3, 3), (2, 2, 1), 2),
    "boundary-27": ((27, 1, 3, 3, 3), (1, 1, 1), 2),
}


@pytest.mark.parametrize("name", sorted(THIN_KERNELS))
def test_thin_kernels_match_im2col_oracle(name):
    """Kernels whose offsets all stack into one GEMM agree with the im2col
    oracle to 1e-10 in float64: both maps, both gradients of each, and the
    input-side maps through <conv_ref(x), y> == <x, map(y)>."""
    wshape, stride, n = THIN_KERNELS[name]
    c1, c2 = wshape[:2]
    ksize = wshape[2:]
    pad = tuple(k // 2 for k in ksize)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((n, c2, 8, 6, 5))
    w = rng.standard_normal(wshape)
    b = rng.standard_normal(c1)
    y_ref = conv3d_im2col(x, w, np.zeros(c1), stride, pad)
    assert_rel(conv3d_forward(x, ConvKernel(w, b), stride),
               conv3d_im2col(x, w, b, stride, pad))

    y = rng.standard_normal(y_ref.shape)
    lhs = float(np.vdot(y_ref, y))
    gw_ref = conv3d_weight_grad_im2col(x, y, ksize, stride, pad)
    gx, gw, gb = conv3d_backward(x, ConvKernel(w, b), stride, y)
    assert abs(lhs - float(np.vdot(x, gx))) <= 1e-10 * abs(lhs)
    assert_rel(gw, gw_ref)
    assert_rel(gb, y.sum(axis=(0, 2, 3, 4)))

    up = tconv3d_forward(y, ConvKernel(w, np.zeros(c2)), stride)
    assert abs(lhs - float(np.vdot(x, up))) <= 1e-10 * abs(lhs)
    # tconv's input gradient is the conv of its grad_out, here x.
    tgx, tgw, tgb = tconv3d_backward(y, ConvKernel(w, np.zeros(c2)), stride, x)
    assert_rel(tgx, y_ref)
    assert_rel(tgw, gw_ref)
    assert_rel(tgb, x.sum(axis=(0, 2, 3, 4)))


@pytest.mark.parametrize("c1, c2", [(64, 1), (32, 16)], ids=["thin", "wide"])
def test_forward_allocation_bound(c1, c2):
    """On float32 operands conv3d_forward allocates at most one window of
    zero-padded input rows, its weight copy, its output and one block buffer
    of at most the output's size (10% slack). The window spans the rows of a
    block within _BLOCK_BYTES; the plane walk (thin: one band tap) pads the
    whole grid bands-first. Keeping the column or product of every block, or
    a float64 copy of any of them, exceeds it."""
    rng = np.random.default_rng(23)
    hwb, ksize = (16, 16, 9), (3, 3, 3)
    x = rng.standard_normal((1, c2) + hwb).astype(np.float32)
    kern = ConvKernel(rng.standard_normal((c1, c2) + ksize).astype(np.float32),
                      np.zeros(c1, np.float32))
    stride = (1, 1, 1)
    bands = tensors._band_taps(kern.weight.shape, stride)
    row = (27 // bands * c2 + bands * c1) * 16 * (9 + bands - 1) * 4
    window = c2 * min(18, tensors._BLOCK_BYTES // row + 2) * 18 * 11 * 4
    out = c1 * int(np.prod(hwb)) * 4
    bound = 1.1 * (window + c1 * c2 * 27 * 4 + 2 * out)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conv3d_forward(x, kern, stride)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} bytes > bound {bound:.0f}"


# Kernels walked in blocks of three output rows: batch 2 on 26x6xB, so
# stride 1 gives 26 output rows per sample (blocks 3 x 8 + 2) and stride
# (2, 2, 1) gives 13 (3 x 4 + 1). The band taps leave the column for the
# c1 side except for the 3x3x1 kernel (one band tap), a strided band axis
# and c1 > kh * kw * c2 (the first layer's side). (wshape, stride, B)
BLOCKED_KERNELS = {
    "wide-stride1": ((32, 16, 3, 3, 3), (1, 1, 1), 5),
    "wide-strided": ((64, 16, 3, 3, 3), (2, 2, 1), 5),
    "thin-strided": ((64, 1, 3, 3, 3), (2, 2, 1), 5),
    "qru2d-3x3x1": ((32, 16, 3, 3, 1), (1, 1, 1), 5),
    "band-strided": ((64, 16, 3, 3, 3), (2, 2, 2), 6),
    "thin-stride1": ((64, 1, 3, 3, 3), (1, 1, 1), 5),
    "single-band": ((64, 16, 3, 3, 3), (1, 1, 1), 1),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_KERNELS))
def test_blocked_cores_match_im2col_oracle(name, monkeypatch):
    """With a block budget of three output rows, every core walks several
    blocks per sample, the last one shorter, and still agrees with the
    im2col oracle to 1e-10 in float64: both maps, both gradients of each,
    and the input-side maps through <conv_ref(x), y> == <x, map(y)>."""
    wshape, stride, n_bands = BLOCKED_KERNELS[name]
    c1, c2 = wshape[:2]
    ksize = wshape[2:]
    pad = tuple(k // 2 for k in ksize)
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, c2, 26, 6, n_bands))
    w = rng.standard_normal(wshape)
    b = rng.standard_normal(c1)
    y_ref = conv3d_im2col(x, w, np.zeros(c1), stride, pad)
    ho, wo, bo = y_ref.shape[2:]
    bands = tensors._band_taps(wshape, stride)
    row = (int(np.prod(ksize)) // bands * c2 + bands * c1) * wo * (bo + bands - 1)
    monkeypatch.setattr(tensors, "_BLOCK_BYTES", 3 * row * 8)
    rows = [rs.stop - rs.start for _, rs, _, _, _ in
            tensors._windows(x, wshape, stride, np.float64)]
    assert rows == 2 * ([3] * (ho // 3) + [ho % 3]) and ho % 3

    assert_rel(conv3d_forward(x, ConvKernel(w, b), stride),
               conv3d_im2col(x, w, b, stride, pad))
    y = rng.standard_normal(y_ref.shape)
    lhs = float(np.vdot(y_ref, y))
    gw_ref = conv3d_weight_grad_im2col(x, y, ksize, stride, pad)
    gx, gw, _ = conv3d_backward(x, ConvKernel(w, b), stride, y)
    assert abs(lhs - float(np.vdot(x, gx))) <= 1e-10 * abs(lhs)
    assert_rel(gw, gw_ref)

    up = tconv3d_forward(y, ConvKernel(w, np.zeros(c2)), stride)
    assert abs(lhs - float(np.vdot(x, up))) <= 1e-10 * abs(lhs)
    tgx, tgw, _ = tconv3d_backward(y, ConvKernel(w, np.zeros(c2)), stride, x)
    assert_rel(tgx, y_ref)
    assert_rel(tgw, gw_ref)


def test_forward_allocation_within_block_budget():
    """A wide layer whose column of all T offsets is far above the block
    budget: on float32 operands conv3d_forward allocates at most one window
    of zero-padded input rows, its weight copy and output plus one block
    buffer of at most _BLOCK_BYTES and the output's size (10% slack), so its
    working set does not grow with T * c2 * M. The window spans the rows of
    a block within _BLOCK_BYTES, 7 of the 66 grid rows. A whole padded
    input, a whole-output accumulator and product, or a float64 block
    buffer, exceed it."""
    rng = np.random.default_rng(25)
    c1, c2, hwb = 32, 16, (64, 32, 9)
    m = int(np.prod(hwb))
    assert 27 * c2 * m * 4 > 4 * tensors._BLOCK_BYTES
    x = rng.standard_normal((1, c2) + hwb).astype(np.float32)
    kern = ConvKernel(rng.standard_normal((c1, c2, 3, 3, 3)).astype(np.float32),
                      np.zeros(c1, np.float32))
    row = (9 * c2 + 3 * c1) * 32 * 11 * 4
    window = c2 * (tensors._BLOCK_BYTES // row + 2) * 34 * 11 * 4
    block = min(tensors._BLOCK_BYTES, c1 * m * 4)
    bound = 1.1 * (window + c1 * c2 * 27 * 4 + c1 * m * 4 + block)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conv3d_forward(x, kern, (1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} bytes > bound {bound:.0f}"


@pytest.mark.parametrize("stride", [(2, 2, 1), (1, 1, 1)])
def test_tconv_forward_allocation_within_block_budget(stride):
    """L10's float32 transposed map (32 -> 32 channels onto 64x64x31): it
    allocates at most its output, weight copy, one block buffer of at most
    _BLOCK_BYTES unless one row alone is larger, and one window of grid
    rows, the span of a block within _BLOCK_BYTES (10% slack). A whole
    padded grid beside the cropped output (33.2 MiB in all) exceeds it."""
    rng = np.random.default_rng(31)
    s = stride[0]
    x = rng.standard_normal((1, 32, 64 // s, 64 // s, 31)).astype(np.float32)
    kern = ConvKernel(rng.standard_normal((32, 32, 3, 3, 3)).astype(np.float32),
                      np.zeros(32, np.float32))
    out = 32 * 64 * 64 * 31 * 4
    row = (9 * 32 + 3 * 32) * (64 // s) * 33 * 4
    window = 32 * ((max(1, tensors._BLOCK_BYTES // row) - 1) * s + 3) * 66 * 33 * 4
    bound = 1.1 * (out + 32 * 32 * 27 * 4 + max(row, tensors._BLOCK_BYTES) + window)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tconv3d_forward(x, kern, stride)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} bytes > bound {bound:.0f}"


def grid_scatter(g, weight, stride, in_hwb):
    """The transposed map without bias as a whole-grid core takes it: a
    whole zero-padded grid, each block's GEMM added on tap by tap, block by
    block, then the halo cropped. A grid row gets its taps' products in
    block order, so its float32 bytes depend on the block split."""
    bands = tensors._band_taps(weight.shape, stride)
    wt = tensors._tap_major(weight, stride, g.dtype).transpose(2, 0, 1).reshape(27, -1)
    grid = np.zeros(g.shape[:1] + weight.shape[1:2] + tuple(n + 2 for n in in_hwb), g.dtype)
    gx = np.empty(g.shape[:1] + weight.shape[1:2] + in_hwb)
    for n, rs, taps, work, _ in tensors._windows(gx, weight.shape, stride, g.dtype, gather=False):
        prod = (wt @ tensors._band_rows(g, n, rs, work, bands)).reshape(
            len(taps), weight.shape[1], -1, g.shape[3], g.shape[4] + bands - 1)
        view = grid[n, :, rs.start * stride[0]:]
        for i, sl in enumerate(taps):
            view[sl] += prod[i]
    return grid[:, :, 1:-1, 1:-1, 1:-1]


@pytest.mark.parametrize("h", [1, 2, 5, 7])
@pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 1)])
def test_block_splits_keep_bytes(stride, h, monkeypatch):
    """A K <= 27 kernel, 8 <- 3 channels: the column has T * c2 = 27 rows
    and the transposed product sums bands * c1 = 24, so OpenBLAS's float32
    sums do not depend on a block's column count (see PLANE_KERNELS). With
    the block budget lowered to one, two or three output rows, the windows
    of grid rows roll from block to block and run past the grid's top and
    bottom. The forward and tconv's input gradient stay byte-equal to the
    run in one block per sample; the transposed forward and conv's input
    gradient to a whole grid's scatter of the same blocks."""
    rng = np.random.default_rng(32)
    wshape = (8, 3, 3, 3, 3)
    w = rng.standard_normal(wshape).astype(np.float32)
    kern, tkern = ConvKernel(w, np.zeros(8, np.float32)), ConvKernel(w, np.zeros(3, np.float32))
    x = rng.standard_normal((8, 3, h, 3, 31)).astype(np.float32)
    y = conv3d_forward(x, kern, stride)
    t = tconv3d_forward(y, tkern, stride)
    g, gt = (rng.standard_normal(a.shape).astype(np.float32) for a in (y, t))
    ho, wo, bo = y.shape[2:]
    assert [rs.stop - rs.start for _, rs, _, _, _ in
            tensors._windows(x, wshape, stride, np.float32)] == [ho] * 8
    forward = [conv3d_forward(x, kern, stride), tconv3d_backward(y, tkern, stride, gt)[0]]
    for rows in (1, 2, 3):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", rows * (27 + 24) * wo * (bo + 2) * 4)
        got = [conv3d_forward(x, kern, stride), tconv3d_backward(y, tkern, stride, gt)[0],
               tconv3d_forward(y, tkern, stride), conv3d_backward(x, kern, stride, g)[0]]
        want = forward + [grid_scatter(y, w, stride, t.shape[2:]),
                          grid_scatter(g, w, stride, x.shape[2:])]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("wshape, stride", [((4, 3, 1, 3, 3), (3, 1, 1)),
                                           ((4, 3, 3, 3, 3), (3, 3, 1))])
def test_rows_no_window_reaches_are_zero(wshape, stride, monkeypatch):
    """A stride above half the kernel rows skips input rows that no tap
    reaches, between windows or after the last. With blocks of one output
    row, both transposed maps still agree with the im2col oracle to 1e-10
    in float64: those rows of the input gradient are zero."""
    monkeypatch.setattr(tensors, "_BLOCK_BYTES", 4096)
    rng = np.random.default_rng(33)
    x = rng.standard_normal((2, 3, 18, 5, 4))
    w = rng.standard_normal(wshape)
    y = rng.standard_normal((2, 4) + tuple(-(-n // s) for n, s in zip(x.shape[2:], stride)))
    gx_ref = conv3d_input_grad_im2col(y, w, stride, x.shape[2:])
    assert not gx_ref[:, :, 17].any()
    gx, _, _ = conv3d_backward(x, ConvKernel(w, np.zeros(4)), stride, y)
    assert_rel(gx, gx_ref)
    up = tconv3d_forward(y, ConvKernel(w, np.zeros(3)), stride)
    assert_rel(up, conv3d_input_grad_im2col(y, w, stride, up.shape[2:]))


# The precision contract on float32 operands: each result within 32
# float32 epsilons of the largest magnitude of its float64 oracle.
# NET_KERNELS read up to 6.8e-7.
RTOL_FLOAT32 = 32 * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("name", sorted(NET_KERNELS))
def test_float32_cores_within_contract_of_im2col_oracle(name):
    """On float32 operands both maps and both gradients of each come out
    float32 and within RTOL_FLOAT32 of the float64 im2col oracles evaluated
    on the same float32 values."""
    wshape, stride = NET_KERNELS[name]
    c1, c2 = wshape[:2]
    ksize = wshape[2:]
    pad = tuple(k // 2 for k in ksize)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((2, c2, 8, 6, 5)).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    b = rng.standard_normal(c1).astype(np.float32)
    y_ref = conv3d_im2col(x, w, np.zeros(c1), stride, pad)
    y = rng.standard_normal(y_ref.shape).astype(np.float32)
    gx_ref = conv3d_input_grad_im2col(y, w, stride, x.shape[2:])
    gw_ref = conv3d_weight_grad_im2col(x, y, ksize, stride, pad)
    kern, tkern = ConvKernel(w, b), ConvKernel(w, np.zeros(c2, np.float32))
    gx, gw, _ = conv3d_backward(x, kern, stride, y)
    tgx, tgw, _ = tconv3d_backward(y, tkern, stride, x)
    pairs = [(conv3d_forward(x, kern, stride), conv3d_im2col(x, w, b, stride, pad)),
             (gx, gx_ref), (gw, gw_ref),
             (tconv3d_forward(y, tkern, stride), gx_ref), (tgx, y_ref), (tgw, gw_ref)]
    for actual, expected in pairs:
        assert actual.dtype == np.float32
        assert_rel(actual, expected, RTOL_FLOAT32)


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float64), (np.float64, np.float32)],
                         ids=["f32-x", "f32-kernel"])
@pytest.mark.parametrize("name", sorted(NET_KERNELS))
def test_mixed_dtypes_follow_contract(name, x_dtype, w_dtype):
    """Inputs of one dtype and a kernel of the other: each map computes in
    their result dtype (float64), so every result is the all-float64 run's
    bytes cast to its documented dtype: the operands' result dtype for the
    forward maps, the input's for input gradients, and the kernel's for
    weight and bias gradients."""
    wshape, stride = NET_KERNELS[name]
    c1, c2 = wshape[:2]
    rng = np.random.default_rng(28)
    x, w = (rng.standard_normal(s).astype(np.float32) for s in ((2, c2, 8, 6, 5), wshape))
    t, b, tb = (rng.standard_normal(s).astype(np.float32) for s in ((2, c1, 4, 3, 5), c1, c2))

    def run(in_dtype, k_dtype):
        kern, tkern = ConvKernel(w, b).astype(k_dtype), ConvKernel(w, tb).astype(k_dtype)
        xa, ta = x.astype(in_dtype), t.astype(in_dtype)
        y, up = conv3d_forward(xa, kern, stride), tconv3d_forward(ta, tkern, stride)
        g = np.ones_like(y) + y
        return ([y, up] + list(conv3d_backward(xa, kern, stride, g))
                + list(tconv3d_backward(ta, tkern, stride, up - 1)))

    got, want = run(x_dtype, w_dtype), run(np.float64, np.float64)
    dtypes = [np.float64, np.float64] + 2 * [x_dtype, w_dtype, w_dtype]
    for actual, expected, dtype in zip(got, want, dtypes):
        assert actual.dtype == dtype
        assert actual.tobytes() == expected.astype(dtype).tobytes()


def test_weight_grad_sums_blocks_in_float64(monkeypatch):
    """Float32 operands walked in 1,024 one-row blocks: each block's
    product is float32, but the blocks sum in float64, so both weight
    gradients stay within 2 float32 epsilons of the float64 oracle
    (0.5 measured). Positive operands keep the sum from cancelling:
    summed in float32, the blocks read 10.8 epsilons off."""
    monkeypatch.setattr(tensors, "_BLOCK_BYTES", 4096)
    rng = np.random.default_rng(27)
    wshape, stride, hwb = (8, 4, 3, 3, 3), (1, 1, 1), (128, 4, 8)
    x = rng.uniform(0.5, 1.5, (8, 4) + hwb).astype(np.float32)
    y = rng.uniform(0.5, 1.5, (8, 8) + hwb).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    assert len(list(tensors._windows(x, wshape, stride, np.float32))) == 1024
    gw_ref = conv3d_weight_grad_im2col(x, y, wshape[2:], stride, (1, 1, 1))
    _, gw, _ = conv3d_backward(x, ConvKernel(w, np.zeros(8, np.float32)), stride, y, False)
    _, tgw, _ = tconv3d_backward(y, ConvKernel(w, np.zeros(4, np.float32)), stride, x, False)
    for actual in (gw, tgw):
        assert actual.dtype == np.float32
        assert_rel(actual, gw_ref, 2 * float(np.finfo(np.float32).eps))


# Maps with one band tap, which walk whole band planes. Each column has
# T * c2 = 27 rows: at 27 rows or fewer, the float32 GEMM's sums do not
# depend on how many columns a block has (from 36 rows on, OpenBLAS's
# small-matrix kernel sums some column counts in another order).
# (wshape, stride)
PLANE_KERNELS = {
    "first-1to64": ((64, 1, 3, 3, 3), (1, 1, 1)),
    "qru2d-3x3x1": ((32, 3, 3, 3, 1), (1, 1, 1)),
    "band-strided": ((64, 1, 3, 3, 3), (2, 2, 2)),
}


@pytest.mark.parametrize("split", ["bands", "rows"])
@pytest.mark.parametrize("name", sorted(PLANE_KERNELS))
def test_plane_walk_splits_keep_forward_bytes(name, split, monkeypatch):
    """With the block budget lowered so that each sample splits into blocks
    of three band planes (bands), or each plane into blocks of two rows
    (rows), the last block shorter: the float32 forward is byte-equal to the
    run in one block per sample, and the forward and weight gradient stay
    within RTOL_FLOAT32 of the float64 oracles."""
    wshape, stride = PLANE_KERNELS[name]
    c1, c2 = wshape[:2]
    ksize = wshape[2:]
    pad = tuple(k // 2 for k in ksize)
    rng = np.random.default_rng(28)
    x = rng.standard_normal((2, c2, 9, 7, 13)).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    kern = ConvKernel(w, np.zeros(c1, np.float32))
    whole = conv3d_forward(x, kern, stride)
    ho, wo, bo = whole.shape[2:]
    k = c2 * int(np.prod(ksize))
    assert len(list(tensors._plane_blocks(x, wshape, stride, whole, np.float32))) == 2

    if split == "bands":
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 3 * k * ho * wo * 4)
        expect = [3 * ho * wo] * (bo // 3) + [bo % 3 * ho * wo]
    else:
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 2 * k * wo * 4)
        expect = ([2 * wo] * (ho // 2) + [ho % 2 * wo]) * bo
    cols = [column.shape[1] for _, column in
            tensors._plane_blocks(x, wshape, stride, whole, np.float32)]
    assert cols == 2 * expect and expect[-1] < expect[0]

    y = conv3d_forward(x, kern, stride)
    assert y.tobytes() == whole.tobytes()
    assert_rel(y, conv3d_im2col(x, w, np.zeros(c1), stride, pad), RTOL_FLOAT32)
    g = rng.standard_normal(y.shape).astype(np.float32)
    _, gw, _ = conv3d_backward(x, kern, stride, g, False)
    assert_rel(gw, conv3d_weight_grad_im2col(x, g, ksize, stride, pad), RTOL_FLOAT32)


def test_first_layer_forward_within_block_budget():
    """A float32 1 -> 64 forward over 1x1x24x24x220, gcs's first layer:
    it allocates at most its padded grid, weight copy and output plus one
    _BLOCK_BYTES block (10% slack). A full-size product or a transposed
    copy of the 32 MiB output exceeds it."""
    rng = np.random.default_rng(29)
    x = rng.standard_normal((1, 1, 24, 24, 220)).astype(np.float32)
    kern = ConvKernel(rng.standard_normal((64, 1, 3, 3, 3)).astype(np.float32),
                      np.zeros(64, np.float32))
    padded = 26 * 26 * 222 * 4
    bound = 1.1 * (padded + 64 * 27 * 4 + 64 * 24 * 24 * 220 * 4 + tensors._BLOCK_BYTES)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conv3d_forward(x, kern, (1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} bytes > bound {bound:.0f}"


def test_standard_net_float32_within_contract_of_float64_shadow():
    """The float32 standard network's output on a fixed case-5 cube stays
    within 1e-5 absolute of its float64 shadow's (output peak about 2.2)."""
    noisy, _ = synthesize_case(gen_synthetic(32, 32, 16, seed=45), 5, 46)
    x = noisy[np.newaxis, np.newaxis]
    model = build_network(standard_config(), seed=47)
    y32, _ = model.forward(x)
    y64, _ = model.astype(np.float64).forward(x.astype(np.float64))
    assert x.dtype == y32.dtype == np.float32
    assert float(np.max(np.abs(y32 - y64))) <= 1e-5


def test_float64_model_stays_float64():
    """A float64 model computes in float64 end to end: its output, input
    gradient and all 56 parameter gradients come out float64, and their
    norms match values pinned from the float64 cores to 1e-12."""
    model = build_network(standard_config(width_multiplier=0.25), seed=43, dtype=np.float64)
    rng = np.random.default_rng(44)
    x = rng.standard_normal((2, 1, 8, 8, 6))
    y, traces = model.forward(x, keep_traces=True)
    gx, grads = model.backward(traces, rng.standard_normal(y.shape))
    assert len(grads) == 56
    assert {a.dtype for a in [y, gx] + grads} == {np.dtype(np.float64)}
    norms = [np.linalg.norm(y), np.linalg.norm(gx), np.sqrt(sum(np.vdot(g, g) for g in grads))]
    assert norms == pytest.approx(
        [29.97562182405061, 33.372515258698265, 209.98073833138682], rel=1e-12)


class TestActivations:
    def test_known_values(self):
        assert activate(np.array(0.0), "tanh") == 0.0
        assert activate(np.array(0.0), "sigmoid") == 0.5

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1000) * 5
        s = activate(x, "sigmoid") + activate(-x, "sigmoid")
        np.testing.assert_allclose(s, 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_oracle(self, dtype):
        """Bit-identical to the sign-split masked formula, specials included
        (NaN stays NaN); +-88 and +-745 are where exp leaves float32 and
        float64 range."""
        rng = np.random.default_rng(16)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30]
        edges = [s * (e + d) for e in (88.0, 745.0) for d in (-0.8, -0.1, 0.0, 0.4, 0.8)
                 for s in (1, -1)]
        x = np.concatenate([special, edges, rng.standard_normal(2000) * 30]).astype(dtype)
        with np.errstate(under="ignore"):
            got = activate(x, "sigmoid")
            want = sigmoid_masked(x)
        assert got.dtype == dtype
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("items", [7, 40, 100, None])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_in_place_matches_fresh(self, kind, dtype, items, monkeypatch):
        """activate(x, kind, out=x) on a channel slice of a bands-first
        block with N = 2 writes the bytes of activate(x, kind), specials and
        exp edges included, and leaves the other channels alone. `items`
        shrinks the sigmoid's scratch so that chunks are part of a W row (7),
        a few band planes (40) or one channel (100); None keeps the module's."""
        if items is not None:
            monkeypatch.setattr(tensors, "_SCRATCH_BYTES", 2 * items * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(17)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30]
        edges = [s * (e + d) for e in (88.0, 745.0) for d in (-0.8, -0.1, 0.0, 0.4, 0.8)
                 for s in (1, -1)]
        block = bands_first_copy((rng.standard_normal((2, 4, 3, 5, 6)) * 30).astype(dtype))
        view = block[:, 2:]
        spots = rng.choice(view.size, len(special) + len(edges), replace=False)
        view[np.unravel_index(spots, view.shape)] = special + edges
        x, others = view.copy(), block[:, :2].tobytes()
        with np.errstate(under="ignore"):
            fresh = activate(view, kind)
            got = activate(view, kind, out=view)
            want = sigmoid_masked(x) if kind == "sigmoid" else np.tanh(x)
        assert got is view
        assert got.tobytes() == fresh.tobytes()
        assert np.array_equal(got, want, equal_nan=True)
        assert block[:, :2].tobytes() == others

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_grad_in_place_matches_fresh(self, kind, dtype):
        """activate_grad(y, g, kind, out=g) on a channel slice of a
        bands-first block writes the bytes of the fresh call, whose products
        run grad * (1 - y*y) and (grad * y) * (1 - y), and leaves the other
        channels alone."""
        rng = np.random.default_rng(18)
        y = activate(rng.standard_normal((2, 2, 3, 5, 6)).astype(dtype), kind)
        block = bands_first_copy(rng.standard_normal((2, 4, 3, 5, 6)).astype(dtype))
        view = block[:, 2:]
        g, others = view.copy(), block[:, :2].tobytes()
        fresh = activate_grad(y, view, kind)
        want = g * (1.0 - y * y) if kind == "tanh" else g * y * (1.0 - y)
        got = activate_grad(y, view, kind, out=view)
        assert got is view
        assert fresh.dtype == dtype and fresh.tobytes() == want.tobytes()
        assert got.tobytes() == want.tobytes()
        assert block[:, :2].tobytes() == others

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_grad_matches_fd(self, kind):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40,))
        r = rng.standard_normal((40,))

        def loss():
            return float(np.sum(activate(x, kind) * r))

        (fx,) = fd_grad(loss, [x], eps=1e-5)
        gx = activate_grad(activate(x, kind), r, kind)
        assert max_rel_err(gx, fx) <= 1e-4

    def test_ranges(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(500) * 20
        t = activate(x, "tanh")
        s = activate(x, "sigmoid")
        assert np.all(np.abs(t) <= 1)
        assert np.all(s >= 0) and np.all(s <= 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            activate(np.zeros(3), "relu")

    def test_sigmoid_of_empty_array(self):
        """An empty input gives an empty output of its shape."""
        got = activate(np.empty((2, 0, 3)), "sigmoid")
        assert got.shape == (2, 0, 3) and got.dtype == np.float64


class TestHeInit:
    def test_deterministic_and_scaled(self):
        w1 = he_init(np.random.default_rng(42), (16, 8, 3, 3, 3), 8 * 27)
        w2 = he_init(np.random.default_rng(42), (16, 8, 3, 3, 3), 8 * 27)
        assert np.array_equal(w1, w2)
        assert w1.dtype == np.float32
        std = float(w1.std())
        expect = np.sqrt(2.0 / (8 * 27))
        assert abs(std - expect) / expect < 0.1


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(3, 7),
    w=st.integers(3, 7),
    b=st.integers(1, 5),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    sh=st.integers(1, 2),
    sw=st.integers(1, 2),
)
def test_conv_oracle_property(h, w, b, cin, cout, sh, sw):
    """Random small shapes always match the loop oracle."""
    rng = np.random.default_rng(h * 1000 + w * 100 + b * 10 + cin)
    x = rng.standard_normal((1, cin, h, w, b))
    wt = rng.standard_normal((cout, cin, 3, 3, 3))
    bias = rng.standard_normal(cout)
    kern = ConvKernel(wt, bias)
    y = conv3d_forward(x, kern, (sh, sw, 1))
    ref = conv3d_reference(x, wt, bias, (sh, sw, 1), (1, 1, 1))
    np.testing.assert_allclose(y, ref, rtol=1e-11, atol=1e-11)
