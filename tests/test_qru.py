"""QRU tests: gate algebra, pooling recurrence oracles, gradients, causality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hsdenoise.qru as qru
from reference_impls import (
    bands_first,
    bands_first_copy,
    conv3d_reference,
    fd_grad,
    max_rel_err,
    pool_phi_sum,
    pool_unrolled_b2,
    stacked_gate_grads,
)
from hsdenoise.tensors import (
    ConfigError,
    ConvKernel,
    ShapeError,
    activate,
    activate_grad,
    conv3d_backward,
    conv3d_forward,
    tconv3d_backward,
    tconv3d_forward,
)
from hsdenoise.qru import (
    BACKWARD,
    BIDIRECTIONAL,
    FORWARD,
    PoolingTrace,
    QruUnit,
    make_variant,
    qru_pool_backward,
    qru_pool_forward,
)
from hsdenoise.network import standard_config


def rand_banks(rng, cin=2, cout=3, k=(3, 3, 3), dtype=np.float64):
    """One direction's random [wz, wf] banks, in declaration order."""
    def kern():
        w = rng.standard_normal((cout, cin) + k).astype(dtype) * 0.3
        b = rng.standard_normal(cout).astype(dtype) * 0.1
        return ConvKernel(w, b)

    return [kern(), kern()]


def gated(banks, direction=FORWARD):
    """A stride-1 gated unit over explicit banks."""
    cout, cin = banks[0].weight.shape[:2]
    return QruUnit(cin, cout, (1, 1, 1), False, direction, "qru3d", banks)


def gates_of(unit, x):
    """The (z, f) tensors of a one-direction unit, read from its trace."""
    _, (_, traces) = unit.forward(x, keep_trace=True)
    return traces[0].z, traces[0].f


def rand_zf(rng, shape):
    z = np.tanh(rng.standard_normal(shape))
    f = 1.0 / (1.0 + np.exp(-rng.standard_normal(shape)))
    return z, f


class TestGates:
    def test_zero_input_zero_bias(self):
        """Zero input with zero biases: z is 0 everywhere, f is 0.5."""
        rng = np.random.default_rng(0)
        wz, wf = rand_banks(rng)
        wz.bias[:] = 0
        wf.bias[:] = 0
        x = np.zeros((1, 2, 5, 5, 4))
        z, f = gates_of(gated([wz, wf]), x)
        assert not z.any()
        np.testing.assert_allclose(f, 0.5, atol=0)

    def test_output_ranges(self):
        rng = np.random.default_rng(1)
        unit = gated(rand_banks(rng))
        x = rng.standard_normal((2, 2, 5, 5, 4))
        z, f = gates_of(unit, x)
        assert np.all(np.abs(z) < 1)
        assert np.all((f > 0) & (f < 1))
        assert z.shape == f.shape


class TestPoolForward:
    def test_open_gate_passes_candidate(self):
        """f == 0 makes h equal z exactly."""
        rng = np.random.default_rng(2)
        z = rng.standard_normal((1, 2, 3, 3, 5))
        h = qru_pool_forward(z, np.zeros_like(z), FORWARD)
        np.testing.assert_array_equal(h, z)

    def test_closed_gate_holds_zero_state(self):
        """f == 1 keeps copying the all-zero initial state."""
        rng = np.random.default_rng(3)
        z = rng.standard_normal((1, 2, 3, 3, 5))
        h = qru_pool_forward(z, np.ones_like(z), BACKWARD)
        assert not h.any()

    def test_two_band_closed_form(self):
        """Matches the hand-unrolled two-band recurrence within 1e-6."""
        rng = np.random.default_rng(4)
        z, f = rand_zf(rng, (2, 3, 4, 4, 2))
        h = qru_pool_forward(z, f, FORWARD)
        np.testing.assert_allclose(h, pool_unrolled_b2(z, f), atol=1e-6)

    @pytest.mark.parametrize("n_bands", [1, 3, 7, 16])
    def test_matches_contribution_sum(self, n_bands):
        """Every h_j equals the explicit phi-sum over source bands."""
        rng = np.random.default_rng(n_bands)
        z, f = rand_zf(rng, (1, 2, 3, 3, n_bands))
        h = qru_pool_forward(z, f, FORWARD)
        for j in range(n_bands):
            np.testing.assert_allclose(h[..., j], pool_phi_sum(z, f, j), atol=1e-5)

    def test_backward_is_band_reversal(self):
        rng = np.random.default_rng(5)
        z, f = rand_zf(rng, (1, 2, 3, 3, 6))
        hb = qru_pool_forward(z, f, BACKWARD)
        hf = qru_pool_forward(z[..., ::-1], f[..., ::-1], FORWARD)
        np.testing.assert_allclose(hb, hf[..., ::-1], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_flipped_forward_bytes(self, dtype):
        """A backward pass into a bank view of a stacked bands-first buffer
        has the bytes of the forward pass over the flipped bands, flipped back."""
        rng = np.random.default_rng(48)
        z, f = (bands_first_copy(a.astype(dtype)) for a in rand_zf(rng, (2, 3, 4, 5, 6)))
        out = np.split(bands_first_copy(np.zeros((2, 6, 4, 5, 6), dtype)), 2, axis=1)[1]
        h = qru_pool_forward(z, f, BACKWARD, out=out)
        want = np.flip(qru_pool_forward(np.flip(z, -1), np.flip(f, -1), FORWARD), -1)
        assert h is out and h.dtype == dtype
        assert h.tobytes() == want.tobytes()

    def test_shape_mismatch_raises(self):
        with pytest.raises(Exception, match="shape"):
            qru_pool_forward(np.zeros((1, 1, 2, 2, 3)), np.zeros((1, 1, 2, 2, 4)), FORWARD)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_in_place_matches_fresh(self, direction, dtype):
        """h written over z (out=z) has the bytes of a fresh h, on the
        channel-split bands-first views a unit pools, N = 2; f is untouched."""
        rng = np.random.default_rng(43)
        block = bands_first_copy(np.concatenate(rand_zf(rng, (2, 3, 4, 5, 6)), axis=1)
                                 .astype(dtype))
        z, f = block[:, :3], block[:, 3:]
        fresh = qru_pool_forward(z, f, direction)
        f_bytes = f.tobytes()
        h = qru_pool_forward(z, f, direction, out=z)
        assert h is z
        assert h.tobytes() == fresh.tobytes()
        assert f.tobytes() == f_bytes


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_bands=st.integers(1, 12))
def test_pool_convexity_property(seed, n_bands):
    """h_b sits between h_{b-1} and z_b elementwise, so |h| <= max|z| < 1."""
    rng = np.random.default_rng(seed)
    z, f = rand_zf(rng, (1, 1, 2, 2, n_bands))
    h = qru_pool_forward(z, f, FORWARD)
    prev = np.zeros(z.shape[:-1])
    for b in range(n_bands):
        lo = np.minimum(prev, z[..., b]) - 1e-12
        hi = np.maximum(prev, z[..., b]) + 1e-12
        assert np.all(h[..., b] >= lo) and np.all(h[..., b] <= hi)
        prev = h[..., b]
    assert np.max(np.abs(h)) <= np.max(np.abs(z)) + 1e-12
    assert np.max(np.abs(h)) < 1


class TestPoolBackward:
    def test_single_band_closed_form(self):
        """B=1: grad_z = (1-f) g and grad_f = -z g."""
        rng = np.random.default_rng(6)
        z, f = rand_zf(rng, (1, 2, 3, 3, 1))
        h = qru_pool_forward(z, f, FORWARD)
        g = rng.standard_normal(z.shape)
        gz, gf = qru_pool_backward(PoolingTrace(z, f, h, FORWARD), g)
        np.testing.assert_allclose(gz, (1 - f) * g, atol=1e-12)
        np.testing.assert_allclose(gf, -z * g, atol=1e-12)

    def test_zero_grad_h(self):
        rng = np.random.default_rng(7)
        z, f = rand_zf(rng, (1, 1, 2, 2, 4))
        h = qru_pool_forward(z, f, FORWARD)
        gz, gf = qru_pool_backward(PoolingTrace(z, f, h, FORWARD), np.zeros_like(z))
        assert not gz.any() and not gf.any()

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_matches_finite_differences(self, direction):
        """Random five-band case agrees with central FD at 1e-3."""
        rng = np.random.default_rng(8)
        z, f = rand_zf(rng, (1, 2, 3, 3, 5))
        g = rng.standard_normal(z.shape)

        def loss():
            return float(np.sum(qru_pool_forward(z, f, direction) * g))

        fz, ff = fd_grad(loss, [z, f])
        h = qru_pool_forward(z, f, direction)
        gz, gf = qru_pool_backward(PoolingTrace(z, f, h, direction), g)
        assert max_rel_err(gz, fz) <= 1e-3
        assert max_rel_err(gf, ff) <= 1e-3


def unit_loss_grads(unit, x, r):
    """Analytic input/parameter grads of sum(unit(x) * r)."""
    y, trace = unit.forward(x, keep_trace=True)
    gx, grads = unit.backward(trace, r)
    return y, gx, grads


UNIT_CASES = [
    ("qru3d", FORWARD, False),
    ("qru3d", BACKWARD, False),
    ("qru3d", BIDIRECTIONAL, False),
    ("qru3d", FORWARD, True),
    ("qru2d", FORWARD, False),
    ("qru2d", BIDIRECTIONAL, False),
    ("qru2d", FORWARD, True),
    ("qru2d", BIDIRECTIONAL, True),
    ("c3d", FORWARD, False),
    ("c3d", FORWARD, True),
]


class TestUnitGradients:
    @pytest.mark.parametrize("kind,direction,transposed", UNIT_CASES)
    def test_unit_fd_check(self, kind, direction, transposed):
        """Whole-unit parameter and input gradients pass FD at 1e-3."""
        rng = np.random.default_rng(11)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant(kind).build(
            rng, cin=2, cout=3, stride=stride, direction=direction,
            transposed=transposed, dtype=np.float64,
        )
        hwb = (2, 3, 4) if transposed else (5, 4, 4)
        # Mild input scale keeps FD truncation error well under the 1e-3
        # tolerance; the analytic side does not care.
        x = 0.5 * rng.standard_normal((1, 2) + hwb)
        y0, _ = unit.forward(x)
        r = rng.standard_normal(y0.shape)

        def loss():
            y, _ = unit.forward(x)
            return float(np.sum(y * r))

        numeric = fd_grad(loss, [x] + unit.param_arrays())
        _, gx, grads = unit_loss_grads(unit, x, r)
        assert max_rel_err(gx, numeric[0]) <= 1e-3
        for got, want in zip(grads, numeric[1:]):
            assert max_rel_err(got, want) <= 1e-3


def per_bank_unit(unit, x, grad_y):
    """The unit computed one bank at a time: a separate convolution and
    convolution backward per bank, then activations and pooling.
    Returns (y, grad_x, per-bank grads in param_arrays() order)."""
    conv = tconv3d_forward if unit.transposed else conv3d_forward
    conv_bwd = tconv3d_backward if unit.transposed else conv3d_backward
    banks = unit.banks
    if len(banks) == 1:
        y = activate(conv(x, banks[0], unit.stride), "tanh")
        g_pre = activate_grad(y, grad_y, "tanh")
        gx, gw, gb = conv_bwd(x, banks[0], unit.stride, g_pre)
        return y, gx, [gw, gb]
    dirs = [FORWARD, BACKWARD] if unit.direction == BIDIRECTIONAL else [unit.direction]
    y, gx, grads = 0.0, 0.0, []
    for d, wz, wf in zip(dirs, banks[0::2], banks[1::2]):
        z = activate(conv(x, wz, unit.stride), "tanh")
        f = activate(conv(x, wf, unit.stride), "sigmoid")
        h = qru_pool_forward(z, f, d)
        y = y + h
        gz, gf = qru_pool_backward(PoolingTrace(z, f, h, d), grad_y)
        for kern, g_pre in ((wz, activate_grad(z, gz, "tanh")),
                            (wf, activate_grad(f, gf, "sigmoid"))):
            gx_bank, gw, gb = conv_bwd(x, kern, unit.stride, g_pre)
            gx = gx + gx_bank
            grads += [gw, gb]
    return y, gx, grads


class TestStackedUnit:
    @pytest.mark.parametrize("kind,direction,transposed", UNIT_CASES)
    def test_matches_per_bank_composition(self, kind, direction, transposed, monkeypatch):
        """One stacked convolution equals the bank-by-bank route to 1e-10,
        with one convolution call forward and one backward per unit."""
        rng = np.random.default_rng(19)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant(kind).build(
            rng, cin=2, cout=3, stride=stride, direction=direction,
            transposed=transposed, dtype=np.float64,
        )
        hwb = (2, 3, 4) if transposed else (5, 4, 4)
        x = rng.standard_normal((1, 2) + hwb)
        y0, _ = unit.forward(x)
        r = rng.standard_normal(y0.shape)
        want_y, want_gx, want_grads = per_bank_unit(unit, x, r)

        calls = []
        for name in ("conv3d_forward", "tconv3d_forward",
                     "conv3d_backward", "tconv3d_backward"):
            def counted(*args, _fn=getattr(qru, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(qru, name, counted)
        prefix = "tconv3d" if transposed else "conv3d"
        y, trace = unit.forward(x, keep_trace=True)
        assert calls == [prefix + "_forward"]
        gx, grads = unit.backward(trace, r)
        assert calls == [prefix + "_forward", prefix + "_backward"]

        assert max_rel_err(y, want_y, floor=1.0) <= 1e-10
        assert max_rel_err(gx, want_gx, floor=1.0) <= 1e-10
        assert len(grads) == len(want_grads) == len(unit.param_arrays())
        for got, want, p in zip(grads, want_grads, unit.param_arrays()):
            assert got.shape == p.shape
            assert max_rel_err(got, want, floor=1.0) <= 1e-10

    @pytest.mark.parametrize("kind,direction,transposed", UNIT_CASES)
    def test_param_arrays_are_live_storage(self, kind, direction, transposed):
        """Writing into any param_arrays() entry changes the next forward."""
        rng = np.random.default_rng(20)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant(kind).build(
            rng, cin=2, cout=3, stride=stride, direction=direction,
            transposed=transposed, dtype=np.float64,
        )
        hwb = (2, 3, 4) if transposed else (5, 4, 4)
        x = rng.standard_normal((1, 2) + hwb)
        for p in unit.param_arrays():
            before, _ = unit.forward(x)
            p.reshape(-1)[0] += 0.5
            after, _ = unit.forward(x)
            assert np.abs(after - before).max() > 1e-6


class TestStackedBackward:
    """Gated units write every bank's gate gradient in place into one
    stacked buffer; the bytes are those of the unfused route."""

    @staticmethod
    def _captured_backward(unit, trace, grad_y, monkeypatch):
        """unit.backward's result, the arguments of its one convolution
        backward call and the out= buffers of its activate_grad calls."""
        name = "tconv3d_backward" if unit.transposed else "conv3d_backward"
        real = getattr(qru, name)
        seen, outs = [], []

        def capture(*args):
            seen.append(args)
            return real(*args)

        def capture_grad(y, grad, kind, out=None, _fn=qru.activate_grad):
            outs.append(out)
            return _fn(y, grad, kind, out=out)

        monkeypatch.setattr(qru, name, capture)
        monkeypatch.setattr(qru, "activate_grad", capture_grad)
        gx, grads = unit.backward(trace, grad_y)
        assert len(seen) == 1
        return (gx, grads), seen[0], real, outs

    @pytest.mark.parametrize("dtype,grad_dtype", [(np.float32, np.float32),
                                                  (np.float64, np.float64),
                                                  (np.float32, np.float64)])
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD, BIDIRECTIONAL])
    def test_same_bytes_as_unfused_route(self, direction, transposed, dtype, grad_dtype,
                                         monkeypatch):
        """N = 2, all three directions, transposed or not, float32 and
        float64 units fed grad_y of their own dtype, and a float32 unit fed
        a float64 grad_y: the stacked gate gradient has the oracle's bytes,
        dtype and memory order, and the input and parameter gradients are
        the convolution backward of the oracle's buffer, byte for byte.
        Each bank's activate_grad writes into that buffer."""
        rng = np.random.default_rng(46)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant("qru3d").build(rng, 2, 3, stride, direction, transposed, dtype=dtype)
        x = rng.standard_normal((2, 2, 4, 4, 5)).astype(dtype)
        y, trace = unit.forward(x, keep_trace=True)
        grad_y = rng.standard_normal(y.shape).astype(grad_dtype)
        (gx, grads), args, real, outs = self._captured_backward(unit, trace, grad_y,
                                                                monkeypatch)
        want = stacked_gate_grads(trace[1], grad_y)
        got = args[3]
        assert len(outs) == len(unit.banks)
        assert all(out is not None and np.shares_memory(out, got) for out in outs)
        assert got.dtype == want.dtype == dtype
        assert got.strides == want.strides and bands_first(got)
        assert got.tobytes() == want.tobytes()
        want_gx, want_gw, want_gb = real(*args[:3], want, True)
        n = len(unit.banks)
        axis = 1 if transposed else 0
        want_grads = [a for w, b in zip(np.split(want_gw, n, axis=axis), np.split(want_gb, n))
                      for a in (w, b)]
        for a, b in zip([gx] + grads, [want_gx] + want_grads):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_backward_is_flipped_forward_bytes(self, dtype):
        """qru_pool_backward of a backward trace into bank views of a stacked
        bands-first buffer has the bytes of the forward-direction gradients
        of the band-flipped trace, flipped back."""
        rng = np.random.default_rng(49)
        z, f = (bands_first_copy(a.astype(dtype)) for a in rand_zf(rng, (2, 3, 4, 5, 6)))
        g = bands_first_copy(rng.standard_normal(z.shape).astype(dtype))
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, BACKWARD), BACKWARD)
        zr, fr = np.flip(z, -1), np.flip(f, -1)
        flipped = PoolingTrace(zr, fr, qru_pool_forward(zr, fr, FORWARD), FORWARD)
        views = np.split(bands_first_copy(np.zeros((2, 6, 4, 5, 6), dtype)), 2, axis=1)
        got = qru_pool_backward(tr, g, out=views)
        want = qru_pool_backward(flipped, np.flip(g, -1))
        for a, view, b in zip(got, views, want):
            assert a is view and a.dtype == dtype
            assert a.tobytes() == np.flip(b, -1).tobytes()

    def test_pool_backward_out_matches_fresh(self):
        """qru_pool_backward into given (grad_z, grad_f) views equals the
        fresh arrays, for a float32 trace and a float64 grad_h."""
        rng = np.random.default_rng(47)
        z, f = (bands_first_copy(a.astype(np.float32)) for a in rand_zf(rng, (2, 3, 4, 4, 6)))
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, BACKWARD), BACKWARD)
        g = rng.standard_normal(z.shape)
        fresh = qru_pool_backward(tr, g)
        stacked = np.empty_like(z, shape=(2, 6, 4, 4, 6))
        views = np.split(stacked, 2, axis=1)
        got = qru_pool_backward(tr, g, out=views)
        assert all(a is b for a, b in zip(got, views))
        for a, b in zip(views, fresh):
            assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()


class TestBackwardShapeCheck:
    @pytest.mark.parametrize("shape", [(4, 5), (1, 1, 1, 1, 1), (2, 3, 4, 4, 1)])
    @pytest.mark.parametrize("kind,direction", [("c3d", FORWARD), ("qru3d", FORWARD),
                                                ("qru3d", BIDIRECTIONAL)])
    def test_misshaped_grad_y_rejected(self, kind, direction, shape):
        """Every kind rejects a grad_y that is not the output's shape, even
        one that broadcasts against it, and names both shapes."""
        rng = np.random.default_rng(48)
        unit = make_variant(kind).build(rng, 2, 3, (1, 1, 1), direction)
        x = rng.standard_normal((2, 2, 4, 4, 5)).astype(np.float32)
        _, trace = unit.forward(x, keep_trace=True)
        bad = np.ones(shape, np.float32)
        with pytest.raises(ShapeError, match=rf"grad_y shape \({shape[0]}, .* != unit output "
                                             rf"shape \(2, 3, 4, 4, 5\)"):
            unit.backward(trace, bad)


class TestBandsFirstLayout:
    """Unit outputs, traces and pooling gradients keep the convolution's
    bands-first memory; pooling reads either layout to the same bytes."""

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD, BIDIRECTIONAL])
    def test_outputs_and_traces_are_bands_first(self, direction, transposed):
        """y, h and the pooling gradients are contiguous bands-first; every
        z and f is a bank view of the one bands-first conv output, one H x W
        plane per band step."""
        rng = np.random.default_rng(40)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant("qru3d").build(rng, 2, 3, stride, direction, transposed,
                                           dtype=np.float32)
        x = rng.standard_normal((2, 2, 4, 4, 5)).astype(np.float32)
        y, trace = unit.forward(x, keep_trace=True)
        arrays = [y] + [tr.h for tr in trace[1]]
        arrays += [g for tr in trace[1] for g in qru_pool_backward(tr, y)]
        assert [bands_first(a) for a in arrays] == [True] * len(arrays)
        gates = [a for tr in trace[1] for a in (tr.z, tr.f)]
        owner = gates[0].base
        assert owner is not None and owner.flags.c_contiguous
        assert owner.shape == (2, 3 * len(gates)) + y.shape[-1:] + y.shape[2:4]
        plane = y.shape[2] * y.shape[3] * y.itemsize
        for a in gates:
            assert a.base is owner and a.shape == y.shape and a.strides[-1] == plane

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_pooling_same_bytes_either_layout(self, direction, dtype):
        rng = np.random.default_rng(41)
        z, f = (a.astype(dtype) for a in rand_zf(rng, (2, 3, 4, 5, 6)))
        g = rng.standard_normal(z.shape).astype(dtype)
        runs = []
        for conv in (np.ascontiguousarray, bands_first_copy):
            h = qru_pool_forward(conv(z), conv(f), direction)
            trace = PoolingTrace(conv(z), conv(f), conv(h), direction)
            runs.append((h,) + qru_pool_backward(trace, conv(g)))
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()


class TestUntracedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,direction,transposed", UNIT_CASES)
    def test_same_bytes_as_traced(self, kind, direction, transposed, dtype):
        """Without a trace (gates and recurrence in place) a unit returns
        the traced forward's bytes, bands-first in a buffer of its own size,
        and leaves its input alone; N = 2."""
        rng = np.random.default_rng(44)
        stride = (2, 2, 1) if transposed else (1, 1, 1)
        unit = make_variant(kind).build(rng, 2, 3, stride, direction, transposed, dtype=dtype)
        x = rng.standard_normal((2, 2, 4, 4, 5)).astype(dtype)
        x_bytes = x.tobytes()
        y, trace = unit.forward(x)
        want, _ = unit.forward(x, keep_trace=True)
        assert trace is None
        assert y.tobytes() == want.tobytes()
        assert x.tobytes() == x_bytes
        assert bands_first(y)
        owner = y
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == y.nbytes


class TestTracedForward:
    def test_conv_output_freed_before_pooling(self):
        """A traced bidirectional unit (1 -> 16 per bank, float32
        1x1x16x16x64) peaks within twice its stacked conv output, plus 10
        percent. Its output and trace hold the untraced bytes and those of
        fresh gates and a fresh recurrence."""
        rng = np.random.default_rng(45)
        unit = make_variant("qru3d").build(rng, 1, 16, (1, 1, 1), BIDIRECTIONAL,
                                           dtype=np.float32)
        x = rng.standard_normal((1, 1, 16, 16, 64)).astype(np.float32)
        stacked_bytes = 4 * 16 * x.nbytes
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y, (_, traces) = unit.forward(x, keep_trace=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2 * stacked_bytes, f"peak {peak / x.nbytes:.0f} cubes"
        untraced, _ = unit.forward(x)
        assert y.tobytes() == untraced.tobytes()
        kernel = ConvKernel(np.concatenate([k.weight for k in unit.banks]),
                            np.concatenate([k.bias for k in unit.banks]))
        pre = np.split(conv3d_forward(x, kernel, unit.stride), 4, axis=1)
        for tr, z_pre, f_pre in zip(traces, pre[0::2], pre[1::2]):
            assert tr.z.tobytes() == activate(z_pre, "tanh").tobytes()
            assert tr.f.tobytes() == activate(f_pre, "sigmoid").tobytes()
            assert tr.h.tobytes() == qru_pool_forward(tr.z, tr.f, tr.direction).tobytes()

    def test_peak_is_what_the_trace_holds(self):
        """Traced, the gates activate in place on the conv output, so the
        first layer of the standard net on 1x1x24x24x220 float32 peaks
        within 2 percent of what its output and trace hold (54.1 MiB: the
        stacked conv output, two h and y). Activating into new gates
        peaked at 62.2 MiB, 1.15x."""
        rng = np.random.default_rng(46)
        unit = make_variant("qru3d").build(rng, 1, 16, (1, 1, 1), BIDIRECTIONAL,
                                           dtype=np.float32)
        x = rng.random((1, 1, 24, 24, 220)).astype(np.float32)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y, (_, traces) = unit.forward(x, keep_trace=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        owners = {}
        for a in [y] + [a for tr in traces for a in (tr.z, tr.f, tr.h)]:
            owner = a if a.base is None else a.base
            owners[id(owner)] = owner.nbytes
        held = sum(owners.values())
        assert held == (4 + 3) * 16 * x.nbytes
        assert peak <= 1.02 * held, f"peak {peak / 2**20:.1f} MiB, held {held / 2**20:.1f}"

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD, BIDIRECTIONAL])
    def test_direction_traces_match_forward(self, monkeypatch, direction):
        """direction_traces yields forward(keep_trace=True)'s z, f and h byte
        for byte, one direction per step, and runs each direction's
        recurrence only when the consumer asks for that trace."""
        rng = np.random.default_rng(47)
        unit = make_variant("qru3d").build(rng, 2, 3, (1, 1, 1), direction, dtype=np.float32)
        x = rng.standard_normal((1, 2, 4, 4, 6)).astype(np.float32)
        _, (_, want) = unit.forward(x, keep_trace=True)
        pooled = []
        pool = qru.qru_pool_forward

        def counted(z, f, d, out=None):
            pooled.append(d)
            return pool(z, f, d, out)

        monkeypatch.setattr(qru, "qru_pool_forward", counted)
        got = []
        for tr in unit.direction_traces(x):
            assert pooled == [t.direction for t in want[:len(got) + 1]]
            got.append(tr)
        assert [t.direction for t in got] == [t.direction for t in want]
        for tr, ref in zip(got, want):
            for name in ("z", "f", "h"):
                assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name


class TestUnitForward:
    def test_forward_unit_is_causal_beyond_one_band(self):
        """Band b of a forward unit ignores perturbations at bands > b+1."""
        rng = np.random.default_rng(12)
        unit = gated(rand_banks(rng, cin=1, cout=2))
        x = rng.standard_normal((1, 1, 4, 4, 6))
        y, _ = unit.forward(x)
        j = 4
        xp = x.copy()
        xp[..., j] += 0.5
        yp, _ = unit.forward(xp)
        diff = np.abs(yp - y).max(axis=(0, 1, 2, 3))
        assert np.all(diff[: j - 1] < 1e-6)
        assert diff[j] > 1e-6

    def test_closed_backward_branch_degenerates_to_forward(self):
        """A bidirectional unit whose backward gate saturates at 1 returns
        (numerically) just the forward branch."""
        rng = np.random.default_rng(13)
        pf = rand_banks(rng, cin=1, cout=2)
        pb = rand_banks(rng, cin=1, cout=2)
        pb[1].weight[:] = 0
        pb[1].bias[:] = 40.0
        x = rng.standard_normal((1, 1, 4, 4, 5))
        both, _ = gated(pf + pb, BIDIRECTIONAL).forward(x)
        fwd, _ = gated(pf).forward(x)
        np.testing.assert_allclose(both, fwd, atol=1e-12)

    def test_output_ranges_by_direction(self):
        rng = np.random.default_rng(14)
        pf = rand_banks(rng, cin=1, cout=2)
        pb = rand_banks(rng, cin=1, cout=2)
        x = rng.standard_normal((1, 1, 5, 5, 6))
        uni, _ = gated(pf).forward(x)
        bi, _ = gated(pf + pb, BIDIRECTIONAL).forward(x)
        assert np.all(np.abs(uni) < 1)
        assert np.all(np.abs(bi) < 2)

    def test_forward_backward_stack_sees_all_bands(self):
        """One forward unit into one backward unit: every output band moves
        when any input band is perturbed."""
        rng = np.random.default_rng(15)
        fac = make_variant("qru3d")
        u1 = fac.build(rng, 1, 2, (1, 1, 1), FORWARD, dtype=np.float64)
        u2 = fac.build(rng, 2, 2, (1, 1, 1), BACKWARD, dtype=np.float64)
        x = rng.standard_normal((1, 1, 4, 4, 6))

        def run(inp):
            y1, _ = u1.forward(inp)
            y2, _ = u2.forward(y1)
            return y2

        base = run(x)
        for j in range(x.shape[-1]):
            xp = x.copy()
            xp[..., j] += 0.5
            diff = np.abs(run(xp) - base).max(axis=(0, 1, 2, 3))
            assert np.all(diff > 0), f"band {j} left some output band untouched"


class TestVariants:
    def test_qru2d_kernel_shape(self):
        rng = np.random.default_rng(16)
        unit = make_variant("qru2d").build(rng, 2, 4, (1, 1, 1), FORWARD)
        assert unit.banks[0].weight.shape == (4, 2, 3, 3, 1)
        # Half the kernel extent is a (1, 1, 0) halo.
        x = rng.standard_normal((1, 2, 4, 5, 3))
        kern = unit.banks[0]
        np.testing.assert_allclose(
            conv3d_forward(x, kern, unit.stride),
            conv3d_reference(x, kern.weight, kern.bias, (1, 1, 1), (1, 1, 0)), atol=1e-5)

    @pytest.mark.parametrize("stride", [(0, 1, 1), (2, 2)])
    def test_bad_stride_rejected(self, stride):
        banks = rand_banks(np.random.default_rng(19))
        with pytest.raises(ConfigError, match="stride"):
            QruUnit(2, 3, stride, False, FORWARD, "qru3d", banks)

    @pytest.mark.parametrize("kind, direction, n_banks", [
        ("qru3d", BIDIRECTIONAL, 2),
        ("qru3d", FORWARD, 1),
        ("qru2d", BACKWARD, 4),
        ("c3d", FORWARD, 2),
    ])
    def test_bank_count_must_match_kind_and_direction(self, kind, direction, n_banks):
        """A unit takes exactly bank_count(kind, direction) banks: one bank is
        no gated unit, and c3d has no gate bank."""
        banks = (rand_banks(np.random.default_rng(20)) * 2)[:n_banks]
        with pytest.raises(ConfigError, match=f"{kind} {direction} unit needs"):
            QruUnit(2, 3, (1, 1, 1), False, direction, kind, banks)

    def test_unknown_unit_kind_rejected(self):
        banks = rand_banks(np.random.default_rng(21))
        with pytest.raises(ConfigError, match="unknown unit kind 'lstm'"):
            QruUnit(2, 3, (1, 1, 1), False, FORWARD, "lstm", banks)

    def test_c3d_is_tanh_of_conv(self):
        rng = np.random.default_rng(17)
        unit = make_variant("c3d").build(rng, 2, 3, (1, 1, 1), FORWARD, dtype=np.float64)
        x = rng.standard_normal((1, 2, 5, 5, 4))
        y, _ = unit.forward(x)
        np.testing.assert_allclose(
            y, np.tanh(conv3d_forward(x, unit.banks[0], unit.stride)), atol=1e-6
        )

    def test_c3d_has_half_the_parameters(self):
        rng = np.random.default_rng(18)
        q = make_variant("qru3d").build(rng, 2, 3, (1, 1, 1), FORWARD)
        c = make_variant("c3d").build(rng, 2, 3, (1, 1, 1), FORWARD)
        assert 2 * c.param_count() == q.param_count()

    def test_width_multiplier_scales_hidden_widths(self):
        cfg = standard_config(kind="qru2d", width_multiplier=1.75)
        widths = [layer.cout for layer in cfg.layers]
        assert widths == [28, 28, 56, 56, 112, 112, 112, 56, 56, 28, 28, 1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            make_variant("lstm")
