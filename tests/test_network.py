"""Network tests: wiring, parameter counts, shapes, gradients, weights IO."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from reference_impls import bands_first_copy, fd_grad, max_rel_err
from hsdenoise.qru import BACKWARD, BIDIRECTIONAL, FORWARD
from hsdenoise.tensors import ConfigError, ShapeError
from hsdenoise.network import (
    LayerSpec,
    Model,
    NetworkConfig,
    WeightsError,
    build_network,
    desk_config,
    direction_schedule,
    load_weights,
    save_weights,
    standard_config,
)


def within(count, target, frac=0.02):
    return abs(count - target) <= frac * target


class TestDirectionSchedule:
    def test_twelve_layer_alternation(self):
        """Bidirectional ends, interior alternates starting forward."""
        d = direction_schedule(12)
        want = [BIDIRECTIONAL, FORWARD, BACKWARD, FORWARD, BACKWARD, FORWARD,
                BACKWARD, FORWARD, BACKWARD, FORWARD, BACKWARD, BIDIRECTIONAL]
        assert d == want

    def test_three_layer(self):
        assert direction_schedule(3) == [BIDIRECTIONAL, FORWARD, BIDIRECTIONAL]

    def test_pure_schedules(self):
        assert direction_schedule(5, "forward") == [FORWARD] * 5
        assert direction_schedule(5, "bidirectional") == [BIDIRECTIONAL] * 5

    def test_too_few_layers(self):
        with pytest.raises(ConfigError):
            direction_schedule(2)


class TestParameterCounts:
    """Totals for the ablation table, all within 2% of the published sizes."""

    def test_standard_alternating(self):
        model = build_network(standard_config(), seed=0)
        assert within(model.param_count(), 860_000)

    def test_c3d(self):
        model = build_network(standard_config(kind="c3d"), seed=0)
        assert within(model.param_count(), 430_000)

    def test_wide_c3d(self):
        model = build_network(standard_config(kind="c3d", width_multiplier=2.0), seed=0)
        assert within(model.param_count(), 1_720_000)

    def test_qru2d(self):
        model = build_network(standard_config(kind="qru2d"), seed=0)
        assert within(model.param_count(), 290_000)

    def test_fully_bidirectional(self):
        model = build_network(standard_config(schedule="bidirectional"), seed=0)
        assert within(model.param_count(), 1_720_000)

    def test_desk_preset_size(self):
        model = build_network(desk_config(), seed=0)
        assert model.param_count() == 5236

    def test_same_seed_same_weights(self):
        a = build_network(standard_config(), seed=11)
        b = build_network(standard_config(), seed=11)
        for wa, wb in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(wa, wb)


class TestForwardShapes:
    def test_intermediate_shapes_on_64x64x31(self):
        """Every layer output matches the published size table."""
        model = build_network(standard_config(), seed=1)
        x = np.zeros((1, 1, 64, 64, 31), dtype=np.float32)
        y, traces = model.forward(x, keep_traces=True)
        want = [
            (16, 64, 64, 31),
            (16, 64, 64, 31),
            (32, 32, 32, 31),
            (32, 32, 32, 31),
            (64, 16, 16, 31),
            (64, 16, 16, 31),
            (64, 16, 16, 31),
            (32, 32, 32, 31),
            (32, 32, 32, 31),
            (16, 64, 64, 31),
            (16, 64, 64, 31),
            (1, 64, 64, 31),
        ]
        got = [o.shape[1:] for o in traces["outputs"]]
        assert got == want
        assert y.shape == x.shape

    @pytest.mark.parametrize("kind,bands", [
        ("qru3d", 5), ("qru3d", 10), ("qru3d", 31), ("qru2d", 7), ("c3d", 7)],
        ids=["5", "10", "31", "qru2d-7", "c3d-7"])
    def test_band_count_agnostic(self, kind, bands):
        """One model runs unchanged on any spectral extent, 3x3x1 kernels
        and the transposed layers included."""
        model = build_network(standard_config(kind=kind), seed=2)
        x = np.zeros((1, 1, 8, 8, bands), dtype=np.float32)
        y, _ = model.forward(x)
        assert y.shape == x.shape

    def test_zero_parameters_residual_is_identity(self):
        model = build_network(desk_config(), seed=3)
        for a in model.param_arrays():
            a[:] = 0
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 6, 6, 4)).astype(np.float32)
        y, _ = model.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_indivisible_extent_rejected(self):
        model = build_network(standard_config(), seed=5)
        with pytest.raises(ConfigError, match="divisible"):
            model.forward(np.zeros((1, 1, 62, 64, 5), dtype=np.float32))

    def test_wrong_channel_count_rejected(self):
        model = build_network(desk_config(), seed=6)
        with pytest.raises(ShapeError, match="channels"):
            model.forward(np.zeros((1, 2, 8, 8, 4)))


def _arrays(node):
    """Every array of a unit trace, depth first."""
    if isinstance(node, np.ndarray):
        return [node]
    if isinstance(node, (tuple, list)):
        return [a for item in node for a in _arrays(item)]
    return [node.z, node.f, node.h]


class TestForwardThrough:
    def test_unit_input_gives_the_traced_layer(self):
        """A unit traced on unit_input(x, layer), with the layers before it
        run untraced and its skip added, holds the full traced pass's
        trace of that layer, bit for bit, skip targets included."""
        model = build_network(standard_config(width_multiplier=0.25), seed=30)
        x = np.random.default_rng(31).standard_normal((2, 1, 8, 8, 5)).astype(np.float32)
        _, full = model.forward(x, keep_traces=True)
        assert model.config.skips
        for layer, unit in enumerate(model.units):
            y, trace = unit.forward(model.unit_input(x, layer), keep_trace=True)
            assert y.tobytes() == full["outputs"][layer].tobytes()
            got, want = _arrays(trace), _arrays(full["units"][layer])
            assert len(got) == len(want)
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                       for a, b in zip(got, want))

    @pytest.mark.parametrize("layer", [-1, 12])
    def test_unit_input_layer_out_of_range(self, layer):
        model = build_network(standard_config(width_multiplier=0.25), seed=33)
        with pytest.raises(ConfigError, match="outside 0..11"):
            model.unit_input(np.zeros((1, 1, 8, 8, 5), dtype=np.float32), layer)

    def test_whole_network_checks_still_run(self):
        """The input is checked against every layer, not just those run."""
        model = build_network(standard_config(width_multiplier=0.25), seed=32)
        with pytest.raises(ConfigError, match="divisible"):
            model.unit_input(np.zeros((1, 1, 6, 8, 5), dtype=np.float32), 0)


class TestForwardWithoutTraces:
    """A pass without traces keeps only live data (skip sources until their
    skip, gates and recurrence in place) and returns the traced bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["qru3d", "qru2d", "c3d"])
    def test_same_bytes_as_traced(self, kind, dtype):
        """All three directions, strided and transposed layers, N = 2; the
        caller's input is left as it was."""
        model = build_network(standard_config(kind=kind, width_multiplier=0.5), seed=34,
                              dtype=dtype)
        x = np.random.default_rng(35).standard_normal((2, 1, 8, 8, 5)).astype(dtype)
        x_bytes = x.tobytes()
        y, traces = model.forward(x)
        want, _ = model.forward(x, keep_traces=True)
        assert traces is None
        assert y.dtype == want.dtype and y.tobytes() == want.tobytes()
        assert x.tobytes() == x_bytes

    def test_peak_memory_bounded(self):
        """The standard net on 1x1x64x64x31 peaks at 52.6 MiB under
        tracemalloc; keeping every layer output and full-size gate
        temporaries read 93.0 MiB."""
        model = build_network(standard_config(), seed=38)
        x = np.random.default_rng(39).random((1, 1, 64, 64, 31)).astype(np.float32)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20, f"peak {peak / 2**20:.1f} MiB > 64 MiB"

    def test_peak_memory_without_padded_grids(self):
        """The standard net's forward without traces on 1x1x64x64x31 peaks
        at 43.4 MiB under tracemalloc, at most 45: no convolution holds a
        whole zero-padded grid, so pooling sets the peak. L10's transposed
        map holding its padded grid beside the cropped copy read 52.6 MiB."""
        model = build_network(standard_config(), seed=38)
        x = np.random.default_rng(39).random((1, 1, 64, 64, 31)).astype(np.float32)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 45 << 20, f"peak {peak / 2**20:.1f} MiB > 45 MiB"

    def test_denoise_pads_only_when_needed(self, monkeypatch):
        """A desk model divides every extent, so denoise runs on the cube as
        it is: with np.pad patched to raise it returns the unpatched call's
        bytes, and the caller's cube is left as it was."""
        import hsdenoise.network as network

        model = build_network(desk_config(width=4), seed=40)
        cube = np.random.default_rng(41).random((7, 5, 4)).astype(np.float32)
        cube_bytes = cube.tobytes()
        want = model.denoise(cube)

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad ran")

        monkeypatch.setattr(network.np, "pad", no_pad)
        assert model.denoise(cube).tobytes() == want.tobytes()
        assert cube.tobytes() == cube_bytes


class TestBackward:
    def test_zero_grad_output(self):
        model = build_network(desk_config(width=4), seed=7, dtype=np.float64)
        x = np.random.default_rng(8).standard_normal((1, 1, 6, 6, 3))
        y, traces = model.forward(x, keep_traces=True)
        _, grads = model.backward(traces, np.zeros_like(y))
        assert all(not g.any() for g in grads)

    def test_same_bytes_either_input_layout(self):
        """The standard net's output, input gradient and every parameter
        gradient are byte-equal for a contiguous and a bands-first input."""
        model = build_network(standard_config(), seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 1, 16, 16, 9)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        runs = []
        for conv in (np.ascontiguousarray, bands_first_copy):
            y, traces = model.forward(conv(x), keep_traces=True)
            gx, grads = model.backward(traces, conv(g))
            runs.append([y, gx] + grads)
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()

    def test_residual_adds_grad_output_to_input_grad(self):
        cfg_on = desk_config(width=4, global_residual=True)
        cfg_off = desk_config(width=4, global_residual=False)
        m_on = build_network(cfg_on, seed=9, dtype=np.float64)
        m_off = Model(NetworkConfig(m_on.units, cfg_off.global_residual))
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 1, 6, 6, 3))
        y, tr_on = m_on.forward(x, keep_traces=True)
        _, tr_off = m_off.forward(x, keep_traces=True)
        g = rng.standard_normal(y.shape)
        gin_on, _ = m_on.backward(tr_on, g)
        gin_off, _ = m_off.backward(tr_off, g)
        np.testing.assert_allclose(gin_on - gin_off, g, atol=1e-12)

    def test_full_net_matches_finite_differences(self):
        """Whole reduced network (skips + residual) passes FD at 1e-3."""
        model = build_network(desk_config(width=4), seed=11, dtype=np.float64)
        rng = np.random.default_rng(12)
        x = 0.5 * rng.standard_normal((1, 1, 6, 6, 4))
        y0, _ = model.forward(x)
        r = rng.standard_normal(y0.shape)

        def loss():
            y, _ = model.forward(x)
            return float(np.sum(y * r))

        numeric = fd_grad(loss, [x] + model.param_arrays())
        y, traces = model.forward(x, keep_traces=True)
        gin, grads = model.backward(traces, r)
        assert max_rel_err(gin, numeric[0]) <= 1e-3
        for got, want in zip(grads, numeric[1:]):
            assert max_rel_err(got, want) <= 1e-3

    def test_input_grad_skipped_on_request(self, monkeypatch):
        """input_grad=False returns no input gradient, asks only layer 1's
        convolution to skip it, and leaves every parameter gradient
        bit-identical."""
        import hsdenoise.qru as qru

        model = build_network(desk_config(width=4), seed=14, dtype=np.float64)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 1, 6, 6, 4))
        y, traces = model.forward(x, keep_traces=True)
        g = rng.standard_normal(y.shape)
        _, want = model.backward(traces, g)
        flags = []
        conv_bwd = qru.conv3d_backward

        def record(x, kernel, spec, grad_out, input_grad):
            flags.append(input_grad)
            return conv_bwd(x, kernel, spec, grad_out, input_grad)

        monkeypatch.setattr(qru, "conv3d_backward", record)
        gin, got = model.backward(traces, g, input_grad=False)
        assert gin is None
        assert flags == [True] * (len(model.units) - 1) + [False]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(8, 4), (1, 1, 1, 1, 1)])
    def test_misshaped_grad_y_rejected(self, shape):
        """A c3d net rejects a grad_y that broadcasts against its output
        but is not its shape, as gated nets do, naming both shapes."""
        model = build_network(standard_config(kind="c3d", width_multiplier=0.25), seed=16)
        x = np.random.default_rng(17).standard_normal((1, 1, 8, 8, 4)).astype(np.float32)
        _, traces = model.forward(x, keep_traces=True)
        with pytest.raises(ShapeError, match=r"grad_y shape \(.*\) != unit output shape "
                                             r"\(1, 1, 8, 8, 4\)"):
            model.backward(traces, np.ones(shape, np.float32))

    def test_peak_memory_bounded(self):
        """Standard net, 4x1x16x16x31 float32: the backward allocates at
        most half again of what the traced forward leaves held. Each layer's
        output gradient is dropped once read, and the gate gradients of all
        banks land in one stacked buffer: 0.36 of the held memory, against
        0.74 when every gradient was kept and the banks were concatenated."""
        model = build_network(standard_config(), seed=18)
        rng = np.random.default_rng(19)
        x = rng.random((4, 1, 16, 16, 31)).astype(np.float32)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            y, traces = model.forward(x, keep_traces=True)
            g = rng.standard_normal(y.shape).astype(np.float32)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.backward(traces, g)
            extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert extra <= 0.5 * held, f"backward peak {extra / held:.2f} x held memory"

    def test_backward_without_traces_rejected(self):
        model = build_network(desk_config(), seed=13)
        with pytest.raises(ValueError, match="trace"):
            model.backward(None, np.zeros((1, 1, 4, 4, 4)))


# The test_parameter_counts configurations plus the desk preset.
_PUBLISHED_CONFIGS = {
    "standard": lambda: standard_config(),
    "c3d": lambda: standard_config(kind="c3d"),
    "c3d-x2": lambda: standard_config(kind="c3d", width_multiplier=2.0),
    "qru2d": lambda: standard_config(kind="qru2d"),
    "bidirectional": lambda: standard_config(schedule="bidirectional"),
    "desk": lambda: desk_config(),
}


def band_reach(model, x):
    """M[i, j], the sum over space of |d output band i / d input band j| at
    one (1, 1, H, W, B) input: one backward through B stacked copies of it,
    copy i's output gradient one-hot on band i."""
    bands = x.shape[-1]
    y, traces = model.forward(np.repeat(x, bands, axis=0), keep_traces=True)
    grad_y = np.zeros_like(y)
    grad_y[np.arange(bands), ..., np.arange(bands)] = 1.0
    gx, _ = model.backward(traces, grad_y)
    return np.abs(gx).sum(axis=(1, 2, 3))


class TestSpectralReach:
    """The band reach of a whole untrained x0.25 standard net: 12 layers of
    3 band taps reach 12 bands each way, a forward recurrence reaches every
    earlier band and one later band per layer, and alternating directions
    reach every band."""

    def reach(self, ablate_gates=False, **config):
        """With ablate_gates, every gate bank gets zero weights and bias
        -1000, so f is exactly 0 and each unit passes z_b alone."""
        model = build_network(standard_config(width_multiplier=0.25, **config), seed=3)
        if ablate_gates:
            for unit in model.units:
                for gate in unit.banks[1::2]:
                    gate.weight[...] = 0.0
                    gate.bias[...] = -1000.0
        x = np.random.default_rng(5).standard_normal((1, 1, 8, 8, 31)).astype(np.float32)
        return band_reach(model, x)

    def test_zero_cells_are_exactly_the_unreachable_ones(self):
        i, j = np.indices((31, 31))
        assert np.array_equal(self.reach(kind="c3d") == 0, abs(i - j) > 12)
        assert np.array_equal(self.reach(schedule="forward") == 0, j > i + 12)
        assert np.all(self.reach(schedule="alternating") != 0)
        assert np.array_equal(self.reach(ablate_gates=True) == 0, abs(i - j) > 12)


def _header_offsets(model):
    """Byte offset of each layer's 46-byte header in the model's Q3DW file."""
    offsets = [8]  # magic, version, layer count
    for unit in model.units[:-1]:
        offsets.append(offsets[-1] + 46 + 4 * sum(a.size for a in unit.param_arrays()))
    return offsets


class TestWeightsIO:
    @pytest.mark.parametrize("name", sorted(_PUBLISHED_CONFIGS))
    def test_save_load_save_byte_identical(self, tmp_path, name):
        """Every published variant survives save -> load -> save unchanged:
        same bytes, parameter names, strides and kernel extents."""
        model = build_network(_PUBLISHED_CONFIGS[name](), seed=19)
        first, second = tmp_path / "a.q3dw", tmp_path / "b.q3dw"
        save_weights(first, model)
        loaded = load_weights(first)
        save_weights(second, loaded)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.param_names() == model.param_names()
        for a, b in zip(model.units, loaded.units):
            assert (a.stride, a.banks[0].ksize) == (b.stride, b.banks[0].ksize)
            assert a.transposed == b.transposed

    @pytest.mark.parametrize("schedule", ["alternating", "forward", "bidirectional"])
    @pytest.mark.parametrize("kind", ["qru3d", "qru2d", "c3d"])
    def test_layer_tags_hold_documented_values(self, tmp_path, kind, schedule):
        """Byte 0 of every layer header is the variant tag (qru3d 0, qru2d 1,
        c3d 2) and byte 1 the direction tag (forward 0, backward 1,
        bidirectional 2), as the README's file format says."""
        model = build_network(desk_config(width=2, n_layers=4, kind=kind, schedule=schedule),
                              seed=21)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        raw = path.read_bytes()
        variant = {"qru3d": 0, "qru2d": 1, "c3d": 2}[kind]
        direction = {FORWARD: 0, BACKWARD: 1, BIDIRECTIONAL: 2}
        tags = [tuple(raw[offset:offset + 2]) for offset in _header_offsets(model)]
        assert tags == [(variant, direction[spec.direction]) for spec in model.config.layers]

    @pytest.mark.parametrize("tag", [0, 1], ids=["variant", "direction"])
    @pytest.mark.parametrize("layer", [1, 3])
    def test_unknown_tag_rejected(self, tmp_path, layer, tag):
        """A tag byte past the last documented value is an error naming the
        layer, whichever of the two tags holds it."""
        model = build_network(desk_config(width=2), seed=22)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        raw = bytearray(path.read_bytes())
        raw[_header_offsets(model)[layer - 1] + tag] = 3
        path.write_bytes(bytes(raw))
        message = f"^unknown variant/direction tags in layer {layer}$"
        with pytest.raises(WeightsError, match=message):
            load_weights(path)

    def test_mixed_stride_pair_rejected(self, tmp_path):
        """A stride pair num > 1 in an upsampling layer (den > 1) is an error
        naming the layer, not a silently different stride."""
        model = build_network(standard_config(), seed=20)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        offset = 8  # magic, version, layer count
        for unit in model.units[:7]:
            offset += 46 + 4 * sum(a.size for a in unit.param_arrays())
        assert model.config.layers[7].transposed
        raw = bytearray(path.read_bytes())
        # Layer 8 header: tags (2), five extents (20), H pair (8), W num.
        w_num = offset + 2 + 20 + 8
        assert struct.unpack_from("<II", raw, w_num) == (1, 2)
        struct.pack_into("<I", raw, w_num, 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightsError, match="layer 8"):
            load_weights(path)

    @pytest.mark.parametrize("field", [0, 1], ids=["num", "den"])
    def test_zero_stride_pair_rejected(self, tmp_path, field):
        """A zero in a stride pair of a file is refused, naming the layer."""
        path = tmp_path / "m.q3dw"
        save_weights(path, build_network(desk_config(), seed=21))
        raw = bytearray(path.read_bytes())
        # Layer 1 header: after the layer count, tags (2) and extents (20).
        h_pair = 8 + 2 + 20
        assert struct.unpack_from("<II", raw, h_pair) == (1, 1)
        struct.pack_into("<I", raw, h_pair + 4 * field, 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightsError, match="^invalid stride pair in layer 1$"):
            load_weights(path)

    @pytest.mark.parametrize("layers,bad", [
        ([(1, 0, (3, 3, 3)), (0, 0, (3, 3, 3)), (0, 1, (3, 3, 3))], 1),
        ([(1, 2, (3, 3, 3)), (2, 2, (3, 2, 3)), (2, 1, (3, 3, 3))], 2),
        ([(1, 2, (3, 3, 3)), (2, 2, (3, 3, 3)), (2, 1, (3, 3, 0))], 3),
    ], ids=["zero-channels", "even-extent", "zero-extent"])
    def test_degenerate_layer_rejected(self, tmp_path, layers, bad):
        """Zero channels, or an even or zero kernel extent, is an error naming
        the layer: with zero channels the payload is empty whatever the
        header's extents say."""
        raw = bytearray(b"Q3DW" + struct.pack("<HH", 1, len(layers)))
        for cin, cout, ksize in layers:
            raw += struct.pack("<BB5I6I", 2, 0, cout, cin, *ksize, *[1] * 6)
            raw += bytes(4 * (cout * cin * int(np.prod(ksize)) + cout))
        path = tmp_path / "m.q3dw"
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightsError, match=f"layer {bad}"):
            load_weights(path)

    def test_round_trip_bit_exact(self, tmp_path):
        model = build_network(desk_config(), seed=14)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        loaded = load_weights(path)
        for a, b in zip(model.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(a, b)
        assert [l.direction for l in loaded.config.layers] == [
            l.direction for l in model.config.layers
        ]

    def test_round_trip_standard_with_tconv(self, tmp_path):
        model = build_network(standard_config(), seed=15)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        loaded = load_weights(path)
        x = np.random.default_rng(16).standard_normal((1, 1, 8, 8, 5)).astype(np.float32)
        ya, _ = model.forward(x)
        yb, _ = loaded.forward(x)
        np.testing.assert_array_equal(ya, yb)

    @pytest.mark.parametrize("config, seed, digest", [
        (lambda: desk_config(), 31,
         "3beeba7c9d195baea8e6df94955995d16a32b7a0342824588002db4ef5eab24a"),
        (lambda: standard_config(width_multiplier=0.25), 32,
         "46b63e61c149888d4dd9f17e622cb1f8c52edd4bae4f498fdb309084a88a1268"),
    ], ids=["desk", "standard-x0.25"])
    def test_residual_on_bytes_pinned(self, tmp_path, config, seed, digest):
        """A residual-on file keeps the bytes the format wrote before byte 4
        stated the residual (version 1), the layout readers outside this
        package parse."""
        path = tmp_path / "m.q3dw"
        save_weights(path, build_network(config(), seed=seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.q3dw"
        p.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(WeightsError, match="magic"):
            load_weights(p)

    def test_bad_version_rejected(self, tmp_path):
        model = build_network(desk_config(), seed=17)
        p = tmp_path / "m.q3dw"
        save_weights(p, model)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(WeightsError, match="version"):
            load_weights(p)

    def test_truncation_rejected(self, tmp_path):
        model = build_network(desk_config(), seed=18)
        p = tmp_path / "m.q3dw"
        save_weights(p, model)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(WeightsError, match="offset"):
            load_weights(p)


def _record(unit):
    """The LayerSpec fields a unit carries, which its Q3DW header records."""
    return (unit.cin, unit.cout, unit.stride, unit.transposed, unit.direction, unit.kind)


class TestOneRecordPerLayer:
    """A unit is its own LayerSpec and a model is the NetworkConfig of its
    units, so no second list of layer facts can disagree with the units."""

    def test_units_are_the_config_layers(self, tmp_path):
        """Built, loaded and cast models hold one list: their units are
        their config's layers, each carrying the built unit's record."""
        model = build_network(standard_config(kind="qru2d", width_multiplier=0.25), seed=23)
        path = tmp_path / "m.q3dw"
        save_weights(path, model)
        for m in (model, load_weights(path), model.astype(np.float64)):
            assert m.units is m.config.layers
            assert [_record(u) for u in m.units] == [_record(u) for u in model.units]

    @pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
    @pytest.mark.parametrize("schedule", ["alternating", "forward", "bidirectional"])
    @pytest.mark.parametrize("kind", ["qru3d", "qru2d", "c3d"])
    def test_headers_round_trip_to_the_units_that_ran(self, tmp_path, kind, schedule,
                                                      residual):
        """Save, load and save again write the same bytes, and each loaded
        unit carries the record of the unit that was saved and computes what
        it computed."""
        model = build_network(standard_config(kind=kind, width_multiplier=0.25,
                                              schedule=schedule, global_residual=residual),
                              seed=25)
        first, second = tmp_path / "a.q3dw", tmp_path / "b.q3dw"
        save_weights(first, model)
        loaded = load_weights(first)
        save_weights(second, loaded)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.config.global_residual == residual
        assert [_record(u) for u in loaded.units] == [_record(u) for u in model.units]
        x = np.random.default_rng(26).standard_normal((1, 1, 8, 8, 3)).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x)[0], model.forward(x)[0])


class TestConfigValidation:
    def test_channel_chain_checked(self):
        layers = [
            LayerSpec(1, 8, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(4, 8, (1, 1, 1), False, FORWARD, "qru3d"),
            LayerSpec(8, 1, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError, match="channels"):
            NetworkConfig(layers)

    def test_unbalanced_scale_checked(self):
        layers = [
            LayerSpec(1, 8, (2, 2, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(8, 8, (1, 1, 1), False, FORWARD, "qru3d"),
            LayerSpec(8, 1, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError):
            NetworkConfig(layers)

    def test_skip_channels_checked(self):
        """A skip that adds outputs of different channel counts is refused."""
        layers = [
            LayerSpec(1, 8, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(8, 4, (1, 1, 1), False, FORWARD, "qru3d"),
            LayerSpec(4, 1, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError, match="^skip into layer 3 mixes 4 and 8 channels$"):
            NetworkConfig(layers)

    def test_skip_scales_checked(self):
        """A skip that adds outputs of different spatial scales is refused,
        although the network as a whole returns to the input's scale."""
        layers = [
            LayerSpec(1, 8, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(8, 8, (2, 2, 1), False, FORWARD, "qru3d"),
            LayerSpec(8, 8, (1, 1, 1), False, BACKWARD, "qru3d"),
            LayerSpec(8, 1, (2, 2, 1), True, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError,
                           match="^skip into layer 4 mixes different spatial scales$"):
            NetworkConfig(layers)

    @pytest.mark.parametrize("residual", [True, False])
    def test_output_channels_checked(self, residual):
        """A network whose output has other channels than its input is
        refused, naming both, with the residual on or off."""
        layers = [
            LayerSpec(1, 4, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(4, 4, (1, 1, 1), False, FORWARD, "qru3d"),
            LayerSpec(4, 3, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError, match="^network outputs 3 channels but its input has 1$"):
            NetworkConfig(layers, residual)

    def test_too_few_layers(self):
        layers = [LayerSpec(1, 8, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
                  LayerSpec(8, 1, (1, 1, 1), False, BIDIRECTIONAL, "qru3d")]
        with pytest.raises(ConfigError, match="^network needs at least 3 layers$"):
            NetworkConfig(layers)

    @pytest.mark.parametrize("j, cout", [(2, 0), (1, -2)])
    def test_non_positive_channels_named(self, j, cout):
        """A layer with no output channels is refused, naming the layer."""
        couts = [8, 8, 1]
        couts[j] = cout
        cins = [1] + couts[:-1]
        dirs = direction_schedule(3)
        layers = [LayerSpec(cin, co, (1, 1, 1), False, d, "qru3d")
                  for cin, co, d in zip(cins, couts, dirs)]
        with pytest.raises(ConfigError, match=f"layer {j + 1} maps {cins[j]} -> {cout} channels"):
            NetworkConfig(layers)

    def test_zero_stride_named(self):
        """A zero stride is refused, naming the layer and its stride."""
        layers = [
            LayerSpec(1, 8, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
            LayerSpec(8, 8, (1, 0, 1), False, FORWARD, "qru3d"),
            LayerSpec(8, 1, (1, 1, 1), False, BIDIRECTIONAL, "qru3d"),
        ]
        with pytest.raises(ConfigError, match=r"layer 2 .* stride \(1, 0, 1\)"):
            NetworkConfig(layers)

    def test_skip_map(self):
        """Each decoder-side layer reads its mirrored encoder-side layer; an
        odd network's middle layer reads none."""
        assert standard_config().skips == {6: 5, 7: 4, 8: 3, 9: 2, 10: 1, 11: 0}
        assert desk_config().skips == {2: 0}
        assert desk_config(n_layers=5).skips == {3: 1, 4: 0}

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_width_multiplier_named(self, multiplier):
        with pytest.raises(ConfigError, match=f"width multiplier .* got {multiplier}"):
            standard_config(width_multiplier=multiplier)
