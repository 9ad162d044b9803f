"""Residual encoder-decoder assembly of quasi-recurrent units.

The standard network is twelve layers: a feature extractor, a five-layer
encoder that halves H and W twice while growing channels, a mirrored
five-layer decoder that upsamples back with transposed convs, and a
single-channel reconstructor. Spectral extent is never strided, so one
model runs on any band count.

Skip connections add each encoder-side output to the input of its
mirrored decoder-side layer (layer k pairs with layer n+1-k). A global
residual adds the network input to the reconstructor output, so the body
only has to learn the noise. Directions follow a schedule: bidirectional
at both ends, alternating forward/backward in between.

Weights serialize to the "Q3DW" container, little-endian and bit-exact;
see save_weights for the byte layout.
"""

import math
import struct
from fractions import Fraction

import numpy as np

from .hsio import BlobReader
from .qru import (BACKWARD, BIDIRECTIONAL, DIRECTIONS, FORWARD, VARIANT_KINDS, LayerSpec,
                  QruUnit, bank_count, bank_shape, make_variant)
from .tensors import ConfigError, ConvKernel, ShapeError

SCHEDULE_MODES = ("alternating", "forward", "bidirectional")


class WeightsError(ValueError):
    """A weights (Q3DW) or optimizer-state (Q3DA) file is not a valid container."""


class NetworkConfig:
    """Ordered layer list, its skip wiring and the global-residual flag.

    `skips` maps each decoder-side layer j (zero-based) to the mirrored
    encoder-side layer n - 1 - j whose output is added to j's input. One
    walk over the layers checks that channels and strides are positive,
    that channels chain, and that every skip addition and the network
    output meet matching channel counts and spatial scales.
    """

    def __init__(self, layers, global_residual=True):
        if len(layers) < 3:
            raise ConfigError("network needs at least 3 layers")
        self.layers = list(layers)
        self.global_residual = bool(global_residual)
        n = len(self.layers)
        self.skips = {j: n - 1 - j for j in range(n) if 2 * j >= n}
        # Spatial scale (output / input extent) after each layer, per axis.
        scales = []
        scale = (Fraction(1),) * 3
        for j, spec in enumerate(self.layers):
            if min(spec.cin, spec.cout, *spec.stride) < 1:
                raise ConfigError(
                    f"layer {j + 1} maps {spec.cin} -> {spec.cout} channels at stride "
                    f"{spec.stride}; channels and strides must be positive")
            if j and spec.cin != self.layers[j - 1].cout:
                raise ConfigError(
                    f"layer {j + 1} consumes {spec.cin} channels but "
                    f"layer {j} produces {self.layers[j - 1].cout}")
            src = self.skips.get(j)
            if src is not None and spec.cin != self.layers[src].cout:
                raise ConfigError(
                    f"skip into layer {j + 1} mixes {spec.cin} and "
                    f"{self.layers[src].cout} channels")
            if src is not None and scale != scales[src]:
                raise ConfigError(f"skip into layer {j + 1} mixes different spatial scales")
            scale = tuple(f * s if spec.transposed else f / s
                          for f, s in zip(scale, spec.stride))
            scales.append(scale)
        if scale != (1, 1, 1):
            raise ConfigError("network output extents do not match the input extents")
        if self.layers[-1].cout != self.layers[0].cin:
            raise ConfigError(f"network outputs {self.layers[-1].cout} channels but its "
                              f"input has {self.layers[0].cin}")

    def downsample_factor(self):
        """Required divisibility of (H, W, B) at the network input."""
        return tuple(math.prod(spec.stride[ax] for spec in self.layers if not spec.transposed)
                     for ax in range(3))


def direction_schedule(n_layers, mode="alternating"):
    """Per-layer directions: bidirectional ends with an alternating middle
    that starts forward at layer 2; or the all-forward / all-bidirectional
    ablation schedules."""
    if mode not in SCHEDULE_MODES:
        raise ConfigError(f"unknown schedule mode {mode!r}")
    if n_layers < 3:
        raise ConfigError("direction schedule needs at least 3 layers")
    if mode == "forward":
        return [FORWARD] * n_layers
    if mode == "bidirectional":
        return [BIDIRECTIONAL] * n_layers
    middle = [FORWARD if i % 2 else BACKWARD for i in range(1, n_layers - 1)]
    return [BIDIRECTIONAL] + middle + [BIDIRECTIONAL]


# (cout, spatial stride, transposed) rows of the standard 12-layer network,
# before any width multiplier. Band stride is always 1.
_STANDARD_ROWS = [
    (16, 1, False),
    (16, 1, False),
    (32, 2, False),
    (32, 1, False),
    (64, 2, False),
    (64, 1, False),
    (64, 1, False),
    (32, 2, True),
    (32, 1, False),
    (16, 2, True),
    (16, 1, False),
    (1, 1, False),
]


def _chained(rows, dirs, kind):
    """LayerSpecs from (cout, stride, transposed) rows, each layer consuming
    the channels of the one before it and the first a single channel."""
    cins = [1] + [cout for cout, _, _ in rows[:-1]]
    return [LayerSpec(cin, cout, stride, transposed, d, kind)
            for cin, (cout, stride, transposed), d in zip(cins, rows, dirs)]


def standard_config(kind="qru3d", width_multiplier=1.0, schedule="alternating",
                    global_residual=True):
    """The benchmark 12-layer configuration, optionally width-scaled (the
    final single-channel output is never scaled)."""
    if not 0 < width_multiplier < math.inf:
        raise ConfigError(
            f"width multiplier must be positive and finite, got {width_multiplier}")
    dirs = direction_schedule(len(_STANDARD_ROWS), schedule)
    rows = [(cout if cout == 1 else max(1, int(round(cout * width_multiplier))),
             (s, s, 1), transposed) for cout, s, transposed in _STANDARD_ROWS]
    return NetworkConfig(_chained(rows, dirs, kind), global_residual)


def desk_config(width=8, n_layers=3, kind="qru3d", schedule="alternating",
                global_residual=True):
    """Tiny stride-free preset for gradient checks and toy training."""
    dirs = direction_schedule(n_layers, schedule)
    rows = [(width, (1, 1, 1), False)] * (n_layers - 1) + [(1, (1, 1, 1), False)]
    return NetworkConfig(_chained(rows, dirs, kind), global_residual)


class Model:
    """The NetworkConfig of its built units: each layer is a QruUnit."""

    def __init__(self, config):
        self.config = config
        self.units = config.layers

    def param_arrays(self):
        return [a for u in self.units for a in u.param_arrays()]

    def param_count(self):
        return sum(u.param_count() for u in self.units)

    def param_names(self):
        return [f"layer{j + 1:02d}.{name}"
                for j, u in enumerate(self.units) for name in u.param_names()]

    def astype(self, dtype):
        """Copy of the model with all parameters cast (float64 shadow for
        gradient checking)."""
        return Model(NetworkConfig([u.astype(dtype) for u in self.units],
                                   self.config.global_residual))

    def forward(self, x, keep_traces=False):
        """Run the network; returns (output, traces or None).

        Traces hold each unit's own trace, all that backward() and the
        spectral-dependency diagnostics read, plus every layer output. They
        are single-use: backward() frees them layer by layer as it goes, so
        each backward needs its own traced forward. Without traces a pass
        holds only what a later step reads: the current activation, and a
        layer output read by a skip until that skip adds it; units then run
        their recurrence in place.
        """
        cur, outputs, unit_traces = self._walk(x, len(self.units), keep_traces)
        if self.config.global_residual:
            cur = cur + x
        traces = {"outputs": list(outputs.values()), "units": unit_traces}
        return cur, (traces if keep_traces else None)

    def net_input(self, cube):
        """The (1, 1, H', W', B) float32 network input of an (H, W, B) cube,
        reflect-padded in H and W to the encoder's divisor only if an extent
        does not divide (else a view of the cube where the dtype allows)."""
        height, width = cube.shape[:2]
        req = self.config.downsample_factor()
        if height % req[0] or width % req[1]:
            cube = np.pad(cube, ((0, -height % req[0]), (0, -width % req[1]), (0, 0)), "reflect")
        return np.ascontiguousarray(cube[np.newaxis, np.newaxis], dtype=np.float32)

    def denoise(self, cube):
        """The restored (H, W, B) cube, clipped to [0, 1]: one float32 forward
        without traces on net_input(cube) (no layer writes into its input),
        cropped back to H and W."""
        out, _ = self.forward(self.net_input(cube))
        return np.clip(out[0, 0, :cube.shape[0], :cube.shape[1]], 0.0, 1.0)

    def unit_input(self, x, layer):
        """The input forward() feeds unit `layer` (zero-based), its skip
        added, from a pass without traces over the layers before it; so a
        traced unit.forward on it gives forward's trace of that layer (at
        layer 0 x itself, whose channels the caller's unit checks)."""
        if not 0 <= layer < len(self.units):
            raise ConfigError(f"layer {layer} outside 0..{len(self.units) - 1}")
        cur, outputs, _ = self._walk(x, layer, False)
        src = self.config.skips.get(layer)
        return cur if src is None else cur + outputs[src]

    def _walk(self, x, stop, keep_traces):
        """Check x, run units 0..stop-1: (last output, kept outputs, traces)."""
        x = np.asarray(x)
        if x.ndim != 5:
            raise ShapeError("input must have axes (batch, channel, height, width, band)")
        req = self.config.downsample_factor()
        for ax, name in ((0, "H"), (1, "W"), (2, "B")):
            if x.shape[2 + ax] % req[ax] != 0:
                raise ConfigError(
                    f"{name} extent {x.shape[2 + ax]} not divisible by {req[ax]}; "
                    f"crop or pad the cube so the encoder can downsample"
                )
        skips = self.config.skips
        outputs, unit_traces, cur = {}, [], x
        for j, unit in enumerate(self.units[:stop]):
            if j in skips:
                cur = cur + (outputs[skips[j]] if keep_traces else outputs.pop(skips[j]))
            cur, tr = unit.forward(cur, keep_trace=keep_traces)
            unit_traces.append(tr)
            if keep_traces or j in skips.values():
                outputs[j] = cur
        return cur, outputs, unit_traces

    def backward(self, traces, grad_y, input_grad=True):
        """Reverse pass through skips and residual; returns (grad_input,
        per-parameter grads in param_arrays() order). With input_grad
        false, layer 1 skips its input gradient and grad_input is None.

        The traces are consumed: once unit j's backward has read its trace,
        that trace and layer j's output are set to None in the lists, so
        each unit's input, gates and hidden states are freed as the pass
        moves down the net. A second backward needs a second traced forward.
        """
        if traces is None:
            raise ValueError("backward needs traces from forward(keep_traces=True)")
        if any(t is None for t in traces["units"]):
            raise ValueError("traces were consumed by an earlier backward; "
                             "run forward(keep_traces=True) again")
        n = len(self.units)
        skips = self.config.skips
        # pending[j] accumulates the gradient w.r.t. layer j's output
        # (1-based; index 0 is the network input). Each sum is a new array,
        # never an in-place add, so slots may share one gx or grad_y. A slot
        # is dropped once its layer has read it.
        pending = [None] * n + [grad_y]
        param_grads = [None] * n
        for j in range(n - 1, -1, -1):
            gx, param_grads[j] = self.units[j].backward(
                traces["units"][j], pending[j + 1], input_grad or j > 0)
            traces["units"][j] = traces["outputs"][j] = pending[j + 1] = None
            slots = (j, skips[j] + 1) if j in skips else (j,)
            for s in slots:
                pending[s] = gx if pending[s] is None else pending[s] + gx
        grad_input = pending[0]
        if grad_input is not None and self.config.global_residual:
            grad_input = grad_input + grad_y
        return grad_input, [g for grads_j in param_grads for g in grads_j]


def build_network(config, seed):
    """Instantiate every layer as a float32 unit with He init, deterministic by seed."""
    rng = np.random.default_rng(seed)
    units = [make_variant(s.kind).build(rng, s.cin, s.cout, s.stride, s.direction,
                                        s.transposed) for s in config.layers]
    return Model(NetworkConfig(units, config.global_residual))


# --- Q3DW weights container -------------------------------------------------
#
#   magic   4 bytes  "Q3DW"
#   version u16 LE   the global residual: 1 = on (input added to the output), 2 = off
#   layers  u16 LE
#   then per layer, the 46-byte _LAYER header and the kernel banks:
#     variant   u8   index in qru.VARIANT_KINDS: 0 = qru3d, 1 = qru2d, 2 = c3d
#     direction u8   index in qru.DIRECTIONS: 0 = forward, 1 = backward,
#                    2 = bidirectional (the order of both tuples is the format)
#     cout, cin, kh, kw, kb        u32 LE each
#     stride pairs (num, den) x 3  u32 LE each; den > 1 marks an
#                                  upsampling (transposed) layer of
#                                  fractional stride num/den
#     kernel banks in declaration order, each as weight then bias,
#     float32 LE, C-contiguous
#
# Bank declarations: forward/backward carry [wz, wf]; bidirectional
# [wz_fwd, wf_fwd, wz_bwd, wf_bwd]; c3d a single [w].

MAGIC = b"Q3DW"
RESIDUAL_ON, RESIDUAL_OFF = 1, 2
_LAYER = "<BB5I6I"


def save_weights(path, model):
    version = RESIDUAL_ON if model.config.global_residual else RESIDUAL_OFF
    buf = bytearray(MAGIC + struct.pack("<HH", version, len(model.units)))
    for unit in model.units:
        pairs = [n for s in unit.stride for n in ((1, s) if unit.transposed else (s, 1))]
        buf += struct.pack(_LAYER, VARIANT_KINDS.index(unit.kind),
                           DIRECTIONS.index(unit.direction), unit.cout, unit.cin,
                           *unit.banks[0].ksize, *pairs)
        for kern in unit.banks:
            buf += np.ascontiguousarray(kern.weight, dtype="<f4").tobytes()
            buf += np.ascontiguousarray(kern.bias, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_weights(path):
    """The model the file states, its global residual included."""
    reader = BlobReader.open(path, WeightsError, MAGIC, RESIDUAL_ON, RESIDUAL_OFF)
    (n_layers,) = reader.unpack("<H", "layer count")
    units = []
    for j in range(n_layers):
        vtag, dtag, cout, cin, kh, kw, kb, *pairs = reader.unpack(_LAYER, f"layer {j + 1} header")
        if vtag >= len(VARIANT_KINDS) or dtag >= len(DIRECTIONS):
            raise WeightsError(f"unknown variant/direction tags in layer {j + 1}")
        if 0 in (cout, cin) or any(k % 2 == 0 for k in (kh, kw, kb)):
            raise WeightsError(
                f"layer {j + 1} maps {cin} -> {cout} channels with a {kh}x{kw}x{kb} "
                f"kernel; channels must be positive and kernel extents odd")
        kind, direction = VARIANT_KINDS[vtag], DIRECTIONS[dtag]
        nums, dens = pairs[0::2], pairs[1::2]
        if any(d < 1 or n < 1 for n, d in zip(nums, dens)):
            raise WeightsError(f"invalid stride pair in layer {j + 1}")
        transposed = any(d > 1 for d in dens)
        if transposed and any(n > 1 for n in nums):
            raise WeightsError(f"layer {j + 1} mixes a stride num > 1 with a den > 1")
        stride = tuple(d if transposed else n for n, d in zip(nums, dens))
        wshape = bank_shape(cin, cout, transposed, (kh, kw, kb))
        banks = [ConvKernel(reader.array("<f4", wshape, f"layer {j + 1} weights"),
                            reader.array("<f4", (cout,), f"layer {j + 1} bias"))
                 for _ in range(bank_count(kind, direction))]
        units.append(QruUnit(cin, cout, stride, transposed, direction, kind, banks))
    reader.finish()
    return Model(NetworkConfig(units, reader.version == RESIDUAL_ON))
