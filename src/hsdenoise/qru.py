"""Quasi-recurrent 3D units: gated conv banks plus a recurrence over bands.

A unit computes a candidate tensor Z = tanh(conv(x, wz)) and a gate tensor
F = sigmoid(conv(x, wf)), then mixes them along the spectral axis with

    h_b = f_b * h_{b-1} + (1 - f_b) * z_b,    h_0 = 0

either front-to-back (forward), back-to-front (backward), or both with
independent parameter banks whose hidden states are added elementwise
(bidirectional). Ablation variants swap the 3x3x3 kernels for 3x3x1
(qru2d) or drop the gate and recurrence entirely (c3d).

All banks of a unit read the same input, so QruUnit stacks them along the
output channels and runs one convolution forward and one convolution
backward per call; c3d is the one-bank case without the recurrence. The
recurrence is sequential in the band index but elementwise over
(batch, channel, height, width), so each step is one vectorized blend.
The convolution returns z and f bands-first in memory (see tensors), so
each step reads and writes whole H x W planes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .tensors import (
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

FORWARD = "forward"
BACKWARD = "backward"
BIDIRECTIONAL = "bidirectional"
# The recurrence passes of each direction, in bank order.
_PASSES = {FORWARD: (FORWARD,), BACKWARD: (BACKWARD,), BIDIRECTIONAL: (FORWARD, BACKWARD)}
DIRECTIONS = tuple(_PASSES)
VARIANT_KINDS = ("qru3d", "qru2d", "c3d")


@dataclass(slots=True, eq=False, repr=False)
class PoolingTrace:
    """Captured (z, f, h) of one directional pass, for backward and GCS."""

    z: np.ndarray
    f: np.ndarray
    h: np.ndarray
    direction: str


def _in_order(direction, *arrays):
    """The arrays as views in one pass's walk order: a backward pass is the
    forward recurrence over the band-reversed spectrum."""
    if direction == FORWARD:
        return arrays
    if direction == BACKWARD:
        return tuple(a[..., ::-1] for a in arrays)
    raise ConfigError(f"pooling direction must be forward or backward, got {direction!r}")


def qru_pool_forward(z, f, direction, out=None):
    """Run the gated recurrence along the bands from h = 0 into out (z, say)."""
    if z.shape != f.shape:
        raise ShapeError(f"z shape {z.shape} != f shape {f.shape}")
    h = np.empty_like(z) if out is None else out
    zv, fv, hv = _in_order(direction, z, f, h)
    prev = np.zeros(z.shape[:-1], dtype=z.dtype)
    for b in range(z.shape[-1]):
        prev = fv[..., b] * prev + (1.0 - fv[..., b]) * zv[..., b]
        hv[..., b] = prev
    return h


def qru_pool_backward(trace, grad_h, out=None):
    """Exact reverse of the recurrence: gradients w.r.t. z and f.

    Last band first on the walk-order views of the trace and of grad_h
    and out (see _in_order), the accumulated hidden gradient
    g_b = grad_h_b + f_{b+1} * g_{b+1} feeds
        grad_z_b = (1 - f_b) * g_b
        grad_f_b = (h_{b-1} - z_b) * g_b
    plane by plane into out, a (grad_z, grad_f) pair such as two bank views
    of a stacked buffer, or new arrays laid out like z, returned as given.
    g and the carry take the result dtype of grad_h and the trace, the one
    scratch plane the trace's.
    """
    z, f, h = trace.z, trace.f, trace.h
    if grad_h.shape != z.shape:
        raise ShapeError(f"grad_h shape {grad_h.shape} != trace shape {z.shape}")
    gz, gf = (np.empty_like(z), np.empty_like(f)) if out is None else out
    zv, fv, hv, ghv, gzv, gfv = _in_order(trace.direction, z, f, h, grad_h, gz, gf)
    g, carry = np.zeros((2,) + z.shape[:-1], np.result_type(grad_h, z))
    scratch, zero_prev = np.zeros((2,) + z.shape[:-1], z.dtype)
    for b in range(z.shape[-1] - 1, -1, -1):
        np.add(ghv[..., b], carry, out=g)
        h_prev = hv[..., b - 1] if b else zero_prev
        np.multiply(np.subtract(1.0, fv[..., b], out=scratch), g, out=gzv[..., b])
        np.multiply(np.subtract(h_prev, zv[..., b], out=scratch), g, out=gfv[..., b])
        np.multiply(fv[..., b], g, out=carry)
    return gz, gf


def bank_count(kind, direction):
    """Kernel banks of one unit: one for c3d, else a (wz, wf) pair per
    recurrence pass (none for an unknown direction, which QruUnit names)."""
    return 1 if kind == "c3d" else 2 * len(_PASSES.get(direction, ()))


_TAGS = {FORWARD: "fwd", BACKWARD: "bwd"}


@dataclass(slots=True, eq=False, repr=False)
class LayerSpec:
    """One layer's wiring: channels, stride, direction, unit kind."""

    cin: int
    cout: int
    stride: tuple
    transposed: bool
    direction: str
    kind: str


@dataclass(eq=False, repr=False)
class QruUnit(LayerSpec):
    """A LayerSpec plus its kernel banks, run as one convolution and a mixer.

    `banks` lists ConvKernels in Q3DW declaration order: [w] for c3d,
    [wz, wf] for a forward or backward unit, [wz_fwd, wf_fwd, wz_bwd,
    wf_bwd] for a bidirectional one. Each call stacks them along the output
    channels and runs one convolution (and one convolution backward).
    Gated units split the result into (tanh z, sigmoid f) pairs, pool each
    pair along the bands and add the directions. The one-bank c3d unit only
    applies tanh.

    The convolution pads by half the kernel extent, so the unit keeps only
    its stride triple. `transposed` selects the upsampling (adjoint)
    convolution, in which case the stride is read as the fractional
    stride 1/s. Not slotted, so a profiler can wrap an instance's methods.
    """

    banks: list

    def __post_init__(self):
        if self.direction not in _PASSES:
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.kind not in VARIANT_KINDS:
            raise ConfigError(f"unknown unit kind {self.kind!r}; expected one of {VARIANT_KINDS}")
        need = bank_count(self.kind, self.direction)
        if len(self.banks) != need:
            raise ConfigError(f"{self.kind} {self.direction} unit needs {need} kernel banks, "
                              f"got {len(self.banks)}")
        if any(k.weight.shape != self.banks[0].weight.shape for k in self.banks):
            raise ShapeError("the kernel banks of one unit must share one shape")
        self.stride = tuple(int(s) for s in self.stride)
        if len(self.stride) != 3 or any(s < 1 for s in self.stride):
            raise ConfigError(f"stride must be three positive ints, got {self.stride}")

    @property
    def gated(self):
        return len(self.banks) > 1

    def _out_axis(self):
        """Output-channel axis of the weights: c2 when transposed, else c1."""
        return 1 if self.transposed else 0

    def _stacked(self):
        if not self.gated:
            return self.banks[0]
        return ConvKernel(
            np.concatenate([k.weight for k in self.banks], axis=self._out_axis()),
            np.concatenate([k.bias for k in self.banks]),
        )

    def _gates(self, x):
        """The stacked conv output split into bank views, gates activated in
        place, so a trace's z and f are bank views of it."""
        conv = tconv3d_forward if self.transposed else conv3d_forward
        pre = np.split(conv(x, self._stacked(), self.stride), len(self.banks), axis=1)
        for p, kind in zip(pre, ("tanh", "sigmoid") * 2):
            activate(p, kind, out=p)
        return pre

    def direction_traces(self, x):
        """Yield a gated unit's PoolingTrace per direction, each h made only when
        asked for: a consumer that drops each trace first holds one h at a time."""
        pre = self._gates(x)
        for d, z, f in zip(_PASSES[self.direction], pre[0::2], pre[1::2]):
            yield PoolingTrace(z, f, qru_pool_forward(z, f, d), d)

    def forward(self, x, keep_trace=False):
        """(y, trace or None). Traced, the traces are direction_traces' and y
        adds their h. Untraced, a second direction's h runs in place into its
        z and y, the first h, is the one new array."""
        if keep_trace and self.gated:
            traces = list(self.direction_traces(x))
            y = traces[0].h if len(traces) == 1 else traces[0].h + traces[1].h
            return y, (x, traces)
        pre = self._gates(x)
        if not self.gated:
            return pre[0], ((x, pre[0]) if keep_trace else None)
        y = qru_pool_forward(pre[0], pre[1], _PASSES[self.direction][0])
        for d, z, f in zip(_PASSES[self.direction][1:], pre[2::2], pre[3::2]):
            y += qru_pool_forward(z, f, d, out=z)
        return y, None

    def backward(self, trace, grad_y, input_grad=True):
        """(grad_x, per-parameter grads); grad_x is None when input_grad is
        false; grad_y must have the unit's output shape. A gated unit writes
        each bank's pooling, then activation, gradient in place into one
        stacked buffer laid out like z (bands-first), which sets the order
        of the bias gradient's sum."""
        x, saved = trace
        y_shape = (saved[0].z if self.gated else saved).shape
        if grad_y.shape != y_shape:
            raise ShapeError(f"grad_y shape {grad_y.shape} != unit output shape {y_shape}")
        if self.gated:
            g_pre = np.empty_like(saved[0].z, shape=(y_shape[0], len(self.banks) * y_shape[1])
                                  + y_shape[2:])
            views = np.split(g_pre, len(self.banks), axis=1)
            for tr, gz, gf in zip(saved, views[0::2], views[1::2]):
                qru_pool_backward(tr, grad_y, out=(gz, gf))
                activate_grad(tr.z, gz, "tanh", out=gz)
                activate_grad(tr.f, gf, "sigmoid", out=gf)
        else:
            g_pre = activate_grad(saved, grad_y, "tanh")
        conv_bwd = tconv3d_backward if self.transposed else conv3d_backward
        gx, gw, gb = conv_bwd(x, self._stacked(), self.stride, g_pre, input_grad)
        n = len(self.banks)
        grads = []
        for w, b in zip(np.split(gw, n, axis=self._out_axis()), np.split(gb, n)):
            grads += [w, b]
        return gx, grads

    def param_arrays(self):
        return [a for k in self.banks for a in (k.weight, k.bias)]

    def param_count(self):
        return sum(a.size for a in self.param_arrays())

    def param_names(self):
        if self.gated:
            banks = [f"{_TAGS[d]}.{w}" for d in _PASSES[self.direction] for w in ("wz", "wf")]
        else:
            banks = ["w"]
        return [f"{b}.{part}" for b in banks for part in ("weight", "bias")]

    def astype(self, dtype):
        return replace(self, banks=[k.astype(dtype) for k in self.banks])


class VariantFactory:
    """Builds freshly initialized units of one kind."""

    def __init__(self, kind):
        if kind not in VARIANT_KINDS:
            raise ConfigError(f"unknown unit kind {kind!r}; expected one of {VARIANT_KINDS}")
        self.kind = kind

    def build(self, rng, cin, cout, stride, direction, transposed=False, dtype=np.float32):
        ksize = (3, 3, 1) if self.kind == "qru2d" else (3, 3, 3)
        shape = ((cin, cout) if transposed else (cout, cin)) + ksize
        fan_in = cin * int(np.prod(ksize))
        banks = [ConvKernel(he_init(rng, shape, fan_in, dtype), np.zeros(cout, dtype=dtype))
                 for _ in range(bank_count(self.kind, direction))]
        return QruUnit(cin, cout, stride, transposed, direction, self.kind, banks)


def make_variant(kind):
    """Unit-constructor factory for the ablation table variants."""
    return VariantFactory(kind)
