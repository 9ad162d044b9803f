"""Independent float64 oracles the benchmark checks the program against.

Nothing here imports hsdenoise. The readers follow the byte layouts in the
README (HSI1 cubes, Q3DW weights); the forward pass follows the model the
README describes: each unit convolves its input into a tanh candidate z and
a sigmoid gate f, then runs h_b = f_b * h_{b-1} + (1 - f_b) * z_b along the
band axis (both ways, summed, for a bidirectional unit); decoder layers add
the output of their mirrored encoder layer to their input, and a global
residual adds the network input to the output.

The convolutions are written as a sum over kernel offsets of one channel
contraction per offset, a different algorithm from the program's, so a
wrong offset, stride or padding in the program shows up as a mismatch.
"""

import struct

import numpy as np

DIRECTIONS = {0: "forward", 1: "backward", 2: "bidirectional"}
KINDS = {0: "qru3d", 1: "qru2d", 2: "c3d"}


def read_hsi(path):
    """(H, W, B) float32 cube from an HSI1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"HSI1" or len(blob) < 18:
        raise ValueError(f"{path}: not an HSI1 cube")
    _, h, w, b = struct.unpack_from("<HIII", blob, 4)
    if len(blob) != 18 + 4 * h * w * b:
        raise ValueError(f"{path}: payload size does not match {h}x{w}x{b}")
    return np.frombuffer(blob, dtype="<f4", offset=18).reshape(h, w, b)


class Layer:
    """One Q3DW layer: geometry plus its kernel banks as float64."""

    def __init__(self, kind, direction, stride, transposed, banks):
        self.kind = kind
        self.direction = direction
        self.stride = stride
        self.transposed = transposed
        self.banks = banks  # [(weight, bias), ...] in file order


def read_q3dw(path):
    """Layers of a Q3DW weights file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"Q3DW":
        raise ValueError(f"{path}: not a Q3DW file")
    _, n_layers = struct.unpack_from("<HH", raw, 4)
    off = 8
    layers = []
    for _ in range(n_layers):
        vtag, dtag = struct.unpack_from("<BB", raw, off)
        cout, cin, kh, kw, kb = struct.unpack_from("<5I", raw, off + 2)
        pairs = struct.unpack_from("<6I", raw, off + 22)
        off += 46
        kind, direction = KINDS[vtag], DIRECTIONS[dtag]
        if kind == "c3d":
            raise ValueError("the reference covers gated (qru) units only")
        nums, dens = pairs[0::2], pairs[1::2]
        transposed = any(d > 1 for d in dens)
        stride = tuple(dens) if transposed else tuple(nums)
        wshape = ((cin, cout) if transposed else (cout, cin)) + (kh, kw, kb)
        banks = []
        for _ in range(4 if direction == "bidirectional" else 2):
            wn = int(np.prod(wshape))
            w = np.frombuffer(raw, dtype="<f4", count=wn, offset=off).reshape(wshape)
            off += 4 * wn
            b = np.frombuffer(raw, dtype="<f4", count=cout, offset=off)
            off += 4 * cout
            banks.append((w.astype(np.float64), b.astype(np.float64)))
        layers.append(Layer(kind, direction, stride, transposed, banks))
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return layers


def _offsets(weight):
    kh, kw, kb = weight.shape[2:]
    for di in range(kh):
        for dj in range(kw):
            for dk in range(kb):
                yield di, dj, dk


def conv(x, weight, bias, stride):
    """Zero-padded strided cross-correlation, (N, c2, ...) -> (N, c1, ...)."""
    n, _, h, w, b = x.shape
    pads = [k // 2 for k in weight.shape[2:]]
    out_ext = [(e + 2 * p - k) // s + 1
               for e, p, k, s in zip((h, w, b), pads, weight.shape[2:], stride)]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in pads])
    acc = np.zeros((weight.shape[0], n) + tuple(out_ext))
    for d in _offsets(weight):
        window = tuple(slice(o, o + s * (e - 1) + 1, s)
                       for o, s, e in zip(d, stride, out_ext))
        acc += np.tensordot(weight[(slice(None), slice(None)) + d],
                            xp[(slice(None), slice(None)) + window], axes=([1], [1]))
    return acc.transpose(1, 0, 2, 3, 4) + bias.reshape(1, -1, 1, 1, 1)


def tconv(x, weight, bias, stride):
    """Adjoint of conv with the same kernel, (N, c1, ...) -> (N, c2, ...),
    upsampling each axis by its stride."""
    n, _, h, w, b = x.shape
    pads = [k // 2 for k in weight.shape[2:]]
    out_ext = [s * e for s, e in zip(stride, (h, w, b))]
    acc = np.zeros((weight.shape[1], n) + tuple(e + 2 * p for e, p in zip(out_ext, pads)))
    for d in _offsets(weight):
        window = tuple(slice(o, o + s * (e - 1) + 1, s)
                       for o, s, e in zip(d, stride, (h, w, b)))
        acc[(slice(None), slice(None)) + window] += np.tensordot(
            weight[(slice(None), slice(None)) + d], x, axes=([0], [1]))
    crop = tuple(slice(p, p + e) for p, e in zip(pads, out_ext))
    out = acc[(slice(None), slice(None)) + crop]
    return out.transpose(1, 0, 2, 3, 4) + bias.reshape(1, -1, 1, 1, 1)


def band_order(n_bands, direction):
    return range(n_bands) if direction == "forward" else range(n_bands - 1, -1, -1)


def pool(z, f, direction):
    h = np.empty_like(z)
    prev = np.zeros(z.shape[:-1])
    for b in band_order(z.shape[-1], direction):
        prev = f[..., b] * prev + (1.0 - f[..., b]) * z[..., b]
        h[..., b] = prev
    return h


def unit_forward(layer, x):
    op = tconv if layer.transposed else conv
    dirs = (["forward", "backward"] if layer.direction == "bidirectional"
            else [layer.direction])
    y = 0.0
    for k, direction in enumerate(dirs):
        (wz, bz), (wf, bf) = layer.banks[2 * k], layer.banks[2 * k + 1]
        z = np.tanh(op(x, wz, bz, layer.stride))
        f = 0.5 * (1.0 + np.tanh(0.5 * op(x, wf, bf, layer.stride)))
        y = y + pool(z, f, direction)
    return y


def network_forward(layers, x):
    """Float64 output of the whole network with the global residual on."""
    n = len(layers)
    outputs = []
    cur = np.asarray(x, dtype=np.float64)
    for j, layer in enumerate(layers):
        if 2 * (j + 1) > n + 1:
            cur = cur + outputs[n - j - 1]
        cur = unit_forward(layer, cur)
        outputs.append(cur)
    return outputs[-1] + x


def denoise(layers, cube):
    """What `hsdenoise denoise` should write for an (H, W, B) cube."""
    x = np.asarray(cube, dtype=np.float64)[np.newaxis, np.newaxis]
    return np.clip(network_forward(layers, x)[0, 0], 0.0, 1.0)


def psnr(x, ref):
    mse = np.mean((np.asarray(x, np.float64) - np.asarray(ref, np.float64)) ** 2, axis=(0, 1))
    return float(np.mean(10.0 * np.log10(1.0 / mse)))


def gcs_cell(z, f, h, direction, i, j, eps):
    """Contribution strength of band i to band j (zero-based) by the direct
    product of gates: ||((1 - f_i) z_i prod f_p) / h_j|| over elements with
    |h_j| >= eps, p running over the bands the walk passes after i up to j."""
    z, f, h = (np.asarray(a, dtype=np.float64) for a in (z, f, h))
    contrib = (1.0 - f[..., i]) * z[..., i]
    passed = range(i + 1, j + 1) if direction == "forward" else range(j, i)
    for p in passed:
        contrib = contrib * f[..., p]
    keep = np.abs(h[..., j]) >= eps
    ratio = contrib[keep] / h[..., j][keep]
    return float(np.sqrt(np.sum(ratio * ratio)))
