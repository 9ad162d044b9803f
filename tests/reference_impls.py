"""Independent reference implementations used as test oracles.

These are deliberately written in the most literal way possible (nested
python loops, no shared code with the package) so that agreement between
the package and this file means two very different routes computed the
same thing. Slow is fine here; shapes in tests stay small.

Frozen: do not refactor these to call into hsdenoise.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv3d_reference(x, weight, bias, stride, pad):
    """Literal cross-correlation, six nested loops over the output volume.

    x: (N, Cin, H, W, B); weight: (Cout, Cin, kh, kw, kb); bias: (Cout,).
    """
    n_n, c_in, h, w, b = x.shape
    c_out, c_in_w, kh, kw, kb = weight.shape
    assert c_in == c_in_w
    sh, sw, sb = stride
    ph, pw, pb = pad
    xp = np.zeros((n_n, c_in, h + 2 * ph, w + 2 * pw, b + 2 * pb), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w, pb:pb + b] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    bo = (b + 2 * pb - kb) // sb + 1
    out = np.zeros((n_n, c_out, ho, wo, bo), dtype=np.float64)
    for n in range(n_n):
        for co in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    for k in range(bo):
                        acc = 0.0
                        for ci in range(c_in):
                            for di in range(kh):
                                for dj in range(kw):
                                    for dk in range(kb):
                                        acc += (
                                            xp[n, ci, i * sh + di, j * sw + dj, k * sb + dk]
                                            * weight[co, ci, di, dj, dk]
                                        )
                        out[n, co, i, j, k] = acc + bias[co]
    return out


def _im2col_windows(x, ksize, stride, pad):
    """Unchunked window view (N, Cin, Ho, Wo, Bo, kh, kw, kb) of the
    zero-padded float64 input, one window per output voxel."""
    ph, pw, pb = pad
    sh, sw, sb = stride
    xp = np.pad(np.asarray(x, dtype=np.float64),
                ((0, 0), (0, 0), (ph, ph), (pw, pw), (pb, pb)))
    win = sliding_window_view(xp, tuple(ksize), axis=(2, 3, 4))
    return win[:, :, ::sh, ::sw, ::sb]


def conv3d_im2col(x, weight, bias, stride, pad):
    """Cross-correlation as one einsum over every window at once.

    Same contract as conv3d_reference, fast enough for network-scale
    channel counts on small spatial extents.
    """
    win = _im2col_windows(x, np.shape(weight)[2:], stride, pad)
    out = np.einsum("nchwbijk,ocijk->nohwb", win, np.asarray(weight, dtype=np.float64))
    return out + np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1, 1)


def conv3d_weight_grad_im2col(x, grad_out, ksize, stride, pad):
    """Gradient of sum(conv3d_im2col(x, w, 0, ...) * grad_out) w.r.t. w:
    every window of x weighted by the grad_out value at its output voxel."""
    win = _im2col_windows(x, ksize, stride, pad)
    return np.einsum("nchwbijk,nohwb->ocijk", win, np.asarray(grad_out, dtype=np.float64))


def conv3d_input_grad_im2col(grad_out, weight, stride, in_hwb):
    """Gradient of sum(conv3d_im2col(x, w, 0, ...) * grad_out) w.r.t. an x
    of extents in_hwb, "same" padding: grad_out spread onto a grid stride
    times finer, correlated with the kernel flipped and its channel axes
    swapped, and cropped to in_hwb."""
    g = np.asarray(grad_out, dtype=np.float64)
    up = np.zeros(g.shape[:2] + tuple(s * e for s, e in zip(stride, g.shape[2:])))
    up[:, :, ::stride[0], ::stride[1], ::stride[2]] = g
    w = np.flip(np.asarray(weight, dtype=np.float64), axis=(2, 3, 4)).swapaxes(0, 1)
    out = conv3d_im2col(up, w, np.zeros(w.shape[0]), (1, 1, 1),
                        tuple(k // 2 for k in w.shape[2:]))
    return out[:, :, :in_hwb[0], :in_hwb[1], :in_hwb[2]]


def sigmoid_masked(x):
    """Logistic sigmoid split on sign through boolean masks: 1 / (1 + e^-x)
    where x >= 0 and e^x / (1 + e^x) elsewhere, so no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pool_unrolled_b2(z, f):
    """Hand-unrolled two-band forward recurrence, closed form for h_2.

    h_1 = (1 - f_1) z_1
    h_2 = f_2 (1 - f_1) z_1 + (1 - f_2) z_2
    Band axis is the last axis.
    """
    assert z.shape[-1] == 2
    z1, z2 = z[..., 0], z[..., 1]
    f1, f2 = f[..., 0], f[..., 1]
    h1 = (1.0 - f1) * z1
    h2 = f2 * (1.0 - f1) * z1 + (1.0 - f2) * z2
    return np.stack([h1, h2], axis=-1)


def pool_phi_sum(z, f, j):
    """h_j as the explicit contribution sum over source bands i <= j.

    phi_j(z_i) = f_j * f_{j-1} * ... * f_{i+1} * (1 - f_i) * z_i, summed
    over i = 0..j (zero-based). Forward direction only; reverse the band
    axis before calling for the backward direction.
    """
    total = np.zeros(z.shape[:-1], dtype=np.float64)
    for i in range(j + 1):
        term = (1.0 - f[..., i]) * z[..., i]
        for t in range(i + 1, j + 1):
            term = term * f[..., t]
        total += term
    return total


def stacked_gate_grads(traces, grad_h):
    """The gate gradient a gated unit hands its convolution backward, by
    the unfused route: per trace a fresh pooling backward (each band's
    grad_z and grad_f assigned into arrays laid out like z), fresh tanh and
    sigmoid derivatives, then one concatenate of all banks along channels.

    `traces` hold z, f, h (band axis last) and a direction. Memory order
    and dtype follow numpy's rules for these expressions, so the result is
    what a unit must reproduce byte for byte.
    """
    parts = []
    for tr in traces:
        z, f, h = tr.z, tr.f, tr.h
        n_bands = z.shape[-1]
        order = list(range(n_bands))
        if tr.direction == "backward":
            order.reverse()
        gz = np.empty_like(z)
        gf = np.empty_like(f)
        carry = np.zeros(z.shape[:-1], dtype=z.dtype)
        for pos in range(n_bands - 1, -1, -1):
            b = order[pos]
            g = grad_h[..., b] + carry
            h_prev = h[..., order[pos - 1]] if pos > 0 else np.zeros_like(carry)
            gz[..., b] = (1.0 - f[..., b]) * g
            gf[..., b] = (h_prev - z[..., b]) * g
            carry = f[..., b] * g
        parts.append(gz * (1.0 - z * z))
        parts.append(gf * f * (1.0 - f))
    return np.concatenate(parts, axis=1)


def _check_band_index(name, value, n_bands):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer band index, got {value!r}")
    if value < 1 or value > n_bands:
        raise ValueError(f"{name}={value} outside the band range 1..{n_bands}")


def phi(trace, i, j):
    """Contribution of band i to hidden state j (1-based band indices).

    `trace` is any object with z, f (band axis last) and a direction of
    "forward" or "backward". The gate product is built literally, one
    factor per band walked after i, so a forward trace requires i <= j and
    a backward trace requires i >= j.
    """
    n_bands = trace.z.shape[-1]
    _check_band_index("i", i, n_bands)
    _check_band_index("j", j, n_bands)
    if trace.direction == "forward":
        order = list(range(n_bands))
    elif trace.direction == "backward":
        order = list(range(n_bands - 1, -1, -1))
    else:
        raise ValueError(f"phi needs a forward or backward trace, got {trace.direction!r}")
    pi, pj = order.index(i - 1), order.index(j - 1)
    if pi > pj:
        raise ValueError(f"band {i} is processed after band {j} in a {trace.direction} trace")
    out = (1.0 - trace.f[..., i - 1]) * trace.z[..., i - 1]
    for p in range(pi + 1, pj + 1):
        out = out * trace.f[..., order[p]]
    return out


def fd_grad(func, arrays, eps=1e-3):
    """Central finite differences of scalar-valued func w.r.t. each array.

    arrays are perturbed in place element by element and restored; all
    arithmetic stays in the arrays' own dtype (use float64 inputs).
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = func()
            flat[idx] = orig - eps
            lo = func()
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst-case elementwise relative disagreement between two gradients."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def gaussian_window_11(sigma=1.5):
    """11x11 normalized Gaussian window sampled at integer offsets."""
    ax = np.arange(-5, 6, dtype=np.float64)
    g1 = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g1, g1)
    return win / win.sum()


def ssim_direct(x, ref, k1=0.01, k2=0.03, data_range=1.0):
    """Direct windowed SSIM over one 2D band, python loop per window.

    Means, variances and covariance are computed from explicitly centered
    sums inside each 11x11 window (no filtering shortcuts).
    """
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    h, w = x.shape
    win = gaussian_window_11()
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    vals = []
    for i in range(h - 10):
        for j in range(w - 10):
            px = x[i:i + 11, j:j + 11]
            pr = ref[i:i + 11, j:j + 11]
            mx = float((win * px).sum())
            mr = float((win * pr).sum())
            vx = float((win * (px - mx) ** 2).sum())
            vr = float((win * (pr - mr) ** 2).sum())
            cov = float((win * (px - mx) * (pr - mr)).sum())
            num = (2 * mx * mr + c1) * (2 * cov + c2)
            den = (mx * mx + mr * mr + c1) * (vx + vr + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def ssim_per_band(x, ref):
    """Moment-form SSIM one band at a time: each band's five windowed means
    as shifted multiply-adds down H, then, on the transposed result, down W,
    in the same order as the cube-wide walk, so agreement is byte for byte."""
    taps = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5 ** 2))
    taps /= taps.sum()

    def windowed_mean(plane):
        for _ in range(2):
            acc = taps[0] * plane[:len(plane) - 10]
            for i in range(1, 11):
                acc += taps[i] * plane[i:i + len(acc)]
            plane = acc.T
        return plane

    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for band in range(x.shape[2]):
        a, b = x[:, :, band], ref[:, :, band]
        mu_a, mu_b = windowed_mean(a), windowed_mean(b)
        var_a = windowed_mean(a * a) - mu_a * mu_a
        var_b = windowed_mean(b * b) - mu_b * mu_b
        cov = windowed_mean(a * b) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def gcs_csv_per_cell(values, direction, h_numel, excluded, eps):
    """The gcs CSV text with every cell formatted on its own: f"{v:.8g}",
    empty for NaN."""
    lines = [f"# direction: {direction}", f"# eps: {eps:g}", f"# h_numel: {h_numel}",
             "# excluded: " + ",".join(str(int(e)) for e in excluded),
             ",".join(["band"] + [str(j + 1) for j in range(len(values))])]
    for i, row in enumerate(np.asarray(values).tolist()):
        lines.append(",".join([str(i + 1)] + ["" if v != v else f"{v:.8g}" for v in row]))
    return "\n".join(lines) + "\n"


def bands_first(a):
    """True when an (N, C, H, W, B) array has (N, C, B, H, W) memory."""
    return np.moveaxis(a, -1, 2).flags.c_contiguous


def bands_first_copy(a):
    """Copy of an (N, C, H, W, B) array with (N, C, B, H, W) memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 2)), 2, -1)


def relative_counts(forward, backward, h_numel):
    """Per output band j of a bidirectional layer, (total, forward, backward)
    counts of the cells that reach 0.1 * sqrt(h_numel), cell by cell: i < j
    read from the forward matrix, i > j from the backward one, and the
    diagonal if either matrix's diagonal reaches it. NaN reaches nothing."""
    threshold = 0.1 * np.sqrt(h_numel)
    fwd, bwd = np.asarray(forward).tolist(), np.asarray(backward).tolist()
    counts = []
    for j in range(len(fwd)):
        before = sum(1 for i in range(j) if fwd[i][j] >= threshold)
        after = sum(1 for i in range(j + 1, len(fwd)) if bwd[i][j] >= threshold)
        diagonal = fwd[j][j] >= threshold or bwd[j][j] >= threshold
        counts.append((before + after + int(diagonal), before, after))
    return counts


def heat_map_pixels(forward, backward):
    """A bidirectional layer's heat map, cell by cell: v is the forward cell
    above the diagonal, the backward one below it and the larger defined one
    on it; each pixel is round(255 v / max v), 0 where v is NaN."""
    fwd, bwd = np.asarray(forward).tolist(), np.asarray(backward).tolist()
    n = len(fwd)
    cells = [[fwd[i][j] if i < j else bwd[i][j] if i > j
              else max((v for v in (fwd[i][i], bwd[i][i]) if v == v), default=float("nan"))
              for j in range(n)] for i in range(n)]
    top = max(v for row in cells for v in row if v == v)
    return [[0 if v != v else round(255.0 * (v / top)) for v in row] for row in cells]


def spectral_projection(noisy, rank):
    """The non-learned reference line: the noisy cube's (H*W, B) unfolding,
    mean-centred in float64, projected onto its top `rank` right-singular
    vectors, the mean added back, clipped to [0, 1]."""
    h, w, b = noisy.shape
    rows = np.asarray(noisy, dtype=np.float64).reshape(h * w, b)
    mean = rows.mean(axis=0)
    _, _, vt = np.linalg.svd(rows - mean, full_matrices=False)
    basis = vt[:rank]
    return np.clip((rows - mean) @ basis.T @ basis + mean, 0.0, 1.0).reshape(h, w, b)
