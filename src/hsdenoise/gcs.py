"""Spectral-dependency diagnostics computed from a captured pooling trace.

Unrolling the gated recurrence writes each hidden state as a sum of per-band
contributions: for a forward pass

    h_j = sum_{i <= j} phi_j(z_i),
    phi_j(z_i) = f_j * f_{j-1} * ... * f_{i+1} * (1 - f_i) * z_i

and the mirror-image sum over i >= j for a backward pass.  The strength of
band i's contribution to band j is measured as the Frobenius norm of the
element-wise ratio phi_j(z_i) / h_j, giving a band-by-band matrix whose rows
say which input bands an output band actually drew from.

Hidden elements with |h| below an epsilon are excluded from the ratio (the
count of exclusions is kept as metadata); a hidden state that is zero
everywhere yields an absent entry.  Absent entries, including the empty
triangle of a one-directional trace, are stored as NaN, never as 0.

The squared matrix is the mask of a 1-semiseparable matrix: cell (i, j) is band
i's candidate times the product of the gates between i and j. `gcs_matrix`
computes it block by block, as chunked state-space and gated linear-attention
layers do: a band-by-band walk inside each block of bands, one GEMM between
each block and all earlier ones, and gate products carried by multiplication
alone, on one float64 copy of the trace (the candidate rows) plus two blocks.
"""

from dataclasses import dataclass

import numpy as np

from .qru import FORWARD, PoolingTrace, _in_order
from .tensors import ConfigError

# Bands per block of the gcs_matrix walk: the walk inside a block scales
# about K / 2 rows per band, the carry past a block about bands / K. On
# 220 bands, 20 to 32 timed the same.
_BLOCK_BANDS = 24


@dataclass(slots=True, eq=False, repr=False)
class GcsMatrix:
    """Band-contribution matrix for one directional trace.

    `values[i, j]` (zero-based) is the contribution strength of band i+1 to
    band j+1; undefined cells are NaN.  `excluded[j]` counts hidden elements
    of band j+1 dropped by the epsilon guard, out of `h_numel` per band.
    """

    values: np.ndarray
    direction: str
    h_numel: int
    excluded: np.ndarray
    eps: float

    @property
    def n_bands(self):
        return self.values.shape[0]

    def defined(self):
        return ~np.isnan(self.values)


def check_eps(eps):
    """The epsilon guard must be a positive finite number: NaN is not, and
    under an infinite guard every element would be excluded."""
    if not 0 < eps < np.inf:
        raise ConfigError(f"eps must be positive and finite, got {eps!r}")


def no_recurrence(layer):
    """The error for zero-based unit `layer` without a pooling recurrence,
    naming it from 1 as NetworkConfig and the weight names (layer01) do."""
    return ConfigError(f"layer {layer + 1} has no pooling recurrence to analyze")


def _block_rows(a, start, out):
    """Cast bands start.. of a into out, a float64 (bands, numel) block."""
    rows = np.moveaxis(a, -1, 0)[start:start + len(out)]
    np.copyto(out.reshape(rows.shape), rows)
    return out


def _sums(rows, cols, drop):
    """rows @ cols.T, with every non-finite cell summed again over its
    column's kept elements alone: a non-finite contribution on an
    excluded (dropped) element turns that element's zero weight into NaN."""
    total = rows @ cols.T
    if np.isfinite(total).all():
        return total
    for r, c in np.argwhere(~np.isfinite(total)):
        total[r, c] = np.where(drop[c], 0.0, rows[r] * cols[c]).sum()
    return total


def gcs_matrix(trace, eps=1e-6):
    """Band-contribution matrix of one trace, in one walk over blocks of
    _BLOCK_BANDS (K) bands.

    In walk order (on the trace's _in_order views), band p has the rows
    c_p = ((1 - f_p) z_p)^2, g_p = f_p^2 and w_p = 1 / h_p^2 on elements
    with |h_p| >= eps (0 elsewhere), and the squared cell (i, p) is the sum
    over elements of c_i g_{i+1} ... g_p w_p. Per block C:

    - Diagonal: the band-by-band walk within C. Step p scales C's earlier
      rows by g_p in place, then a matrix-vector product with w_p gives
      their cells in column p. C's rows end up as a_i = c_i times the
      gates after i up to the end of C (a suffix product).
    - Off-diagonal: each w_p of C is scaled in place to b_p = w_p times
      the gates from the start of C up to p (a prefix product), and one
      GEMM, rows @ b_C^T, gives the cells of every earlier block A in C's
      columns. A's rows hold a_A times the gates of the whole blocks
      between A and C: after each block, every earlier row is scaled in
      place by that block's total gate product.

    No gate product is ever divided out, so underflow goes to zero from one
    side only, as in a band-by-band walk. The sums run in another order than
    that walk's, which moves cells by about 1e-15 relative. That is
    O(bands^2 * numel) arithmetic in GEMMs, plus
    O(bands * numel * (K + bands / K)) in-place row scaling, on one float64
    (bands, numel) array, the c rows; each block casts into it and into two
    float64 K-row buffers and one mask, made once per call, for g and w.
    """
    if not isinstance(trace, PoolingTrace):
        raise ConfigError("gcs_matrix needs a single-direction pooling trace")
    check_eps(eps)
    z, f, h = _in_order(trace.direction, *map(np.asarray, (trace.z, trace.f, trace.h)))
    n_bands, h_numel = z.shape[-1], int(np.prod(z.shape[:-1]))
    k = min(_BLOCK_BANDS, n_bands)
    sq, blocks = np.empty((n_bands, h_numel)), np.empty((2, k, h_numel))
    mask = np.empty((k, h_numel), dtype=bool)
    kept = np.empty(n_bands, dtype=np.int64)
    walk = np.full((n_bands, n_bands), np.nan)
    with np.errstate(divide="ignore"):
        for start in range(0, n_bands, _BLOCK_BANDS):
            stop = min(start + _BLOCK_BANDS, n_bands)
            # Block C's rows: c goes into sq; g, w and the mask into the block buffers.
            g, w, drop = blocks[0, :stop - start], blocks[1, :stop - start], mask[:stop - start]
            c = _block_rows(z, start, sq[start:stop])
            _block_rows(f, start, g)
            np.square(np.multiply(c, np.subtract(1.0, g, out=w), out=c), out=c)
            np.square(g, out=g)
            _block_rows(h, start, w)
            np.invert(np.greater_equal(np.abs(w, out=w), eps, out=drop), out=drop)
            np.divide(1.0, np.square(w, out=w), out=w)
            w[drop] = 0.0
            kept[start:stop] = h_numel - np.count_nonzero(drop, axis=1)
            for q, p in enumerate(range(start, stop)):
                sq[start:p] *= g[q]
                walk[start:p + 1, p] = _sums(sq[start:p + 1], w[q:q + 1], drop[q:q + 1])[:, 0]
                # g_p becomes the prefix product of C up to p, w_p becomes b_p.
                if q:
                    g[q] *= g[q - 1]
                w[q] *= g[q]
            walk[:start, start:stop] = _sums(sq[:start], w, drop)
            sq[:start] *= g[-1]
    walk[:, kept == 0] = np.nan
    back = slice(None, None, 1 if trace.direction == FORWARD else -1)  # walk to band order
    return GcsMatrix(np.sqrt(walk[back, back]), trace.direction, h_numel,
                     (h_numel - kept)[back], eps)


def layer_matrices(model, cube, layer, eps=1e-6):
    """Each direction's GcsMatrix of unit `layer` (zero-based) on an (H, W, B) cube, checked
    before any layer runs. The net runs on Model.net_input(cube), reflect-padded as denoise
    pads it to H_pad x W_pad; an h_k x w_k trace is cropped, as views, to its first
    ceil(H h_k / H_pad) x ceil(W w_k / W_pad) positions, so the sums and h_numel count only
    the cube's own. map, unlike a list comprehension, frees each trace before the next."""
    if not 0 <= layer < len(model.units):
        raise ConfigError(f"layer {layer} outside 0..{len(model.units) - 1}")
    check_eps(eps)
    if not model.units[layer].gated:
        raise no_recurrence(layer)
    x = model.net_input(cube)

    def matrix(t):
        hc, wc = (-(-n * k // p) for n, k, p in zip(cube.shape[:2], t.h.shape[2:4], x.shape[2:4]))
        crop = PoolingTrace(*(a[:, :, :hc, :wc] for a in (t.z, t.f, t.h)), t.direction)
        return gcs_matrix(crop, eps=eps)
    return list(map(matrix, model.units[layer].direction_traces(model.unit_input(x, layer))))


def relative_bands(values, h_numel):
    """Count, per output band j, the bands whose contribution is at least a
    10 percent perturbation: GCS_ij >= 0.1 * sqrt(h_numel), where h_numel is
    the numel of h_j. An absent (NaN) cell never reaches it.

    Returns the (total, forward, backward) count arrays: `forward[j]` counts
    i < j and `backward[j]` counts i > j; the diagonal lands in neither
    split but does count toward `total`.
    """
    with np.errstate(invalid="ignore"):
        hit = values >= 0.1 * np.sqrt(h_numel)
    return hit.sum(axis=0), np.triu(hit, 1).sum(axis=0), np.tril(hit, -1).sum(axis=0)


def pooling_traces(net_traces, layer):
    """The pooling traces of one layer out of a network forward pass
    (one trace per direction branch; zero-based layer index)."""
    units = net_traces["units"]
    if layer < 0 or layer >= len(units):
        raise ConfigError(f"layer {layer} outside 0..{len(units) - 1}")
    unit_trace = units[layer]
    branches = unit_trace[1]
    if not (isinstance(branches, list)
            and all(isinstance(t, PoolingTrace) for t in branches)):
        raise no_recurrence(layer)
    return branches


def gcs_to_csv(gcs):
    """CSV rendering: comment lines carry the metadata, then one header row
    and one row per contributing band; absent cells are empty. A row takes
    one "%.8g" format (f"{v:.8g}"'s) over its cells from the first defined
    to the last (all of them if none is), and an absent cell inside that
    span, which prints "nan", is emptied."""
    n, fmt = gcs.n_bands, ",".join(["%.8g"] * gcs.n_bands)
    lines = [
        f"# direction: {gcs.direction}",
        f"# eps: {gcs.eps:g}",
        f"# h_numel: {gcs.h_numel}",
        "# excluded: " + ",".join(str(int(e)) for e in gcs.excluded),
        ",".join(["band"] + [str(j + 1) for j in range(gcs.n_bands)]),
    ]
    for i, (row, cols) in enumerate(zip(gcs.values.tolist(), map(np.flatnonzero, gcs.defined()))):
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, n)
        cells = (fmt[:5 * (hi - lo) - 1] % tuple(row[lo:hi])).replace("nan", "")
        lines.append(f"{i + 1}," + "," * lo + cells + "," * (n - hi))
    return "\n".join(lines) + "\n"


def values_to_pgm(values):
    """Binary PGM (P5) heat map of a contribution matrix; absent cells are
    black and the largest defined value maps to white."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ConfigError("heat map needs a 2-d matrix")
    finite = np.isfinite(vals)
    top = float(vals[finite].max()) if finite.any() else 0.0
    pixels = np.zeros(vals.shape, dtype=np.uint8)
    if top > 0:
        scaled = np.where(finite, vals / top, 0.0)
        pixels = np.round(255.0 * scaled).astype(np.uint8)
    header = f"P5\n{vals.shape[1]} {vals.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()
