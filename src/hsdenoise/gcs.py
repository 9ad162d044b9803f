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
"""

import numpy as np

from .qru import PoolingTrace, _band_order
from .tensors import ConfigError


class GcsMatrix:
    """Band-contribution matrix for one directional trace.

    `values[i, j]` (zero-based) is the contribution strength of band i+1 to
    band j+1; undefined cells are NaN.  `excluded[j]` counts hidden elements
    of band j+1 dropped by the epsilon guard, out of `h_numel` per band.
    """

    __slots__ = ("values", "direction", "h_numel", "excluded", "eps")

    def __init__(self, values, direction, h_numel, excluded, eps):
        self.values = values
        self.direction = direction
        self.h_numel = h_numel
        self.excluded = excluded
        self.eps = eps

    @property
    def n_bands(self):
        return self.values.shape[0]

    def defined(self):
        return ~np.isnan(self.values)


def check_eps(eps):
    """The epsilon guard must be a positive number; NaN is not."""
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps!r}")


def no_recurrence(layer):
    """The error for a layer without a pooling recurrence (zero-based)."""
    return ConfigError(f"layer {layer} has no pooling recurrence to analyze")


def _walk_rows(a, order):
    """Float64 (bands, numel) copy of a trace array, one row per band in
    walk order."""
    a = np.asarray(a)
    return np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T[order], dtype=np.float64)


def gcs_matrix(trace, eps=1e-6):
    """Band-contribution matrix of one trace, in one walk along the bands.

    The trace is laid out band-major in walk order, and the walk keeps the
    squared contribution of every band reached so far as one row of `sq`:
    at step p, row i holds (f_p * ... * f_{i+1} * (1 - f_i) * z_i)^2. Step p
    multiplies the earlier rows by f_p^2, then one matrix-vector product
    with w^2, where w = 1 / h_p on elements with |h_p| >= eps and 0
    elsewhere, gives the squared norms of the whole column of band p. That
    is O(bands^2 * numel) arithmetic in O(bands) numpy calls.
    """
    if not isinstance(trace, PoolingTrace):
        raise ConfigError("gcs_matrix needs a single-direction pooling trace")
    check_eps(eps)
    n_bands = np.shape(trace.z)[-1]
    order = np.asarray(_band_order(n_bands, trace.direction))
    sq = _walk_rows(trace.z, order)
    f2 = _walk_rows(trace.f, order)
    sq *= 1.0 - f2
    np.square(sq, out=sq)
    np.square(f2, out=f2)
    w2 = _walk_rows(trace.h, order)
    include = np.abs(w2) >= eps
    np.square(w2, out=w2)
    with np.errstate(divide="ignore"):
        np.divide(1.0, w2, out=w2)
    w2[~include] = 0.0
    h_numel = sq.shape[1]
    kept = np.count_nonzero(include, axis=1)
    excluded = np.zeros(n_bands, dtype=np.int64)
    excluded[order] = h_numel - kept
    values = np.full((n_bands, n_bands), np.nan)
    for p, b in enumerate(order):
        sq[:p] *= f2[p]
        if kept[p] == 0:
            continue
        total = sq[:p + 1] @ w2[p]
        bad = ~np.isfinite(total)
        if bad.any():
            # A non-finite contribution on an excluded element turns its
            # zero weight into NaN; sum the included elements alone.
            total[bad] = np.where(include[p], sq[:p + 1][bad] * w2[p], 0.0).sum(axis=1)
        values[order[:p + 1], b] = np.sqrt(total)
    return GcsMatrix(values, trace.direction, h_numel, excluded, eps)


class RelativeBands:
    """Per-output-band counts of contributing bands, split by side."""

    __slots__ = ("total", "forward", "backward", "threshold")

    def __init__(self, total, fwd, bwd, threshold):
        self.total = total
        self.forward = fwd
        self.backward = bwd
        self.threshold = threshold


def relative_bands(gcs):
    """Count, per output band j, the bands whose contribution is at least a
    10 percent perturbation: GCS_ij >= 0.1 * sqrt(numel of h_j).

    The split counts classify contributors by side: `forward[j]` counts
    i < j and `backward[j]` counts i > j; the diagonal lands in neither
    split but does count toward `total`.
    """
    n_bands = gcs.n_bands
    threshold = np.full(n_bands, 0.1 * np.sqrt(gcs.h_numel))
    with np.errstate(invalid="ignore"):
        hit = gcs.defined() & (gcs.values >= threshold[np.newaxis, :])
    total = hit.sum(axis=0).astype(np.int64)
    rows = np.arange(n_bands)[:, np.newaxis]
    cols = np.arange(n_bands)[np.newaxis, :]
    fwd = (hit & (rows < cols)).sum(axis=0).astype(np.int64)
    bwd = (hit & (rows > cols)).sum(axis=0).astype(np.int64)
    return RelativeBands(total, fwd, bwd, threshold)


def relative_band_histogram(matrices):
    """Empirical distribution of relative-band counts, pooled over every
    output band of every matrix; index k holds the number of observations
    with exactly k relative bands."""
    totals = []
    for m in matrices:
        totals.extend(relative_bands(m).total.tolist())
    if not totals:
        raise ConfigError("no traces to pool a histogram from")
    return np.bincount(np.asarray(totals, dtype=np.int64))


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


def overlay_values(matrices):
    """Single dense view of one or more triangular matrices (element-wise
    max, ignoring absent cells); used for the combined heat map."""
    if not matrices:
        raise ConfigError("nothing to overlay")
    out = matrices[0].values.copy()
    for m in matrices[1:]:
        if m.values.shape != out.shape:
            raise ConfigError("matrices to overlay must share a band count")
        out = np.fmax(out, m.values)
    return out


def gcs_to_csv(gcs):
    """CSV rendering: comment lines carry the metadata, then one header row
    and one row per contributing band; absent cells are empty."""
    lines = [
        f"# direction: {gcs.direction}",
        f"# eps: {gcs.eps:g}",
        f"# h_numel: {gcs.h_numel}",
        "# excluded: " + ",".join(str(int(e)) for e in gcs.excluded),
        ",".join(["band"] + [str(j + 1) for j in range(gcs.n_bands)]),
    ]
    for i, row in enumerate(gcs.values.tolist()):
        lines.append(",".join([str(i + 1)] + ["" if v != v else f"{v:.8g}" for v in row]))
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
