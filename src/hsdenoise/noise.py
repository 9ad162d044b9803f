"""Seeded synthesis of every corruption regime used for training and tests.

Cubes are (H, W, B) arrays with values nominally in [0, 1]. Noise is
purely additive or replacing; nothing is clipped afterwards, so values
may leave [0, 1]. Gaussian strengths are quoted on the 0..255 intensity
scale and divided by 255 before use.

Regimes:
  gaussian-iid     one sigma for the whole cube
  case 1           per-band sigma drawn uniform from [10, 70]
  case 2           case 1 plus stripes on a third of the bands
  case 3           case 1 plus dead (zeroed) columns on a third of the bands
  case 4           case 1 plus salt-and-pepper pixels on a third of the bands
  case 5           case 1 everywhere, then each band independently gets each
                   sparse type with probability 1/3 (redrawn until at least
                   one band is hit)

Every draw comes from numpy's PCG64 via default_rng, seeded through
SeedSequence([*seed_path, op_tag, *path]): path (0) for the draw that picks
an op's sigmas, bands or coins, (band) per band of the iid Gaussian, and
(1 + band) per band another op corrupts, plus the sparse kind (0 stripes,
1 deadlines, 2 impulses) in case 5. With one substream per op per band,
evaluation order can never change the result. Seeds may be a single int
or a sequence of ints; synthesize_case extends the seed with 0 for its
Gaussian and 1 for its sparse noise. The sparse-noise parameters the
literature leaves open are fixed here and recorded in the CorruptionReport:
stripes add a per-column constant offset of magnitude uniform [0.05, 0.15]
with random sign, deadlines are width-1 columns set to exactly 0, impulse
pixels are replaced by 0 or 1 equiprobably.
"""

import math
from functools import partial

import numpy as np

# Op tags keep the per-op substreams disjoint under a shared user seed.
_TAG_IID = 1
_TAG_NONIID = 2
_TAG_STRIPE = 3
_TAG_DEADLINE = 4
_TAG_IMPULSE = 5
_TAG_CASE5 = 6

CASES = (1, 2, 3, 4, 5)


class NoiseError(ValueError):
    """Invalid noise parameters."""


def _seed_path(seed):
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(_seed_path(seed) + list(path)))


def _check_cube(x):
    x = np.asarray(x)
    if x.ndim != 3:
        raise NoiseError(f"cube must have axes (H, W, B), got {x.ndim} axes")
    if 0 in x.shape:
        raise NoiseError("cube extents {}x{}x{} include a zero".format(*x.shape))
    return x


class CorruptionReport:
    """Record of exactly what a synthesis call did, for reproducibility.

    Band numbers are 1-based in the report (and in its text form); column
    and pixel counts refer to single bands.
    """

    def __init__(self, regime):
        self.regime = regime
        self.sigma_per_band = None
        self.stripes = {}      # band -> sorted list of column indices
        self.deadlines = {}    # band -> sorted list of column indices
        self.impulses = {}     # band -> (fraction, pixel count)
        self.notes = {}

    def sparse_band_count(self):
        bands = set(self.stripes) | set(self.deadlines) | set(self.impulses)
        return len(bands)

    def to_text(self):
        lines = [f"regime: {self.regime}"]
        if self.sigma_per_band is not None:
            sig = " ".join(f"{s:.6f}" for s in self.sigma_per_band)
            lines.append(f"sigma-per-band (0..255 scale): {sig}")
        for label, table in (("stripe", self.stripes), ("deadline", self.deadlines)):
            for band in sorted(table):
                cols = " ".join(str(c) for c in table[band])
                lines.append(f"{label} band {band}: columns {cols}")
        for band in sorted(self.impulses):
            frac, count = self.impulses[band]
            lines.append(f"impulse band {band}: fraction {frac:.6f} pixels {count}")
        for key in sorted(self.notes):
            lines.append(f"note {key}: {self.notes[key]}")
        return "\n".join(lines) + "\n"


def _walk(x, seed, tag, hits, report):
    """A copy of x in which each hit (band, path, apply), in order, calls
    apply(copy, band, rng, report) with rng on the substream (seed, tag, *path)."""
    y = x.copy()
    for band, path, apply in hits:
        apply(y, band, _rng(seed, tag, *path), report)
    return y


def _gaussian_band(sigma, y, band, rng, report):
    n = rng.normal(0.0, sigma / 255.0, size=y.shape[:2])
    y[:, :, band] += n.astype(y.dtype, copy=False)


def add_gaussian_iid(x, sigma, seed):
    """y = x + N(0, (sigma/255)^2), elementwise, no clipping."""
    x = _check_cube(x)
    if not 0 <= sigma < math.inf:
        raise NoiseError(f"sigma must be finite and non-negative, got {sigma}")
    apply = partial(_gaussian_band, sigma)
    hits = [(band, (band,), apply) for band in range(x.shape[2])] if sigma else []
    return _walk(x, seed, _TAG_IID, hits, None)


def add_noniid_gaussian(x, seed):
    """Per-band Gaussian with sigma_b drawn uniform from [10, 70]."""
    x = _check_cube(x)
    b = x.shape[2]
    sigmas = _rng(seed, _TAG_NONIID, 0).uniform(10.0, 70.0, size=b)
    report = CorruptionReport("noniid-gaussian")
    report.sigma_per_band = [float(s) for s in sigmas]
    hits = [(band, (1 + band,), partial(_gaussian_band, sigmas[band])) for band in range(b)]
    return _walk(x, seed, _TAG_NONIID, hits, report), report


def _columns(rng, w):
    """5% to 15% of the w columns, sorted; the count is clamped so the
    realized fraction stays inside the range wherever the width allows it."""
    u = rng.uniform(0.05, 0.15)
    lo = max(1, math.ceil(0.05 * w))
    hi = max(lo, math.floor(0.15 * w))
    count = min(max(int(round(u * w)), lo), hi)
    return sorted(int(c) for c in rng.choice(w, size=count, replace=False))


def _stripe_band(y, band, rng, report):
    cols = _columns(rng, y.shape[1])
    mags = rng.uniform(0.05, 0.15, size=len(cols))
    signs = np.where(rng.random(len(cols)) < 0.5, -1.0, 1.0)
    for col, mag, sign in zip(cols, mags, signs):
        y[:, col, band] += np.asarray(sign * mag, dtype=y.dtype)
    report.stripes[band + 1] = cols


def _deadline_band(y, band, rng, report):
    cols = _columns(rng, y.shape[1])
    for col in cols:
        y[:, col, band] = 0.0
    report.deadlines[band + 1] = cols


def _impulse_band(y, band, rng, report):
    h, w, _ = y.shape
    frac = rng.uniform(0.10, 0.70)
    count = int(round(frac * h * w))
    flat = rng.choice(h * w, size=count, replace=False)
    y[:, :, band].flat[flat] = rng.integers(0, 2, size=count).astype(y.dtype)
    report.impulses[band + 1] = (float(frac), count)


# Report notes on the parameters the literature leaves open, by sparse regime.
_NOTES = {
    "stripes": {"stripe-amplitude": "uniform 0.05..0.15, random sign, whole column"},
    "impulse": {"impulse-values": "replaced pixels set to 0 or 1 equiprobably"},
}


def _add_sparse(x, seed, tag, apply, regime):
    """One sparse kind on a third of the bands (rounded down, at least one)."""
    b = _check_cube(x).shape[2]
    bands = _rng(seed, tag, 0).choice(b, size=max(1, b // 3), replace=False)
    report = CorruptionReport(regime)
    report.notes.update(_NOTES.get(regime, {}))
    hits = [(band, (1 + band,), apply) for band in sorted(int(v) for v in bands)]
    return _walk(x, seed, tag, hits, report), report


def add_stripes(x, seed):
    """Constant-offset stripes on a third of the bands; other bands are
    left bit-identical."""
    return _add_sparse(x, seed, _TAG_STRIPE, _stripe_band, "stripes")


def add_deadline(x, seed):
    """Width-1 dead columns (exact zeros) on a third of the bands."""
    return _add_sparse(x, seed, _TAG_DEADLINE, _deadline_band, "deadline")


def add_impulse(x, seed):
    """Salt-and-pepper pixels on a third of the bands; the per-band
    fraction is drawn uniform from [0.10, 0.70] and hit exactly."""
    return _add_sparse(x, seed, _TAG_IMPULSE, _impulse_band, "impulse")


def synthesize_case(x, case, seed):
    """One of the five compound regimes; returns (cube, CorruptionReport).

    Cases 2-4 are the per-band Gaussian of case 1 followed by one sparse
    noise type. Case 5 is the case-1 Gaussian followed by per-band coin
    flips (probability 1/3 each) for stripes, deadlines and impulses,
    redrawn until at least one band gets at least one sparse corruption.
    """
    x = _check_cube(x)
    if case not in CASES:
        raise NoiseError(f"case must be one of {CASES}, got {case}")
    base = _seed_path(seed)
    y, report = add_noniid_gaussian(x, base + [0])
    sigmas = report.sigma_per_band
    if case in (2, 3, 4):
        y, report = (add_stripes, add_deadline, add_impulse)[case - 2](y, base + [1])
    elif case == 5:
        y, report = _add_mixture(y, base + [1])
    report.regime = f"case-{case}"
    report.sigma_per_band = sigmas
    return y, report


def _add_mixture(y, seed):
    master = _rng(seed, _TAG_CASE5, 0)
    coins = np.zeros((y.shape[2], 3), dtype=bool)
    while not coins.any():
        coins = master.random(coins.shape) < (1.0 / 3.0)
    report = CorruptionReport("mixture-sparse")
    report.notes["mixture-rule"] = ("per band, each sparse type applied with probability 1/3; "
                                    "redrawn until at least one hit")
    for notes in _NOTES.values():
        report.notes.update(notes)
    appliers = (_stripe_band, _deadline_band, _impulse_band)
    hits = [(int(band), (1 + int(band), int(kind)), appliers[kind])
            for band, kind in np.argwhere(coins)]
    return _walk(y, seed, _TAG_CASE5, hits, report), report
