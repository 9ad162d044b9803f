"""Quality indices over (H, W, B) cubes: PSNR, SSIM, SAM.

PSNR and SSIM are computed per band against a peak/dynamic range of 1 and
averaged over bands (the usual convention for hyperspectral stacks). SAM
is the mean per-pixel angle between the two spectra, in radians. All
internal arithmetic is float64 regardless of input dtype.
"""

import numpy as np

from .tensors import ConfigError, ShapeError


class MetricError(ValueError):
    """The metric is undefined for these inputs."""


def _pair(x, ref):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.ndim != 3 or ref.ndim != 3:
        raise ShapeError("metrics expect (H, W, B) cubes")
    if x.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {ref.shape}")
    return x, ref


def psnr_per_band(x, ref):
    """10 log10(1 / MSE_b) per band; +inf where a band is identical, NaN
    where it holds a NaN."""
    x, ref = _pair(x, ref)
    mse = np.mean((x - ref) ** 2, axis=(0, 1))
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(1.0 / mse)


def psnr(x, ref):
    """Band-averaged PSNR in dB (+inf if every band is identical, NaN if any holds NaN)."""
    return float(np.mean(psnr_per_band(x, ref)))


# Side of the SSIM window: a band must hold one whole window.
SSIM_WINDOW = 11


# 1-D Gaussian taps g of the SSIM window outer(g, g): sigma 1.5, sum 1.
_TAPS = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * 1.5 ** 2))
_TAPS /= _TAPS.sum()


def _windowed_mean(cube):
    """Weighted mean over every valid (fully inside) window position of each
    (H, W) plane of a (B, H, W) cube: the window is outer(g, g), so shifted
    multiply-adds down H, then, on the swapped result, down W."""
    for _ in range(2):
        acc = _TAPS[0] * cube[:, :cube.shape[1] - SSIM_WINDOW + 1]
        for i in range(1, SSIM_WINDOW):
            acc += _TAPS[i] * cube[:, i:i + acc.shape[1]]
        cube = acc.swapaxes(1, 2)
    return cube


# SSIM stabilizers (K1 L)^2, (K2 L)^2: K1 = 0.01, K2 = 0.03, dynamic range L = 1.
SSIM_C1, SSIM_C2 = 0.01 ** 2, 0.03 ** 2


def ssim(x, ref):
    """Mean structural similarity: 11x11 Gaussian windows (sigma 1.5) over
    the valid region of each band, averaged over windows and bands; the
    windows run over all bands at once, each band's mean on its own plane."""
    x, ref = _pair(x, ref)
    h, w, _ = x.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigError(f"spatial extent {h}x{w} too small for an "
                          f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    a, b = np.moveaxis(x, -1, 0), np.moveaxis(ref, -1, 0)
    mu_a, mu_b = _windowed_mean(a), _windowed_mean(b)
    # Moment form: var = E[x^2] - mu^2, cov = E[xy] - mu_a mu_b, summed in place.
    num = 2 * mu_a * mu_b + SSIM_C1
    num *= 2 * (_windowed_mean(a * b) - mu_a * mu_b) + SSIM_C2
    var = _windowed_mean(a * a) - mu_a * mu_a
    var += _windowed_mean(b * b) - mu_b * mu_b
    num /= (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var + SSIM_C2)
    return float(np.mean([np.mean(np.ascontiguousarray(r)) for r in num]))


def sam(x, ref):
    """Mean spectral angle in radians over pixels where neither spectrum is
    zero (NaN is not zero, so NaN input gives NaN); errors out if none qualifies.

    Computed through the chord between unit spectra, 2 asin(|u - v| / 2),
    which equals acos of the clamped cosine but stays exact for colinear
    inputs instead of losing the angle to roundoff near cos = 1.
    """
    x, ref = _pair(x, ref)
    nx = np.sqrt(np.sum(x * x, axis=2))
    nr = np.sqrt(np.sum(ref * ref, axis=2))
    valid = (nx != 0) & (nr != 0)
    if not valid.any():
        raise MetricError("spectral angle undefined: every pixel has a zero spectrum")
    u = x[valid] / nx[valid][:, None]
    v = ref[valid] / nr[valid][:, None]
    chord = np.sqrt(np.sum((u - v) ** 2, axis=1))
    # The clip keeps asin's argument in range, the same guard a direct
    # arccos(cos) form needs for |cos| slightly above 1.
    angles = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return float(np.mean(angles))
