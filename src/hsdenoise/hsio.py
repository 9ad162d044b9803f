"""Cube container format, patch extraction, normalization, synthetic data.

Only the rescale augmentation (`train --augment rescale|full`) loads scipy.

The on-disk container ("HSI1") is deliberately minimal and fully pinned:

  magic    4 bytes   b"HSI1"
  version  u16 LE    1
  H, W, B  u32 LE    positive extents
  values   H*W*B little-endian float32, row-major with the band axis
           fastest (C order of an (H, W, B) array)

so a 2x2x1 cube occupies 4 + 2 + 12 + 16 = 34 bytes, and read(write(c))
is bit-exact on every host for a finite cube.  External datasets are not
parsed here; the README's "File formats" section has the conversion recipe.

BlobReader is the one bounds-checked reader behind the HSI1, Q3DW and Q3DA
parsers: all three start with a 4-byte magic and a u16 version, and every
read names the byte offset where a short or malformed file went wrong. It
refuses a NaN or Inf in any payload (samples, weights, moments), which would
spread to a whole output, metric or loss, naming the file, field, count and
first index. It hands out views of the file's bytes, so reading a cube holds
the file and the returned array, and writing one holds nothing beside the
cube.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensors import ConfigError, ShapeError

MAGIC = b"HSI1"
VERSION = 1

AUGMENTS = ("none", "rotate", "rescale", "full")
RESCALE_FACTORS = (1.0, 0.75, 0.5)


class HsiError(ValueError):
    """Malformed cube container."""


class BlobReader:
    """Cursor over a whole little-endian file; every read is bounds-checked
    and raises `error` (the format's own error class) naming the offset."""

    def __init__(self, blob, error):
        self.blob = memoryview(blob)
        self.error = error
        self.offset = 0

    @classmethod
    def open(cls, path, error, magic, *versions):
        """Read `path`, then check its magic and that its u16 version is one
        of `versions`; the reader keeps `path`, and that value as `version`."""
        with open(path, "rb") as fh:
            reader = cls(fh.read(), error)
        reader.path = path
        got = reader.take(4, "magic")
        if got != magic:
            raise error(f"bad magic {bytes(got)!r} at byte 0, expected {magic!r}")
        (reader.version,) = reader.unpack("<H", "version")
        if reader.version not in versions:
            raise error(f"unsupported version {reader.version} at byte 4")
        return reader

    def take(self, count, what):
        start = self.offset
        have = len(self.blob) - start
        if count > have:
            raise self.error(
                f"truncated {what} at byte offset {start}: "
                f"expected {count} bytes, got {have}")
        self.offset += count
        return self.blob[start:start + count]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what):
        """A fresh array of `shape` from the next bytes, refused if not finite."""
        dtype = np.dtype(dtype)
        # Python ints: header extents from a corrupt file must not wrap.
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        a = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        # min and max are NaN or infinite exactly when some element is: no mask.
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            self.refuse(what, ~np.isfinite(a), "non-finite values (NaN or Inf)")
        return a

    def refuse(self, what, bad, values):
        """Raise the format's error naming the count and first index of `bad`."""
        first = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise self.error(f"{self.path}: {what}: {np.count_nonzero(bad)} {values}, "
                         f"the first at index {first}")

    def finish(self):
        """Reject anything after the last field."""
        extra = len(self.blob) - self.offset
        if extra:
            raise self.error(f"{extra} trailing bytes at byte offset {self.offset}")


def write_hsi(path, cube):
    """Write an (H, W, B) cube to the HSI1 container."""
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise ShapeError(f"cube must be (H, W, B), got shape {cube.shape}")
    if min(cube.shape) < 1:
        raise ShapeError(f"cube extents must be positive, got {cube.shape}")
    h, w, b = cube.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HIII", VERSION, h, w, b))
        fh.write(np.ascontiguousarray(cube, dtype="<f4").data)


def read_hsi(path):
    """Read an HSI1 container back into a float32 (H, W, B) array."""
    reader = BlobReader.open(path, HsiError, MAGIC, VERSION)
    h, w, b = reader.unpack("<III", "extents")
    if h < 1 or w < 1 or b < 1:
        raise HsiError(f"non-positive extent in header at byte 6: {(h, w, b)}")
    cube = reader.array("<f4", (h, w, b), "samples")
    reader.finish()
    return cube


@dataclass(slots=True, eq=False, repr=False)
class Patch:
    """One extracted patch plus enough provenance to re-extract it."""

    data: np.ndarray
    scale: float
    row: int
    col: int
    rotation: int


def _rescaled(cube, scale):
    if scale == 1.0:
        return cube
    from scipy import ndimage  # cubic spline over the spatial axes only
    # mirror: a line whose coordinate rounds just past n - 1 reads the edge, not cval 0
    return ndimage.zoom(cube, (scale, scale, 1.0), order=3, mode="mirror")


def extract_patches(cube, spatial, stride, augment="none"):
    """Grid crops of (spatial, spatial, B) with optional augmentation:
    "rotate" (all four right-angle turns), "rescale" (the RESCALE_FACTORS
    pyramid), both ("full") or neither ("none").

    Enumeration order is deterministic: scales (1.0 first) outermost, grid
    positions row-major, rotations innermost.  Scales that shrink the cube
    below the patch size are skipped.
    """
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise ShapeError(f"cube must be (H, W, B), got shape {cube.shape}")
    if spatial < 1:
        raise ConfigError(f"patch size must be positive, got {spatial}")
    if cube.shape[0] < spatial or cube.shape[1] < spatial:
        raise ShapeError(
            f"cube spatial extents {cube.shape[:2]} smaller than patch {spatial}")
    if stride < 1:
        raise ConfigError(f"stride must be positive, got {stride}")
    if augment not in AUGMENTS:
        raise ConfigError(f"unknown augmentation {augment!r}; expected one of {AUGMENTS}")
    scales = RESCALE_FACTORS if augment in ("rescale", "full") else (1.0,)
    rotations = (0, 1, 2, 3) if augment in ("rotate", "full") else (0,)
    patches = []
    for scale in scales:
        scaled = _rescaled(cube, scale)
        if scaled.shape[0] < spatial or scaled.shape[1] < spatial:
            continue
        for row in range(0, scaled.shape[0] - spatial + 1, stride):
            for col in range(0, scaled.shape[1] - spatial + 1, stride):
                crop = scaled[row:row + spatial, col:col + spatial]
                for rot in rotations:
                    data = np.ascontiguousarray(np.rot90(crop, rot))
                    patches.append(Patch(data, scale, row, col, rot))
    return patches


@dataclass(slots=True, eq=False, repr=False)
class NormalizationRecord:
    """Affine rescale parameters, enough to undo a normalize()."""

    lo: float
    hi: float


def normalize(cube):
    """Min-max rescale of the whole cube into [0, 1].

    One affine map for the full cube, not per band: per-band scaling would
    change spectral angles and so distort any angle-based comparison.
    """
    cube = np.asarray(cube)
    lo = float(cube.min())
    hi = float(cube.max())
    if hi <= lo:
        raise ConfigError(f"constant cube (all values {lo}) cannot be normalized")
    return (cube - lo) / (hi - lo), NormalizationRecord(lo, hi)


def denormalize(cube, record):
    """Invert a normalize() using its record."""
    return np.asarray(cube) * (record.hi - record.lo) + record.lo


def _gaussian_blur(image, sigma):
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for _ in range(2):  # axis 0, then axis 1 by way of the transpose
        p, n = np.pad(image, [(r, r), (0, 0)], "symmetric"), image.shape[0]
        out = p[r:r + n] * w[r]
        for k in range(r):  # outermost pair first
            out += (p[k:k + n] + p[2 * r - k:2 * r - k + n]) * w[k]
        image = out.T
    return image


def gen_synthetic(height, width, bands, seed):
    """Seeded synthetic cube in [0, 1]: a sum of four separable terms, each a
    smooth random spatial texture times a smooth spectral bump (more terms
    make a cube easier to denoise, not harder).
    Its Gaussian (radius int(4 sigma + 0.5), symmetric edges, centre tap then
    pairs outermost first) is byte-identical to scipy's gaussian_filter."""
    if min(height, width, bands) < 1:
        raise ConfigError(f"extents must be positive, got {(height, width, bands)}")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, bands)
    cube = np.zeros((height, width, bands))
    for _ in range(4):
        sigma = rng.uniform(1.5, 5.0)
        texture = _gaussian_blur(rng.normal(size=(height, width)), sigma)
        span = texture.max() - texture.min()
        if span > 0:
            texture = (texture - texture.min()) / span
        center = rng.uniform(0.0, 1.0)
        bandwidth = rng.uniform(0.15, 0.5)
        spectrum = np.exp(-0.5 * ((grid - center) / bandwidth) ** 2)
        cube += rng.uniform(0.3, 1.0) * texture[:, :, np.newaxis] * spectrum
    lo, hi = cube.min(), cube.max()
    if hi > lo:
        cube = (cube - lo) / (hi - lo)
    return cube.astype(np.float32)
