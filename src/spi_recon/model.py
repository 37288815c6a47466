"""Linear forward model for single-pixel acquisition.

A scene x (vectorized row-major) is probed by m modulation patterns, the
rows of a matrix A, giving scalar detector readings b = A x.  Gaussian
noise can be added to the readings afterwards.  All randomness goes
through numpy's PCG64 generator so a (seed, distribution, shape) triple
reproduces streams bit-identically on any platform.

Image, PatternSet and MeasurementSet take over a C-contiguous float64 array
that owns its memory: once it passes their checks it is made read-only in
place, with no copy (pass ``a.copy()`` to keep writing to ``a``; views taken
before the hand-over stay writable).  Any other input is copied; data
that float64 cannot hold (complex, text, objects) is refused.

Every count, size and seed argument passes _check_int and every sigma or
level passes _check_real, the library's one argument rule; the other
modules call the two as well.

One rule, _row_blocks, cuts A into row blocks for generate_patterns' draw,
synthesize and the CLI's block reader and writer, so the library and the
CLI give the same A and b, bit for bit, at any BLAS thread count.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Image",
    "PatternSet",
    "MeasurementSet",
    "NoiseModel",
    "generate_patterns",
    "synthesize",
    "add_noise",
]


_BLOCK_BYTES = 1 << 18  # of A, in each row block
_DISTRIBUTIONS = ("uniform01", "binary")  # of A's entries


def _row_blocks(m: int, n: int):
    """Yield slices that cut A's m rows of n entries into blocks of about
    _BLOCK_BYTES, all but the last a multiple of 4 rows and at least 4, so
    that a binary draw goes on with one stream and a block's gemv, too small
    to thread, groups rows 4 at a time as a one-thread gemv of all of A
    does.  A lone last row joins the block before it: numpy takes a one-row
    product as a dot product, which rounds differently."""
    step = 4 * max(1, _BLOCK_BYTES // (32 * n))
    for start in range(0, max(m - 1, 1), step):  # no block starts at a last row m - 1 > 0
        yield slice(start, start + step if m - start > step + 1 else m)


def _intake(a) -> np.ndarray:
    """``a`` itself if the intake rule takes it over, else a float64 copy.
    Data that float64 cannot hold, complex, text or objects, is refused."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged nesting
        raise InvalidArgumentError(f"data is not an array: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"data must be real numbers, got dtype {a.dtype}")
    if a.flags.owndata and a.flags.c_contiguous and a.dtype == np.float64:
        return a
    return np.array(a, dtype=np.float64, order="C")


@dataclass
class Image:
    """2D grayscale scene; pixel values finite, nominally in [0, 1].

    ``data`` is row-major (top-left origin), flat or (height, width); held flat.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        self.width = _check_int(self.width, "image width", 1)
        self.height = _check_int(self.height, "image height", 1)
        data = _intake(self.data)
        if data.size != self.width * self.height:
            raise InvalidArgumentError(f"data length {data.size} != {self.width}x{self.height}")
        if data.ndim != 1 and data.shape != (self.height, self.width):
            raise InvalidArgumentError(f"data shape {data.shape} != ({self.height}, {self.width})")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("image values must be finite")
        data.setflags(write=False)
        self.data = data.ravel()

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Image":
        if np.ndim(a) != 2:
            raise InvalidArgumentError("expected a 2D array")
        return cls(width=np.shape(a)[1], height=np.shape(a)[0], data=a)


@dataclass
class PatternSet:
    """Modulation matrix A: m patterns of n pixels each, entries >= 0.

    ``rows`` is the whole state: ``m``, ``n`` and ``intensities`` (the
    total light of each pattern, its row sum) are derived from it, so
    they cannot disagree with it.  Validation is two reductions over
    ``rows`` with no m x n temporary: a non-empty matrix is accepted iff
    ``rows.min() >= 0`` (false for NaN and -inf; -0.0 passes) and
    ``rows.max()`` is finite (false for +inf).  A matrix with no entries
    is accepted as it is.
    """

    rows: np.ndarray
    seed: int = 0

    def __post_init__(self):
        rows = _intake(self.rows)
        if rows.ndim != 2:
            raise InvalidArgumentError("pattern matrix must be 2D")
        if rows.size and not (rows.min() >= 0 and np.isfinite(rows.max())):
            raise InvalidArgumentError("pattern entries must be finite and >= 0")
        rows.setflags(write=False)
        self.rows = rows

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def intensities(self) -> np.ndarray:
        return self.rows.sum(axis=1)


@dataclass
class MeasurementSet:
    """Detector readings b, with noise provenance."""

    values: np.ndarray
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        values = _intake(self.values)
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("measurements must be finite")
        self.noise_sigma = _check_real(self.noise_sigma, "noise_sigma")
        values.setflags(write=False)
        self.values = values.ravel()

    @property
    def m(self) -> int:
        return self.values.size


@dataclass
class NoiseModel:
    """Gaussian measurement noise, parameterized by a dimensionless level.

    The standard deviation is ``level * pixel_count``: the level is the
    ratio between sigma and the number of pixels.  A level whose sigma
    overflows is refused.
    """

    level: float
    pixel_count: int
    sigma: float = field(init=False)

    def __post_init__(self):
        self.level = _check_real(self.level, "noise level")
        self.pixel_count = _check_int(self.pixel_count, "pixel_count", 1)
        self.sigma = self.level * self.pixel_count
        if not np.isfinite(self.sigma):
            raise InvalidArgumentError(
                f"noise level {self.level} x {self.pixel_count} pixels overflows sigma"
            )


def _check_int(value, what: str, least=None) -> int:
    """``operator.index(value)``, the one check of a count, size or seed: 1.5,
    nan, inf, a string or None is refused, and so is a value below least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, got {value}")
    return value


def _check_real(value, what: str) -> float:
    """``float(value)``, the one check of a sigma, level, threshold or factor: a
    finite real >= 0.  A float, so that its product with a count overflows to inf."""
    try:
        ok = math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


def _check_seed(seed: int) -> None:
    if not 0 <= _check_int(seed, "seed") < 2**64:
        raise InvalidArgumentError(f"seed must be in [0, 2**64), got {seed}")


def _rng(seed: int) -> "np.random.Generator":
    # a string annotation: numpy.random is imported on the first draw,
    # not when this module loads
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _pattern_draw(m: int, width: int, height: int, distribution: str, seed: int):
    """Check generate_patterns' arguments; return (n, draw).

    ``draw(out)`` fills the C-contiguous float64 array ``out`` with the
    next ``len(out)`` rows of A.  Blocks drawn in turn equal one whole
    draw bit for bit if each but the last holds an even number of entries:
    a binary draw drops an unused 32-bit half of PCG64's output at its end.
    """
    m = _check_int(m, "pattern count m", 1)
    n = _check_int(width, "pattern width", 1) * _check_int(height, "pattern height", 1)
    if m * n * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"a {m} x {n} pattern matrix is too large to address")
    if distribution not in _DISTRIBUTIONS:
        raise InvalidArgumentError(f"unknown distribution {distribution!r}")
    rng = _rng(seed)

    def draw(out):
        if distribution == "uniform01":
            rng.random(out=out)
            return
        # an int64 draw per row block, cast into out: the peak is out plus one block
        for block in _row_blocks(len(out), n):
            out[block] = rng.integers(0, 2, size=out[block].shape)

    return n, draw


def generate_patterns(
    m: int, width: int, height: int, distribution: str = "uniform01", seed: int = 0
) -> PatternSet:
    """Draw m random patterns of width*height pixels, i.i.d. per entry.

    distribution: "uniform01" (uniform on [0,1)) or "binary"
    (Bernoulli(0.5) over {0,1}).  Same arguments -> bit-identical output
    (PCG64 stream).
    """
    n, draw = _pattern_draw(m, width, height, distribution, seed)
    rows = np.empty((m, n))
    draw(rows)
    return PatternSet(rows, seed=seed)


def synthesize(patterns: PatternSet, scene: Image) -> MeasurementSet:
    """Clean measurements b = A x, one row block of A at a time."""
    if patterns.n != scene.data.size:
        raise InvalidArgumentError(
            f"pattern pixel count {patterns.n} != scene pixel count {scene.data.size}"
        )
    b = [patterns.rows[block] @ scene.data for block in _row_blocks(*patterns.rows.shape)]
    return MeasurementSet(values=np.concatenate(b), noise_sigma=0.0)


def add_noise(meas: MeasurementSet, noise: NoiseModel, seed: int = 0) -> MeasurementSet:
    """Add i.i.d. Normal(0, sigma^2) noise to each reading.

    The perturbation is ``sigma * g`` with g a standard-normal draw from
    the seeded generator, so for a fixed seed the noise scales linearly
    with sigma (useful for paired noise-level comparisons).  At sigma 0
    the seed is checked and ``meas`` itself is returned.
    """
    _check_seed(seed)
    if noise.sigma == 0.0:
        return meas
    g = _rng(seed).standard_normal(meas.m)
    return MeasurementSet(
        values=meas.values + noise.sigma * g,
        noise_sigma=noise.sigma,
        noise_seed=seed,
    )
