"""Linear forward model for single-pixel acquisition.

A scene x (vectorized row-major) is probed by m modulation patterns, the
rows of a matrix A, giving scalar detector readings b = A x.  Gaussian
noise can be added to the readings afterwards.  All randomness goes
through numpy's PCG64 generator so a (seed, distribution, shape) triple
reproduces streams bit-identically on any platform.

Image, PatternSet and MeasurementSet take over a C-contiguous float64 array
that owns its memory: once it passes their checks it is made read-only in
place, with no copy (pass ``a.copy()`` to keep writing to ``a``; views taken
before the hand-over stay writable).  Any other input is copied.

generate_patterns fills A with the same row-block draw that the CLI's
gen-patterns streams to a bundle one block at a time, so both give the
same rows bit for bit.
"""

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


_BINARY_BLOCK = 1 << 15  # entries per int64 draw of a binary pattern block


def _intake(a) -> np.ndarray:
    """``a`` itself if the intake rule takes it over, else a copy."""
    a = np.asarray(a)
    if a.flags.owndata and a.flags.c_contiguous and a.dtype == np.float64:
        return a
    return np.array(a, dtype=np.float64, order="C")


@dataclass
class Image:
    """2D grayscale scene; pixel values nominally in [0, 1].

    ``data`` is row-major (top-left origin), length ``width * height``.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidArgumentError("image dimensions must be positive")
        data = _intake(self.data)
        if data.size != self.width * self.height:
            raise InvalidArgumentError(f"data length {data.size} != {self.width}x{self.height}")
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
        if not self.noise_sigma >= 0:  # false for NaN
            raise InvalidArgumentError("noise_sigma must be >= 0")
        values.setflags(write=False)
        self.values = values.ravel()

    @property
    def m(self) -> int:
        return self.values.size


@dataclass
class NoiseModel:
    """Gaussian measurement noise, parameterized by a dimensionless level.

    The standard deviation is ``level * pixel_count``: the level is the
    ratio between sigma and the number of pixels.
    """

    level: float
    pixel_count: int
    sigma: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.level) and self.level >= 0):
            raise InvalidArgumentError(f"noise level must be finite and >= 0, got {self.level}")
        if self.pixel_count < 1:
            raise InvalidArgumentError("pixel_count must be >= 1")
        self.sigma = self.level * self.pixel_count


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise InvalidArgumentError(f"seed must be in [0, 2**64), got {seed}")


def _rng(seed: int) -> "np.random.Generator":
    # a string annotation: numpy.random is imported on the first draw,
    # not when this module loads
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _pattern_draw(m: int, width: int, height: int, distribution: str, seed: int):
    """Check generate_patterns' arguments; return (n, draw).

    ``draw(out)`` fills the C-contiguous float64 array ``out`` with the
    next ``len(out)`` rows of A.  Filling the m rows in turn, in blocks
    of any size, gives what one call on all of them gives, bit for bit,
    as long as each block but the last holds an even number of entries:
    a binary draw takes 32-bit halves of PCG64's outputs and drops an
    unused half at its end.
    """
    if m < 1:
        raise InvalidArgumentError("need at least one pattern")
    if width < 1 or height < 1:
        raise InvalidArgumentError("pattern dimensions must be positive")
    n = width * height
    if m * n * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"a {m} x {n} pattern matrix is too large to address")
    if distribution not in ("uniform01", "binary"):
        raise InvalidArgumentError(f"unknown distribution {distribution!r}")
    rng = _rng(seed)

    def draw(out):
        if distribution == "uniform01":
            rng.random(out=out)
            return
        # int64 draws of whole row blocks with an even entry count, cast into
        # out: the peak is out plus one block
        k = 2 * max(1, _BINARY_BLOCK // (2 * n))
        for i in range(0, len(out), k):
            out[i:i + k] = rng.integers(0, 2, size=out[i:i + k].shape)

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
    """Clean measurements b = A x for the given scene."""
    if patterns.n != scene.data.size:
        raise InvalidArgumentError(
            f"pattern pixel count {patterns.n} != scene pixel count {scene.data.size}"
        )
    return MeasurementSet(values=patterns.rows @ scene.data, noise_sigma=0.0)


def add_noise(meas: MeasurementSet, noise: NoiseModel, seed: int = 0) -> MeasurementSet:
    """Add i.i.d. Normal(0, sigma^2) noise to each reading.

    The perturbation is ``sigma * g`` with g a standard-normal draw from
    the seeded generator, so for a fixed seed the noise scales linearly
    with sigma (useful for paired noise-level comparisons).
    """
    _check_seed(seed)
    if noise.sigma == 0.0:
        return MeasurementSet(values=meas.values, noise_sigma=0.0, noise_seed=seed)
    g = _rng(seed).standard_normal(meas.m)
    return MeasurementSet(
        values=meas.values + noise.sigma * g,
        noise_sigma=noise.sigma,
        noise_seed=seed,
    )
