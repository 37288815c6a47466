"""Linear forward model for single-pixel acquisition.

A scene x (vectorized row-major) is probed by m modulation patterns, the
rows of a matrix A, giving scalar detector readings b = A x.  Gaussian
noise can be added to the readings afterwards.  All randomness goes
through numpy's PCG64 generator so a (seed, distribution, shape) triple
reproduces streams bit-identically on any platform.

Every record is a frozen dataclass that checks its fields and writes them once,
through _hold: a new record or dataclasses.replace, which checks again, is the
only change.  Image, PatternSet and MeasurementSet take over a C-contiguous
float64 array that owns its memory: once it passes all their checks it is made
read-only in place, with no copy (pass ``a.copy()`` to keep writing to ``a``;
views taken before the hand-over stay writable).  Any other input is copied;
data that float64 cannot hold (complex, text, objects) is refused.

Every count, size and seed passes _check_int (a seed _check_seed too), every
sigma or level _check_real, every product of a level, ratio or factor with a
pixel count _check_scaled, every matrix's shape _check_addressable and every
name _check_name: the one argument rule, which other modules call too.

One rule, _row_blocks, cuts A into row blocks for generate_patterns' draw,
synthesize and the CLI's block reader and writer, so the library and the
CLI give the same A and b, bit for bit, at any BLAS thread count.
"""

import math
import operator
import reprlib
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


def _hold(record, **fields) -> None:
    """The one write of a frozen record's checked fields, at the end of its __post_init__."""
    vars(record).update(fields)


@dataclass(frozen=True)
class Image:
    """2D grayscale scene; pixel values finite, nominally in [0, 1].

    ``data`` is row-major (top-left origin), flat or (height, width); held flat.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        width = _check_int(self.width, "image width", 1)
        height = _check_int(self.height, "image height", 1)
        data = _intake(self.data)
        if data.size != width * height:
            raise InvalidArgumentError(f"data length {data.size} != {width}x{height}")
        if data.ndim != 1 and data.shape != (height, width):
            raise InvalidArgumentError(f"data shape {data.shape} != ({height}, {width})")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("image values must be finite")
        data.setflags(write=False)
        _hold(self, width=width, height=height, data=data.ravel())

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Image":
        if np.ndim(a) != 2:
            raise InvalidArgumentError("expected a 2D array")
        return cls(width=np.shape(a)[1], height=np.shape(a)[0], data=a)


@dataclass(frozen=True)
class PatternSet:
    """Modulation matrix A: m patterns of n pixels each, entries >= 0.

    ``rows`` is the whole state: ``m`` and ``n`` are derived from it, so
    they cannot disagree with it.  Validation is two reductions over
    ``rows`` with no m x n temporary: a matrix is accepted iff it has no
    entries or ``rows.min() >= 0`` (false for NaN and -inf; -0.0 passes)
    and ``rows.max()`` is finite (false for +inf).  ``_refused(a)`` marks
    the entries they refuse one by one, for a reader to locate the first.
    """

    rows: np.ndarray
    seed: int = 0
    _refused = staticmethod(lambda a: ~(a >= 0) | (a == np.inf))

    def __post_init__(self):
        seed = _check_seed(self.seed)
        rows = _intake(self.rows)
        if rows.ndim != 2:
            raise InvalidArgumentError("pattern matrix must be 2D")
        if rows.size and not (rows.min() >= 0 and np.isfinite(rows.max())):
            raise InvalidArgumentError("pattern entries must be finite and >= 0")
        rows.setflags(write=False)
        _hold(self, rows=rows, seed=seed)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class MeasurementSet:
    """Detector readings b, a vector of finite values, with noise provenance."""

    values: np.ndarray
    noise_sigma: float = 0.0
    noise_seed: int = 0
    _refused = staticmethod(lambda a: ~np.isfinite(a))  # what the check refuses, entry by entry

    def __post_init__(self):
        values = _intake(self.values)
        if values.ndim != 1:
            raise InvalidArgumentError(f"measurements must be a vector, got shape {values.shape}")
        if self._refused(values).any():
            raise InvalidArgumentError("measurements must be finite")
        sigma = _check_real(self.noise_sigma, "noise_sigma")
        seed = _check_seed(self.noise_seed)
        values.setflags(write=False)
        _hold(self, values=values, noise_sigma=sigma, noise_seed=seed)

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
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
        level = _check_real(self.level, "noise level")
        pixels = _check_int(self.pixel_count, "pixel_count", 1)
        _hold(self, level=level, pixel_count=pixels,
              sigma=_check_scaled(level, pixels, "noise level", "sigma"))


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
    finite real >= 0.  Its product with a pixel count is _check_scaled's."""
    try:
        ok = math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


def _check_scaled(value, pixels: int, what: str, result: str) -> float:
    """``_check_real(value, what) * pixels``, the one product of a level, ratio
    or factor with a pixel count: refused if not finite, or pixels is past float range."""
    try:
        if math.isfinite(scaled := _check_real(value, what) * pixels):
            return scaled
    except OverflowError:  # an int too large for a float
        pass
    raise InvalidArgumentError(f"{what} {value} x {pixels} pixels overflows {result}")


def _check_addressable(rows: int, cols: int, what: str) -> None:
    """Refuse a rows x cols float64 array whose bytes no index can reach."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(f"a {rows} x {cols} {what} is too large to address")


def _check_seed(seed: int) -> int:
    if not 0 <= (seed := _check_int(seed, "seed")) < 2**64:
        raise InvalidArgumentError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_name(name, names, what: str, error=InvalidArgumentError) -> str:
    """``name`` if it is a str in ``names``, the one check of a solver, scene or
    distribution name; else error, listing ``names`` in table order."""
    if not isinstance(name, str) or name not in names:
        raise error(f"unknown {what} {reprlib.repr(name)}; valid names: {', '.join(names)}")
    return name


def _pattern_draw(m: int, width: int, height: int, distribution: str, seed: int):
    """Check generate_patterns' arguments; return (n, draw).

    ``draw(out)`` fills the C-contiguous float64 array ``out`` with the
    next ``len(out)`` rows of A.  Blocks drawn in turn equal one whole
    draw bit for bit if each but the last holds an even number of entries:
    a binary draw drops an unused 32-bit half of PCG64's output at its end.
    """
    m = _check_int(m, "pattern count m", 1)
    n = _check_int(width, "pattern width", 1) * _check_int(height, "pattern height", 1)
    _check_addressable(m, n, "pattern matrix")
    _check_name(distribution, _DISTRIBUTIONS, "distribution")
    seed = _check_seed(seed)  # before np.random, which loads on its first use
    rng = np.random.Generator(np.random.PCG64(seed))

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
    seed = _check_seed(seed)
    if noise.sigma == 0.0:
        return meas
    g = np.random.Generator(np.random.PCG64(seed)).standard_normal(meas.m)
    return MeasurementSet(
        values=meas.values + noise.sigma * g,
        noise_sigma=noise.sigma,
        noise_seed=seed,
    )
