"""Benchmark sweeps: sampling ratio x image size x noise level x repeats.

Cells run one after another in grid order, each seeded by a stable hash
of the base seed and the cell coordinates, so reruns produce identical
results apart from wall time.  Pattern and noise seeds deliberately
exclude the solver name and the noise level: all solvers see the same
data in a cell, and raising the noise level only scales the same noise
draw (level 0 draws none), keeping noise-level comparisons paired.  A
PGM scene keeps its own size, so the image-size axis does not multiply
its cells.
"""

import hashlib
import math
import reprlib
import sys
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import Error, InvalidArgumentError
from .io import SweepRow, _check_path, read_image
from .metrics import normalized_rmse
from .model import (_DISTRIBUTIONS, NoiseModel, _check_int, _check_name, _check_real,
                    _check_scaled, _hold, add_noise, generate_patterns, synthesize)
from .scenes import BUILTIN_SCENES, builtin_scene
from .solvers import StopCriteria, get_solver

__all__ = [
    "SweepSpec",
    "SweepRow",
    "stable_seed",
    "run_cell",
    "run_sweep",
    "parse_sweep_config",
]


@dataclass(frozen=True)
class SweepSpec:
    """Declarative benchmark sweep, the Cartesian product of grids given as lists or arrays,
    held as tuples of checked values (str names, float ratios and levels, (int, int) sizes).
    Any spec that exists can run: a missing, empty, str or scalar grid, a bad size, base_seed
    or name, or a ratio or level a builtin scene cannot take at a size is refused here."""

    scenes: Optional[tuple] = None
    solvers: Optional[tuple] = None
    sampling_ratios: Optional[tuple] = None
    image_sizes: Optional[tuple] = None
    noise_levels: Optional[tuple] = None
    repeats: int = 20
    base_seed: int = 0
    distribution: str = "uniform01"

    def __post_init__(self):
        grid = {name: getattr(self, name) for name in
                ("scenes", "solvers", "sampling_ratios", "image_sizes", "noise_levels")}
        for name, axis in grid.items():
            if axis is not None and _length(axis) is None:
                raise InvalidArgumentError(f"{name} must be a list, got {axis!r}")
        if missing := [name for name, axis in grid.items() if axis is None or len(axis) == 0]:
            raise InvalidArgumentError(f"a sweep must state {', '.join(missing)}")
        for solver in self.solvers:
            get_solver(solver)  # UnknownSolverError lists the valid names
        scenes = tuple(_check_path(s, f"scene {s!r}") if _is_pgm(s)
                       else _check_name(s, BUILTIN_SCENES, "scene") for s in self.scenes)
        _check_name(self.distribution, _DISTRIBUTIONS, "distribution")
        repeats = _check_int(self.repeats, "repeats", 1)
        base_seed = _check_int(self.base_seed, "base_seed")
        cells = math.prod(map(len, grid.values())) * repeats
        if cells > sys.maxsize:  # more rows than a list can hold
            raise InvalidArgumentError(f"repeats {repeats} gives {cells} cells, "
                                       "more than a sweep can hold")
        ratios = tuple(_check_real(r, "a sampling ratio") for r in self.sampling_ratios)
        if not all(r > 0 for r in ratios):
            raise InvalidArgumentError("sampling ratios must be finite and positive")
        levels = tuple(_check_real(level, "a noise level") for level in self.noise_levels)
        if not all(_length(size) == 2 for size in self.image_sizes):
            raise InvalidArgumentError("an image size must be a (width, height) pair")
        image_sizes = tuple(tuple(_check_int(side, "an image size", 2) for side in size)
                            for size in self.image_sizes)
        sizes = () if all(map(_is_pgm, scenes)) else image_sizes
        for (w, h), ratio, level in product(sizes, ratios, levels):
            _pattern_count(ratio, w * h)
            NoiseModel(level=level, pixel_count=w * h)
        _hold(self, scenes=scenes, solvers=tuple(self.solvers), sampling_ratios=ratios,
              image_sizes=image_sizes, noise_levels=levels, repeats=repeats, base_seed=base_seed)


def _length(items) -> Optional[int]:
    """len(items), or None for a str, bytes or scalar, which holds no entries."""
    try:
        return None if isinstance(items, (str, bytes)) else len(items)
    except TypeError:
        return None


def _is_pgm(scene) -> bool:  # a scene file, read as its cells run, not a builtin scene
    return isinstance(scene, str) and scene.lower().endswith(".pgm")


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary hashable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


def _pattern_count(ratio: float, n: int) -> int:
    """The m of a cell of n pixels sampled at ratio."""
    m = int(round(_check_scaled(ratio, n, "ratio", "the measurement count")))
    if m < 1:
        raise InvalidArgumentError(f"ratio {ratio} gives zero measurements")
    return m


def run_cell(
    scene: str,
    solver: str,
    ratio: float,
    width: int,
    height: int,
    noise_level: float,
    repeat: int,
    base_seed: int = 0,
    stop: Optional[StopCriteria] = None,
    distribution: str = "uniform01",
) -> SweepRow:
    """Synthesize, reconstruct and score one benchmark cell.

    The row's time is the solver's own wall_time, which leaves out pattern generation and
    measurement synthesis.  The cell is seeded and recorded from its checked repeat (an int >= 0),
    ratio and noise level (floats), so ratios 1, 1.0 and True are one cell; its width and height
    pass SweepSpec's image-size rule (ints >= 2) even when a PGM scene brings its own size.  A
    scene file that cannot be read, any array of the cell, its scene's included, that cannot be
    allocated (a MemoryError, whose message names the allocation) or a solve that raises a library
    Error gives a "failed:<Type>: <message>" row ("failed:<Type>" for an empty message), with seed
    0 if it failed before its patterns were seeded; any other exception propagates.
    """
    def failed(exc):
        reason = ": ".join(filter(None, (type(exc).__name__, str(exc)))).replace("\n", " ")
        return SweepRow(scene, solver, ratio, f"{width}x{height}", noise_level, repeat,
                        None, 0, 0.0, seed, f"failed:{reason}")

    base_seed, repeat = _check_int(base_seed, "base_seed"), _check_int(repeat, "repeat", 0)
    noise_level, ratio = _check_real(noise_level, "noise level"), _check_real(ratio, "ratio")
    width, height = (_check_int(side, "an image size", 2) for side in (width, height))
    seed = 0  # no patterns exist for this cell yet
    try:  # failed cells are recorded, never fatal
        if _is_pgm(scene):  # a PGM keeps its own size
            try:
                truth = read_image(scene)
            except (OSError, Error) as exc:
                return failed(exc)
        else:
            truth = builtin_scene(scene, width, height)
        width, height = truth.width, truth.height
        n = width * height
        noise = NoiseModel(level=noise_level, pixel_count=n)
        m = _pattern_count(ratio, n)
        size = f"{width}x{height}"
        seed = stable_seed(base_seed, "patterns", scene, ratio, size, repeat)
        noise_seed = stable_seed(base_seed, "noise", scene, ratio, size, repeat)
        patterns = generate_patterns(m, width, height, distribution, seed=seed)
        meas = add_noise(synthesize(patterns, truth), noise, seed=noise_seed)
        try:
            report = get_solver(solver)(patterns, meas, width, height, stop=stop)
            rmse = normalized_rmse(truth, report.image)
        except Error as exc:
            return failed(exc)
        return SweepRow(scene, solver, ratio, size, noise_level, repeat,
                        rmse, report.iterations, report.wall_time, seed, "ok")
    except MemoryError as exc:
        return failed(exc)


def run_sweep(spec: SweepSpec) -> list:
    """All cells x repeats, run one after another in grid order.

    A PGM scene keeps its own size, so it runs once per (solver, ratio,
    level, repeat), at the first image size's place in the grid, and a ratio
    that gives it no measurement is refused as its cells run.
    """
    return [
        run_cell(scene, solver, ratio, w, h, level, rep, base_seed=spec.base_seed,
                 distribution=spec.distribution)
        for scene in spec.scenes
        for solver, ratio, (w, h), level in product(
            spec.solvers, spec.sampling_ratios,
            spec.image_sizes[:1] if _is_pgm(scene) else spec.image_sizes,
            spec.noise_levels)
        for rep in range(spec.repeats)  # product() would hold a tuple of every repeat
    ]


def _parse_size(text):
    w, x, h = text.partition("x")
    return int(w), int(h if x else w)


def _each(convert):
    return lambda text: [convert(s.strip()) for s in text.split(",") if s.strip()]


_CONFIG_KEYS = {
    "scenes": _each(str),
    "solvers": _each(str),
    "sampling_ratios": _each(float),
    "image_sizes": _each(_parse_size),
    "noise_levels": _each(float),
    "repeats": int,
    "base_seed": int,
    "distribution": str,
}


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a line-based key=value config into a SweepSpec.

    Keys mirror the SweepSpec fields, so the five grid keys must be set and
    non-empty, and SweepSpec refuses here any grid that cannot run.  All five
    are read by one list rule, _each: split on commas, strip, drop empty
    entries ("0.2," is one ratio), sizes "WxH" (or one number for square).
    '#' starts a comment.  A key set twice is refused, naming both lines.
    """
    kwargs, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidArgumentError(f"config line {lineno}: unknown key {reprlib.repr(key)}")
        if key in lines:
            raise InvalidArgumentError(
                f"config line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise InvalidArgumentError(
                f"config line {lineno}: bad {key} value {reprlib.repr(value)}") from None
    return SweepSpec(**kwargs)
