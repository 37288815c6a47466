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
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .errors import Error, InvalidArgumentError
from .io import SweepRow, read_image
from .metrics import normalized_rmse
from .model import (_DISTRIBUTIONS, NoiseModel, _check_int, _check_real, _check_scaled,
                    add_noise, generate_patterns, synthesize)
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


@dataclass
class SweepSpec:
    """Declarative benchmark sweep (Cartesian product of all grids); an
    unknown solver, builtin (non-.pgm) scene or distribution name is
    refused here."""

    scenes: list
    solvers: list
    sampling_ratios: list = field(default_factory=lambda: [0.2, 0.5, 1.0, 2.0, 3.0, 5.0])
    image_sizes: list = field(
        default_factory=lambda: [(32, 32), (64, 64), (96, 96), (128, 128), (160, 160)]
    )
    noise_levels: list = field(default_factory=lambda: [0.0, 1e-4, 5e-4, 1e-3, 3e-3])
    repeats: int = 20
    base_seed: int = 0
    distribution: str = "uniform01"

    def __post_init__(self):
        if not self.scenes or not self.solvers:
            raise InvalidArgumentError("spec needs at least one scene and one solver")
        for solver in self.solvers:
            get_solver(solver)  # UnknownSolverError lists the valid names
        for scene in self.scenes:
            if not scene.endswith(".pgm") and scene not in BUILTIN_SCENES:
                raise InvalidArgumentError(
                    f"unknown scene {scene!r}; builtins: {sorted(BUILTIN_SCENES)}"
                )
        if self.distribution not in _DISTRIBUTIONS:
            raise InvalidArgumentError(
                f"unknown distribution {self.distribution!r}; valid: {', '.join(_DISTRIBUTIONS)}"
            )
        self.repeats = _check_int(self.repeats, "repeats", 1)
        cells = math.prod(map(len, (self.scenes, self.solvers, self.sampling_ratios,
                                    self.image_sizes, self.noise_levels))) * self.repeats
        if cells > sys.maxsize:  # more rows than a list can hold
            raise InvalidArgumentError(
                f"repeats {self.repeats} gives {cells} cells, more than a sweep can hold"
            )
        if not all(_check_real(r, "a sampling ratio") > 0 for r in self.sampling_ratios):
            raise InvalidArgumentError("sampling ratios must be finite and positive")
        for level in self.noise_levels:
            _check_real(level, "a noise level")
        if not all(isinstance(s, (tuple, list)) and len(s) == 2 for s in self.image_sizes):
            raise InvalidArgumentError("an image size must be a (width, height) pair")
        for side in (s for size in self.image_sizes for s in size):
            _check_int(side, "an image size", 2)


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

    The row's time is the solver's own wall_time, which leaves out pattern
    generation and measurement synthesis.  A scene file that cannot be
    read, a cell whose arrays cannot be allocated (a MemoryError, whose
    message names the allocation) or a solve that raises a library Error
    gives a "failed:<Type>: <message>" row ("failed:<Type>" for an empty
    message); any other exception propagates.
    """
    def failed(exc, seed):
        reason = ": ".join(filter(None, (type(exc).__name__, str(exc)))).replace("\n", " ")
        return SweepRow(scene, solver, ratio, f"{width}x{height}", noise_level, repeat,
                        None, 0, 0.0, seed, f"failed:{reason}")

    if scene.endswith(".pgm"):  # a PGM keeps its own size
        try:
            truth = read_image(scene)
        except (OSError, Error) as exc:
            return failed(exc, 0)  # seed 0: no patterns exist for this cell
    else:
        truth = builtin_scene(scene, width, height)
    width, height = truth.width, truth.height
    n = width * height
    noise = NoiseModel(level=noise_level, pixel_count=n)
    m = _pattern_count(ratio, n)
    size = f"{width}x{height}"
    pattern_seed = stable_seed(base_seed, "patterns", scene, ratio, size, repeat)
    noise_seed = stable_seed(base_seed, "noise", scene, ratio, size, repeat)

    try:
        patterns = generate_patterns(m, width, height, distribution, seed=pattern_seed)
        meas = add_noise(synthesize(patterns, truth), noise, seed=noise_seed)
    except MemoryError as exc:
        return failed(exc, pattern_seed)
    try:
        report = get_solver(solver)(patterns, meas, width, height, stop=stop)
        rmse = normalized_rmse(truth, report.image)
        return SweepRow(scene, solver, ratio, size, noise_level, repeat,
                        rmse, report.iterations, report.wall_time, pattern_seed, "ok")
    except (Error, MemoryError) as exc:
        return failed(exc, pattern_seed)  # failed cells are recorded, never fatal


def run_sweep(spec: SweepSpec) -> list:
    """All cells x repeats, run one after another in grid order.

    A PGM scene keeps its own size, so it runs once per (solver, ratio,
    level, repeat), at the first image size's place in the grid, and its
    cells are checked as they run.  A ratio that gives a builtin scene no
    measurement count, or a noise level whose sigma overflows at a
    builtin size, is refused before any cell runs.
    """
    if not all(scene.endswith(".pgm") for scene in spec.scenes):
        for (w, h), ratio, level in product(spec.image_sizes, spec.sampling_ratios,
                                            spec.noise_levels):
            _pattern_count(ratio, w * h)
            NoiseModel(level=level, pixel_count=w * h)
    return [
        run_cell(scene, solver, ratio, w, h, level, rep, base_seed=spec.base_seed,
                 distribution=spec.distribution)
        for scene in spec.scenes
        for solver, ratio, (w, h), level in product(
            spec.solvers, spec.sampling_ratios,
            spec.image_sizes[:1] if scene.endswith(".pgm") else spec.image_sizes,
            spec.noise_levels)
        for rep in range(spec.repeats)  # product() would hold a tuple of every repeat
    ]


def _parse_size(text):
    w, x, h = text.partition("x")
    return int(w), int(h if x else w)


def _names(text):
    return [s.strip() for s in text.split(",") if s.strip()]


def _each(convert):
    return lambda text: [convert(s) for s in text.split(",")]


_CONFIG_KEYS = {
    "scenes": _names,
    "solvers": _names,
    "sampling_ratios": _each(float),
    "image_sizes": _each(_parse_size),
    "noise_levels": _each(float),
    "repeats": int,
    "base_seed": int,
    "distribution": str,
}


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a line-based key=value config into a SweepSpec.

    Keys mirror the SweepSpec fields; lists are comma-separated and
    sizes are "WxH" (or a single number for square).  '#' starts a
    comment.  A key set twice is refused, naming both lines.
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
            raise InvalidArgumentError(f"config line {lineno}: unknown key {key!r}")
        if key in lines:
            raise InvalidArgumentError(
                f"config line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise InvalidArgumentError(f"config line {lineno}: bad {key} value: {exc}") from None
    if "scenes" not in kwargs or "solvers" not in kwargs:
        raise InvalidArgumentError("config must set scenes and solvers")
    return SweepSpec(**kwargs)
