"""Benchmark sweeps: sampling ratio x image size x noise level x repeats.

Cells run one after another in grid order, each seeded by a stable hash
of the base seed and the cell coordinates, so reruns produce identical
results apart from wall time.  Pattern and noise seeds deliberately
exclude the solver name and the noise level: all solvers see the same
data in a cell, and raising the noise level only scales the same noise
draw, keeping noise-level comparisons paired.
"""

import hashlib
import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional

import numpy as np

from .errors import (DomainError, FormatError, InvalidArgumentError, NumericalFailureError,
                     SingularSystemError, UnknownSolverError)
from .io import read_image
from .metrics import normalized_rmse
from .model import NoiseModel, add_noise, generate_patterns, synthesize
from .scenes import builtin_scene
from .solvers import StopCriteria, get_solver

__all__ = [
    "SweepSpec",
    "SweepRow",
    "stable_seed",
    "run_cell",
    "run_sweep",
    "parse_sweep_config",
    "desk_preset",
]


@dataclass
class SweepSpec:
    """Declarative benchmark sweep (Cartesian product of all grids)."""

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
        if self.repeats < 1:
            raise InvalidArgumentError("repeats must be >= 1")
        if not all(np.isfinite(r) and r > 0 for r in self.sampling_ratios):
            raise InvalidArgumentError("sampling ratios must be finite and positive")
        if not all(np.isfinite(v) and v >= 0 for v in self.noise_levels):
            raise InvalidArgumentError("noise levels must be finite and >= 0")
        if any(w < 2 or h < 2 for w, h in self.image_sizes):
            raise InvalidArgumentError("image sizes must be at least 2x2")


@dataclass
class SweepRow:
    scene: str
    solver: str
    ratio: float
    size: str  # "WxH"
    noise_level: float
    repeat: int
    rmse: Optional[float]
    iterations: int
    wall_time_s: float
    seed: int
    status: str  # "ok" or "failed:<reason>"


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary hashable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


def _pattern_count(ratio: float, n: int) -> int:
    """The m of a cell of n pixels sampled at ratio."""
    if not np.isfinite(ratio * n):  # int() of an infinite count raises OverflowError
        raise InvalidArgumentError(f"ratio {ratio} x {n} pixels overflows the measurement count")
    m = int(round(ratio * n))
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

    Only the reconstruction is timed, not pattern generation or
    measurement synthesis.  A scene file that cannot be read, or a solve
    that raises one of the library's errors, gives a "failed:" row; any
    other exception propagates.
    """
    def failed(exc, seed):
        reason = str(exc).replace("\n", " ")
        return SweepRow(scene, solver, ratio, f"{width}x{height}", noise_level, repeat,
                        None, 0, 0.0, seed, f"failed:{reason}")

    if scene.endswith(".pgm"):  # a PGM keeps its own size
        try:
            truth = read_image(scene)
        except (OSError, FormatError) as exc:
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

    patterns = generate_patterns(m, width, height, distribution, seed=pattern_seed)
    meas = synthesize(patterns, truth)
    if noise.sigma > 0:
        meas = add_noise(meas, noise, seed=noise_seed)
    try:
        fn = get_solver(solver)
        t0 = time.perf_counter()
        report = fn(patterns, meas, width, height, stop=stop)
        elapsed = time.perf_counter() - t0
        rmse = normalized_rmse(truth, report.image)
        return SweepRow(scene, solver, ratio, size, noise_level, repeat,
                        rmse, report.iterations, elapsed, pattern_seed, "ok")
    except (DomainError, FormatError, InvalidArgumentError, NumericalFailureError,
            SingularSystemError, UnknownSolverError) as exc:
        return failed(exc, pattern_seed)  # failed cells are recorded, never fatal


def run_sweep(spec: SweepSpec, stop: Optional[StopCriteria] = None) -> list:
    """All cells x repeats, run one after another in grid order.

    A ratio that gives a builtin scene no measurement count is refused
    before any cell runs; a PGM scene keeps its own size, so its cells
    are checked as they run.
    """
    if not all(scene.endswith(".pgm") for scene in spec.scenes):
        for ratio, (w, h) in product(spec.sampling_ratios, spec.image_sizes):
            _pattern_count(ratio, w * h)
    return [
        run_cell(scene, solver, ratio, w, h, level, rep, base_seed=spec.base_seed,
                 stop=stop, distribution=spec.distribution)
        for scene, solver, ratio, (w, h), level, rep in product(
            spec.scenes, spec.solvers, spec.sampling_ratios, spec.image_sizes,
            spec.noise_levels, range(spec.repeats))
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
    comment.
    """
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidArgumentError(f"config line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise InvalidArgumentError(f"config line {lineno}: bad {key} value: {exc}") from None
    if "scenes" not in kwargs or "solvers" not in kwargs:
        raise InvalidArgumentError("config must set scenes and solvers")
    return SweepSpec(**kwargs)


def desk_preset(spec: SweepSpec) -> SweepSpec:
    """CI-budget variant: 32x32 only, 5 repeats; everything else unchanged."""
    return replace(spec, image_sizes=[(32, 32)], repeats=5)
