"""Batch command-line interface.

Subcommands: gen-patterns, simulate, reconstruct, benchmark, metrics.
Exit codes: 0 success, 1 usage error, 2 runtime/numerical failure; main's
one handler prints each refusal as one "usage error:" or "runtime error:" line.

gen-patterns and simulate hold one row block of A at a time, cut by the
one rule model._row_blocks, never all of A; reconstruct reads A whole.
simulate's readings equal synthesize's at any BLAS thread count.

simulate, the one step that reads the scene, records its width and height
in the measurement bundle, and reconstruct takes the image shape from
there.  reconstruct reads the measurement bundle first and checks it
against the pattern header by the solvers' rule, solvers._check_counts,
before it reads A's payload, and opens --out through io._output after the
solve.  benchmark opens --out after every refusal its config decides and
before the first cell.  No command takes a path that holds a NUL byte, or an
--out or --trace naming another of its file flags; --dist is uniform01 or
binary.  Every input path must be a regular file: io._input refuses a pipe
or a device with exit 2 before it reads a byte.  ``python -m spi_recon.cli``
runs the same commands as ``spi-recon``.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench
from . import io as spio
from .errors import Error, InvalidArgumentError
from .io import _check_path, _read_pattern_blocks, _write_pattern_blocks
from .metrics import normalized_rmse
# gen-patterns does not call generate_patterns; the name stays here with the
# other model and solver names that perfbench/layertrace.py wraps on cli
from .model import (MeasurementSet, NoiseModel, _check_seed, _pattern_draw, add_noise,
                    generate_patterns, synthesize)  # noqa: F401
from .solvers import StopCriteria, _check_counts, get_solver

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="spi-recon", description="Single-pixel imaging toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-patterns", help="generate a random pattern bundle")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--dist", default="uniform01")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="synthesize (optionally noisy) measurements")
    s.add_argument("--patterns", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--noise-level", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    r = sub.add_parser("reconstruct", help="reconstruct a scene from bundles")
    r.add_argument("--solver", required=True)
    r.add_argument("--patterns", required=True)
    r.add_argument("--measurements", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--trace", default=None)
    r.add_argument("--threshold", type=float, default=StopCriteria.residual_change_threshold)
    r.add_argument("--min-iter", type=int, default=StopCriteria.min_iterations)
    r.add_argument("--max-iter-factor", type=float, default=StopCriteria.max_iterations_factor)

    b = sub.add_parser("benchmark", help="run a sweep described by a config file")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--desk", action="store_true")

    m = sub.add_parser("metrics", help="print normalized RMSE of two PGMs")
    m.add_argument("--truth", required=True)
    m.add_argument("--estimate", required=True)
    return p


def _check_paths(args) -> None:
    """Refuses, before any file is opened, a path that holds a NUL byte and an
    --out or --trace whose os.path.realpath is another file flag's; a hard link is not seen."""
    paths = {flag: getattr(args, flag) for flag in
             ("patterns", "scene", "measurements", "config", "truth", "estimate", "out", "trace")
             if getattr(args, flag, None)}
    paths = {flag: os.path.realpath(_check_path(path, f"--{flag}")) for flag, path in paths.items()}
    for out in ("out", "trace"):
        for flag, path in paths.items():
            if flag != out and paths.get(out) == path:
                raise InvalidArgumentError(f"--{out} and --{flag} name one file, {path}")


def _run(args) -> int:
    _check_paths(args)
    if args.command == "gen-patterns":
        n, draw = _pattern_draw(args.m, args.width, args.height, args.dist, args.seed)
        _write_pattern_blocks(args.out, args.m, n, args.seed, draw)
    elif args.command == "simulate":
        _check_seed(args.seed)  # add_noise checks it too, but only after the bundle is read
        scene = spio.read_image(args.scene)
        # the level is checked before the bundle is opened; synthesize refuses
        # patterns whose pixel count is not the scene's
        noise = NoiseModel(level=args.noise_level, pixel_count=scene.data.size)
        meas = add_noise(MeasurementSet(np.concatenate(
            [synthesize(block, scene).values
             for block in _read_pattern_blocks(args.patterns)])), noise, seed=args.seed)
        spio.write_measurements(meas, scene.width, scene.height, args.out)
    elif args.command == "reconstruct":
        solver = get_solver(args.solver)
        stop = StopCriteria(residual_change_threshold=args.threshold,
                            min_iterations=args.min_iter,
                            max_iterations_factor=args.max_iter_factor)
        meas, width, height = spio.read_measurements(args.measurements)
        with spio._input(args.patterns) as f:  # the counts, checked before A's payload is read
            m, n, _ = spio._open_bundle(f, "patterns")
        _check_counts(m, n, meas.m, width, height)
        patterns = spio.read_patterns(args.patterns)
        report = solver(patterns, meas, width, height, stop=stop)
        with spio._output(args.out):  # a trace that cannot be written leaves no image
            spio.write_image(report.image, args.out)
            if args.trace:
                spio._write_csv(args.trace, ["iteration", "residual_norm", "objective"],
                                report.trace)
    elif args.command == "benchmark":
        try:
            with spio._input(args.config, "r", encoding="utf-8-sig") as f:
                text = f.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"config {args.config} is not UTF-8: {exc}") from None
        spec = bench.parse_sweep_config(text)
        if args.desk:  # the CI-budget variant: 32x32 only, 5 repeats
            spec = replace(spec, image_sizes=[(32, 32)], repeats=5)
        with spio._output(args.out):  # an --out that cannot be written fails before any cell
            spio.write_results_csv(bench.run_sweep(spec), args.out)
    elif args.command == "metrics":
        truth = spio.read_image(args.truth)
        estimate = spio.read_image(args.estimate)
        print(f"{normalized_rmse(truth, estimate):.9f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (Error, OSError, MemoryError) as exc:  # a MemoryError's message names the allocation
        code = getattr(exc, "exit_code", 2)
        print(f"{'usage' if code == 1 else 'runtime'} error: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return code


if __name__ == "__main__":  # the spi-recon console script calls sys.exit(main()) too
    sys.exit(main())
