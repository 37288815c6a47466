"""The three benchmark workloads, driven through spi_recon's public API.

Each workload has ``prepare(seed, workdir)`` (set-up, untimed by the
caller's timed phase), ``unit(state)`` (one timed unit of work) and
``outcomes(state, raw)`` (turns a unit's raw results into checkable
``Outcome`` records, outside the timed phase).  Library functions are
looked up through their modules at call time so that a ``Tracer`` can
wrap them.

- ``sweep-32``: ``spi-recon benchmark`` in-process, default ``--jobs``.
- ``iterate-64``: direct solver calls under fixed iteration budgets.
- ``large-96``: the CLI chain gen-patterns, simulate, reconstruct dgi,
  reconstruct cgd on bundles and PGMs in a work directory.
"""

import contextlib
import csv
import hashlib
import math
import sys
import time
from dataclasses import dataclass
from io import StringIO
from typing import Optional

import numpy as np

from spi_recon import cli, io, metrics, model, scenes, solvers

SOLVERS = ["pinv", "corr", "dgi", "gd", "cgd", "poisson", "ap", "cs-dct", "cs-tv"]
# the only refusal a correct library makes on these workloads
EXPECTED_REFUSAL = ("pinv", "SingularSystemError")
RMSE_RTOL = 1e-7
GRID_SEED = 0
SWEEP_RATIOS = (0.2, 1.0)
SWEEP_NOISE_LEVELS = (0.0, 1e-3)
# iterate-64 and large-96 both sample half of the pixels, with noise
RATIO = 0.5
NOISE_LEVEL = 1e-3
BUNDLE_HEADER = 25  # magic, kind, m, n, seed


@dataclass
class Outcome:
    """What one operation produced; compared against references and between passes."""

    op: str
    solver: str
    digest: str
    rmse: Optional[float] = None
    iterations: Optional[int] = None
    terminated_by: Optional[str] = None
    refusal: Optional[str] = None  # exception type name, or "exit <code>"
    finite: bool = True
    solve_s: Optional[float] = None

    def reference(self) -> dict:
        fields = ("rmse", "iterations", "terminated_by", "refusal")
        return {k: getattr(self, k) for k in fields if getattr(self, k) is not None}


def check(outcome: Outcome, reference: Optional[dict]) -> Optional[str]:
    """Reason the outcome is wrong, or None.  reference is None for seeds
    without recorded references; then only the any-seed checks apply."""
    if outcome.refusal is not None:
        if (outcome.solver, outcome.refusal) != EXPECTED_REFUSAL:
            return f"unexpected failure {outcome.refusal}"
    elif not outcome.finite or (outcome.rmse is not None and not math.isfinite(outcome.rmse)):
        return "non-finite image"
    if reference is None:
        return None
    mine = outcome.reference()
    if set(mine) != set(reference):
        return f"outcome {mine} does not match reference {reference}"
    for key, want in reference.items():
        got = mine[key]
        same = (math.isclose(got, want, rel_tol=RMSE_RTOL, abs_tol=1e-12)
                if key == "rmse" else got == want)
        if not same:
            return f"{key} {got!r} != reference {want!r}"
    return None


def zero_estimate_rmse(size: int) -> float:
    """Normalized RMSE of the all-zero image against the workloads' scene."""
    truth = scenes.builtin_scene("blocks", size, size)
    return metrics.normalized_rmse(truth, model.Image.from_array(np.zeros((size, size))))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stop_budget(iterations: int) -> solvers.StopCriteria:
    """A fixed budget: threshold 0 disables the residual-change stop."""
    return solvers.StopCriteria(residual_change_threshold=0.0,
                                min_iterations=iterations, max_iterations_factor=0.0)


# --------------------------------------------------------------------- sweep


class Sweep:
    """spi-recon benchmark over one scene, all solvers, 2 ratios x 2 noise levels.

    The grid is fixed, including its data (base_seed GRID_SEED), so the
    run's seed is not used.  Under the default stop the iteration counts of
    the ratio-1 cells, and with them the sweep's cost, vary with the data
    seed from 19 to 34 s; shuffling the config order instead moved peak RSS
    by 10% and the thread pool's makespan.  Neither fits a bound.
    """

    def __init__(self, size=32):
        self.size = size

    def reference_seed(self, seed):
        return GRID_SEED

    def prepare(self, seed, workdir):
        config = workdir / "sweep.cfg"
        config.write_text(
            "scenes = blocks\n"
            f"solvers = {', '.join(SOLVERS)}\n"
            f"sampling_ratios = {', '.join(map(str, SWEEP_RATIOS))}\n"
            f"image_sizes = {self.size}x{self.size}\n"
            f"noise_levels = {', '.join(map(str, SWEEP_NOISE_LEVELS))}\n"
            f"repeats = 1\nbase_seed = {GRID_SEED}\n"
        )
        _warm_up(workdir)
        return {"config": config, "out": workdir / "results.csv"}

    def unit(self, state):
        code = cli.main(["benchmark", "--config", str(state["config"]),
                         "--out", str(state["out"])])
        with open(state["out"], newline="") as f:
            rows = list(csv.DictReader(f)) if code == 0 else []
        return code, rows

    def outcomes(self, state, raw):
        code, rows = raw
        if code != 0:
            return [Outcome("benchmark", "", "", refusal=f"exit {code}")]
        out = []
        for row in rows:
            op = f"{row['solver']}/ratio={row['ratio']}/noise={row['noise_level']}"
            digest = _sha(repr(sorted((k, v) for k, v in row.items()
                                      if k != "wall_time_s")).encode())
            if row["status"] == "ok":
                out.append(Outcome(op, row["solver"], digest, rmse=float(row["rmse"]),
                                   iterations=int(row["iterations"]),
                                   solve_s=float(row["wall_time_s"])))
            else:
                out.append(Outcome(op, row["solver"], digest,
                                   refusal=self._refusal_type(row)))
        return out

    def _refusal_type(self, row):
        """The exception type behind a failed: row.  run_cell records only the
        message, so the solver call is repeated on the cell's patterns (which
        run_cell seeds with the recorded seed) and clean measurements."""
        w, h = (int(v) for v in row["size"].split("x"))
        m = int(round(float(row["ratio"]) * w * h))
        patterns = model.generate_patterns(m, w, h, seed=int(row["seed"]))
        meas = model.synthesize(patterns, scenes.builtin_scene(row["scene"], w, h))
        try:
            solvers.get_solver(row["solver"])(patterns, meas, w, h)
        except Exception as exc:  # the type is the result being checked
            return type(exc).__name__
        return "unreproduced failure"


# ------------------------------------------------------------------- iterate

ITERATE_BUDGETS = {"gd": 200, "cgd": 200, "poisson": 100, "ap": 50,
                   "cs-dct": 20, "cs-tv": 20}


class Iterate:
    """Each iterative solver once on one prepared input, under a fixed budget."""

    def __init__(self, size=64, budgets=ITERATE_BUDGETS):
        self.size = size
        self.budgets = dict(budgets)

    def reference_seed(self, seed):
        return seed

    def prepare(self, seed, workdir):
        s = self.size
        n = s * s
        truth = scenes.builtin_scene("blocks", s, s)
        patterns = model.generate_patterns(int(round(RATIO * n)), s, s, seed=seed)
        meas = model.add_noise(model.synthesize(patterns, truth),
                               model.NoiseModel(NOISE_LEVEL, n), seed=seed + 1)
        _warm_up(workdir)
        return {"truth": truth, "patterns": patterns, "meas": meas}

    def unit(self, state):
        results = []
        for name, budget in self.budgets.items():
            solver = solvers.get_solver(name)
            t0 = time.perf_counter()
            try:
                report = solver(state["patterns"], state["meas"], self.size, self.size,
                                stop=_stop_budget(budget))
            except Exception as exc:  # recorded and checked as a failed operation
                report = type(exc).__name__
            results.append((name, report, time.perf_counter() - t0))
        return results

    def outcomes(self, state, raw):
        out = []
        for name, report, seconds in raw:
            if isinstance(report, str):
                out.append(Outcome(name, name, "", refusal=report))
                continue
            data = report.image.data
            finite = bool(np.isfinite(data).all())
            out.append(Outcome(
                name, name, _sha(data.tobytes()),
                rmse=metrics.normalized_rmse(state["truth"], report.image) if finite else None,
                iterations=report.iterations, terminated_by=report.terminated_by,
                finite=finite, solve_s=seconds))
        return out


# --------------------------------------------------------------------- large


class Chain:
    """The CLI chain from pattern generation to two reconstructions.

    At 96x96 and ratio 0.5 the pattern bundle A is 324 MiB, about three
    times a 105 MiB last-level cache, and a run's peak RSS about 0.7 GiB.
    """

    def __init__(self, size=96):
        self.size = size

    def reference_seed(self, seed):
        return seed

    def prepare(self, seed, workdir):
        scene = workdir / "scene.pgm"
        io.write_image(scenes.builtin_scene("blocks", self.size, self.size), scene)
        _warm_up(workdir)
        return {"dir": workdir, "seed": seed, "scene": scene,
                "truth": io.read_image(scene)}

    def _paths(self, state):
        d = state["dir"]
        return {k: d / f for k, f in [("patterns", "patterns.spib"),
                                      ("measurements", "measurements.spib"),
                                      ("dgi", "dgi.pgm"), ("cgd", "cgd.pgm"),
                                      ("cgd_trace", "cgd_trace.csv")]}

    def unit(self, state):
        p = {k: str(v) for k, v in self._paths(state).items()}
        s, seed = str(self.size), state["seed"]
        m = int(round(RATIO * self.size * self.size))
        steps = [
            ("gen-patterns", ["gen-patterns", "--m", str(m), "--width", s, "--height", s,
                              "--seed", str(seed), "--out", p["patterns"]]),
            ("simulate", ["simulate", "--patterns", p["patterns"], "--scene",
                          str(state["scene"]), "--noise-level", str(NOISE_LEVEL),
                          "--seed", str(seed + 1), "--out", p["measurements"]]),
            ("dgi", ["reconstruct", "--solver", "dgi", "--patterns", p["patterns"],
                     "--measurements", p["measurements"], "--out", p["dgi"]]),
            ("cgd", ["reconstruct", "--solver", "cgd", "--patterns", p["patterns"],
                     "--measurements", p["measurements"], "--out", p["cgd"],
                     "--trace", p["cgd_trace"]]),
        ]
        results = []
        for op, argv in steps:
            err = StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            sys.stderr.write(err.getvalue())
            results.append((op, code, err.getvalue().strip()))
        return results

    def outcomes(self, state, raw):
        paths = self._paths(state)
        out = []
        for op, code, err in raw:
            solver = op if op in SOLVERS else ""
            if code != 0:
                out.append(Outcome(op, solver, "", refusal=f"exit {code}: {err}"))
            elif op == "gen-patterns":
                size = paths["patterns"].stat().st_size
                m, n = int(round(RATIO * self.size**2)), self.size**2
                wrong = None if size == BUNDLE_HEADER + 8 * m * n else f"bundle size {size}"
                out.append(Outcome(op, solver, self._patterns_digest(paths["patterns"]),
                                   refusal=wrong))
            elif op == "simulate":
                out.append(Outcome(op, solver, _sha(paths["measurements"].read_bytes())))
            else:
                image = io.read_image(paths[op])
                iterations = None
                if op == "cgd":
                    with open(paths["cgd_trace"], newline="") as f:
                        iterations = int(list(csv.DictReader(f))[-1]["iteration"])
                out.append(Outcome(op, solver, _sha(paths[op].read_bytes()),
                                   rmse=metrics.normalized_rmse(state["truth"], image),
                                   iterations=iterations))
        return out

    def _patterns_digest(self, path):
        """Hashes of the first and last MiB; the whole bundle is checked
        through the reconstructions made from it."""
        with open(path, "rb") as f:
            head = f.read(1 << 20)
            f.seek(max(0, path.stat().st_size - (1 << 20)))
            return f"{_sha(head)}:{_sha(f.read())}"


def _warm_up(workdir):
    """Runs every solver once on a tiny problem so lazy initialization
    (BLAS threads, FFT plans) happens in set-up, not in the timed phase."""
    truth = scenes.builtin_scene("blocks", 8, 8)
    patterns = model.generate_patterns(128, 8, 8, seed=1)
    meas = model.synthesize(patterns, truth)
    for name in SOLVERS:
        solvers.get_solver(name)(patterns, meas, 8, 8, stop=_stop_budget(2))
    io.write_image(truth, workdir / "warm.pgm")
    io.read_image(workdir / "warm.pgm")


WORKLOADS = {"sweep-32": Sweep, "iterate-64": Iterate, "large-96": Chain}
