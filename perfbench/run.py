"""spi-recon benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload sweep-32 --seed 3 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  Inputs derive from ``--seed``.

Untraced (``--trace 0``): set-up runs ``SETUP_SAMPLES`` times (a fresh
interpreter importing the library, and the workload's input
preparation); ``setup_s`` is the sum of the two medians.  The timed
phase then repeats the workload's unit until ``--seconds`` have passed
(at least once).  ``wall_s`` is always the first unit's time, whatever
the unit count, so that a faster unit cannot shed the first unit's
one-time costs by letting warm units into the figure; later units are
only checked against the first.

Traced (``--trace 1``): an untraced unit, the same unit under a
``Tracer``, and the untraced unit again.  The unit count is fixed, not
time-bound, so every count repeats exactly between runs.  ``solve_s.*``
and ``process.*`` come from the first unit, as ``wall_s`` does.
``trace.overhead_s`` is the traced unit's time minus the last untraced
one's, since both follow a unit and so carry no one-time costs.  All
three units must produce bitwise-equal outputs.

Every operation is checked: typed refusals only where expected, finite
images, identical outputs across units, and, for seeds with recorded
references (0 to 10; every seed for sweep-32, whose grid data are
fixed), the RMSE, iteration count, stop reason and refusal
in ``references.json``.
``rmse_gmean`` is the geometric mean of the correct operations' RMSE, so
that one ill-conditioned cell cannot swamp the others.  A run in which no
reconstruction succeeded reports the all-zero image's RMSE instead, so
that every printed metric is a number; such a run is not correct.

In the JSON line of a traced run, a per-layer metric whose wrapped name is
missing or never called reads 0; the ``# unmeasured`` line names each one,
so that a renamed or bypassed name is not read as saved work.

The last stdout line is the JSON result; lines before it (``#``) give the
environment, any failures and every metric with its unit.  Exit code 0
means the run completed (its verdict is in ``correct``); 2 means it could
not run, for example when ``src/spi_recon`` is absent.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_SAMPLES = 5
# an error this small is exact recovery; the floor keeps round-off out of the mean
RMSE_FLOOR = 1e-9
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import spi_recon.cli; print(time.perf_counter() - t)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep-32", "iterate-64", "large-96"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _environment(workdir):
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        # the large chain writes a 324 MiB bundle into the work directory
        "work_disk_free_gib": round(shutil.disk_usage(workdir).free / 2**30, 1),
        "file_size_limit": resource.getrlimit(resource.RLIMIT_FSIZE)[0],
    }


def _import_seconds():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


class _Checker:
    """Checks outcomes and counts attempted and failed operations."""

    def __init__(self, workloads, references):
        self.workloads = workloads
        self.references = references
        self.attempted = 0
        self.failures = []

    def __call__(self, outcomes, baseline=None, what="unit"):
        """baseline: outcomes these must equal bitwise (same ops, same digests).
        An operation in the references or the baseline but not in outcomes
        counts as attempted and failed."""
        expected = {o.op: o.digest for o in baseline or []}
        for op in sorted((set(self.references or {}) | set(expected))
                         - {o.op for o in outcomes}):
            self.attempted += 1
            self.failures.append(f"{what} {op}: missing")
        for o in outcomes:
            self.attempted += 1
            ref = None if self.references is None else self.references.get(o.op, {})
            reason = self.workloads.check(o, ref)
            if reason is None and baseline is not None and expected.get(o.op) != o.digest:
                reason = f"output differs from the first unit ({what})"
            if reason is not None:
                self.failures.append(f"{what} {o.op}: {reason}")

    @property
    def failed(self):
        return len(self.failures)


def _untraced(wl, args, workdir, check):
    imports = [_import_seconds() for _ in range(SETUP_SAMPLES)]
    prepares = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        state = wl.prepare(args.seed, workdir)
        prepares.append(time.perf_counter() - t0)

    walls, units = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        raw = wl.unit(state)
        walls.append(time.perf_counter() - t0)
        # before the next unit overwrites the files this one wrote
        units.append(wl.outcomes(state, raw))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = units[0]
    check(first)
    for i, outcomes in enumerate(units[1:], 2):
        check(outcomes, baseline=first, what=f"unit {i}")
    logs = [math.log(max(o.rmse, RMSE_FLOOR)) for o in first
            if o.rmse is not None and o.refusal is None]
    rmse_gmean = (math.exp(statistics.mean(logs)) if logs
                  else check.workloads.zero_estimate_rmse(wl.size))
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(prepares), "s"),
        "wall_s": (walls[0], "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "rmse_gmean": (rmse_gmean, "1"),
        "ok_frac": ((check.attempted - check.failed) / check.attempted, "frac"),
    }
    return metrics, first, walls


def _traced(wl, args, workdir, check):
    import layertrace

    state = wl.prepare(args.seed, workdir)

    def untraced_unit():
        cpu0, t0 = time.process_time(), time.perf_counter()
        raw = wl.unit(state)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return wl.outcomes(state, raw), wall, cpu

    # the first unit pays one-time costs (up to 3 s on the large chain), so the
    # overhead compares the traced unit with the untraced one after it
    untraced, wall_s, cpu_s = untraced_unit()
    tracer = layertrace.Tracer()
    with tracer:
        t0 = time.perf_counter()
        raw = wl.unit(state)
        traced_wall_s = time.perf_counter() - t0
    traced = wl.outcomes(state, raw)
    after, after_wall_s, _ = untraced_unit()
    check(untraced, what="untraced")
    check(traced, baseline=untraced, what="traced")
    check(after, baseline=untraced, what="untraced after")
    if tracer.missing:
        print(f"# unmeasured (name missing): {sorted(tracer.missing)}")

    solve_s = {}
    for o in untraced:
        if o.solve_s is not None:
            solve_s[o.solver] = solve_s.get(o.solver, 0.0) + o.solve_s
    metrics = layertrace.per_layer_metrics(tracer, {
        "solve_s": solve_s, "cpu_s": cpu_s, "wall_s": wall_s,
        "traced_wall_s": traced_wall_s, "after_wall_s": after_wall_s})
    return metrics, untraced, [wall_s, traced_wall_s, after_wall_s]


def _load_references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "spi_recon" / "__init__.py").is_file():
        print(f"error: no spi_recon sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import spi_recon
    if Path(spi_recon.__file__).resolve().parent != SRC / "spi_recon":
        print(f"error: spi_recon imported from {spi_recon.__file__}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    refs = _load_references().get(args.workload, {})
    check = _Checker(workloads, refs.get(str(wl.reference_seed(args.seed))))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        env = _environment(workdir)
        run = _traced if args.trace else _untraced
        metrics, first, walls = run(wl, args, workdir, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} unit_s {[round(w, 3) for w in walls]}"
          f" references {'checked' if check.references is not None else 'not recorded for this seed'}")
    for o in first:
        print(f"# op {o.op:<28} rmse={o.rmse} iterations={o.iterations} "
              f"terminated_by={o.terminated_by} refusal={o.refusal} solve_s={o.solve_s}")
    for failure in check.failures:
        print(f"# FAIL {failure}")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"# metric {name:<40} {shown}")
    unmeasured = [name for name, (value, _) in metrics.items() if value is None]
    if unmeasured:
        print(f"# unmeasured (reported as 0): {unmeasured}")
    print(f"# correct: {check.failed == 0} ({check.attempted - check.failed}"
          f"/{check.attempted} operations)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": 0 if value is None else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
