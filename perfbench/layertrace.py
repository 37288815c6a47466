"""Per-layer tracing of spi_recon from outside the library.

A ``Tracer`` replaces public names in the ``spi_recon`` namespaces with
timing and counting wrappers while it is entered, and puts the original
objects back when it exits.  Every wrapped call is a span: its inclusive
time, its self time (inclusive minus the time of wrapped calls nested in
it on the same thread) and its call count are accumulated per key.
Spans nest per thread, so the worker threads of ``benchmark --jobs``
are traced correctly; each thread accumulates into its own tables and
the tables are merged when they are read.

``per_layer_metrics`` turns the accumulated tables into the metrics
listed in BENCHMARK.json.  A metric whose wrapped name is missing or
never called is reported as ``None`` (unmeasured), never as 0, so that a
refactor that renames or bypasses a name cannot pass as saved work.
"""

import dataclasses
import inspect
import os
import threading
import time
from collections import defaultdict

import spi_recon.bench
import spi_recon.cli
import spi_recon.io
import spi_recon.solvers

ITERATIVE = ["gd", "cgd", "poisson", "ap", "cs-dct", "cs-tv"]
CLI_COMMANDS = ["gen-patterns", "simulate", "reconstruct", "benchmark"]
IO_TIMED = ["write_patterns", "read_patterns", "write_measurements",
            "read_measurements", "read_image", "write_image", "write_results_csv"]


class _Tables:
    """One thread's accumulators."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []


class Tracer:
    """Context manager that wraps spi_recon names and accumulates spans."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self._patches = []
        self.missing = set()
        self._unique_patterns = set()

    # -------------------------------------------------------------- recording

    def _mine(self) -> _Tables:
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _Tables()
            with self._lock:
                self._tables.append(tables)
        return tables

    def span(self, key, fn, *args, **kwargs):
        """Call fn as a span named key."""
        t = self._mine()
        t.stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - start
            child = t.stack.pop()
            if t.stack:
                t.stack[-1] += dt
            t.calls[key] += 1
            t.seconds[key] += dt
            t.self_seconds[key] += dt - child

    def add(self, key, amount):
        self._mine().counts[key] += amount

    def _merged(self, field, factory):
        out = defaultdict(factory)
        with self._lock:
            for tables in self._tables:
                for key, value in getattr(tables, field).items():
                    out[key] += value
        return out

    def calls(self):
        return self._merged("calls", int)

    def seconds(self):
        return self._merged("seconds", float)

    def self_seconds(self):
        return self._merged("self_seconds", float)

    def counts(self):
        return self._merged("counts", int)

    # -------------------------------------------------------------- patching

    def _patch(self, module, name, make):
        if not hasattr(module, name):
            self.missing.add(f"{module.__name__}.{name}")
            return
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, make(original))

    def _timed(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.span(key, fn, *args, **kwargs)
            return wrapper
        return make

    def _generate_patterns(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self._lock:
                self._unique_patterns.add(tuple(bound.arguments.values()))
            patterns = self.span("model.generate_patterns", fn, *args, **kwargs)
            self.add("model.generate_patterns.bytes_computed", patterns.rows.nbytes)
            return patterns
        return wrapper

    def _file_io(self, key, path_arg):
        """Times an io call and counts the bytes of the file it reads or writes."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.span(key, fn, *args, **kwargs)
                self.add(f"{key}.bytes", os.path.getsize(args[path_arg]))
                return result
            return wrapper
        return make

    def _operator(self, kind):
        def make(fn):
            def wrapper(*args, **kwargs):
                op = fn(*args, **kwargs)
                fwd, adj = op.apply, op.apply_transpose
                return dataclasses.replace(
                    op,
                    apply=lambda v: self.span(f"transforms.{kind}.apply", fwd, v),
                    apply_transpose=lambda v: self.span(
                        f"transforms.{kind}.adjoint", adj, v),
                )
            return wrapper
        return make

    def _backtracking_search(self, fn):
        def wrapper(objective, *args, **kwargs):
            def counted(v):
                self.add("solvers.poisson.linesearch.evaluations", 1)
                return objective(v)
            return self.span("solvers.poisson.linesearch", fn, counted, *args, **kwargs)
        return wrapper

    def _get_solver(self, fn):
        def wrapper(name):
            solver = fn(name)

            def traced(*args, **kwargs):
                report = self.span(f"solvers.{name}", solver, *args, **kwargs)
                self.add(f"solvers.{name}.iterations", report.iterations)
                return report
            return traced
        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            command = argv[0] if argv else "none"
            return self.span(f"cli.{command}", fn, argv)
        return wrapper

    def __enter__(self):
        solvers, bench, cli, io = (spi_recon.solvers, spi_recon.bench,
                                   spi_recon.cli, spi_recon.io)
        for module in (bench, cli):
            self._patch(module, "generate_patterns", self._generate_patterns)
            self._patch(module, "synthesize", self._timed("model.synthesize"))
            self._patch(module, "add_noise", self._timed("model.add_noise"))
            self._patch(module, "get_solver", self._get_solver)
        self._patch(solvers, "get_solver", self._get_solver)
        self._patch(bench, "run_cell", self._timed("bench.run_cell"))
        self._patch(cli, "main", self._cli_main)
        self._patch(solvers, "gd_gradient", self._timed("solvers.gd.gradient"))
        self._patch(solvers, "gd_optimal_step", self._timed("solvers.gd.step"))
        self._patch(solvers, "poisson_gradient", self._timed("solvers.poisson.gradient"))
        self._patch(solvers, "backtracking_search", self._backtracking_search)
        self._patch(solvers, "ap_update", self._timed("solvers.ap.update"))
        self._patch(solvers, "soft_threshold", self._timed("transforms.soft_threshold"))
        self._patch(solvers, "dct_operator", self._operator("dct"))
        self._patch(solvers, "gradient_operator", self._operator("gradient"))
        # cli reaches io through the module object, so io is wrapped in place
        self._patch(io, "write_patterns", self._file_io("io.write_patterns", 1))
        self._patch(io, "read_patterns", self._file_io("io.read_patterns", 0))
        for name in IO_TIMED[2:]:
            self._patch(io, name, self._timed(f"io.{name}"))
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)
        return False

    def unique_pattern_inputs(self) -> int:
        with self._lock:
            return len(self._unique_patterns)


# ------------------------------------------------------------------ metrics


def _ratio(num, den):
    return None if num is None or not den else num / den


def per_layer_metrics(tracer: Tracer, untraced: dict) -> dict:
    """name -> (value or None, unit), in BENCHMARK.json order.

    ``untraced`` carries what the first untraced unit measured from
    outside: ``solve_s`` (solver name -> seconds or None), ``cpu_s`` and
    ``wall_s``; and the times of the traced unit, ``traced_wall_s``, and
    of the untraced unit after it, ``after_wall_s``.
    """
    calls, secs, self_secs, counts = (tracer.calls(), tracer.seconds(),
                                      tracer.self_seconds(), tracer.counts())

    def n_calls(key):
        return calls[key] or None

    def s(key):
        return secs[key] if calls[key] else None

    def count(key, of):
        return counts[key] if calls[of] else None

    out = {}
    gp = "model.generate_patterns"
    out[f"{gp}.calls"] = (n_calls(gp), "count")
    out[f"{gp}.s"] = (s(gp), "s")
    out[f"{gp}.bytes_computed"] = (count(f"{gp}.bytes_computed", gp), "bytes")
    out[f"{gp}.unique_frac"] = (_ratio(tracer.unique_pattern_inputs(), calls[gp]), "frac")
    out["model.synthesize.s"] = (s("model.synthesize"), "s")
    out["model.add_noise.s"] = (s("model.add_noise"), "s")

    for kind in ("dct", "gradient"):
        for side in ("apply", "adjoint"):
            key = f"transforms.{kind}.{side}"
            out[f"{key}.calls"] = (n_calls(key), "count")
            out[f"{key}.s"] = (s(key), "s")
    out["transforms.soft_threshold.calls"] = (n_calls("transforms.soft_threshold"), "count")
    out["transforms.soft_threshold.s"] = (s("transforms.soft_threshold"), "s")

    for name in ITERATIVE:
        key = f"solvers.{name}"
        iters = count(f"{key}.iterations", key)
        out[f"{key}.iterations"] = (iters, "count")
        out[f"{key}.s_per_iter"] = (_ratio(s(key), iters), "s")
        out[f"{key}.self_s"] = (self_secs[key] if calls[key] else None, "s")
    for key in ("solvers.gd.gradient", "solvers.gd.step", "solvers.poisson.gradient"):
        out[f"{key}.calls"] = (n_calls(key), "count")
        out[f"{key}.s"] = (s(key), "s")
    ls = "solvers.poisson.linesearch"
    evaluations = count(f"{ls}.evaluations", ls)
    # each search evaluates the objective once at x before its trials
    trials = None if evaluations is None else evaluations - calls[ls]
    out[f"{ls}.calls"] = (n_calls(ls), "count")
    out[f"{ls}.trials"] = (trials, "count")
    out[f"{ls}.s"] = (s(ls), "s")
    out[f"{ls}.accept_frac"] = (_ratio(n_calls(ls), trials), "frac")
    out["solvers.ap.update.calls"] = (n_calls("solvers.ap.update"), "count")
    out["solvers.ap.update.s"] = (s("solvers.ap.update"), "s")
    # per outer ALM iteration the prior adjoint runs once for the right-hand
    # side, once for the initial CG residual and once per inner CG step
    alm_iters = counts["solvers.cs-dct.iterations"] + counts["solvers.cs-tv.iterations"]
    adjoints = calls["transforms.dct.adjoint"] + calls["transforms.gradient.adjoint"]
    out["solvers.alm.inner_cg_steps"] = (adjoints - 2 * alm_iters if alm_iters else None,
                                         "count")
    for name in ITERATIVE:
        out[f"solve_s.{name}"] = (untraced["solve_s"].get(name), "s")

    for name in ("write_patterns", "read_patterns"):
        out[f"io.{name}.s"] = (s(f"io.{name}"), "s")
        out[f"io.{name}.bytes"] = (count(f"io.{name}.bytes", f"io.{name}"), "bytes")
    for name in IO_TIMED[2:]:
        out[f"io.{name}.s"] = (s(f"io.{name}"), "s")

    rc = "bench.run_cell"
    out[f"{rc}.calls"] = (n_calls(rc), "count")
    out[f"{rc}.s"] = (s(rc), "s")
    generate = sum(secs[k] for k in ("model.generate_patterns", "model.synthesize",
                                     "model.add_noise"))
    solve = sum(v for k, v in secs.items()
                if k.startswith("solvers.") and k.count(".") == 1)
    out["bench.cell.generate_frac"] = (_ratio(generate, s(rc)), "frac")
    out["bench.cell.solve_frac"] = (_ratio(solve, s(rc)), "frac")
    out["process.cpu_s"] = (untraced["cpu_s"], "s")
    out["process.cpu_util"] = (untraced["cpu_s"] / untraced["wall_s"], "cores")

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (s(f"cli.{command}"), "s")
    out["trace.overhead_s"] = (untraced["traced_wall_s"] - untraced["after_wall_s"], "s")
    return out
