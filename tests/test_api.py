"""Pins the public surface: adding or removing a public name is a visible diff."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import spi_recon
from spi_recon import bench, cli, io, metrics, model, solvers, transforms

MODULES = ["bench", "cli", "io", "metrics", "model", "scenes", "solvers", "transforms"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"spi_recon.{name}")
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"spi_recon.{name}: {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(spi_recon.__file__).read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "get_solver" in imported and "SweepSpec" in imported
    assert [n for n in imported if not hasattr(spi_recon, n)] == []


def test_solvers_public_names():
    assert solvers.__all__ == [
        "StopCriteria",
        "SolverReport",
        "pinv_solve",
        "corr_reconstruct",
        "dgi_reconstruct",
        "gd_gradient",
        "gd_optimal_step",
        "gd_solve",
        "cgd_solve",
        "poisson_objective",
        "poisson_gradient",
        "backtracking_search",
        "poisson_solve",
        "ap_update",
        "ap_solve",
        "solver_registry",
        "get_solver",
    ]
    assert not hasattr(spi_recon, "alm_solve") and not hasattr(solvers, "alm_solve")


def test_bench_public_names():
    assert bench.__all__ == [
        "SweepSpec",
        "SweepRow",
        "stable_seed",
        "run_cell",
        "run_sweep",
        "parse_sweep_config",
    ]
    assert not hasattr(spi_recon, "summarize")


def test_transforms_public_names():
    assert transforms.__all__ == [
        "LinearOperator",
        "dct_operator",
        "gradient_operator",
        "soft_threshold",
    ]


def test_model_public_names():
    assert model.__all__ == [
        "Image",
        "PatternSet",
        "MeasurementSet",
        "NoiseModel",
        "generate_patterns",
        "synthesize",
        "add_noise",
    ]
    assert not hasattr(spi_recon, "vectorize") and not hasattr(spi_recon, "devectorize")
    assert not hasattr(model.Image, "as_array")


def test_io_public_names():
    assert io.__all__ == [
        "read_image",
        "write_image",
        "write_patterns",
        "read_patterns",
        "write_measurements",
        "read_measurements",
        "write_results_csv",
        "read_results_csv",
    ]
    gone = ["BundleHeader", "read_bundle", "write_bundle"]
    assert [name for name in gone if hasattr(io, name) or hasattr(spi_recon, name)] == []


def _isfinite_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "isfinite"]


def test_isfinite_is_called_only_in_run_finite():
    """_Run.finite is the one finiteness check of a solve; a hand-written
    overflow check anywhere else in solvers.py fails here."""
    tree = ast.parse(Path(solvers.__file__).read_text())
    run = next(node for node in tree.body if getattr(node, "name", None) == "_Run")
    finite = next(node for node in run.body if getattr(node, "name", None) == "finite")
    assert len(_isfinite_calls(tree)) == len(_isfinite_calls(finite)) == 1


def test_io_states_no_entry_rule():
    """Which payload entries a record refuses is stated once, by the record's
    _refused; a finiteness or infinity test written again in io.py fails here."""
    tree = ast.parse(Path(io.__file__).read_text())
    infs = [node for node in ast.walk(tree)
            if getattr(node, "attr", getattr(node, "id", None)) == "inf"]
    assert (_isfinite_calls(tree), infs) == ([], [])


def test_solvers_have_no_absolute_floor():
    """Every stop and breakdown test of a solve is relative to its data, so a
    solver's verdict does not depend on the readings' unit: no tiny absolute
    constant (such as a 1e-300 floor) and no fixed shrink budget."""
    tree = ast.parse(Path(solvers.__file__).read_text())
    tiny = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, float) and 0 < node.value < 1e-100]
    names = [node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "MAX_SHRINKS"]
    assert (tiny, names) == ([], [])


def test_pattern_set_fields():
    assert [f.name for f in dataclasses.fields(model.PatternSet)] == ["rows", "seed"]
    assert not hasattr(model.PatternSet, "from_matrix")


def test_only_dgi_sums_the_pattern_rows():
    """Each pattern's total light is summed in dgi_reconstruct alone: a
    PatternSet has no intensities, and no other sum in src/ takes an axis."""
    assert not hasattr(model.PatternSet(np.ones((2, 3))), "intensities")
    summing = [(path.stem, top.name)
               for path in sorted(Path(spi_recon.__file__).parent.glob("*.py"))
               for top in ast.parse(path.read_text()).body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sum"
               and any(k.arg == "axis" for k in node.keywords)]
    assert summing == [("solvers", "dgi_reconstruct")]


SOLVER_PARAMS = ["patterns", "meas", "width", "height", "stop"]


@pytest.mark.parametrize("fn, params", [
    (metrics.normalized_rmse, ["truth", "estimate"]),
    (io.write_image, ["img", "path"]),
    (solvers.backtracking_search, ["objective", "x", "p"]),
    (bench.run_sweep, ["spec"]),
    (solvers.cgd_solve, SOLVER_PARAMS),
    (solvers.gd_optimal_step, ["Ap", "r"]),
    (solvers.ap_update, ["a", "b_i", "amax2", "x", "buf"]),
    (io.write_measurements, ["meas", "width", "height", "path"]),
])
def test_signatures_have_no_test_only_options(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_every_solver_has_the_one_signature():
    """Every registry entry, and every public function that returns a
    SolverReport, takes exactly (patterns, meas, width, height, stop)."""
    public = [getattr(solvers, name) for name in solvers.__all__]
    reporting = [fn for fn in public if inspect.isfunction(fn)
                 and inspect.signature(fn).return_annotation is solvers.SolverReport]
    assert len(reporting) == 7
    for fn in reporting + [fn for _, fn in solvers.solver_registry()]:
        assert list(inspect.signature(fn).parameters) == SOLVER_PARAMS, fn.__name__


def _owners(path, names):
    """The top-level definition around each call in path to one of names,
    made bare or as an attribute."""
    tree = ast.parse(Path(path).read_text())
    return [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def test_only_the_solver_decorator_constructs_a_run():
    """_solver states the one protocol for every solver: no other place in
    solvers.py enters a _Run of its own."""
    assert _owners(solvers.__file__, {"_Run"}) == ["_solver"]


def test_only_the_solver_decorator_enters_numpys_mode():
    """_solver enters np.errstate itself; _Run is plain state, with no
    context-manager protocol of its own."""
    assert _owners(solvers.__file__, {"errstate"}) == ["_solver"]
    assert not hasattr(solvers._Run, "__enter__") and not hasattr(solvers._Run, "__exit__")


def test_only_io_output_removes_a_file():
    """io._output is the one code in the library that removes a file."""
    removing = [(path.stem, owner)
                for path in sorted(Path(spi_recon.__file__).parent.glob("*.py"))
                for owner in _owners(path, {"remove", "unlink", "rmtree", "rmdir"})]
    assert removing == [("io", "_output")]


def test_only_io_input_opens_a_file_for_reading():
    """Every open() (and os.open()) in the library is inside io._input, which
    refuses a path that is not a regular file, or inside io._output."""
    opening = {(path.stem, owner)
               for path in sorted(Path(spi_recon.__file__).parent.glob("*.py"))
               for owner in _owners(path, {"open"})}
    assert opening == {("io", "_input"), ("io", "_output")}


def test_only_io_check_path_states_the_nul_rule():
    """No path holds a NUL byte: the "\\0" literal is in io._check_path alone, which
    _input, _output, cli._check_paths and SweepSpec's .pgm scenes call."""
    nul = [(path.stem, getattr(top, "name", None))
           for path in sorted(Path(spi_recon.__file__).parent.glob("*.py"))
           for top in ast.parse(path.read_text()).body for node in ast.walk(top)
           if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
           and ("\0" if isinstance(node.value, str) else b"\0") in node.value]
    assert nul == [("io", "_check_path")]


def test_the_solvers_take_points_through_one_intake():
    """_at is the one intake of gd_gradient, poisson_objective and poisson_gradient;
    backtracking_search takes its x and p by the same rule, and nothing else calls it."""
    assert set(_owners(solvers.__file__, {"_intake"})) == {"_at", "backtracking_search"}
    assert not hasattr(solvers, "_check_point") and not hasattr(solvers, "_clamp_signed")


def _says_unknown(message):
    """Whether message, a str or f-string node, starts with "unknown "."""
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    return isinstance(message, ast.Constant) and str(message.value).startswith("unknown ")


def test_only_model_check_name_refuses_an_unknown_name():
    """model._check_name is the one code in the library that refuses a name
    not in its table: every solver, scene and distribution name goes through it."""
    raising = [(path.stem, getattr(top, "name", None))
               for path in sorted(Path(spi_recon.__file__).parent.glob("*.py"))
               for top in ast.parse(path.read_text()).body for node in ast.walk(top)
               if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and node.exc.args and _says_unknown(node.exc.args[0])]
    assert raising == [("model", "_check_name")]


def test_cli_main_reports_every_refusal_from_one_handler():
    tree = ast.parse(Path(cli.__file__).read_text())
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert len([node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]) == 1


def test_every_solver_is_the_one_solver_decorator():
    """Each public solver and registry entry runs _solver's one inner
    function, and keeps its own name, docstring and signature."""
    public = [getattr(solvers, name) for name in solvers.__all__]
    reporting = [fn for fn in public if inspect.isfunction(fn)
                 and inspect.signature(fn).return_annotation is solvers.SolverReport]
    entries = reporting + [fn for _, fn in solvers.solver_registry()]
    assert len({fn.__code__ for fn in entries}) == 1
    assert entries[0].__code__ in solvers._solver.__code__.co_consts
    assert all(getattr(solvers, fn.__name__) is fn and fn.__doc__ for fn in reporting)
    assert not [fn for fn in entries if hasattr(fn, "__wrapped__")]


SOURCES = sorted(Path(spi_recon.__file__).parent.glob("*.py"))


def _name_of(node):
    """The bare name a decorator or call node calls, as ``dataclass`` in
    ``@dataclass`` and ``@dataclass(frozen=True)``; None for an attribute."""
    return getattr(getattr(node, "func", node), "id", None)


def test_every_record_is_frozen():
    """A field of a record is set only by the constructor that checks it."""
    records = [(path.stem, node.name, d) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
               for d in node.decorator_list if _name_of(d) == "dataclass"]
    thawed = [(module, name) for module, name, d in records
              if not any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                         for kw in getattr(d, "keywords", []))]
    assert (len(records), thawed) == (9, [])


def _self_writes(tree):
    """Each __post_init__'s writes to self: an assignment to self.<attr>, or setattr(self, ...)."""
    return [(top.name, ast.unparse(node)) for top in tree.body if isinstance(top, ast.ClassDef)
            for fn in top.body if getattr(fn, "name", None) == "__post_init__"
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
            or isinstance(node, ast.Call) and _name_of(node) == "setattr"]


def test_records_write_their_checked_fields_only_through_model_hold():
    """No __post_init__ assigns to self, and model._hold alone writes past a
    frozen record's __setattr__, with vars(...) or object.__setattr__."""
    assert [write for path in SOURCES for write in _self_writes(ast.parse(path.read_text()))] == []
    writers = [(path.stem, owner) for path in SOURCES
               for owner in _owners(path, {"vars", "__setattr__"})]
    assert writers == [("model", "_hold")]


def test_linear_operator_fields():
    assert [f.name for f in dataclasses.fields(transforms.LinearOperator)] == [
        "apply", "apply_transpose"]


IMPORT_HYGIENE = """
import sys
from pathlib import Path

import numpy as np
import spi_recon, spi_recon.cli
heavy = [name for name in ("scipy", "numpy.random") if name in sys.modules]
assert not heavy, f"importing spi_recon loads {heavy}"

from spi_recon import cli, io, scenes
tmp = Path(sys.argv[1])
assert cli.main(["gen-patterns", "--m", "4", "--width", "2", "--height", "2",
                 "--seed", "-1", "--out", str(tmp / "bad.spib")]) == 1
assert "numpy.random" not in sys.modules, "checking a seed loads numpy.random"
io.write_image(scenes.builtin_scene("blocks", 4, 4), tmp / "scene.pgm")
for argv in (["gen-patterns", "--m", "24", "--width", "4", "--height", "4",
              "--out", str(tmp / "pat.spib")],
             ["simulate", "--patterns", str(tmp / "pat.spib"), "--scene",
              str(tmp / "scene.pgm"), "--out", str(tmp / "meas.spib")],
             ["reconstruct", "--solver", "dgi", "--patterns", str(tmp / "pat.spib"),
              "--measurements", str(tmp / "meas.spib"), "--out", str(tmp / "dgi.pgm")],
             ["reconstruct", "--solver", "cs-dct", "--patterns", str(tmp / "pat.spib"),
              "--measurements", str(tmp / "meas.spib"), "--out", str(tmp / "dct.pgm")]):
    assert cli.main(argv) == 0, argv
op = spi_recon.dct_operator(4, 4)
op.apply_transpose(op.apply(np.ones(16)))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"spi_recon loads {loaded}"
"""


def test_scipy_never_loads_and_numpy_random_only_when_used(tmp_path, run_python):
    """Importing the library loads neither scipy nor numpy.random, nor does
    refusing a bad seed; no path loads scipy, the DCT operator and a CLI
    cs-dct reconstruct included."""
    out = run_python(IMPORT_HYGIENE, tmp_path)
    assert out.returncode == 0, out.stderr


# names the per-layer tracer in perfbench/layertrace.py swaps out on spi_recon.solvers
TRACED_SOLVER_NAMES = [
    "get_solver",
    "gd_gradient",
    "gd_optimal_step",
    "poisson_gradient",
    "backtracking_search",
    "ap_update",
    "soft_threshold",
    "dct_operator",
    "gradient_operator",
]


@pytest.mark.parametrize("name", TRACED_SOLVER_NAMES)
def test_traced_names_exist_on_solvers(name):
    assert callable(getattr(solvers, name))


# model and solver names perfbench/layertrace.py swaps out on spi_recon.cli
TRACED_CLI_NAMES = ["generate_patterns", "synthesize", "add_noise", "get_solver"]


@pytest.mark.parametrize("name", TRACED_CLI_NAMES)
def test_traced_names_exist_on_cli(name):
    assert callable(getattr(cli, name))


ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    """Each demo imports cleanly (main is not run), so pruning a public name
    a demo still uses fails here; a demo's SweepSpec grids are checked as it imports."""
    assert callable(_load_demo(path).main)


def test_every_demo_grid_runs(capsys):
    """ratio_and_noise's tables, on its own grids cut to 8x8 and one repeat: a header and a
    column line per grid, then one row per axis value with one cell per solver."""
    demo = _load_demo(DEMOS[0].parent / "ratio_and_noise.py")
    grids = [("RATIO_GRID", "ratio", "sampling_ratios", "5.1f"),
             ("NOISE_GRID", "noise", "noise_levels", "5.0e")]
    for name, *_ in grids:
        setattr(demo, name, dataclasses.replace(getattr(demo, name), image_sizes=[(8, 8)],
                                                repeats=1))
    demo.main()
    lines = capsys.readouterr().out.splitlines()
    for name, label, axis, fmt in grids:
        spec = getattr(demo, name)
        header, columns, *lines = lines
        assert header.startswith("scene=blocks size=8x8 ")
        assert header.endswith(", mean rmse over 1 seeds")
        assert columns.split() == [label, *spec.solvers]
        values = getattr(spec, axis)
        rows, lines = lines[:len(values)], lines[len(values):]
        assert [row.split()[0] for row in rows] == [f"{v:{fmt}}".strip() for v in values]
        assert all(len(row.split()) == 1 + len(spec.solvers) for row in rows)
    assert not lines


def test_the_solver_leaderboard_grid_runs(capsys):
    """compare_solvers on its grid cut to 8x8: a header, the column line and one row per
    registry solver, in registry order; a solver's "failed:" status is its row."""
    demo = _load_demo(DEMOS[0].parent / "compare_solvers.py")
    demo.SOLVER_GRID = dataclasses.replace(demo.SOLVER_GRID, image_sizes=[(8, 8)])
    demo.main()
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header == "scene=blocks size=8x8 ratio=1.0 clean"
    assert columns.split() == ["solver", "rmse", "iters", "time"]
    assert [row.split()[0] for row in rows] == [name for name, _ in solvers.solver_registry()]


def test_no_line_is_longer_than_100_characters():
    """Every line of src/, demos/ and tests/ holds at most 100 characters, so a tally of
    src/'s lines cannot shrink by joining them."""
    long_lines = [f"{path.relative_to(ROOT)}:{number}"
                  for folder in ("src", "demos", "tests")
                  for path in sorted((ROOT / folder).rglob("*.py"))
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > 100]
    assert long_lines == []
