"""Pins the public surface: adding or removing a public name is a visible diff."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

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
        "alm_solve",
        "solver_registry",
        "get_solver",
    ]


def test_bench_public_names():
    assert bench.__all__ == [
        "SweepSpec",
        "SweepRow",
        "stable_seed",
        "run_cell",
        "run_sweep",
        "parse_sweep_config",
        "desk_preset",
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


def test_pattern_set_fields():
    assert [f.name for f in dataclasses.fields(model.PatternSet)] == ["rows", "seed"]
    assert not hasattr(model.PatternSet, "from_matrix")


@pytest.mark.parametrize("fn, params", [
    (metrics.normalized_rmse, ["truth", "estimate"]),
    (io.write_image, ["img", "path"]),
    (solvers.backtracking_search, ["objective", "x", "p"]),
])
def test_signatures_have_no_test_only_options(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_linear_operator_fields():
    assert [f.name for f in dataclasses.fields(transforms.LinearOperator)] == [
        "apply", "apply_transpose", "in_dim", "out_dim"]


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


def test_scipy_never_loads_and_numpy_random_only_when_used(tmp_path):
    """Importing the library loads neither scipy nor numpy.random, nor does
    refusing a bad seed; no path loads scipy, the DCT operator and a CLI
    cs-dct reconstruct included."""
    src = Path(spi_recon.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
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


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    """Each demo imports cleanly (main is not run), so pruning a public name
    a demo still uses fails here."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
