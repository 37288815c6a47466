import threading
from itertools import product

import numpy as np
import pytest

from spi_recon import bench, cli
from spi_recon.bench import (
    SweepSpec,
    parse_sweep_config,
    run_cell,
    run_sweep,
    stable_seed,
)
from spi_recon.errors import InvalidArgumentError, UnknownSolverError
from spi_recon.io import read_results_csv, write_image
from spi_recon.scenes import builtin_scene


def small_spec(**overrides):
    kwargs = dict(
        scenes=["blocks"],
        solvers=["dgi"],
        sampling_ratios=[0.5],
        image_sizes=[(8, 8)],
        noise_levels=[0.0],
        repeats=3,
        base_seed=77,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_stable_seed_is_deterministic_and_spread():
    a = stable_seed(1, "x", 0.5)
    assert a == stable_seed(1, "x", 0.5)
    assert a != stable_seed(1, "x", 0.6)
    assert 0 <= a < 2**63


def test_run_cell_exact_solve_ratio_one():
    row = run_cell("blocks", "pinv", 2.0, 8, 8, 0.0, 0, base_seed=1)
    assert row.status == "ok"
    assert row.rmse < 1e-8


def test_run_cell_deterministic_modulo_walltime():
    a = run_cell("blocks", "cgd", 0.5, 8, 8, 0.0, 0, base_seed=5)
    b = run_cell("blocks", "cgd", 0.5, 8, 8, 0.0, 0, base_seed=5)
    assert (a.rmse, a.iterations, a.seed, a.status) == (
        b.rmse,
        b.iterations,
        b.seed,
        b.status,
    )


def test_run_cell_tv_half_sampling_quality():
    row = run_cell("blocks", "cs-tv", 0.5, 32, 32, 0.0, 0, base_seed=3)
    assert row.status == "ok" and row.rmse < 0.05


def test_run_cell_solver_failure_is_recorded():
    row = run_cell("blocks", "pinv", 0.2, 8, 8, 0.0, 0, base_seed=1)
    assert row.status.startswith("failed:")
    assert row.rmse is None


def test_a_failed_row_names_the_exception_type():
    """sweep-32's pinv cell at ratio 0.2; the row used to hold only the message."""
    row = run_cell("blocks", "pinv", 0.2, 32, 32, 0.0, 0)
    assert row.status == ("failed:SingularSystemError: "
                          "m=205 < n=1024: normal equations are rank-deficient")


def test_run_sweep_row_count():
    rows = run_sweep(small_spec())
    assert len(rows) == 3
    assert [r.repeat for r in rows] == [0, 1, 2]


def test_benchmark_runs_cells_on_the_calling_thread_in_grid_order(tmp_path, monkeypatch):
    calls = []
    original = bench.run_cell

    def recording_run_cell(scene, solver, ratio, width, height, level, repeat, **kw):
        calls.append((threading.get_ident(), solver, ratio, repeat))
        return original(scene, solver, ratio, width, height, level, repeat, **kw)

    monkeypatch.setattr(bench, "run_cell", recording_run_cell)
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "results.csv"
    cfg.write_text("scenes = blocks\nsolvers = dgi, cgd\nsampling_ratios = 0.5, 1.0\n"
                   "image_sizes = 8x8\nnoise_levels = 0\nrepeats = 2\n")
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    grid = list(product(["dgi", "cgd"], [0.5, 1.0], range(2)))
    assert [c[1:] for c in calls] == grid
    assert {c[0] for c in calls} == {threading.get_ident()}
    rows = read_results_csv(out)
    assert [(r["solver"], float(r["ratio"]), int(r["repeat"])) for r in rows] == grid


def test_run_cell_programming_errors_propagate(monkeypatch):
    def broken_solver(*args, **kwargs):
        raise TypeError("a bug, not a failed cell")

    monkeypatch.setattr(bench, "get_solver", lambda name: broken_solver)
    with pytest.raises(TypeError, match="a bug"):
        run_cell("blocks", "cgd", 0.5, 8, 8, 0.0, 0)


def test_unreadable_pgm_scene_gives_failed_rows(tmp_path):
    corrupt = tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P5\n8 8\n255\n" + bytes(10))  # payload truncated
    scenes = [str(tmp_path / "missing.pgm"), str(corrupt), "blocks"]
    rows = run_sweep(small_spec(scenes=scenes, solvers=["dgi", "cgd"], repeats=1))
    assert [r.scene for r in rows] == [s for s in scenes for _ in range(2)]
    for r in rows[:4]:
        assert r.status.startswith("failed:") and r.rmse is None
    assert [r.status for r in rows[4:]] == ["ok", "ok"]


ALLOCATION = "Unable to allocate 24.4 GiB for an array with shape (128000, 25600)"


@pytest.mark.parametrize("exc, status", [
    (MemoryError(ALLOCATION), f"failed:MemoryError: {ALLOCATION}"),
    (MemoryError(), "failed:MemoryError"),
])
def test_a_cell_that_cannot_be_allocated_is_a_failed_row(tmp_path, monkeypatch, exc, status):
    """A at 160x160 and ratio 5 is 24.4 GiB: its MemoryError killed the sweep
    and lost the finished 8x8 row.  The allocation fails here by a stand-in,
    since whether 24.4 GiB fails at once depends on the machine."""
    generate = bench.generate_patterns

    def generate_within_memory(m, width, height, *args, **kwargs):
        if width * height > 100:
            raise exc
        return generate(m, width, height, *args, **kwargs)

    monkeypatch.setattr(bench, "generate_patterns", generate_within_memory)
    config, out = tmp_path / "sweep.cfg", tmp_path / "res.csv"
    config.write_text("solvers = dgi\nscenes = blocks\nsampling_ratios = 5\n"
                      "image_sizes = 8x8, 160x160\nnoise_levels = 0\nrepeats = 1\n")
    assert cli.main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
    rows = read_results_csv(out)
    assert [(r["size"], r["status"]) for r in rows] == [("8x8", "ok"), ("160x160", status)]
    assert rows[1]["rmse"] == "" and rows[1]["seed"] != "0"


def test_a_pgm_scene_runs_once_per_cell_of_the_other_axes(tmp_path):
    """A PGM keeps its own size, so the image sizes do not repeat its cells;
    a builtin scene still runs at each size, in grid order."""
    path = tmp_path / "scene.pgm"
    write_image(builtin_scene("bars", 12, 10), path)
    spec = small_spec(scenes=[str(path), "blocks"], solvers=["dgi", "cgd"],
                      image_sizes=[(8, 8), (16, 16), (32, 32)], repeats=2)
    rows = run_sweep(spec)
    assert [(r.scene, r.solver, r.size, r.repeat) for r in rows] == (
        [(str(path), solver, "12x10", rep) for solver in ("dgi", "cgd") for rep in range(2)]
        + [("blocks", solver, f"{s}x{s}", rep)
           for solver in ("dgi", "cgd") for s in (8, 16, 32) for rep in range(2)])
    assert all(r.status == "ok" for r in rows)


def test_parse_sweep_config_refuses_a_repeated_key():
    """The second of two solvers lines silently won."""
    with pytest.raises(InvalidArgumentError,
                       match="config line 4: solvers is already set on line 2"):
        parse_sweep_config("scenes = blocks\nsolvers = dgi\n# a comment\nsolvers = cgd\n")


def test_noise_seed_shared_across_levels():
    # same cell at two noise levels sees proportionally scaled noise
    a = run_cell("blocks", "dgi", 1.0, 8, 8, 1e-4, 0, base_seed=9)
    b = run_cell("blocks", "dgi", 1.0, 8, 8, 1e-3, 0, base_seed=9)
    assert a.seed == b.seed


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SweepSpec(scenes=[], solvers=["dgi"])
    with pytest.raises(InvalidArgumentError):
        small_spec(repeats=0)
    with pytest.raises(InvalidArgumentError):
        small_spec(sampling_ratios=[0.0])
    with pytest.raises(InvalidArgumentError):
        small_spec(image_sizes=[(1, 8)])
    # run_sweep died on these with a bare TypeError
    with pytest.raises(InvalidArgumentError, match="an image size must be an integer, got 8.5"):
        small_spec(image_sizes=[(8.5, 8)])
    with pytest.raises(InvalidArgumentError, match="repeats must be an integer, got 1.5"):
        small_spec(repeats=1.5)


def test_spec_refuses_unknown_solver_and_builtin_scene_names():
    with pytest.raises(UnknownSolverError, match="unknown solver 'nope'; valid names: pinv"):
        small_spec(solvers=["corr", "nope"])
    with pytest.raises(InvalidArgumentError, match="unknown scene 'nope'; builtins"):
        small_spec(scenes=["blocks", "nope"])
    assert small_spec(scenes=["missing.pgm"]).scenes == ["missing.pgm"]  # read per cell


def test_spec_refuses_an_unknown_distribution_before_the_first_cell(tmp_path, capsys):
    """Before, a sweep of PGM scenes ran every cell and wrote only failed: rows."""
    missing = str(tmp_path / "missing.pgm")
    with pytest.raises(InvalidArgumentError,
                       match="unknown distribution 'foo'; valid: uniform01, binary"):
        small_spec(scenes=[missing], distribution="foo")
    assert small_spec(distribution="binary").distribution == "binary"
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text(f"scenes = {missing}\nsolvers = corr\ndistribution = foo\n")
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error: unknown distribution 'foo'")
    assert not out.exists()


def test_run_cell_unknown_solver_reason_is_the_plain_message():
    row = run_cell("blocks", "nope", 0.5, 8, 8, 0.0, 0)
    assert row.status.startswith(
        "failed:UnknownSolverError: unknown solver 'nope'; valid names: pinv, ")


def test_parse_sweep_config_roundtrip():
    text = """
    # benchmark config
    scenes = blocks, bars
    solvers = dgi, cs-tv
    sampling_ratios = 0.2, 1.0
    image_sizes = 16x16, 32
    noise_levels = 0, 1e-3
    repeats = 4
    base_seed = 99
    distribution = binary
    """
    spec = parse_sweep_config(text)
    assert spec.scenes == ["blocks", "bars"]
    assert spec.solvers == ["dgi", "cs-tv"]
    assert spec.sampling_ratios == [0.2, 1.0]
    assert spec.image_sizes == [(16, 16), (32, 32)]
    assert spec.noise_levels == [0.0, 1e-3]
    assert spec.repeats == 4 and spec.base_seed == 99
    assert spec.distribution == "binary"


def test_parse_sweep_config_rejects_unknown_key():
    with pytest.raises(InvalidArgumentError, match="unknown key"):
        parse_sweep_config("scenes=blocks\nsolvers=dgi\nbogus=1\n")


@pytest.mark.parametrize("line", [
    "repeats = abc",
    "base_seed = 1.5",
    "image_sizes = 32x",
    "image_sizes = x32",
    "sampling_ratios = 0.2,x",
    "sampling_ratios = nan",
    "sampling_ratios = inf",
    "noise_levels = -1",
    "noise_levels = nan",
    "noise_levels = 0, inf",
])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"scenes = blocks\nsolvers = dgi\nimage_sizes = 8x8\n{line}\n")
    out = tmp_path / "results.csv"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_value_names_its_line():
    with pytest.raises(InvalidArgumentError, match="config line 3: bad repeats value"):
        parse_sweep_config("scenes = blocks\nsolvers = dgi\nrepeats = abc\n")


def test_run_cell_rejects_bad_noise_level():
    for level in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="noise level"):
            run_cell("blocks", "dgi", 1.0, 8, 8, level, 0)


def test_parse_sweep_config_requires_scenes_and_solvers():
    with pytest.raises(InvalidArgumentError):
        parse_sweep_config("solvers=dgi\n")


def test_desk_preset_overrides(tmp_path, monkeypatch):
    """benchmark --desk runs the config's spec at 32x32 with 5 repeats and
    leaves every other field as the config sets it."""
    specs, row = [], run_cell("blocks", "dgi", 0.5, 8, 8, 0.0, 0)
    monkeypatch.setattr(bench, "run_sweep", lambda spec: specs.append(spec) or [row])
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text("scenes = blocks\nsolvers = dgi\nsampling_ratios = 0.5\n"
                   "image_sizes = 64x64\nnoise_levels = 0\nrepeats = 20\nbase_seed = 77\n")
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out), "--desk"]) == 0
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    assert specs == [small_spec(repeats=5, image_sizes=[(32, 32)]),
                     small_spec(repeats=20, image_sizes=[(64, 64)])]


def test_ratio_trend_smoke():
    # error shrinks as sampling ratio grows, for a fast solver
    means = {}
    for ratio in (0.2, 1.0):
        rows = [run_cell("blocks", "cgd", ratio, 16, 16, 0.0, rep, base_seed=4)
                for rep in range(3)]
        means[ratio] = np.mean([r.rmse for r in rows])
    assert means[1.0] < means[0.2]


def test_pgm_scene_reference(tmp_path):
    from spi_recon.io import write_image
    from spi_recon.scenes import builtin_scene

    path = tmp_path / "scene.pgm"
    write_image(builtin_scene("bars", 8, 8), path)
    row = run_cell(str(path), "cgd", 2.0, 999, 999, 0.0, 0, base_seed=2)
    assert row.status == "ok"
    assert row.size == "8x8"  # file size wins over the grid size
