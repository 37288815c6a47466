import re
import threading
from dataclasses import replace
from fractions import Fraction
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
from spi_recon.model import generate_patterns
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import get_solver


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


def test_a_pgm_scene_that_holds_a_nul_byte_fails_its_cell_and_is_refused_by_a_spec():
    """run_cell let open()'s bare ValueError ("embedded null byte") out instead of
    recording the cell, and SweepSpec took the scene."""
    row = run_cell("a\0b.pgm", "dgi", 0.5, 8, 8, 0.0, 0)
    assert (row.status, row.rmse) == ("failed:InvalidArgumentError: 'a\\x00b.pgm' holds a NUL "
                                      "byte, which no path can", None)
    with pytest.raises(InvalidArgumentError, match=re.escape("scene 'a\\x00b.pgm' holds a NUL")):
        small_spec(scenes=["blocks", "a\0b.pgm"])


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


def test_a_scene_that_cannot_be_allocated_is_a_failed_row(tmp_path, monkeypatch):
    """builtin_scene ran outside run_cell's MemoryError handler, so a scene
    too large for memory killed the sweep and lost the finished 8x8 row."""
    render = bench.builtin_scene

    def render_within_memory(name, width, height):
        if width * height > 100:
            raise MemoryError(ALLOCATION)
        return render(name, width, height)

    monkeypatch.setattr(bench, "builtin_scene", render_within_memory)
    config, out = tmp_path / "sweep.cfg", tmp_path / "res.csv"
    config.write_text("solvers = dgi\nscenes = blocks\nsampling_ratios = 5\n"
                      "image_sizes = 8x8, 160x160\nnoise_levels = 0\nrepeats = 1\n")
    assert cli.main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
    rows = read_results_csv(out)
    assert [(r["size"], r["status"]) for r in rows] == [
        ("8x8", "ok"), ("160x160", f"failed:MemoryError: {ALLOCATION}")]
    assert rows[1]["rmse"] == "" and rows[1]["seed"] == "0"  # no patterns were seeded


def test_a_pgm_scene_that_cannot_be_allocated_is_a_failed_row(tmp_path, monkeypatch):
    def read_past_memory(path):
        raise MemoryError(ALLOCATION)

    monkeypatch.setattr(bench, "read_image", read_past_memory)
    row = run_cell(str(tmp_path / "scene.pgm"), "dgi", 0.5, 8, 8, 0.0, 0)
    assert (row.status, row.seed, row.rmse) == (f"failed:MemoryError: {ALLOCATION}", 0, None)


DIVERGED = "failed:NumericalFailureError: residual diverged"
RHS_OVERFLOWED = "failed:NumericalFailureError: norm of the ALM rhs overflowed (iteration 1)"
OVERFLOW_STATUS = {  # solver -> status at noise levels 1e100, 1e150, 1e152
    "pinv": ["ok", "ok", f"{DIVERGED} (iteration 0)"],
    "corr": ["ok", "ok", f"{DIVERGED} (iteration 0)"],
    "dgi": ["ok", "ok", f"{DIVERGED} (iteration 0)"],
    "gd": ["ok", f"{DIVERGED} (iteration 1)", f"{DIVERGED} (iteration 1)"],
    "cgd": ["ok"] + 2 * ["failed:NumericalFailureError: norm of A^T b overflowed (iteration 0)"],
    "poisson": ["ok"] + 2 * ["failed:NumericalFailureError: the gradient's squared norm "
                             "overflowed (iteration 1)"],
    "ap": ["ok", f"{DIVERGED} (iteration 16)", f"{DIVERGED} (iteration 1)"],
    "cs-dct": ["ok", RHS_OVERFLOWED, RHS_OVERFLOWED],
    "cs-tv": ["ok", RHS_OVERFLOWED, RHS_OVERFLOWED],
}


@pytest.mark.parametrize("solver", OVERFLOW_STATUS)
def test_each_overflow_status_is_pinned(solver):
    """Readings of order 1e100 to 1e152 times the pixel count: every solver's
    status, so a changed message or a newly silent overflow shows here.  At
    1e150 an overflowed ||rhs|| made the ALM's inner-CG tolerance inf, every
    inner CG stopped at step 0, and cs-dct and cs-tv returned the all-zero
    image as an ok row (rmse 0.7435352)."""
    statuses = [run_cell("blocks", solver, 2.0, 16, 16, level, 0).status
                for level in (1e100, 1e150, 1e152)]
    assert statuses == OVERFLOW_STATUS[solver]


@pytest.mark.parametrize("level", [1e50, 1e80])
def test_poisson_solves_cells_of_large_readings(level):
    """The Armijo search once stopped after 200 halvings of its step, which at
    readings this large left every trial above the sufficient-decrease line:
    a LineSearchFailureError.  It now halves until the step underflows to 0."""
    assert run_cell("blocks", "poisson", 2.0, 16, 16, level, 0).status == "ok"


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


def test_a_pgm_suffix_in_any_case_is_a_pgm_scene(tmp_path, monkeypatch):
    """Scene.PGM was refused as an unknown builtin scene by SweepSpec and
    run_cell, though read_image reads it.  The scene name seeds its cells, so
    the seed is fixed here to compare the rows of the same bytes."""
    upper, lower = tmp_path / "Scene.PGM", tmp_path / "scene.pgm"
    write_image(builtin_scene("bars", 12, 10), upper)
    lower.write_bytes(upper.read_bytes())
    assert small_spec(scenes=[str(upper)]).scenes == (str(upper),)
    monkeypatch.setattr(bench, "stable_seed", lambda *parts: 5)
    rows = [run_cell(str(path), "dgi", 0.5, 8, 8, 0.0, 0) for path in (upper, lower)]
    assert rows[0].status == "ok" and rows[0].size == "12x10"
    assert len({replace(row, scene="", wall_time_s=0.0) for row in rows}) == 1


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
    with pytest.raises(InvalidArgumentError, match="^a sweep must state scenes$"):
        small_spec(scenes=[])
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
    with pytest.raises(InvalidArgumentError, match="unknown scene 'nope'; valid names"):
        small_spec(scenes=["blocks", "nope"])
    assert small_spec(scenes=["missing.pgm"]).scenes == ("missing.pgm",)  # read per cell


def test_spec_refuses_an_unknown_distribution_before_the_first_cell(tmp_path, capsys):
    """Before, a sweep of PGM scenes ran every cell and wrote only failed: rows."""
    missing = str(tmp_path / "missing.pgm")
    with pytest.raises(InvalidArgumentError,
                       match="unknown distribution 'foo'; valid names: uniform01, binary"):
        small_spec(scenes=[missing], distribution="foo")
    assert small_spec(distribution="binary").distribution == "binary"
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text(f"scenes = {missing}\nsolvers = corr\nsampling_ratios = 0.5\n"
                   "image_sizes = 8\nnoise_levels = 0\ndistribution = foo\n")
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
    assert spec.scenes == ("blocks", "bars")
    assert spec.solvers == ("dgi", "cs-tv")
    assert spec.sampling_ratios == (0.2, 1.0)
    assert spec.image_sizes == ((16, 16), (32, 32))
    assert spec.noise_levels == (0.0, 1e-3)
    assert spec.repeats == 4 and spec.base_seed == 99
    assert spec.distribution == "binary"


def test_parse_sweep_config_rejects_unknown_key():
    with pytest.raises(InvalidArgumentError, match="unknown key"):
        parse_sweep_config("scenes=blocks\nsolvers=dgi\nbogus=1\n")


GRID = {"sampling_ratios": "0.5", "image_sizes": "8x8", "noise_levels": "0"}


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
    grid = "".join(f"{k} = {v}\n" for k, v in GRID.items() if not line.startswith(k))
    cfg.write_text(f"scenes = blocks\nsolvers = dgi\n{grid}{line}\n")
    out = tmp_path / "results.csv"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


LISTS = {"scenes": "blocks, bars", "solvers": "dgi, cgd", "sampling_ratios": "0.2, 1",
         "image_sizes": "8x8, 16", "noise_levels": "0, 1e-3"}
BLANKS = {"trailing-comma": "{}, {},", "doubled-comma": "{},, {}", "blank-entry": "{}, , {}",
          "empty-value": ""}


@pytest.mark.parametrize("form", BLANKS.values(), ids=list(BLANKS))
@pytest.mark.parametrize("key", list(LISTS))
def test_every_config_list_drops_its_blank_entries(key, form):
    """One list rule reads all five grid keys.  Before, a blank entry of a
    ratio, size or level list was refused as a bad number ("could not
    convert string to float: ''"), where a name list dropped it."""
    def config(value):
        return "".join(f"{k} = {value if k == key else v}\n" for k, v in LISTS.items())
    if not form:
        with pytest.raises(InvalidArgumentError, match=f"^a sweep must state {key}$"):
            parse_sweep_config(config(""))
    else:
        assert parse_sweep_config(config(form.format(*LISTS[key].split(", ")))) == (
            parse_sweep_config(config(LISTS[key])))


def test_malformed_config_value_names_its_line():
    with pytest.raises(InvalidArgumentError, match="config line 3: bad repeats value"):
        parse_sweep_config("scenes = blocks\nsolvers = dgi\nrepeats = abc\n")


def test_run_cell_rejects_bad_noise_level():
    for level in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="noise level"):
            run_cell("blocks", "dgi", 1.0, 8, 8, level, 0)


def test_parse_sweep_config_requires_scenes_and_solvers():
    with pytest.raises(InvalidArgumentError, match="a sweep must state scenes, sampling_ratios"):
        parse_sweep_config("solvers=dgi\n")


def test_a_spec_must_state_its_grid():
    """The grid took 6 ratios x 5 sizes x 5 levels by default, 27,000 cells a
    scene with all 9 solvers at 20 repeats; its 160x160 cells at ratio 5
    need a 24.4 GiB A."""
    with pytest.raises(InvalidArgumentError, match="^a sweep must state sampling_ratios, "
                                                   "image_sizes, noise_levels$"):
        SweepSpec(["blocks"], ["dgi"])
    with pytest.raises(InvalidArgumentError, match="^a sweep must state scenes, solvers, "
                                                   "image_sizes$"):
        SweepSpec([], None, [0.5], [], [0.0])  # an empty axis is named as a missing one


@pytest.mark.parametrize("missing", [[key] for key in GRID] + [list(GRID)],
                         ids=[*GRID, "all-three"])
def test_a_config_that_leaves_out_an_axis_is_usage_error(tmp_path, capsys, monkeypatch,
                                                         missing):
    """Before, the axis silently took its default, and the sweep ran."""
    specs = []
    monkeypatch.setattr(bench, "run_sweep", lambda spec: specs.append(spec) or [])
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    grid = "".join(f"{k} = {v}\n" for k, v in GRID.items() if k not in missing)
    cfg.write_text(f"scenes = blocks\nsolvers = dgi\n{grid}repeats = 1\n")
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: a sweep must state {', '.join(missing)}\n"
    assert specs == [] and not out.exists()


@pytest.mark.parametrize("axis", list(GRID))
def test_an_empty_axis_is_refused_at_construction(axis):
    """Before, an empty sampling_ratios, image_sizes or noise_levels was
    accepted, and the sweep ran no cell."""
    with pytest.raises(InvalidArgumentError, match=f"^a sweep must state {axis}$"):
        small_spec(**{axis: []})


def test_an_axis_may_be_a_numpy_array():
    """An axis is tested by its length, so an array of two values is one."""
    arrays = small_spec(scenes=np.array(["blocks", "bars"]), repeats=1,
                        sampling_ratios=np.array([0.5, 1.0]), noise_levels=np.array([0.0, 1e-3]))
    lists = small_spec(scenes=["blocks", "bars"], repeats=1,
                       sampling_ratios=[0.5, 1.0], noise_levels=[0.0, 1e-3])
    assert _without_time(run_sweep(arrays)) == _without_time(run_sweep(lists))


@pytest.mark.parametrize("axis, value", [
    ("scenes", "blocks"), ("solvers", "dgi"), ("solvers", b"dgi"),
    ("noise_levels", 0.0), ("sampling_ratios", 0.5), ("image_sizes", 8),
    ("noise_levels", np.array(0.0)),
], ids=["str-scenes", "str-solvers", "bytes-solvers", "scalar-level", "scalar-ratio",
        "scalar-size", "0d-array"])
def test_a_string_or_scalar_axis_is_refused_by_name(axis, value):
    """A string axis was split into characters ("unknown scene 'b'"), and a
    scalar one died in len() with a bare TypeError."""
    with pytest.raises(InvalidArgumentError, match=f"^{axis} must be a list, got "):
        small_spec(**{axis: value})


@pytest.mark.parametrize("axis, name", [
    ("scenes", None), ("scenes", b"blocks"), ("scenes", ["blocks"]),
    ("solvers", ["dgi"]),
], ids=["None-scene", "bytes-scene", "list-scene", "list-solver"])
def test_a_name_that_is_not_a_string_is_refused(axis, name):
    """These died with a bare AttributeError (.endswith) or TypeError
    (unhashable, or bytes.endswith of a str)."""
    error = UnknownSolverError if axis == "solvers" else InvalidArgumentError
    names = ["blocks", name] if axis == "scenes" else ["dgi", name]
    with pytest.raises(error, match=re.escape(f"unknown {axis[:-1]} {name!r}")):
        small_spec(**{axis: names})


@pytest.mark.parametrize("call", [
    lambda: get_solver(["x"]),
    lambda: builtin_scene(["x"], 8, 8),
    lambda: run_cell(None, "dgi", 0.5, 8, 8, 0.0, 0),
    lambda: generate_patterns(4, 2, 2, distribution=np.array(["a", "b"])),
    lambda: small_spec(distribution=np.array(["a", "b"])),
], ids=["get_solver", "builtin_scene", "run_cell", "generate_patterns", "spec-distribution"])
def test_a_name_lookup_refuses_a_non_string_with_a_typed_error(call):
    """get_solver and builtin_scene died with "unhashable type", run_cell
    with an AttributeError, and a distribution array with numpy's "truth
    value of an array ... is ambiguous" ValueError."""
    with pytest.raises((InvalidArgumentError, UnknownSolverError),
                       match="unknown (solver|scene|distribution)"):
        call()


def test_run_cell_records_a_non_string_solver_as_a_failed_row():
    row = run_cell("blocks", ["dgi"], 0.5, 8, 8, 0.0, 0)
    assert row.status.startswith("failed:UnknownSolverError: unknown solver ['dgi']")


def test_a_ratio_that_gives_zero_measurements_is_refused_at_construction():
    """Before, the spec was built and only run_sweep refused it."""
    with pytest.raises(InvalidArgumentError, match="ratio 0.0001 gives zero measurements"):
        SweepSpec(["blocks"], ["cgd"], [1e-4], [(32, 32)], [0.0])


@pytest.mark.parametrize("seed", [1.5, "1.5", None], ids=["float", "str", "None"])
def test_a_base_seed_that_is_not_an_integer_is_refused(seed):
    """Before, 1.5 and "1.5" were accepted and gave the same pattern seed,
    since stable_seed hashes str(part)."""
    with pytest.raises(InvalidArgumentError, match="base_seed must be an integer"):
        small_spec(base_seed=seed)


def test_a_numpy_integer_base_seed_gives_the_rows_of_its_int():
    rows = _without_time(run_sweep(small_spec(base_seed=np.int64(7))))
    assert rows == _without_time(run_sweep(small_spec(base_seed=7)))
    assert small_spec(base_seed=-5).base_seed == -5  # hashed, never a PCG64 seed


def _without_time(rows):
    return [replace(row, wall_time_s=0.0) for row in rows]


def test_a_spec_holds_no_list_of_its_caller():
    """The spec held the caller's lists: a ratio set to 0.0 after it was built
    failed at the first cell, not up front, and an appended "nope" solver
    became a failed:UnknownSolverError row."""
    ratios, solvers = [0.5], ["dgi"]
    spec = small_spec(sampling_ratios=ratios, solvers=solvers, repeats=1)
    rows = _without_time(run_sweep(spec))
    ratios[0] = 0.0
    solvers.append("nope")
    assert spec == small_spec(repeats=1)
    assert _without_time(run_sweep(spec)) == rows


def test_a_spec_grid_cannot_be_appended_to():
    """An appended 1x1 size ran the first cells, then raised "scene width must be >= 2"."""
    spec = small_spec()
    with pytest.raises(AttributeError):
        spec.image_sizes.append((1, 1))
    assert spec.image_sizes == ((8, 8),)


def test_every_grid_is_a_tuple_of_checked_values():
    spec = small_spec(scenes=np.array(["blocks", "bars"]), solvers=("dgi",),
                      sampling_ratios=np.array([1, 2]), image_sizes=np.array([[8, 8]]),
                      noise_levels=[0, np.float32(0.5), False])
    assert all(type(getattr(spec, name)) is tuple for name in
               ("scenes", "solvers", "sampling_ratios", "image_sizes", "noise_levels"))
    assert spec.scenes == ("blocks", "bars") and spec.solvers == ("dgi",)
    assert [type(v) for v in spec.sampling_ratios + spec.noise_levels] == [float] * 5
    assert spec.noise_levels == (0.0, 0.5, 0.0) and spec.image_sizes == ((8, 8),)


def test_a_cell_is_seeded_and_recorded_from_its_checked_values():
    """Ratios 1, 1.0 and True gave three seeds and three RMSEs, since the seed
    hashed the ratio's text; the CSV read "1", "1" and "True", and a noise
    level of False was written as "False".  np.float64(1.0) ran as 1.0."""
    rows = [run_cell("blocks", "cgd", r, 8, 8, level, rep)
            for r, level, rep in [(1.0, 0.0, 0), (1, False, np.int64(0)), (True, 0, 0),
                                  (np.float64(1.0), 0.0, 0), (Fraction(1), 0.0, 0)]]
    assert _without_time(rows) == _without_time(rows[:1]) * 5
    assert all(type(row.ratio) is float and type(row.noise_level) is float
               and type(row.repeat) is int for row in rows)


@pytest.mark.parametrize("ratio, level", [(-1.0, 0.0), (0.5, np.nan)], ids=["ratio", "level"])
def test_run_cell_checks_its_ratio_and_level_before_it_reads_a_pgm(tmp_path, ratio, level):
    """A missing PGM scene gave a failed: row for a ratio or level that no scene can take."""
    with pytest.raises(InvalidArgumentError, match="^(ratio|noise level) must be finite"):
        run_cell(str(tmp_path / "missing.pgm"), "dgi", ratio, 8, 8, level, 0)


def test_a_fraction_ratio_gives_the_rows_of_its_float():
    """Fraction(1, 2) was seeded and written as "1/2", not as 0.5."""
    rows = _without_time(run_sweep(small_spec(sampling_ratios=[Fraction(1, 2)])))
    assert rows == _without_time(run_sweep(small_spec(sampling_ratios=[0.5])))


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
