import struct
import tracemalloc

import numpy as np
import pytest

from spi_recon import bench, cli
from spi_recon.cli import main
from spi_recon.errors import DomainError
from spi_recon.io import (
    MAGIC,
    read_image,
    read_measurements,
    read_patterns,
    read_results_csv,
    write_image,
)
from spi_recon.metrics import normalized_rmse
from spi_recon.model import NoiseModel, add_noise, generate_patterns, synthesize
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import StopCriteria, get_solver


def test_gen_patterns_matches_library(tmp_path):
    out = tmp_path / "pat.spib"
    assert main(["gen-patterns", "--m", "6", "--width", "4", "--height", "4",
                 "--dist", "binary", "--seed", "13", "--out", str(out)]) == 0
    bundle = read_patterns(out)
    direct = generate_patterns(6, 4, 4, "binary", seed=13)
    assert np.array_equal(bundle.rows, direct.rows)
    assert bundle.seed == 13


def test_simulate_matches_library(tmp_path):
    pat = tmp_path / "pat.spib"
    scene = tmp_path / "scene.pgm"
    out = tmp_path / "meas.spib"
    main(["gen-patterns", "--m", "32", "--width", "8", "--height", "8",
          "--seed", "5", "--out", str(pat)])
    write_image(builtin_scene("blocks", 8, 8), scene)
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--noise-level", "1e-3", "--seed", "11", "--out", str(out)]) == 0
    meas, n = read_measurements(out)
    patterns = read_patterns(pat)
    direct = add_noise(
        synthesize(patterns, read_image(scene)),
        NoiseModel(level=1e-3, pixel_count=64),
        seed=11,
    )
    assert n == 64
    assert np.array_equal(meas.values, direct.values)
    assert meas.noise_sigma == direct.noise_sigma


@pytest.mark.parametrize("level", ["-1", "nan", "inf"])
def test_simulate_rejects_bad_noise_level(tmp_path, capsys, level):
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4", "--out", str(pat)])
    write_image(builtin_scene("blocks", 4, 4), scene)
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--noise-level", level, "--out", str(out)]) == 1
    assert "noise level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--noise-level", "-1"), ("--seed", "-1")])
def test_simulate_checks_its_arguments_before_reading_the_bundle(tmp_path, capsys,
                                                                 flag, value):
    """A bad level or seed is a usage error before any of the 64 MiB bundle
    is read."""
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    main(["gen-patterns", "--m", "2048", "--width", "64", "--height", "64",
          "--out", str(pat)])
    write_image(builtin_scene("blocks", 64, 64), scene)
    tracemalloc.start()
    try:
        code = main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                     flag, value, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert peak < 2**20 and not out.exists()


def test_simulate_noise_level_zero_writes_clean_bundle(tmp_path):
    pat, scene = tmp_path / "pat.spib", tmp_path / "scene.pgm"
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4", "--out", str(pat)])
    write_image(builtin_scene("blocks", 4, 4), scene)
    outs = [tmp_path / "default.spib", tmp_path / "zero.spib"]
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--out", str(outs[0])]) == 0
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--noise-level", "0", "--seed", "9", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    meas, _ = read_measurements(outs[1])
    assert np.array_equal(meas.values, synthesize(read_patterns(pat), read_image(scene)).values)


def test_reconstruct_end_to_end(tmp_path, capsys):
    pat = tmp_path / "pat.spib"
    scene = tmp_path / "scene.pgm"
    meas = tmp_path / "meas.spib"
    recon = tmp_path / "recon.pgm"
    trace = tmp_path / "trace.csv"
    write_image(builtin_scene("blocks", 16, 16), scene)
    main(["gen-patterns", "--m", "512", "--width", "16", "--height", "16",
          "--seed", "7", "--out", str(pat)])
    main(["simulate", "--patterns", str(pat), "--scene", str(scene),
          "--out", str(meas)])
    assert main(["reconstruct", "--solver", "cs-tv", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon),
                 "--trace", str(trace)]) == 0
    truth = read_image(scene)
    estimate = read_image(recon)
    assert normalized_rmse(truth, estimate) < 0.05
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual_norm,objective"
    assert len(lines) > 1
    # metrics subcommand agrees with the library metric
    assert main(["metrics", "--truth", str(scene), "--estimate", str(recon)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(normalized_rmse(truth, estimate), abs=1e-9)


def test_reconstruct_flags_forward_to_stop_criteria(tmp_path):
    pat = tmp_path / "pat.spib"
    scene = tmp_path / "scene.pgm"
    meas = tmp_path / "meas.spib"
    recon = tmp_path / "recon.pgm"
    write_image(builtin_scene("bars", 8, 8), scene)
    main(["gen-patterns", "--m", "64", "--width", "8", "--height", "8",
          "--seed", "3", "--out", str(pat)])
    main(["simulate", "--patterns", str(pat), "--scene", str(scene),
          "--out", str(meas)])
    assert main(["reconstruct", "--solver", "gd", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon),
                 "--threshold", "0", "--min-iter", "5",
                 "--max-iter-factor", "0.25"]) == 0
    # byte-identical to the direct library call
    patterns = read_patterns(pat)
    measurements, _ = read_measurements(meas)
    stop = StopCriteria(residual_change_threshold=0.0, min_iterations=5,
                        max_iterations_factor=0.25)
    report = get_solver("gd")(patterns, measurements, 8, 8, stop=stop)
    from spi_recon.io import write_image as wi

    direct = tmp_path / "direct.pgm"
    wi(report.image, direct)
    assert direct.read_bytes() == recon.read_bytes()


@pytest.mark.parametrize("flag, value, field", [
    ("--min-iter", "-5", "min_iterations"),
    ("--threshold", "-1e-3", "residual_change_threshold"),
    ("--threshold", "nan", "residual_change_threshold"),
    ("--max-iter-factor", "-2", "max_iterations_factor"),
])
def test_reconstruct_rejects_bad_stop_criteria(tmp_path, capsys, flag, value, field):
    pat = tmp_path / "pat.spib"
    scene = tmp_path / "scene.pgm"
    meas = tmp_path / "meas.spib"
    recon = tmp_path / "recon.pgm"
    write_image(builtin_scene("bars", 4, 4), scene)
    main(["gen-patterns", "--m", "16", "--width", "4", "--height", "4",
          "--out", str(pat)])
    main(["simulate", "--patterns", str(pat), "--scene", str(scene),
          "--out", str(meas)])
    capsys.readouterr()
    assert main(["reconstruct", "--solver", "gd", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon),
                 f"{flag}={value}"]) == 1
    assert field in capsys.readouterr().err
    assert not recon.exists()


def test_metrics_identical_files(tmp_path, capsys):
    scene = tmp_path / "scene.pgm"
    write_image(builtin_scene("disk", 8, 8), scene)
    assert main(["metrics", "--truth", str(scene), "--estimate", str(scene)]) == 0
    assert capsys.readouterr().out.strip() == "0.000000000"


def test_unknown_solver_is_usage_error(tmp_path, capsys):
    code = main(["reconstruct", "--solver", "nosuch", "--patterns", "x",
                 "--measurements", "y", "--out", "z"])
    assert code == 1
    err = capsys.readouterr().err
    assert "cs-tv" in err and "dgi" in err


def test_unknown_flag_rejected_before_work(capsys):
    assert main(["gen-patterns", "--m", "4", "--width", "2", "--height", "2",
                 "--out", "/tmp/x.spib", "--bogus", "1"]) == 1


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = main(["metrics", "--truth", str(tmp_path / "none.pgm"),
                 "--estimate", str(tmp_path / "none.pgm")])
    assert code == 2


@pytest.mark.parametrize("exc, message", [
    (DomainError("a_i.x must be positive"), "a_i.x must be positive"),
    (MemoryError("Unable to allocate 10.0 GiB"), "Unable to allocate 10.0 GiB"),
    (MemoryError(), "out of memory"),
])
def test_domain_and_memory_errors_are_runtime_errors(tmp_path, capsys, monkeypatch,
                                                      exc, message):
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "_pattern_draw", refuse)
    code = main(["gen-patterns", "--m", "4", "--width", "2", "--height", "2",
                 "--out", str(tmp_path / "pat.spib")])
    assert code == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_out_of_range_seed_is_usage_error(tmp_path, capsys, seed):
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "out.spib"
    assert main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4",
                 "--seed", seed, "--out", str(out)]) == 1
    assert not out.exists()
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4", "--out", str(pat)])
    write_image(builtin_scene("blocks", 4, 4), scene)
    for level in ("1e-3", "0"):  # zero noise draws nothing, but the seed is still checked
        assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                     "--noise-level", level, "--seed", seed, "--out", str(out)]) == 1
        assert not out.exists()
    assert capsys.readouterr().err.count("usage error: seed must be in [0, 2**64)") == 3


@pytest.mark.parametrize("kind", ["patterns", "measurements"])
@pytest.mark.parametrize("field, offset", [("m", 9), ("n", 13)])
def test_bundle_with_no_rows_or_no_pixels_is_runtime_error(tmp_path, capsys, kind,
                                                           field, offset):
    """reconstruct on a bundle with m = 0 or n = 0 exits 2 naming the field,
    with no traceback and no image written."""
    paths = {"patterns": tmp_path / "pat.spib", "measurements": tmp_path / "meas.spib"}
    scene, out = tmp_path / "scene.pgm", tmp_path / "out.pgm"
    write_image(builtin_scene("blocks", 4, 4), scene)
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4",
          "--out", str(paths["patterns"])])
    main(["simulate", "--patterns", str(paths["patterns"]), "--scene", str(scene),
          "--out", str(paths["measurements"])])
    m, n = (0, 16) if field == "m" else (8, 0)
    code, sigma, count = ((1, b"", m * n) if kind == "patterns"
                          else (2, struct.pack("<d", 0.0), m))
    paths[kind].write_bytes(MAGIC + struct.pack("<BIIQ", code, m, n, 0) + sigma
                            + bytes(8 * count))
    for solver in ("corr", "dgi", "cgd"):
        assert main(["reconstruct", "--solver", solver,
                     "--patterns", str(paths["patterns"]),
                     "--measurements", str(paths["measurements"]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "Traceback" not in err
        assert f"{field} is 0" in err and f"(byte offset {offset})" in err
        assert not out.exists()


@pytest.mark.parametrize("kind, index, value, command", [
    ("patterns", 5, -1.0, "simulate"),
    ("patterns", 0, np.inf, "reconstruct"),
    ("measurements", 2, np.nan, "reconstruct"),
])
def test_a_bad_payload_value_is_a_data_error(tmp_path, capsys, kind, index, value,
                                             command):
    """A bundle value the model refuses exits 2 at its byte offset, with no
    traceback and no output written."""
    paths = {"patterns": tmp_path / "pat.spib", "measurements": tmp_path / "meas.spib"}
    scene, out = tmp_path / "scene.pgm", tmp_path / "out"
    write_image(builtin_scene("blocks", 4, 4), scene)
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4",
          "--out", str(paths["patterns"])])
    main(["simulate", "--patterns", str(paths["patterns"]), "--scene", str(scene),
          "--out", str(paths["measurements"])])
    offset = {"patterns": 25, "measurements": 33}[kind] + 8 * index
    data = bytearray(paths[kind].read_bytes())
    data[offset:offset + 8] = struct.pack("<d", value)
    paths[kind].write_bytes(data)
    argv = {"simulate": ["simulate", "--patterns", str(paths["patterns"]),
                         "--scene", str(scene), "--out", str(out)],
            "reconstruct": ["reconstruct", "--solver", "dgi",
                            "--patterns", str(paths["patterns"]),
                            "--measurements", str(paths["measurements"]),
                            "--out", str(out)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    assert f"(byte offset {offset})" in err
    assert not out.exists()


def test_unaddressable_gen_patterns_is_usage_error(tmp_path, capsys):
    out = tmp_path / "pat.spib"
    tracemalloc.start()
    try:
        code = main(["gen-patterns", "--m", "4000000000", "--width", "100000",
                     "--height", "100000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "4000000000 x 10000000000" in capsys.readouterr().err
    assert peak < 2**20 and not out.exists()


def test_benchmark_subcommand(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "results.csv"
    cfg.write_text(
        "scenes = blocks\nsolvers = dgi, cgd\nsampling_ratios = 0.5, 1.0\n"
        "image_sizes = 8x8\nnoise_levels = 0\nrepeats = 2\nbase_seed = 123\n"
    )
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_results_csv(out)
    assert len(rows) == 2 * 2 * 2
    assert all(r["status"] == "ok" for r in rows)


def test_benchmark_jobs_flag_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scenes = blocks\nsolvers = dgi\nimage_sizes = 8x8\n")
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--jobs", "2"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    # ratio * n is infinite, so no measurement count exists
    ("scenes = blocks\nsolvers = dgi\nsampling_ratios = 1e308\nimage_sizes = 32x32\n",
     "1e+308 x 1024 pixels overflows"),
    ("scenes = blocks\nsolvers = dgi\n# caf\xe9 in Latin-1\n".encode("latin-1"),
     "is not UTF-8"),
], ids=["overflowing-ratio", "not-utf8"])
def test_bad_benchmark_config_is_usage_error(tmp_path, capsys, config, message):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_bytes(config.encode() if isinstance(config, str) else config)
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("ratios, message", [
    ("1.0, 1e308", "1e+308 x 1024 pixels overflows"),
    ("1.0, 1e-4", "ratio 0.0001 gives zero measurements"),
])
def test_a_bad_ratio_is_refused_before_the_first_cell(tmp_path, capsys, monkeypatch,
                                                      ratios, message):
    calls, run_cell = [], bench.run_cell

    def recording_run_cell(*args, **kwargs):
        calls.append(args)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(bench, "run_cell", recording_run_cell)
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text(f"scenes = blocks\nsolvers = cgd\nsampling_ratios = {ratios}\n"
                   "image_sizes = 32x32\nnoise_levels = 0\nrepeats = 3\n")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("ratio, code", [("0.1", 0), ("1e-4", 1)])
def test_a_pgm_scene_has_its_ratio_checked_at_its_own_size(tmp_path, capsys, ratio, code):
    """A PGM keeps its own size: at 4x4, ratio 0.1 gives 2 measurements
    though the grid's 2x2 would give none, and 1e-4 gives none."""
    scene, cfg, out = tmp_path / "scene.pgm", tmp_path / "sweep.cfg", tmp_path / "res.csv"
    write_image(builtin_scene("blocks", 4, 4), scene)
    cfg.write_text(f"scenes = {scene}\nsolvers = dgi\nsampling_ratios = {ratio}\n"
                   "image_sizes = 2x2\nnoise_levels = 0\nrepeats = 1\n")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "ratio 0.0001 gives zero measurements" in capsys.readouterr().err


def test_benchmark_desk_preset_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "scenes = bars\nsolvers = dgi\nsampling_ratios = 0.5\n"
        "image_sizes = 64x64\nnoise_levels = 0\nrepeats = 20\nbase_seed = 1\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out1), "--desk"]) == 0
    assert main(["benchmark", "--config", str(cfg), "--out", str(out2), "--desk"]) == 0
    rows1, rows2 = read_results_csv(out1), read_results_csv(out2)
    assert len(rows1) == 5  # desk preset forces repeats=5
    assert all(r["size"] == "32x32" for r in rows1)
    for a, b in zip(rows1, rows2):
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b
