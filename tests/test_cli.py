import ast
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spi_recon
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
    write_measurements,
    write_patterns,
)
from spi_recon.metrics import normalized_rmse
from spi_recon.model import (MeasurementSet, NoiseModel, PatternSet, add_noise,
                             generate_patterns, synthesize)
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
    meas, width, height = read_measurements(out)
    patterns = read_patterns(pat)
    direct = add_noise(
        synthesize(patterns, read_image(scene)),
        NoiseModel(level=1e-3, pixel_count=64),
        seed=11,
    )
    assert (width, height) == (8, 8)
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
    """A bad level or seed is a usage error before the bundle is opened: the
    bundle is missing, so opening it would exit 2."""
    scene, out = tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("blocks", 64, 64), scene)
    tracemalloc.start()
    try:
        code = main(["simulate", "--patterns", str(tmp_path / "missing.spib"),
                     "--scene", str(scene), flag, value, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert peak < 2**20 and not out.exists()


def test_simulate_refuses_an_overflowing_sigma_before_opening_the_bundle(tmp_path, capsys):
    scene, out = tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("blocks", 4, 4), scene)
    assert main(["simulate", "--patterns", str(tmp_path / "missing.spib"), "--scene",
                 str(scene), "--noise-level", "1e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: noise level 1e+308 x 16 pixels overflows sigma\n")
    assert not out.exists()


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
    meas, _, _ = read_measurements(outs[1])
    assert np.array_equal(meas.values, synthesize(read_patterns(pat), read_image(scene)).values)


@pytest.mark.parametrize("level, digest", [
    ("0", "9ad992f62c797a116ad0cd9ca1db86e7793973ea2ef2e9be551a8a1da9e84beb"),
    ("1e-3", "6186d505603252655d29e1894c49259847e65278306bf41fe38642fa47ab2967"),
])
def test_simulate_bundle_bytes_are_pinned(tmp_path, level, digest):
    """The measurement bundle of a 5x3 scene at seed 5, byte for byte: at
    level 0 add_noise returns the clean readings with noise seed 0, not 5."""
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("disk", 5, 3), scene)
    assert main(["gen-patterns", "--m", "12", "--width", "5", "--height", "3",
                 "--seed", "3", "--out", str(pat)]) == 0
    assert hashlib.sha256(pat.read_bytes()).hexdigest() == (
        "c26dcd56e716c64afce47d515211b2aeed622177bfc476de88d8f2be1525c93c")
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--noise-level", level, "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    measurements, _, _ = read_measurements(meas)
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
    # finite, but the cap factor x 16 pixels is infinite
    ("--max-iter-factor", "1e308", "max_iterations_factor 1e+308 x 16 pixels overflows"),
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


def test_reconstruct_refuses_measurements_of_another_pixel_count(tmp_path, capsys):
    """Patterns of 16 pixels with 8 readings of a 3x3 scene: the counts of
    readings agree, and the solver refuses the measurement bundle's shape
    before any product."""
    pat, pat9 = tmp_path / "pat.spib", tmp_path / "pat9.spib"
    scene, meas, recon = tmp_path / "scene.pgm", tmp_path / "meas.spib", tmp_path / "recon.pgm"
    write_image(builtin_scene("bars", 3, 3), scene)
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4", "--out", str(pat)])
    main(["gen-patterns", "--m", "8", "--width", "3", "--height", "3", "--out", str(pat9)])
    main(["simulate", "--patterns", str(pat9), "--scene", str(scene), "--out", str(meas)])
    capsys.readouterr()
    assert main(["reconstruct", "--solver", "dgi", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon)]) == 1
    assert capsys.readouterr().err == (
        "usage error: image shape 3x3 does not hold the 16 pattern pixels\n")
    assert not recon.exists()


@pytest.mark.parametrize("m, width, height, message", [
    (4, 4, 4, "measurement count 4 != pattern count 8"),
    (8, 3, 3, "image shape 3x3 does not hold the 16 pattern pixels"),
])
def test_reconstruct_refuses_bundles_that_do_not_match_before_reading_a(
        tmp_path, capsys, monkeypatch, m, width, height, message):
    """The measurement bundle is read first and checked against the pattern
    header, so a mismatch reads none of A's payload; before, all of A was
    read and only then refused."""
    pat, meas, recon = tmp_path / "pat.spib", tmp_path / "meas.spib", tmp_path / "recon.pgm"
    write_patterns(generate_patterns(8, 4, 4, seed=3), pat)
    write_measurements(MeasurementSet(values=np.ones(m)), width, height, meas)
    read, read_payload = [], cli.spio._read_payload

    def counting_read_payload(f, shape, record, *args):
        read.append((f.name, 8 * int(np.prod(shape))))
        return read_payload(f, shape, record, *args)

    monkeypatch.setattr(cli.spio, "_read_payload", counting_read_payload)
    assert main(["reconstruct", "--solver", "dgi", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sum(nbytes for name, nbytes in read if name == str(pat)) == 0
    assert read == [(str(meas), 8 * m)] and not recon.exists()


def test_a_non_square_scene_keeps_its_shape_through_the_cli(tmp_path, capsys):
    """A 40x10 scene comes back 40x10: simulate records the scene's shape in
    the measurement bundle and reconstruct takes it from there, where a
    shape guessed from n = 400 was 20x20."""
    pat, scene, meas = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("bars", 40, 10), scene)
    assert main(["gen-patterns", "--m", "400", "--width", "40", "--height", "10",
                 "--out", str(pat)]) == 0
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--out", str(meas)]) == 0
    assert read_measurements(meas)[1:] == (40, 10)
    for solver in ("cs-tv", "cgd", "dgi"):
        recon = tmp_path / f"{solver}.pgm"
        assert main(["reconstruct", "--solver", solver, "--patterns", str(pat),
                     "--measurements", str(meas), "--out", str(recon)]) == 0
        image = read_image(recon)
        assert (image.width, image.height) == (40, 10)
        assert main(["metrics", "--truth", str(scene), "--estimate", str(recon)]) == 0
    assert capsys.readouterr().err == ""


def test_reconstruct_refuses_a_measurement_bundle_in_the_retired_layout(tmp_path, capsys):
    """A kind-2 bundle recorded n and not the scene's shape: reconstruct exits
    2 at the kind byte and asks for simulate to be run again."""
    pat, meas, recon = tmp_path / "pat.spib", tmp_path / "meas.spib", tmp_path / "recon.pgm"
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4", "--out", str(pat)])
    meas.write_bytes(MAGIC + struct.pack("<BIIQd", 2, 8, 16, 0, 0.0) + bytes(8 * 8))
    assert main(["reconstruct", "--solver", "dgi", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: expected a measurements bundle, got kind byte 2")
    assert "re-run simulate" in err and "(byte offset 8)" in err
    assert not recon.exists()


def test_reconstruct_poisson_refuses_an_all_zero_row_read_as_positive(tmp_path, capsys):
    """No image gives a_3.x > 0 when pattern row 3 is all zero, so a positive
    reading 3 leaves the start point outside the Poisson likelihood's domain:
    reconstruct exits 2 with one runtime error line that names the row."""
    pat, meas, recon = tmp_path / "pat.spib", tmp_path / "meas.spib", tmp_path / "recon.pgm"
    rows = generate_patterns(32, 4, 4, seed=5).rows.copy()
    rows[3] = 0.0
    patterns = PatternSet(rows, seed=5)
    values = patterns.rows @ np.full(16, 0.5)
    values[3] = 1.0
    write_patterns(patterns, pat)
    write_measurements(MeasurementSet(values), 4, 4, meas)
    assert main(["reconstruct", "--solver", "poisson", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1
    assert "at row 3 is outside the Poisson likelihood's domain" in err
    assert "Traceback" not in err and not recon.exists()


OVERFLOW = """
import contextlib, io, sys, warnings
from pathlib import Path
from spi_recon import cli, scenes, solvers
from spi_recon import io as spio
warnings.simplefilter("always")  # a warning that escapes is printed every time
tmp = Path(sys.argv[1])
spio.write_image(scenes.builtin_scene("blocks", 10, 10), tmp / "scene.pgm")
assert cli.main(["gen-patterns", "--m", "100", "--width", "10", "--height", "10",
                 "--out", str(tmp / "pat.spib")]) == 0
assert cli.main(["simulate", "--patterns", str(tmp / "pat.spib"), "--scene",
                 str(tmp / "scene.pgm"), "--noise-level", "1e298",
                 "--out", str(tmp / "meas.spib")]) == 0
patterns = spio.read_patterns(tmp / "pat.spib")
meas, width, height = spio.read_measurements(tmp / "meas.spib")
for name, solve in solvers.solver_registry():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["reconstruct", "--solver", name, "--patterns", str(tmp / "pat.spib"),
                         "--measurements", str(tmp / "meas.spib"),
                         "--out", str(tmp / "recon.pgm")])
        try:
            solve(patterns, meas, width, height)
            raised = None
        except Exception as exc:
            raised = type(exc).__name__
    print(repr((name, code, err.getvalue(), raised)))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_readings_whose_squares_overflow_fail_every_solver_quietly(tmp_path, run_python,
                                                                  threads):
    """Readings near 1e300, from --noise-level 1e298 at 10 x 10: each solve
    raises NumericalFailureError, and reconstruct exits 2 with one runtime
    error line and no numpy warning.  m * n = 10^4 is past where a
    two-thread BLAS splits a product, whose overflow sets no flag in the
    calling thread."""
    out = run_python(OVERFLOW, tmp_path, threads=threads)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    results = {name: rest for name, *rest in map(ast.literal_eval, out.stdout.splitlines())}
    assert len(results) == 9
    for name, (code, err, raised) in results.items():
        assert code == 2 and err.startswith("runtime error: ") and err.count("\n") == 1, (
            name, err)
        assert raised == "NumericalFailureError", (name, raised)
    assert "overflowed" in results["poisson"][1]
    assert not (tmp_path / "recon.pgm").exists()


def test_a_reconstruct_whose_trace_cannot_be_written_leaves_no_image(tmp_path, capsys):
    """--trace naming a directory failed after the image was written, and
    left it behind."""
    pat, scene, meas = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    recon = tmp_path / "recon.pgm"
    write_image(builtin_scene("blocks", 4, 4), scene)
    assert main(["gen-patterns", "--m", "16", "--width", "4", "--height", "4",
                 "--out", str(pat)]) == 0
    assert main(["simulate", "--patterns", str(pat), "--scene", str(scene),
                 "--out", str(meas)]) == 0
    assert main(["reconstruct", "--solver", "dgi", "--patterns", str(pat),
                 "--measurements", str(meas), "--out", str(recon),
                 "--trace", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Is a directory" in err
    assert not recon.exists() and tmp_path.is_dir()


def test_metrics_identical_files(tmp_path, capsys):
    scene = tmp_path / "scene.pgm"
    write_image(builtin_scene("disk", 8, 8), scene)
    assert main(["metrics", "--truth", str(scene), "--estimate", str(scene)]) == 0
    assert capsys.readouterr().out.strip() == "0.000000000"


RECONSTRUCT = ["reconstruct", "--solver", "dgi", "--measurements", "meas.spib"]


@pytest.mark.parametrize("argv, flags", [
    (RECONSTRUCT + ["--patterns", "pat.spib", "--out", "pat.spib"], "--out and --patterns"),
    (RECONSTRUCT + ["--patterns", "pat.spib", "--out", "./pat.spib"], "--out and --patterns"),
    (RECONSTRUCT + ["--patterns", "link.spib", "--out", "pat.spib"], "--out and --patterns"),
    (RECONSTRUCT + ["--patterns", "pat.spib", "--out", "r.pgm", "--trace", "meas.spib"],
     "--trace and --measurements"),
    (RECONSTRUCT + ["--patterns", "pat.spib", "--out", "r.pgm", "--trace", "r.pgm"],
     "--out and --trace"),
    (["simulate", "--patterns", "pat.spib", "--scene", "scene.pgm", "--out", "scene.pgm"],
     "--out and --scene"),
    (["simulate", "--patterns", "pat.spib", "--scene", "scene.pgm", "--out", "pat.spib"],
     "--out and --patterns"),
    (["benchmark", "--config", "sweep.cfg", "--out", "sweep.cfg"], "--out and --config"),
], ids=["out-patterns", "dot-slash", "symlink", "trace-measurements", "out-trace",
        "simulate-scene", "simulate-patterns", "benchmark-config"])
def test_an_output_naming_an_input_is_refused(tmp_path, capsys, monkeypatch, argv, flags):
    """Each of these exited 0 and overwrote a file the command was given."""
    monkeypatch.chdir(tmp_path)
    write_image(builtin_scene("blocks", 4, 4), "scene.pgm")
    assert main(["gen-patterns", "--m", "16", "--width", "4", "--height", "4",
                 "--out", "pat.spib"]) == 0
    assert main(["simulate", "--patterns", "pat.spib", "--scene", "scene.pgm",
                 "--out", "meas.spib"]) == 0
    (tmp_path / "sweep.cfg").write_text("scenes = blocks\nsolvers = dgi\nsampling_ratios = 1\n"
                                        "image_sizes = 4x4\nnoise_levels = 0\n")
    (tmp_path / "link.spib").symlink_to("pat.spib")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flags} name one file") and err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


NUL_COMMANDS = [
    ["gen-patterns", "--m", "16", "--width", "4", "--height", "4", "--out", "new.spib"],
    ["simulate", "--patterns", "pat.spib", "--scene", "scene.pgm", "--out", "new.spib"],
    ["reconstruct", "--solver", "dgi", "--patterns", "pat.spib", "--measurements", "meas.spib",
     "--out", "r.pgm", "--trace", "t.csv"],
    ["benchmark", "--config", "sweep.cfg", "--out", "r.csv"],
    ["metrics", "--truth", "scene.pgm", "--estimate", "scene.pgm"],
]
NUL_CASES = [(argv[:i + 1] + [argv[i + 1] + "\0"] + argv[i + 2:], flag)
             for argv in NUL_COMMANDS
             for i, flag in enumerate(argv)
             if flag.startswith("--") and "." in argv[i + 1]]  # a file flag


@pytest.mark.parametrize("argv, flag", NUL_CASES,
                         ids=[f"{argv[0]}{flag}" for argv, flag in NUL_CASES])
def test_a_path_that_holds_a_nul_byte_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                        argv, flag):
    """Each of these let a bare ValueError ("embedded null byte") out of main."""
    monkeypatch.chdir(tmp_path)
    write_image(builtin_scene("blocks", 4, 4), "scene.pgm")
    assert main(["gen-patterns", "--m", "16", "--width", "4", "--height", "4",
                 "--out", "pat.spib"]) == 0
    assert main(["simulate", "--patterns", "pat.spib", "--scene", "scene.pgm",
                 "--out", "meas.spib"]) == 0
    (tmp_path / "sweep.cfg").write_text("scenes = blocks\nsolvers = dgi\nsampling_ratios = 1\n"
                                        "image_sizes = 4x4\nnoise_levels = 0\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} holds a NUL byte") and err.count("\n") == 1
    assert "Traceback" not in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_an_unknown_distribution_is_refused_with_the_models_message(tmp_path, capsys):
    """--dist had argparse choices of its own, with argparse's message."""
    out = tmp_path / "pat.spib"
    assert main(["gen-patterns", "--m", "4", "--width", "2", "--height", "2",
                 "--dist", "foo", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown distribution 'foo'; valid names: uniform01, binary\n")
    assert not out.exists()


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


@pytest.mark.parametrize("field, offset, kind", [
    ("m", 9, "patterns"), ("n", 13, "patterns"),
    ("m", 9, "measurements"), ("width", 13, "measurements"), ("height", 17, "measurements"),
])
def test_bundle_with_no_rows_or_no_pixels_is_runtime_error(tmp_path, capsys, kind,
                                                           field, offset):
    """reconstruct on a bundle with a count of 0 (m, or n, width or height)
    exits 2 naming the field, with no traceback and no image written."""
    paths = {"patterns": tmp_path / "pat.spib", "measurements": tmp_path / "meas.spib"}
    scene, out = tmp_path / "scene.pgm", tmp_path / "out.pgm"
    write_image(builtin_scene("blocks", 4, 4), scene)
    main(["gen-patterns", "--m", "8", "--width", "4", "--height", "4",
          "--out", str(paths["patterns"])])
    main(["simulate", "--patterns", str(paths["patterns"]), "--scene", str(scene),
          "--out", str(paths["measurements"])])
    counts = {"patterns": {"m": 8, "n": 16},
              "measurements": {"m": 8, "width": 4, "height": 4}}[kind]
    counts[field] = 0
    if kind == "patterns":
        head, count = struct.pack("<BIIQ", 1, *counts.values(), 0), counts["m"] * counts["n"]
    else:
        head, count = struct.pack("<BIIIQd", 3, *counts.values(), 0, 0.0), counts["m"]
    paths[kind].write_bytes(MAGIC + head + bytes(8 * count))
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
    offset = {"patterns": 25, "measurements": 37}[kind] + 8 * index
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


def test_a_config_with_a_byte_order_mark_gives_the_same_rows(tmp_path):
    """A UTF-8 config saved with a byte-order mark, as Windows Notepad writes one, read its
    first key as '\ufeffscenes' and exited 1 as an unknown key."""
    text = ("scenes = blocks\nsolvers = dgi\nsampling_ratios = 0.5\nimage_sizes = 8x8\n"
            "noise_levels = 0\nrepeats = 2\n")
    rows = []
    for name, data in [("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())]:
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_bytes(data)
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        rows.append([{k: v for k, v in r.items() if k != "wall_time_s"}
                     for r in read_results_csv(out)])
    assert rows[0] == rows[1] and len(rows[0]) == 2


def test_benchmark_jobs_flag_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scenes = blocks\nsolvers = dgi\nsampling_ratios = 0.5\nimage_sizes = 8x8\n"
                   "noise_levels = 0\n")
    out = tmp_path / "results.csv"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--jobs", "2"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    # ratio * n is infinite, so no measurement count exists
    ("scenes = blocks\nsolvers = dgi\nsampling_ratios = 1e308\nimage_sizes = 32x32\n"
     "noise_levels = 0\n", "1e+308 x 1024 pixels overflows"),
    ("scenes = blocks\nsolvers = dgi\n# caf\xe9 in Latin-1\n".encode("latin-1"),
     "is not UTF-8"),
    # more cells than a list of rows can hold
    ("scenes = blocks\nsolvers = dgi\nsampling_ratios = 1\nimage_sizes = 8x8\n"
     "noise_levels = 0\nrepeats = 99999999999999999999\n",
     "repeats 99999999999999999999 gives 99999999999999999999 cells"),
    ("scenes = blocks\nsolvers = dgi\nimage_sizes 8x8\n", "config line 3: expected key=value"),
    # n is an int past float range, so ratio * n raised a bare OverflowError
    ("scenes = blocks\nsolvers = dgi\nsampling_ratios = 0.2\n"
     f"image_sizes = {'9' * 200}x{'9' * 200}\nnoise_levels = 0\n",
     "pixels overflows the measurement count"),
    # open() raised a bare ValueError ("embedded null byte") as the scene's cell ran
    ("scenes = a\0b.pgm\nsolvers = dgi\nsampling_ratios = 1\nimage_sizes = 8x8\n"
     "noise_levels = 0\n",
     "usage error: scene 'a\\x00b.pgm' holds a NUL byte, which no path can\n"),
], ids=["overflowing-ratio", "not-utf8", "too-many-repeats", "no-equals", "vast-image-size",
        "nul-scene"])
def test_bad_benchmark_config_is_usage_error(tmp_path, capsys, config, message):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_bytes(config.encode() if isinstance(config, str) else config)
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()


def _refused_before_the_first_cell(tmp_path, capsys, monkeypatch, config):
    """benchmark on config exits 1 before any cell runs and writes no CSV;
    returns its stderr."""
    calls, run_cell = [], bench.run_cell

    def recording_run_cell(*args, **kwargs):
        calls.append(args)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(bench, "run_cell", recording_run_cell)
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text(config)
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert calls == [] and not out.exists()
    return capsys.readouterr().err


def test_an_unwritable_benchmark_out_fails_before_the_first_cell(tmp_path, capsys,
                                                                 monkeypatch):
    """--out in a missing directory exits 2 before any cell runs; before, all
    six cells ran and only then did the CSV fail to open."""
    calls, run_cell = [], bench.run_cell

    def recording_run_cell(*args, **kwargs):
        calls.append(args)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(bench, "run_cell", recording_run_cell)
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "missing" / "results.csv"
    cfg.write_text("scenes = blocks\nsolvers = corr, dgi, cgd\nsampling_ratios = 0.5, 1\n"
                   "image_sizes = 8\nnoise_levels = 0\nrepeats = 1\n")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: [Errno 2] No such file or directory")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("ratios, message", [
    ("1.0, 1e308", "1e+308 x 1024 pixels overflows"),
    ("1.0, 1e-4", "ratio 0.0001 gives zero measurements"),
])
def test_a_bad_ratio_is_refused_before_the_first_cell(tmp_path, capsys, monkeypatch,
                                                      ratios, message):
    err = _refused_before_the_first_cell(
        tmp_path, capsys, monkeypatch,
        f"scenes = blocks\nsolvers = cgd\nsampling_ratios = {ratios}\n"
        "image_sizes = 32x32\nnoise_levels = 0\nrepeats = 3\n")
    assert message in err


@pytest.mark.parametrize("lines, message", [
    ("scenes = blocks\nsolvers = corr, nope\nnoise_levels = 0\n", "unknown solver 'nope'"),
    ("scenes = blocks, nope\nsolvers = dgi\nnoise_levels = 0\n", "unknown scene 'nope'"),
    ("scenes = blocks\nsolvers = dgi\nnoise_levels = 0, 1e307\n",
     "noise level 1e+307 x 64 pixels overflows"),
], ids=["solver", "scene", "noise-level"])
def test_a_bad_name_or_noise_level_is_refused_before_the_first_cell(
        tmp_path, capsys, monkeypatch, lines, message):
    err = _refused_before_the_first_cell(
        tmp_path, capsys, monkeypatch,
        lines + "sampling_ratios = 1\nimage_sizes = 8x8\nrepeats = 1\n")
    assert err.startswith("usage error: ") and message in err and '"' not in err


@pytest.mark.parametrize("ratios, levels, message", [
    ("1e-4", "0", "ratio 0.0001 gives zero measurements"),
    ("1e308", "0", "1e+308 x 1024 pixels overflows"),
    ("1", "1e307", "noise level 1e+307 x 1024 pixels overflows"),
], ids=["zero-measurements", "overflowing-ratio", "overflowing-noise-level"])
def test_a_refused_config_leaves_an_existing_out_as_it_was(tmp_path, capsys, ratios, levels,
                                                           message):
    """These were refused only after --out was opened, which deleted the
    results file already there."""
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text(f"scenes = blocks\nsolvers = dgi\nsampling_ratios = {ratios}\n"
                   f"image_sizes = 32x32\nnoise_levels = {levels}\nrepeats = 1\n")
    out.write_bytes(b"earlier results\n")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"earlier results\n"


def test_desk_refuses_a_grid_that_cannot_run_as_written(tmp_path, capsys):
    """Ratio 0.1 gives 2x2 no measurement, though --desk's 32x32 would run."""
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "results.csv"
    cfg.write_text("scenes = blocks\nsolvers = dgi\nsampling_ratios = 0.1\n"
                   "image_sizes = 2x2\nnoise_levels = 0\n")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out), "--desk"]) == 1
    assert "ratio 0.1 gives zero measurements" in capsys.readouterr().err
    assert not out.exists()


def _python_m_cli(*args):
    """``python -m spi_recon.cli args`` in a fresh interpreter that imports
    spi_recon from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spi_recon.__file__)))
    return subprocess.run([sys.executable, "-m", "spi_recon.cli", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=300)


def test_python_m_runs_the_cli(tmp_path):
    """Before, ``python -m spi_recon.cli`` ran nothing and exited 0."""
    out = _python_m_cli("nope")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    truth, estimate = tmp_path / "truth.pgm", tmp_path / "estimate.pgm"
    write_image(builtin_scene("disk", 8, 8), truth)
    write_image(builtin_scene("bars", 8, 8), estimate)
    out = _python_m_cli("metrics", "--truth", truth, "--estimate", estimate)
    rmse = normalized_rmse(read_image(truth), read_image(estimate))
    assert (out.returncode, out.stdout, out.stderr) == (0, f"{rmse:.9f}\n", "")


def test_the_console_script_is_main():
    """A console script calls sys.exit(main()) itself, so no wrapper stands between."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(spi_recon.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"spi-recon": "spi_recon.cli:main"}
    assert not hasattr(cli, "console_entry")


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
