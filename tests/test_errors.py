"""The error contract: every library refusal is an ``errors.Error`` whose
``exit_code`` the CLI returns, with a ``usage error:`` (1) or ``runtime
error:`` (2) line, and which a benchmark cell records as a ``failed:`` row.
A grammar-driven fuzz of ``cli.main`` checks that no argv ends in a
traceback."""

import inspect
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spi_recon
from spi_recon import bench, cli, errors
from spi_recon.errors import Error, InvalidArgumentError, UnknownSolverError
from spi_recon.io import MAGIC, write_image
from spi_recon.model import Image
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import solver_registry


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


LIBRARY_ERRORS = [Error, *sorted(set(_subclasses(Error)), key=lambda c: c.__name__)]
STDLIB_BASE = {"InvalidArgumentError": ValueError, "SingularSystemError": RuntimeError,
               "NumericalFailureError": RuntimeError, "LineSearchFailureError": RuntimeError,
               "DomainError": ValueError, "UnknownSolverError": KeyError,
               "FormatError": ValueError}


def test_every_exception_class_in_errors_is_an_error():
    defined = {c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__}
    assert defined == set(LIBRARY_ERRORS)
    for cls in LIBRARY_ERRORS[1:]:
        assert issubclass(cls, STDLIB_BASE[cls.__name__])  # old except clauses still catch it


def test_error_is_in_no_public_namespace():
    assert not hasattr(spi_recon, "Error")
    for name in ("model", "transforms", "metrics", "scenes", "solvers", "bench", "io", "cli"):
        assert "Error" not in getattr(spi_recon, name).__all__


@pytest.mark.parametrize("cls", LIBRARY_ERRORS, ids=lambda c: c.__name__)
def test_every_error_reaches_its_exit_code_and_a_failed_row(cls, tmp_path, capsys,
                                                            monkeypatch):
    code, kind = (1, "usage") if cls in (InvalidArgumentError, UnknownSolverError) else (
        2, "runtime")
    assert cls.exit_code == code

    def refuse(*args, **kwargs):
        raise cls("refused")

    scene = tmp_path / "scene.pgm"
    write_image(builtin_scene("blocks", 4, 4), scene)
    monkeypatch.setattr(cli, "normalized_rmse", refuse)
    assert cli.main(["metrics", "--truth", str(scene), "--estimate", str(scene)]) == code
    assert capsys.readouterr().err == f"{kind} error: refused\n"

    monkeypatch.setattr(bench, "get_solver", lambda name: refuse)
    row = bench.run_cell("blocks", "corr", 1.0, 4, 4, 0.0, 0)
    assert row.status == f"failed:{cls.__name__}: refused" and row.rmse is None


# ---------------------------------------------------------------- CLI fuzz

BAD_INTS = st.sampled_from(["", "x", "1.5", "-1", "0", str(2**64), str(10**30)])
BAD_FLOATS = st.sampled_from(["", "x", "-1", "nan", "inf", "1e308"])


# one vast value each on an axis of a cheap grid, which --desk would run
CHEAP = {"image_sizes": "8", "sampling_ratios": "0.2", "noise_levels": "0"}
VAST = {"image_sizes": f"{'9' * 200}x{'9' * 200}", "sampling_ratios": "1e308",
        "noise_levels": "0, 1e308"}

# the scenes of the valid problems: square, non-square, one pixel wide and
# one with more pixels than any bundle made from another
SHAPES = {"8": (8, 8), "5x3": (5, 3), "1x7": (1, 7), "16": (16, 16)}


def _measurement_variants(good):
    """name -> bytes of measurement bundles made from a valid one of an 8x8
    scene: the retired kind-2 layout, a width or height of 0, cut in the
    header or the payload, and shapes of another or the same pixel count."""
    m, w, h, seed, sigma = struct.unpack("<IIIQd", good[9:37])
    payload = good[37:]

    def head(width=w, height=h):
        return MAGIC + struct.pack("<BIIIQd", 3, m, width, height, seed, sigma)

    return {
        "meas_kind2": MAGIC + struct.pack("<BIIQd", 2, m, w * h, seed, sigma) + payload,
        "meas_w0": head(width=0) + payload,
        "meas_h0": head(height=0) + payload,
        "meas_cut_head": good[:20],
        "meas_cut_payload": good[:-8],
        "meas_4x8": head(width=4) + payload,  # 32 pixels for patterns of 64
        "meas_16x4": head(width=16, height=4) + payload,  # another shape of 64 pixels
    }


# finite readings whose squares overflow: 1e160 alternating in sign, and 1e300
# near the float64 limit
OVERFLOWS = {"1e160": lambda i: (-1) ** i * 1e160, "1e300": lambda i: 1e300}


def _overflowing(good):
    """suffix -> bytes of a measurement bundle with the header of the valid
    bundle good and the readings OVERFLOWS[suffix] gives."""
    m = struct.unpack("<I", good[9:13])[0]
    return {suffix: good[:37] + struct.pack(f"<{m}d", *map(reading, range(m)))
            for suffix, reading in OVERFLOWS.items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small inputs, at most 16x16 pixels and m = 256, each good or bad."""
    d = tmp_path_factory.mktemp("fuzz")
    write_image(builtin_scene("blocks", 8, 8), d / "scene8.pgm")
    write_image(builtin_scene("blocks", 5, 3), d / "scene5x3.pgm")
    write_image(Image(1, 7, np.linspace(0.1, 0.9, 7)), d / "scene1x7.pgm")
    write_image(builtin_scene("blocks", 4, 4), d / "scene4.pgm")
    write_image(builtin_scene("disk", 16, 16), d / "scene16.pgm")
    (d / "garbage").write_bytes(b"P5 not a file this library reads\n")
    (d / "config.cfg").write_text("scenes = blocks\nsolvers = corr, pinv\n"
                                  "sampling_ratios = 0.5, 1\nimage_sizes = 8\n"
                                  "noise_levels = 0, 1e-4, 5e-4, 1e-3, 3e-3\nrepeats = 1\n")
    # cheap enough for --desk's 32x32 and 5 repeats
    (d / "desk.cfg").write_text("scenes = blocks\nsolvers = corr, dgi\nsampling_ratios = 0.2\n"
                                "image_sizes = 8\nnoise_levels = 1e-3\nrepeats = 1\n")
    (d / "bad.cfg").write_text("scenes = blocks, missing.pgm\nsolvers = dgi\n"
                               "sampling_ratios = 0.2, 0.5, 1, 2, 3, 5\n"
                               "image_sizes = 4x8\nnoise_levels = 0, 1e-3\nrepeats = 1\n"
                               "distribution = binary\n")
    (d / "latin1.cfg").write_bytes(b"scenes = caf\xe9\nsolvers = corr\n")
    # a vast image size, sampling ratio or noise level: each scaled count overflows
    for key in VAST:
        grid = "".join(f"{k} = {VAST[k] if k == key else v}\n" for k, v in CHEAP.items())
        (d / f"vast_{key}.cfg").write_text(f"scenes = blocks\nsolvers = dgi\n{grid}repeats = 1\n")
    for name, (w, h) in [("4", (4, 4)), *SHAPES.items()]:  # m = n, at most 256
        assert cli.main(["gen-patterns", "--m", str(w * h), "--width", str(w),
                         "--height", str(h), "--seed", "3",
                         "--out", str(d / f"pat{name}.spib")]) == 0
    for k in SHAPES:
        assert cli.main(["simulate", "--patterns", str(d / f"pat{k}.spib"), "--scene",
                         str(d / f"scene{k}.pgm"), "--out", str(d / f"meas{k}.spib")]) == 0
    for name, data in _measurement_variants((d / "meas8.spib").read_bytes()).items():
        (d / f"{name}.spib").write_bytes(data)
    for k in SHAPES:
        for suffix, data in _overflowing((d / f"meas{k}.spib").read_bytes()).items():
            (d / f"meas{k}_{suffix}.spib").write_bytes(data)
    return d


def _flag(flag, good, bad):
    # one time in twelve a bad value, and one in twelve no flag at all,
    # which argparse refuses when the flag is required
    return st.tuples(st.integers(0, 11), good, bad).map(
        lambda t: [] if t[0] == 0 else [flag, t[2] if t[0] == 1 else t[1]])


def _command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name] + [a for p in parts for a in p])


def _argv(d):
    def path(*names):
        return st.sampled_from([str(d / n) for n in names])

    def ints(lo, hi):
        return st.integers(lo, hi).map(str)

    bad_path = path("missing", "garbage", "scene4.pgm", "pat4.spib")
    # valid bundles of every shape and each malformed one, drawn alike
    measurements = path(*sorted(f.name for f in d.glob("meas*.spib")))
    patterns = path(*(f"pat{k}.spib" for k in SHAPES))
    scenes = path(*(f"scene{k}.pgm" for k in SHAPES))
    out = (path("out"), st.sampled_from([str(d), str(d / "missing" / "out")]))
    vast = [f"vast_{key}.cfg" for key in VAST]
    seed = (ints(0, 3), BAD_INTS)
    solvers = st.sampled_from([n for n, _ in solver_registry()])

    def overflowing(k):  # the patterns of shape k and its readings that overflow
        return _command("reconstruct", _flag("--solver", solvers, st.just("nope")),
                        st.just(["--patterns", str(d / f"pat{k}.spib")]),
                        _flag("--measurements", path(*(f"meas{k}_{s}.spib" for s in OVERFLOWS)),
                              bad_path),
                        _flag("--out", *out))

    return st.one_of(
        _command("gen-patterns", _flag("--m", ints(1, 128), BAD_INTS),
                 _flag("--width", ints(1, 8), BAD_INTS), _flag("--height", ints(1, 8), BAD_INTS),
                 _flag("--dist", st.sampled_from(["uniform01", "binary"]), st.just("foo")),
                 _flag("--seed", *seed), _flag("--out", *out)),
        _command("simulate", _flag("--patterns", patterns, bad_path),
                 _flag("--scene", scenes, bad_path),
                 _flag("--noise-level", st.sampled_from(["0", "1e-3"]), BAD_FLOATS),
                 _flag("--seed", *seed), _flag("--out", *out)),
        _command("reconstruct", _flag("--solver", solvers, st.just("nope")),
                 _flag("--patterns", patterns, bad_path),
                 _flag("--measurements", measurements, bad_path),
                 _flag("--out", *out), _flag("--trace", *out),
                 _flag("--threshold", st.sampled_from(["0", "1e-2"]), BAD_FLOATS),
                 _flag("--min-iter", ints(0, 40), BAD_INTS),
                 _flag("--max-iter-factor", st.sampled_from(["0", "1", "3"]), BAD_FLOATS)),
        _command("benchmark", _flag("--config", path("config.cfg", "desk.cfg"),
                                    path("bad.cfg", "latin1.cfg", "missing", "garbage")),
                 _flag("--out", *out)),
        _command("benchmark", _flag("--config", path(*vast), path("missing")),
                 _flag("--out", *out)),
        _command("benchmark", _flag("--config", path("desk.cfg"),
                                    path("latin1.cfg", "missing", "garbage", *vast)),
                 _flag("--out", *out), st.just(["--desk"])),
        st.sampled_from(sorted(SHAPES)).flatmap(overflowing),
        _command("metrics", _flag("--truth", scenes, bad_path),
                 _flag("--estimate", scenes, bad_path)),
        st.lists(st.sampled_from(["nope", "--m", "8", "-x", "simulate"]), max_size=3),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_cli_never_raises_and_exits_0_1_or_2(files, data):
    argv = data.draw(_argv(files), label="argv")
    assert cli.main(argv) in (0, 1, 2)
