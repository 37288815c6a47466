"""The argument rule: every count, size and seed is an integer, checked by
``model._check_int``, and every sigma, level, threshold and factor is a
finite real >= 0, checked by ``model._check_real``.  Each site refuses an
argument that breaks the rule with InvalidArgumentError, never with a bare
TypeError, OverflowError or struct.error, and never takes it to give a
silently wrong result.  numpy integers are taken as plain ints."""

import os
import struct

import numpy as np
import pytest

from spi_recon.bench import SweepSpec
from spi_recon.errors import FormatError, InvalidArgumentError
from spi_recon.io import read_measurements, write_image, write_measurements
from spi_recon.model import (Image, MeasurementSet, NoiseModel, add_noise, generate_patterns,
                             synthesize)
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import StopCriteria, corr_reconstruct
from spi_recon.transforms import dct_operator, gradient_operator, soft_threshold

PATTERNS = generate_patterns(4, 2, 2, seed=0)
MEAS = synthesize(PATTERNS, Image(2, 2, np.full(4, 0.5)))

NOT_INTS = [1.5, 2.5, 2.0, np.nan, np.inf, "2", None]  # 2.5 and 2.0 pass every size bound
NOT_REALS = [-1.0, np.nan, np.inf, -np.inf, "0.5", None, 10**400, 1j]

# name -> (call of the one argument under test, that argument's bad values);
# 2 is a valid value of every one
INT_SITES = {
    "image-width": (lambda v: Image(v, 2, np.zeros(4)), [0]),
    "image-height": (lambda v: Image(2, v, np.zeros(4)), [0]),
    "noise-pixel-count": (lambda v: NoiseModel(1e-3, v), [0]),
    "patterns-m": (lambda v: generate_patterns(v, 2, 2), [0]),
    "patterns-width": (lambda v: generate_patterns(4, v, 2), [0]),
    "patterns-height": (lambda v: generate_patterns(4, 2, v), [0]),
    "patterns-seed": (lambda v: generate_patterns(4, 2, 2, seed=v), [-1, 10**400]),
    "noise-seed": (lambda v: add_noise(MEAS, NoiseModel(1e-3, 4), seed=v), [-1, 10**400]),
    "scene-width": (lambda v: builtin_scene("blocks", v, 3), [1]),
    "scene-height": (lambda v: builtin_scene("blocks", 3, v), [1]),
    "dct-width": (lambda v: dct_operator(v, 2), [0]),
    "dct-height": (lambda v: dct_operator(2, v), [0]),
    "gradient-width": (lambda v: gradient_operator(v, 2), [1]),
    "gradient-height": (lambda v: gradient_operator(2, v), [1]),
    "min-iterations": (lambda v: StopCriteria(min_iterations=v), [-1]),
    "solve-width": (lambda v: corr_reconstruct(PATTERNS, MEAS, v, 2), [0]),
    "solve-height": (lambda v: corr_reconstruct(PATTERNS, MEAS, 2, v), [0]),
    "sweep-repeats": (lambda v: SweepSpec(["blocks"], ["dgi"], repeats=v), [0]),
    "sweep-size": (lambda v: SweepSpec(["blocks"], ["dgi"], image_sizes=[(8, 8), (v, 8)]),
                   [1]),
    "bundle-width": (lambda v: write_measurements(MEAS, v, 2, os.devnull), [0, 2**32]),
    "bundle-height": (lambda v: write_measurements(MEAS, 2, v, os.devnull), [0, 10**400]),
}

REAL_SITES = {
    "noise-sigma": lambda v: MeasurementSet([1.0], noise_sigma=v),
    "noise-level": lambda v: NoiseModel(v, 4),
    "threshold": lambda v: soft_threshold(np.ones(3), v),
    "residual-change-threshold": lambda v: StopCriteria(residual_change_threshold=v),
    "max-iterations-factor": lambda v: StopCriteria(max_iterations_factor=v),
    "sweep-noise-level": lambda v: SweepSpec(["blocks"], ["dgi"], noise_levels=[0.0, v]),
}


def _label(v):
    return "10**400" if v == 10**400 else repr(v)


CASES = [(f"{name}-{_label(v)}", call, v)
         for name, (call, bad) in INT_SITES.items() for v in NOT_INTS + bad]
CASES += [(f"{name}-{_label(v)}", call, v)
          for name, call in REAL_SITES.items() for v in NOT_REALS]


@pytest.mark.parametrize("call, value", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_an_argument_outside_the_rule_is_refused(call, value):
    with pytest.raises(InvalidArgumentError):
        call(value)


@pytest.mark.parametrize("name", INT_SITES)
@pytest.mark.parametrize("make", [int, np.int64, np.uint8], ids=["int", "int64", "uint8"])
def test_every_integer_site_takes_a_numpy_integer(name, make):
    INT_SITES[name][0](make(2))


@pytest.mark.parametrize("name", REAL_SITES)
@pytest.mark.parametrize("value", [0, 2, 0.0, 0.5, np.float64(0.5), np.float32(0.5)])
def test_every_real_site_takes_a_finite_non_negative_real(name, value):
    REAL_SITES[name](value)


def test_sites_that_keep_an_integer_keep_a_plain_int():
    two = np.int64(2)
    kept = [Image(two, two, np.zeros(4)).width, NoiseModel(1e-3, two).pixel_count,
            StopCriteria(min_iterations=two).min_iterations,
            SweepSpec(["blocks"], ["dgi"], repeats=two).repeats,
            corr_reconstruct(PATTERNS, MEAS, two, two).image.height]
    assert all(type(v) is int and v == 2 for v in kept)


@pytest.mark.parametrize("image, header", [
    (lambda: Image(np.int64(3), np.int64(2), np.zeros(6)), b"P5\n3 2\n255\n"),
    (lambda: Image(True, 2, np.zeros(2)), b"P5\n1 2\n255\n"),
    (lambda: corr_reconstruct(PATTERNS, MEAS, np.uint8(2), 2).image, b"P5\n2 2\n255\n"),
], ids=["int64", "bool", "solved"])
def test_write_image_writes_a_digits_only_header(image, header, tmp_path):
    """A width of 2.5 or True was written into the header as it was."""
    write_image(image(), tmp_path / "x.pgm")
    assert (tmp_path / "x.pgm").read_bytes().startswith(header)


@pytest.mark.parametrize("sizes", [[8], [(8,)], [(8, 8, 8)], ["8x8"], [None]])
def test_an_image_size_must_be_a_pair(sizes):
    with pytest.raises(InvalidArgumentError, match="an image size must be a "
                                                   r"\(width, height\) pair"):
        SweepSpec(["blocks"], ["dgi"], image_sizes=sizes)


def test_a_bundle_with_an_infinite_sigma_is_refused_at_its_offset(tmp_path):
    """Before, it was read back and reconstructed from with exit 0."""
    path = tmp_path / "meas.spib"
    write_measurements(MEAS, 2, 2, path)
    data = bytearray(path.read_bytes())
    data[29:37] = struct.pack("<d", np.inf)
    path.write_bytes(data)
    with pytest.raises(FormatError, match="noise_sigma must be finite") as info:
        read_measurements(path)
    assert info.value.offset == 29


def test_a_vast_integer_real_overflows_into_a_refusal():
    """An int level or factor that is finite as a float made its product with
    a count a vast int, which np.isfinite refused with a bare TypeError."""
    with pytest.raises(InvalidArgumentError, match="overflows sigma"):
        NoiseModel(10**300, 10**10)
    with pytest.raises(InvalidArgumentError, match="overflows the iteration cap"):
        StopCriteria(max_iterations_factor=10**300).max_iterations(10**10)
