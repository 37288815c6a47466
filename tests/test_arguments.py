"""The argument rule: every count, size and seed is an integer, checked by
``model._check_int``, and every sigma, level, threshold and factor is a
finite real >= 0, checked by ``model._check_real``, whose product with a
pixel count is a finite float, checked by ``model._check_scaled``; a scene
or pattern matrix must be addressable, checked by
``model._check_addressable``.  Each site refuses an argument that breaks
the rule with InvalidArgumentError, never with a bare TypeError,
OverflowError, ValueError or struct.error, and never takes it to give a
silently wrong result.  numpy integers are taken as plain ints."""

import os
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from spi_recon.bench import SweepSpec, run_cell
from spi_recon.errors import FormatError, InvalidArgumentError
from spi_recon.io import SweepRow, read_measurements, write_image, write_measurements
from spi_recon.model import (Image, MeasurementSet, NoiseModel, PatternSet, add_noise,
                             generate_patterns, synthesize)
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import StopCriteria, corr_reconstruct
from spi_recon.transforms import dct_operator, gradient_operator, soft_threshold

PATTERNS = generate_patterns(4, 2, 2, seed=0)
MEAS = synthesize(PATTERNS, Image(2, 2, np.full(4, 0.5)))

SWEEP_GRID = dict(sampling_ratios=[0.5], image_sizes=[(8, 8)], noise_levels=[0.0])


def sweep_spec(**fields):
    """A one-cell SweepSpec of blocks and dgi, with fields replacing its own."""
    return SweepSpec(["blocks"], ["dgi"], **{**SWEEP_GRID, **fields})


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
    "pattern-set-seed": (lambda v: PatternSet(np.ones((2, 2)), seed=v), [-1, 2**64]),
    "measurement-noise-seed": (lambda v: MeasurementSet(np.ones(2), noise_seed=v), [-1, 2**64]),
    "scene-width": (lambda v: builtin_scene("blocks", v, 3), [1]),
    "scene-height": (lambda v: builtin_scene("blocks", 3, v), [1]),
    "dct-width": (lambda v: dct_operator(v, 2), [0]),
    "dct-height": (lambda v: dct_operator(2, v), [0]),
    "gradient-width": (lambda v: gradient_operator(v, 2), [1]),
    "gradient-height": (lambda v: gradient_operator(2, v), [1]),
    "min-iterations": (lambda v: StopCriteria(min_iterations=v), [-1]),
    "solve-width": (lambda v: corr_reconstruct(PATTERNS, MEAS, v, 2), [0]),
    "solve-height": (lambda v: corr_reconstruct(PATTERNS, MEAS, 2, v), [0]),
    "sweep-repeats": (lambda v: sweep_spec(repeats=v), [0]),
    "sweep-size": (lambda v: sweep_spec(image_sizes=[(8, 8), (v, 8)]), [1]),
    "sweep-base-seed": (lambda v: sweep_spec(base_seed=v), []),  # hashed, so -1 is a seed
    "cell-base-seed": (lambda v: run_cell("blocks", "dgi", 1.0, 2, 2, 0.0, 0, base_seed=v), []),
    "cell-repeat": (lambda v: run_cell("blocks", "dgi", 1.0, 2, 2, 0.0, v), [-1]),
    # a PGM scene keeps its own size, so a missing one wrote its width and height into the row
    "cell-width": (lambda v: run_cell("missing.pgm", "dgi", 1.0, v, 2, 0.0, 0), [1]),
    "cell-height": (lambda v: run_cell("missing.pgm", "dgi", 1.0, 2, v, 0.0, 0), [1]),
    "bundle-width": (lambda v: write_measurements(MEAS, v, 2, os.devnull), [0, 2**32]),
    "bundle-height": (lambda v: write_measurements(MEAS, 2, v, os.devnull), [0, 10**400]),
}

REAL_SITES = {
    "noise-sigma": lambda v: MeasurementSet([1.0], noise_sigma=v),
    "noise-level": lambda v: NoiseModel(v, 4),
    "threshold": lambda v: soft_threshold(np.ones(3), v),
    "residual-change-threshold": lambda v: StopCriteria(residual_change_threshold=v),
    "max-iterations-factor": lambda v: StopCriteria(max_iterations_factor=v),
    "sweep-noise-level": lambda v: sweep_spec(noise_levels=[0.0, v]),
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
            sweep_spec(repeats=two).repeats, sweep_spec(base_seed=two).base_seed,
            corr_reconstruct(PATTERNS, MEAS, two, two).image.height,
            PatternSet(np.ones((2, 2)), seed=two).seed,
            MeasurementSet(np.ones(2), noise_seed=two).noise_seed]
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


@pytest.mark.parametrize("sizes", [[8], [(8,)], [(8, 8, 8)], ["8x8"], [None], ["88"]])
def test_an_image_size_must_be_a_pair(sizes):
    with pytest.raises(InvalidArgumentError, match="an image size must be a "
                                                   r"\(width, height\) pair"):
        sweep_spec(image_sizes=sizes)


@pytest.mark.parametrize("sizes", [np.array([[8, 8]]), [np.array([8, 8])], [[8, 8]],
                                   [(np.int64(8), np.uint8(8))]],
                         ids=["array", "array-pair", "list-pair", "numpy-ints"])
def test_any_two_integers_are_an_image_size(sizes):
    """An array of pairs was refused as not a (width, height) pair, though
    every other axis may be an array; the spec keeps each as a pair of ints."""
    assert sweep_spec(image_sizes=sizes).image_sizes == ((8, 8),)
    assert all(type(side) is int for side in sweep_spec(image_sizes=sizes).image_sizes[0])


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


@pytest.mark.parametrize("ratio", NOT_REALS + ["a", 0, 0.0], ids=_label)
@pytest.mark.parametrize("call", [
    lambda r: sweep_spec(sampling_ratios=[0.5, r]),
    lambda r: run_cell("blocks", "dgi", r, 8, 8, 0.0, 0),
], ids=["spec", "cell"])
def test_a_sampling_ratio_outside_the_rule_is_refused(call, ratio):
    """'a', None, 10**400 and 1j died in np.isfinite, ``> 0`` or ``ratio * n``
    with a bare TypeError."""
    with pytest.raises(InvalidArgumentError, match="ratio"):
        call(ratio)


@pytest.mark.parametrize("call", [
    lambda: NoiseModel(1e-3, 10**400),
    lambda: NoiseModel(0.0, 10**400),
    lambda: StopCriteria().max_iterations(10**400),
    lambda: sweep_spec(image_sizes=[(10**200, 10**200)]),
], ids=["noise-level", "zero-noise-level", "iteration-cap", "sweep-size"])
def test_a_pixel_count_past_float_range_is_refused(call):
    """A real times an int past float range raised a bare OverflowError."""
    with pytest.raises(InvalidArgumentError, match=r"x 10+ pixels overflows"):
        call()


@pytest.mark.parametrize("call", [
    lambda: builtin_scene("blocks", 10**200, 10**200),
    lambda: builtin_scene("disk", 2**30, 2**30),  # 2**63 bytes, one past intp
    lambda: run_cell("blocks", "dgi", 0.5, 10**200, 10**200, 0.0, 0),
], ids=["scene", "scene-one-byte-past", "cell"])
def test_a_scene_no_index_can_reach_is_refused(call):
    """numpy refused such a scene with a bare ValueError ("Maximum allowed
    dimension exceeded"); it shares the pattern matrix's address check."""
    with pytest.raises(InvalidArgumentError, match="scene is too large to address"):
        call()


def sweep_row(**fields):
    """An ok SweepRow, with fields replacing its own."""
    return SweepRow(**{**dict(scene="blocks", solver="dgi", ratio=0.5, size="8x8", noise_level=0.0,
                              repeat=0, rmse=0.1, iterations=0, wall_time_s=0.01, seed=1,
                              status="ok"), **fields})


# record -> (a call that builds it, a field, a value that its checks would refuse);
# the seed and width once went on to a bare struct.error and a "P5\n2.5 2\n255" header
ASSIGNMENTS = {
    "image-width": (lambda: Image(2, 2, np.zeros(4)), "width", 2.5),
    "pattern-set-seed": (lambda: PatternSet(np.ones((2, 2))), "seed", -1),
    "measurement-values": (lambda: MeasurementSet(np.ones(3)), "values",
                           np.array([np.nan, 1.0, 2.0])),
    "noise-level": (lambda: NoiseModel(0.1, 4), "level", 5.0),
    "stop-min-iterations": (StopCriteria, "min_iterations", 2.5),
    "solver-report-image": (lambda: corr_reconstruct(PATTERNS, MEAS, 2, 2), "image", None),
    "sweep-ratios": (sweep_spec, "sampling_ratios", [0.0]),
    "sweep-row-rmse": (sweep_row, "rmse", np.nan),
}


@pytest.mark.parametrize("make, name, value", ASSIGNMENTS.values(), ids=ASSIGNMENTS)
def test_a_record_refuses_an_assignment_to_a_field(make, name, value):
    """Records are frozen, so no field skips the checks of the constructor."""
    record = make()
    held = getattr(record, name)
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, value)
    assert getattr(record, name) is held


def test_replace_runs_the_checks_again():
    """dataclasses.replace, the one way left to change a record, builds it anew."""
    with pytest.raises(InvalidArgumentError, match="min_iterations"):
        replace(StopCriteria(), min_iterations=2.5)
    with pytest.raises(InvalidArgumentError, match="sampling ratios"):
        replace(sweep_spec(), sampling_ratios=[0.0])
    assert replace(NoiseModel(0.1, 4), level=0.2).sigma == 0.8


def test_records_of_scalars_are_hashable():
    assert len({StopCriteria(), StopCriteria(), NoiseModel(0.1, 4), sweep_row(),
                sweep_spec(), sweep_spec()}) == 4
    report = corr_reconstruct(PATTERNS, MEAS, 2, 2)
    for record in (PATTERNS, MEAS, report.image, report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
