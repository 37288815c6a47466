import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spi_recon.errors import InvalidArgumentError
from spi_recon.model import (
    Image,
    MeasurementSet,
    NoiseModel,
    PatternSet,
    add_noise,
    generate_patterns,
    synthesize,
)
from spi_recon.scenes import builtin_scene


def test_generate_patterns_zero_count_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_patterns(0, 4, 4)
    with pytest.raises(InvalidArgumentError):
        generate_patterns(5, 0, 4)


def test_generate_patterns_deterministic():
    a = generate_patterns(20, 4, 3, "uniform01", seed=123)
    b = generate_patterns(20, 4, 3, "uniform01", seed=123)
    assert np.array_equal(a.rows, b.rows)
    c = generate_patterns(20, 4, 3, "binary", seed=123)
    d = generate_patterns(20, 4, 3, "binary", seed=123)
    assert np.array_equal(c.rows, d.rows)
    assert not np.array_equal(a.rows, generate_patterns(20, 4, 3, seed=124).rows)


def test_generate_patterns_uniform_mean():
    # law of large numbers: per-pixel mean of 1e5 uniform draws within 5 sigma
    ps = generate_patterns(10**5, 2, 2, "uniform01", seed=7)
    means = ps.rows.mean(axis=0)
    assert np.all(means > 0.49) and np.all(means < 0.51)


def test_generate_patterns_binary_values():
    ps = generate_patterns(50, 3, 3, "binary", seed=1)
    assert set(np.unique(ps.rows)) <= {0.0, 1.0}


@pytest.mark.parametrize("m, n", [(64, 4096), (7, 9), (5, 3), (33, 25), (1, 1),
                                  (101, 333), (70001, 1)])
def test_binary_patterns_equal_one_whole_draw(m, n):
    """Row-block draws reproduce a single (m, n) int64 draw bit for bit,
    odd m*n and a tail block included."""
    for seed in (0, 1, 123):
        whole = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=(m, n))
        ps = generate_patterns(m, n, 1, "binary", seed=seed)
        assert np.array_equal(ps.rows, whole.astype(np.float64)), (m, n, seed)


def test_binary_patterns_hold_one_copy_of_the_payload():
    payload = 256 * 64 * 64 * 8  # 8 MiB of float64
    generate_patterns(2, 2, 2, "binary")  # numpy.random's own first-use allocations
    tracemalloc.start()
    try:
        generate_patterns(256, 64, 64, "binary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload


def test_intensities_and_shape_are_derived_from_rows():
    A = np.random.default_rng(4).random((6, 5))
    ps = PatternSet(A, seed=3)
    assert (ps.m, ps.n, ps.seed) == (6, 5, 3)
    for name in ("m", "n"):
        with pytest.raises(TypeError):
            PatternSet(A, **{name: np.ones(6)})
        with pytest.raises(AttributeError):
            setattr(ps, name, np.ones(6))


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_patterns_must_be_a_matrix(shape):
    with pytest.raises(InvalidArgumentError, match="2D"):
        PatternSet(np.ones(shape))


# each model object's intake: how it is built from an array, and what it holds
INTAKES = {
    "patterns": (lambda a: PatternSet(a).rows, (2, 3)),
    "measurements": (lambda a: MeasurementSet(values=a).values, (6,)),
    "image": (lambda a: Image(3, 2, a).data, (6,)),
}


@pytest.mark.parametrize("make, shape", INTAKES.values(), ids=INTAKES)
def test_an_owned_float64_array_is_taken_over(make, shape):
    a = np.ones(shape)
    held = make(a)
    assert np.shares_memory(a, held)
    assert not a.flags.writeable and not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0] = np.nan
    assert np.all(held == 1.0)


@pytest.mark.parametrize("make, shape", INTAKES.values(), ids=INTAKES)
def test_a_view_is_copied_and_stays_writable(make, shape):
    base = np.ones((2, *shape))
    held = make(base[1])
    assert not np.shares_memory(base, held) and base.flags.writeable
    base[1] = -1.0
    assert np.all(held == 1.0)


@pytest.mark.parametrize("a", [np.ones((2, 3), np.float32), np.ones((2, 3), order="F")],
                         ids=["float32", "fortran"])
def test_another_dtype_or_layout_is_copied(a):
    rows = PatternSet(a).rows
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert not np.shares_memory(a, rows) and a.flags.writeable


def test_a_refused_array_stays_writable():
    A = -np.ones((2, 3))
    with pytest.raises(InvalidArgumentError):
        PatternSet(A)
    assert A.flags.writeable


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_refused(seed):
    with pytest.raises(InvalidArgumentError, match="seed"):
        generate_patterns(2, 2, 2, seed=seed)
    meas = MeasurementSet(values=np.ones(3))
    for level in (0.0, 1e-3):  # sigma = 0 takes a shortcut past the generator
        with pytest.raises(InvalidArgumentError, match="seed"):
            add_noise(meas, NoiseModel(level=level, pixel_count=4), seed=seed)


def test_largest_seed_is_accepted():
    assert generate_patterns(2, 2, 2, seed=2**64 - 1).seed == 2**64 - 1


def test_unaddressable_pattern_matrix_is_refused_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="4000000000 x 10000000000"):
            generate_patterns(4_000_000_000, 100_000, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_patterns_reject_negative_entries():
    with pytest.raises(InvalidArgumentError):
        PatternSet(np.array([[1.0, -0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_patterns_reject_non_finite_or_negative_entries(bad):
    rows = np.ones((3, 4))
    rows[2, 1] = bad
    with pytest.raises(InvalidArgumentError, match="finite and >= 0"):
        PatternSet(rows)


def test_patterns_accept_negative_zero_and_no_rows():
    assert PatternSet(np.array([[-0.0, 1.0]])).m == 1
    empty = PatternSet(np.empty((0, 4)))
    assert (empty.m, empty.n) == (0, 4)


# entries in [0, 1] or one of the edge values of either record's rule
ENTRIES = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [np.nan, np.inf, -np.inf, -1.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]))


@settings(max_examples=300, deadline=None)
@given(rows=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
                   elements=ENTRIES),
       values=arrays(np.float64, array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=6),
                     elements=ENTRIES))
def test_a_record_refuses_exactly_when_its_mask_marks_an_entry(rows, values):
    """A record's check and its _refused mask, from which io locates a refused
    bundle entry, state one rule: they agree on every array."""
    for record, a in ((PatternSet, rows), (MeasurementSet, values)):
        try:
            record(a.copy())
            refused = False
        except InvalidArgumentError:
            refused = True
        assert refused == record._refused(a).any()


REAL_NUMBERS = "data must be real numbers, got dtype "


@pytest.mark.parametrize("make, message", [
    (lambda: PatternSet(np.array([[1 + 5j, 2]])), REAL_NUMBERS + "complex128"),
    (lambda: Image(2, 1, np.array([0.5, 0j])), REAL_NUMBERS + "complex128"),
    (lambda: MeasurementSet(np.array(["a", "b"])), REAL_NUMBERS + "<U1"),
    (lambda: MeasurementSet(np.array(["1", "2"])), REAL_NUMBERS + "<U1"),
    (lambda: MeasurementSet([1.0, None]), REAL_NUMBERS + "object"),
    (lambda: PatternSet([[1.0, 2.0], [3.0]]), "data is not an array"),
], ids=["complex-patterns", "complex-image", "text", "numeric-text", "object", "ragged"])
def test_intake_refuses_what_float64_cannot_hold(make, message):
    """A complex matrix lost its imaginary part with only a ComplexWarning,
    and text died in numpy with a bare ValueError."""
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        make()


def test_intake_takes_booleans_and_integers():
    assert np.array_equal(PatternSet(np.array([[True, False]])).rows, [[1.0, 0.0]])
    assert MeasurementSet(np.arange(3, dtype=np.uint8)).values.dtype == np.float64


def test_image_data_length_must_match_its_size():
    with pytest.raises(InvalidArgumentError, match="data length 3 != 2x2"):
        Image(2, 2, np.zeros(3))


@pytest.mark.parametrize("shape", [(3, 2), (1, 6), (2, 1, 3), (6, 1)])
def test_image_data_must_be_flat_or_shaped_height_by_width(shape):
    """A 3-wide, 2-high image takes data of shape (6,) or (2, 3); a (3, 2)
    array was read as its transposed raster."""
    data = np.arange(6.0)
    assert np.array_equal(Image(3, 2, data.reshape(2, 3)).data, data)
    with pytest.raises(InvalidArgumentError, match=re.escape(f"data shape {shape} != (2, 3)")):
        Image(3, 2, data.reshape(shape))


@pytest.mark.parametrize("make, message", [
    (lambda: Image(0, 2, np.zeros(0)), "image width must be >= 1, got 0"),
    (lambda: Image.from_array(np.zeros(4)), "expected a 2D array"),
    (lambda: Image(2, 1, [np.nan, 0.0]), "image values must be finite"),
    (lambda: Image(2, 1, [0.0, -np.inf]), "image values must be finite"),
    (lambda: NoiseModel(1e-3, 0), "pixel_count must be >= 1"),
    (lambda: generate_patterns(4, 2, 2, "foo"), "unknown distribution 'foo'"),
    (lambda: builtin_scene("nope", 8, 8), "unknown scene 'nope'; valid names"),
    (lambda: builtin_scene("blocks", 1, 5), "scene width must be >= 2, got 1"),
], ids=["image-width-0", "from-array-1d", "image-nan", "image-inf", "noise-no-pixels",
        "unknown-distribution", "unknown-scene", "scene-1-wide"])
def test_model_and_scene_arguments_are_refused(make, message):
    with pytest.raises(InvalidArgumentError, match=message):
        make()


def test_synthesize_identity():
    ps = PatternSet(np.eye(4))
    img = Image(2, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(synthesize(ps, img).values, [1, 2, 3, 4])


def test_synthesize_zero_scene():
    ps = generate_patterns(10, 3, 3, seed=0)
    img = Image(3, 3, np.zeros(9))
    assert np.array_equal(synthesize(ps, img).values, np.zeros(10))


def test_synthesize_forced_2x3():
    ps = PatternSet(np.array([[1.0, 0, 1], [0, 1, 1]]))
    img = Image(3, 1, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(synthesize(ps, img).values, [4, 5])


def test_synthesize_dimension_mismatch():
    ps = generate_patterns(4, 2, 2, seed=0)
    img = Image(3, 3, np.zeros(9))
    with pytest.raises(InvalidArgumentError):
        synthesize(ps, img)


def test_synthesize_linearity():
    rng = np.random.default_rng(5)
    ps = generate_patterns(30, 4, 4, seed=9)
    x1, x2 = rng.random(16), rng.random(16)
    a, b = 2.5, -1.25
    lhs = synthesize(ps, Image(4, 4, a * x1 + b * x2)).values
    rhs = a * synthesize(ps, Image(4, 4, x1)).values + b * synthesize(
        ps, Image(4, 4, x2)
    ).values
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_uniform_allones_expected_measurement():
    # mean measurement of all-ones scene under uniform01 patterns approaches n/2
    n = 16
    ps = generate_patterns(10**4, 4, 4, seed=11)
    b = synthesize(ps, Image(4, 4, np.ones(n))).values
    se = b.std() / np.sqrt(b.size)
    assert abs(b.mean() - n / 2) < 3 * se


def test_noise_model_sigma():
    nm = NoiseModel(level=3e-3, pixel_count=4096)
    assert nm.sigma == pytest.approx(12.288, abs=0)


@pytest.mark.parametrize("level", [-1.0, -1e-300, float("nan"), float("inf"),
                                   1e308])  # 1e308 x 16 pixels overflows sigma
def test_noise_model_rejects_bad_level(level):
    with pytest.raises(InvalidArgumentError, match="noise level"):
        NoiseModel(level=level, pixel_count=16)


def test_add_noise_sigma_zero_identity():
    meas = MeasurementSet(values=np.array([1.0, 2.0, 3.0]))
    out = add_noise(meas, NoiseModel(level=0.0, pixel_count=100), seed=5)
    assert np.array_equal(out.values, meas.values)


def test_add_noise_at_sigma_zero_returns_meas_itself():
    """Zero noise draws nothing and keeps the readings' own provenance, so
    the returned set is meas; the seed is still checked."""
    meas = MeasurementSet(values=np.array([1.0, 2.0, 3.0]), noise_seed=4)
    zero = NoiseModel(level=0.0, pixel_count=100)
    out = add_noise(meas, zero, seed=5)
    assert out is meas and out.noise_seed == 4 and out.noise_sigma == 0.0
    with pytest.raises(InvalidArgumentError, match="seed"):
        add_noise(meas, zero, seed=-1)


def test_add_noise_deterministic_and_recorded():
    meas = MeasurementSet(values=np.zeros(100))
    nm = NoiseModel(level=0.01, pixel_count=100)
    a = add_noise(meas, nm, seed=8)
    b = add_noise(meas, nm, seed=8)
    assert np.array_equal(a.values, b.values)
    assert a.noise_sigma == nm.sigma and a.noise_seed == 8


def test_add_noise_sample_std():
    # chi-square concentration: sample std over 1e6 draws within 3 per mille
    meas = MeasurementSet(values=np.zeros(10**6))
    nm = NoiseModel(level=1.0, pixel_count=1)
    out = add_noise(meas, nm, seed=21)
    assert 0.997 < out.values.std() < 1.003


@pytest.mark.parametrize("shape", [(), (2, 3), (1, 4)], ids=str)
def test_readings_must_be_a_vector(shape):
    """As a pattern matrix must be 2D; before, a (2, 3) array held 6 readings."""
    with pytest.raises(InvalidArgumentError, match=re.escape(f"vector, got shape {shape}")):
        MeasurementSet(np.ones(shape))
