import hashlib
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from spi_recon.bench import SweepRow
from spi_recon.errors import FormatError, InvalidArgumentError
from spi_recon.io import (
    CSV_COLUMNS,
    MAGIC,
    read_image,
    read_measurements,
    read_patterns,
    read_results_csv,
    write_image,
    write_measurements,
    write_patterns,
    write_results_csv,
)
from spi_recon.model import Image, MeasurementSet, PatternSet, generate_patterns


def random_image(seed=0, w=7, h=5):
    rng = np.random.default_rng(seed)
    return Image(width=w, height=h, data=rng.random(w * h))


def test_pgm_roundtrip_quantization(tmp_path):
    img = random_image()
    path = tmp_path / "img.pgm"
    write_image(img, path)
    back = read_image(path)
    assert (back.width, back.height) == (img.width, img.height)
    assert np.max(np.abs(back.data - img.data)) <= 1 / 510
    # a requantized image survives exactly
    write_image(back, path)
    again = read_image(path)
    assert np.array_equal(again.data, back.data)


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
def test_write_image_refuses_non_finite_values(tmp_path, value):
    """NaN and -inf were written as black and +inf as white."""
    path = tmp_path / "img.pgm"
    with pytest.raises(InvalidArgumentError, match="finite"):
        write_image(Image(2, 1, np.array([0.5, value])), path)
    assert not path.exists()


def test_write_image_bytes_at_the_ends_of_the_range_are_pinned(tmp_path):
    """0, 1, -0.0, the floats next to 0 and 1, the rounding ties at 0.5 and
    254.5 and values outside [0, 1]; the bytes were recorded when
    write_image clipped twice, to [0, 1] and then to [0, 255]."""
    values = [0.0, 1.0, -0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
              0.5 / 255, 254.5 / 255, 1.5 / 255, -1.0, 2.0]
    write_image(Image(5, 2, np.array(values)), tmp_path / "ends.pgm")
    assert (tmp_path / "ends.pgm").read_bytes() == (
        b"P5\n5 2\n255\n" + bytes([0, 255, 0, 0, 255, 0, 254, 2, 0, 255]))


def test_pgm_ascii_binary_equivalent(tmp_path):
    img = random_image(3)
    p2, p5 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(img, p5)
    assert p5.read_bytes().startswith(b"P5\n7 5\n255\n")
    levels = np.rint(img.data * 255).astype(int).reshape(img.height, img.width)
    p2.write_text("P2\n7 5\n255\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in levels))
    assert np.array_equal(read_image(p2).data, read_image(p5).data)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        read_image(path)


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        read_image(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(FormatError, match="truncated"):
        read_image(path)


@pytest.mark.parametrize("data, message, offset", [
    (b"P5\n0 2\n255\n", "bad width b'0'", 3),
    (b"P2\n2 0\n255\n", "bad height b'0'", 5),
    (b"P2\n2 1\n255\n0 256\n", "pixel value 256 out of range", 13),
])
def test_pgm_header_and_pixel_values_are_refused_at_their_offset(tmp_path, data, message,
                                                                  offset):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message) as info:
        read_image(path)
    assert info.value.offset == offset


@pytest.mark.parametrize("data, message, offset", [
    (b"P2\n1_0 1\n255\n" + b"0 " * 10, "bad width b'1_0'", 3),
    (b"P2\n2 1\n255\n+5 0\n", "bad pixel 0 b'+5'", 11),
    (b"P2\n2 1\n255\n0 1_0\n", "bad pixel 1 b'1_0'", 13),
    (b"P5\n+2 1\n255\n\0\0", "bad width b'+2'", 3),
    (b"P5\n" + b"9" * 5000 + b" 1\n255\n", "bad width b'999", 3),
    (b"P2\n1 1\n255\n" + b"9" * 5000, "bad pixel 0 b'999", 11),
    (b"P2\n1 1\n255\n" + b"0" * 20 + b"1", "bad pixel 0 b'000", 11),
], ids=["p2-width-underscore", "p2-pixel-plus", "p2-pixel-underscore", "p5-width-plus",
        "p5-width-5000-digits", "p2-pixel-5000-digits", "p2-pixel-21-digits"])
def test_a_pgm_number_is_ascii_decimal_digits_alone(tmp_path, data, message, offset):
    """int()'s grammar read the width 1_0 as 10, +2 as 2 and the pixels +5
    and 1_0 as 5 and 10, and raised a bare ValueError past 4300 digits; a
    number is at most 20 digits, leading zeros counted."""
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(message)) as info:
        read_image(path)
    assert info.value.offset == offset


def test_a_pgm_number_may_have_leading_zeros(tmp_path):
    path = tmp_path / "zeros.pgm"
    path.write_bytes(b"P2\n02 1\n0255\n05 0255\n")
    img = read_image(path)
    assert (img.width, img.height) == (2, 1)
    assert np.array_equal(img.data, [5 / 255, 1.0])


@pytest.mark.parametrize("data, offset", [
    (b"P5\n2 2\n255\n" + bytes(8), 15),       # the first byte past the 4-pixel raster
    (b"P2\n2 1\n255\n1 2 3 4\n", 15),         # the token "3"
    (b"P2\n2 1\n255\n1 2 # end\n9\n", 21),   # a token after a comment
])
def test_pgm_data_past_the_raster_is_refused_at_its_offset(tmp_path, data, offset):
    path = tmp_path / "long.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="past the") as info:
        read_image(path)
    assert info.value.offset == offset


def test_pgm_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 1\n255\n0 255\n# after the raster\n \n")
    img = read_image(path)
    assert np.array_equal(img.data, [0.0, 1.0])


def test_pattern_bundle_roundtrip(tmp_path):
    ps = generate_patterns(3, 2, 2, seed=99)
    path = tmp_path / "pat.spib"
    write_patterns(ps, path)
    back = read_patterns(path)
    assert back.m == 3 and back.n == 4 and back.seed == 99
    assert np.array_equal(back.rows, ps.rows)


def test_measurement_bundle_keeps_noise_metadata(tmp_path):
    meas = MeasurementSet(values=np.array([1.5, -0.25, 3.0]), noise_sigma=12.288,
                          noise_seed=77)
    path = tmp_path / "meas.spib"
    write_measurements(meas, 128, 32, path)
    back, width, height = read_measurements(path)
    assert (width, height) == (128, 32)
    assert np.array_equal(back.values, meas.values)
    assert back.noise_sigma == 12.288 and back.noise_seed == 77


def test_bundle_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spib"
    path.write_bytes(b"NOTMAGIC" + bytes(32))
    with pytest.raises(FormatError, match="magic"):
        read_patterns(path)


def test_bundle_rejects_truncation(tmp_path):
    ps = generate_patterns(3, 2, 2, seed=0)
    path = tmp_path / "pat.spib"
    write_patterns(ps, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="expected"):
        read_patterns(path)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_bundle_refuses_a_seed_outside_64_bits(seed, tmp_path):
    path = tmp_path / "pat.spib"
    with pytest.raises(InvalidArgumentError, match="seed"):
        write_patterns(PatternSet(np.ones((2, 3)), seed=seed), path)
    assert not path.exists()


def test_bundle_keeps_the_largest_seed(tmp_path):
    path = tmp_path / "pat.spib"
    write_patterns(PatternSet(np.ones((2, 3)), seed=2**64 - 1), path)
    assert read_patterns(path).seed == 2**64 - 1


READERS = {"patterns": read_patterns, "measurements": read_measurements}


# the u32 counts of each bundle kind, in header order from byte 9
COUNTS = {"patterns": ("m", "n"), "measurements": ("m", "width", "height")}


def raw_bundle(kind, counts):
    """A bundle's bytes in the documented layout, whatever its counts, with
    seed and sigma 0 and an all-zero payload of the length they declare."""
    if kind == "patterns":
        return MAGIC + struct.pack("<BIIQ", 1, *counts, 0) + bytes(8 * counts[0] * counts[1])
    return MAGIC + struct.pack("<BIIIQd", 3, *counts, 0, 0.0) + bytes(8 * counts[0])


def write_zero_bundle(kind, counts, path):
    """A bundle of all-zero values through the public writer."""
    if kind == "patterns":
        write_patterns(PatternSet(np.zeros(counts)), path)
    else:
        write_measurements(MeasurementSet(values=np.zeros(counts[0])), *counts[1:], path)


@pytest.mark.parametrize("field, offset, kind, code", [
    ("m", 9, "patterns", 1), ("n", 13, "patterns", 1),
    ("m", 9, "measurements", 3), ("width", 13, "measurements", 3),
    ("height", 17, "measurements", 3),
])
def test_bundle_with_no_rows_or_no_pixels_is_malformed(field, offset, kind, code,
                                                       tmp_path):
    """A count of 0 (m, or n, width or height): the writer refuses it, and
    the reader reports the field at its byte offset, even when the payload
    length agrees."""
    counts = [0 if name == field else 3 for name in COUNTS[kind]]
    path = tmp_path / "empty.spib"
    with pytest.raises(InvalidArgumentError, match=f"{field}=0"):
        write_zero_bundle(kind, counts, path)
    assert not path.exists()
    data = raw_bundle(kind, counts)
    assert data[8] == code
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"{field} is 0") as info:
        READERS[kind](path)
    assert info.value.offset == offset


# fixed header length of each bundle kind: magic, kind, m, n (patterns)
# or width and height (measurements), seed, then sigma (measurements)
HEADER_BYTES = {"patterns": 25, "measurements": 37}


def bundle_bytes(kind, tmp_path):
    path = tmp_path / f"{kind}.spib"
    if kind == "patterns":
        write_patterns(generate_patterns(3, 2, 2, seed=5), path)
    else:
        write_measurements(MeasurementSet(values=[1.5, -0.25, 3.0], noise_sigma=0.5,
                                          noise_seed=7), 4, 1, path)
    return path.read_bytes()


def offset_after_cut(kind, length):
    """Where a bundle of `length` bytes is reported bad: a file shorter than
    the magic fails at 0, one cut inside the header at its end, and one
    with a wrong payload length at the end of the header."""
    if length < len(MAGIC):
        return 0
    return min(length, HEADER_BYTES[kind])


@pytest.mark.parametrize("kind", ["patterns", "measurements"])
def test_bundle_cut_or_extended_anywhere_is_a_format_error(kind, tmp_path):
    data = bundle_bytes(kind, tmp_path)
    header = HEADER_BYTES[kind]
    payload = len(data) - header
    lengths = [*range(header), header, header + payload // 2, len(data) - 1]
    variants = [data[:n] for n in lengths] + [data + b"\0"]
    path = tmp_path / "bad.spib"
    for bad in variants:
        path.write_bytes(bad)
        with pytest.raises(FormatError) as info:
            READERS[kind](path)
        assert info.value.offset == offset_after_cut(kind, len(bad)), len(bad)


def test_bundle_bytes_are_pinned(tmp_path):
    """The layout byte for byte: a patterns bundle with the largest seed and
    a measurements bundle of a 4x1 scene with its noise sigma."""
    path = tmp_path / "bundle.spib"
    write_patterns(PatternSet(np.arange(12.0).reshape(3, 4) / 8, seed=2**64 - 1), path)
    data = path.read_bytes()
    assert len(data) == 25 + 8 * 12
    assert hashlib.sha256(data).hexdigest() == (
        "da686ca9d85e06c2417bc96157eddeb7b150d3eb8d4fb1ac83cdd64257529629")
    write_measurements(MeasurementSet(values=np.array([1.5, -0.25, 3.0]), noise_sigma=0.5,
                                      noise_seed=7), 4, 1, path)
    data = path.read_bytes()
    assert len(data) == 37 + 8 * 3
    assert hashlib.sha256(data).hexdigest() == (
        "117c42e0162b25107b6feb071e53cce85e767fb386c757bde06acc227665f1c6")


def test_bundle_declaring_a_huge_payload_allocates_nothing(tmp_path, traced_peak):
    path = tmp_path / "huge.spib"
    path.write_bytes(MAGIC + struct.pack("<BIIQ", 1, 2**32 - 1, 2**32 - 1, 0) + bytes(64))

    def read():
        with pytest.raises(FormatError, match="payload length mismatch") as info:
            read_patterns(path)
        assert info.value.offset == 25

    assert traced_peak(read) < 2**20


def test_p2_declaring_more_pixels_than_the_file_holds_allocates_nothing(tmp_path, traced_peak):
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2\n20000 20000\n255\n0 1\n")

    def read():
        with pytest.raises(FormatError, match="truncated raster") as info:
            read_image(path)
        assert info.value.offset == 23

    assert traced_peak(read) < 2**20


def test_patterns_are_read_in_their_final_shape_and_taken_over(tmp_path):
    path = tmp_path / "pat.spib"
    write_patterns(generate_patterns(3, 2, 2), path)
    rows = read_patterns(path).rows
    assert rows.shape == (3, 4) and rows.flags.owndata and not rows.flags.writeable


@pytest.mark.parametrize("reader, kind", [(read_patterns, "measurements"),
                                          (read_measurements, "patterns")])
def test_a_bundle_of_the_other_kind_is_refused_at_the_kind_byte(reader, kind, tmp_path):
    path = tmp_path / "bundle.spib"
    path.write_bytes(bundle_bytes(kind, tmp_path))
    with pytest.raises(FormatError, match=f"got {kind}") as info:
        reader(path)
    assert info.value.offset == 8


def test_a_measurement_bundle_in_the_retired_layout_is_refused_at_the_kind_byte(tmp_path):
    """Kind byte 2 recorded n in place of the scene's shape; its bytes are
    those the old writer pinned.  Reading it would need the shape guessed."""
    old = MAGIC + struct.pack("<BIIQd3d", 2, 3, 4, 7, 0.5, 1.5, -0.25, 3.0)
    assert hashlib.sha256(old).hexdigest() == (
        "6ea56d51e7ddb03c19a30124caa32db1824930e210e3376f1cb4e60318c5b0e6")
    path = tmp_path / "old.spib"
    path.write_bytes(old)
    with pytest.raises(FormatError, match="kind byte 2.*re-run simulate") as info:
        read_measurements(path)
    assert info.value.offset == 8


@pytest.mark.parametrize("sigma", [-0.5, np.nan])
def test_a_negative_or_nan_noise_sigma_is_refused_at_its_offset(sigma, tmp_path):
    data = bytearray(bundle_bytes("measurements", tmp_path))
    data[29:37] = struct.pack("<d", sigma)
    path = tmp_path / "meas.spib"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="noise_sigma") as info:
        read_measurements(path)
    assert info.value.offset == 29


def test_pattern_io_and_validation_hold_one_copy_of_the_payload(tmp_path, traced_peak):
    ps = generate_patterns(256, 64, 64)
    payload = ps.rows.nbytes  # 8 MiB
    path = tmp_path / "pat.spib"
    assert traced_peak(lambda: write_patterns(ps, path)) < 0.1 * payload
    assert traced_peak(lambda: read_patterns(path)) <= 1.1 * payload
    assert traced_peak(lambda: PatternSet(ps.rows)) < 0.05 * payload


def rows3():
    return [
        SweepRow("blocks", "cgd", 1.0, "32x32", 0.0, 0, 0.123456789, 40, 0.5, 7, "ok"),
        SweepRow("blocks", "cgd", 1.0, "32x32", 0.0, 1, 0.2, 41, 0.6, 8, "ok"),
        SweepRow("blocks", "pinv", 0.2, "32x32", 0.0, 0, None, 0, 0.0, 9,
                 "failed:rank-deficient"),
    ]


def test_results_csv_shape(tmp_path):
    path = tmp_path / "res.csv"
    write_results_csv(rows3(), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == ("scene,solver,ratio,size,noise_level,repeat,"
                        "rmse,iterations,wall_time_s,seed,status")


def test_csv_columns_are_the_sweep_row_fields():
    assert [f.name for f in fields(SweepRow)] == CSV_COLUMNS


def test_results_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "res.csv"
    write_results_csv([
        *rows3()[:2],
        SweepRow("blocks", "pinv", 0.2, "32x32", 0.0, 0, None, 0, 0.0, 9,
                 "failed:rank-deficient, m < n"),
        SweepRow("disk", "cs-tv", 0.5, "16x8", 1e-3, 2, 1 / 3, 7, 1.23456789012,
                 2**63 - 1, "ok"),
    ], path)
    assert path.read_bytes() == (
        b"scene,solver,ratio,size,noise_level,repeat,rmse,iterations,wall_time_s,"
        b"seed,status\r\n"
        b"blocks,cgd,1,32x32,0,0,0.123456789,40,0.5,7,ok\r\n"
        b"blocks,cgd,1,32x32,0,1,0.2,41,0.6,8,ok\r\n"
        b'blocks,pinv,0.2,32x32,0,0,,0,0,9,"failed:rank-deficient, m < n"\r\n'
        b"disk,cs-tv,0.5,16x8,0.001,2,0.333333333,7,1.23456789,9223372036854775807,ok\r\n"
    )


def test_results_csv_failed_row(tmp_path):
    path = tmp_path / "res.csv"
    write_results_csv(rows3(), path)
    parsed = read_results_csv(path)
    failed = parsed[2]
    assert failed["status"].startswith("failed:")
    assert failed["rmse"] == ""


def test_results_csv_roundtrip_non_timing_fields(tmp_path):
    path = tmp_path / "res.csv"
    rows = rows3()
    write_results_csv(rows, path)
    parsed = read_results_csv(path)
    for row, p in zip(rows, parsed):
        assert p["scene"] == row.scene and p["solver"] == row.solver
        assert float(p["ratio"]) == row.ratio
        assert p["size"] == row.size
        assert int(p["repeat"]) == row.repeat
        assert int(p["iterations"]) == row.iterations
        assert int(p["seed"]) == row.seed
        if row.rmse is not None:
            assert float(p["rmse"]) == pytest.approx(row.rmse, rel=1e-8)


def test_results_csv_with_another_header_is_refused(tmp_path):
    path = tmp_path / "res.csv"
    write_results_csv(rows3(), path)
    path.write_text(path.read_text().replace("wall_time_s", "time_s", 1))
    with pytest.raises(FormatError, match="unexpected CSV header"):
        read_results_csv(path)


def test_a_results_csv_with_a_byte_order_mark_reads_the_same_rows(tmp_path):
    """A CSV saved with a byte-order mark, as Excel's "CSV UTF-8" writes one, was refused
    for its header ['\ufeffscene', ...]."""
    path = tmp_path / "res.csv"
    write_results_csv(rows3(), path)
    plain = read_results_csv(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_results_csv(path) == plain


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.encode() + b"\xff\n", "is not UTF-8"),
    (lambda text: (text + "blocks,cgd\n").encode(), "row 4 does not have 11 cells"),
    (lambda text: text.replace(",ok\r\n", ",ok,extra\r\n", 1).encode(),
     "row 1 does not have 11 cells"),
], ids=["not-utf8", "a-cell-too-few", "a-cell-too-many"])
def test_a_malformed_results_csv_is_a_format_error(tmp_path, edit, message):
    """These raised a bare UnicodeDecodeError, or were read with None
    values or a None key."""
    path = tmp_path / "res.csv"
    write_results_csv(rows3(), path)
    path.write_bytes(edit(path.read_bytes().decode()))
    with pytest.raises(FormatError, match=message):
        read_results_csv(path)


@pytest.mark.parametrize("call", [
    read_image,
    lambda path: write_image(random_image(), path),
    read_patterns,
    lambda path: write_patterns(generate_patterns(2, 2, 2), path),
    read_measurements,
    lambda path: write_measurements(MeasurementSet(np.ones(2)), 2, 1, path),
    read_results_csv,
    lambda path: write_results_csv(rows3(), path),
], ids=["read_image", "write_image", "read_patterns", "write_patterns", "read_measurements",
        "write_measurements", "read_results_csv", "write_results_csv"])
def test_a_path_that_holds_a_nul_byte_is_refused_by_every_reader_and_writer(tmp_path, call):
    """Each raised open()'s bare ValueError ("embedded null byte"), which is not a library
    Error, so run_cell let it out of a .pgm scene's cell."""
    path = str(tmp_path / "a\0b")
    with pytest.raises(InvalidArgumentError, match=re.escape(
            f"{path!r} holds a NUL byte, which no path can")):
        call(path)
    assert list(tmp_path.iterdir()) == []


def test_results_csv_empty_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_results_csv([], tmp_path / "res.csv")
