"""Property tests for the PGM and bundle readers.

Every input, whether valid, cut short or with one byte changed, either
parses or raises FormatError (for bundles, with a byte offset), and
reading it allocates at most a fixed multiple of its size.  Valid PGMs
decode as a byte-at-a-time reading of the PGM grammar does, and a
measurement bundle reads back exactly what was written.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spi_recon.errors import FormatError
from spi_recon.io import (MAGIC, read_image, read_measurements, read_patterns,
                          write_measurements)
from spi_recon.model import MeasurementSet

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def peak_bound(size):
    return 16 * size + 2**20


def traced(fn):
    """(result or FormatError, tracemalloc peak in bytes) of fn()."""
    tracemalloc.start()
    try:
        try:
            out = fn()
        except FormatError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------------------ PGM

WHITESPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" \x0b\x0c"])


@st.composite
def separators(draw):
    """Whitespace, then any comments, each ending at a newline."""
    out = draw(WHITESPACE)
    for text in draw(st.lists(st.binary(max_size=6), max_size=2)):
        out += b"#" + text.replace(b"\n", b"") + b"\n"
    return out


@st.composite
def pgm_files(draw, glue=False):
    """(file, one of its tokens, that token's offset): a valid P2 or P5 PGM
    of up to 5 x 5 pixels, with comments between the header fields and the
    P2 pixels.  With glue, a # and some text end that token."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pixels = draw(st.binary(min_size=w * h, max_size=w * h))
    p5 = draw(st.booleans())
    tokens = [b"P5" if p5 else b"P2", b"%d" % w, b"%d" % h, b"255"]
    tokens += [] if p5 else [b"%d" % v for v in pixels]
    k = draw(st.integers(0, len(tokens) - 1))
    if glue:
        tokens[k] += b"#" + draw(st.sampled_from([b"", b"1", b"x#"]))
    out, at = draw(st.sampled_from([b"", b"#lead\n", b"\n "])), None
    for i, tok in enumerate(tokens):
        out += draw(separators()) if i else b""
        at = len(out) if i == k else at
        out += tok
    if p5:
        out += draw(st.sampled_from([b" ", b"\n", b"\t"])) + pixels
    else:
        out += draw(st.sampled_from([b"", b"\n", b"\n# trailing"]))
    return out, tokens[k], at


@st.composite
def p2_prefixes(draw):
    """The first bytes of a valid P2 PGM of up to 2000 x 2000 pixels."""
    w, h = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))
    data = b"P2\n%d %d\n255\n" % (w, h) + b"7 " * min(w * h, draw(st.integers(0, 40)))
    return data[:draw(st.integers(0, len(data)))]


@st.composite
def damaged(draw, files):
    """A file as it is, cut at any byte, or with any single byte changed."""
    data = draw(files)
    how = draw(st.sampled_from(["as is", "cut", "changed"]))
    if how == "as is" or not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    if how == "cut":
        return data[:i]
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]


@PROPERTY
@given(data=st.one_of(damaged(pgm_files().map(lambda f: f[0])), p2_prefixes()))
def test_a_pgm_parses_or_is_a_format_error_within_a_bounded_peak(data, tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    out, peak = traced(lambda: read_image(path))
    assert isinstance(out, FormatError) or out.data.size == out.width * out.height
    assert peak < peak_bound(len(data))


def reference_decode(data: bytes):
    """(width, height, pixel bytes) of a valid PGM, read one byte at a time
    by the grammar read_image implements: tokens are runs of non-space
    bytes that do not start with #, and a # outside a token starts a
    comment that runs to the end of the line."""
    tokens, i = [], 0
    while i < len(data) and (len(tokens) < 4 or tokens[0] == b"P2"):
        if data[i:i + 1].isspace():
            i += 1
        elif data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < len(data) and not data[i:i + 1].isspace():
                i += 1
            tokens.append(data[start:i])
    w, h = int(tokens[1]), int(tokens[2])
    if tokens[0] == b"P5":
        return w, h, data[i + 1:i + 1 + w * h]
    return w, h, bytes(map(int, tokens[4:]))


@PROPERTY
@given(file=pgm_files())
def test_a_valid_pgm_decodes_as_the_reference_grammar_does(file, tmp_path):
    data = file[0]
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    img = read_image(path)
    pixels = bytes(np.rint(img.data * 255).astype(np.uint8))
    assert (img.width, img.height, pixels) == reference_decode(data)


@PROPERTY
@given(file=pgm_files(glue=True))
def test_a_hash_inside_a_token_is_part_of_the_token(file, tmp_path):
    data, token, at = file
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="bad|magic") as info:
        read_image(path)
    assert repr(token) in str(info.value) and info.value.offset == at


# -------------------------------------------------------------------- bundles

HEADER_BYTES = {"patterns": 25, "measurements": 37}
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def bundle_files(draw, kind):
    """A valid bundle of up to 4 x 4 values, in the documented layout:
    patterns of m x n, or m measurements of a width x height scene."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**64 - 1))
    if kind == "patterns":
        head = struct.pack("<BIIQ", 1, m, n, seed)
        values, count = st.floats(0, 1e300), m * n
    else:
        head = struct.pack("<BIIIQd", 3, m, n, draw(st.integers(1, 4)), seed,
                           draw(st.floats(0, 1e6)))
        values, count = FINITE, m
    payload = np.array(draw(st.lists(values, min_size=count, max_size=count)), "<f8")
    return MAGIC + head + payload.tobytes()


READERS = {"patterns": read_patterns, "measurements": read_measurements}


@pytest.mark.parametrize("kind", ["patterns", "measurements"])
def test_a_bundle_parses_or_is_a_format_error_with_an_offset(kind, tmp_path):
    path = tmp_path / f"{kind}.spib"

    @PROPERTY
    @given(data=damaged(bundle_files(kind)))
    def check(data):
        path.write_bytes(data)
        out, peak = traced(lambda: READERS[kind](path))
        if isinstance(out, FormatError):
            assert out.offset is not None and 0 <= out.offset <= len(data)
        assert peak < peak_bound(len(data))

    check()


@pytest.mark.parametrize("kind", ["patterns", "measurements"])
def test_a_refused_payload_value_is_reported_at_its_own_offset(kind, tmp_path):
    path = tmp_path / f"{kind}.spib"
    start = HEADER_BYTES[kind]

    @PROPERTY
    @given(data=bundle_files(kind), index=st.integers(0, 15),
           value=st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-300, -0.0, 0.5]))
    def check(data, index, value):
        at = start + 8 * (index % ((len(data) - start) // 8))
        path.write_bytes(data[:at] + struct.pack("<d", value) + data[at + 8:])
        refused = not np.isfinite(value) or (kind == "patterns" and value < 0)
        if refused:
            with pytest.raises(FormatError) as info:
                READERS[kind](path)
            assert info.value.offset == at
        else:
            READERS[kind](path)

    check()


@PROPERTY
@given(m=st.integers(1, 6), width=st.integers(1, 2**32 - 1),
       height=st.integers(1, 2**32 - 1), seed=st.integers(0, 2**64 - 1),
       sigma=st.floats(0, 1e300), data=st.data())
def test_a_measurement_bundle_round_trips_exactly(m, width, height, seed, sigma, data,
                                                  tmp_path):
    """write_measurements then read_measurements gives back every field and
    every value bit for bit, at any u32 width and height."""
    values = np.array(data.draw(st.lists(FINITE, min_size=m, max_size=m)))
    path = tmp_path / "meas.spib"
    write_measurements(MeasurementSet(values=values, noise_sigma=sigma, noise_seed=seed),
                       width, height, path)
    assert path.stat().st_size == HEADER_BYTES["measurements"] + 8 * m
    back, w, h = read_measurements(path)
    assert (back.m, w, h, back.noise_seed) == (m, width, height, seed)
    assert back.values.tobytes() == values.tobytes()
    assert struct.pack("<d", back.noise_sigma) == struct.pack("<d", sigma)
