"""Persistence: PGM images, binary pattern/measurement bundles, result CSVs.

Images are read from P2 (ASCII) or P5 (binary) PGM and written as P5.  A
P2 raster that declares more pixels than the rest of the file can hold is
refused before anything is allocated, so reading a PGM allocates a fixed
multiple of its file size at most.  Data past the declared raster is
refused too, at the offset of its first byte (P5) or token (P2); only
whitespace and comments may follow a P2 raster.

Bundle layout (little-endian): 8-byte magic "SPIBNDL1", kind byte
(1 = patterns A, 2 = measurements b), u32 m, u32 n, u64 seed, then for
measurement bundles one f64 sigma, so the header is 25 or 33 bytes,
followed by the float64 payload (m*n values row-major for patterns, m
values for measurements).  Each kind has its own writer and reader, and
a reader refuses the other kind at the kind byte (offset 8).

m and n must be at least 1: the writer refuses m = 0 or n = 0, and the
reader reports either as a FormatError at the field's offset (m at 9, n
at 13).  The writer refuses a seed outside [0, 2**64) rather than record
a different one.  A bundle path must be a regular file.  The reader parses
the fixed header, checks the payload length it declares against the file
size before allocating anything, and then reads the payload straight
into the array it returns, in its final shape, so reading holds one copy
of the payload; the writer writes the array's own buffer.  A payload
value the model refuses is a FormatError at that value's offset.
"""

import csv
import math
import os
import re
import stat
import struct

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .model import Image, MeasurementSet, PatternSet, _check_seed

__all__ = [
    "read_image",
    "write_image",
    "write_patterns",
    "read_patterns",
    "write_measurements",
    "read_measurements",
    "write_results_csv",
    "read_results_csv",
]

MAGIC = b"SPIBNDL1"


# ------------------------------------------------------------------------ PGM


# a comment (# to the end of the line) or a token (group 1), which may hold a #
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^#\s]\S*)")


def read_image(path) -> Image:
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval 255 into [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    tokens = (t for t in _PGM_TOKEN.finditer(data) if t.lastindex)

    def next_field(what, parse=int):
        t = next(tokens, None)
        if t is None:
            raise FormatError(f"truncated header: missing {what}", offset=len(data))
        try:
            return parse(t[0]), t
        except ValueError:
            raise FormatError(f"bad {what} {t[0]!r}", offset=t.start())

    magic, tok = next_field("magic", bytes)
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})", offset=tok.start())
    (width, _), (height, _), (maxval, tok) = map(next_field, ("width", "height", "maxval"))
    off, end = tok.span()
    if width < 1 or height < 1:
        raise FormatError("non-positive dimensions", offset=off)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (must be 255)", offset=off)
    count = width * height

    if magic == b"P5":
        got = len(data) - end - 1  # after the single whitespace byte after maxval
        if got < count:
            raise FormatError(f"truncated payload: expected {count} bytes, got {max(got, 0)}",
                              offset=len(data))
        if got > count:
            raise FormatError(f"{got - count} bytes past the {count}-byte raster",
                              offset=end + 1 + count)
        values = np.frombuffer(data, np.uint8, count, end + 1)
    else:
        if 2 * count > len(data) - end:  # a digit and a separator per pixel
            raise FormatError(f"truncated raster: {count} pixels need {2 * count} "
                              f"bytes after maxval, got {len(data) - end}", offset=len(data))
        values = np.empty(count)
        for idx in range(count):
            v, tok = next_field(f"pixel {idx}")
            if not 0 <= v <= 255:
                raise FormatError(f"pixel value {v} out of range", offset=tok.start())
            values[idx] = v
        extra = next(tokens, None)
        if extra is not None:
            raise FormatError(f"data past the {count}-pixel raster: {extra[0]!r}",
                              offset=extra.start())
    return Image(width=width, height=height, data=values / 255.0)


def write_image(img: Image, path) -> None:
    """Write as binary (P5) PGM with maxval 255; values are clipped to [0, 1]
    and rounded."""
    u8 = np.clip(np.rint(np.clip(img.data, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(u8.tobytes())


# -------------------------------------------------------------------- bundles


# kind -> (kind byte, header layout)
_BUNDLES = {"patterns": (1, struct.Struct("<8sBIIQ")),
            "measurements": (2, struct.Struct("<8sBIIQd"))}


def _save_bundle(path, kind, payload, n, seed, *sigma) -> None:
    """Write a bundle of m = len(payload) rows; sigma for measurements only."""
    m = len(payload)
    if m < 1 or n < 1:
        raise InvalidArgumentError(f"a bundle needs m >= 1 and n >= 1, got m={m}, n={n}")
    _check_seed(seed)
    code, header = _BUNDLES[kind]
    payload = np.ascontiguousarray(payload, dtype="<f8")
    with open(path, "wb") as f:
        f.write(header.pack(MAGIC, code, m, n, seed, *sigma))
        f.write(memoryview(payload).cast("B"))


def _load_bundle(path, kind):
    """(payload, n, seed[, sigma]) of a bundle of the given kind, the payload
    read straight into its final shape: (m, n) for patterns, (m,) for
    measurements."""
    code, header = _BUNDLES[kind]
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError("not a regular file", offset=0)
        head = f.read(header.size)
        if head[:8] != MAGIC:
            raise FormatError(f"bad magic {head[:8]!r}", offset=0)
        if len(head) < header.size:
            raise FormatError("truncated header", offset=len(head))
        _, found, m, n, seed, *sigma = header.unpack(head)
        if found != code:
            name = {c: k for k, (c, _) in _BUNDLES.items()}.get(found, f"kind byte {found}")
            raise FormatError(f"expected a {kind} bundle, got {name}", offset=8)
        for field, value, at in (("m", m, 9), ("n", n, 13)):
            if value == 0:
                raise FormatError(f"{field} is 0: a bundle needs m >= 1 and n >= 1",
                                  offset=at)
        shape = (m, n) if kind == "patterns" else (m,)
        expected = 8 * math.prod(shape)
        actual = st.st_size - header.size
        if actual != expected:
            raise FormatError(
                f"payload length mismatch: expected {expected} bytes, got {actual}",
                offset=header.size,
            )
        payload = np.empty(shape, dtype="<f8")
        got = f.readinto(memoryview(payload).cast("B"))
        if got != expected:  # the file shrank after fstat
            raise FormatError(
                f"truncated payload: expected {expected} bytes, got {got}",
                offset=header.size + got,
            )
    return payload, n, seed, *sigma


def write_patterns(patterns: PatternSet, path) -> None:
    _save_bundle(path, "patterns", patterns.rows, patterns.n, patterns.seed)


def read_patterns(path) -> PatternSet:
    rows, _, seed = _load_bundle(path, "patterns")
    try:
        return PatternSet(rows, seed=seed)
    except InvalidArgumentError as exc:  # at the first negative or non-finite entry
        bad = ~(rows >= 0) | (rows == np.inf)
        start = _BUNDLES["patterns"][1].size
        raise FormatError(str(exc), offset=start + 8 * int(bad.argmax())) from None


def write_measurements(meas: MeasurementSet, n: int, path) -> None:
    _save_bundle(path, "measurements", meas.values, n, meas.noise_seed, meas.noise_sigma)


def read_measurements(path):
    """Returns (MeasurementSet, n)."""
    values, n, seed, sigma = _load_bundle(path, "measurements")
    try:
        meas = MeasurementSet(values=values, noise_sigma=sigma, noise_seed=seed)
    except InvalidArgumentError as exc:  # at the first non-finite value, else at sigma
        bad = ~np.isfinite(values)
        start = _BUNDLES["measurements"][1].size  # sigma is the 8 bytes before it
        at = start + 8 * int(bad.argmax()) if bad.any() else start - 8
        raise FormatError(str(exc), offset=at) from None
    return meas, n


# ------------------------------------------------------------------------ CSV

CSV_COLUMNS = [
    "scene", "solver", "ratio", "size", "noise_level", "repeat",
    "rmse", "iterations", "wall_time_s", "seed", "status",
]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def write_results_csv(rows, path) -> None:
    """One line per sweep row, one cell per CSV_COLUMNS field; None (the
    rmse of a failed cell) is an empty cell.

    ``rows`` is an iterable of objects exposing the CSV_COLUMNS fields
    (see bench.SweepRow).
    """
    rows = list(rows)
    if not rows:
        raise InvalidArgumentError("no rows to write")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])


def read_results_csv(path):
    """Parse a results CSV back into a list of dicts (strings kept raw)."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_COLUMNS:
            raise FormatError(f"unexpected CSV header {reader.fieldnames}")
        return list(reader)
