"""Persistence: PGM images, binary pattern/measurement bundles, result CSVs.

Images are read from P2 (ASCII) or P5 (binary) PGM and written as P5.  A
P2 raster that declares more pixels than the rest of the file can hold is
refused before anything is allocated, so reading a PGM allocates a fixed
multiple of its file size at most.  Data past the declared raster is
refused too, at the offset of its first byte (P5) or token (P2); only
whitespace and comments may follow a P2 raster.

Bundle layout (little-endian): 8-byte magic "SPIBNDL1", kind byte
(1 = patterns, 2 = measurements), u32 m, u32 n, u64 seed, then for
measurement bundles one f64 sigma, followed by the float64 payload
(m*n values row-major for patterns, m values for measurements).

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
import os
import re
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .model import Image, MeasurementSet, PatternSet, _check_seed

__all__ = [
    "BundleHeader",
    "read_image",
    "write_image",
    "read_bundle",
    "write_bundle",
    "write_patterns",
    "read_patterns",
    "write_measurements",
    "read_measurements",
    "write_results_csv",
    "read_results_csv",
]

MAGIC = b"SPIBNDL1"
_KIND_CODE = {"patterns": 1, "measurements": 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_FIXED = struct.calcsize("<BIIQ")  # kind, m, n, seed


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


@dataclass
class BundleHeader:
    kind: str  # "patterns" | "measurements"
    m: int
    n: int
    seed: int
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_CODE:
            raise InvalidArgumentError(f"unknown bundle kind {self.kind!r}")

    @property
    def payload_count(self) -> int:
        return self.m * self.n if self.kind == "patterns" else self.m


def write_bundle(header: BundleHeader, payload: np.ndarray, path) -> None:
    if header.m < 1 or header.n < 1:
        raise InvalidArgumentError(
            f"a bundle needs m >= 1 and n >= 1, got m={header.m}, n={header.n}"
        )
    _check_seed(header.seed)
    payload = np.ascontiguousarray(payload, dtype="<f8").ravel()
    if payload.size != header.payload_count:
        raise InvalidArgumentError(
            f"payload has {payload.size} values, header declares {header.payload_count}"
        )
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BIIQ", _KIND_CODE[header.kind], header.m, header.n,
                            header.seed))
        if header.kind == "measurements":
            f.write(struct.pack("<d", header.sigma))
        f.write(memoryview(payload).cast("B"))


def read_bundle(path):
    """Returns (BundleHeader, payload ndarray of shape (m, n) for patterns,
    (m,) for measurements); bit-exact inverse of write."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError("not a regular file", offset=0)
        magic = f.read(8)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        fixed = f.read(_FIXED)
        offset = 8 + len(fixed)
        if len(fixed) < _FIXED:
            raise FormatError("truncated header", offset=offset)
        code, m, n, seed = struct.unpack("<BIIQ", fixed)
        if code not in _KIND_NAME:
            raise FormatError(f"unknown kind byte {code}", offset=8)
        for field, value, at in (("m", m, 9), ("n", n, 13)):
            if value == 0:
                raise FormatError(f"{field} is 0: a bundle needs m >= 1 and n >= 1",
                                  offset=at)
        sigma = 0.0
        if _KIND_NAME[code] == "measurements":
            raw = f.read(8)
            offset += len(raw)
            if len(raw) < 8:
                raise FormatError("truncated header (sigma)", offset=offset)
            (sigma,) = struct.unpack("<d", raw)
        header = BundleHeader(kind=_KIND_NAME[code], m=m, n=n, seed=seed, sigma=sigma)
        expected = header.payload_count * 8
        actual = st.st_size - offset
        if actual != expected:
            raise FormatError(
                f"payload length mismatch: expected {expected} bytes, got {actual}",
                offset=offset,
            )
        payload = np.empty((m, n) if header.kind == "patterns" else m, dtype="<f8")
        got = f.readinto(memoryview(payload).cast("B"))
        if got != expected:  # the file shrank after fstat
            raise FormatError(
                f"truncated payload: expected {expected} bytes, got {got}",
                offset=offset + got,
            )
    return header, payload


def write_patterns(patterns: PatternSet, path) -> None:
    header = BundleHeader(kind="patterns", m=patterns.m, n=patterns.n,
                          seed=patterns.seed)
    write_bundle(header, patterns.rows, path)


def read_patterns(path) -> PatternSet:
    header, payload = read_bundle(path)
    if header.kind != "patterns":
        raise FormatError(f"expected a patterns bundle, got {header.kind}", offset=8)
    try:
        return PatternSet(payload, seed=header.seed)
    except InvalidArgumentError as exc:  # at the first negative or non-finite entry
        bad = ~(payload >= 0) | (payload == np.inf)
        raise FormatError(str(exc), offset=25 + 8 * int(bad.argmax())) from None


def write_measurements(meas: MeasurementSet, n: int, path) -> None:
    header = BundleHeader(kind="measurements", m=meas.m, n=n,
                          seed=meas.noise_seed, sigma=meas.noise_sigma)
    write_bundle(header, meas.values, path)


def read_measurements(path):
    """Returns (MeasurementSet, n)."""
    header, payload = read_bundle(path)
    if header.kind != "measurements":
        raise FormatError(f"expected a measurements bundle, got {header.kind}", offset=8)
    try:
        meas = MeasurementSet(values=payload, noise_sigma=header.sigma,
                              noise_seed=header.seed)
    except InvalidArgumentError as exc:  # at the first non-finite value, else at sigma
        bad = ~np.isfinite(payload)
        raise FormatError(str(exc), offset=33 + 8 * int(bad.argmax()) if bad.any() else 25) from None
    return meas, header.n


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
