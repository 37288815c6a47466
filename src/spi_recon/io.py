"""Persistence: PGM images, binary pattern/measurement bundles, result CSVs.

Images are read from P2 (ASCII) or P5 (binary) PGM and written as P5.  A
P2 raster that declares more pixels than the rest of the file can hold is
refused before anything is allocated, so reading a PGM allocates a fixed
multiple of its file size at most.  Data past the declared raster is
refused too, at the offset of its first byte (P5) or token (P2); only
whitespace and comments may follow a P2 raster.

Every writer here (PGM, bundle, CSV) goes through ``_output``: one that
fails part way, or whose file cannot be closed, removes the file it was
writing, if that is a regular file.

Bundle layout (little-endian): 8-byte magic "SPIBNDL1", kind byte, u32
counts, u64 seed.  Patterns (kind 1): m, n and the seed, a 25-byte
header, then m*n float64 values row-major.  Measurements (kind 3): m, the
scene's width and height (n = width*height), the seed and one f64 sigma,
a 37-byte header, then m float64 values.  Kind 2, the old measurements
layout with n in place of the shape, is retired.  Each kind has its own
writer and reader, and a reader refuses any other kind byte at offset 8.

Every count must be an int >= 1: the writer refuses one outside [1, 2**32)
(the header's u32 fields), and the reader reports a 0 as a FormatError at
its offset (m at 9, n or width at 13, height at 17).  The writer refuses
a seed outside [0, 2**64) rather than record a different one.  A bundle
path must be a regular file.  The reader parses the fixed header, checks
the payload length it declares against the file size before allocating
anything, and then reads the payload straight into the arrays it returns,
so reading holds one copy of the payload; the writer writes the array's
own buffer.  A payload value the model refuses is a FormatError at that
value's offset.

Pattern bundles have one writer and one reader, each taking A in row
blocks.  ``_write_pattern_blocks`` draws each block of model._row_blocks
into one reused buffer and writes it before drawing the next; its bytes
equal write_patterns' of the whole matrix.  ``_read_pattern_blocks``
yields a PatternSet per block of the cut it is given: model._row_blocks
for the CLI's simulate, and one block of all m rows for read_patterns.

The results CSV has one column per SweepRow field, in field order.
"""

import csv
import os
import re
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .model import Image, MeasurementSet, PatternSet, _check_int, _check_seed, _row_blocks

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


def _discard(path) -> None:
    """Remove path if it names a regular file, never a device or a pipe."""
    if os.path.isfile(path):
        os.remove(path)


@contextmanager
def _output(path, mode="wb", **kwargs):
    """open(path, mode) for a with block that writes it; if the block or the
    close raises, the file is discarded before the error propagates."""
    f = open(path, mode, **kwargs)
    try:
        with f:
            yield f
    except BaseException:
        _discard(path)
        raise


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
    and rounded (an Image holds only finite values)."""
    u8 = np.rint(np.clip(img.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    with _output(path) as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(u8.tobytes())


# -------------------------------------------------------------------- bundles


# kind -> (kind byte, header layout, names of its u32 counts)
_BUNDLES = {"patterns": (1, struct.Struct("<8sBIIQ"), ("m", "n")),
            "measurements": (3, struct.Struct("<8sBIIIQd"), ("m", "width", "height"))}
_KIND_NAMES = {code: kind for kind, (code, *_) in _BUNDLES.items()} | {
    2: "kind byte 2, the retired measurements layout that records no image shape "
       "(re-run simulate)"}


def _save_bundle(path, kind, counts, seed, blocks, *sigma) -> None:
    """Write a bundle whose payload is the arrays ``blocks`` yields, in
    turn; sigma for measurements only.  If writing fails, the file is
    removed."""
    code, header, names = _BUNDLES[kind]
    if not all(0 < _check_int(c, name) < 2**32 for name, c in zip(names, counts)):
        got = ", ".join(f"{name}={c}" for name, c in zip(names, counts))
        raise InvalidArgumentError(f"a bundle needs 1 <= {', '.join(names)} < 2**32, got {got}")
    _check_seed(seed)
    with _output(path) as f:
        f.write(header.pack(MAGIC, code, *counts, seed, *sigma))
        for block in blocks:
            f.write(memoryview(np.ascontiguousarray(block, dtype="<f8")).cast("B"))


def _open_bundle(f, kind):
    """(m, n, seed) or (m, width, height, seed, sigma) from the header of the
    open bundle f, once the payload length it declares matches the file size."""
    code, header, names = _BUNDLES[kind]
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise FormatError("not a regular file", offset=0)
    head = f.read(header.size)
    if head[:8] != MAGIC:
        raise FormatError(f"bad magic {head[:8]!r}", offset=0)
    if len(head) > 8 and head[8] != code:
        found = _KIND_NAMES.get(head[8], f"kind byte {head[8]}")
        raise FormatError(f"expected a {kind} bundle, got {found}", offset=8)
    if len(head) < header.size:
        raise FormatError("truncated header", offset=len(head))
    fields = header.unpack(head)[2:]
    for i, (name, value) in enumerate(zip(names, fields)):
        if value == 0:
            raise FormatError(f"{name} is 0: a bundle needs {', '.join(names)} >= 1",
                              offset=9 + 4 * i)
    expected = 8 * fields[0] * (fields[1] if kind == "patterns" else 1)
    actual = st.st_size - header.size
    if actual != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes, got {actual}",
            offset=header.size,
        )
    return fields


def _read_into(f, out) -> None:
    """Fill out from f's next out.nbytes bytes."""
    at = f.tell()
    got = f.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:  # the file shrank after fstat
        raise FormatError(f"truncated payload: expected {out.nbytes} bytes, got {got}",
                          offset=at + got)


def write_patterns(patterns: PatternSet, path) -> None:
    _save_bundle(path, "patterns", (patterns.m, patterns.n), patterns.seed, [patterns.rows])


def read_patterns(path) -> PatternSet:
    (patterns,) = _read_pattern_blocks(path, lambda m, n: [slice(0, m)])  # one block: all of A
    return patterns


def _write_pattern_blocks(path, m, n, seed, draw) -> None:
    """write_patterns' bundle of the m x n matrix whose rows draw(out) fills
    in turn (see model._pattern_draw), drawn and written one block at a
    time into one reused buffer."""
    def blocks():
        buf = np.empty((max(b.stop - b.start for b in _row_blocks(m, n)), n))
        for block in _row_blocks(m, n):
            rows = buf[:block.stop - block.start]
            draw(rows)
            yield rows

    _save_bundle(path, "patterns", (m, n), seed, blocks())


def _read_pattern_blocks(path, cut=_row_blocks):
    """Yield the bundle's rows as one PatternSet per slice of cut(m, n), in
    order, each read into its own array, which its PatternSet takes over.
    An entry PatternSet refuses is a FormatError at its own offset."""
    with open(path, "rb") as f:
        m, n, seed = _open_bundle(f, "patterns")
        for block in cut(m, n):
            rows = np.empty((block.stop - block.start, n), dtype="<f8")
            at = f.tell()
            _read_into(f, rows)
            try:
                patterns = PatternSet(rows, seed=seed)
            except InvalidArgumentError as exc:  # at the first negative or non-finite entry
                bad = ~(rows >= 0) | (rows == np.inf)
                raise FormatError(str(exc), offset=at + 8 * int(bad.argmax())) from None
            yield patterns


def write_measurements(meas: MeasurementSet, width: int, height: int, path) -> None:
    """Write meas with the width and height of the scene it measures."""
    _save_bundle(path, "measurements", (meas.m, width, height), meas.noise_seed,
                 [meas.values], meas.noise_sigma)


def read_measurements(path):
    """Returns (MeasurementSet, width, height)."""
    with open(path, "rb") as f:
        m, width, height, seed, sigma = _open_bundle(f, "measurements")
        values = np.empty(m, dtype="<f8")
        _read_into(f, values)
    try:
        meas = MeasurementSet(values=values, noise_sigma=sigma, noise_seed=seed)
    except InvalidArgumentError as exc:  # at the first non-finite value, else at sigma
        bad = ~np.isfinite(values)
        start = _BUNDLES["measurements"][1].size  # sigma is the 8 bytes before it
        at = start + 8 * int(bad.argmax()) if bad.any() else start - 8
        raise FormatError(str(exc), offset=at) from None
    return meas, width, height


# ------------------------------------------------------------------------ CSV


@dataclass
class SweepRow:
    """One benchmark cell's result; its fields, in order, are the CSV's columns."""

    scene: str
    solver: str
    ratio: float
    size: str  # "WxH"
    noise_level: float
    repeat: int
    rmse: Optional[float]
    iterations: int
    wall_time_s: float
    seed: int
    status: str  # "ok" or "failed:<Type>: <message>"


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def write_results_csv(rows, path) -> None:
    """One line per SweepRow of ``rows``, one cell per field; None (the rmse
    of a failed cell) is an empty cell."""
    rows = list(rows)
    if not rows:
        raise InvalidArgumentError("no rows to write")
    with _output(path, "w", newline="") as f:
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
