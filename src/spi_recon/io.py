"""Persistence: PGM images, binary pattern/measurement bundles, result CSVs.

Images are read from P2 (ASCII) or P5 (binary) PGM and written as P5.  A
P2 raster that declares more pixels than the rest of the file can hold is
refused before anything is allocated, so reading a PGM allocates a fixed
multiple of its file size at most.  Data past the declared raster is
refused too, at the offset of its first byte (P5) or token (P2); only
whitespace and comments may follow a P2 raster.

Every writer here (PGM, bundle, CSV) goes through ``_output``, the only
code that removes a file: one that fails part way, or whose file cannot be
closed, removes the file it was writing, if that is a regular file.  Every
file the library reads (PGM, bundle, CSV, the CLI's benchmark config) is
opened by ``_input``, which does not wait on a pipe's writer and refuses
anything fstat does not show as a regular file (a pipe, a device such as
/dev/zero) with a FormatError naming the path, before it reads a byte.

Bundle layout (little-endian): 8-byte magic "SPIBNDL1", kind byte, u32
counts, u64 seed.  Patterns (kind 1): m, n and the seed, a 25-byte
header, then m*n float64 values row-major.  Measurements (kind 3): m, the
scene's width and height (n = width*height), the seed and one f64 sigma,
a 37-byte header, then m float64 values.  Kind 2, the old measurements
layout with n in place of the shape, is retired.  Each kind has its own
writer and reader, and a reader refuses any other kind byte at offset 8.

Every count must be an int >= 1: the writer refuses one outside [1, 2**32)
(the header's u32 fields), and the reader reports a 0 as a FormatError at
its offset (m at 9, n or width at 13, height at 17).  PatternSet and
MeasurementSet refuse a seed outside [0, 2**64), as gen-patterns' draw
does, so a writer records the seed it is given.  The reader parses the
fixed header, checks the payload length it declares against the file size
before allocating anything, and then ``_read_payload`` reads the payload
straight into the array its record takes over, so reading holds one copy
of the payload; the writer writes the array's own buffer.  A payload value
its record refuses is a FormatError at the first entry the record's own
_refused marks, else (a refused sigma) at the 8 bytes before the payload.

Pattern bundles have one writer and one reader, each taking A in row
blocks.  ``_write_pattern_blocks`` draws each block of model._row_blocks
into one reused buffer and writes it before drawing the next; its bytes
equal write_patterns' of the whole matrix.  ``_read_pattern_blocks``
yields a PatternSet per block of the cut it is given: model._row_blocks
for the CLI's simulate, and one block of all m rows for read_patterns.

The results CSV has one column per SweepRow field, in field order.  It
and reconstruct's trace CSV have one writer, ``_write_csv``.
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
from .model import Image, MeasurementSet, PatternSet, _check_int, _row_blocks

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


@contextmanager
def _output(path, mode="wb", **kwargs):
    """open(path, mode) for a with block that writes it; if the block or the
    close raises, path is removed, if it is a regular file (never a device or
    a pipe), before the error propagates.  The only code that removes a file."""
    f = open(path, mode, **kwargs)
    try:
        with f:
            yield f
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


@contextmanager
def _input(path, mode="rb", **kwargs):
    """open(path, mode) for a with block that reads it, if fstat shows a regular file, else a
    FormatError naming path; O_NONBLOCK keeps open() from waiting on a pipe's writer."""
    with open(path, mode, opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK),
              **kwargs) as f:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            raise FormatError(f"{path} is not a regular file")
        yield f


# ------------------------------------------------------------------------ PGM


# a comment (# to the end of the line) or a token (group 1), which may hold a #
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^#\s]\S*)")


def read_image(path) -> Image:
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval 255 into [0, 1]; numbers are digits."""
    with _input(path) as f:
        data = f.read()
    tokens = (t for t in _PGM_TOKEN.finditer(data) if t.lastindex)

    def next_field(what, parse=int):
        t = next(tokens, None)
        if t is None:
            raise FormatError(f"truncated header: missing {what}", offset=len(data))
        try:
            if parse is int and not t[0].isdigit():  # ASCII digits: int() takes b"+5", b"1_0"
                raise ValueError
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
            if v > 255:
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
    with _output(path) as f:
        f.write(header.pack(MAGIC, code, *counts, seed, *sigma))
        for block in blocks:
            f.write(memoryview(np.ascontiguousarray(block, dtype="<f8")).cast("B"))


def _open_bundle(f, kind):
    """(m, n, seed) or (m, width, height, seed, sigma) from the header of the
    open bundle f, once the payload length it declares matches the file size."""
    code, header, names = _BUNDLES[kind]
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
    actual = os.fstat(f.fileno()).st_size - header.size
    if actual != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes, got {actual}",
            offset=header.size,
        )
    return fields


def _read_payload(f, shape, record, *args):
    """record(a, *args), taking over a, a new float64 array of the given shape read from f; its
    refusal is a FormatError at a's first record._refused(a) entry, else at the 8 bytes before a."""
    a = np.empty(shape, dtype="<f8")
    at = f.tell()
    got = f.readinto(memoryview(a).cast("B"))
    if got != a.nbytes:  # the file shrank after fstat
        raise FormatError(f"truncated payload: expected {a.nbytes} bytes, got {got}",
                          offset=at + got)
    try:
        return record(a, *args)
    except InvalidArgumentError as exc:
        at = at + 8 * int(bad.argmax()) if (bad := record._refused(a)).any() else at - 8
        raise FormatError(str(exc), offset=at) from None


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
    order, each read by _read_payload, so a refused entry is at its own offset."""
    with _input(path) as f:
        m, n, seed = _open_bundle(f, "patterns")
        for block in cut(m, n):
            yield _read_payload(f, (block.stop - block.start, n), PatternSet, seed)


def write_measurements(meas: MeasurementSet, width: int, height: int, path) -> None:
    """Write meas with the width and height of the scene it measures."""
    _save_bundle(path, "measurements", (meas.m, width, height), meas.noise_seed,
                 [meas.values], meas.noise_sigma)


def read_measurements(path):
    """Returns (MeasurementSet, width, height)."""
    with _input(path) as f:
        m, width, height, seed, sigma = _open_bundle(f, "measurements")
        return _read_payload(f, m, MeasurementSet, sigma, seed), width, height


# ------------------------------------------------------------------------ CSV


@dataclass(frozen=True)
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


def _write_csv(path, columns, rows) -> None:
    """A CSV of the header columns and one line per row of values, each
    cell through _fmt: the writer of results CSVs and of reconstruct's trace."""
    with _output(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows([_fmt(v) for v in row] for row in rows)


def write_results_csv(rows, path) -> None:
    """One line per SweepRow of ``rows``, one cell per field; None (the rmse
    of a failed cell) is an empty cell."""
    rows = list(rows)
    if not rows:
        raise InvalidArgumentError("no rows to write")
    _write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in rows))


def read_results_csv(path):
    """Parse a results CSV into a list of dicts (strings kept raw); a file that is not UTF-8,
    or a row with a cell too many or too few (DictReader's None key or value), is a FormatError."""
    try:
        with _input(path, "r", newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames != CSV_COLUMNS:
                raise FormatError(f"unexpected CSV header {reader.fieldnames}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise FormatError(f"results CSV {path} is not UTF-8 ({exc.reason})") from None
    if bad := [i for i, row in enumerate(rows, 1) if None in row or None in row.values()]:
        raise FormatError(f"row {bad[0]} does not have {len(CSV_COLUMNS)} cells")
    return rows
