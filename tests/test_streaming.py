"""gen-patterns and simulate hold one block of A's rows at a time.

The block draw continues one PCG64 stream, so the streamed bundle equals
the in-memory one byte for byte; simulate multiplies each block as it is
read and checks it with PatternSet's rule, at each entry's own offset.
Most tests shrink the block to a few rows so that small bundles span
many blocks.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spi_recon import cli, io, model
from spi_recon.cli import main
from spi_recon.errors import FormatError
from spi_recon.io import write_image, write_measurements, write_patterns
from spi_recon.model import (
    NoiseModel,
    PatternSet,
    _pattern_draw,
    add_noise,
    generate_patterns,
    synthesize,
)
from spi_recon.scenes import builtin_scene

HEADER = 25  # bytes before a patterns bundle's payload


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of about 1 KiB: 8 rows of 15 pixels."""
    monkeypatch.setattr(model, "_BLOCK_BYTES", 1024)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gen(path, m, w, h, dist="uniform01", seed=12345):
    return main(["gen-patterns", "--m", str(m), "--width", str(w), "--height", str(h),
                 "--dist", dist, "--seed", str(seed), "--out", str(path)])


def simulate(patterns, scene, out, level="1e-3"):
    return main(["simulate", "--patterns", str(patterns), "--scene", str(scene),
                 "--noise-level", level, "--seed", "7", "--out", str(out)])


# ------------------------------------------------------------------- drawing


@st.composite
def block_draws(draw):
    """(distribution, m, width, height, seed, block bounds).  Binary blocks
    on an odd pixel count hold an even number of rows, except the last."""
    dist = draw(st.sampled_from(["uniform01", "binary"]))
    m, w, h = draw(st.integers(1, 40)), draw(st.integers(1, 7)), draw(st.integers(1, 5))
    step = 2 if dist == "binary" and (w * h) % 2 else 1
    cuts = draw(st.sets(st.integers(1, max(1, (m - 1) // step)), max_size=6))
    bounds = sorted({0, m, *(step * c for c in cuts if step * c < m)})
    return dist, m, w, h, draw(st.integers(0, 2**64 - 1)), bounds


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=block_draws())
@example(case=("uniform01", 1, 1, 1, 0, [0, 1]))
@example(case=("binary", 1, 3, 3, 2**64 - 1, [0, 1]))
@example(case=("binary", 9, 3, 3, 5, [0, 4, 6, 9]))  # odd n, a short last block
def test_a_block_draw_equals_the_same_rows_of_one_draw(case):
    dist, m, w, h, seed, bounds = case
    whole = generate_patterns(m, w, h, dist, seed=seed).rows
    n, draw = _pattern_draw(m, w, h, dist, seed)
    buf = np.empty((max(np.diff(bounds)), n))  # one buffer, as the block writer has
    for start, stop in zip(bounds, bounds[1:]):
        block = buf[:stop - start]
        draw(block)
        assert np.array_equal(block, whole[start:stop]), (start, stop)


# -------------------------------------------------------------------- bytes


@pytest.mark.parametrize("m, w, h, block_bytes, blocks", [
    (300, 33, 31, model._BLOCK_BYTES, 10),  # 32-row blocks of 1023 pixels
    (1, 1, 1, model._BLOCK_BYTES, 1),
    (57, 5, 3, 1024, 7),  # 8-row blocks, the last row joined to the seventh
])
@pytest.mark.parametrize("dist", ["uniform01", "binary"])
def test_gen_patterns_writes_the_in_memory_bundle_bytes(tmp_path, monkeypatch, m, w, h,
                                                        block_bytes, blocks, dist):
    monkeypatch.setattr(model, "_BLOCK_BYTES", block_bytes)
    assert len(list(model._row_blocks(m, w * h))) == blocks
    streamed, direct = tmp_path / "streamed.spib", tmp_path / "direct.spib"
    assert gen(streamed, m, w, h, dist) == 0
    write_patterns(generate_patterns(m, w, h, dist, seed=12345), direct)
    assert streamed.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("m, w, h, block_bytes", [
    # 8-row blocks: a last block of 9 rows, a last block of 2 rows, one block,
    # one block of 9 rows
    *(pytest.param(m, 5, 3, 1024, id=str(m)) for m in (57, 50, 8, 9)),
    # the default blocks, with m * n past where a two-thread BLAS splits a whole
    # product, and m not a multiple of 8
    pytest.param(717, 32, 32, model._BLOCK_BYTES, id="717-32x32-default-blocks"),
])
@pytest.mark.parametrize("level", ["0", "1e-3"])
def test_simulate_writes_the_in_memory_bundle_bytes(tmp_path, monkeypatch, m, w, h,
                                                    block_bytes, level):
    monkeypatch.setattr(model, "_BLOCK_BYTES", block_bytes)
    pat, scene = tmp_path / "pat.spib", tmp_path / "scene.pgm"
    streamed, direct = tmp_path / "streamed.spib", tmp_path / "direct.spib"
    write_image(builtin_scene("blocks", w, h), scene)
    assert gen(pat, m, w, h) == 0
    assert simulate(pat, scene, streamed, level) == 0
    meas = synthesize(io.read_patterns(pat), io.read_image(scene))
    noise = NoiseModel(level=float(level), pixel_count=w * h)
    if noise.sigma > 0:
        meas = add_noise(meas, noise, seed=7)
    write_measurements(meas, w, h, direct)
    assert streamed.read_bytes() == direct.read_bytes()


READINGS = """
import hashlib, sys
from pathlib import Path
from spi_recon import cli, io, model, scenes
m, w, h, tmp = *map(int, sys.argv[1:4]), Path(sys.argv[4])
io.write_image(scenes.builtin_scene("blocks", w, h), tmp / "scene.pgm")
assert cli.main(["gen-patterns", "--m", str(m), "--width", str(w), "--height", str(h),
                 "--seed", "7", "--out", str(tmp / "pat.spib")]) == 0
assert cli.main(["simulate", "--patterns", str(tmp / "pat.spib"), "--scene",
                 str(tmp / "scene.pgm"), "--out", str(tmp / "cli.spib")]) == 0
meas = model.synthesize(io.read_patterns(tmp / "pat.spib"), io.read_image(tmp / "scene.pgm"))
io.write_measurements(meas, w, h, tmp / "lib.spib")
for name in ("cli.spib", "lib.spib"):
    print(hashlib.sha256((tmp / name).read_bytes()).hexdigest())
"""


# m not a multiple of 8, with m * n past where a two-thread BLAS splits a whole product
@pytest.mark.parametrize("m, w, h", [(100, 96, 96), (717, 32, 32)])
def test_readings_do_not_depend_on_the_blas_thread_count(tmp_path, run_python, m, w, h):
    digests = []
    for threads in (1, 2):
        out = run_python(READINGS, m, w, h, tmp_path, threads=threads)
        assert out.returncode == 0, out.stderr
        digests += out.stdout.split()
    assert len(digests) == 4 and len(set(digests)) == 1, digests


def test_blocks_cover_the_bundle_and_a_last_row_joins_the_block_before(tmp_path,
                                                                      small_blocks):
    path = tmp_path / "pat.spib"
    write_patterns(generate_patterns(57, 5, 3, seed=1), path)
    blocks = list(io._read_pattern_blocks(path))
    assert [b.m for b in blocks] == [8] * 6 + [9]
    assert all(b.seed == 1 and not b.rows.flags.writeable for b in blocks)
    assert np.array_equal(np.concatenate([b.rows for b in blocks]),
                          io.read_patterns(path).rows)


# ------------------------------------------------------------------ offsets


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_a_bad_entry_in_a_later_block_is_refused_at_its_offset(tmp_path, capsys,
                                                               small_blocks, value):
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("blocks", 5, 3), scene)
    assert gen(pat, 57, 5, 3) == 0
    offset = HEADER + 8 * (30 * 15 + 7)  # row 30, in the fourth block
    data = bytearray(pat.read_bytes())
    data[offset:offset + 8] = struct.pack("<d", value)
    pat.write_bytes(data)
    with pytest.raises(FormatError) as info:
        list(io._read_pattern_blocks(pat))
    assert info.value.offset == offset
    assert simulate(pat, scene, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and f"(byte offset {offset})" in err
    assert not out.exists()


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 40), n=st.integers(1, 20), data=st.data())
def test_the_whole_read_is_the_block_read_in_one_block(tmp_path, small_blocks, m, n, data):
    """read_patterns reads through _read_pattern_blocks: the same bytes,
    and a bad entry refused at the same offset, whether A comes as one
    block or as several."""
    path = tmp_path / "pat.spib"
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    write_patterns(PatternSet(np.random.default_rng(seed).random((m, n))), path)
    whole = io.read_patterns(path).rows.tobytes()
    assert b"".join(b.rows.tobytes() for b in io._read_pattern_blocks(path)) == whole
    assert whole == path.read_bytes()[HEADER:]

    index = data.draw(st.integers(0, m * n - 1), label="index")
    value = data.draw(st.sampled_from([-1.0, np.nan, np.inf, -np.inf]), label="value")
    bad = bytearray(path.read_bytes())
    bad[HEADER + 8 * index:HEADER + 8 * index + 8] = struct.pack("<d", value)
    path.write_bytes(bad)
    with pytest.raises(FormatError) as in_one:
        io.read_patterns(path)
    with pytest.raises(FormatError) as in_blocks:
        list(io._read_pattern_blocks(path))
    assert in_one.value.offset == in_blocks.value.offset == HEADER + 8 * index


def test_a_bundle_that_shrinks_while_it_is_read_is_refused_at_its_end(tmp_path,
                                                                      small_blocks):
    path = tmp_path / "pat.spib"
    write_patterns(generate_patterns(400, 5, 3), path)  # 48 KB in 50 blocks
    blocks = io._read_pattern_blocks(path)
    next(blocks)  # the size was checked when the bundle was opened
    cut = HEADER + 20_004  # inside the 21st block, past what the reader buffers ahead
    with open(path, "r+b") as f:
        f.truncate(cut)
    with pytest.raises(FormatError, match="truncated payload") as info:
        list(blocks)
    assert info.value.offset == cut


def test_gen_patterns_failing_midway_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                    small_blocks):
    def failing_draw(*args):
        n, draw = _pattern_draw(*args)
        calls = []

        def fail_on_third(out):
            calls.append(len(out))
            if len(calls) == 3:
                raise MemoryError("Unable to allocate a block")
            draw(out)
        return n, fail_on_third

    monkeypatch.setattr(cli, "_pattern_draw", failing_draw)
    out = tmp_path / "pat.spib"
    assert gen(out, 57, 5, 3) == 2
    assert capsys.readouterr().err == "runtime error: Unable to allocate a block\n"
    assert not out.exists()


def test_a_row_count_the_header_cannot_hold_is_refused_before_drawing(tmp_path, capsys):
    out = tmp_path / "pat.spib"
    codes = []
    peak = traced_peak(lambda: codes.append(gen(out, 2**32, 1, 1)))
    assert codes == [1]
    assert capsys.readouterr().err == (
        "usage error: a bundle needs 1 <= m, n < 2**32, got m=4294967296, n=1\n")
    assert peak < 2**20 and not out.exists()


# ------------------------------------------------------------------- memory


def test_gen_patterns_and_simulate_hold_one_block(tmp_path):
    """At 64 x 64 and m = 2048, A is 64 MiB and a block 256 KiB."""
    pat, scene, out = tmp_path / "pat.spib", tmp_path / "scene.pgm", tmp_path / "meas.spib"
    write_image(builtin_scene("blocks", 64, 64), scene)
    generate_patterns(2, 2, 2)  # numpy.random's own first-use allocations
    assert traced_peak(lambda: gen(pat, 2048, 64, 64)) < 2 * 2**20
    assert pat.stat().st_size == HEADER + 8 * 2048 * 4096
    assert traced_peak(lambda: simulate(pat, scene, out)) < 2 * 2**20
    meas, width, height = io.read_measurements(out)
    assert meas.m == 2048 and (width, height) == (64, 64)
