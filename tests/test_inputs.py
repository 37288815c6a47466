"""Every file the library reads is opened by io._input, which refuses a path
that is not a regular file with a FormatError naming it, before it reads a
byte: a pipe with a writer, a pipe without one, and /dev/zero.

Before, read_image and read_results_csv read a pipe until its writer closed
it and /dev/zero until memory ran out, and every reader blocked in open() on
a pipe with no writer.  So each case runs in a forked child whose address
space is capped and which an alarm kills: a reader that blocks or reads
without end fails its own test, not the suite."""

import contextlib
import io
import os
import pickle
import resource
import signal

import pytest

from spi_recon.bench import run_cell
from spi_recon.cli import main
from spi_recon.io import (read_image, read_measurements, read_patterns, read_results_csv,
                          write_image, write_measurements, write_patterns)
from spi_recon.model import MeasurementSet, generate_patterns
from spi_recon.scenes import builtin_scene

pytestmark = pytest.mark.skipif(
    not all(map(os.path.exists, ("/dev/zero", "/proc/self/statm"))) or not hasattr(os, "mkfifo"),
    reason="needs named pipes, /dev/zero and /proc/self/statm")

SECONDS = 5  # a refusal takes milliseconds; a reader blocked on a pipe never returns
HEADROOM = 128 * 2**20  # bytes of address space the child may add; /dev/zero has no end
WRITTEN = b"P5\n"  # what the writer of a pipe puts in it before the read


def _in_child(call):
    """(call()'s value, None), or (None, "<Type>: <message>") if it raised, from a forked child
    whose address space may grow by HEADROOM at most and which SIGALRM kills after SECONDS.
    A fork, not a fresh interpreter, keeps a case to milliseconds; the child only opens and
    reads files, and the alarm ends it even if a lock another thread held at the fork stays
    held."""
    with open("/proc/self/statm") as f:
        limit = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + HEADROOM
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: it never returns to the suite
        try:
            os.close(r)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(SECONDS)
            try:
                outcome = call(), None
            except BaseException as exc:  # MemoryError too
                outcome = None, f"{type(exc).__name__}: {exc}"
            os.write(w, pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return None, f"the child died: wait status {status} (SIGALRM is {int(signal.SIGALRM)})"
    return pickle.loads(data)


@pytest.fixture(params=["pipe-with-writer", "pipe-without-writer", "dev-zero"])
def unreadable(request, tmp_path):
    """A path that is not a regular file, named like a PGM, since run_cell reads only .pgm
    scenes (/dev/zero through a symlink); and a check that the pipe's bytes are still unread."""
    path = tmp_path / "input.pgm"
    if request.param == "dev-zero":
        os.symlink("/dev/zero", path)
    else:
        os.mkfifo(path)
    if request.param != "pipe-with-writer":
        yield str(path), lambda: True
        return
    fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)  # a writer, so a plain open() returns
    try:
        os.write(fd, WRITTEN)
        yield str(path), lambda: os.read(fd, 64) == WRITTEN
    finally:
        os.close(fd)


@pytest.fixture
def files(tmp_path):
    """Regular files for every input the command under test does not take from the pipe."""
    pat, meas, scene = tmp_path / "pat.spib", tmp_path / "meas.spib", tmp_path / "scene.pgm"
    write_patterns(generate_patterns(8, 4, 4, seed=1), pat)
    write_measurements(MeasurementSet(values=[1.0] * 8), 4, 4, meas)
    write_image(builtin_scene("blocks", 4, 4), scene)
    return {"pat": str(pat), "meas": str(meas), "scene": str(scene), "out": tmp_path / "out"}


READERS = {
    "read_image": read_image,
    "read_patterns": read_patterns,
    "read_measurements": read_measurements,
    "read_results_csv": read_results_csv,
}


@pytest.mark.parametrize("reader", READERS)
def test_a_reader_refuses_a_path_that_is_not_a_regular_file(unreadable, reader):
    path, unread = unreadable
    assert _in_child(lambda: READERS[reader](path)) == (
        None, f"FormatError: {path} is not a regular file")
    assert unread()


def test_a_pgm_scene_that_is_not_a_regular_file_is_a_failed_row(unreadable):
    """A pipe scene stalled the whole sweep; its cell is now a failed row."""
    path, unread = unreadable
    assert _in_child(lambda: run_cell(path, "dgi", 0.5, 8, 8, 0.0, 0).status) == (
        f"failed:FormatError: {path} is not a regular file", None)
    assert unread()


COMMANDS = {
    "metrics": lambda x, f: ["metrics", "--truth", x, "--estimate", f["scene"]],
    "simulate-scene": lambda x, f: ["simulate", "--patterns", f["pat"], "--scene", x,
                                    "--out", f["out"]],
    "simulate-patterns": lambda x, f: ["simulate", "--patterns", x, "--scene", f["scene"],
                                       "--out", f["out"]],
    "reconstruct-measurements": lambda x, f: ["reconstruct", "--solver", "dgi", "--patterns",
                                              f["pat"], "--measurements", x, "--out", f["out"]],
    # the pattern header is read before A, to check it against the measurements
    "reconstruct-patterns": lambda x, f: ["reconstruct", "--solver", "dgi", "--patterns", x,
                                          "--measurements", f["meas"], "--out", f["out"]],
    "benchmark": lambda x, f: ["benchmark", "--config", x, "--out", f["out"]],
}


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_refuses_an_input_that_is_not_a_regular_file(unreadable, files, command):
    path, unread = unreadable
    argv = COMMANDS[command](path, files)
    assert _in_child(lambda: _exit_and_stderr(argv)) == (
        (2, f"runtime error: {path} is not a regular file\n"), None)
    assert unread()
    assert not files["out"].exists()
