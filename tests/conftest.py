"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import spi_recon

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_python(code: str, *args, threads: int = 1) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports
    spi_recon from this checkout, with its BLAS pinned to ``threads``
    threads; skip the test if fewer CPUs than that are available."""
    if threads > 1 and _cpus() < threads:
        pytest.skip(f"{threads} BLAS threads need {threads} CPUs, {_cpus()} available")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spi_recon.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREAD_VARIABLES, str(threads)))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture
def run_python():
    """_run_python: a snippet in a fresh interpreter with a pinned BLAS
    thread count."""
    return _run_python
