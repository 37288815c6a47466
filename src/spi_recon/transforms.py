"""Sparsifying operators: orthonormal 2D DCT, discrete gradient, soft threshold.

The DCT is the orthonormal 2D DCT-II, with the DCT-III as its adjoint and
inverse, built on ``numpy.fft``.  It runs, step for step, what pocketfft
runs for ``scipy.fft.dctn``/``idctn(type=2, norm="ortho")``: Makhoul's
algorithm (IEEE TASSP 28, 1980), which per line of length N is a
pre-twiddle, one real FFT of length N and a post-twiddle; axis 0 goes
first, and the norm factor scales the first axis's FFT output only.
numpy >= 2.0 ships the same C++ pocketfft as ``scipy.fft``, so the
outputs are bit-identical to scipy's, signed zeros included, and the
tests compare them byte for byte.  The twiddles must be rounded as
pocketfft rounds them: a plain ``np.cos`` table differs in 13 of the 31
used at N = 32, and that moves cs-dct's RMSE on 32x32 cells by up to
3e-4 relative.

So the library needs no scipy.  Importing ``scipy.fft`` for its two DCT
calls loaded 311 modules (``scipy.special``, ``numpy.f2py`` and
``numpy.testing`` among them), 26 MiB of peak RSS and 0.16-0.43 s in
a process that had numpy and scipy already.  The cost moves into each
call: the twiddle steps are a dozen numpy ufunc calls per axis, so a
32x32 transform takes about 3 times as long as scipy's one C++ call
(``BENCH_12.json``).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import _check_int, _check_real

__all__ = [
    "LinearOperator",
    "dct_operator",
    "gradient_operator",
    "soft_threshold",
]

# pocketfft's pi literal (36 digits), read as a long double
_PI = np.longdouble("3.14159265358979323846264338327950288")
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free linear map with explicit adjoint.

    Satisfies <apply(u), v> == <u, apply_transpose(v)>.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]


def _dct_twiddles(n: int) -> np.ndarray:
    """cos(pi k / 2n) for k = 1..n-1, rounded as pocketfft rounds them.

    pocketfft reads them from its table of the (4n)-th roots of unity: it
    splits k into its low ``shift`` bits and the rest, takes the cos and
    sin of each part from libm at an angle folded into the first octant,
    and multiplies the two complex numbers.
    """
    ang = float(np.longdouble(0.25) * _PI / (4 * n))
    shift = 1
    while 4 ** shift < 2 * n + 1:
        shift += 1
    low = (1 << shift) - 1

    def root(k):  # (cos, sin) of 2 pi k / 4n, for 0 <= k < n
        x = 8 * k
        if x < 4 * n:
            return math.cos(x * ang), math.sin(x * ang)
        return math.sin((8 * n - x) * ang), math.cos((8 * n - x) * ang)

    tw = np.empty(max(n - 1, 0))
    for k in range(1, n):
        c1, s1 = root(k & low)
        c2, s2 = root(k & ~low)
        tw[k - 1] = c1 * c2 - s1 * s2
    return tw


class _DctLines:
    """pocketfft's orthonormal DCT-II and DCT-III along axis 0 of (n, m) arrays.

    Line k pairs with line n - k: ``lo`` selects k = 1..h-1 and ``hi`` their
    partners, in reverse.  Lines 0 and n/2 (``unpaired``) pair with none.
    The twiddles are stored at full (h - 1, m) shape, so that the ufuncs run
    on same-shape contiguous operands, which is what makes them cheap on
    small images.  Every expression keeps pocketfft's operands, order and
    rounding.
    """

    def __init__(self, n: int, m: int):
        tw = _dct_twiddles(n)
        h = (n + 1) // 2

        def full(column):
            return np.repeat(np.asarray(column, dtype=np.float64)[:, None], m, axis=1)

        self.n, self.m = n, m
        self.a = full(tw[:h - 1])               # tw[k - 1]
        self.b = full(tw[n - h:n - 1][::-1])    # tw[n - k - 1]
        self.lo = slice(1, h)
        self.hi = slice(n - 1, n - h, -1)
        self.odd = slice(1, 2 * h - 2, 2)
        self.even = slice(2, 2 * h - 1, 2)
        # lines 0 and n - 1 of the data; lines 0 and n/2 of the spectrum
        self.outer, self.unpaired = (slice(0, 1),) * 2 if n % 2 else (
            slice(0, None, n - 1), slice(0, None, h))
        # the unpaired lines' factors; one whole-array product applies
        # them, and the paired lines are overwritten after it
        self.scale2, self.scale3 = np.zeros((2, n, m))
        self.scale2[0], self.scale3[0] = _SQRT2 * 0.5, _SQRT2
        if n % 2 == 0:
            self.scale2[h], self.scale3[h] = tw[h - 1], 2 * tw[h - 1]

    def dct2(self, x: np.ndarray, fct=None) -> np.ndarray:
        """DCT-II of each column of x; fct scales the FFT output."""
        n, m, lo, hi = self.n, self.m, self.lo, self.hi
        z = np.empty((n // 2 + 1, m), dtype=np.complex128)
        zr = z.real
        np.add(x[self.outer], x[self.outer], out=zr[self.unpaired])
        odd, even = x[self.odd], x[self.even]
        np.add(odd, even, out=zr[lo])
        np.subtract(even, odd, out=z.imag[lo])
        y = np.fft.irfft(z, n=n, axis=0, norm="forward", out=np.empty((n, m)))
        if fct is not None:
            y *= fct
        a, b = self.a, self.b
        yk, yc = y[lo], y[hi].copy()
        t1 = a * yc
        t1 += b * yk
        t2 = a * yk
        t2 -= b * yc
        out = y * self.scale2
        half = np.add(t1, t2, out=out[lo])
        half *= 0.5
        t1 -= t2
        t1 *= 0.5
        out[hi] = t1
        return out

    def dct3(self, x: np.ndarray, fct=None) -> np.ndarray:
        """DCT-III of each column of x, the inverse of dct2; fct scales the FFT output."""
        n, m, lo, hi = self.n, self.m, self.lo, self.hi
        xk, xc = x[lo], x[hi].copy()
        t1 = xk + xc
        t2 = xk - xc
        a, b = self.a, self.b
        c = x * self.scale3
        low = np.multiply(a, t2, out=c[lo])
        low += b * t1
        t1 *= a
        t1 -= b * t2
        c[hi] = t1
        z = np.fft.rfft(c, axis=0, out=np.empty((n // 2 + 1, m), dtype=np.complex128))
        if fct is not None:
            parts = z.view(np.float64)
            parts *= fct
        zr, zi = z.real, z.imag
        y = np.empty((n, m))
        y[self.outer] = zr[self.unpaired]
        np.subtract(zr[lo], zi[lo], out=y[self.odd])
        np.add(zr[lo], zi[lo], out=y[self.even])
        return y


def dct_operator(width: int, height: int) -> LinearOperator:
    """Orthonormal separable 2D DCT-II on row-major image vectors.

    apply_transpose is the exact inverse (the basis is orthonormal).  Both
    are bit-identical to scipy.fft.dctn/idctn(type=2, norm="ortho").
    """
    width, height = _check_int(width, "dct width", 1), _check_int(height, "dct height", 1)
    n = width * height
    # pocketfft's orthonormal factor 1/sqrt(prod 2N), rounded from long double
    fct = float(1 / np.sqrt(np.longdouble(4 * n)))
    cols, rows = _DctLines(height, width), _DctLines(width, height)

    def fwd(v):
        img = np.asarray(v, dtype=np.float64).reshape(height, width)
        return rows.dct2(cols.dct2(img, fct).T.copy()).T.ravel()

    def inv(v):
        coef = np.asarray(v, dtype=np.float64).reshape(height, width)
        return rows.dct3(cols.dct3(coef, fct).T.copy()).T.ravel()

    return LinearOperator(apply=fwd, apply_transpose=inv)


def gradient_operator(width: int, height: int) -> LinearOperator:
    """Stacked forward differences (horizontal then vertical), replicate boundary.

    Output length is 2*width*height; the last difference along each row and
    column is 0 by the replicate (Neumann) convention.
    """
    width, height = _check_int(width, "gradient width", 2), _check_int(height, "gradient height", 2)
    n = width * height

    def fwd(v):
        img = np.asarray(v, dtype=np.float64).reshape(height, width)
        dh = np.zeros_like(img)
        dv = np.zeros_like(img)
        dh[:, :-1] = img[:, 1:] - img[:, :-1]
        dv[:-1, :] = img[1:, :] - img[:-1, :]
        return np.concatenate([dh.ravel(), dv.ravel()])

    def adj(u):
        u = np.asarray(u, dtype=np.float64).ravel()
        dh = u[:n].reshape(height, width)
        dv = u[n:].reshape(height, width)
        out = np.zeros((height, width))
        # adjoint of dh[:, :-1] = img[:, 1:] - img[:, :-1]
        out[:, :-1] -= dh[:, :-1]
        out[:, 1:] += dh[:, :-1]
        # adjoint of dv[:-1, :] = img[1:, :] - img[:-1, :]
        out[:-1, :] -= dv[:-1, :]
        out[1:, :] += dv[:-1, :]
        return out.ravel()

    return LinearOperator(apply=fwd, apply_transpose=adj)


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Shrink magnitudes by tau and zero everything within [-tau, tau].

    This is the proximal operator of tau * l1.  tau must be a finite real
    >= 0: a nan tau would make every output NaN.
    """
    _check_real(tau, "threshold")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
