"""Sparsifying operators: orthonormal 2D DCT, discrete gradient, soft threshold.

The DCT is scipy's (``scipy.fft.dctn``/``idctn``, type II, orthonormal).
It is the library's only use of scipy, so ``dct_operator`` imports
``scipy.fft`` when it is first called: importing ``spi_recon`` loads
numpy's core and nothing of scipy, and only the cs-dct solver pays for
scipy's import, once per process.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "LinearOperator",
    "dct_operator",
    "gradient_operator",
    "soft_threshold",
]


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free linear map with explicit adjoint.

    Satisfies <apply(u), v> == <u, apply_transpose(v)>.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int


def dct_operator(width: int, height: int) -> LinearOperator:
    """Orthonormal separable 2D DCT-II on row-major image vectors.

    apply_transpose is the exact inverse (the basis is orthonormal).
    """
    import scipy.fft

    if width < 1 or height < 1:
        raise InvalidArgumentError("dct dimensions must be positive")
    n = width * height

    def fwd(v):
        img = np.asarray(v, dtype=np.float64).reshape(height, width)
        return scipy.fft.dctn(img, type=2, norm="ortho").ravel()

    def inv(v):
        coef = np.asarray(v, dtype=np.float64).reshape(height, width)
        return scipy.fft.idctn(coef, type=2, norm="ortho").ravel()

    return LinearOperator(apply=fwd, apply_transpose=inv, in_dim=n, out_dim=n)


def gradient_operator(width: int, height: int) -> LinearOperator:
    """Stacked forward differences (horizontal then vertical), replicate boundary.

    Output length is 2*width*height; the last difference along each row and
    column is 0 by the replicate (Neumann) convention.
    """
    if width < 2 or height < 2:
        raise InvalidArgumentError("gradient needs at least 2 pixels per axis")
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

    return LinearOperator(apply=fwd, apply_transpose=adj, in_dim=n, out_dim=2 * n)


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Shrink magnitudes by tau and zero everything within [-tau, tau].

    This is the proximal operator of tau * l1.
    """
    if tau < 0:
        raise InvalidArgumentError("threshold must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
