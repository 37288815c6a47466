"""Reconstruction quality metrics."""

import numpy as np

from .errors import InvalidArgumentError
from .model import Image

__all__ = ["normalized_rmse"]


def normalized_rmse(truth: Image, estimate: Image) -> float:
    """Normalized root-mean-square error between ground truth and estimate.

    Computed as sqrt(mean((I1 - I2)^2) / mean(I1)) with I1 the ground
    truth.  Note the denominator is the plain mean of I1, not the mean of
    its squares, so it is defined only for a truth of positive mean.  Not
    symmetric: always pass the ground truth first.
    """
    if truth.width != estimate.width or truth.height != estimate.height:
        raise InvalidArgumentError("image dimensions differ")
    norm = float(np.mean(truth.data))
    if not norm > 0.0:
        raise InvalidArgumentError(f"ground-truth mean is {norm:g}, not > 0; metric undefined")
    mse = float(np.mean((truth.data - estimate.data) ** 2))
    return float(np.sqrt(mse / norm))
