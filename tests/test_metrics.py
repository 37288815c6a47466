import warnings

import numpy as np
import pytest

from spi_recon.errors import InvalidArgumentError
from spi_recon.metrics import normalized_rmse
from spi_recon.model import Image


def img(values, w, h):
    return Image(w, h, np.asarray(values, dtype=float))


def test_identical_images_zero():
    a = img(np.linspace(0.1, 1.0, 16), 4, 4)
    assert normalized_rmse(a, a) == 0.0


def test_forced_arithmetic():
    truth = img([2, 2, 2, 2], 2, 2)
    est = img([1, 1, 1, 1], 2, 2)
    assert normalized_rmse(truth, est) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_zero_mean_truth_rejected():
    truth = img([1.0, -1.0], 2, 1)
    est = img([0.0, 0.0], 2, 1)
    with pytest.raises(InvalidArgumentError):
        normalized_rmse(truth, est)


@pytest.mark.parametrize("values", [[-0.5, 0.1], [-1.0, -1.0]])
def test_a_truth_of_negative_mean_is_refused(values):
    """sqrt(mse / mean) was nan, with a RuntimeWarning, for a negative mean."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="not > 0"):
            normalized_rmse(img(values, 2, 1), img([0.0, 0.0], 2, 1))


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        normalized_rmse(img([1, 1], 2, 1), img([1, 1, 1], 3, 1))


def test_not_symmetric():
    truth = img([4.0, 4.0], 2, 1)
    est = img([1.0, 1.0], 2, 1)
    assert normalized_rmse(truth, est) != pytest.approx(normalized_rmse(est, truth))


def test_constant_offset_closed_form():
    rng = np.random.default_rng(0)
    base = rng.random(16) + 0.5
    truth = img(base, 4, 4)
    for delta in (0.1, 0.5, 2.0):
        est = img(base + delta, 4, 4)
        expected = np.sqrt(delta**2 / base.mean())
        assert normalized_rmse(truth, est) == pytest.approx(expected, rel=1e-12)

