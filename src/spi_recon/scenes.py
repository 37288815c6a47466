"""Builtin synthetic test scenes.

Stand-ins for the usual grayscale test photographs: every scene renders
at any requested size with values in [0, 1], deterministically.
"""

import numpy as np

from .errors import InvalidArgumentError
from .model import Image, _check_int

__all__ = ["builtin_scene", "BUILTIN_SCENES"]


def _blocks(w, h):
    """Piecewise-constant rectangles on a gray background."""
    img = np.full((h, w), 0.2)
    img[h // 8 : h // 2, w // 8 : w // 2] = 0.9
    img[h // 2 : 7 * h // 8, w // 2 : 3 * w // 4] = 0.55
    img[h // 6 : h // 3, 5 * w // 8 : 7 * w // 8] = 0.75
    return img


def _bars(w, h):
    """Vertical bars of stepped intensity (piecewise constant)."""
    img = np.zeros((h, w))
    levels = [0.1, 0.9, 0.3, 0.7, 0.5]
    k = len(levels)
    for i, lv in enumerate(levels):
        img[:, i * w // k : (i + 1) * w // k] = lv
    return img


def _disk(w, h):
    """Bright disk on a dark background with a dimmer inner disk."""
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    r2 = ((yy - cy) / h) ** 2 + ((xx - cx) / w) ** 2
    img = np.where(r2 < 0.12, 0.85, 0.15)
    img = np.where(r2 < 0.03, 0.45, img)
    return img.astype(np.float64)


def _smooth(w, h):
    """Smooth 2D raised-cosine bump (non-sparse in the gradient domain)."""
    y = np.linspace(0, np.pi, h)
    x = np.linspace(0, np.pi, w)
    img = 0.1 + 0.8 * np.outer(np.sin(y), np.sin(x))
    return img


BUILTIN_SCENES = {
    "blocks": _blocks,
    "bars": _bars,
    "disk": _disk,
    "smooth": _smooth,
}


def builtin_scene(name: str, width: int, height: int) -> Image:
    """Render a named builtin scene at the requested size."""
    try:
        fn = BUILTIN_SCENES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown scene {name!r}; builtins: {sorted(BUILTIN_SCENES)}"
        ) from None
    return Image.from_array(fn(_check_int(width, "scene width", 2),
                               _check_int(height, "scene height", 2)))
