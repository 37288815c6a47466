"""How reconstruction quality depends on the sampling ratio m/n, then on measurement noise.

Each table is one SweepSpec walked by run_sweep.  Clean ratios run from 0.2 to 3.0: the
compressive-sensing solvers stay usable well below ratio 1 while the others need m >= n.
At ratio 1, Gaussian noise of standard deviation level * pixel_count is the same draw at
every level, scaled.  A cell is the mean rmse of its pair's ok rows, "--" if none.
"""

from collections import defaultdict

import numpy as np

from spi_recon.bench import SweepSpec, run_sweep

RATIO_GRID = SweepSpec(scenes=["blocks"], solvers=["dgi", "cgd", "cs-dct", "cs-tv"],
                       sampling_ratios=[0.2, 0.5, 1.0, 2.0, 3.0], image_sizes=[(32, 32)],
                       noise_levels=[0.0], repeats=3, base_seed=11)
NOISE_GRID = SweepSpec(scenes=["blocks"], solvers=["corr", "dgi", "cgd", "cs-dct", "cs-tv"],
                       sampling_ratios=[1.0], image_sizes=[(32, 32)],
                       noise_levels=[0.0, 1e-4, 5e-4, 1e-3], repeats=3, base_seed=23)


def print_table(spec, axis, label, fmt, condition):
    """One row per value of the SweepRow field axis, in grid order, one cell per solver."""
    rows = run_sweep(spec)
    rmse = defaultdict(list)
    for row in rows:
        if row.status == "ok":
            rmse[getattr(row, axis), row.solver].append(row.rmse)
    (width, height), = spec.image_sizes
    print(f"scene={spec.scenes[0]} size={width}x{height} {condition}, mean rmse over "
          f"{spec.repeats} seeds")
    print(f"{label} " + "".join(f"{s:>9s}" for s in spec.solvers))
    for value in dict.fromkeys(getattr(row, axis) for row in rows):
        cells = (f"{np.mean(v):9.4f}" if (v := rmse[value, s]) else f"{'--':>9s}"
                 for s in spec.solvers)
        print(f"{value:{fmt}} " + "".join(cells))


def main():
    print_table(RATIO_GRID, "ratio", "ratio", "5.1f", "clean")
    print_table(NOISE_GRID, "noise_level", "noise", "5.0e", "ratio=1.0")


if __name__ == "__main__":
    main()
