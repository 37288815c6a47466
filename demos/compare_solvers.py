"""Reconstruct one scene with every registered solver and compare quality.

SOLVER_GRID is one run_sweep cell per solver (blocks, 32x32, ratio 1, clean, base seed 7), so a
row is run_cell's.  It prints normalized RMSE, iterations and the solver's own wall_time (no
pattern generation or synthesis), or the "failed:" status of a solver that fails.
"""

from spi_recon.bench import SweepSpec, run_sweep
from spi_recon.solvers import solver_registry

SOLVER_GRID = SweepSpec(["blocks"], [name for name, _ in solver_registry()], [1.0], [(32, 32)],
                        [0.0], repeats=1, base_seed=7)


def main():
    (width, height), = SOLVER_GRID.image_sizes
    print(f"scene={SOLVER_GRID.scenes[0]} size={width}x{height} "
          f"ratio={SOLVER_GRID.sampling_ratios[0]} clean")
    print(f"{'solver':8s} {'rmse':>10s} {'iters':>6s} {'time':>7s}")
    for row in run_sweep(SOLVER_GRID):
        result = (f"{row.rmse:10.4f} {row.iterations:6d} {row.wall_time_s:6.2f}s"
                  if row.status == "ok" else row.status)
        print(f"{row.solver:8s} {result}")


if __name__ == "__main__":
    main()
