"""Reconstruct one scene with every registered solver and compare quality.

Runs at 32x32 with full sampling (ratio 1) on the "blocks" scene and
prints a small leaderboard: normalized RMSE, iterations and wall time
per solver.  The time column is the solver's own wall_time, which leaves out
pattern generation and measurement synthesis.  Everything is clean (no noise)
so differences come from the algorithms themselves.
"""

from spi_recon.metrics import normalized_rmse
from spi_recon.model import generate_patterns, synthesize
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import solver_registry

SIDE = 32
SEED = 7


def main():
    truth = builtin_scene("blocks", SIDE, SIDE)
    patterns = generate_patterns(SIDE * SIDE, SIDE, SIDE, seed=SEED)
    meas = synthesize(patterns, truth)

    print(f"scene=blocks size={SIDE}x{SIDE} ratio=1.0 clean")
    print(f"{'solver':8s} {'rmse':>10s} {'iters':>6s} {'time':>7s}")
    for name, solver in solver_registry():
        report = solver(patterns, meas, SIDE, SIDE)
        rmse = normalized_rmse(truth, report.image)
        print(f"{name:8s} {rmse:10.4f} {report.iterations:6d} {report.wall_time:6.2f}s")


if __name__ == "__main__":
    main()
