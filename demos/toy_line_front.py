"""Evolve the one-gene toy whose entire genotype space is the Pareto front.

Every genotype x in [0, 1] evaluates to (x, 1 - x), so the true front is the
line f1 + f2 = 1.  A correct multi-objective engine should spread its archive
evenly along that line: converging is trivial here, *staying spread out* is
the part worth watching (that is the crowding mechanism doing its job).

Run:  python demos/toy_line_front.py
"""

import numpy as np

from scnopt import EngineConfig, evolve


class LineProblem:
    genotype_length = 1

    def evaluate(self, genotype):
        x = float(genotype[0])
        return np.array([x, 1.0 - x]), 0.0


config = EngineConfig(population_size=20, generations=50, seed=42)
result = evolve(LineProblem(), config)

points = result.archive.objectives_array()  # ascending in f1: the archive keeps its members sorted
xs = points[:, 0]

print(f"archive size after {config.generations} generations: {len(points)}")
print(f"max |f1 + f2 - 1| over the archive: {np.abs(points.sum(axis=1) - 1).max():.2e}")

gaps = np.diff(np.concatenate([[0.0], xs, [1.0]]))
print(f"largest uncovered stretch of [0, 1]: {gaps.max():.3f}")
print()

# a terminal sketch of the front, subsampled to ~25 evenly spaced points
print("f1       f2       front")
step = max(1, len(points) // 25)
for f1, f2 in points[::step]:
    bar = "#" * int(round(40 * f2))
    print(f"{f1:.4f}   {f2:.4f}   {bar}")

print()
print("evaluations spent:", result.history[-1].evaluations)
