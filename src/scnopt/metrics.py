"""Front-quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["hypervolume_2d"]


def hypervolume_2d(front: Sequence[Sequence[float]] | np.ndarray, ref_point: Sequence[float]) -> float:
    """Hypervolume (area) dominated by a bi-objective minimization front.

    Computed by a single sweep over the points sorted by the first objective:
    each point that improves the running-best second objective contributes the
    rectangle between itself, the previous best, and the reference point.
    Dominated and duplicate points therefore contribute nothing.

    Args:
        front: iterable of ``(f1, f2)`` points, may be empty.
        ref_point: reference corner; every point must weakly dominate it.

    Returns:
        The dominated area, ``0.0`` for an empty front.
    """
    points = np.asarray(front, dtype=float)
    if points.size == 0:
        return 0.0
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("front must be an (n, 2) array of objective points")
    ref = np.asarray(ref_point, dtype=float)
    if ref.shape != (2,):
        raise ValueError("ref_point must have exactly two components")
    if not np.all(np.isfinite(points)) or not np.all(np.isfinite(ref)):
        raise ValueError("front and ref_point must be finite")
    if np.any(points > ref):
        raise ValueError("every front point must weakly dominate the reference point")

    f1, f2 = points[np.lexsort((points[:, 1], points[:, 0]))].T
    best_before = np.minimum.accumulate(np.concatenate(([ref[1]], f2[:-1])))
    improves = f2 < best_before
    if not improves.any():
        return 0.0
    # cumsum adds the rectangles one by one in sweep order, as the sweep does.
    return float(np.cumsum((ref[0] - f1[improves]) * (best_before[improves] - f2[improves]))[-1])
