"""Front-quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .nsga2 import _nondominated

__all__ = ["hypervolume_2d"]


def hypervolume_2d(front: Sequence[Sequence[float]] | np.ndarray, ref_point: Sequence[float]) -> float:
    """Hypervolume (area) dominated by a bi-objective minimization front.

    The front's staircase, its distinct non-dominated points in the order
    :class:`scnopt.nsga2.ParetoArchive` keeps them, is summed by one sweep;
    dominated and duplicate points therefore contribute nothing.

    Args:
        front: iterable of ``(f1, f2)`` points, may be empty.
        ref_point: finite reference corner; every point must weakly dominate it.

    Returns:
        The dominated area, ``0.0`` for an empty front.
    """
    points = np.asarray(front, dtype=float)
    points = points.reshape(0, 2) if points.shape == (0,) else points  # [] is an empty front
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("front must be an (n, 2) array of objective points")
    ref = np.asarray(ref_point, dtype=float)
    if ref.shape != (2,):
        raise ValueError("ref_point must have exactly two components")
    if not np.all(np.isfinite(points)) or not np.all(np.isfinite(ref)):
        raise ValueError("front and ref_point must be finite")
    if np.any(points > ref):
        raise ValueError("every front point must weakly dominate the reference point")
    return _staircase_area(points[_nondominated(points)], ref)


def _staircase_area(stairs: np.ndarray, ref: np.ndarray) -> float:
    """Area that ``stairs``, ascending strictly in f1 and descending strictly in
    f2, dominates up to ``ref``.  Each point adds the rectangle between itself,
    the f2 before it (``ref``'s for the first) and ``ref``; cumsum adds them
    one by one in sweep order, as a per-point sweep does."""
    if len(stairs) == 0:
        return 0.0
    f1, f2 = stairs.T
    return float(np.cumsum((ref[0] - f1) * (np.concatenate(([ref[1]], f2[:-1])) - f2))[-1])
