"""Front-quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .nsga2 import _nondominated, _undominated_area

__all__ = ["hypervolume_2d"]


def hypervolume_2d(front: Sequence[Sequence[float]] | np.ndarray, ref_point: Sequence[float]) -> float:
    """Hypervolume (area) dominated by a bi-objective minimization front.

    The box from the front's best point to ``ref_point``, minus the part of its
    staircase's own box it leaves undominated (``nsga2._undominated_area``, as
    ``report.json`` takes it); dominated and duplicate points add nothing.

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
    if len(points) == 0:
        return 0.0
    stairs = points[_nondominated(points)]
    return float((ref[0] - stairs[0, 0]) * (ref[1] - stairs[-1, 1]) - _undominated_area(stairs))
