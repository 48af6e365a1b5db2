"""Geometry on the probability simplex.

Points, Dirichlet parameters and the regular lattice grid.  The lattice is
clamped away from the boundary, so a log density is finite at every point;
grid sums are ratios of two sums over one lattice, so no measure convention
or normalising constant enters them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

GRID_MAX_K = 6

_SUM_TOL = 1e-12
_MAX_GRID_POINTS = 30_000_000


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A chance vector on the k-simplex: nonnegative coordinates summing to 1.

    Also used for hyperparameter vectors t, in which case interior points
    (all coordinates strictly positive) are required by the consumer.
    """

    coords: np.ndarray

    def __init__(self, coords) -> None:
        arr = np.array(coords, dtype=float)  # a copy: the caller may change its own
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a simplex point needs k >= 2 coordinates")
        if not (arr.min() >= 0.0 and arr.max() < math.inf):  # NaN fails both
            raise ValueError(f"coordinates must be finite and >= 0, got {arr.tolist()}")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"coordinates must sum to 1 within {_SUM_TOL}, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def k(self) -> int:
        return self.coords.size

    @property
    def is_interior(self) -> bool:
        return bool(self.coords.min() > 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexPoint) and np.array_equal(self.coords, other.coords)


@dataclass(frozen=True)
class DirichletParams:
    """Parameters (s, t) of a Dirichlet density with strength s and mean t.

    t must lie in the open simplex: boundary values of t are treated as
    limits everywhere in this package, never as members, and every s t_h
    must be a normal float (`normal_alpha`).
    """

    s: float
    t: SimplexPoint

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise ValueError(f"prior strength s must be positive, got {self.s}")
        if not self.t.is_interior:
            raise ValueError("t must lie in the open simplex (all coordinates > 0)")
        normal_alpha(self.alpha)

    @property
    def k(self) -> int:
        return self.t.k

    @property
    def alpha(self) -> np.ndarray:
        """Conventional Dirichlet parameter vector s*t."""
        return self.s * self.t.coords


def normal_alpha(alpha: np.ndarray) -> np.ndarray:
    """`alpha` itself, once every s t_h in it is a normal float: a prior's ladders and Beta
    prefactors take the log or lgamma of each, which an underflow or lost digits spoil."""
    if alpha.min() < sys.float_info.min:
        raise ValueError(
            f"every s x t_h must be at least {sys.float_info.min!r}, the smallest normal "
            f"float; got {float(alpha.min())!r}"
        )
    return alpha


def lattice_size(k: int, resolution: int) -> int:
    """Points of the resolution-m lattice on the k-simplex; ValueError past the grid cap."""
    count = math.comb(resolution + k - 1, k - 1)
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"grid would hold {count} points; refusing")
    return count


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` >= 2 summing to `total`."""
    if parts == 2:
        first = np.arange(total + 1, dtype=np.int64)
        return np.column_stack([first, total - first])
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        blocks.append(np.column_stack([np.full(len(rest), first, dtype=np.int64), rest]))
    return np.vstack(blocks)


@dataclass(frozen=True)
class SimplexGrid:
    """Regular lattice grid on the k-simplex: points (i_1/m, ..., i_k/m), clamped.

    The point count is binomial(m+k-1, k-1).  Each point p is replaced by
    (1 - k*eps)*p + eps, which keeps the coordinate sum at 1 exactly while
    bounding every coordinate below by eps, so a density with negative
    exponents is never evaluated at a boundary point.
    """

    boundary_policy: ClassVar[str] = "clamp-to-epsilon"
    eps_clamp: ClassVar[float] = 1e-9

    k: int
    resolution: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 2 <= self.k <= GRID_MAX_K:
            raise ValueError(f"grid dimension k must be in [2, {GRID_MAX_K}], got {self.k}")
        if self.resolution < 1:
            raise ValueError("grid resolution must be a positive integer")
        lattice_size(self.k, self.resolution)
        pts = _compositions(self.resolution, self.k).astype(float) / self.resolution
        pts = pts * (1.0 - self.k * self.eps_clamp) + self.eps_clamp
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def point_count(self) -> int:
        return self.points.shape[0]
