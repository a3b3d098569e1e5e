"""Discretized spacetime paths and the path action.

A path is sampled at strictly increasing parameter values lam_0 < ... < lam_N
with spacetime points q_j.  The action of a path of mass m is

    S = sum_j dlam_j * ( (1/4) qdot_j.qdot_j - m^2 ),

with backward-difference velocities qdot_j = (q_j - q_{j-1}) / dlam_j and the
squared velocity qdot.qdot = sum_mu g_mu qdot_mu^2 taken with the metric g of
the path's mode (geometry.metric).  In minkowski mode exp(i S) is the
unit-modulus amplitude of the path; in euclidean mode S = -S_E, the
Wick-rotated action S_E = sum_j dlam_j ((1/4) qdot_E^2 + m^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegeneratePathError
from .geometry import metric

KINETIC_COEFF = 0.25  # the conventional choice for the qdot^2 coefficient


@dataclass(frozen=True)
class DiscretePath:
    """N-segment path: parameter grid lam (N+1,), points (N+1, D)."""

    lam: np.ndarray
    points: np.ndarray
    mode: str = "minkowski"  # "minkowski" | "euclidean"

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise DegeneratePathError("path needs at least one segment")
        if pts.ndim != 2 or pts.shape[0] != lam.size:
            raise ContractViolation("points must be (N+1, D) matching the lambda grid")
        if not np.all(np.diff(lam) > 0):
            raise DegeneratePathError("lambda grid must be strictly increasing")
        metric(pts.shape[1], self.mode)  # checks the dimension and the mode
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "points", pts)

    @property
    def n_segments(self) -> int:
        return self.lam.size - 1

    @property
    def total_length(self) -> float:
        return float(self.lam[-1] - self.lam[0])

    def translated(self, shift) -> "DiscretePath":
        shift = np.asarray(shift, dtype=float)
        return DiscretePath(self.lam, self.points + shift, self.mode)


def _segment_terms(path: DiscretePath, mass: float, j_lo: int, j_hi: int) -> np.ndarray:
    dlam = np.diff(path.lam[j_lo:j_hi + 1])
    dq = np.diff(path.points[j_lo:j_hi + 1], axis=0)
    qdot = dq / dlam[:, None]
    sq = (qdot * qdot) @ metric(qdot.shape[1], path.mode)
    return dlam * (KINETIC_COEFF * sq - mass * mass)


def action(path: DiscretePath, mass: float) -> float:
    """Total path action sum_j dlam_j ((1/4) qdot_j^2 - m^2)."""
    return float(np.sum(_segment_terms(path, mass, 0, path.n_segments)))


def action_restrict(path: DiscretePath, j_lo: int, j_hi: int, mass: float) -> float:
    """Action of the sub-path between sample indices j_lo and j_hi."""
    if not (0 <= j_lo < j_hi <= path.n_segments):
        raise ContractViolation(f"invalid restriction range [{j_lo}, {j_hi}]")
    return float(np.sum(_segment_terms(path, mass, j_lo, j_hi)))
