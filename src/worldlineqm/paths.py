"""Discretized spacetime paths, parametrizations, and the path action.

A path is sampled at strictly increasing parameter values lam_0 < ... < lam_N
with spacetime points q_j.  The action of a path of mass m is

    S = sum_j dlam_j * ( (1/4) qdot_j.qdot_j - m^2 ),

with backward-difference velocities qdot_j = (q_j - q_{j-1}) / dlam_j and the
squared velocity taken with the signed (minkowski) or positive (euclidean)
inner product.  In minkowski mode exp(i S) is the unit-modulus amplitude of
the path; euclidean mode is the Wick-rotated weight used by Monte Carlo,
where exp(-S_E) with S_E = sum_j dlam_j ((1/4) qdot_E^2 + m^2) = -S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegeneratePathError, LapsePositivityError

KINETIC_COEFF = 0.25  # the conventional choice for the qdot^2 coefficient


@dataclass(frozen=True)
class Parametrization:
    """Monotone parameter grid lam(s_j) over the fiducial grid s_j = j/M."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ContractViolation("parametrization needs at least two samples")
        if not np.all(np.diff(lam) > 0):
            raise LapsePositivityError("lambda values must be strictly increasing")
        object.__setattr__(self, "lam", lam)

    @property
    def sample_count(self) -> int:
        return self.lam.size - 1

    @property
    def lapse(self) -> np.ndarray:
        """w_j = (lam_j - lam_{j-1}) / (s_j - s_{j-1}) on the uniform fiducial grid."""
        m = self.sample_count
        return np.diff(self.lam) * m

    @property
    def total_length(self) -> float:
        """Intrinsic length T = lam(1) - lam(0)."""
        return float(self.lam[-1] - self.lam[0])

    @classmethod
    def uniform(cls, total_length: float, segments: int, start: float = 0.0) -> "Parametrization":
        return cls(start + np.linspace(0.0, total_length, segments + 1))

    @classmethod
    def geometric(cls, total_length: float, segments: int, ratio: float = 1.5,
                  start: float = 0.0) -> "Parametrization":
        """Segment lengths in geometric progression, same total length."""
        if ratio <= 0:
            raise ContractViolation("ratio must be positive")
        w = ratio ** np.arange(segments)
        w = w / w.sum() * total_length
        return cls(start + np.concatenate(([0.0], np.cumsum(w))))


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
        if self.mode not in ("minkowski", "euclidean"):
            raise ContractViolation(f"unknown mode {self.mode!r}")
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
    sq = np.sum(qdot * qdot, axis=1)
    if path.mode == "minkowski":
        sq = sq - 2.0 * qdot[:, 0] * qdot[:, 0]
    return dlam * (KINETIC_COEFF * sq - mass * mass)


def action(path: DiscretePath, mass: float) -> float:
    """Total path action sum_j dlam_j ((1/4) qdot_j^2 - m^2)."""
    return float(np.sum(_segment_terms(path, mass, 0, path.n_segments)))


def action_restrict(path: DiscretePath, j_lo: int, j_hi: int, mass: float) -> float:
    """Action of the sub-path between sample indices j_lo and j_hi."""
    if not (0 <= j_lo < j_hi <= path.n_segments):
        raise ContractViolation(f"invalid restriction range [{j_lo}, {j_hi}]")
    return float(np.sum(_segment_terms(path, mass, j_lo, j_hi)))


def path_amplitude(path: DiscretePath, mass: float) -> complex:
    """exp(i S) for a minkowski-mode path; unit modulus for any real path."""
    if path.mode != "minkowski":
        raise ContractViolation("path_amplitude is defined for minkowski mode")
    return complex(np.exp(1j * action(path, mass)))


def reparametrize(path: DiscretePath, param: Parametrization) -> DiscretePath:
    """Replace the parameter grid, keeping the geometric samples q_j fixed.

    The parametrization must supply one lambda value per existing sample.
    Passing a grid with a different total length rescales the intrinsic
    length of the path accordingly.
    """
    if param.sample_count != path.n_segments:
        raise ContractViolation(
            f"parametrization has {param.sample_count} segments, path has {path.n_segments}"
        )
    return DiscretePath(param.lam.copy(), path.points, path.mode)
