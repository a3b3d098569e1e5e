import numpy as np
import pytest

from worldlineqm.errors import ContractViolation, DegeneratePathError
from worldlineqm.paths import DiscretePath, action, action_restrict


def random_path(rng, n_segments=8, dim=2, mode="minkowski"):
    lam = np.sort(rng.uniform(0.0, 1.0, size=n_segments + 1))
    while np.any(np.diff(lam) <= 1e-6):
        lam = np.sort(rng.uniform(0.0, 1.0, size=n_segments + 1))
    points = rng.normal(size=(n_segments + 1, dim))
    return DiscretePath(lam, points, mode)


def test_stationary_path_action():
    # all points equal, T = 1, m = 1 -> -1
    lam = np.linspace(0.0, 1.0, 5)
    points = np.tile([0.3, -0.7], (5, 1))
    path = DiscretePath(lam, points, "minkowski")
    assert action(path, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_straight_euclidean_path():
    # dq = (0, 2) over T = 1, m = 1: (1/4)*4 - 1 = 0
    lam = np.array([0.0, 1.0])
    points = np.array([[0.0, 0.0], [0.0, 2.0]])
    path = DiscretePath(lam, points, "euclidean")
    assert action(path, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_action_against_per_segment_oracle():
    # independent re-summation with scalar arithmetic, reversed order
    rng = np.random.default_rng(5)
    path = random_path(rng)
    expected = 0.0
    for j in reversed(range(1, path.lam.size)):
        dlam = path.lam[j] - path.lam[j - 1]
        dq = path.points[j] - path.points[j - 1]
        qdot = dq / dlam
        sq = -qdot[0] ** 2 + np.sum(qdot[1:] ** 2)
        expected += dlam * (0.25 * sq - 1.0)
    assert action(path, 1.0) == pytest.approx(expected, rel=1e-13)


def test_additivity_full_range_and_split():
    rng = np.random.default_rng(9)
    for _ in range(25):
        path = random_path(rng)
        whole = action(path, 1.0)
        assert action_restrict(path, 0, path.n_segments, 1.0) == pytest.approx(whole, abs=1e-14)
        k = rng.integers(1, path.n_segments)
        parts = action_restrict(path, 0, k, 1.0) + action_restrict(path, k, path.n_segments, 1.0)
        assert parts == pytest.approx(whole, abs=1e-12)


def test_three_way_split():
    rng = np.random.default_rng(11)
    path = random_path(rng, n_segments=9)
    total = (action_restrict(path, 0, 3, 1.0)
             + action_restrict(path, 3, 6, 1.0)
             + action_restrict(path, 6, 9, 1.0))
    assert total == pytest.approx(action(path, 1.0), abs=1e-12)


def test_locality_of_point_perturbation():
    # moving q_k changes only the two adjacent segments
    rng = np.random.default_rng(13)
    path = random_path(rng, n_segments=10)
    k = 4
    moved = path.points.copy()
    moved[k] += rng.normal(size=2) * 0.1
    perturbed = DiscretePath(path.lam, moved, path.mode)
    global_diff = action(perturbed, 1.0) - action(path, 1.0)
    local_diff = (action_restrict(perturbed, k - 1, k + 1, 1.0)
                  - action_restrict(path, k - 1, k + 1, 1.0))
    assert global_diff == pytest.approx(local_diff, abs=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(19)
    for _ in range(25):
        path = random_path(rng)
        shift = rng.normal(size=2)
        assert action(path.translated(shift), 1.0) == pytest.approx(
            action(path, 1.0), abs=1e-12)


def test_restrict_rejects_empty_range():
    rng = np.random.default_rng(23)
    path = random_path(rng)
    with pytest.raises(ContractViolation):
        action_restrict(path, 3, 3, 1.0)
    with pytest.raises(ContractViolation):
        action_restrict(path, 5, 2, 1.0)


def test_degenerate_segment_rejected():
    lam = np.array([0.0, 0.5, 0.5, 1.0])
    points = np.zeros((4, 2))
    with pytest.raises(DegeneratePathError):
        DiscretePath(lam, points, "minkowski")
