import numpy as np
import pytest

from worldlineqm.errors import ContractViolation
from worldlineqm.geometry import FourVector, ParticleType, metric, minkowski_dot


def test_signature_time_axis():
    a = FourVector((1.0, 0.0))
    assert minkowski_dot(a, a) == -1.0


def test_signature_space_axis():
    a = FourVector((0.0, 1.0))
    assert minkowski_dot(a, a) == 1.0


def test_mixed_vector():
    a = FourVector((3.0, 4.0))
    assert minkowski_dot(a, a) == 7.0  # -9 + 16


def test_euclidean_dot_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=4)
        assert float(np.sum(v * v * metric(4, "euclidean"))) >= 0.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ContractViolation):
        minkowski_dot(FourVector((1.0, 0.0)), FourVector((1.0, 0.0, 0.0, 0.0)))


def test_vector_arithmetic():
    a = FourVector((1.0, 2.0))
    b = FourVector((0.5, -1.0))
    assert (a - b).components == (0.5, 3.0)


def test_particle_type_rejects_tachyons():
    with pytest.raises(ContractViolation):
        ParticleType("bad", mass=-1.0)
    with pytest.raises(ContractViolation):
        ParticleType("bad", mass=0.0)
    assert ParticleType("A", 1.0).conjugate == "plain"
