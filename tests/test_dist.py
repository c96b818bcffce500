import numpy as np
import pytest

from statcomplex import (
    DegenerateInputError,
    DimensionError,
    DiscreteDistribution,
    FamilyError,
    FamilyPoint,
    RangeError,
    normalize,
    spike_family,
    uniform,
)


def test_uniform_basic():
    u = uniform(4)
    assert np.allclose(u.probs, 0.25)
    assert u.n == 4
    assert np.allclose(uniform(2).probs, [0.5, 0.5])


def test_uniform_needs_two_states():
    with pytest.raises(DimensionError):
        uniform(1)


def test_distribution_validation():
    with pytest.raises(DimensionError):
        DiscreteDistribution(np.array([1.0]))
    with pytest.raises(DimensionError):
        DiscreteDistribution(np.eye(2))
    with pytest.raises(RangeError):
        DiscreteDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(RangeError):
        DiscreteDistribution(np.array([0.6, 0.6]))  # sums to 1.2
    with pytest.raises(RangeError):
        DiscreteDistribution(np.array([np.nan, 1.0]))
    # sum tolerance is 1e-9
    DiscreteDistribution(np.array([0.5, 0.5 + 5e-10]))
    with pytest.raises(RangeError):
        DiscreteDistribution(np.array([0.5, 0.5 + 5e-9]))


def test_distribution_is_immutable():
    d = uniform(3)
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_spike_family_formula():
    p = spike_family(FamilyPoint(n=4, k=3, p_max=0.7))
    assert np.allclose(p.probs, [0.1, 0.1, 0.1, 0.7], atol=1e-15)


def test_spike_family_uniform_point():
    # p_max = (n-k)/n puts every entry at 1/n
    p = spike_family(FamilyPoint(n=4, k=3, p_max=0.25))
    assert np.max(np.abs(p.probs - 0.25)) < 1e-12


def test_spike_family_three_state_optimum():
    p = spike_family(FamilyPoint(n=3, k=2, p_max=0.8315))
    assert np.allclose(p.probs, [0.08425, 0.08425, 0.8315], atol=1e-12)


def test_spike_family_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 2049))
        k = int(rng.integers(1, n))
        p_max = float(rng.random())
        d = spike_family(FamilyPoint(n=n, k=k, p_max=p_max))
        assert abs(d.probs.sum() - 1.0) < 1e-12


def test_family_point_validation():
    with pytest.raises(FamilyError):
        FamilyPoint(n=8, p_max=0.5)  # neither omega nor k
    with pytest.raises(FamilyError):
        FamilyPoint(n=8, p_max=0.5, omega=0.5, k=4)  # both
    with pytest.raises(FamilyError):
        FamilyPoint(n=8, p_max=0.5, k=0)
    with pytest.raises(FamilyError):
        FamilyPoint(n=8, p_max=0.5, k=8)
    with pytest.raises(FamilyError):
        FamilyPoint(n=8, p_max=0.5, omega=1.0)
    with pytest.raises(RangeError):
        FamilyPoint(n=8, p_max=1.5, k=4)
    with pytest.raises(DimensionError):
        FamilyPoint(n=1, p_max=0.5, k=1)


def test_family_point_modes():
    pt = FamilyPoint(n=8, p_max=0.5, k=6)
    assert pt.mode == "integer"
    assert pt.omega_value == 0.75
    pt = FamilyPoint(n=8, p_max=0.5, omega=0.33)
    assert pt.mode == "continuous"
    assert pt.omega_value == 0.33
    with pytest.raises(FamilyError):
        spike_family(pt)  # continuous points are not realizable


def test_normalize():
    assert np.allclose(normalize([2, 2]).probs, [0.5, 0.5])
    assert np.allclose(normalize([0, 0, 5]).probs, [0, 0, 1])
    with pytest.raises(DegenerateInputError):
        normalize([0.0, 0.0])
    with pytest.raises(RangeError):
        normalize([1.0, -1.0])
    with pytest.raises(RangeError):
        normalize([1.0, np.inf])


def test_normalize_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.random(int(rng.integers(2, 64))) * 10.0
        once = normalize(w).probs
        twice = normalize(once).probs
        assert np.max(np.abs(once - twice)) < 1e-12
