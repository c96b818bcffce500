import math

import numpy as np
import pytest

from scalar_reference import (FDivergenceSpec, SupportError, f_divergence, jsd_generator,
                              tv_generator)
from statcomplex import (DimensionError, RangeError, entropy_normalized, jsd, total_variation,
                         uniform)


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_endpoints():
    assert entropy_normalized(uniform(1024)) == pytest.approx(1.0, abs=1e-12)
    assert entropy_normalized([0.0, 0.0, 1.0, 0.0]) == 0.0


def test_entropy_two_equal_atoms():
    # two equal atoms out of four: H = log 2 / log 4 regardless of base
    assert entropy_normalized([0.5, 0.5, 0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_entropy_range_and_permutation():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = random_simplex(rng, int(rng.integers(2, 65)))
        h = entropy_normalized(p)
        assert 0.0 <= h <= 1.0
        assert entropy_normalized(rng.permutation(p)) == pytest.approx(h, abs=1e-12)


# ---------------------------------------------------------------------------
# distances to reference
# ---------------------------------------------------------------------------

def test_total_variation_examples():
    assert total_variation([0.25, 0.75], [0.25, 0.75]) == 0.0
    assert total_variation([0, 0, 0, 1.0], uniform(4)) == pytest.approx(0.75, abs=1e-15)
    assert total_variation([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)


def test_total_variation_symmetry_and_triangle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 33))
        p, q, r = (random_simplex(rng, n) for _ in range(3))
        assert total_variation(p, q) == pytest.approx(total_variation(q, p), abs=1e-12)
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


def test_dimension_mismatch():
    for fn in (total_variation, jsd):
        with pytest.raises(DimensionError):
            fn([0.5, 0.5], [0.2, 0.3, 0.5])


# ---------------------------------------------------------------------------
# jsd
# ---------------------------------------------------------------------------

def test_jsd_oracles():
    # direct-summation oracles, frozen
    assert jsd([1.0, 0.0], uniform(2)) == pytest.approx(0.3112781244591328, abs=1e-12)
    assert jsd([0.0, 0.5, 0.5], uniform(3)) == pytest.approx(0.1908745046211098, abs=1e-12)


def test_jsd_identity_symmetry_units():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        p, q = random_simplex(rng, n), random_simplex(rng, n)
        assert jsd(p, p) == 0.0
        b = jsd(p, q)
        assert b == pytest.approx(jsd(q, p), abs=1e-12)
        assert jsd(p, q, unit="nats") == pytest.approx(b * math.log(2.0), rel=1e-12)
        assert 0.0 <= b <= 1.0 + 1e-12, "JSD in bits is bounded by 1"


def test_jsd_bad_unit():
    with pytest.raises(RangeError):
        jsd([0.5, 0.5], [0.5, 0.5], unit="hartley")


def test_jsd_below_total_variation_in_nats():
    rng = np.random.default_rng(42)
    for n in (2, 3, 8, 64):
        for _ in range(500):
            p, q = random_simplex(rng, n), random_simplex(rng, n)
            assert jsd(p, q, unit="nats") <= total_variation(p, q) + 1e-12


# ---------------------------------------------------------------------------
# f-divergence machinery
# ---------------------------------------------------------------------------

def test_f_divergence_tv_generator():
    rng = np.random.default_rng(9)
    spec = tv_generator()
    for _ in range(100):
        n = int(rng.integers(2, 33))
        p, q = random_simplex(rng, n), random_simplex(rng, n)
        assert f_divergence(p, q, spec) == pytest.approx(total_variation(p, q), abs=1e-12)


def test_f_divergence_jsd_generator_both_units():
    rng = np.random.default_rng(13)
    for unit in ("bits", "nats"):
        spec = jsd_generator(unit)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            p, q = random_simplex(rng, n), random_simplex(rng, n)
            assert f_divergence(p, q, spec) == pytest.approx(jsd(p, q, unit), abs=1e-10)


def test_f_divergence_zero_at_equal():
    spec = jsd_generator()
    p = uniform(8)
    assert f_divergence(p, p, spec) == pytest.approx(0.0, abs=1e-12)


def test_generator_must_vanish_at_one():
    with pytest.raises(RangeError):
        FDivergenceSpec("bad", lambda x: x)


def test_f_divergence_needs_positive_reference():
    with pytest.raises(SupportError):
        f_divergence([0.5, 0.5], [1.0, 0.0], tv_generator())
