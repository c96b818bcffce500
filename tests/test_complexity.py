import math

import numpy as np
import pytest

from scalar_reference import (f_divergence, family_complexity_direct, jsd_generator,
                              scalar_complexity, scalar_entropy)
from statcomplex import (
    ComplexityKind,
    DimensionError,
    DiscreteDistribution,
    FamilyError,
    FamilyEvaluation,
    FamilyPoint,
    RangeError,
    complexity_value,
    disequilibrium,
    disequilibrium_sq,
    entropy_normalized,
    family_eval,
    family_surface,
    jsd,
    simplex3_surface,
    spike_family,
    uniform,
    write_family_grid_csv,
    write_simplex_grid_csv,
)

KINDS = list(ComplexityKind)


def point_measures(kind):
    """The four point measures, each a function of one distribution, at `kind`."""
    return {"entropy_normalized": entropy_normalized,
            "disequilibrium_sq": disequilibrium_sq,
            "disequilibrium": lambda p: disequilibrium(p, kind),
            "complexity_value": lambda p: complexity_value(p, kind)}


def test_kind_parse():
    assert ComplexityKind.parse("sq") is ComplexityKind.SQ
    assert ComplexityKind.parse(" TV ") is ComplexityKind.TV
    with pytest.raises(RangeError):
        ComplexityKind.parse("euclid")


def test_zero_structure_endpoints():
    # both H=0 (one-hot) and D=0 (uniform) kill the product
    for n in (2, 3, 7, 64):
        one_hot = np.zeros(n)
        one_hot[n // 2] = 1.0
        for kind in KINDS:
            assert complexity_value(uniform(n), kind) == pytest.approx(0.0, abs=1e-12)
            assert complexity_value(one_hot, kind) == pytest.approx(0.0, abs=1e-12)


def test_three_state_table_point():
    assert complexity_value([0.08425, 0.08425, 0.8315], ComplexityKind.SQ) == pytest.approx(
        0.19323943583345649, abs=1e-10)


def test_spike_1024_jsd_value():
    d = spike_family(FamilyPoint(n=1024, k=927, p_max=1.0))
    assert complexity_value(d, ComplexityKind.JSD) == pytest.approx(
        0.5065374921402859, abs=1e-10)


def test_c_tv_expanded_form():
    # H * TV^2 written out as a single expression over the raw vector
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 129))
        p = rng.dirichlet(np.ones(n))
        plogp = np.sum(p[p > 0] * np.log(p[p > 0]))
        expanded = -(1.0 / (4.0 * math.log(n))) * plogp * np.sum(np.abs(p - 1.0 / n)) ** 2
        assert complexity_value(p, ComplexityKind.TV) == pytest.approx(expanded, abs=1e-12)


def test_c_jsd_against_generator_route():
    rng = np.random.default_rng(32)
    spec = jsd_generator("bits")
    for _ in range(100):
        n = int(rng.integers(2, 65))
        p = rng.dirichlet(np.ones(n))
        expected = scalar_entropy(p) * f_divergence(p, uniform(n), spec)
        assert complexity_value(p, ComplexityKind.JSD) == pytest.approx(expected, abs=1e-10)


def test_permutation_invariance():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 33))))
        q = rng.permutation(p)
        for kind in KINDS:
            assert complexity_value(p, kind) == pytest.approx(
                complexity_value(q, kind), abs=1e-12)


def test_value_ranges():
    rng = np.random.default_rng(34)
    for _ in range(200):
        n = int(rng.integers(2, 129))
        p = rng.dirichlet(np.ones(n))
        assert 0.0 <= complexity_value(p, ComplexityKind.SQ) <= 1.0 - 1.0 / n
        assert 0.0 <= complexity_value(p, ComplexityKind.TV) < 1.0
        assert 0.0 <= complexity_value(p, ComplexityKind.JSD) <= 1.0


def test_scalar_reference_validates_each_input_once(monkeypatch):
    calls = []
    original = DiscreteDistribution.__post_init__
    monkeypatch.setattr(DiscreteDistribution, "__post_init__",
                        lambda self: calls.append(self) or original(self))
    rng = np.random.default_rng(3)
    p, q = rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64))
    dist = DiscreteDistribution(p)
    for kind in KINDS:
        for name, measure in point_measures(kind).items():
            for arg, constructions in ((p, 1), (dist, 0)):
                calls.clear()
                measure(arg)
                assert len(calls) == constructions, (name, kind)
    calls.clear()
    jsd(p, q)
    assert len(calls) == 2


def test_disequilibrium_examples():
    assert disequilibrium([0, 0, 0, 1.0], ComplexityKind.SQ) == pytest.approx(0.75, abs=1e-15)
    assert disequilibrium([0.5, 0.5, 0, 0], ComplexityKind.SQ) == pytest.approx(0.25, abs=1e-15)
    assert disequilibrium(uniform(16), ComplexityKind.TV) == 0.0


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_one_hot_gives_no_negative_zero(kind, n):
    one_hot = np.zeros(n)
    one_hot[n // 2] = 1.0
    values = {name: measure(one_hot) for name, measure in point_measures(kind).items()}
    assert values["entropy_normalized"] == 0.0
    assert values["complexity_value"] == 0.0
    for name, value in values.items():
        assert math.copysign(1.0, value) == 1.0, (name, value)


@pytest.mark.parametrize("kind", KINDS)
def test_point_measures_leave_their_input_unchanged(kind):
    p = np.random.default_rng(5).dirichlet(np.ones(16))
    p[3] = 0.0
    p /= p.sum()
    before = p.tobytes()
    dist = DiscreteDistribution(p)
    assert not dist.probs.flags.writeable
    for name, measure in point_measures(kind).items():
        value = measure(p)
        assert p.flags.writeable and p.tobytes() == before, name
        assert measure(dist) == value, name
        assert dist.probs.tobytes() == before, name


# ---------------------------------------------------------------------------
# family closed forms
# ---------------------------------------------------------------------------

def test_family_matches_direct_functional():
    # the closed forms must agree with evaluating the materialized vector
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(3, 513))
        k = int(rng.integers(1, n))
        p_max = float(rng.random())
        point = FamilyPoint(n=n, k=k, p_max=p_max)
        direct = complexity_value(spike_family(point), ComplexityKind.SQ)
        for kind in KINDS:
            ev = family_eval(kind, point)
            assert ev.c == pytest.approx(family_complexity_direct(kind, point), abs=1e-10)
        assert family_eval(ComplexityKind.SQ, point).c == pytest.approx(direct, abs=1e-10)


def test_family_eval_table_rows():
    ev = family_eval(ComplexityKind.TV, FamilyPoint(n=1024, omega=0.9022, p_max=0.9997))
    assert ev.c == pytest.approx(0.5410, abs=5e-4)
    # SQ near its omega band edge is steep in omega, so evaluate at the
    # realizable edge (n-1)/n rather than the 4-digit rounding of it
    ev = family_eval(ComplexityKind.SQ, FamilyPoint(n=1024, omega=1023 / 1024, p_max=0.6979))
    assert ev.c == pytest.approx(0.1898, abs=5e-4)
    ev = family_eval(ComplexityKind.JSD, FamilyPoint(n=3, omega=0.4083, p_max=1.0))
    assert ev.c == pytest.approx(0.1266, abs=1e-3)


def test_family_eval_product_and_boundary():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(3, 2049))
        omega = float(rng.uniform(0.01, 0.99))
        ev = family_eval(ComplexityKind.TV, FamilyPoint(n=n, omega=omega, p_max=rng.random()))
        assert ev.c == pytest.approx(ev.h * ev.d, abs=1e-12)
        # p_max + omega = 1 zeroes the disequilibrium for every kind
        mini = FamilyPoint(n=n, omega=omega, p_max=1.0 - omega)
        for kind in KINDS:
            ev0 = family_eval(kind, mini)
            assert abs(ev0.d) < 1e-12 and abs(ev0.c) < 1e-12


def test_family_evaluation_consistency_check():
    pt = FamilyPoint(n=8, omega=0.5, p_max=0.9)
    ok = family_eval(ComplexityKind.SQ, pt)
    with pytest.raises(RangeError):
        FamilyEvaluation(kind=ok.kind, point=pt, h=ok.h, d=ok.d, c=ok.c + 1e-6)


def test_direct_functional_rejects_continuous():
    with pytest.raises(FamilyError):
        family_complexity_direct(ComplexityKind.SQ, FamilyPoint(n=8, omega=0.4, p_max=0.9))


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def test_family_surface_matches_pointwise():
    omegas = np.array([0.2, 0.5, 0.8])
    p_maxes = np.array([0.0, 0.3, 0.9, 1.0])
    for kind in KINDS:
        surf = family_surface(kind, 64, omegas, p_maxes)
        assert surf.shape == (3, 4)
        for i, w in enumerate(omegas):
            for j, p in enumerate(p_maxes):
                ev = family_eval(kind, FamilyPoint(n=64, omega=float(w), p_max=float(p)))
                assert surf[i, j] == pytest.approx(ev.c, abs=1e-12)


def test_family_surface_validation():
    with pytest.raises(FamilyError):
        family_surface(ComplexityKind.SQ, 16, [0.0, 0.5], [0.5])
    with pytest.raises(RangeError):
        family_surface(ComplexityKind.SQ, 16, [0.5], [0.5, 1.5])
    with pytest.raises(RangeError):
        family_surface(ComplexityKind.SQ, 16, [], [0.5])


def test_simplex3_surface():
    m = 10
    surf = simplex3_surface(ComplexityKind.SQ, m)
    assert surf.shape == (m + 1, m + 1)
    on = ~np.isnan(surf)
    assert on.sum() == (m + 1) * (m + 2) // 2, "exactly the lattice simplex is populated"
    # corners are one-hot, center is near-uniform
    assert surf[0, 0] == pytest.approx(0.0, abs=1e-12)
    i = j = m // 3 + 1  # (4/10, 4/10, 2/10) for m=10
    third = np.array([i / m, j / m, 1.0 - (i + j) / m])
    assert surf[i, j] == pytest.approx(scalar_complexity(third, ComplexityKind.SQ), abs=1e-12)
    with pytest.raises(RangeError):
        simplex3_surface(ComplexityKind.SQ, 1)


def test_family_surface_rejects_n_below_2():
    for n in (1, 0, -3):
        with pytest.raises(DimensionError, match=f"got {n}"):
            family_surface(ComplexityKind.TV, n, [0.5], [0.5])


def test_family_surface_rejects_n_beyond_float_integers():
    with pytest.raises(DimensionError, match="2\\*\\*53"):
        family_surface(ComplexityKind.TV, 2 ** 53, [0.5], [0.5])
    for kind in KINDS:
        surf = family_surface(kind, 2 ** 53 - 1, [0.25, 0.5], [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(surf))


@pytest.mark.parametrize("kind", KINDS)
def test_simplex3_surface_matches_direct_functional(kind):
    m = 12
    surf = simplex3_surface(kind, m)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            z = max(1.0 - i / m - j / m, 0.0)  # the surface clamps round-off below 0 too
            direct = scalar_complexity([i / m, j / m, z], kind)
            assert surf[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-14), (i, j)


def test_family_grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    omegas = np.arange(1, 10) / 10.0
    p_maxes = np.arange(0, 11) / 10.0
    write_family_grid_csv(path, ComplexityKind.TV, 32, omegas, p_maxes)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omega,p_max,c"
    assert len(lines) == 1 + 9 * 11
    w, p, c = (float(v) for v in lines[1].split(","))
    assert (w, p) == (0.1, 0.0)
    ev = family_eval(ComplexityKind.TV, FamilyPoint(n=32, omega=0.1, p_max=0.0))
    assert c == pytest.approx(ev.c, rel=1e-5), "values are written with 6 significant digits"


def test_simplex_grid_csv(tmp_path):
    path = tmp_path / "simplex.csv"
    write_simplex_grid_csv(path, ComplexityKind.SQ, 4)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p1,p2,c"
    assert len(lines) == 1 + 15  # 5*6/2 lattice points for m=4
