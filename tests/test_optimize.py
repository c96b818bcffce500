import math

import numpy as np
import pytest

from statcomplex import kernels, optimize
from statcomplex import (
    ComplexityKind,
    DimensionError,
    FamilyPoint,
    OptimumRecord,
    RangeError,
    build_optimum_table,
    brute_force_simplex,
    family_eval,
    lemma3_residual,
    maximize_family,
    threshold,
    tv_residuals,
    write_table_csv,
)

SQ, JSD, TV = ComplexityKind.SQ, ComplexityKind.JSD, ComplexityKind.TV


# ---------------------------------------------------------------------------
# continuous optima
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,n,c_star,p_star,w_star", [
    (SQ, 3, 0.1932, 0.8315, 0.6666),
    (SQ, 1024, 0.1898, 0.6979, 0.9990),
    (JSD, 3, 0.1266, 1.0, 0.4083),
    (JSD, 256, 0.4482, 1.0, 0.8703),
    (TV, 512, 0.5120, 0.9991, 0.8901),
    (TV, 2048, 0.5667, 0.9999, 0.9122),
])
def test_continuous_optimum_rows(kind, n, c_star, p_star, w_star):
    r = maximize_family(kind, n)
    assert r.c_star == pytest.approx(c_star, abs=5e-4)
    assert r.p_max_star == pytest.approx(p_star, abs=5e-3)
    assert r.omega_star == pytest.approx(w_star, abs=5e-3)


def test_optimum_heavy_group_counts():
    assert maximize_family(SQ, 2048).n_minus_k_star == 1
    assert maximize_family(JSD, 1024).n_minus_k_star == 97
    assert maximize_family(TV, 1024).n_minus_k_star == 100


def test_reported_branch_is_upper():
    # of the two mirror optima, the p_max >= 1/2 one is reported
    for kind in (SQ, JSD, TV):
        for n in (3, 256):
            r = maximize_family(kind, n)
            assert r.p_max_star >= 0.5


def _both_branch_search(kind, n):
    """The coarse search over both twin branches, then the solver's own ascent."""
    w_lo, w_hi = optimize._omega_band(kind, n)
    coarse = np.arange(1, optimize._COARSE) / optimize._COARSE
    ws = np.unique(np.concatenate([coarse[(coarse >= w_lo) & (coarse <= w_hi)], [w_lo, w_hi]]))
    ps = np.arange(optimize._COARSE + 1) / optimize._COARSE
    surf = kernels.family_c_grid(kind, float(n), ws, ps)
    i, j = np.unravel_index(np.argmax(surf), surf.shape)
    omega, p_max, c = optimize._ascend(kind, n, float(ws[i]), float(ps[j]), w_lo, w_hi,
                                       1.0 / optimize._COARSE)
    if p_max < 0.5:
        omega, p_max = 1.0 - omega, 1.0 - p_max
        c = optimize._c_at(kind, n, omega, p_max)
    return surf.max(), (c, p_max, omega)


def test_twin_branch_search_misses_no_coarse_cell():
    # the coarse search covers p_max >= 1/2 only; its optimum must top every
    # cell of the full coarse grid and equal the search over both branches
    rng = np.random.default_rng(5)
    sizes = (3, 256, 2048, *(int(n) for n in rng.integers(4, 2 ** 20, 4)))
    for kind in (SQ, JSD, TV):
        for n in sizes:
            r = maximize_family(kind, n)
            grid_max, both = _both_branch_search(kind, n)
            assert r.c_star >= grid_max, (kind, n)
            assert (r.c_star, r.p_max_star, r.omega_star) == both, (kind, n)


def test_optimum_is_locally_maximal():
    r = maximize_family(TV, 128)
    here = r.c_star
    for dw, dp in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, -1e-4)):
        pt = FamilyPoint(n=128, omega=r.omega_star + dw,
                         p_max=min(r.p_max_star + dp, 1.0))
        assert family_eval(TV, pt).c <= here + 1e-9


def test_integer_mode():
    r = maximize_family(SQ, 256, mode="integer")
    assert r.mode == "integer"
    assert r.n_minus_k_star == 1
    assert r.c_star == pytest.approx(0.19944636840275176, abs=1e-9)
    r = maximize_family(JSD, 256, mode="integer")
    assert r.n_minus_k_star == 33
    assert r.p_max_star == 1.0
    r = maximize_family(TV, 256, mode="integer")
    assert r.n_minus_k_star == 32
    assert r.c_star == pytest.approx(0.4788526719399208, abs=1e-9)


def test_integer_mode_small_n_exhaustive():
    # against an independent dense scan over every k
    best = -1.0
    for k in range(1, 8):
        for p in np.linspace(0.0, 1.0, 20001):
            c = family_eval(SQ, FamilyPoint(n=8, k=k, p_max=float(p))).c
            best = max(best, c)
    r = maximize_family(SQ, 8, mode="integer")
    assert r.c_star == pytest.approx(best, abs=1e-7)


def test_maximize_family_validation():
    with pytest.raises(DimensionError):
        maximize_family(SQ, 2)
    with pytest.raises(RangeError):
        maximize_family(SQ, 16, mode="annealed")


def test_maximize_family_size_caps():
    with pytest.raises(DimensionError, match="2\\*\\*53"):
        maximize_family(TV, 2 ** 53)
    with pytest.raises(DimensionError):
        maximize_family(TV, 10 ** 400)  # beyond float range: no OverflowError
    for kind in (SQ, JSD, TV):
        r = maximize_family(kind, 2 ** 53 - 1)
        assert r.n == 2 ** 53 - 1 and 0.0 < r.c_star < 1.0
    with pytest.raises(RangeError, match="65537"):
        maximize_family(TV, 2 ** 16 + 1, mode="integer")


def test_monotone_trends():
    ns = (256, 512, 1024, 2048)
    sq = [maximize_family(SQ, n).c_star for n in ns]
    tv = [maximize_family(TV, n).c_star for n in ns]
    js = [maximize_family(JSD, n).c_star for n in ns]
    assert all(a > b for a, b in zip(sq, sq[1:])), "SQ optimum decreases with n"
    assert all(a < b for a, b in zip(tv, tv[1:]))
    assert all(a < b for a, b in zip(js, js[1:]))
    assert sq[-1] > 4.0 / 27.0, "finite-n SQ optimum stays above its asymptote"


def test_optimum_record_consistency_gate():
    r = maximize_family(TV, 64)
    with pytest.raises(RangeError):
        OptimumRecord(kind=TV, n=64, c_star=r.c_star + 1e-3,
                      p_max_star=r.p_max_star, omega_star=r.omega_star)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_reference_values():
    assert threshold(SQ, 2048) == pytest.approx(0.0465, abs=2e-4)
    assert threshold(JSD, 2048) == pytest.approx(0.1328, abs=2e-4)
    assert threshold(TV, 2048) == pytest.approx(0.1417, abs=2e-4)


def test_threshold_linear_in_fraction():
    base = maximize_family(TV, 2048).c_star
    for f in (0.1, 0.25, 0.5, 0.9):
        assert threshold(TV, 2048, f) == pytest.approx(f * base, rel=1e-12)
    with pytest.raises(RangeError):
        threshold(TV, 2048, 0.0)
    with pytest.raises(RangeError):
        threshold(TV, 2048, 1.0)


# ---------------------------------------------------------------------------
# table building
# ---------------------------------------------------------------------------

def test_build_table_and_csv(tmp_path):
    records = build_optimum_table(ns=(3, 256))
    assert len(records) == 6
    assert [r.kind for r in records] == [SQ, SQ, JSD, JSD, TV, TV]
    path = tmp_path / "tables.csv"
    write_table_csv(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,n,c_star,p_max_star,omega_star,n_minus_k_star"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "sq" and first[1] == "3"
    assert float(first[2]) == pytest.approx(0.193239, abs=1e-6)


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

def test_residuals_vanish_on_diagonal():
    t = tv_residuals(64, 0.3, 0.7)
    assert t.f1 == 0.0 and t.f2 == 0.0 and t.f3 == 0.0


def test_residual_difference_identity():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = int(rng.integers(2, 4097))
        t = tv_residuals(n, float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
        assert t.f3 == pytest.approx(t.f1 - t.f2, abs=1e-10 * max(1.0, abs(t.f3)))


def test_residual_f3_scale_free():
    # f3 * log(n) depends only on (omega, p_max)
    w, p = 0.8117, 0.9943
    ref = tv_residuals(64, w, p).f3 * math.log(64)
    for n in (2, 128, 1024, 65536):
        assert tv_residuals(n, w, p).f3 * math.log(n) == pytest.approx(ref, rel=1e-12)


def test_residuals_small_at_optimum():
    for n in (128, 1024):
        r = maximize_family(TV, n)
        for w, p in ((r.omega_star, r.p_max_star),
                     (1.0 - r.omega_star, 1.0 - r.p_max_star)):  # mirror twin
            t = tv_residuals(n, w, p)
            assert abs(t.f1) <= 1e-3 and abs(t.f2) <= 1e-3 and abs(t.f3) <= 1e-3


def test_residuals_need_interior_point():
    with pytest.raises(RangeError):
        tv_residuals(64, 0.0, 0.5)
    with pytest.raises(RangeError):
        tv_residuals(64, 0.5, 1.0)
    with pytest.raises(DimensionError):
        tv_residuals(1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# ordered-log inequality
# ---------------------------------------------------------------------------

def test_lemma_residual_oracle():
    assert lemma3_residual(0.1, 0.5, 0.9) == pytest.approx(0.40866049901279256, abs=1e-10)


def test_lemma_residual_equality_cases():
    rng = np.random.default_rng(78)
    for _ in range(500):
        a, z = np.sort(rng.uniform(1e-6, 1.0, size=2))
        assert abs(lemma3_residual(float(a), float(a), float(z))) < 1e-12
        assert abs(lemma3_residual(float(a), float(z), float(z))) < 1e-12
    assert lemma3_residual(0.2, 0.2, 0.2) == pytest.approx(0.0, abs=1e-12)


def test_lemma_residual_nonnegative():
    rng = np.random.default_rng(77)
    for _ in range(5000):
        x, y, z = np.sort(rng.uniform(1e-6, 1.0, size=3))
        assert lemma3_residual(float(x), float(y), float(z)) >= -1e-12


def test_lemma_residual_rejects_unordered():
    with pytest.raises(RangeError):
        lemma3_residual(0.5, 0.1, 0.9)
    with pytest.raises(RangeError):
        lemma3_residual(0.0, 0.5, 0.9)


# ---------------------------------------------------------------------------
# simplex scan
# ---------------------------------------------------------------------------

def test_brute_force_simplex_finds_seven_points():
    found = brute_force_simplex(SQ, 3, 2e-3)
    by_kind = {k: [e for e in found if e.kind == k] for k in ("max", "min", "saddle")}
    assert len(by_kind["max"]) == 3
    assert len(by_kind["saddle"]) == 3
    assert len(by_kind["min"]) == 1

    for e in by_kind["max"]:
        assert e.c == pytest.approx(0.1932, abs=1e-3)
        assert sorted(e.probs) == pytest.approx([0.08425, 0.08425, 0.8315], abs=5e-3)
    for e in by_kind["saddle"]:
        assert e.c == pytest.approx(0.1062, abs=1e-3)
        assert sorted(e.probs) == pytest.approx([0.006, 0.497, 0.497], abs=5e-3)
    mn = by_kind["min"][0]
    assert mn.c == pytest.approx(0.0, abs=1e-4)
    assert np.allclose(mn.probs, 1.0 / 3.0, atol=5e-3)


def test_brute_force_maxima_match_family_projection():
    # heavy cell mass of the lattice maxima equals the family optimum p_max
    found = brute_force_simplex(SQ, 3, 1e-3)
    r = maximize_family(SQ, 3)
    for e in (x for x in found if x.kind == "max"):
        assert max(e.probs) == pytest.approx(r.p_max_star, abs=2e-3)
        assert e.c == pytest.approx(r.c_star, abs=1e-4)


def test_brute_force_validation():
    with pytest.raises(DimensionError):
        brute_force_simplex(SQ, 4, 1e-3)
    with pytest.raises(RangeError):
        brute_force_simplex(SQ, 3, 0.05)
    with pytest.raises(RangeError):
        brute_force_simplex(SQ, 3, 0.0)
