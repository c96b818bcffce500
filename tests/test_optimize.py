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


_FULL = 512  # the 511 x 513 grid over both twin branches


def _ascend(kind, n, omega, p_max, w_lo, w_hi, step0, tol=1e-7):
    """Coordinate ascent with step halving: the solver's former refinement, kept as a reference."""
    c = optimize._c_at(kind, n, omega, p_max)
    step = step0
    while step >= tol:
        improved = True
        while improved:
            improved = False
            for dw, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                w2 = min(max(omega + dw, w_lo), w_hi)
                p2 = min(max(p_max + dp, 0.0), 1.0)
                if w2 == omega and p2 == p_max:
                    continue
                c2 = optimize._c_at(kind, n, w2, p2)
                if c2 > c:
                    omega, p_max, c = w2, p2, c2
                    improved = True
        step *= 0.5
    return omega, p_max, c


def _full_grid(kind, n):
    w_lo, w_hi = optimize._omega_band(kind, n)
    coarse = np.arange(1, _FULL) / _FULL
    ws = np.unique(np.concatenate([coarse[(coarse >= w_lo) & (coarse <= w_hi)], [w_lo, w_hi]]))
    ps = np.arange(_FULL + 1) / _FULL
    return ws, ps, kernels.family_c_grid(kind, float(n), ws[:, None], ps[None, :])


def _both_branch_search(kind, n):
    """The coarse search over both twin branches, then the former ascent."""
    w_lo, w_hi = optimize._omega_band(kind, n)
    ws, ps, surf = _full_grid(kind, n)
    i, j = np.unravel_index(np.argmax(surf), surf.shape)
    omega, p_max, c = _ascend(kind, n, float(ws[i]), float(ps[j]), w_lo, w_hi, 1.0 / _FULL)
    if p_max < 0.5:
        omega, p_max = 1.0 - omega, 1.0 - p_max
        c = optimize._c_at(kind, n, omega, p_max)
    return surf.max(), (c, p_max, omega)


def _zoom_max(kind, n):
    """Largest C on the reported branch p_max >= 1/2: a 33 x 33 grid zoomed
    4-fold at a time around its best cell, from the full grid's best cell there.

    (For sq the band edge 1 - 1/n rounds in float, which at n ~ 1e6 already
    lifts the lower branch's peak some 1e-11 relative above its twin's.)
    """
    w_lo, w_hi = optimize._omega_band(kind, n)
    ws, ps, surf = _full_grid(kind, n)
    ps, surf = ps[_FULL // 2:], surf[:, _FULL // 2:]
    i, j = np.unravel_index(np.argmax(surf), surf.shape)
    w, p, best = ws[i], ps[j], surf.max()
    half = 1.0 / _FULL
    while half > 1e-13:
        wz = np.clip(w + np.linspace(-half, half, 33), w_lo, w_hi)
        pz = np.clip(p + np.linspace(-half, half, 33), 0.5, 1.0)
        z = kernels.family_c_grid(kind, float(n), wz[:, None], pz[None, :])
        a, b = np.unravel_index(np.argmax(z), z.shape)
        w, p, best = wz[a], pz[b], max(best, z[a, b])
        half /= 4.0
    return best


def test_twin_branch_search_misses_no_coarse_cell():
    # the coarse search covers p_max >= 1/2 only; its optimum must top every
    # cell of the full coarse grid and the former ascent over both branches,
    # and agree with a dense zoom
    rng = np.random.default_rng(5)
    sizes = (3, 256, 2048, *(int(n) for n in rng.integers(4, 2 ** 20, 4)))
    for kind in (SQ, JSD, TV):
        for n in sizes:
            r = maximize_family(kind, n)
            grid_max, both = _both_branch_search(kind, n)
            assert r.c_star >= grid_max, (kind, n)
            assert r.c_star >= both[0], (kind, n)
            zoom = _zoom_max(kind, n)
            assert abs(r.c_star - zoom) <= 1e-13 * zoom, (kind, n, r.c_star, zoom)


@pytest.mark.parametrize("n", [3, 64, 256, 2048, 2 ** 20])
def test_tv_interior_optimum_is_stationary(n):
    r = maximize_family(TV, n)
    assert r.p_max_star < 1.0
    t = tv_residuals(n, r.omega_star, r.p_max_star)
    assert abs(t.f1) <= 1e-9 and abs(t.f2) <= 1e-9, t


def _spy(monkeypatch, name, calls):
    fn = getattr(optimize, name)

    def spy(*args):
        out = fn(*args)
        calls.append((name, out))
        return out

    monkeypatch.setattr(optimize, name, spy)


@pytest.mark.parametrize("kind,n", [(SQ, 3), (SQ, 2048), (JSD, 3), (JSD, 2048), (TV, 3), (TV, 2048),
                                    (TV, 2 ** 53 - 1)])
def test_solver_branches(monkeypatch, kind, n):
    # sq peaks on the band edge omega = 1 - 1/n, jsd on the edge p_max = 1,
    # tv inside the square (on the float limit p_max = 1 for the largest n)
    calls = []
    for name in ("_golden", "_tv_newton", "_box_max"):
        _spy(monkeypatch, name, calls)
    optimize.maximize_family.cache_clear()
    try:
        r = maximize_family(kind, n)
    finally:
        optimize.maximize_family.cache_clear()
    names = [name for name, _ in calls]
    if kind is TV:
        assert names == ["_tv_newton"] and calls[0][1] is not None
        assert r.p_max_star < 1.0 or n == 2 ** 53 - 1
    else:
        assert names == ["_golden"]
        if kind is SQ:
            assert r.omega_star == 1.0 - 1.0 / n and 0.5 < r.p_max_star < 1.0
        else:
            assert r.p_max_star == 1.0


def test_interior_falls_back_to_bracketed_search(monkeypatch):
    n = 64
    r = maximize_family(TV, n)
    box = (r.omega_star - 1 / 32, r.omega_star + 1 / 32, r.p_max_star - 1 / 32, 1.0)
    start = (0.5, 0.75)  # off the basin: Newton's first step leaves the box
    assert optimize._tv_newton(n, *start, box[:3]) is None
    monkeypatch.setattr(optimize, "_tv_newton", lambda n, w, p, box: None)
    omega, p_max, c = optimize._continuous_max(TV, n)
    assert c == pytest.approx(r.c_star, rel=1e-13)
    assert (omega, p_max) == pytest.approx((r.omega_star, r.p_max_star), abs=1e-6)
    assert optimize._box_max(SQ, 3, (0.5, 2 / 3, 0.5, 1.0))[2] == pytest.approx(
        maximize_family(SQ, 3).c_star, rel=1e-13)


def test_solve_never_ends_below_its_best_cell(monkeypatch):
    monkeypatch.setattr(optimize, "_tv_newton", lambda n, w, p, box: None)
    monkeypatch.setattr(optimize, "_box_max", lambda kind, n, box: (0.5, 0.5, 0.0))
    omega, p_max, c = optimize._continuous_max(TV, 64)
    assert c > 0.39 and c == optimize._c_at(TV, 64, omega, p_max)
    assert (omega * 32, p_max * 32) == (round(omega * 32), round(p_max * 32))  # a grid cell


def _best_cell(kind, n):
    """(omega, p_max) of the best cell of the solver's coarse grid."""
    w_lo, w_hi = optimize._omega_band(kind, n)
    grid = np.arange(1, 32) / 32
    ws = np.unique(np.concatenate([grid[(grid >= w_lo) & (grid <= w_hi)], [w_lo, w_hi]]))
    ps = np.arange(16, 33) / 32
    surf = kernels.family_c_grid(kind, float(n), ws[:, None], ps[None, :])
    i, j = divmod(int(np.argmax(surf)), ps.size)
    return float(ws[i]), float(ps[j])


_EDGE_SIZES = sorted({*range(3, 301), *np.geomspace(301, 2 ** 40, 300).astype(np.int64).tolist()})


@pytest.mark.parametrize("kind", [SQ, JSD])
def test_edge_kinds_peak_on_their_edge(kind):
    # the premise of the solver's dispatch: the sq peak lies on the band
    # edge omega = 1 - 1/n and the jsd peak on the edge p_max = 1, so the
    # best coarse cell sits there, a step into the square lowers C, and the
    # solve ends on the peak along the edge, not on the cell
    for n in _EDGE_SIZES:
        w_hi = optimize._omega_band(kind, n)[1]
        w0, p0 = _best_cell(kind, n)
        omega, p_max, c = optimize._continuous_max(kind, n)
        if kind is SQ:
            assert w0 == w_hi, n
            h = 1e-6 * min(omega, 1.0 - omega)
            assert optimize._c_at(kind, n, omega - h, p_max) <= c, n
            along = [(omega, p_max + s * 1e-5 * min(p_max - 0.5, 1.0 - p_max)) for s in (-1, 1)]
        else:
            assert p0 == 1.0, n
            assert optimize._c_at(kind, n, omega, 1.0 - 1e-9) <= c, n
            along = [(omega + s * 1e-5 * min(omega, 1.0 - omega), p_max) for s in (-1, 1)]
        assert max(optimize._c_at(kind, n, w, p) for w, p in along) <= c, n


def test_sq_beyond_float_band_edge_keeps_its_best_cell():
    # 1 - 1/n rounds far down here, and the best coarse cell lies on the
    # lower edge omega = 1/n, where a solve along the upper edge ends lower
    n = 5468056063525244
    r = maximize_family(SQ, n)
    assert r.c_star >= optimize._c_at(SQ, n, *_best_cell(SQ, n))


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


@pytest.mark.parametrize("kind", [SQ, JSD, TV])
def test_integer_mode_matches_dense_scan(kind):
    # every group count k against a p_max grid of step 1e-5, mapped to p_max >= 1/2
    n = 64
    ps = np.linspace(0.0, 1.0, 100001)
    best = (-1.0, 0, 0.0)
    for k in range(1, n):
        row = kernels.family_c_grid(kind, float(n), np.array([k / n]), ps)
        j = int(np.argmax(row))
        if row[j] > best[0]:
            best = (float(row[j]), k, float(ps[j]))
    c, k, p = best
    r = maximize_family(kind, n, mode="integer")
    assert r.n_minus_k_star == (k if p < 0.5 else n - k)
    assert c - 1e-15 <= r.c_star <= c + 1e-9
    assert r.p_max_star == pytest.approx(max(p, 1.0 - p), abs=1e-4)


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
