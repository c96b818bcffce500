"""Property tests of invariants the paper's closed forms imply."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statcomplex import (ComplexityKind, FamilyPoint, complexity_series, complexity_value,
                         family_complexity_direct, family_eval, jsd, kernels, normalize,
                         spectrum_distribution, total_variation)

CODES = list(ComplexityKind)
SIZES = st.integers(min_value=3, max_value=2 ** 16)
OMEGAS = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
P_MAXES = st.floats(min_value=0.0, max_value=1.0)


def _twin_gap_ok(c, c_twin):
    return np.all(np.abs(c - c_twin) <= 1e-9 * np.maximum(1.0, np.abs(c)))


@settings(derandomize=True, deadline=None)
@given(code=st.sampled_from(CODES), n=SIZES, omega=OMEGAS, p_max=P_MAXES)
def test_family_hdc_twin_symmetry(code, n, omega, p_max):
    # (omega, p_max) and (1 - omega, 1 - p_max) are one distribution with the groups swapped
    c = kernels.family_hdc(code, float(n), omega, p_max)[2]
    c_twin = kernels.family_hdc(code, float(n), 1.0 - omega, 1.0 - p_max)[2]
    assert _twin_gap_ok(c, c_twin), (c, c_twin)


@settings(derandomize=True, deadline=None)
@given(code=st.sampled_from(CODES), n=SIZES,
       omegas=st.lists(OMEGAS, min_size=1, max_size=16),
       p_maxes=st.lists(P_MAXES, min_size=1, max_size=16))
def test_family_c_grid_twin_symmetry(code, n, omegas, p_maxes):
    w = np.array(omegas)
    p = np.array(p_maxes)
    surf = kernels.family_c_grid(code, float(n), w, p)
    # the mirrored grid, reversed on both axes, lists the twins in the same cells
    twin = kernels.family_c_grid(code, float(n), (1.0 - w)[::-1], (1.0 - p)[::-1])[::-1, ::-1]
    assert _twin_gap_ok(surf, twin)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), n=st.integers(min_value=3, max_value=2 ** 20),
       omegas=st.lists(st.floats(min_value=1e-9, max_value=1.0 - 1e-9), max_size=12),
       p_maxes=st.lists(P_MAXES, max_size=12))
def test_family_c_grid_matches_family_hdc(kind, n, omegas, p_maxes):
    w = np.array([1e-9, 1.0 / n, 1.0 - 1.0 / n, 1.0 - 1e-9, *omegas])
    # 1 - w puts cells on the uniform line w + p == 1
    p = np.array([0.0, 1.0, *p_maxes, *(1.0 - w)])
    surf = kernels.family_c_grid(kind, float(n), w, p)
    for i, wi in enumerate(w.tolist()):
        for j, pj in enumerate(p.tolist()):
            h, d, c = kernels.family_hdc(kind, float(n), wi, pj)
            # absolute wherever |h|, |d| <= 1; beyond (omega far outside 1/n..1-1/n)
            # neither form carries more digits than the size of its factors
            assert abs(surf[i, j] - c) <= 1e-12 * max(1.0, abs(h)) * max(1.0, abs(d)), (wi, pj)
    on_line = (w[:, None] + p[None, :]) == 1.0
    assert on_line.any()
    assert np.all(surf[on_line] == 0.0)


def _row_sum(t):
    return t.sum(axis=1)


def _table(style, n, seed, rows=8):
    """Rows of n-state distributions of one shape, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    w = rng.random((rows, n))
    if style == "peaked":
        w *= 1e-3
        w[np.arange(rows), rng.integers(0, n, rows)] = 1.0
    elif style == "near-uniform":
        w = 1.0 + 1e-6 * (w - 0.5)
    elif style == "sparse":
        w *= rng.random((rows, n)) < 0.25
        w[:, 0] += w.sum(axis=1) == 0.0  # at least one state carries mass
    return w / w.sum(axis=1, keepdims=True)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), n=st.integers(min_value=2, max_value=64),
       style=st.sampled_from(["dense", "peaked", "near-uniform", "sparse"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rows_c_matches_scalar_oracle(kind, n, style, seed):
    p = _table(style, n, seed)
    ref = np.array([complexity_value(row, kind) for row in p])
    c = kernels.rows_c(kind, p.copy(), n, _row_sum)
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-14)


def _weights(n):
    return st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0.0)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), data=st.data())
def test_complexity_value_permutation_invariant(kind, data):
    n = data.draw(st.integers(min_value=2, max_value=64))
    p = normalize(data.draw(_weights(n))).probs
    order = data.draw(st.permutations(range(n)))
    c, c_perm = complexity_value(p, kind), complexity_value(p[order], kind)
    assert abs(c - c_perm) <= 1e-12 * abs(c) + 1e-14, (c, c_perm)


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_jsd_nats_bounded_by_total_variation(data):
    n = data.draw(st.integers(min_value=2, max_value=64))
    p = normalize(data.draw(_weights(n)))
    q = normalize(data.draw(_weights(n)))
    assert jsd(p, q, "nats") <= total_variation(p, q)


def _tone_in_noise(seed, size):
    """A unit tone on bin 17 of a 256-sample window, plus white noise."""
    rng = np.random.default_rng(seed)
    return np.cos(2.0 * np.pi * 17.0 * np.arange(size) / 256.0) + rng.standard_normal(size)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(kind=st.sampled_from(CODES), seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       scale=st.floats(min_value=1e-3, max_value=1e3))
def test_complexity_series_scale_invariant(kind, seed, scale):
    x = _tone_in_noise(seed, 1024)
    c = complexity_series(x, 256, hop=64, kind=kind, threshold=0.1).c_values
    c_scaled = complexity_series(scale * x, 256, hop=64, kind=kind, threshold=0.1).c_values
    np.testing.assert_allclose(c_scaled, c, rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       shift=st.integers(min_value=1, max_value=255))
def test_spectrum_complexity_shift_invariant(kind, seed, shift):
    # a circular shift changes only the phases of the DFT, not its power
    w = _tone_in_noise(seed, 256)
    c = complexity_value(spectrum_distribution(w), kind)
    c_shift = complexity_value(spectrum_distribution(np.roll(w, shift)), kind)
    assert abs(c - c_shift) <= 1e-12 * abs(c), (c, c_shift)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), data=st.data())
def test_family_closed_form_matches_direct(kind, data):
    n = data.draw(st.integers(min_value=2, max_value=2 ** 12))
    point = FamilyPoint(n=n, k=data.draw(st.integers(min_value=1, max_value=n - 1)),
                        p_max=data.draw(P_MAXES))
    c, c_direct = family_eval(kind, point).c, family_complexity_direct(kind, point)
    assert abs(c - c_direct) <= 1e-12, (c, c_direct)
