"""Property tests of invariants the paper's closed forms imply."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scalar_reference import family_complexity_direct, normalized, spectrum_distribution
from statcomplex import (ComplexityKind, FamilyPoint, SignalConfig, classify_windows,
                         complexity_series, complexity_value, family_eval, indicator_mask, jsd,
                         kernels, total_variation)
from statcomplex.complexity import disequilibrium
from statcomplex.measures import entropy_normalized
from statcomplex.sigproc import WINDOW_MIXED, WINDOW_OFF, WINDOW_ON

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
    surf = kernels.family_c_grid(code, float(n), w[:, None], p[None, :])
    # the mirrored grid, reversed on both axes, lists the twins in the same cells
    twin = kernels.family_c_grid(code, float(n), (1.0 - w)[::-1, None],
                                 (1.0 - p)[None, ::-1])[::-1, ::-1]
    assert _twin_gap_ok(surf, twin)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), n=st.integers(min_value=3, max_value=2 ** 20),
       omegas=st.lists(st.floats(min_value=1e-9, max_value=1.0 - 1e-9), max_size=12),
       p_maxes=st.lists(P_MAXES, max_size=12))
def test_family_c_grid_matches_family_hdc(kind, n, omegas, p_maxes):
    w = np.array([1e-9, 1.0 / n, 1.0 - 1.0 / n, 1.0 - 1e-9, *omegas])
    # 1 - w puts cells on the uniform line w + p == 1
    p = np.array([0.0, 1.0, *p_maxes, *(1.0 - w)])
    surf = kernels.family_c_grid(kind, float(n), w[:, None], p[None, :])
    for i, wi in enumerate(w.tolist()):
        for j, pj in enumerate(p.tolist()):
            h, d, c = kernels.family_hdc(kind, float(n), wi, pj)
            # absolute wherever |h|, |d| <= 1; beyond (omega far outside 1/n..1-1/n)
            # neither form carries more digits than the size of its factors
            assert abs(surf[i, j] - c) <= 1e-12 * max(1.0, abs(h)) * max(1.0, abs(d)), (wi, pj)
    on_line = (w[:, None] + p[None, :]) == 1.0
    assert on_line.any()
    assert np.all(surf[on_line] == 0.0)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), n=SIZES,
       omegas=st.lists(OMEGAS, min_size=1, max_size=16),
       p_maxes=st.lists(P_MAXES, min_size=1, max_size=16))
def test_family_c_grid_pairs_match_outer_grid(kind, n, omegas, p_maxes):
    # a batch of (omega, p_max) pairs gets the values of the outer grid's cells
    w, p = np.array(omegas), np.array(p_maxes)
    surf = kernels.family_c_grid(kind, float(n), w[:, None], p[None, :])
    ww, pp = np.meshgrid(w, p, indexing="ij")
    pairs = kernels.family_c_grid(kind, float(n), ww.ravel(), pp.ravel())
    np.testing.assert_allclose(pairs.reshape(surf.shape), surf, rtol=1e-12, atol=1e-15)


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
    one_h, one_d = kernels.rows_hd(p.copy(), n, _row_sum, kinds=(kind,))
    c = one_h * one_d[kind]
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-14)
    # one pass for every kind: h and each d match the scalar measures, and
    # h * d is the one-kind C bit for bit
    h, d = kernels.rows_hd(p.copy(), n, _row_sum)
    np.testing.assert_allclose(h, [entropy_normalized(row) for row in p],
                               rtol=1e-12, atol=1e-14)
    assert set(d) == set(ComplexityKind)
    for k, column in d.items():
        np.testing.assert_allclose(column, [disequilibrium(row, k) for row in p],
                                   rtol=1e-12, atol=1e-14)
    assert np.array_equal(h * d[kind], c)


def _weights(n):
    return st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0.0)


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(CODES), data=st.data())
def test_complexity_value_permutation_invariant(kind, data):
    n = data.draw(st.integers(min_value=2, max_value=64))
    p = normalized(data.draw(_weights(n))).probs
    order = data.draw(st.permutations(range(n)))
    c, c_perm = complexity_value(p, kind), complexity_value(p[order], kind)
    assert abs(c - c_perm) <= 1e-12 * abs(c) + 1e-14, (c, c_perm)


@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_jsd_nats_bounded_by_total_variation(data):
    n = data.draw(st.integers(min_value=2, max_value=64))
    p = normalized(data.draw(_weights(n)))
    q = normalized(data.draw(_weights(n)))
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


def _mask_states(config, n_samples, window_length, hop):
    """Window states counted from the per-sample indicator mask."""
    on_before = np.concatenate(([0], np.cumsum(indicator_mask(config, n_samples))))
    starts = np.arange((n_samples - window_length) // hop + 1) * hop
    on_count = on_before[starts + window_length] - on_before[starts]
    return np.where(on_count == window_length, WINDOW_ON,
                    np.where(on_count == 0, WINDOW_OFF, WINDOW_MIXED))


@st.composite
def _window_cases(draw):
    """(rate, n, window_length, hop, t_start, t_end, extra samples) for
    `classify_windows`, with interval ends on sample times i / rate, one
    float step off them, or on decimals such as 0.1 that no float holds."""
    rate = draw(st.sampled_from([3, 7, 10, 1000, 8192, 44100])
                | st.integers(min_value=1, max_value=10 ** 6))
    n = draw(st.integers(min_value=4, max_value=3000))
    sample_time = st.integers(min_value=0, max_value=n).map(lambda i: i / rate)
    end = st.one_of(
        sample_time,
        st.tuples(sample_time, st.sampled_from([-math.inf, math.inf])).map(
            lambda a: math.nextafter(*a)),
        st.integers(min_value=0, max_value=10 * n).map(lambda k: k / 10.0),
        st.integers(min_value=0, max_value=1000 * n).map(lambda k: k / 1000.0))
    t_start, t_end = sorted((draw(end), draw(end)))
    return (rate, n, draw(st.sampled_from([2, 4, 64, 256])),
            draw(st.integers(min_value=1, max_value=300)), t_start, t_end,
            draw(st.integers(min_value=0, max_value=300)))


# Each end of these needs its rounding correction: ceil(4.03 * 1000) is 4031
# and floor(32.3 * 1000) is 32299, but samples 4030 and 32300 fall on 4.03
# and 32.3 exactly in float; at 3 Hz, ceil and floor give samples 1 and 5,
# whose times lie just below and just above the two ends.
@settings(derandomize=True, deadline=None)
@given(case=_window_cases())
@example(case=(1000, 33000, 64, 1, 4.03, 32.3, 0))
@example(case=(3, 8, 2, 1, math.nextafter(1 / 3, 1.0), math.nextafter(5 / 3, 0.0), 0))
def test_classify_windows_matches_mask(case):
    rate, n, window_length, hop, t_start, t_end, extra = case
    duration = n / rate
    t_end = min(t_end, duration)
    assume(0.0 <= t_start < t_end)
    config = SignalConfig(sample_rate=rate, duration=duration, indicator_on=(t_start, t_end))
    n_samples = n + extra   # a record may run past its config's duration
    assume(n_samples >= window_length)
    states = classify_windows(config, n_samples, window_length, hop)
    assert np.array_equal(states, _mask_states(config, n_samples, window_length, hop))
