"""Property tests of invariants the paper's closed forms imply."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statcomplex import (ComplexityKind, complexity_value, jsd, kernels, normalize,
                         total_variation)

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
