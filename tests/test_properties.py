"""Property tests of invariants the paper's closed forms imply."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statcomplex import ComplexityKind, kernels

CODES = [kind.kernel_code for kind in ComplexityKind]
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
