"""Scalar reference routes that the tests compare the package against.

None of this runs in the package: each function is an independent,
one-item-at-a-time evaluation of a quantity the package computes in
batches or in closed form.

- `scalar_entropy`, `scalar_disequilibrium` and `scalar_complexity`: the
  normalized entropy, each kind's disequilibrium and C of one distribution
  from elementwise formulas, against `kernels.rows_hd`, which computes them
  for the package everywhere: the window engine, the simplex grid and the
  point measures (`complexity_value`, `disequilibrium`,
  `entropy_normalized`, `disequilibrium_sq`).
- `f_divergence` with `tv_generator` and `jsd_generator`: the Csiszar
  f-divergence route to `total_variation` and `jsd`.
- `family_complexity_direct`: a two-level family point's complexity from
  its materialized distribution, against the closed forms.
- `spectrum_distribution`: one window's N-bin power spectrum, against the
  batched window engine.
- `report_to_dict`: the JSON document of a detection report, against the
  templated `write_report_json`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from statcomplex import (ComplexityKind, DataShapeError, DiscreteDistribution, FamilyError,
                         FamilyPoint, RangeError, spike_family, uniform)
from statcomplex import measures
from statcomplex.rows import round6
from statcomplex.sigproc import WINDOW_MIXED, WINDOW_OFF, WINDOW_ON


class SupportError(ValueError):
    """A reference distribution has zeros where positive mass is required."""


def normalized(weights) -> DiscreteDistribution:
    """Nonnegative weights, not all zero, scaled to unit sum."""
    w = np.asarray(weights, dtype=np.float64)
    return DiscreteDistribution(w / w.sum())


# ---------------------------------------------------------------------------
# entropy, disequilibrium and complexity against uniform
# ---------------------------------------------------------------------------

def scalar_entropy(p) -> float:
    """Shannon entropy divided by log(n), clipped to [0, 1]."""
    arr = measures._distribution(p).probs
    h = measures._neg_plogp(arr) / math.log(arr.size)
    # guard the [0, 1] contract against last-ulp float excess
    return min(max(h, 0.0), 1.0)


def scalar_disequilibrium(dist, kind: ComplexityKind) -> float:
    """Distance of `dist` from the uniform reference, per `kind`."""
    dist = measures._distribution(dist)
    p = dist.probs
    if kind is ComplexityKind.SQ:
        return float(((p - 1.0 / p.size) ** 2).sum())
    ref = np.full(dist.n, 1.0 / dist.n)
    if kind is ComplexityKind.TV:
        tv = measures._total_variation(p, ref)
        return tv * tv
    return measures._jsd_nats(p, ref) * measures._unit_scale("bits")


def scalar_complexity(dist, kind: ComplexityKind = ComplexityKind.SQ) -> float:
    """C = normalized entropy times disequilibrium of the chosen kind."""
    dist = measures._distribution(dist)
    return scalar_entropy(dist) * scalar_disequilibrium(dist, kind)


# ---------------------------------------------------------------------------
# f-divergences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDivergenceSpec:
    """Convex generator f with f(1) = 0, defining sum_i q_i f(p_i/q_i).

    The generator is applied elementwise to the likelihood ratio array;
    it must accept numpy arrays.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        at_one = float(np.asarray(self.f(np.array([1.0])))[0])
        if not abs(at_one) <= 1e-12:
            raise RangeError(f"generator {self.name!r} has f(1) = {at_one!r}, expected 0")


def f_divergence(p, q, spec: FDivergenceSpec) -> float:
    """Csiszar f-divergence sum q_i f(p_i/q_i); q must be strictly positive."""
    a, b = measures._pair(p, q)
    if np.any(b == 0.0):
        raise SupportError("f_divergence needs a strictly positive reference q")
    return float((b * np.asarray(spec.f(a / b))).sum())


def tv_generator() -> FDivergenceSpec:
    """f(x) = |1 - x| / 2, recovering total_variation."""
    return FDivergenceSpec("total-variation", lambda x: 0.5 * np.abs(1.0 - x))


def jsd_generator(unit: str = "bits") -> FDivergenceSpec:
    """Generator reproducing jsd(p, q, unit) as an f-divergence.

    f(x) = [x log(2x/(x+1)) + log(2/(x+1))] / 2 in the unit's log base.
    The leading 1/2 matches the mixture-entropy definition, which weights
    KL(p||m) and KL(q||m) by 1/2 each.
    """
    scale = measures._unit_scale(unit)

    def f(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(x > 0.0, x * np.log(2.0 * x / (x + 1.0)), 0.0)
        return 0.5 * scale * (t + np.log(2.0 / (x + 1.0)))

    return FDivergenceSpec("jensen-shannon", f)


# ---------------------------------------------------------------------------
# family, spectra and reports
# ---------------------------------------------------------------------------

def family_complexity_direct(kind: ComplexityKind, point: FamilyPoint) -> float:
    """A family point's complexity from the explicit distribution (integer mode)."""
    if point.mode != "integer":
        raise FamilyError("direct evaluation requires an integer group size")
    return scalar_complexity(spike_family(point), kind)


def spectrum_distribution(window) -> DiscreteDistribution:
    """Normalized two-sided spectrum of one window as a distribution.

    Squared DFT magnitudes over all N bins (DC included) are normalized
    to unit sum, so the distribution dimension equals the window length.
    A window of exact zeros has no spectral shape and maps to the uniform
    distribution, the zero-complexity point.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1:
        raise DataShapeError("spectrum input must be a 1-d sample window")
    n = x.size
    if n < 2 or n & (n - 1):
        raise DataShapeError("window length must be a power of two >= 2")
    power = np.abs(np.fft.fft(x)) ** 2
    total = power.sum()
    if total == 0.0:
        return uniform(n)
    return DiscreteDistribution(power / total)


_STATE_NAMES = {WINDOW_ON: "on", WINDOW_OFF: "off", WINDOW_MIXED: "mixed"}


def report_to_dict(report) -> dict:
    """The JSON document of a `DetectionReport`.  Its `"distributions"`, present
    when the report holds them, are the N/2 + 1 bins with bins 1 .. N/2 - 1
    mirrored out to N bins."""
    series = report.series
    payload = {
        "kind": series.kind.value,
        "window_length": series.window_length,
        "threshold": round6(series.threshold),
        "config": report.config.to_dict(),
        "metrics": report.metrics.to_dict(),
        "windows": [
            {"t_center": round6(t), "c_value": round6(c), "decision": decision,
             "state": _STATE_NAMES[state]}
            for t, c, decision, state in zip(
                series.t_centers.tolist(), series.c_values.tolist(),
                series.decisions.tolist(), report.states.tolist())
        ],
    }
    if report.distributions is not None:
        half = report.distributions
        full = np.concatenate([half, half[:, -2:0:-1]], axis=1)
        payload["distributions"] = [[round6(v) for v in row] for row in full.tolist()]
    return payload
