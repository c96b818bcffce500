"""Statistical complexity of discrete spectral distributions.

Complexity is the product of normalized Shannon entropy and a
disequilibrium (distance from the uniform distribution); it vanishes on
both perfectly ordered and perfectly random spectra.  The package
provides three disequilibrium kinds, closed forms and optimizers over
the two-level distribution family, and a windowed spectral detector
with an analytically anchored threshold rule.
"""

from .complexity import (ComplexityKind, FamilyEvaluation, complexity_value, disequilibrium,
                         family_eval, family_surface, simplex3_surface,
                         write_family_grid_csv, write_simplex_grid_csv)
from .dist import DiscreteDistribution, FamilyPoint, spike_family, uniform
from .errors import AliasingError, DataShapeError, DimensionError, FamilyError, RangeError
from .measures import disequilibrium_sq, entropy_normalized, jsd, total_variation
from .optimize import (OptimumRecord, ResidualTriple, SimplexExtremum,
                       brute_force_simplex, build_optimum_table, lemma3_residual,
                       maximize_family, threshold, tv_residuals, write_table_csv)
from .sigproc import (DetectionMetrics, DetectionReport, HarmonicComponent,
                      SignalConfig, WindowSeries, classify_windows,
                      complexity_series, detect, read_samples,
                      reference_config, synthesize, write_report_json, write_samples,
                      write_series_csv)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "ComplexityKind", "DataShapeError", "DetectionMetrics",
    "DetectionReport", "DimensionError", "DiscreteDistribution", "FamilyError",
    "FamilyEvaluation", "FamilyPoint", "HarmonicComponent", "OptimumRecord",
    "RangeError", "ResidualTriple", "SignalConfig", "SimplexExtremum",
    "WindowSeries", "brute_force_simplex", "build_optimum_table",
    "classify_windows", "complexity_series", "complexity_value", "detect",
    "disequilibrium", "disequilibrium_sq", "entropy_normalized", "family_eval",
    "family_surface", "jsd", "lemma3_residual",
    "maximize_family", "read_samples", "reference_config", "simplex3_surface",
    "spike_family", "synthesize", "threshold", "total_variation",
    "tv_residuals", "uniform", "write_family_grid_csv", "write_report_json",
    "write_samples", "write_series_csv", "write_simplex_grid_csv",
    "write_table_csv", "__version__",
]
