"""Statistical complexity of discrete spectral distributions.

Complexity is the product of normalized Shannon entropy and a
disequilibrium (distance from the uniform distribution); it vanishes on
both perfectly ordered and perfectly random spectra.  The package
provides three disequilibrium kinds, closed forms and optimizers over
the two-level distribution family, and a windowed spectral detector
with an analytically anchored threshold rule.
"""

from .complexity import (ComplexityKind, FamilyEvaluation, c_jsd, c_sq, c_tv,
                         complexity_value, disequilibrium,
                         family_complexity_direct, family_eval, family_surface,
                         simplex3_surface, write_family_grid_csv,
                         write_simplex_grid_csv)
from .dist import DiscreteDistribution, FamilyPoint, normalize, spike_family, uniform
from .errors import (AliasingError, DataShapeError, DegenerateInputError,
                     DimensionError, FamilyError, RangeError, SupportError)
from .measures import (FDivergenceSpec, disequilibrium_sq, entropy_normalized,
                       error_function, f_divergence, jsd, jsd_generator,
                       kl_divergence, kl_generator, total_variation, tv_generator)
from .optimize import (OptimumRecord, ResidualTriple, SimplexExtremum,
                       brute_force_simplex, build_optimum_table, lemma3_residual,
                       maximize_family, threshold, tv_residuals, write_table_csv)
from .sigproc import (DetectionMetrics, DetectionReport, HarmonicComponent,
                      SignalConfig, WindowSeries, classify_windows,
                      complexity_series, detect, indicator_mask, read_samples,
                      reference_config, report_to_dict, spectrum_distribution,
                      synthesize, write_report_json, write_samples,
                      write_series_csv)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "ComplexityKind", "DataShapeError",
    "DegenerateInputError", "DetectionMetrics", "DetectionReport",
    "DimensionError", "DiscreteDistribution", "FDivergenceSpec",
    "FamilyError", "FamilyEvaluation", "FamilyPoint",
    "HarmonicComponent", "OptimumRecord", "RangeError", "ResidualTriple",
    "SignalConfig", "SimplexExtremum", "SupportError", "WindowSeries",
    "brute_force_simplex", "build_optimum_table", "c_jsd", "c_sq", "c_tv", "classify_windows", "complexity_series",
    "complexity_value", "detect", "disequilibrium", "disequilibrium_sq",
    "entropy_normalized", "error_function", "f_divergence",
    "family_complexity_direct", "family_eval", "family_surface",
    "indicator_mask", "jsd", "jsd_generator", "kl_divergence",
    "kl_generator", "lemma3_residual", "maximize_family", "normalize",
    "read_samples", "reference_config", "report_to_dict",
    "simplex3_surface", "spectrum_distribution", "spike_family",
    "synthesize", "threshold", "total_variation", "tv_generator",
    "tv_residuals", "uniform", "write_family_grid_csv", "write_report_json",
    "write_samples", "write_series_csv", "write_simplex_grid_csv",
    "write_table_csv", "__version__",
]
