"""Steklov and mixed Steklov-Neumann spectra of warped products.

The spectrum of a warped product over a collar base is assembled from
weighted 1D boundary problems, one per (fiber eigenvalue, cross-section
mode) pair, and cross-checked by a direct tensor-grid solver on surfaces
of revolution. The experiment drivers reproduce, at desk scale, the
construction of fixed-volume-element metrics with large spectral gap.
"""

from .assembler import (
    Sigma1Result,
    first_eigenvalues,
    lower_bound_C,
    metric_recipes,
    sigma1_construction,
    steklov_spectrum_warped,
)
from .errors import (
    CompletenessError,
    ConfigError,
    DomainError,
    HypothesisViolationError,
    InfeasibleError,
    MeshResolutionError,
    NumericError,
    SteklovError,
    UnsupportedModeError,
)
from .linalg import PartitionedSystem, dtn_matrix, harmonic_extension, sym_eig
from .oracle import (
    ComparisonReport,
    RevolutionGrid,
    compare_with_assembler,
    make_grid,
    revolution_steklov,
)
from .profiles import WarpedMetricSpec, WarpProfile, volume_element_ratio
from .provenance import EigenSource, SpectrumEntry, SpectrumWithProvenance
from .spectra import (
    ClosedSpectrum,
    circle_spectrum,
    explicit_spectrum,
    flat_torus_spectrum,
    point_spectrum,
)
from .sturm import (
    BaseGeometry,
    NeumannEnd,
    SteklovEnd,
    SturmProblem,
    assemble,
    base_dtn_spectrum,
    dtn_eigenvalues,
    graded_mesh,
    rayleigh_quotient,
)

__all__ = [
    "BaseGeometry",
    "ClosedSpectrum",
    "ComparisonReport",
    "CompletenessError",
    "ConfigError",
    "DomainError",
    "EigenSource",
    "HypothesisViolationError",
    "InfeasibleError",
    "MeshResolutionError",
    "NeumannEnd",
    "NumericError",
    "PartitionedSystem",
    "RevolutionGrid",
    "Sigma1Result",
    "SpectrumEntry",
    "SpectrumWithProvenance",
    "SteklovEnd",
    "SteklovError",
    "SturmProblem",
    "UnsupportedModeError",
    "WarpProfile",
    "WarpedMetricSpec",
    "assemble",
    "base_dtn_spectrum",
    "circle_spectrum",
    "compare_with_assembler",
    "dtn_eigenvalues",
    "dtn_matrix",
    "explicit_spectrum",
    "first_eigenvalues",
    "flat_torus_spectrum",
    "graded_mesh",
    "harmonic_extension",
    "lower_bound_C",
    "make_grid",
    "metric_recipes",
    "point_spectrum",
    "rayleigh_quotient",
    "revolution_steklov",
    "sigma1_construction",
    "steklov_spectrum_warped",
    "sym_eig",
    "volume_element_ratio",
]

__version__ = "0.1.0"
