"""Steklov and mixed Steklov-Neumann spectra of warped products.

The spectrum of a warped product over a collar base is assembled from
weighted 1D boundary problems, one per (fiber eigenvalue, cross-section
mode) pair, and cross-checked by a direct tensor-grid solver on surfaces
of revolution. The experiment drivers reproduce, at desk scale, the
construction of fixed-volume-element metrics with large spectral gap.
"""

from .assembler import (
    Sigma1Result,
    discretize,
    first_eigenvalues,
    lower_bound_C,
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
from .oracle import RevolutionGrid, make_grid
from .profiles import FunctionWarp, WarpedMetricSpec, WarpProfile, volume_element_ratio
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
    base_dtn_spectrum,
    dtn_eigenvalues,
    graded_mesh,
)

__all__ = [
    "BaseGeometry",
    "ClosedSpectrum",
    "CompletenessError",
    "ConfigError",
    "DomainError",
    "EigenSource",
    "FunctionWarp",
    "HypothesisViolationError",
    "InfeasibleError",
    "MeshResolutionError",
    "NeumannEnd",
    "NumericError",
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
    "base_dtn_spectrum",
    "circle_spectrum",
    "discretize",
    "dtn_eigenvalues",
    "explicit_spectrum",
    "first_eigenvalues",
    "flat_torus_spectrum",
    "graded_mesh",
    "lower_bound_C",
    "make_grid",
    "point_spectrum",
    "sigma1_construction",
    "steklov_spectrum_warped",
    "volume_element_ratio",
]

__version__ = "0.1.0"
