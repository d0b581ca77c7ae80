"""dgcalc: exact-arithmetic calculus on shifted-line bundles over CDGA models."""

from .graded import DgcalcError, Element, GradedError, GradedGenerator, Model, format_element
from .derivations import (
    BundleError,
    Derivation,
    DerivationError,
    DgBundle,
    commutator,
    gauge_transform,
    maurer_cartan_check,
    model_differential,
)

__all__ = [
    "DgcalcError",
    "Element",
    "GradedError",
    "GradedGenerator",
    "Model",
    "format_element",
    "BundleError",
    "Derivation",
    "DerivationError",
    "DgBundle",
    "commutator",
    "gauge_transform",
    "maurer_cartan_check",
    "model_differential",
]

__version__ = "0.1.0"
