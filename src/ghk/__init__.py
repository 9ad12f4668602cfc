"""Uniformity norms, cubic convolution products and anti-uniform
decompositions for compactly supported lattice step functions.

The toolkit computes the discrete (whole-cell shift) uniformity apparatus: in
this semantics the classical inequality chain (Cauchy-Schwarz over cubes,
Hoelder, Young) holds with constant one, so every bound is verified as a pure
float-tolerance check, and values converge to their continuum counterparts as
the lattice pitch shrinks.
"""

from .antiuniform import (
    AscentOptions,
    DecompositionResult,
    DualNormEstimate,
    corollary5,
    decompose,
    dual_norm_lower,
    triple_dual_lower,
    triple_norm,
)
from .budget import BudgetExceededError, set_memory_budget
from .cubes import FunctionTuple, VertexSet
from .dual import (
    continuity_modulus,
    dual_brute,
    dual_field,
    dual_rec,
    fourier_bound_gap,
    lemma1_gap,
    product_bound_gap,
    product_identity_gap,
)
from .exponents import (
    ExponentTriple,
    UniformityConstant,
    exponent_triple,
    holder_conjugate,
)
from .families import random_function, random_tuple
from .grid import (
    GridFunction,
    Spectrum,
    add,
    fourier,
    from_values,
    inner,
    integral,
    lp_norm,
    pointwise_mul,
    scale,
    shift,
)
from .gridio import read_ghk, read_grid, read_json, write_ghk, write_grid, write_json
from .norms import (
    csg_gap,
    gowers_inner,
    gowers_norm,
    gowers_norm_brute,
    gowers_norm_rec,
    gowers_norm_spectral_u2,
)
from .records import CheckRecord, SuiteReport

__version__ = "0.1.0"

__all__ = [
    "AscentOptions",
    "BudgetExceededError",
    "CheckRecord",
    "DecompositionResult",
    "DualNormEstimate",
    "ExponentTriple",
    "FunctionTuple",
    "GridFunction",
    "Spectrum",
    "SuiteReport",
    "UniformityConstant",
    "VertexSet",
    "add",
    "continuity_modulus",
    "corollary5",
    "csg_gap",
    "decompose",
    "dual_brute",
    "dual_field",
    "dual_norm_lower",
    "dual_rec",
    "exponent_triple",
    "fourier",
    "fourier_bound_gap",
    "from_values",
    "gowers_inner",
    "gowers_norm",
    "gowers_norm_brute",
    "gowers_norm_rec",
    "gowers_norm_spectral_u2",
    "holder_conjugate",
    "inner",
    "integral",
    "lemma1_gap",
    "lp_norm",
    "pointwise_mul",
    "product_bound_gap",
    "product_identity_gap",
    "random_function",
    "random_tuple",
    "read_ghk",
    "read_grid",
    "read_json",
    "scale",
    "set_memory_budget",
    "shift",
    "triple_dual_lower",
    "triple_norm",
    "write_ghk",
    "write_grid",
    "write_json",
]
