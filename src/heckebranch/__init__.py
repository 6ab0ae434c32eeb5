"""Exact computational tools for branching laws, Littelmann path crystals,
and spherical Hecke algebra structure constants, with a verification harness
for the identities tying them together."""

from .errors import ConfigurationError, DomainError, FeasibilityError
from .rootdata import (
    RootDatum,
    SubsystemView,
    dual_star,
    k_phi,
    levi_view,
    pairing,
    parse_coweight,
    rho_height,
    root_datum,
    weyl_dim,
)
from .characters import (
    branch_decompose,
    branch_multiplicity,
    dominant_weights,
    tensor_decompose,
    tensor_multiplicity,
    weight_table,
)
from .parabolic import (
    geq_parabolic,
    minimal_offset,
    nilradical_roots,
    offset_pair,
)
from .littelmann import (
    endpoint_weight,
    f_op,
    generate_crystal,
    is_hecke_path,
)
from .hecke import (
    LaurentPoly,
    constant_term,
    constant_term_coefficient,
    hall_littlewood,
    hecke_product,
    orbit_size,
    satake_expand,
    structure_constant,
)
from .harness import CHECK_NAMES, SweepConfig, enumerate_instances, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES",
    "ConfigurationError",
    "DomainError",
    "FeasibilityError",
    "LaurentPoly",
    "RootDatum",
    "SubsystemView",
    "SweepConfig",
    "branch_decompose",
    "branch_multiplicity",
    "constant_term",
    "constant_term_coefficient",
    "dominant_weights",
    "dual_star",
    "endpoint_weight",
    "enumerate_instances",
    "f_op",
    "generate_crystal",
    "geq_parabolic",
    "hall_littlewood",
    "hecke_product",
    "is_hecke_path",
    "k_phi",
    "levi_view",
    "minimal_offset",
    "nilradical_roots",
    "offset_pair",
    "orbit_size",
    "pairing",
    "parse_coweight",
    "rho_height",
    "root_datum",
    "run_sweep",
    "satake_expand",
    "structure_constant",
    "tensor_decompose",
    "tensor_multiplicity",
    "weight_table",
    "weyl_dim",
]
