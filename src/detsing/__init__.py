"""Exact embedded resolution of generic determinantal singularities.

Blow-up chart trees for the rank loci of generic symmetric and
skew-symmetric matrices over exact fields, with every ideal-theoretic
claim (chart contraction identities, determinant identities, leaf
regularity and transversality) machine-verified through a built-in
Gröbner engine.
"""

from .blowup import (
    Center,
    ChartMap,
    charts,
    make_chart,
    strict_transform_ideal,
    strict_transform_poly,
    total_transform,
)
from .errors import (
    BadParameters,
    CharTwoForbidden,
    DetsingError,
    NonHomogeneousGenerators,
    ResourceLimit,
    SizeTooSmall,
)
from .fields import QQ, PrimeField, field_from_name, field_name
from .groebner import (
    GroebnerBasis,
    MonomialOrder,
    elimination_order,
    grevlex_order,
    groebner,
    lex_order,
    normal_form,
    seed_leading_monomials,
)
from .matrices import (
    GenericMatrix,
    Ideal,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    pfaffian,
    principal_minors_ideal,
    submatrix,
)
from .resolution import (
    ChartNode,
    ResolutionReport,
    chart_identity,
    reduce_skew_chart,
    reduce_sym_diag_chart,
    reduce_sym_offdiag_chart,
    resolve_skew,
    resolve_sym,
)
from .rings import Polynomial, Ring, Substitution, embed, exact_div, ring
from .verify import (
    check_embedded_resolution,
    check_fact,
    check_leaf,
    check_lemma_counterexample,
    coordinate_subspace,
    ideal_contains,
    ideal_equal,
    radical_member,
    saturate,
    verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BadParameters",
    "Center",
    "ChartMap",
    "ChartNode",
    "CharTwoForbidden",
    "DetsingError",
    "GenericMatrix",
    "GroebnerBasis",
    "Ideal",
    "MonomialOrder",
    "NonHomogeneousGenerators",
    "Polynomial",
    "PrimeField",
    "QQ",
    "ResolutionReport",
    "ResourceLimit",
    "Ring",
    "SizeTooSmall",
    "Substitution",
    "chart_identity",
    "charts",
    "check_embedded_resolution",
    "check_fact",
    "check_leaf",
    "check_lemma_counterexample",
    "coordinate_subspace",
    "determinant",
    "elimination_order",
    "embed",
    "exact_div",
    "field_from_name",
    "field_name",
    "generic_skew",
    "generic_sym",
    "grevlex_order",
    "groebner",
    "ideal_contains",
    "ideal_equal",
    "lex_order",
    "make_chart",
    "minors",
    "minors_ideal",
    "normal_form",
    "pfaffian",
    "principal_minors_ideal",
    "radical_member",
    "reduce_skew_chart",
    "reduce_sym_diag_chart",
    "reduce_sym_offdiag_chart",
    "resolve_skew",
    "resolve_sym",
    "ring",
    "saturate",
    "seed_leading_monomials",
    "strict_transform_ideal",
    "strict_transform_poly",
    "submatrix",
    "total_transform",
    "verdict",
]
