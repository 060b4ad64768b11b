"""Exact-arithmetic socles, docles, Macaulay inverse systems and apolarity
for monomial ideals and homogeneous zero-dimensional Gorenstein ideals."""

from .errors import (
    AmbientMismatchError,
    ApolarError,
    DomainError,
    NotArtinianError,
    ParseError,
)
from .exponents import (
    Context,
    ExponentVector,
    add,
    leq,
    lex_cmp,
    lex_key,
    monomials_of_degree,
    sub_checked,
    unit_vector,
    zero_vector,
)
from .gorenstein import (
    GorensteinSpec,
    MonomialIffResult,
    SeriesSpec,
    antipodal,
    dual_socle_poly,
    monomial_iff_test,
    multinomial,
    pairing_is_nondegenerate,
    pairing_matrix,
    random_spec,
    series_annihilator_check,
    verify_gorenstein_ann,
)
from .graded_engine import (
    GradedSlice,
    HomogeneousIdealPresentation,
    ann_partial,
    colon_power_ideal,
    ideal_equals,
    power_ideal,
    reduce_mod_power_ideal,
)
from .monomial_ideal import (
    Antichain,
    MonomialIdeal,
    closure,
    colon_var,
    colon_var_saturate,
    decompose,
    docle,
    intersect,
    inverse_ideal,
    is_subideal,
    saturate,
    sq_leq,
)
from .parsing import parse_antichain, parse_ideal, parse_monomial, parse_polynomial
from .polynomial import (
    Polynomial,
    annihilates,
    contraction_action,
    diff_action,
)

__version__ = "0.1.0"
