"""Exact jet-scheme computations for affine varieties over the rationals.

Sparse polynomials with Fraction coefficients, Groebner-basis machinery
with explicit budgets, truncated arc expansion, contact loci, and the
jet-theoretic discrepancy invariants built on top of them, plus a
deterministic command-line runner (see jetspace.cli).
"""

from .errors import (
    AgreementError,
    BudgetExhausted,
    JetspaceError,
    ParseError,
    PreconditionError,
    RingMismatchError,
)
from .groebner import (
    Budget,
    DEFAULT_BUDGET,
    DimensionResult,
    Ideal,
    gcd_poly,
    lcm_poly,
    normal_form,
    reduced_groebner,
)
from .invariants import (
    BlowupResult,
    BoundTable,
    InvariantReport,
    MldRow,
    TangentCone,
    ThresholdRow,
    check_mld_hat_equals_n,
    has_multiplicity_one_factor,
    lct_hat_bound,
    mld_hat_bound,
    mld_hat_from_lambda,
    ord_blowup_origin,
    tangent_cone,
)
from .jets import (
    ContactClause,
    JetIdeal,
    JetRing,
    LambdaReport,
    LambdaRow,
    contact_ideal,
    image_dimension,
    jacobian_ideal,
    jet_ideal,
    lambda_sequence,
    liftable_image_dim,
    pad_to_jet_ring,
    t_expand,
)
from .orders import GREVLEX, GRLEX, LEX, Block, GrevLex, GrLex, Lex, TermOrder, Weight
from .parser import parse_polynomial
from .poly import Polynomial, Ring, divide_exact, map_variables

__version__ = "0.1.0"

__all__ = [
    "AgreementError",
    "Block",
    "BlowupResult",
    "BoundTable",
    "Budget",
    "BudgetExhausted",
    "ContactClause",
    "DEFAULT_BUDGET",
    "DimensionResult",
    "GREVLEX",
    "GRLEX",
    "GrLex",
    "GrevLex",
    "Ideal",
    "InvariantReport",
    "JetIdeal",
    "JetRing",
    "JetspaceError",
    "LEX",
    "LambdaReport",
    "LambdaRow",
    "Lex",
    "MldRow",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "Ring",
    "RingMismatchError",
    "TangentCone",
    "TermOrder",
    "ThresholdRow",
    "Weight",
    "check_mld_hat_equals_n",
    "contact_ideal",
    "divide_exact",
    "gcd_poly",
    "has_multiplicity_one_factor",
    "image_dimension",
    "jacobian_ideal",
    "jet_ideal",
    "lambda_sequence",
    "lcm_poly",
    "lct_hat_bound",
    "liftable_image_dim",
    "map_variables",
    "mld_hat_bound",
    "mld_hat_from_lambda",
    "normal_form",
    "ord_blowup_origin",
    "pad_to_jet_ring",
    "parse_polynomial",
    "t_expand",
    "tangent_cone",
]
