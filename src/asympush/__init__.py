"""Regularized integrals, singular asymptotic expansions and push-forwards.

The package turns three pieces of asymptotic analysis into computations:

- functions on (0, inf) with declared log-polynomial expansions at both ends
  (:mod:`asympush.asymfun`): regularized integrals, primitives, rescaling and
  the meromorphic continuation of the Mellin transform;
- the expansion of ``int_0^inf sigma(x, xz) dx`` for large ``z`` from declared
  two-variable asymptotic data (:mod:`asympush.singular_expansion`);
- the index-set combinatorics and the 2D laboratory for pushing densities
  forward under ``(x, y) -> x y`` and its blow-up
  (:mod:`asympush.indexsets`, :mod:`asympush.pushforward`).
"""

from .asymfun import (
    AsymFunction,
    from_expression,
    lim_inf,
    lim_zero,
    mellin,
    mellin_finite_part,
    power_log_multiply,
    primitive,
    pure_power,
    reg_integral,
    rescale,
    scale_reg_integral,
    schwartz,
)
from .expansions import Expansion, Term, make_side
from .indexsets import (
    ExponentMatrix,
    IndexEntry,
    IndexFamily,
    IndexSet,
    check_integrability,
    complete,
    extended_union,
    nullfaces,
    push_index_family,
)
from .logpoly import LogPolynomial, PoleError, moment_tail, moment_unit_interval
from .pushforward import (
    BlowupDensity,
    Density2D,
    DivergentIntegral,
    F_pushforward,
    blowup_density_from_expression,
    blowup_matrix,
    condition_C_check,
    density_from_expression,
    fit_asymptotics,
    push_xy,
    sal_prediction_smooth,
    sigma_from_density,
)
from .quadrature import QuadratureError, quad_01, quad_1inf, quad_interval
from .singular_expansion import (
    MissingExpansionData,
    SigmaFunction,
    SigmaTerm,
    asymptotic_expansion,
    check_hypotheses,
    corollary_expansion,
    separable_expansion,
    sigma_from_expression,
    verify_expansion,
)

__version__ = "0.1.0"
