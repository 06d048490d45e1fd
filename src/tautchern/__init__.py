"""Exact symbolic Chern character and Chern class calculator for the
moduli space of stable n-pointed genus-g curves, together with a
truncated power series engine that machine-checks the underlying
curvature identities.
"""

from .algebra import (
    Gen,
    ModuliSpec,
    TautExpr,
    default_labels,
    delta_class,
    hodge_component,
    irr_push,
    kappa,
    kappa_tilde,
    marked_psi,
    monomial,
    monomial_degree,
    psi_power_sum,
    sep_push_sum,
)
from .biseries import (
    BiSeries,
    check_marked_point,
    check_node_correction,
    check_todd_bernoulli,
    kappa_correction_series_table,
    marked_point_product,
    marked_point_reference,
    node_correction_series,
    structure_sheaf_pair_ch,
    todd_dual_inverse_pair,
    todd_reciprocal,
)
from .formulas import (
    ChResult,
    boundary_argument,
    boundary_coefficient,
    canonical_class,
    ch_bundle,
    ch_cotangent,
    ch_tangent,
    chern_classes,
    chern_exp_oracle,
    chern_from_ch,
    delta_as_atoms,
    dualize,
    expand_concrete,
    expand_hodge,
    hodge_ch,
    kappa_coefficient,
    kappa_tilde_rewrite,
    rank,
    to_lambda_basis,
)
from .partitions import (
    SymPoly2,
    alternating_sym,
    partition_chern_coeff,
    partitions,
    power_sym,
)
from .rationals import DomainError, bernoulli, format_rational, kappa_correction
from .render import expr_from_json, render, render_json_dict

__version__ = "0.1.0"
