"""Exact arithmetic for hyperbinary expansions and q-deformed rationals.

The package computes, with integer/Laurent-polynomial exactness:

* the diatomic sequence ``fusc`` and its q-analogue ``fusc_q``;
* hyperbinary expansions of n, their statistics, and the generating
  polynomials ``h_q``, ``h_rs``, ``hbar_st``;
* the partial order on expansions of a fixed n (a distributive
  lattice), with meet/join, irreducibles, and DOT rendering;
* fence posets, their order ideals and rank generating functions, and
  the weight-preserving isomorphism onto the expansion lattice;
* q-deformed rationals via continued fractions and via closure sets of
  oriented paths;
* the 2x2 L/R matrix products whose column sums recover ``h_q``.

Everything is pure Python; ``verify`` sweeps the identities over
ranges and reports exact failures, and the ``hyperq`` CLI exposes the
same computations and sweeps.
"""

from .poly import BiPoly, LaurentPoly, RatFunc, qint, qpow
from .stern import cw, cw_q, fusc, fusc_q, fusc_range
from .hyperbinary import (
    HBAR_NAMES,
    HyperStats,
    binary_expansion,
    covers,
    digits_text,
    digits_value,
    enum_polys,
    expansions,
    h_count,
    h_q,
    h_q_closed_form,
    h_q_closed_form_applies,
    h_q_enum,
    h_rs,
    h_rs_enum,
    hbar_st,
    hbar_st_enum,
    join,
    join_irreducibles,
    lattice_dot,
    leq,
    max_element,
    meet,
    min_element,
    parse_digits,
    principal_prefix,
    s_vector,
    stats,
    stats_rows,
)
from .qrational import (
    OrientedPath,
    UnsupportedDomain,
    cf_expand,
    cf_odd,
    closure_graph,
    closure_poly,
    closure_poly_brute,
    cw_index,
    left_delete,
    qdeform,
    qdeform_cf,
    qdeform_shift_check,
    qdeform_via_graph,
)
# the function ``fence`` stays ``hyperq.fence.fence``: re-exporting it
# here would shadow the module ``hyperq.fence``
from .fence import (
    FencePoset,
    IsoReport,
    fence_dot,
    ideal_count,
    ideal_members,
    ideals,
    ideals_dot,
    is_ideal,
    iso_check,
    qcw_fence,
    qcw_fence_check,
    rgf,
    rgf_of,
    stilde,
    weight_check,
)
from .matrices import (
    BiMat2,
    L,
    L_PRIME,
    Mat2,
    R,
    R_PRIME,
    det_check,
    entries_formula,
    m_of,
    m_prime_check,
    m_prime_of,
    m_prime_range,
    m_range,
    row_sum_check,
    word_of,
)
from .verify import REGISTRY, VerifyReport, run_verify

__version__ = "0.1.0"
