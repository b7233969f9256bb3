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

The package root re-exports the value types and the names the README
documents; everything else is imported from its module (``hyperq.fence``,
``hyperq.verify``, ...).
"""

from .poly import BiPoly, LaurentPoly, RatFunc, qint, qpow
from .stern import cw, cw_q, fusc, fusc_q
from .hyperbinary import enum_polys, expansions, expansions_upto, h_q, h_rs, hbar_st
from .qrational import qdeform
from .matrices import L, R, m_of

__version__ = "0.1.0"
