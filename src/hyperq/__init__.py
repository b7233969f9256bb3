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
``hyperq.verify``, ...).  Importing the root loads no module: each
re-exported name imports its module on first access (PEP 562), so a
cold ``hyperq fusc 19`` loads ``stern`` and ``poly`` and nothing else.
"""

__version__ = "0.1.0"

#: module -> the names the root re-exports from it
_EXPORTS = {
    "poly": ("BiPoly", "LaurentPoly", "RatFunc", "qint", "qpow"),
    "stern": ("cw", "cw_q", "fusc", "fusc_q"),
    "hyperbinary": ("enum_polys", "expansions", "expansions_upto", "h_q", "h_rs", "hbar_st"),
    "qrational": ("qdeform",),
    "matrices": ("L", "R", "m_of"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
