"""Input guards: each function refuses an argument below its domain
with a ValueError whose message names the bound."""

from functools import partial

import pytest

from hyperq import fence as fe
from hyperq import hyperbinary as hb
from hyperq import matrices as mx
from hyperq import qrational as qr
from hyperq import stern

GUARDS = [
    (hb.binary_expansion, -1, "n must be >= 0"),
    (hb.expansions, -1, "n must be >= 0"),
    (hb.h_count, -1, "n must be >= 0"),
    (hb.h_rs, -2, "h_rs is defined for n >= -1"),
    (hb.hbar_st, -2, "hbar_st is defined for n >= -1"),
    (partial(hb.h_q_range, w=1), -2, "limit must be >= -1"),
    (partial(hb.h_rs_range, w=1, k=2), -2, "limit must be >= -1"),
    (partial(hb.hbar_st_range, w=1, k=2), -2, "limit must be >= -1"),
    (hb.h_q_closed_form, -1, "n must be >= 0"),
    (hb.h_q_closed_form_applies, -1, "n must be >= 0"),
    (hb.min_element, -1, "n must be >= 0"),
    (hb.join_irreducibles, -1, "n must be >= 0"),
    (fe.fence, -1, "n must be >= 0"),
    (fe.qcw_fence, 0, "n must be >= 1"),
    (mx.entries_formula, 0, "n must be >= 1"),
    (stern.fusc_range, -1, "limit must be >= 0"),
    (stern.cw, -1, "cw is defined for n >= 0"),
    (qr.qdeform_cf, [], "empty continued fraction"),
]


def _id(f) -> str:
    """module.function, for a function or a ``partial`` of one."""
    f = getattr(f, "func", f)
    return f"{f.__module__.rpartition('.')[2]}.{f.__name__}"


@pytest.mark.parametrize("func,arg,message", GUARDS, ids=[_id(f) for f, _, _ in GUARDS])
def test_guard_message(func, arg, message):
    with pytest.raises(ValueError) as info:
        func(arg)
    assert str(info.value) == message
