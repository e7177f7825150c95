"""Kernel series arithmetic against the element Series reference."""

import random

import pytest

from pointless.errors import DivisionByZero, PrecisionExhausted
from pointless.field import FiniteField, Poly, _kernel
from pointless.series import (
    EXACT,
    _ser,
    _ser_add,
    _ser_coeff,
    _ser_horner,
    _ser_inv,
    _ser_mul,
    _ser_scale,
)

from element_reference import Series, poly_at_series

FIELDS = [FiniteField(5), FiniteField(3, 2, [-1, -1, 1]),
          FiniteField(5, 2, [2, -1, 1]), FiniteField(2, 3, [1, 1, 0, 1])]


def _random_series(F, rng, leading):
    """(kernel series, reference Series) with a random valuation and
    precision, the first coefficient nonzero when leading is set."""
    val, n = rng.randrange(-3, 4), rng.randrange(1, 8)
    cs = [rng.randrange(F.q) for _ in range(n)]
    if leading:
        cs[0] = rng.randrange(1, F.q)
    prec = val + n + rng.randrange(0, 3)
    return (_ser(val, cs, prec),
            Series(F, val, [F.from_index(c) for c in cs], prec))


def _same(F, got, want):
    """Equal valuation, precision and stored coefficients: both strip
    leading zeros and truncate at the precision the same way."""
    return got == (want.val, [F.index(c) for c in want.coeffs], want.prec)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"F{F.q}")
def test_arithmetic_equals_reference(F):
    kern = _kernel(F)
    rng = random.Random(F.q)
    for _ in range(60):
        (a, ra), (b, rb) = (_random_series(F, rng, False) for _ in range(2))
        assert _same(F, _ser_add(kern, a, b), ra + rb)
        assert _same(F, _ser_mul(kern, a, b), ra * rb)
        c = rng.randrange(1, F.q)
        assert _same(F, _ser_scale(kern, a, c), ra.scale(F.from_index(c)))
        u, ru = _random_series(F, rng, True)
        assert _same(F, _ser_inv(kern, u), ru.inv())
        f = ([rng.randrange(F.q) for _ in range(rng.randrange(0, 4))]
             + [rng.randrange(1, F.q)])
        assert _same(F, _ser_horner(kern, f, a),
                     poly_at_series(Poly(F, [F.from_index(v) for v in f]), ra))


def test_zero_series_inverse():
    kern = _kernel(FIELDS[0])
    t = _ser(1, [1], EXACT)
    for zero in (_ser(0, [], EXACT), _ser_mul(kern, _ser(0, [0], EXACT), t)):
        with pytest.raises(DivisionByZero):
            _ser_inv(kern, zero)
    # zero as far as it is known, and unknown past precision 3: the
    # inverse needs more precision, not a nonzero series
    short = _ser(0, [0, 0, 0], 3)
    with pytest.raises(PrecisionExhausted, match="precision 3"):
        _ser_inv(kern, short)
    with pytest.raises(PrecisionExhausted, match="beyond precision 3"):
        _ser_coeff(short, 3)
    assert _ser_coeff(short, 2) == 0
