"""Element-level reference arithmetic for the differential tests.

The library expands places and tests residue fields on index kernels only
(pointless.series, _Kernel.residue_gcd).  The tests compare them with the
independent implementations kept here, in FieldElement arithmetic:

* Series: truncated Laurent series of field elements, with Newton square
  roots, and poly_at_series (Horner on a series);
* QuotientField / QElement: F_q[x]/(m) for an irreducible m, whose class
  of x is a root of m;
* euclid_gcd: the element Euclid for Polys over either;
* fn_ab and fn_value: a function sum c x^i y^j on an rr_basis as the
  pair of Polys (A, B) with fn = A + B y, and its value at a point;
* local_xy_series, local_fn_series and vanishing_order: the double
  covers' local expansions on Series, over a FiniteField or a
  QuotientField.
"""

from pointless.errors import (
    DivisionByZero,
    MixedFields,
    NoSquareRoot,
    UnsupportedShape,
    ZeroFunction,
)
from pointless.field import Poly

EXACT = 10 ** 9  # precision marker for exact (polynomial) inputs


class Series:
    """coeffs[k] is the coefficient of t^(val+k); exponents >= prec are
    unknown.  Every operation tracks the worst-case precision."""

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec):
        self.field = field
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        del coeffs[max(0, prec - val):]
        self.val = val if coeffs else prec
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, [], prec)

    @classmethod
    def constant(cls, field, c, prec):
        return cls(field, 0, [c], prec)

    @classmethod
    def t(cls, field, prec):
        return cls(field, 1, [field.one], prec)

    def is_zero(self):
        """True when no nonzero coefficient is known (could be O(t^prec))."""
        return not self.coeffs

    def coefficient(self, k):
        if k >= self.prec:
            raise ValueError(f"coefficient of t^{k} beyond precision {self.prec}")
        if self.val <= k < self.val + len(self.coeffs):
            return self.coeffs[k - self.val]
        return self.field.zero

    def valuation(self):
        if self.is_zero():
            raise DivisionByZero("valuation of (numerically) zero series")
        return self.val

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        ends = [lo]
        if self.coeffs:
            ends.append(self.val + len(self.coeffs))
        if other.coeffs:
            ends.append(other.val + len(other.coeffs))
        hi = min(prec, max(ends))
        out = [self.field.zero] * (hi - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                k = s.val + i - lo
                if k < len(out):
                    out[k] = out[k] + c
        return Series(self.field, lo, out, prec)

    def __neg__(self):
        return Series(self.field, self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        prec = min(self.prec + other.val, other.prec + self.val)
        if self.is_zero() or other.is_zero():
            return Series(self.field, prec, [], prec)
        lo = self.val + other.val
        n = min(prec - lo, len(self.coeffs) + len(other.coeffs) - 1)
        out = [self.field.zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] = out[i + j] + a * b
        return Series(self.field, lo, out, prec)

    def scale(self, c):
        return Series(self.field, self.val, [c * a for a in self.coeffs], self.prec)

    def shift(self, k):
        """Multiply by t^k."""
        return Series(self.field, self.val + k, self.coeffs, self.prec + k)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero series")
        n = self.prec - self.val  # relative precision carries over
        inv0 = self.coeffs[0].inv()
        out = [inv0] + [self.field.zero] * (n - 1)
        for k in range(1, n):
            acc = self.field.zero
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return Series(self.field, -self.val, out, n - self.val)

    def __truediv__(self, other):
        return self * other.inv()

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return Series(self.field, self.val, self.coeffs[:max(0, prec - self.val)], prec)

    def sqrt(self):
        """Square root by Newton iteration: odd characteristic, even
        valuation, square leading coefficient."""
        if self.is_zero():
            return self
        if self.field.char == 2:
            raise NoSquareRoot("char-2 series square roots are not needed here")
        if self.val % 2:
            raise NoSquareRoot("odd valuation")
        body = Series(self.field, 0, self.coeffs, self.prec - self.val)
        n = body.prec
        half = (self.field.one + self.field.one).inv()
        r = Series.constant(self.field, body.coeffs[0].sqrt(), n)
        known = 1
        while known < n:
            known = min(2 * known, n)
            # Newton doubles the correct coefficients per step; pad the
            # iterate and declare the doubled precision explicitly
            padded = [r.coefficient(i) if i < r.prec else self.field.zero
                      for i in range(known)]
            r = Series(self.field, 0, padded, known)
            r = (r + body.truncate(known) / r).scale(half)
        return r.truncate(n).shift(self.val // 2)


def poly_at_series(f, s):
    """Evaluate the univariate Poly f at the series s (Horner)."""
    field = s.field
    acc = Series(field, EXACT, [], EXACT)
    for c in reversed(f.coeffs):
        acc = acc * s + Series.constant(field, c, EXACT)
    return acc


# ---------------------------------------------------------------------------
# residue fields F_q[x]/(m)
# ---------------------------------------------------------------------------

class QuotientField:
    """F_q[x]/(m) for m irreducible over F_q: the class of x is a root."""

    def __init__(self, modulus):
        self.modulus = modulus.monic()
        self.base = modulus.base
        self.deg = modulus.degree
        self.order = self.base.q ** self.deg
        self.char = self.base.p
        self.zero = QElement(self, Poly(self.base, []))
        self.one = QElement(self, Poly.constant(self.base, self.base.one))
        self.x_class = QElement(self, Poly.x(self.base) % self.modulus)

    def from_base(self, c):
        return QElement(self, Poly.constant(self.base, c))

    def elements(self):
        """Every element, by a base-q digit counter."""
        q = self.base.q
        for idx in range(self.order):
            digits = []
            v = idx
            while v:
                digits.append(self.base.from_index(v % q))
                v //= q
            yield QElement(self, Poly(self.base, digits))

    def __eq__(self, other):
        return isinstance(other, QuotientField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("quot", self.modulus))


class QElement:
    __slots__ = ("parent", "rep")

    def __init__(self, parent, rep):
        self.parent = parent
        self.rep = rep

    def is_zero(self):
        return self.rep.is_zero()

    def _check(self, other):
        if not isinstance(other, QElement) or other.parent != self.parent:
            raise MixedFields("operands belong to different quotient fields")

    def __add__(self, other):
        self._check(other)
        return QElement(self.parent, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return QElement(self.parent, self.rep - other.rep)

    def __neg__(self):
        return QElement(self.parent, -self.rep)

    def __mul__(self, other):
        self._check(other)
        return QElement(self.parent, (self.rep * other.rep) % self.parent.modulus)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.parent.modulus
        r0, r1 = m, self.rep
        F = self.parent.base
        s0, s1 = Poly(F, []), Poly.constant(F, F.one)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        return QElement(self.parent, (s0 * r0.lc.inv()) % m)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.parent.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, QElement) and self.parent == other.parent
                and self.rep == other.rep)

    def __hash__(self):
        return hash(("q", self.rep.coeffs))

    def is_square(self):
        if self.is_zero() or self.parent.char == 2:
            return True
        return self ** ((self.parent.order - 1) // 2) == self.parent.one

    def sqrt(self):
        K = self.parent
        if K.char == 2:
            out = self
            for _ in range(K.base.n * K.deg - 1):
                out = out * out
            return out
        if self.is_zero():
            return self
        if not self.is_square():
            raise NoSquareRoot("not a square in the quotient field")
        return _tonelli_shanks(K, self)


def _tonelli_shanks(field, v):
    q, one = field.order, field.one
    if q % 4 == 3:
        return v ** ((q + 1) // 4)
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    half = (q - 1) // 2
    z = next(u for u in field.elements()
             if not u.is_zero() and u ** half != one)
    c, t, r = z ** s, v ** s, v ** ((s + 1) // 2)
    while t != one:
        t2, i = t, 0
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (m - i - 1))
        m = i
        c = b * b
        t = t * c
        r = r * b
    return r


def euclid_gcd(f, g):
    """Monic gcd by the element Euclid, for Polys over any base."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# the double covers' functions and their local expansions on Series
# ---------------------------------------------------------------------------

def fn_ab(coeffs, basis, field):
    """Split sum c_ij x^i y^j into (A(x), B(x)) with fn = A + B y."""
    A = {}
    B = {}
    for (i, j), c in zip(basis, coeffs):
        if c.is_zero():
            continue
        (A if j == 0 else B)[i] = c

    def mk(d):
        if not d:
            return Poly(field, [])
        top = max(d)
        return Poly(field, [d.get(i, field.zero) for i in range(top + 1)])

    return mk(A), mk(B)


def fn_value(A, B, P):
    x, y = P
    return A.eval(x) + B.eval(x) * y


def local_xy_series(cubic, P, field, prec):
    """(x(t), y(t)) at the affine point P; t is x - x0 off 2-torsion and
    t = y at a 2-torsion point, where s = x - x0 comes from the fixed-point
    iteration s = (t^2 - higher(s)) / c'(x0)."""
    x0, y0 = P
    if not y0.is_zero():
        xs = Series(field, 0, [x0, field.one], prec)
        ys = poly_at_series(cubic, xs).truncate(prec).sqrt()
        if ys.coefficient(0) != y0:
            ys = -ys
        return xs, ys
    d = cubic.derivative().eval(x0)
    if d.is_zero():
        raise UnsupportedShape("singular point")
    t = Series.t(field, prec)
    t2 = t * t
    s = Series.zero(field, prec)
    dinv = d.inv()
    for _ in range(prec + 1):
        shifted = poly_at_series(cubic, Series(field, 0, [x0], prec) + s).truncate(prec)
        higher = shifted - s.scale(d)
        s = (t2 - higher).scale(dinv).truncate(prec)
    return Series(field, 0, [x0], prec) + s, t


def local_fn_series(A, B, cubic, P, field, prec):
    """The expansion of A + B y at P, in the local parameter above."""
    xs, ys = local_xy_series(cubic, P, field, prec)
    fs = (poly_at_series(A, xs).truncate(prec)
          + (poly_at_series(B, xs) * ys).truncate(prec))
    if fs.is_zero():
        raise ZeroFunction("function vanishes beyond the series precision")
    return fs


def vanishing_order(E, coeffs, basis, P, field=None, cubic=None, prec=12):
    """ord_P of sum c x^i y^j at an affine point P with coordinates in
    `field` (a FiniteField or QuotientField, by default E's base field)."""
    field = field or E.base
    cubic = cubic or E.cubic
    A, B = fn_ab(coeffs, basis, field)
    x0, y0 = P
    if not (A.eval(x0) + B.eval(x0) * y0).is_zero():
        return 0
    return local_fn_series(A, B, cubic, P, field, prec).valuation()
