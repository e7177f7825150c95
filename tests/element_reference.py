"""Element-level reference arithmetic for the differential tests.

The library expands places, tests residue fields, takes square roots,
factors polynomials, interpolates and runs the elliptic group law on
index kernels only (pointless.series, _Kernel.residue_gcd,
FieldElement.sqrt, _Kernel.factor, search._node_value_forms,
EllipticCurve).  The tests compare them with the independent
implementations kept here, all but the last two in FieldElement
arithmetic:

* Series: truncated Laurent series of field elements, with Newton square
  roots, and poly_at_series (Horner on a series);
* QuotientField / QElement: F_q[x]/(m) for an irreducible m, whose class
  of x is a root of m, with Tonelli-Shanks square roots;
* euclid_gcd: the element Euclid for Polys over either;
* _element_factor, _element_is_irreducible and _element_squarefree_part:
  Poly's factorisation by square-free decomposition, distinct-degree split
  and Cantor-Zassenhaus, and Rabin's test, on pow_mod, pth_root and
  euclid_gcd;
* roots and interpolate: the roots of a Poly by evaluation at every
  element, and the Lagrange interpolant;
* ElementCurve: an elliptic curve's points, group law, 2-torsion and
  quotient representatives on FieldElement pairs;
* fn_ab and fn_value: a function sum c x^i y^j on an rr_basis as the
  pair of Polys (A, B) with fn = A + B y, and its value at a point;
* local_xy_series, local_fn_series and vanishing_order: the double
  covers' local expansions on Series, over a FiniteField or a
  QuotientField;
* dlog_tables_reference: an extension's exp/log tables by one
  matrix-vector product per element, from a generator found by
  FieldElement powers, against FiniteField.dlog_tables' chunk-table walk
  and its generator test on the prime field's kernel;
* fiber_product_count: a genus-4 fiber product's own character sum over
  F_{q^i}, on the index kernel, against FiberProductGenus4's count through
  its three hyperelliptic quotients.
"""

import random

from pointless.errors import (
    DivisionByZero,
    MixedFields,
    NoSquareRoot,
    PointlessError,
    UnsupportedShape,
    ZeroFunction,
)
from pointless.curves import _extension
from pointless.field import Poly, _prime_factors

EXACT = 10 ** 9  # precision marker for exact (polynomial) inputs


class DuplicateNodes(PointlessError):
    """interpolate was given the same node twice."""


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


def derivative(f):
    """f' for a Poly over any base, the integer i built as 1 + ... + 1."""
    F = f.base
    out = []
    k = F.zero
    for c in f.coeffs[1:]:
        k = k + F.one
        out.append(c * k)
    return Poly(F, out)


def euclid_gcd(f, g):
    """Monic gcd by the element Euclid, for Polys over any base."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# factorisation in FieldElement arithmetic
# ---------------------------------------------------------------------------

def pow_mod(f, e, modulus):
    """f^e mod modulus by square-and-multiply."""
    result = Poly.constant(f.base, f.base.one)
    base = f % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def pth_root(f):
    """For f with f' = 0: the unique g with g^p = f (finite fields are
    perfect)."""
    F = f.base
    return Poly(F, [c ** (F.q // F.p) for c in f.coeffs[::F.p]])


def _element_factor(f):
    """Poly.factor in FieldElement arithmetic."""
    out = []
    for g, m in _squarefree_decomposition(f.monic()):
        for prod, d in _distinct_degree_factorization(g):
            for piece in _equal_degree_factor(prod, d):
                out.append((piece, m))
    out.sort(key=lambda t: (t[0].degree, [f.base.index(c) for c in t[0].coeffs]))
    return out


def _element_is_irreducible(f):
    """Poly.is_irreducible in FieldElement arithmetic (Rabin's test)."""
    f = f.monic()
    d = f.degree
    if d <= 0:
        return False
    F = f.base
    x = Poly.x(F)
    if (pow_mod(x, F.q ** d, f) - x) % f != Poly(F, []):
        return False
    for r in set(_prime_factors(d)):
        g = euclid_gcd(f, pow_mod(x, F.q ** (d // r), f) - x)
        if g.degree > 0:
            return False
    return True


def _element_squarefree_part(f):
    acc = Poly.constant(f.base, f.base.one)
    for g, _ in _squarefree_decomposition(f.monic()):
        acc = acc * g
    return acc


def _squarefree_decomposition(f):
    F = f.base
    p = F.p
    if f.degree <= 0:
        return []
    out = {}
    a = euclid_gcd(f, derivative(f))   # f itself when f' = 0
    w = f // a
    i = 1
    while w.degree > 0:
        y = euclid_gcd(w, a)
        z = w // y
        if z.degree > 0:
            out[z.monic()] = out.get(z.monic(), 0) + i
        w = y
        a = a // y
        i += 1
    if a.degree > 0:
        # remaining part is a p-th power
        for g, m in _squarefree_decomposition(pth_root(a)):
            out[g] = out.get(g, 0) + m * p
    return sorted(out.items(), key=lambda t: t[1])


def _distinct_degree_factorization(f):
    """On monic squarefree f: [(product of irreducibles of degree d, d)]."""
    F = f.base
    out = []
    x = Poly.x(F)
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = pow_mod(h, F.q, f)
        g = euclid_gcd(f, h - x)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    return out


def _equal_degree_factor(f, d):
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    if f.degree == 0:
        return []
    if f.degree == d:
        return [f.monic()]
    F = f.base
    rng = random.Random(hash((f.coeffs, d)) & 0xFFFFFFFF)
    n = f.degree
    while True:
        r = Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(n)])
        if r.degree < 1:
            continue
        if F.p == 2:
            k = F.n * d
            t = r
            acc = r
            for _ in range(k - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            g = euclid_gcd(f, acc)
        else:
            g = euclid_gcd(f, pow_mod(r, (F.q ** d - 1) // 2, f)
                           - Poly.constant(F, F.one))
        if 0 < g.degree < f.degree:
            return (_equal_degree_factor(g, d)
                    + _equal_degree_factor(f // g, d))


# ---------------------------------------------------------------------------
# roots, interpolation and the elliptic group law in FieldElement arithmetic
# ---------------------------------------------------------------------------

def roots(f):
    """The roots of the Poly f in its base field, sorted by canonical
    element order: the elements at which f vanishes, an enumeration
    independent of the index kernel that root counts and factorisations
    are checked against."""
    if f.is_zero():
        raise DivisionByZero("zero polynomial vanishes everywhere")
    return [v for v in f.base.elements() if f.eval(v).is_zero()]


def interpolate(base, nodes, values):
    """The Lagrange interpolant of values at the distinct nodes."""
    if len(set(nodes)) != len(nodes):
        raise DuplicateNodes("interpolation nodes must be distinct")
    result = Poly(base, [])
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        num = Poly.constant(base, base.one)
        den = base.one
        for j, xj in enumerate(nodes):
            if i == j:
                continue
            num = num * Poly(base, [-xj, base.one])
            den = den * (xi - xj)
        result = result + num * (yi / den)
    return result


INF = None


class ElementCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with points as FieldElement pairs:
    EllipticCurve's points, group law, 2-torsion and quotient
    representatives on elements.  a2, a4 and a6 are anything
    base.element takes; of(E) is the curve of an EllipticCurve E."""

    def __init__(self, base, a2, a4, a6):
        self.base = base
        self.a2, self.a4, self.a6 = (base.element(a) for a in (a2, a4, a6))
        self.cubic = Poly(base, [self.a6, self.a4, self.a2, base.one])

    @classmethod
    def of(cls, E):
        F = E.base
        return cls(F, *(F.from_index(a) for a in (E.a2, E.a4, E.a6)))

    def contains(self, P):
        if P is INF:
            return True
        x, y = P
        return y * y == self.cubic.eval(x)

    def points(self):
        pts = [INF]
        for x in self.base.elements():
            v = self.cubic.eval(x)
            if v.is_zero():
                pts.append((x, self.base.zero))
            elif v.is_square():
                y = v.sqrt()
                pts.append((x, y))
                pts.append((x, -y))
        return pts

    def neg(self, P):
        if P is INF:
            return INF
        return (P[0], -P[1])

    def add(self, P, Q):
        if P is INF:
            return Q
        if Q is INF:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 == -y2:
                return INF
            two = self.base.element(2)
            three = self.base.element(3)
            lam = (three * x1 * x1 + two * self.a2 * x1 + self.a4) / (two * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - self.a2 - x1 - x2
        y3 = lam * (x1 - x3) - y1
        return (x3, y3)

    def smul(self, n, P):
        if n < 0:
            return self.smul(-n, self.neg(P))
        R = INF
        A = P
        while n:
            if n & 1:
                R = self.add(R, A)
            A = self.add(A, A)
            n >>= 1
        return R

    def two_torsion(self):
        return [INF] + [(x, self.base.zero) for x in roots(self.cubic)]

    def quotient_reps(self, m):
        """One representative per coset of m E(F_q): the first point
        outside the 2-torsion, else the first affine point, else the first
        member."""
        pts = self.points()
        image = {self.smul(m, P) for P in pts}
        tors = set(self.two_torsion())
        cosets = []
        for P in pts:
            for members in cosets:
                if self.add(P, self.neg(members[0])) in image:
                    members.append(P)
                    break
            else:
                cosets.append([P])
        out = []
        for members in cosets:
            affine = [P for P in members if P is not INF]
            pick = next((P for P in affine if P not in tors), None)
            if pick is None:
                pick = affine[0] if affine else members[0]
            out.append(pick)
        return out


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
    d = derivative(cubic).eval(x0)
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
    cubic = cubic or ElementCurve.of(E).cubic
    A, B = fn_ab(coeffs, basis, field)
    x0, y0 = P
    if not (A.eval(x0) + B.eval(x0) * y0).is_zero():
        return 0
    return local_fn_series(A, B, cubic, P, field, prec).valuation()


# ---------------------------------------------------------------------------
# exp/log tables by a matrix-vector product per element
# ---------------------------------------------------------------------------

def dlog_tables_reference(F):
    """FiniteField.dlog_tables on an extension by the n x n walk: the
    generator is the first primitive element in canonical order, found
    from index 1 by FieldElement powers, and each power is the last times g
    as the F_p-linear map whose columns are a^k * g mod the defining
    polynomial."""
    p, n, q = F.p, F.n, F.q
    factors = set(_prime_factors(q - 1))
    mod = F.defining_poly

    def coeffs(i):
        out = []
        for _ in range(n):
            i, c = divmod(i, p)
            out.append(c)
        return out

    g = next(v for v in range(1, q)
             if all(F.from_index(v) ** ((q - 1) // r) != F.one
                    for r in factors))
    cols = [coeffs(g)]                 # cols[k] = a^k * g, padded to n
    for _ in range(n - 1):
        up = [0] + cols[-1]            # times a, then reduce a^n
        top = up.pop()
        cols.append([(c - top * m) % p for c, m in zip(up, mod)])
    exp = [0] * (q - 1)
    log = [None] * q
    acc = [1] + [0] * (n - 1)
    for k in range(q - 1):
        idx = 0
        for c in reversed(acc):
            idx = idx * p + c
        exp[k] = idx
        log[idx] = k
        out = [0] * n
        for c, col in zip(acc, cols):
            if c:
                for i, v in enumerate(col):
                    out[i] += c * v
        acc = [v % p for v in out]
    return exp, log


# ---------------------------------------------------------------------------
# genus-4 fiber products by their own character sum
# ---------------------------------------------------------------------------

def fiber_product_count(C, i):
    """N_i of y^2 = f(x), z^2 = g(x) over F_{q^i}: the sum over Frobenius
    orbits of w s(f(x)) s(g(x)), plus s(lc f lc g) for the points at
    infinity, with s = 2 / 1 / 0 for a nonzero square / zero / nonsquare.
    Each s(f(x)) s(g(x)) is constant on the orbit of x under x -> x^q, so
    one representative per orbit, weighted by its size w, counts them."""
    _, imap, kern, orbits = _extension(C.base, i)
    f = [imap[c] for c in C._f]
    g = [imap[c] for c in C._g]
    horner, roots = kern.horner, kern.sqrt_count
    total = sum(w * roots(horner(f, x)) * roots(horner(g, x))
                for x, w in orbits)
    return total + roots(kern.mul(f[-1], g[-1]))
