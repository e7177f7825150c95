"""Weierstrass elliptic curves over odd-characteristic fields: group law,
Riemann-Roch monomial spaces L(k*infinity), and the divisor shapes and
point counts of the double covers z^2 = fn that the double-cover searches
test.

Points are None (infinity) or (x, y) tuples of field elements.  A function
fn = A + B y enters divisor_shape and cover_count as coefficients on an
rr_basis and is taken to index polynomials A, B once: divisor_shape works
on base-field index polynomials (the norm A^2 - B^2 c, its factors, and
Euler's criterion modulo each factor), and cover_count expands fn at its
zeros as truncated series of indices on the index kernel of the field the
point lies in (pointless.series).
"""

from math import gcd, isqrt

from .errors import (
    EmptyCosetUnderConstraint,
    EvenCharacteristic,
    MixedCurves,
    UnsupportedShape,
    ZeroFunction,
)
from .curves import _extension, _index_poly
from .field import Poly, _kernel, _prime_factors
from .series import (
    EXACT,
    _ser,
    _ser_add,
    _ser_coeff,
    _ser_cubic_branch,
    _ser_horner,
    _ser_mul,
    _ser_sqrt,
    _ser_truncate,
)

INF = None


class EllipticCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over a field of odd characteristic."""

    def __init__(self, base, a2, a4, a6):
        if base.p == 2:
            raise EvenCharacteristic("only odd-characteristic Weierstrass models")
        self.base = base
        self.a2 = base.element(a2)
        self.a4 = base.element(a4)
        self.a6 = base.element(a6)
        self.cubic = Poly(base, [self.a6, self.a4, self.a2, base.one])
        if not self.cubic.is_separable():
            raise UnsupportedShape("singular model: the cubic has a repeated root")
        self._points = None

    def __eq__(self, other):
        return (isinstance(other, EllipticCurve) and self.base == other.base
                and (self.a2, self.a4, self.a6) == (other.a2, other.a4, other.a6))

    def __hash__(self):
        return hash((self.a2, self.a4, self.a6))

    def __repr__(self):
        return (f"EllipticCurve(y^2 = x^3 + ({self.a2!r})x^2 "
                f"+ ({self.a4!r})x + ({self.a6!r}) / GF({self.base.q}))")

    def contains(self, P):
        if P is INF:
            return True
        x, y = P
        return y * y == self.cubic.eval(x)

    def points(self):
        if self._points is None:
            pts = [INF]
            for x in self.base.elements():
                v = self.cubic.eval(x)
                if v.is_zero():
                    pts.append((x, self.base.zero))
                elif v.is_square():
                    y = v.sqrt()
                    pts.append((x, y))
                    pts.append((x, -y))
            self._points = pts
        return self._points

    def order(self):
        return len(self.points())

    # -- group law ------------------------------------------------------

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

    def point_order(self, P):
        if P is not INF and not self.contains(P):
            raise MixedCurves("point not on this curve")
        N = self.order()
        o = N
        for p in set(_prime_factors(N)):
            while o % p == 0 and self.smul(o // p, P) is INF:
                o //= p
        return o

    def group_structure(self):
        """(n1, n2) with E(F_q) = Z/n1 x Z/n2, n1 | n2."""
        N = self.order()
        e = 1
        for P in self.points():
            o = self.point_order(P)
            e = e * o // gcd(e, o)
        return (N // e, e)

    def two_torsion(self):
        return [INF] + [(x, self.base.zero) for x in self.cubic.roots()]

    def quotient_reps(self, m, exclude_two_torsion=True, fallback=False):
        """One representative per coset of m E(F_q), avoiding 2-torsion when
        requested.  With fallback=False a coset with no admissible
        representative raises EmptyCosetUnderConstraint."""
        if m not in (2, 3):
            raise ValueError("m must be 2 or 3")
        pts = self.points()
        image = {self.smul(m, P) for P in pts}
        tors = set(self.two_torsion())
        cosets = []  # list of lists of members
        reps_keys = []
        for P in pts:
            placed = False
            for i, rep in enumerate(reps_keys):
                if self.add(P, self.neg(rep)) in image:
                    cosets[i].append(P)
                    placed = True
                    break
            if not placed:
                reps_keys.append(P)
                cosets.append([P])
        out = []
        for members in cosets:
            # an affine representative is always preferred: the point at
            # infinity cannot serve as the auxiliary double-zero point
            affine = [P for P in members if P is not INF]
            if not exclude_two_torsion:
                out.append(affine[0] if affine else members[0])
                continue
            pick = next((P for P in affine if P not in tors), None)
            if pick is None:
                if not fallback:
                    raise EmptyCosetUnderConstraint(
                        "coset consists entirely of 2-torsion points")
                pick = affine[0] if affine else members[0]
            out.append(pick)
        return out


def hasse_interval(q):
    t = isqrt(4 * q)
    return (q + 1 - t, q + 1 + t)


# ---------------------------------------------------------------------------
# Riemann-Roch monomials and functions
# ---------------------------------------------------------------------------

def rr_basis(k):
    """Monomials x^i y^j with 2i + 3j <= k, j <= 1, ordered by pole order."""
    if k > 8:
        raise UnsupportedShape("pole-order budget k <= 8")
    out = []
    for j in (0, 1):
        for i in range(0, (k - 3 * j) // 2 + 1 if k - 3 * j >= 0 else 0):
            out.append((i, j))
    out.sort(key=lambda m: (2 * m[0] + 3 * m[1], m[1]))
    return out


def fn_pole_order(coeffs, basis):
    orders = [2 * i + 3 * j for (i, j), c in zip(basis, coeffs) if not c.is_zero()]
    if not orders:
        raise ZeroFunction("the zero function has no divisor")
    return max(orders)


# ---------------------------------------------------------------------------
# local expansions and vanishing orders
# ---------------------------------------------------------------------------

# Every order read below is at most k <= 8, the limit in rr_basis: the
# zeros of fn in L(k*infinity) have degree k in all, so coefficients of
# t^0 .. t^8 decide each valuation and its leading coefficient.
EXPANSION_PREC = 9


def _local_xy_series(kern, c, x0, y0):
    """(x(t), y(t)) at the affine point (x0, y0) of y^2 = c(x), as series of
    the kernel's indices: t is x - x0 off 2-torsion and t = y at a
    2-torsion point, where x = x0 + s(t) with c(x0 + s) = t^2."""
    prec = EXPANSION_PREC
    if y0:
        xs = _ser(0, [x0, 1], prec)
        return xs, _ser_sqrt(kern, _ser_truncate(_ser_horner(kern, c, xs),
                                                 prec), y0)
    # the Taylor coefficients d1, d2, d3 of c at x0 (c(x0) = 0)
    taylor = _ser_horner(kern, c, _ser(0, [x0, 1], EXACT))
    d1, d2, d3 = (_ser_coeff(taylor, k) for k in (1, 2, 3))
    if not d1:
        raise UnsupportedShape("singular point")  # cannot happen on a curve
    s = _ser_cubic_branch(kern, d1, 0, d2, d3, prec)
    return _ser(0, [x0] + s[1:], prec), _ser(1, [1], prec)


def _local_fn_series(kern, A, B, c, x0, y0):
    """The expansion of A + B y at the affine point (x0, y0), in the local
    parameter of _local_xy_series; A, B and c are index polynomials."""
    prec = EXPANSION_PREC
    xs, ys = _local_xy_series(kern, c, x0, y0)
    fs = _ser_add(kern, _ser_truncate(_ser_horner(kern, A, xs), prec),
                  _ser_truncate(_ser_mul(kern, _ser_horner(kern, B, xs), ys),
                                prec))
    if not fs[1]:
        raise ZeroFunction("function vanishes beyond the series precision")
    return fs


def _fn_indices(basis, idx):
    """(A, B) as index lists in x, for fn = A + B y with the coefficient
    indices idx on basis."""
    A, B = [0] * len(basis), [0] * len(basis)
    for (mi, mj), v in zip(basis, idx):
        (B if mj else A)[mi] = v
    return A, B


# ---------------------------------------------------------------------------
# divisor shape (test 2 of the double-cover searches)
# ---------------------------------------------------------------------------

def divisor_shape(E, coeffs, basis, Q, k):
    """Analyze div(fn) for fn = sum c x^i y^j in L(k*infinity).

    Returns a dict with pole_order_at_inf, ord_at_Q, odd_order_zero_count
    (geometric points in odd-order zero places away from Q),
    rational_odd_zero_count (the subset of those at rational points), and
    shape_ok: pole exactly k, a double zero at Q, and k-2 odd-order
    geometric zeros, none of them rational.  A rational odd-order zero is a
    rational ramified point of the cover z^2 = fn, so the required divisor
    form excludes it.

    The zeros lie over the roots of the norm R = A^2 - B^2 c of
    fn = A + B y.  Each monic irreducible factor `piece` of R, of degree e
    and multiplicity m with a root alpha, is one of three kinds, and the
    orders follow without leaving the base field:

    * ramified (c(alpha) = 0, exactly when piece divides c): one point of
      order m over each root;
    * inert (c(alpha) a nonsquare in F_{q^e}): two conjugate points of
      order m/2 each;
    * split: two points (alpha, +-beta), of orders j and m - j, where j
      is the multiplicity of piece in gcd(A, B).  Proof: dividing out
      piece^j leaves f1 = A1 + B1 y, and f1 cannot vanish at both points,
      which would force A1(alpha) = B1(alpha) = 0 since beta != 0 and the
      characteristic is odd; so f1 has orders 0 and m - 2j.  At Q itself,
      ord_Q = m - j when f1(Q) = 0 and j otherwise.

    The kind is read in F_q[x]/(piece), a copy of F_{q^e} in which the
    class of x is alpha, so the residue r = c mod piece is c(alpha): it is
    zero exactly at a ramified piece, and otherwise Euler's criterion in
    F_{q^e}, r^((q^e - 1)/2) = 1, tells split from inert.  Everything runs
    on base-field index polynomials.
    """
    F = E.base
    kern = _kernel(F)
    pole = fn_pole_order(coeffs, basis)
    A, B = _fn_indices(basis, [F.index(cf) for cf in coeffs])
    c = _index_poly(E.cubic)
    pmul, pmod, pquo = kern._pmul, kern._pmod, kern._pquo
    R = kern._psub(pmul(A, A), pmul(pmul(B, B), c))
    if not R:
        # A^2 = B^2 c would make c a square, impossible for separable cubic
        raise ZeroFunction("degenerate norm")
    G = kern.gcd(A, B)
    xQ, yQ = F.index(Q[0]), F.index(Q[1])
    ord_Q = 0
    odd_points = 0
    rational_odd = 0
    total_zeros = 0
    for piece, m in kern.factor(R):
        e = len(piece) - 1
        total_zeros += m * e
        at_Q = e == 1 and kern.neg(piece[0]) == xQ
        r = pmod(c, piece)
        if not r:
            # ramified: one point of order m over each root of piece
            if at_Q:
                ord_Q = m
            elif m % 2 == 1:
                odd_points += e
                rational_odd += e == 1
            continue
        if kern.powmod(r, (F.q ** e - 1) // 2, piece) != [1]:
            # inert: order m/2 at each of the two conjugate points
            if (m // 2) % 2 == 1:
                odd_points += 2 * e
            continue
        # split: j = the multiplicity of piece in G, and A1, B1 the
        # cofactors of piece^j in A and B
        j, g, A1, B1 = 0, G, A, B
        while not pmod(g, piece):
            g, A1, B1 = pquo(g, piece), pquo(A1, piece), pquo(B1, piece)
            j += 1
        if at_Q:
            f1 = kern.add(kern.horner(A1, xQ),
                          kern.mul(kern.horner(B1, xQ), yQ))
            ord_Q = j if f1 else m - j
            orders = (m - ord_Q,)
        else:
            orders = (j, m - j)
        for v in orders:
            if v % 2 == 1:
                odd_points += e
                rational_odd += e == 1
    shape_ok = (pole == k and ord_Q == 2 and odd_points == k - 2
                and rational_odd == 0)
    return {
        "pole_order_at_inf": pole,
        "ord_at_Q": ord_Q,
        "odd_order_zero_count": odd_points,
        "rational_odd_zero_count": rational_odd,
        "total_zero_degree": total_zeros,
        "shape_ok": shape_ok,
    }


# ---------------------------------------------------------------------------
# point counts of the double cover z^2 = fn
# ---------------------------------------------------------------------------

def cover_count(E, coeffs, basis, i=1):
    """#D(F_{q^i}) for the double cover D: z^2 = fn of E.

    Runs on the index kernel of F_{q^i}: per Frobenius orbit of x (see
    curves._extension), c(x), A(x) and B(x) come from Horner on indices,
    y = sqrt(c(x)) from the halved discrete log, and each of the points
    (x, +-y) adds 2 or 0 by the log parity of fn there, times the orbit's
    size.  Only a point where fn vanishes takes a local expansion, on the
    same kernel: an odd order adds 1, an even one 2 or 0 by the square
    class of the leading coefficient.
    """
    pole = fn_pole_order(coeffs, basis)
    _, imap, kern, orbits = _extension(E.base, i)
    idx = [imap[E.base.index(cf)] for cf in coeffs]
    A, B = _fn_indices(basis, idx)
    c = [imap[v] for v in _index_poly(E.cubic)]
    horner, add, mul, neg = kern.horner, kern.add, kern.mul, kern.neg
    exp, log = kern.exp, kern.log
    total = 0
    for x, w in orbits:
        cx = horner(c, x)
        if not cx:
            pts = ((0, horner(A, x)),)
        elif log[cx] & 1:
            continue                      # no point of E above x
        else:
            y = exp[log[cx] >> 1]
            ax, by = horner(A, x), mul(horner(B, x), y)
            pts = ((y, add(ax, by)), (neg(y), add(ax, neg(by))))
        for y, v in pts:
            if not v:       # a zero of fn: read its order and leading term
                order, (v, *_), _ = _local_fn_series(kern, A, B, c, x, y)
                if order % 2:
                    total += w
                    continue
            if not log[v] & 1:
                total += 2 * w
    # the points above infinity
    if pole % 2 == 1:
        return total + 1
    top = next(v for (mi, mj), v in zip(basis, idx) if 2 * mi + 3 * mj == pole)
    return total + kern.sqrt_count(top)
