"""Weierstrass elliptic curves over odd-characteristic fields: group law,
Riemann-Roch monomial spaces L(k*infinity), and the divisor shapes and
point counts of the double covers z^2 = fn that the double-cover searches
test.

Everything runs on base-field indices.  Points are None (infinity) or
(x, y) index pairs, on which the group law and the quotient
representatives run on the base field's index kernel.  fn = A + B y
enters divisor_shape and cover_count as the index list of its
coefficients on an rr_basis (Q as an index pair), and the cubic c as the
index list EllipticCurve keeps.
divisor_shape works on index polynomials (the norm A^2 - B^2 c, its
factors, and Euler's criterion modulo each factor), shape_possible, its
necessary pre-test, on the norm's square part and gcd(A, B), and so does
cover_count at the zeros of fn: their orders and leading square classes
come from division by x - x0 and the norm, on the index kernel of the
field the point lies in.
"""

from .errors import (
    EvenCharacteristic,
    UnsupportedShape,
    ZeroFunction,
)
from .curves import _extension, _scalar
from .field import _kernel

INF = None


class EllipticCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over a field of odd characteristic.

    a2, a4 and a6 are base-field indices (an int is an index, 0..q-1, and
    a field element is converted once, by curves._scalar), and the cubic
    is the index list _cubic.  Points are INF or index pairs (x, y):
    points() lists them by x ascending, each x with y = exp[log v / 2]
    before -y.  The group law and the quotient representatives run on
    the base field's index kernel."""

    def __init__(self, base, a2, a4, a6):
        if base.p == 2:
            raise EvenCharacteristic("only odd-characteristic Weierstrass models")
        self.base = base
        self.a2, self.a4, self.a6 = (_scalar(base, a) for a in (a2, a4, a6))
        self._cubic = [self.a6, self.a4, self.a2, 1]
        self._kern = _kernel(base)
        if not self._kern.is_separable(self._cubic):
            raise UnsupportedShape("singular model: the cubic has a repeated root")
        self._slope = self._kern._derivative(self._cubic)     # c'
        self._points = None

    def __eq__(self, other):
        return (isinstance(other, EllipticCurve) and self.base == other.base
                and self._cubic == other._cubic)

    def __hash__(self):
        return hash((self.a2, self.a4, self.a6))

    def __repr__(self):
        return (f"EllipticCurve(y^2 = x^3 + [{self.a2}]x^2 + [{self.a4}]x "
                f"+ [{self.a6}] / GF({self.base.q}))")

    def points(self):
        if self._points is None:
            kern = self._kern
            pts = [INF]
            for x in range(self.base.q):
                v = kern.horner(self._cubic, x)
                if not v:
                    pts.append((x, 0))
                elif not kern.log[v] & 1:
                    y = kern.exp[kern.log[v] >> 1]
                    pts += [(x, y), (x, kern.neg(y))]
            self._points = pts
        return self._points

    # -- group law ------------------------------------------------------

    def neg(self, P):
        if P is INF:
            return INF
        return (P[0], self._kern.neg(P[1]))

    def add(self, P, Q):
        if P is INF:
            return Q
        if Q is INF:
            return P
        kern = self._kern
        mul, sub = kern.mul, kern.sub
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 == kern.neg(y2):
                return INF
            # the tangent: c'(x1) / (2 y1); the index of 2 < p is 2
            lam = mul(kern.horner(self._slope, x1), kern.inv(mul(2, y1)))
        else:
            lam = mul(sub(y2, y1), kern.inv(sub(x2, x1)))
        x3 = sub(sub(sub(mul(lam, lam), self.a2), x1), x2)
        return (x3, sub(mul(lam, sub(x1, x3)), y1))

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

    def quotient_reps(self, m):
        """One representative per coset of m E(F_q), cosets in the order of
        their first points: the first affine point with y != 0, else the
        first affine point (2-torsion), else INF, the coset {O} of a group
        killed by m.  The double-cover engine needs an affine Q and takes
        one outside the 2-torsion where the coset has one."""
        if m not in (2, 3):
            raise ValueError("m must be 2 or 3")
        pts = self.points()
        image = {self.smul(m, P) for P in pts}
        cosets = []
        for P in pts:
            for members in cosets:
                if self.add(P, self.neg(members[0])) in image:
                    members.append(P)
                    break
            else:
                cosets.append([P])
        # keys 0 (y != 0), 1 (y = 0), 2 (INF); min keeps the first of equals
        return [min(members, key=lambda P: 2 if P is INF else not P[1])
                for members in cosets]


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
    """The pole order at infinity of fn, from its coefficient indices."""
    orders = [2 * i + 3 * j for (i, j), c in zip(basis, coeffs) if c]
    if not orders:
        raise ZeroFunction("the zero function has no divisor")
    return max(orders)


# ---------------------------------------------------------------------------
# vanishing orders at the zeros of fn
# ---------------------------------------------------------------------------

def _zero_order(kern, A, B, c, x0, y0):
    """(order, leading) of fn = A + B y at a zero (x0, y0) of y^2 = c(x):
    its vanishing order, and its leading coefficient up to a square, in the
    parameter y at a 2-torsion point and x - x0 elsewhere.

    First the common factor (x - x0)^j of A and B is divided out, leaving
    f1 = A1 + B1 y.  At a 2-torsion point x - x0 has order 2 and leading
    coefficient 1/c'(x0), so A1 (even order) and B1 y (odd order) cannot
    cancel: fn has order 2j and leading term A1(x0) c'(x0)^-j when
    A1(x0) != 0, else order 2j + 1 and leading term B1(x0) c'(x0)^-j
    (c'(x0)^-j is c'(x0)^j up to a square).  Off the 2-torsion fn has
    order j and leading term f1(P) when f1(P) != 0.  Otherwise the
    conjugate A1 - B1 y does not vanish at P (that would force
    A1(x0) = B1(x0) = 0, as y0 != 0 in odd characteristic), so f1 has the
    order m of x0 in the norm N = A1^2 - B1^2 c, and leading term
    (N / (x - x0)^m)(x0) / (2 A1(x0)): the argument divisor_shape makes
    for split pieces."""
    horner, pquo = kern.horner, kern._pquo
    lin = [kern.neg(x0), 1]                      # x - x0
    j = 0
    while not horner(A, x0) and not horner(B, x0):
        A, B, j = pquo(A, lin), pquo(B, lin), j + 1
    a1 = horner(A, x0)
    if not y0:
        order, lead = (2 * j, a1) if a1 else (2 * j + 1, horner(B, x0))
        if j & 1:
            lead = kern.mul(lead, horner(kern._derivative(c), x0))
        return order, lead
    v = kern.add(a1, kern.mul(horner(B, x0), y0))
    if v:
        return j, v
    N = _norm(kern, A, B, c)
    m = 0
    while not horner(N, x0):
        N, m = pquo(N, lin), m + 1
    return j + m, kern.mul(horner(N, x0), kern.mul(2, a1))


def _fn_indices(basis, idx):
    """(A, B) as index lists in x, for fn = A + B y with the coefficient
    indices idx on basis."""
    A, B = [0] * len(basis), [0] * len(basis)
    for (mi, mj), v in zip(basis, idx):
        (B if mj else A)[mi] = v
    return A, B


def _norm(kern, A, B, c):
    """The norm A^2 - B^2 c of fn = A + B y, an index polynomial in x."""
    return kern._psub(kern._pmul(A, A), kern._pmul(kern._pmul(B, B), c))


# ---------------------------------------------------------------------------
# divisor shape (test 2 of the double-cover searches)
# ---------------------------------------------------------------------------

def shape_possible(E, coeffs, basis, Q):
    """A necessary condition for divisor_shape(E, coeffs, basis, Q, k)
    ["shape_ok"], at any k, on the norm R = A^2 - B^2 c of fn = A + B y
    alone: R = (x - x_Q)^2 S with S(x_Q) != 0, and gcd(S, S') divides
    G = gcd(A, B).  No factorisation and no powmod.

    Proof.  Say shape_ok holds: div fn = 2Q + D - k*inf, D made of k - 2
    geometric points of odd order off Q, none rational.  D has degree
    k - 2, so each of its points is a simple zero, and fn has no other
    zero.  The order of R at a root alpha is the sum of the orders of fn
    over alpha (one ramified point, two split points (alpha, +-beta), or
    two conjugate inert points of order m/2 each; see divisor_shape).
    Over x_Q lies Q, of order 2, and off the 2-torsion also -Q, a
    rational point and so of order 0: hence R = (x - x_Q)^2 S with
    S(x_Q) != 0.  Every root alpha of S then has multiplicity 1 or 2, and
    2 only when fn vanishes at both points over it: split, with
    A(alpha) + B(alpha) beta = A(alpha) - B(alpha) beta = 0 and
    beta != 0, or inert, with A(alpha) + B(alpha) beta = 0 and beta
    outside F_q(alpha).  Either way A(alpha) = B(alpha) = 0.  So
    S = S1 S2^2, S1 and S2 squarefree and coprime, and S2 divides G.  In
    odd characteristic no multiplicity 1 or 2 is divisible by p, so
    gcd(S, S') = S2.
    """
    kern = _kernel(E.base)
    horner, pquo = kern.horner, kern._pquo
    A, B = _fn_indices(basis, coeffs)
    R = _norm(kern, A, B, E._cubic)
    if not R:
        raise ZeroFunction("degenerate norm")
    xQ = Q[0]
    lin = [kern.neg(xQ), 1]                      # x - x_Q
    S = R
    for _ in range(2):
        if horner(S, xQ):
            return False
        S = pquo(S, lin)
    if not horner(S, xQ):
        return False
    S2 = kern.gcd(S, kern._derivative(S))
    return len(S2) == 1 or not kern._pmod(kern.gcd(A, B), S2)


def divisor_shape(E, coeffs, basis, Q, k):
    """Analyze div(fn) for fn = sum c x^i y^j in L(k*infinity), the c given
    as base-field indices on basis, at the affine point Q (an index pair).

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
    A, B = _fn_indices(basis, coeffs)
    c = E._cubic
    pmod, pquo = kern._pmod, kern._pquo
    R = _norm(kern, A, B, c)
    if not R:
        # A^2 = B^2 c would make c a square, impossible for separable cubic
        raise ZeroFunction("degenerate norm")
    G = kern.gcd(A, B)
    xQ, yQ = Q
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
    """#D(F_{q^i}) for the double cover D: z^2 = fn of E, fn as in
    divisor_shape.

    Runs on the index kernel of F_{q^i}: per Frobenius orbit of x (see
    curves._extension), c(x), A(x) and B(x) come from Horner on indices,
    y = sqrt(c(x)) from the halved discrete log, and each of the points
    (x, +-y) adds 2 or 0 by the log parity of fn there, times the orbit's
    size.  At a point where fn vanishes _zero_order reads its order and
    leading coefficient on the same kernel: an odd order adds 1, an even
    one 2 or 0 by the square class of the leading coefficient.
    """
    pole = fn_pole_order(coeffs, basis)
    _, imap, kern, orbits = _extension(E.base, i)
    idx = [imap[v] for v in coeffs]
    A, B = _fn_indices(basis, idx)
    c = [imap[v] for v in E._cubic]
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
                order, v = _zero_order(kern, A, B, c, x, y)
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
