"""The five curve models: validated genus, exact point counting over
extensions, and pointlessness tests.

Counting conventions (degree-1 places of the smooth model):
  * odd-char hyperelliptic y^2 = f: each x contributes s(f(x)) with
    s = 2 / 1 / 0 for nonzero-square / zero / nonsquare; infinity
    contributes 1 when deg f is odd, else 2 or 0 by the square class
    of the leading coefficient.  An even f = g(x^2) is checked and
    counted through g: squarefree iff g is and g(0) != 0, and the x are 0
    and the two square roots of each nonzero square t, so the sum runs
    over the squares only, at half the degree.  That rule is written once,
    as HyperellipticOdd's check and _even_fibres; the Monte-Carlo's
    klein4_hyper_odd counts by _even_fibres too, and rerolls the g that
    the check refuses: g(0) = 0, or g / lc(g) in density's table of the
    q^3 inseparable monic quartics (_inseparable_monic_quartics).
  * Artin-Schreier y^2 + y = f (char 2): each non-pole x contributes 2
    or 0 by the absolute trace of f(x); each rational pole of odd order
    (including infinity) is ramified and contributes 1.

Every count(i) runs on the index kernel of F_{q^i} (field._kernel), but
a fiber product's, which sums its three hyperelliptic quotients' counts,
past F_q read off their L-polynomials (FiberProductGenus4).
Elements are canonical indices, and each model takes its coefficients as
base-field indices (index lists; a plane quartic's by monomial) and keeps
only those.  The constructor is the one place that turns elements into
indices (_indices, _fraction and _scalar, which EllipticCurve shares): it
converts a Poly, RationalFunction or FieldElement argument once and
refuses one over another field or an index outside 0..q-1.  Each model
runs its separability, coprimality and conductor checks on those lists,
count(i) carries them into F_{q^i} through the embedding's index map
(built once per field and degree), and polynomials are evaluated by
Horner on ints.  The square class is the parity of a discrete log and the
char-2 trace the parity of idx & trace_mask.  Each per-x contribution is
a function of values of polynomials over F_q, so it is constant on the
orbits of x -> x^q: the sum over F_{q^i} takes one representative per
orbit, weighted by the orbit's size.

A plane quartic's points over x are the roots of G = F(x, y, 1) in y, by
one of two paths that the quartic picks once, from its coefficients:
  * with the involution y -> -y (odd p: no monomial of odd y-degree) or
    y -> y + z (p = 2: F(x, y + z, z) = F), G is a Y^2 + b(x) Y + c(x) in
    Y = y^2 or Y = y^2 + y.  Its roots Y come from the discriminant's log
    parity (odd p) or y^2 + y = v (as_root, p = 2), and each carries the
    y above it: sqrt_count(Y), or 2 when Tr(Y) = 0
    (_Kernel.quadratic_fibres).  The Klein four-group families of the
    paper all take this path: a few table lookups per x.
  * any other quartic counts deg gcd(G, y^Q - y), where y^Q mod G is y^q
    raised by the q-power Frobenius i - 1 times (_Kernel.root_count).
Both give Q for a G that is zero at x (the line x = x0 lies on the
curve).  The line z = 0 always takes root_count, in x.

A quartic's smoothness test runs on the base field's kernel too: the
partials, their restrictions to the line z = 0 and the chart z = 1, and
the resultants in y of the chart polynomials (a Bareiss determinant whose
entries are index polynomials in x).  A common root of those resultants
is tested over its residue field F_q[x]/(piece), whose elements are index
polynomials reduced mod the irreducible piece (_Kernel.residue_gcd).  A
diagonal quartic Q(x^2, y^2, z^2) (p odd) has a closed form instead, four
tests on the coefficients of the conic Q (_diagonal_smooth), which the
diagonal engine and the Monte-Carlo's diagonal_quartic both call, and
both build the model by _diagonal_model.

The special places of a tower (poles of the second stage, ramified and
pole places of the first) run on the same kernel: their local expansions
are the truncated Laurent series of indices of pointless.series, taken at
precision 8 and doubled, up to 64, only while the series run out of
precision (_tower_place_points).
"""

from functools import cached_property

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    MixedFields,
    OddCharacteristic,
    PrecisionExhausted,
    UnsupportedShape,
    ZeroPolynomial,
)
from .field import (
    Poly,
    RationalFunction,
    _embed_indices,
    _index_poly,
    _itrim,
    _kernel,
)
from .series import (
    _ser,
    _ser_add,
    _ser_coeff,
    _ser_cubic_branch,
    _ser_horner,
    _ser_inv,
    _ser_mul,
    _ser_scale,
    _ser_truncate,
)
from .zeta import l_from_counts, predicted_counts


def _indices(base, f):
    """The trimmed base-field index list of a Poly over base or of an index
    list (constant term first, trailing zeros allowed, each in 0..q-1)."""
    if isinstance(f, Poly) and f.base != base:
        raise MixedFields("polynomial over a different field")
    idx = _index_poly(f) if isinstance(f, Poly) else _itrim(list(f))
    if idx and not 0 <= min(idx) <= max(idx) < base.q:
        raise UnsupportedShape(f"an index outside 0..{base.q - 1} in {idx}")
    return idx


def _scalar(base, v):
    """The base-field index of v: an int is an index (0..q-1), and a
    FieldElement over base is converted once."""
    if not isinstance(v, int):
        return base.index(base.element(v))
    if not 0 <= v < base.q:
        raise UnsupportedShape(f"index {v} outside 0..{base.q - 1}")
    return v


def _fraction(base, f):
    """The trimmed index pair (num, den) of a Poly, a RationalFunction or an
    index-list pair, refused unless coprime with den monic."""
    if isinstance(f, RationalFunction):
        f = f.num, f.den
    elif isinstance(f, Poly):
        f = f, [1]
    num, den = (_indices(base, h) for h in f)
    if not den:
        raise DivisionByZero("zero denominator")
    if len(_kernel(base).gcd(num, den)) > 1:
        raise UnsupportedShape("numerator and denominator must be coprime")
    if den[-1] != 1:   # the index of 1 is 1
        raise UnsupportedShape("denominator must be monic")
    return num, den


def _extension(base, i):
    """(F_{q^i}, the embedding of the base field as a map of indices, index
    kernel of F_{q^i}, its Frobenius orbits over F_q)."""
    big, imap = _embed_indices(base, i)
    kern = _kernel(big)
    return big, imap, kern, kern.frobenius_orbits(base.q)


# ---------------------------------------------------------------------------
# hyperelliptic, odd characteristic
# ---------------------------------------------------------------------------

class HyperellipticOdd:
    """y^2 = f(x) over odd characteristic, f squarefree of degree >= 3.

    f is a Poly over base or a list of base-field indices (0..q-1),
    constant term first, trailing zeros allowed; both forms are checked
    alike, on the trimmed index list _idx, which is all the model keeps.

    An even f = g(x^2) (every odd coefficient zero, as in the paper's
    Klein four-group family) keeps _g = _idx[::2] and is checked and
    counted (_even_fibres) through g; _g is None for any other f.
    """

    def __init__(self, base, f):
        if base.p == 2:
            raise EvenCharacteristic("use ArtinSchreierCurve in characteristic 2")
        idx = _indices(base, f)
        if not idx:
            raise ZeroPolynomial("f must be nonzero")
        if len(idx) < 4:
            raise UnsupportedShape(f"deg f = {len(idx) - 1} < 3")
        kern = _kernel(base)
        g = None if any(idx[1::2]) else idx[::2]
        # a repeated root of g(x^2) is 0 or a square root of a repeated
        # root of g (f' = 2x g'(x^2)), so f is squarefree iff g(0) != 0
        # and g is separable
        if not (kern.is_separable(idx) if g is None
                else g[0] and kern.is_separable(g)):
            raise UnsupportedShape("f must be squarefree")
        self.base = base
        self._idx = idx
        self._g = g
        self.genus = len(idx) // 2 - 1

    def count(self, i=1):
        big, imap, kern, orbits = _extension(self.base, i)
        if self._g is not None:
            return sum(_even_fibres(kern, [imap[c] for c in self._g],
                                    self.base.q))
        horner, roots = kern.horner, kern.sqrt_count
        f = [imap[c] for c in self._idx]
        total = sum(w * roots(horner(f, x)) for x, w in orbits)
        # infinity: one point for odd deg f, else by the square class of lc
        return total + (1 if len(f) % 2 == 0 else roots(f[-1]))


def _even_fibres(kern, g, q):
    """The points of y^2 = g(x^2) over kern's field, fibre by fibre, for an
    index list g with coefficients in F_q (q odd): x = 0, infinity (deg f
    is even, so by the square class of lc g), then x = +-sqrt(t) for each
    Frobenius orbit of nonzero squares t, weighted by the orbit's size.
    x -> x^q keeps the parity of log x, so each orbit is all squares or
    none (_Kernel.square_orbits).  count sums them; a test for
    pointlessness stops at the first fibre with a point."""
    horner, roots = kern.horner, kern.sqrt_count
    yield roots(g[0])
    yield roots(g[-1])
    for t, w in kern.square_orbits(q):
        yield 2 * w * roots(horner(g, t))


# ---------------------------------------------------------------------------
# Artin-Schreier curves, characteristic 2
# ---------------------------------------------------------------------------

class ArtinSchreierCurve:
    """y^2 + y = f(x) over char 2 for the reduced shapes: squarefree
    denominator (simple finite poles) and polynomial part of degree 0 or odd.

    f is a Poly, a RationalFunction or a pair (num, den) of index lists as
    for HyperellipticOdd, checked alike on the trimmed pair _num, _den:
    coprime, den monic and squarefree, and f not constant (a constant f
    has no pole).

    The conductor is the list of (place degree, pole order d_P); the genus is
    -1 + (1/2) sum (d_P + 1) deg P.
    """

    def __init__(self, base, f):
        if base.p != 2:
            raise OddCharacteristic("Artin-Schreier model needs characteristic 2")
        num, den = _fraction(base, f)
        kern = _kernel(base)
        self.base = base
        self._num, self._den = num, den
        self.conductor = []
        if len(den) > 1:
            if not kern.is_separable(den):
                raise UnsupportedShape("denominator must be squarefree")
            # the finite poles are the places of the monic squarefree
            # denominator: deg g / d of degree d for each (g, d) of its
            # distinct-degree split
            for g, d in kern._distinct_degree(den):
                self.conductor += [(d, 1)] * ((len(g) - 1) // d)
        m = len(num) - len(den)  # degree of the polynomial part
        if m >= 1 and m % 2 == 0:
            raise UnsupportedShape("polynomial part must have degree 0 or odd")
        if m >= 1:
            self.conductor.append((1, m))
        if not self.conductor:
            # y^2 + y = c splits into two lines, over F_q or F_{q^2}
            raise UnsupportedShape("f must have a pole (f is constant)")
        # every finite pole is simple and a pole at infinity has odd
        # order, so each (d + 1) deg P is even
        self.genus = -1 + sum((d + 1) * deg for deg, d in self.conductor) // 2

    def count(self, i=1):
        big, imap, kern, orbits = _extension(self.base, i)
        num = [imap[c] for c in self._num]
        den = [imap[c] for c in self._den]
        horner, trace = kern.horner, kern.trace
        total = 0
        for x, w in orbits:
            d = horner(den, x)
            if not d:
                total += w  # simple (odd-order) pole: ramified rational place
            elif not trace(kern.mul(horner(num, x), kern.inv(d))):
                total += 2 * w
        m = len(num) - len(den)
        if m >= 1:
            total += 1  # odd-order pole at infinity, ramified
        elif m < 0 or not trace(num[-1]):   # den is monic
            total += 2
        return total


# ---------------------------------------------------------------------------
# plane quartics
# ---------------------------------------------------------------------------

QUARTIC_MONOMIALS = [(i, j, 4 - i - j) for i in range(4, -1, -1)
                     for j in range(4 - i, -1, -1)]


class PlaneQuartic:
    """Homogeneous quartic F(x, y, z); coeffs maps (i, j, k) to a base-field
    index (0..q-1) or a FieldElement, converted once (_scalar), or lists
    all 15 in QUARTIC_MONOMIALS order.  The model keeps the indices, _idx
    and _rows."""

    def __init__(self, base, coeffs):
        if isinstance(coeffs, (list, tuple)):
            if len(coeffs) != len(QUARTIC_MONOMIALS):
                raise UnsupportedShape(f"{len(coeffs)} coefficients, not 15")
            coeffs = dict(zip(QUARTIC_MONOMIALS, coeffs))
        extra = set(coeffs) - set(QUARTIC_MONOMIALS)
        if extra:
            raise UnsupportedShape(f"non-quartic monomials {sorted(extra)}")
        self.base = base
        self._idx = dict.fromkeys(QUARTIC_MONOMIALS, 0)
        for mono, v in coeffs.items():
            self._idx[mono] = _scalar(base, v)
        if not any(self._idx.values()):
            raise ZeroPolynomial("F must be nonzero")
        # rows[j] lists the x-coefficients of y^j in F(x, y, 1)
        self._rows = [[0] * (5 - j) for j in range(5)]
        for (a, b, _), v in self._idx.items():
            self._rows[b][a] = v
        self._b_row = _involution_row(self._rows, base.p)
        self._smooth = None
        self.genus = 3  # meaningful when smooth; is_smooth() verifies

    def partial(self, var):
        """dF/dvar (a cubic form), var in {0,1,2}: a dict (i, j, k) -> the
        base-field index of each nonzero coefficient."""
        mul, p = _kernel(self.base).mul, self.base.p
        out = {}
        for mono, c in self._idx.items():
            scaled = mul(c, mono[var] % p)   # the index of k < p is k
            if scaled:
                new = list(mono)
                new[var] -= 1
                out[tuple(new)] = scaled
        return out

    # -- smoothness ----------------------------------------------------

    def is_smooth(self):
        if self._smooth is None:
            self._smooth = self._check_smooth()
        return self._smooth

    def _check_smooth(self):
        """Whether F and its partials have no common zero, on base-field
        indices: at (1:0:0), on the line z = 0 by a gcd in x, and in the
        chart z = 1 by the gcd of the resultants in y of F with each
        partial; at a root of each irreducible piece of that gcd, the
        chart conditions get a gcd in y over the piece's residue field
        (_Kernel.residue_gcd)."""
        kern = _kernel(self.base)
        partials = [self.partial(v) for v in range(3)]
        if not any(partials):
            return False  # every partial vanishes identically
        forms = [{m: c for m, c in self._idx.items() if c}] + partials

        # point (1:0:0)
        if not any(c for fm in forms for (i, j, k), c in fm.items()
                   if j == k == 0):
            return False

        # line z = 0, y = 1: univariate conditions in x
        line = [u for u in map(_line, forms) if u]
        if not line:
            return False
        gline = line[0]
        for u in line[1:]:
            gline = kern.gcd(gline, u)
        if len(gline) > 1:
            return False

        # chart z = 1: bivariate conditions in (x, y)
        conditions = [b for b in map(_chart, forms) if b]
        bF = conditions[0]   # F(x, y, 1) is never zero
        if len(bF) == 1:
            return False  # F(x,y,1) depends on x alone: union of lines
        resultants = [r for r in (_resultant_y(kern, bF, b)
                                  for b in conditions[1:]) if r]
        if not resultants:
            return False  # F shares a y-factor with every partial: singular
        g = resultants[0]
        for r in resultants[1:]:
            g = kern.gcd(g, r)
        if len(g) == 1:
            return True
        for piece, _ in kern.factor(g):
            # the conditions at a root x0 of piece: their x-coefficients
            # reduced mod piece are elements of F_q(x0) = F_q[x]/(piece)
            specs = [_itrim([kern._pmod(c, piece) for c in b])
                     for b in conditions]
            nonzero = [s for s in specs if s]
            if not nonzero:
                return False
            h = nonzero[0]
            for s in nonzero[1:]:
                h = kern.residue_gcd(h, s, piece)
            if len(h) > 1:
                return False
        return True

    # -- counting ------------------------------------------------------

    def count(self, i=1):
        big, imap, kern, orbits = _extension(self.base, i)
        rows = [[imap[v] for v in r] for r in self._rows]
        horner, q = kern.horner, self.base.q
        if self._b_row is None:
            root_count = kern.root_count
            total = sum(w * root_count([horner(r, x) for r in rows], q)
                        for x, w in orbits)
        else:
            # F(x, y, 1) = lead Y^2 + mid(x) Y + low(x), Y = y^2 or y^2 + y
            lead, mid, low = rows[4][0], rows[self._b_row], rows[0]
            fibres = kern.quadratic_fibres
            total = sum(w * fibres(lead, horner(mid, x), horner(low, x))
                        for x, w in orbits)
        # line z = 0, y = 1: roots of F(x, 1, 0) in x, whose x^a
        # coefficient is that of x^a y^(4 - a)
        total += kern.root_count([rows[4 - a][a] for a in range(5)], q)
        # point (1:0:0), where only x^4 is nonzero
        if not rows[0][4]:
            total += 1
        return total


def _diagonal_smooth(kern, a, b, c, d, e, f):
    """Whether F = Q(x^2, y^2, z^2) is smooth, for the conic Q = aX^2 +
    bY^2 + cZ^2 + dXY + eXZ + fYZ with a, b, c != 0 given as kernel indices
    (p odd): iff Delta = 4abc - af^2 - be^2 - cd^2 + def != 0, d^2 != 4ab,
    e^2 != 4ac and f^2 != 4bc.

    F_x = 2x Q_X(x^2, y^2, z^2), and likewise in y and z; by Euler's
    formula (4 != 0) a singular point of F is a common zero of the three
    partials.  Delta is half the determinant of Q's symmetric matrix, so
    Delta = 0 iff Q_X, Q_Y, Q_Z share a zero (X:Y:Z), and any square roots
    (x:y:z) of it are a singular point of F.  A singular point with no
    zero coordinate has Q_X = Q_Y = Q_Z = 0 at (x^2:y^2:z^2), a singular
    point of the conic.  One with exactly one, say z = 0, has Q_X = Q_Y =
    0 at (x^2:y^2:0), a double root of Q(X, Y, 0) = aX^2 + dXY + bY^2 on
    that coordinate line, which exists iff d^2 = 4ab; its roots X = d,
    Y = -2a are then both nonzero (d = 0 would force ab = 0), so their
    square roots are such a point.  Two zero coordinates cannot occur: at
    (1:0:0), F_x = 4a != 0, and likewise F_y = 4b at (0:1:0) and F_z = 4c
    at (0:0:1)."""
    mul, sub = kern.mul, kern.sub
    four = 4 % kern.p               # the index of an integer k < p is k
    if any(mul(w, w) == mul(four, mul(u, v))
           for u, v, w in ((a, b, d), (a, c, e), (b, c, f))):
        return False
    delta = kern.add(mul(four, mul(a, mul(b, c))), mul(d, mul(e, f)))
    for u, v in ((a, f), (b, e), (c, d)):
        delta = sub(delta, mul(u, mul(v, v)))
    return delta != 0


def _diagonal_model(F, a, b, c, d, e, f):
    """The plane quartic Q(x^2, y^2, z^2) of the conic Q = aX^2 + bY^2 +
    cZ^2 + dXY + eXZ + fYZ, its coefficients indices of F."""
    return PlaneQuartic(F, {(4, 0, 0): a, (0, 4, 0): b, (0, 0, 4): c,
                            (2, 2, 0): d, (2, 0, 2): e, (0, 2, 2): f})


def _involution_row(rows, p):
    """The y-degree of the row b(x) when F(x, y, 1), given by its rows of
    base-field indices, is a Y^2 + b(x) Y + c(x) for Y = y^2 (p odd) or
    Y = y^2 + y (p = 2); None otherwise.  For odd p that is F(x, -y, z) =
    F: no monomial of odd y-degree, and b is the y^2 row.  For p = 2 it is
    F(x, y + z, z) = F: since a (y^2 + y)^2 + b (y^2 + y) + c = a y^4 +
    (a + b) y^2 + b y + c, the y^3 row is zero and the y row equals the
    y^2 row plus the y^4 row, x^3 y coefficient (then zero) included; b is
    the y row.  Characteristic-2 indices add by XOR."""
    if any(rows[3]):
        return None
    if p != 2:
        return None if any(rows[1]) else 2
    expected = rows[2] + [0]
    expected[0] ^= rows[4][0]
    return 1 if rows[1] == expected else None


def _line(form):
    """form(x, 1, 0) as an index list in x."""
    out = [0] * 5
    for (i, _, k), c in form.items():
        if not k:
            out[i] = c
    return _itrim(out)


def _chart(form):
    """form(x, y, 1) as index lists in x by y-degree, without zero rows on
    top ([] for the zero form)."""
    rows = [[0] * 5 for _ in range(5)]
    for (i, j, _), c in form.items():
        rows[j][i] = c
    rows = [_itrim(r) for r in rows]
    return _itrim(rows)


def _resultant_y(kern, a, b):
    """Res_y, up to sign, of two bivariate index polynomials (index lists in
    x by y-degree, the top one nonzero, a of y-degree >= 1): the
    fraction-free (Bareiss) determinant of their Sylvester matrix, every
    division exact."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    M = ([[[]] * r + a[::-1] + [[]] * (n - 1 - r) for r in range(n)]
         + [[[]] * r + b[::-1] + [[]] * (m - 1 - r) for r in range(m)])
    pmul, psub, pquo = kern._pmul, kern._psub, kern._pquo
    prev = [1]
    for k in range(size - 1):
        if not M[k][k]:
            for r in range(k + 1, size):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    break
            else:
                return []
        top = M[k]
        pivot = top[k]
        for row in M[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                num = psub(pmul(row[j], pivot), pmul(lead, top[j]))
                row[j] = pquo(num, prev) if num and prev != [1] else num
        prev = pivot
    return M[-1][-1]


# ---------------------------------------------------------------------------
# fiber products of two hyperelliptic genus-1 quotients
# ---------------------------------------------------------------------------

class FiberProductGenus4:
    """y^2 = f(x), z^2 = g(x) for coprime separable cubics; genus 4.  f and
    g are each a Poly or an index list as for HyperellipticOdd; the model
    keeps the trimmed lists _f, _g and its three quotients.

    The model is counted through its three hyperelliptic quotients E_f:
    y^2 = f, E_g: z^2 = g and H: w^2 = f g (w = yz), whose Jacobians make
    up its own (Kani-Rosen).  With chi the quadratic character (chi(0) =
    0), an x has 1 + chi(f(x)) points on E_f, and
        (1 + chi(f))(1 + chi(g)) = 1 + chi(f) + chi(g) + chi(fg),
    so the affine points of C are those of E_f, E_g and H less 2 q^i.  At
    infinity C has 1 + chi(lc f lc g) points, and the quotients 1 + 1 +
    (1 + chi(lc fg)) - 2 of them (f, g cubic, fg of degree 6).  So
        N_i(C) = N_i(E_f) + N_i(E_g) + N_i(H) - 2 (q^i + 1).
    For i = 1 that sums the quotients' own counts over F_q.  For i >= 2
    each quotient's N_i comes from its L-polynomial, taken once from its
    counts over F_q and F_{q^2}, so no table past F_{q^2} is built.  fg is
    squarefree exactly when f and g are separable and coprime, so H's
    check is the model's.
    """

    def __init__(self, base, f, g):
        if base.p == 2:
            raise EvenCharacteristic("fiber products are an odd-char model")
        self._f, self._g = _indices(base, f), _indices(base, g)
        if len(self._f) != 4 or len(self._g) != 4:
            raise UnsupportedShape("f and g must be cubic")
        self._quotients = [HyperellipticOdd(base, h) for h in (
            _kernel(base)._pmul(self._f, self._g), self._f, self._g)]
        self.base = base
        self.genus = 4

    @cached_property
    def _counts1(self):
        """The quotients' counts over F_q."""
        return [h.count(1) for h in self._quotients]

    @cached_property
    def _l_polys(self):
        """The quotients' L-polynomials, from count(1..genus) of each."""
        return [l_from_counts(self.base.q, h.genus, [n1] + [
                    h.count(j) for j in range(2, h.genus + 1)])
                for h, n1 in zip(self._quotients, self._counts1)]

    def count(self, i=1):
        q = self.base.q
        counts = (self._counts1 if i == 1
                  else [predicted_counts(L, q, i) for L in self._l_polys])
        return sum(counts) - 2 * (q ** i + 1)

    def properties(self):
        """trigonal: span(f, g) contains a nonzero constant;
        extra_autos: the x -> (cube root of unity) x symmetry applies."""
        f, g, kern = self._f, self._g, _kernel(self.base)
        mul, add = kern.mul, kern.add
        trigonal = all(mul(f[i], g[j]) == mul(f[j], g[i])  # f_i g_j = f_j g_i
                       for i in (1, 2, 3) for j in range(i + 1, 4))
        extra = self.base.q % 3 == 1 and not any((f[1], f[2], g[1], g[2]))
        if self.base.p == 3:
            # both of the form a(x^3 - x) + b
            extra = extra or all(not h[2] and not add(h[1], h[3])
                                 for h in (f, g))
        return {"trigonal": trigonal, "extra_autos": extra}


# ---------------------------------------------------------------------------
# two-stage Artin-Schreier towers, characteristic 2
# ---------------------------------------------------------------------------

class ASTower:
    """y^2 + y = f1(x), z^2 + z = (A(x) + B(x) y) / D(x) over char 2.

    Supported first-stage shape: f1 = c1 x + c0 + cm1 / x, taken as the
    Artin-Schreier f is; A, B and D each a Poly or an index list.  The model
    keeps the indices _f1 = [c1, c0, cm1] and _stage2 = [A, B, D].  The
    genus is a claim (cross-checked through the zeta module), not computed.
    count(i) sums the ordinary places off kernel tables and expands each
    special place as a Laurent series at precision 8, then 16, 32 and 64,
    moving on only while the expansion runs out of precision.
    """

    def __init__(self, base, f1, A, B, D, claimed_genus=None):
        if base.p != 2:
            raise OddCharacteristic("towers need characteristic 2")
        num, den = _fraction(base, f1)
        if den not in ([1], [0, 1]) or len(num) > len(den) + 1:
            raise UnsupportedShape("first stage must be c1 x + c0 + cm1/x")
        num += [0] * (3 - len(num))
        # f1 = (c1 x^2 + c0 x + cm1) / x, or c1 x + c0
        self._f1 = num[::-1] if len(den) == 2 else [num[1], num[0], 0]
        A, B, D = self._stage2 = [_indices(base, g) for g in (A, B, D)]
        if not D:
            raise ZeroPolynomial("second-stage denominator is zero")
        if self._f1[2] and not D[0]:
            raise UnsupportedShape("second-stage pole collides with the x=0 ramification")
        self.base = base
        self.genus = claimed_genus

    def count(self, i=1):
        big, imap, kern, orbits = _extension(self.base, i)
        f1 = c1, c0, cm1 = tuple(imap[c] for c in self._f1)
        stage2 = A, B, D = tuple([imap[c] for c in g] for g in self._stage2)
        horner, mul, trace = kern.horner, kern.mul, kern.trace
        total = 0
        for x, w in orbits:   # char 2: indices add by XOR, y0 + 1 = y0 ^ 1
            if not x:
                if cm1:
                    continue  # ramified at stage 1, handled below
                v1 = c0
            else:
                v1 = mul(c1, x) ^ c0 ^ mul(cm1, kern.inv(x))
            y0 = kern.as_root(v1)
            if y0 is None:
                continue
            d = horner(D, x)
            if not d:
                total += w * sum(
                    _tower_place_points(kern, f1, stage2, "finite", x, y)
                    for y in (y0, y0 ^ 1))
                continue
            a, b, dinv = horner(A, x), horner(B, x), kern.inv(d)
            for y in (y0, y0 ^ 1):
                if not trace(mul(a ^ mul(b, y), dinv)):
                    total += 2 * w
        # place(s) over x = 0
        if cm1:
            total += _tower_place_points(kern, f1, stage2, "ram_zero")
        # place(s) over x = infinity
        if c1:
            total += _tower_place_points(kern, f1, stage2, "ram_inf")
        else:
            y0 = kern.as_root(c0)
            if y0 is not None:
                for y in (y0, y0 ^ 1):
                    total += _tower_place_points(kern, f1, stage2, "ord_inf",
                                                 ybranch=y)
        return total


# the precisions a special place is expanded at, in turn
_PLACE_PRECISIONS = (8, 16, 32, 64)


def _tower_place_points(kern, f1, stage2, kind, x0=None, ybranch=None):
    """Points of the tower above one special place: its expansion at
    precision 8, 16, 32 and then 64, the next one tried only when the last
    raised PrecisionExhausted.  A count that comes back is exact (see
    pointless.series), and a place still short at 64 raises."""
    *short, last = _PLACE_PRECISIONS
    for prec in short:
        try:
            return _tower_place_points_at(kern, f1, stage2, kind, prec,
                                          x0, ybranch)
        except PrecisionExhausted:
            pass
    return _tower_place_points_at(kern, f1, stage2, kind, last, x0, ybranch)


def _tower_place_points_at(kern, f1, stage2, kind, prec, x0=None,
                           ybranch=None):
    """Points of the tower above one place of the middle curve, via local
    expansion at precision prec and Artin-Schreier reduction; raises
    PrecisionExhausted when prec is too short to decide, and
    _tower_place_points then calls it again at the next of 8, 16, 32 and
    64.  f1 = (c1, c0, cm1), stage2 = (A, B, D), x0 and ybranch are
    indices of the counting field's kernel."""
    c1, c0, cm1 = f1
    A, B, D = stage2
    t = _ser(1, [1], prec)

    if kind == "finite":
        # unramified place at x = x0 with chosen branch value for y
        xs = _ser(0, [x0, 1], prec)
        f1s = _ser_add(kern, _ser(0, [c0], prec), _ser_scale(kern, xs, c1))
        if cm1:
            f1s = _ser_add(kern, f1s,
                           _ser_scale(kern, _ser_inv(kern, xs), cm1))
        ys = _as_branch_series(kern, f1s, ybranch, prec)
    elif kind == "ord_inf":
        # x = 1/t; f1 = c0 + cm1 t (c1 = 0 here)
        xs = _ser(-1, [1], prec)
        ys = _as_branch_series(kern, _ser(0, [c0, cm1], prec), ybranch, prec)
    # a ramified pole: the smooth-model parameter t = x y (at x = 0) or
    # y / x (at infinity) makes x (resp. 1/x) the series X with
    # X (cl + t + cm X + cf X^2) = t^2, exact through t^prec
    elif kind == "ram_zero":
        xs = _ser(0, _ser_cubic_branch(kern, cm1, 1, c0, c1, prec + 1),
                  prec + 1)
        ys = _ser_mul(kern, t, _ser_inv(kern, xs))
    else:  # ram_inf
        X = _ser(0, _ser_cubic_branch(kern, c1, 1, c0, cm1, prec + 1),
                 prec + 1)
        xs = _ser_inv(kern, X)
        ys = _ser_mul(kern, t, xs)

    # cap the precision of the (exact) polynomial evaluations before dividing
    As = _ser_truncate(_ser_horner(kern, A, xs), prec)
    Bs = _ser_truncate(_ser_mul(kern, _ser_horner(kern, B, xs), ys), prec)
    Ds = _ser_truncate(_ser_horner(kern, D, xs), prec)
    return _as_reduce_count(kern, _ser_mul(kern, _ser_add(kern, As, Bs),
                                           _ser_inv(kern, Ds)))


def _as_branch_series(kern, F, y0, prec):
    """Power series y(t) with y^2 + y = F(t), y(0) = y0 (char 2: the
    coefficient recurrence a_k = F_k + a_{k/2}^2 is explicit)."""
    n = min(prec, F[2])
    a = [y0]
    for k in range(1, n):
        c = _ser_coeff(F, k)
        if k % 2 == 0:
            c ^= kern.mul(a[k // 2], a[k // 2])
        a.append(c)
    return _ser(0, a, n)


def _as_reduce_count(kern, f2):
    """Points above a place from the local expansion of the second-stage
    right-hand side: repeatedly absorb even-order poles via s^2 + s.  The
    square root of an index a is exp[log a * q/2 mod (q - 1)]."""
    half = kern.q // 2
    while True:
        val, cs, prec = f2
        if not cs or val >= 0:  # no known pole: t^0 is read, prec checked
            return 0 if kern.trace(_ser_coeff(f2, 0)) else 2
        if val % 2:
            return 1
        s = kern.exp[kern.log[cs[0]] * half % kern.n1]
        u = _ser(val // 2, [s], prec)
        f2 = _ser_add(kern, _ser_add(kern, f2, _ser_mul(kern, u, u)), u)
