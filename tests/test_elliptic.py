"""Elliptic-curve layer: group law, quotient representatives, Riemann-Roch
monomials, vanishing orders, divisor shapes, and double-cover counts."""

import os
import random
from functools import lru_cache, partial
from itertools import product

import pytest

from pointless.curves import _extension
from pointless.elliptic import (
    INF,
    EllipticCurve,
    _fn_indices,
    _norm,
    _zero_order,
    cover_count,
    divisor_shape,
    fn_pole_order,
    hasse_interval,
    rr_basis,
    shape_possible,
)
from pointless.errors import (
    EvenCharacteristic,
    UnsupportedShape,
    ZeroFunction,
)
from pointless.field import FiniteField, Poly, _index_poly, _kernel, embed
from pointless import search
from pointless.search import _double_zero_kernel
from pointless.zeta import l_from_counts, real_weil_from_l, validate_weil

import element_reference as ref
from element_reference import fn_ab, fn_value

F5 = FiniteField(5)
F7 = FiniteField(7)
F13 = FiniteField(13)
F25 = FiniteField(5, 2, [2, -1, 1])      # a^2 = a - 2
F27 = FiniteField(3, 3, [1, -1, 0, 1])   # a^3 = a - 1


def E5():
    return EllipticCurve(F5, 0, 1, 1)


class TestConstruction:
    def test_even_characteristic_rejected(self):
        with pytest.raises(EvenCharacteristic):
            EllipticCurve(FiniteField(2), 0, 0, 1)

    def test_singular_rejected(self):
        with pytest.raises(UnsupportedShape):
            EllipticCurve(F5, 0, 0, 0)  # y^2 = x^3

    def test_point_membership(self):
        E = E5()
        assert E.contains(INF)
        assert E.contains((0, 1))
        assert not E.contains((0, 2))


class TestGroupLaw:
    def test_order_and_hasse(self):
        E = E5()
        assert E.order() == 9
        lo, hi = hasse_interval(5)
        assert lo <= 9 <= hi

    def test_hasse_over_f13(self):
        lo, hi = hasse_interval(13)
        for a6 in range(1, 13):
            try:
                E = EllipticCurve(F13, 0, 1, a6)
            except UnsupportedShape:
                continue
            assert lo <= E.order() <= hi

    def test_axioms_random(self):
        E = E5()
        pts = E.points()
        rng = random.Random(7)
        for _ in range(40):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert E.add(P, Q) == E.add(Q, P)
            assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))
            assert E.add(P, E.neg(P)) is INF

    def test_smul_additive(self):
        E = E5()
        rng = random.Random(11)
        for _ in range(20):
            P = rng.choice(E.points())
            m, n = rng.randrange(-6, 7), rng.randrange(-6, 7)
            assert E.smul(m + n, P) == E.add(E.smul(m, P), E.smul(n, P))

    def test_point_order_divides_group_order(self):
        E = E5()
        N = E.order()
        for P in E.points():
            assert N % E.point_order(P) == 0


class TestGroupStructure:
    def test_f27_pinned(self):
        a = F27.element("a")
        E1 = EllipticCurve(F27, 2, 0, 1)
        E2 = EllipticCurve(F27, 2, 0, a)
        assert (E1.order(), E1.group_structure()) == (20, (2, 10))
        assert (E2.order(), E2.group_structure()) == (20, (1, 20))

    def test_structure_consistency_f7(self):
        for a6 in range(1, 7):
            try:
                E = EllipticCurve(F7, 0, 1, a6)
            except UnsupportedShape:
                continue
            n1, n2 = E.group_structure()
            assert n1 * n2 == E.order()
            assert n2 % n1 == 0


class TestQuotientReps:
    def test_f27_coset_counts(self):
        a = F27.element("a")
        E1 = EllipticCurve(F27, 2, 0, 1)   # Z/2 x Z/10: E/2E has 4 cosets
        E2 = EllipticCurve(F27, 2, 0, a)   # Z/20: E/2E has 2 cosets
        r1 = E1.quotient_reps(2)
        r2 = E2.quotient_reps(2)
        assert len(r1) == 4 and len(r2) == 2
        tors1 = set(E1.two_torsion())
        assert all(P not in tors1 for P in r1)
        # representatives are pairwise inequivalent mod 2E
        image = {E1.smul(2, P) for P in E1.points()}
        for i, P in enumerate(r1):
            for Q in r1[i + 1:]:
                assert E1.add(P, E1.neg(Q)) not in image

    def test_full_two_torsion_coset_needs_fallback(self):
        # E(F_25) = Z/4 x Z/4: the coset 2E *is* the 2-torsion subgroup, so
        # its representative is an affine 2-torsion point, and the other
        # three cosets hold points of order 4
        E = EllipticCurve(F25, 0, F25.from_index(0), F25.from_index(7))
        assert E.group_structure() == (4, 4)
        reps = E.quotient_reps(2)
        tors = E.two_torsion()
        assert len(reps) == 4
        assert reps[0] is not INF and reps[0] in tors
        assert all(P not in tors for P in reps[1:])

    def test_m3_cosets(self):
        E = E5()  # order 9
        n1, n2 = E.group_structure()
        reps = E.quotient_reps(3)
        # |E/3E| = 3^(number of invariants divisible by 3)
        expected = (3 if n1 % 3 == 0 else 1) * (3 if n2 % 3 == 0 else 1)
        assert len(reps) == expected


def _as_pair(F, P):
    """An element point of the reference as an index pair."""
    return P if P is INF else (F.index(P[0]), F.index(P[1]))


def _quotient_outcomes(C, as_pair):
    """quotient_reps(m) of C for m = 2, 3, each a list of index pairs."""
    return [[as_pair(P) for P in C.quotient_reps(m)] for m in (2, 3)]


# pinned curves (a2, a4, a6 as indices) per field: over F_7, y^2 = x^3 + 2
# has 3E = {O}, the coset the double-cover engine refuses; over F_25,
# y^2 = x^3 + c with c of index 7 is the (Z/4)^2 curve whose coset 2E is
# the 2-torsion, so quotient_reps(2) gives it an affine 2-torsion point
GROUP_LAW_CURVES = {
    F5: [(0, 1, 1), (0, 0, 1), (0, 4, 0)],
    F7: [(0, 0, 2), (0, 1, 3)],
    F13: [(0, 1, 0), (0, 1, 1)],
    F25: [(0, 0, 7), (0, 2, 0), (0, 1, 7)],
    F27: [(2, 0, 1), (2, 0, 3)],
}


class TestGroupLawAgainstElementReference:
    """EllipticCurve on index pairs against the element reference
    (element_reference.ElementCurve): points() in order, add and smul on
    seeded pairs, two_torsion and quotient_reps, on the pinned curves and
    two seeded random ones per field."""

    @pytest.mark.parametrize("F", list(GROUP_LAW_CURVES),
                             ids=lambda F: f"F{F.q}")
    def test_equals_element_group_law(self, F):
        rng = random.Random(500 + F.q)
        curves = [EllipticCurve(F, *c) for c in GROUP_LAW_CURVES[F]]
        curves += [_random_curve(F, rng) for _ in range(2)]
        reps = []
        for E in curves:
            R = ref.ElementCurve.of(E)
            pair = partial(_as_pair, F)
            pts, ref_pts = E.points(), R.points()
            assert pts == [pair(P) for P in ref_pts], E
            assert E.two_torsion() == [pair(P) for P in R.two_torsion()]
            for _ in range(30):
                i, j = rng.randrange(len(pts)), rng.randrange(len(pts))
                assert E.add(pts[i], pts[j]) == \
                    pair(R.add(ref_pts[i], ref_pts[j])), (E, i, j)
                n = rng.randrange(-7, 8)
                assert E.smul(n, pts[i]) == pair(R.smul(n, ref_pts[i]))
            reps.append(_quotient_outcomes(E, lambda P: P))
            assert reps[-1] == _quotient_outcomes(R, pair), E
        if F is F7:       # y^2 = x^3 + 2: O is alone in its coset of 3E
            assert INF in reps[0][1]
        if F is F25:      # the (Z/4)^2 curve: its coset 2E is the 2-torsion
            Q = reps[0][0][0]
            assert Q is not INF and Q[1] == 0


class TestRRBasis:
    def test_sizes(self):
        assert len(rr_basis(6)) == 6
        assert len(rr_basis(8)) == 8

    def test_pole_orders_sorted_and_distinct(self):
        orders = [2 * i + 3 * j for i, j in rr_basis(8)]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)  # 0,2,3,4,5,6,7,8

    def test_budget(self):
        with pytest.raises(UnsupportedShape):
            rr_basis(9)


def _coeffs(F, basis, mono_dict):
    return [F.element(mono_dict.get(m, 0)) for m in basis]


def _ix(F, values):
    """The base-field indices of elements (coefficients or a point's
    coordinates): the input format of fn_pole_order, divisor_shape,
    cover_count and _double_zero_kernel."""
    return [F.index(v) for v in values]


def _ord_at(E, coeffs, P):
    """ord_P of the function on rr_basis(6), read off divisor_shape."""
    F = E.base
    return divisor_shape(E, _ix(F, coeffs), rr_basis(6), _ix(F, P),
                         6)["ord_at_Q"]


class TestVanishingOrder:
    def test_orders_at_points(self):
        E = E5()
        basis = rr_basis(6)
        P = next(p for p in ref.ElementCurve.of(E).points()
                 if p is not INF and not p[1].is_zero())
        x0 = P[0]
        lin = [-x0, F5.one]
        cf_lin = _coeffs(F5, basis, {(0, 0): lin[0], (1, 0): lin[1]})
        assert _ord_at(E, cf_lin, P) == 1
        cf_sq = _coeffs(F5, basis, {(0, 0): x0 * x0,
                                    (1, 0): -(x0 + x0),
                                    (2, 0): F5.one})
        assert _ord_at(E, cf_sq, P) == 2
        other = next(p for p in ref.ElementCurve.of(E).points()
                     if p is not INF and p[0] != x0)
        assert _ord_at(E, cf_lin, other) == 0

    def test_two_torsion_local_parameter(self):
        # y^2 = x(x^2+1) over F_13: (0,0) is 2-torsion
        E = EllipticCurve(F13, 0, 1, 0)
        basis = rr_basis(6)
        T = (F13.zero, F13.zero)
        assert E.contains((0, 0))
        cf_x = _coeffs(F13, basis, {(1, 0): F13.one})
        cf_y = _coeffs(F13, basis, {(0, 1): F13.one})
        assert _ord_at(E, cf_x, T) == 2
        assert _ord_at(E, cf_y, T) == 1

    def test_zero_function_rejected(self):
        E = E5()
        basis = rr_basis(6)
        P = E.points()[1]
        with pytest.raises(ZeroFunction):
            divisor_shape(E, [0] * 6, basis, P, 6)
        with pytest.raises(ZeroFunction):
            shape_possible(E, [0] * 6, basis, P)


class TestDivisorShape:
    def test_zero_degree_equals_pole_order(self):
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in ref.ElementCurve.of(E).points()
                 if p is not INF and not p[1].is_zero())
        rng = random.Random(1)
        for _ in range(200):
            cf = [F5.from_index(rng.randrange(5)) for _ in basis]
            if all(c.is_zero() for c in cf):
                continue
            sh = divisor_shape(E, _ix(F5, cf), basis, _ix(F5, Q), 6)
            assert sh["total_zero_degree"] == sh["pole_order_at_inf"]

    def test_explicit_non_example(self):
        # (x - xQ)^2 (x - c): double zeros at Q, sigma(Q), only two odd points
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in ref.ElementCurve.of(E).points()
                 if p is not INF and not p[1].is_zero())
        xq = Q[0]
        cubic = ref.ElementCurve.of(E).cubic
        c = next(x for x in F5.elements()
                 if x != xq and cubic.eval(x).is_square()
                 and not cubic.eval(x).is_zero())
        # expand (x - xq)^2 (x - c)
        a0 = -xq * xq * c
        a1 = xq * xq + (xq + xq) * c
        a2 = -(xq + xq) - c
        cf = _coeffs(F5, basis, {(0, 0): a0, (1, 0): a1,
                                 (2, 0): a2, (3, 0): F5.one})
        sh = divisor_shape(E, _ix(F5, cf), basis, _ix(F5, Q), 6)
        assert sh["pole_order_at_inf"] == 6
        assert sh["ord_at_Q"] == 2
        assert sh["odd_order_zero_count"] == 2
        assert not sh["shape_ok"]

    def test_first_shape_ok_yields_genus3_zeta(self):
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in ref.ElementCurve.of(E).points()
                 if p is not INF and not p[1].is_zero())
        rng = random.Random(1)
        hit = None
        for _ in range(200):
            cf = [F5.from_index(rng.randrange(5)) for _ in basis]
            if all(c.is_zero() for c in cf):
                continue
            if divisor_shape(E, _ix(F5, cf), basis, _ix(F5, Q), 6)["shape_ok"]:
                hit = _ix(F5, cf)
                break
        assert hit is not None
        counts = [cover_count(E, hit, basis, i) for i in (1, 2, 3)]
        # shape_ok means the double cover is a genus-3 curve: its counts
        # must produce an integral L-polynomial with a valid Weil h
        L = l_from_counts(5, 3, counts)
        h = real_weil_from_l(L, 5, 3)
        assert validate_weil(h, 5)


class TestCoverCount:
    def brute_squarefree(self, E, A, B, pole_odd_extra):
        """Naive count for covers z^2 = fn whose zeros are all simple."""
        total = pole_odd_extra
        for P in E.points():
            if P is INF:
                continue
            v = A.eval(P[0]) + B.eval(P[0]) * P[1]
            if v.is_zero():
                total += 1
            elif v.is_square():
                total += 2
        return total

    def test_fn_y_matches_naive(self):
        E = EllipticCurve(F13, 0, 1, 0)
        basis = rr_basis(6)
        cf = _coeffs(F13, basis, {(0, 1): F13.one})
        A, B = fn_ab(cf, basis, F13)
        # pole order 3 is odd: one ramified point above infinity
        assert cover_count(E, _ix(F13, cf), basis, 1) == \
            self.brute_squarefree(ref.ElementCurve.of(E), A, B, 1)

    def test_fn_linear_matches_naive(self):
        E = E5()
        R = ref.ElementCurve.of(E)
        basis = rr_basis(6)
        for c in range(5):
            cf = _coeffs(F5, basis, {(0, 0): -F5.element(c), (1, 0): F5.one})
            A, B = fn_ab(cf, basis, F5)
            if not R.cubic.eval(F5.element(c)).is_zero():
                # simple zeros at the two points above x=c (if any); even pole,
                # leading coefficient 1 is a square: two points at infinity
                assert cover_count(E, _ix(F5, cf), basis, 1) == \
                    self.brute_squarefree(R, A, B, 2)

    def test_constant_cover(self):
        E = E5()
        basis = rr_basis(6)
        nu = F5.canonical_nonsquare
        cf_sq = _coeffs(F5, basis, {(0, 0): F5.one})
        cf_ns = _coeffs(F5, basis, {(0, 0): nu})
        assert cover_count(E, _ix(F5, cf_sq), basis, 1) == 2 * E.order()
        assert cover_count(E, _ix(F5, cf_ns), basis, 1) == 0

    def test_extension_count(self):
        E = EllipticCurve(F13, 0, 1, 0)
        basis = rr_basis(6)
        cf = _coeffs(F13, basis, {(0, 1): F13.one})
        E2, phi = _base_change(E, 2)
        A2, B2 = fn_ab([phi(c) for c in cf], basis, E2.base)
        naive = TestCoverCount().brute_squarefree(E2, A2, B2, 1)
        assert cover_count(E, _ix(F13, cf), basis, 2) == naive


# ---------------------------------------------------------------------------
# differential tests: divisor_shape and cover_count against the
# expansion-based versions they replaced
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _base_change(E, i):
    """The element reference of E over F_{q^i}, with the embedding of its
    base field (cached, so the points of the extension curve are listed
    once per (E, i))."""
    F = E.base
    big, phi = embed(F, i)
    return ref.ElementCurve(big, *(phi(F.from_index(a))
                                   for a in (E.a2, E.a4, E.a6))), phi


def _factor(f):
    """_Kernel.factor of the Poly f, its pieces as Polys."""
    F = f.base
    return [(Poly(F, map(F.from_index, g)), m)
            for g, m in _kernel(F).factor(_index_poly(f))]


def _reference_divisor_shape(E, coeffs, basis, Q, k):
    """divisor_shape by local expansions: split places of multiplicity
    m >= 2 are resolved by a vanishing order over the residue field (a
    QuotientField for places of degree >= 2)."""
    A, B = fn_ab(coeffs, basis, E.base)
    pole = fn_pole_order(_ix(E.base, coeffs), basis)
    c = ref.ElementCurve.of(E).cubic
    R = A * A - B * B * c
    ord_Q = ref.vanishing_order(E, coeffs, basis, Q)
    xQ = Q[0]
    odd_points = rational_odd = total_zeros = 0
    for piece, m in _factor(R):
        e = piece.degree
        total_zeros += m * e
        if e == 1:
            x0 = -piece[0]
            if x0 == xQ:
                if not Q[1].is_zero() and (m - ord_Q) % 2 == 1:
                    odd_points += 1
                    rational_odd += 1
                continue
            cv = c.eval(x0)
            if cv.is_zero():
                if m % 2 == 1:
                    odd_points += 1
                    rational_odd += 1
            elif not cv.is_square():
                if (m // 2) % 2 == 1:
                    odd_points += 2
            else:
                v_plus = ref.vanishing_order(E, coeffs, basis,
                                             (x0, cv.sqrt()))
                for v in (v_plus, m - v_plus):
                    if v % 2 == 1:
                        odd_points += 1
                        rational_odd += 1
            continue
        K = ref.QuotientField(piece)
        x0 = K.x_class
        cK = Poly(K, [K.from_base(cc) for cc in c.coeffs])
        cv = cK.eval(x0)
        if cv.is_zero():
            if m % 2 == 1:
                odd_points += e
        elif not cv.is_square():
            if (m // 2) % 2 == 1:
                odd_points += 2 * e
        else:
            coeffsK = [K.from_base(cc) for cc in coeffs]
            v_plus = ref.vanishing_order(E, coeffsK, basis, (x0, cv.sqrt()),
                                         field=K, cubic=cK)
            for v in (v_plus, m - v_plus):
                if v % 2 == 1:
                    odd_points += e
    return {
        "pole_order_at_inf": pole,
        "ord_at_Q": ord_Q,
        "odd_order_zero_count": odd_points,
        "rational_odd_zero_count": rational_odd,
        "total_zero_degree": total_zeros,
        "shape_ok": (pole == k and ord_Q == 2 and odd_points == k - 2
                     and rational_odd == 0),
    }


def _reference_cover_count(E, coeffs, basis, i=1, prec=14):
    """cover_count as a loop over E(F_{q^i}) in FieldElement arithmetic,
    with a local expansion at every zero of fn."""
    Ei, phi = _base_change(E, i)
    big = Ei.base
    coeffsK = [phi(c) for c in coeffs]
    A, B = fn_ab(coeffsK, basis, big)
    total = 0
    for P in Ei.points():
        if P is INF:
            continue
        v = fn_value(A, B, P)
        if not v.is_zero():
            total += 2 if v.is_square() else 0
            continue
        fs = ref.local_fn_series(A, B, Ei.cubic, P, big, prec)
        ordP = fs.valuation()
        if ordP % 2 == 1:
            total += 1
        else:
            total += 2 if fs.coefficient(ordP).is_square() else 0
    pole = fn_pole_order(_ix(big, coeffsK), basis)
    if pole % 2 == 1:
        return total + 1
    top = next(c for (mi, mj), c in zip(basis, coeffsK)
               if 2 * mi + 3 * mj == pole)
    return total + (2 if top.is_square() else 0)


F9 = FiniteField(3, 2, [-1, -1, 1])      # a^2 = a + 1
F11 = FiniteField(11)
DIFF_FIELDS = [F5, F7, F9, F11, F13, F25, F27]


def _random_curve(F, rng, two_torsion=False):
    """A random curve with an affine point off the 2-torsion and, when
    asked, a rational 2-torsion point."""
    while True:
        try:
            E = EllipticCurve(F, *(F.from_index(rng.randrange(F.q))
                                   for _ in range(3)))
        except UnsupportedShape:
            continue
        ys = [not P[1] for P in E.points() if P is not INF]
        if not all(ys) and (any(ys) or not two_torsion):
            return E


def _fn(basis, A, B=None):
    """Coefficients on `basis` of A(x) + B(x) y, for polynomials A and B."""
    F = A.base
    mono = {(i, 0): a for i, a in enumerate(A.coeffs)}
    if B is not None:
        mono.update({(i, 1): b for i, b in enumerate(B.coeffs)})
    assert all(m in basis for m, v in mono.items() if not v.is_zero())
    return [mono.get(m, F.zero) for m in basis]


def _random_poly(F, rng, degree):
    """A random monic polynomial of the given degree."""
    return Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(degree)]
                + [F.one])


def _random_irreducible(F, rng, degree):
    while True:
        h = _random_poly(F, rng, degree)
        if _kernel(F).is_irreducible(_index_poly(h)):
            return h


def _with_zero_over(E, h, b, budget_deg):
    """a(x) + b y with deg a <= budget_deg whose norm a^2 - b^2 c has the
    irreducible h as a factor, so it vanishes at a point over a root of h
    (or None when no such a exists: an inert place of h)."""
    F = E.base
    b = Poly.constant(F, b)
    c = ref.ElementCurve.of(E).cubic
    for a in product(F.elements(), repeat=budget_deg + 1):
        A = Poly(F, list(a))
        if ((A * A - b * b * c) % h).is_zero():
            return A, b
    return None


def _forced_functions(E, basis, Q, rng):
    """The places that random functions seldom reach: a common factor of A
    and B of degree 1 and 2 with a further zero over it, x_Q a root of the
    norm with multiplicity > 2, zeros at a 2-torsion Q, and inert places of
    degree 1 and 2."""
    F = E.base
    k = max(2 * i + 3 * j for i, j in basis)
    x = Poly.x(F)
    lin_Q = x - Poly.constant(F, Q[0])
    b = F.from_index(rng.randrange(1, F.q))
    out = [_fn(basis, lin_Q), _fn(basis, lin_Q * lin_Q),
           _fn(basis, lin_Q * lin_Q * lin_Q), _fn(basis, Poly(F, []), lin_Q),
           _fn(basis, Poly(F, []), Poly(F, [F.one]))]
    # e = 1: (x - x0)(a + b y) vanishing again over x0; at x0 = x_Q the
    # norm has x_Q as a root of multiplicity >= 3
    for x0 in sorted({Q[0], F.from_index(rng.randrange(F.q))}, key=F.index):
        lin = x - Poly.constant(F, x0)
        got = _with_zero_over(E, lin, b, 1)
        if got is not None:
            out.append(_fn(basis, lin * got[0], lin * got[1]))
    # e = 2: an irreducible quadratic h, alone (split or inert), as a
    # common factor of A and B = 0, and for k = 8 as a common factor of A
    # and B with a further zero over it
    for _ in range(2):
        h = _random_irreducible(F, rng, 2)
        out.append(_fn(basis, h))
        out.append(_fn(basis, h * _random_poly(F, rng, 1)))
        if k == 8:
            got = _with_zero_over(E, h, b, 1)
            if got is not None:
                out.append(_fn(basis, h * got[0], h * got[1]))
            out.append(_fn(basis, h * _random_poly(F, rng, 1),
                           h * Poly.constant(F, b)))
    # e = 1 inert places: x - x0 with c(x0) a nonsquare
    for x0 in F.elements():
        if not ref.ElementCurve.of(E).cubic.eval(x0).is_square():
            out.append(_fn(basis, x - Poly.constant(F, x0)))
            break
    return out


def _kernel_combinations(E, basis, Q, rng, n):
    """n random nonzero members of the double-zero space at Q, the
    functions that double-cover test 2 sees."""
    F = E.base
    kern = [[F.from_index(v) for v in vec]
            for vec in _double_zero_kernel(E, basis, _ix(F, Q))]
    out = []
    while len(out) < n:
        lam = [F.from_index(rng.randrange(F.q)) for _ in kern]
        cf = [sum((l * v[i] for l, v in zip(lam, kern)), F.zero)
              for i in range(len(basis))]
        if any(not c.is_zero() for c in cf):
            out.append(cf)
    return out


def _row_reduced_kernel(E, basis, Q):
    """The double-zero space at Q by Gaussian elimination, the reference
    for _double_zero_kernel's closed form: the kernel of two rows, the
    value of each monomial x^i y^j at Q and its derivative in the local
    parameter t, reduced to echelon form.  Off 2-torsion t = x - x0 and
    dy/dx = c'(x0) / (2 y0); at a 2-torsion point t = y and
    x = x0 + O(t^2), so the rows are x0^i [j = 0] and x0^i [j = 1]."""
    kern = _kernel(E.base)
    mul, p, k = kern.mul, E.base.p, len(basis)
    x0, y0 = Q
    powers = [1]                        # x0^i
    for _ in range(max(i for i, _ in basis)):
        powers.append(mul(powers[-1], x0))
    if not y0:
        mat = [[powers[i] if j == r else 0 for i, j in basis] for r in (0, 1)]
    else:
        dy = mul(kern.horner(kern._derivative(E._cubic), x0),
                 kern.inv(mul(2, y0)))
        mat = [[], []]
        for (i, j) in basis:
            dxi = mul(i % p, powers[i - 1]) if i else 0
            mat[0].append(mul(powers[i], y0) if j else powers[i])
            mat[1].append(kern.add(mul(dxi, y0), mul(powers[i], dy))
                          if j else dxi)
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((rr for rr in range(r, 2) if mat[rr][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = kern.inv(mat[r][col])
        mat[r] = [mul(v, inv) for v in mat[r]]
        c = mat[1 - r][col]
        mat[1 - r] = [kern.sub(a, mul(c, b))
                      for a, b in zip(mat[1 - r], mat[r])]
        pivots.append(col)
        if r:
            break
    kernel = []
    for fc in (c for c in range(k) if c not in pivots):
        vec = [0] * k
        vec[fc] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = kern.neg(row[fc])
        kernel.append(vec)
    return kernel


class TestDoubleZeroKernel:
    """_double_zero_kernel directly: len(basis) - 2 vectors, each a
    function vanishing to order >= 2 at Q by the element reference, for Q
    off and on the 2-torsion."""

    @pytest.mark.parametrize("k", [6, 8])
    @pytest.mark.parametrize("F", [F5, F7, F9, F25], ids=lambda F: f"F{F.q}")
    def test_vectors_vanish_twice_at_Q(self, F, k):
        rng = random.Random(3000 + 10 * F.q + k)
        basis = rr_basis(k)
        E = _random_curve(F, rng, two_torsion=True)
        on_torsion = set()
        for Q in _points_to_try(E, rng):
            on_torsion.add(Q[1].is_zero())
            kern = _double_zero_kernel(E, basis, _ix(F, Q))
            assert len(kern) == len(basis) - 2
            for vec in kern:
                assert any(vec)
                assert ref.vanishing_order(
                    E, [F.from_index(v) for v in vec], basis, Q) >= 2, \
                    (E, Q, vec)
        assert on_torsion == {False, True}


    @pytest.mark.parametrize("k", [6, 8])
    @pytest.mark.parametrize("F", [F5, F7, F9, F25, F27],
                             ids=lambda F: f"F{F.q}")
    def test_closed_form_equals_row_reduction(self, F, k):
        # vector for vector, at every affine Q of a curve with a rational
        # 2-torsion point
        rng = random.Random(4000 + 10 * F.q + k)
        basis = rr_basis(k)
        E = _random_curve(F, rng, two_torsion=True)
        affine = E.points()[1:]
        assert {bool(y) for _, y in affine} == {False, True}
        for Q in affine:
            assert _double_zero_kernel(E, basis, Q) == \
                _row_reduced_kernel(E, basis, Q), (E, Q)


def _random_functions(F, basis, rng, n):
    out = []
    while len(out) < n:
        cf = [F.from_index(rng.randrange(F.q)) for _ in basis]
        if any(not c.is_zero() for c in cf):
            out.append(cf)
    return out


def _points_to_try(E, rng):
    """A random affine point off the 2-torsion and, when there is one, a
    rational 2-torsion point."""
    affine = [P for P in ref.ElementCurve.of(E).points() if P is not INF]
    off = [P for P in affine if not P[1].is_zero()]
    tors = [P for P in affine if P[1].is_zero()]
    return [rng.choice(off)] + tors[:1]


class TestDivisorShapeDifferential:
    @pytest.mark.parametrize("k", [6, 8])
    @pytest.mark.parametrize("F", DIFF_FIELDS, ids=lambda F: f"F{F.q}")
    def test_equals_expansion_reference(self, F, k):
        rng = random.Random(1000 * F.q + k)
        basis = rr_basis(k)
        # the reference costs up to 0.3 s a call over F_25 and F_27
        n = 6 if F.q <= 13 else 3
        cases = 0
        for two_torsion in (True, False):
            E = _random_curve(F, rng, two_torsion)
            for Q in _points_to_try(E, rng):
                fns = (_random_functions(F, basis, rng, n)
                       + _forced_functions(E, basis, Q, rng))
                if not Q[1].is_zero():
                    fns += _kernel_combinations(E, basis, Q, rng, n)
                for cf in fns:
                    got = divisor_shape(E, _ix(F, cf), basis, _ix(F, Q), k)
                    assert got == _reference_divisor_shape(E, cf, basis, Q, k), \
                        (E, Q, cf)
                    assert got["total_zero_degree"] == got["pole_order_at_inf"]
                    cases += 1
        assert cases >= 30


def _double_root_off_Q(kern, E, coeffs, basis, Q):
    """Whether S = R / (x - x_Q)^2, R the norm of fn, has a repeated root:
    the case where shape_possible needs gcd(S, S') to divide gcd(A, B)."""
    A, B = _fn_indices(basis, coeffs)
    R = _norm(kern, A, B, E._cubic)
    lin = [kern.neg(Q[0]), 1]
    S = kern._pquo(kern._pquo(R, lin), lin)
    return len(kern.gcd(S, kern._derivative(S))) > 1


class TestShapePossible:
    """shape_possible is necessary for divisor_shape's shape_ok: on seeded
    members of the double-zero space at every affine Q, the 2-torsion
    included (the engine's fallback), no function it rejects has an ok
    shape.  The sample holds ok shapes, ok shapes whose norm has a double
    root off Q, and pre-test rejections."""

    @staticmethod
    def _sample(F, k, per_point):
        rng = random.Random(7000 + 10 * F.q + k)
        kern = _kernel(F)
        basis = rr_basis(k)
        E = _random_curve(F, rng, two_torsion=True)
        ok = double = rejected = 0
        for Q in E.points()[1:]:
            space = _double_zero_kernel(E, basis, Q)
            for _ in range(per_point):
                cf = [0] * len(basis)
                for vec in space:
                    lam = rng.randrange(F.q)
                    cf = [kern.add(c, kern.mul(lam, v))
                          for c, v in zip(cf, vec)]
                if not any(cf):
                    continue
                possible = shape_possible(E, cf, basis, Q)
                shape_ok = divisor_shape(E, cf, basis, Q, k)["shape_ok"]
                assert possible or not shape_ok, (E, Q, cf)
                ok += shape_ok
                double += shape_ok and _double_root_off_Q(kern, E, cf,
                                                          basis, Q)
                rejected += not possible
        assert ok and double and rejected, (ok, double, rejected)

    @pytest.mark.parametrize("k", [6, 8])
    @pytest.mark.parametrize("F", DIFF_FIELDS, ids=lambda F: f"F{F.q}")
    def test_necessary_for_shape_ok(self, F, k):
        self._sample(F, k, 20)

    @pytest.mark.skipif(os.environ.get("POINTLESS_EXTENDED") != "1",
                        reason="extended-scale run; set POINTLESS_EXTENDED=1")
    def test_necessary_over_f53(self):
        # criterion 5c's field and pole budget
        self._sample(FiniteField(53), 8, 20)

    def test_4b_survivors_pass(self, monkeypatch):
        # criterion 4b's curves with the pre-test switched off: every
        # function divisor_shape keeps passes shape_possible as well
        monkeypatch.setattr(search, "shape_possible", lambda *args: True)
        basis = rr_basis(6)
        kept = 0
        for a4, a6 in ((2, 0), (3, 0), (1, 7), (0, 7)):
            E = EllipticCurve(F25, 0, a4, a6)
            r = search.search_double_covers_elliptic(E, mode="census")
            for s in r.survivors:
                assert shape_possible(E, s["coeffs"], basis, tuple(s["Q"]))
            kept += len(r.survivors)
        assert kept == 21


class TestCoverCountDifferential:
    @pytest.mark.parametrize("F, degrees", [
        (F5, (1, 2, 3)), (F7, (1, 2, 3)), (F9, (1, 2, 3)),
        (F11, (1, 2, 3)), (F13, (1, 2)), (F25, (1, 2)), (F27, (1, 2)),
    ], ids=["F5", "F7", "F9", "F11", "F13", "F25", "F27"])
    def test_equals_point_loop_reference(self, F, degrees):
        rng = random.Random(F.q)
        basis = rr_basis(6)
        E = _random_curve(F, rng)
        x = Poly.x(F)
        off = next(P for P in ref.ElementCurve.of(E).points()
                   if P is not INF and not P[1].is_zero())
        lin = x - Poly.constant(F, off[0])
        fns = _random_functions(F, basis, rng, 4) + [
            _fn(basis, lin),                          # zeros over F_q
            _fn(basis, lin * lin),                    # double zeros over F_q
            _fn(basis, Poly(F, []), Poly(F, [F.one])),  # y: the 2-torsion
            _fn(basis, Poly(F, []), lin),
        ] + _kernel_combinations(E, basis, off, rng, 2)
        # zeros over F_{q^2} and F_{q^3}: irreducible quadratics and cubics
        fns += [_fn(basis, _random_irreducible(F, rng, d)) for d in (2, 2, 3)]
        fns += [_fn(basis, _random_irreducible(F, rng, 2), Poly(F, [F.one]))]
        for cf in fns:
            for i in degrees:
                assert cover_count(E, _ix(F, cf), basis, i) == \
                    _reference_cover_count(E, cf, basis, i), (E, cf, i)

    @pytest.mark.parametrize("F", [F5, F7, F9, F11, F13],
                             ids=lambda F: f"F{F.q}")
    def test_forced_zeros(self, F):
        """Zeros that random functions seldom reach, over F_q and F_{q^2},
        each function also times a nonsquare.  E has c = (x - t0) g with g
        irreducible, so 2-torsion points over F_q and over F_{q^2}; a and
        b are the multiplicities of x0 in A and B."""
        rng = random.Random(4000 + F.q)
        basis = rr_basis(8)
        kern = _kernel(F)
        while True:
            E = _random_curve(F, rng, two_torsion=True)
            if kern.root_count(E._cubic) == 1:
                break
        R = ref.ElementCurve.of(E)
        x, one = Poly.x(F), Poly(F, [F.one])
        x0, y0 = next(P for P in R.points()
                      if P is not INF and not P[1].is_zero())
        t0 = next(P[0] for P in R.points() if P is not INF and P[1].is_zero())
        lin, lin_T = x - Poly.constant(F, x0), x - Poly.constant(F, t0)
        g = R.cubic // lin_T
        # the tangent at (x0, y0) is tangent_A + y
        lam = ref.derivative(R.cubic).eval(x0) / (y0 + y0)
        tangent_A = -Poly.constant(F, y0) - Poly.constant(F, lam) * lin
        pairs = [
            (tangent_A, one),          # order >= 2 at a split point
            (lin * tangent_A, lin),    # shared with the conjugate, and more
            (lin * lin, lin),
            # at (t0, 0): a <= b
            (lin_T, None), (lin_T * lin_T, None), (lin_T, lin_T),
            (lin_T, lin_T * lin_T),
            # at (t0, 0): a > b
            (lin_T * lin_T, one), (lin_T * lin_T, lin_T),
            (lin_T * lin_T * lin_T, lin_T),
            # at the 2-torsion over F_{q^2}: a <= b, then a > b
            (g, None), (g, g), (g * g, one), (g * g, g),
        ]
        # A + y with A^2 - c = h^2, from c = (A - h)(A + h) with
        # A - h = u (x - t0): a double zero over each root of h, off the
        # 2-torsion, in F_{q^2} when h is irreducible
        half = Poly.constant(F, F.element(2).inv())

        def halves(u):
            u, ui = Poly.constant(F, u), Poly.constant(F, u.inv())
            return (u * lin_T + g * ui) * half, (g * ui - u * lin_T) * half

        units = [u for u in F.elements() if not u.is_zero()]
        u = next((u for u in units if kern.is_irreducible(
            _index_poly(halves(u)[1].monic()))), units[0])
        A, h = halves(u)
        assert A * A - R.cubic == h * h
        pairs.append((A, one))
        nu = Poly.constant(F, F.canonical_nonsquare)
        for A, B in pairs:
            for scale in (one, nu):
                cf = _fn(basis, A * scale, None if B is None else B * scale)
                for i in (1, 2):
                    assert cover_count(E, _ix(F, cf), basis, i) == \
                        _reference_cover_count(E, cf, basis, i), (E, cf, i)


# ---------------------------------------------------------------------------
# the orders and leading terms of _zero_order against the element Series
# ---------------------------------------------------------------------------

def _kernel_points(E, i, rng):
    """(F_{q^i}, its kernel, c on its indices, points) with points a few
    seeded affine points of E over F_{q^i} off the 2-torsion and every one
    on it, as index pairs."""
    big, imap, kern, _ = _extension(E.base, i)
    c = [imap[v] for v in E._cubic]
    xs = list(range(big.q))
    rng.shuffle(xs)
    off, tors = [], []
    for x in xs:
        cx = kern.horner(c, x)
        if not cx:
            tors.append((x, 0))
        elif len(off) < 3 and kern.sqrt_count(cx) == 2:
            y = kern.exp[kern.log[cx] >> 1]
            off.append((x, rng.choice((y, kern.neg(y)))))
    return big, kern, c, off + tors


class TestExpansionsAgainstSeries:
    """_zero_order on the kernel of F_{q^i} against the element Series
    reference: the vanishing order, and the square class of the leading
    coefficient in the same local parameter (y at a 2-torsion point,
    x - x0 elsewhere), at seeded points off and at the 2-torsion."""

    @pytest.mark.parametrize("F, degrees", [
        (F5, (1, 2, 3)), (F7, (1, 2, 3)), (F9, (1, 2, 3)), (F25, (1, 2)),
        (F27, (1, 2)),
    ], ids=["F5", "F7", "F9", "F25", "F27"])
    def test_coefficients(self, F, degrees):
        rng = random.Random(2000 + F.q)
        reached = set()
        for two_torsion in (True, False, False):
            E = _random_curve(F, rng, two_torsion)
            for i in degrees:
                big, kern, c, points = _kernel_points(E, i, rng)
                cubic = Poly(big, [big.from_index(v) for v in c])
                for x0, y0 in points:
                    P = (big.from_index(x0), big.from_index(y0))
                    for A, B in _vanishing_at(big, kern, c, x0, y0, rng):
                        order, lead = _zero_order(kern, A, B, c, x0, y0)
                        want = ref.local_fn_series(
                            Poly(big, [big.from_index(v) for v in A]),
                            Poly(big, [big.from_index(v) for v in B]),
                            cubic, P, big, 12)
                        assert order == want.valuation(), (E, i, P, A, B)
                        assert (kern.sqrt_count(lead) == 2) == \
                            want.coefficient(order).is_square(), (E, i, P, A, B)
                        reached.add((i, y0 == 0, order))
        assert {(i, t) for i in degrees for t in (False, True)} <= \
            {(i, t) for i, t, _ in reached}
        assert {order for _, _, order in reached} >= {1, 2, 4, 5}


def _vanishing_at(big, kern, c, x0, y0, rng):
    """Index pairs (A, B) of functions A + B y in L(8 infinity) with a zero
    at (x0, y0), each times a random nonzero constant: a random one with
    its constant term adjusted; (x - x0)^2 (1 + y) and
    (x - x0)^2 y + (x - x0)^3, of higher order; (x - x0)(1 + y) and
    x - x0, of order 2 at a 2-torsion point; and off the 2-torsion the
    tangent y - y0 - lambda (x - x0), of order >= 2 with x0 a multiple
    root of its norm."""
    A = [rng.randrange(big.q) for _ in range(5)]
    B = [rng.randrange(big.q) for _ in range(2)]
    value = kern.add(kern.horner(A, x0), kern.mul(kern.horner(B, x0), y0))
    A[0] = kern.sub(A[0], value)
    mx = kern.neg(x0)
    lin = [mx, 1]
    sq = [kern.mul(mx, mx), kern.mul(2, mx), 1]          # (x - x0)^2
    cube = kern._pmul(sq, lin)                           # (x - x0)^3
    out = [(A, B), (sq, sq), (cube, sq), (lin, lin), (lin, [])]
    if y0:
        lam = kern.mul(kern.horner(kern._derivative(c), x0),
                       kern.inv(kern.mul(2, y0)))
        out.append(([kern.sub(kern.mul(lam, x0), y0), kern.neg(lam)], [1]))
    u = rng.randrange(1, big.q)
    return [([kern.mul(u, v) for v in A], [kern.mul(u, v) for v in B])
            for A, B in out]
