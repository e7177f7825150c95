"""Elliptic-curve layer: group law, quotient representatives, Riemann-Roch
monomials, vanishing orders, divisor shapes, and double-cover counts."""

import random
from functools import lru_cache
from itertools import product

import pytest

from pointless.curves import _extension, _index_poly
from pointless.elliptic import (
    EXPANSION_PREC,
    INF,
    EllipticCurve,
    _local_fn_series,
    _local_xy_series,
    cover_count,
    divisor_shape,
    fn_pole_order,
    hasse_interval,
    rr_basis,
)
from pointless.errors import (
    EmptyCosetUnderConstraint,
    EvenCharacteristic,
    UnsupportedShape,
    ZeroFunction,
)
from pointless.field import FiniteField, Poly, embed
from pointless.search import _double_zero_kernel
from pointless.series import _ser_coeff
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
        assert E.contains((F5.zero, F5.one))
        assert not E.contains((F5.zero, F5.element(2)))


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
        # E(F_25) = Z/4 x Z/4: the coset 2E *is* the 2-torsion subgroup
        E = EllipticCurve(F25, 0, F25.from_index(0), F25.from_index(7))
        assert E.group_structure() == (4, 4)
        with pytest.raises(EmptyCosetUnderConstraint):
            E.quotient_reps(2)
        assert len(E.quotient_reps(2, fallback=True)) == 4

    def test_m3_cosets(self):
        E = E5()  # order 9
        n1, n2 = E.group_structure()
        reps = E.quotient_reps(3, exclude_two_torsion=False)
        # |E/3E| = 3^(number of invariants divisible by 3)
        expected = (3 if n1 % 3 == 0 else 1) * (3 if n2 % 3 == 0 else 1)
        assert len(reps) == expected


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


def _ord_at(E, coeffs, P):
    """ord_P of the function on rr_basis(6), read off divisor_shape."""
    return divisor_shape(E, coeffs, rr_basis(6), P, 6)["ord_at_Q"]


class TestVanishingOrder:
    def test_orders_at_points(self):
        E = E5()
        basis = rr_basis(6)
        P = next(p for p in E.points()
                 if p is not INF and not p[1].is_zero())
        x0 = P[0]
        lin = [-x0, F5.one]
        cf_lin = _coeffs(F5, basis, {(0, 0): lin[0], (1, 0): lin[1]})
        assert _ord_at(E, cf_lin, P) == 1
        cf_sq = _coeffs(F5, basis, {(0, 0): x0 * x0,
                                    (1, 0): -(x0 + x0),
                                    (2, 0): F5.one})
        assert _ord_at(E, cf_sq, P) == 2
        other = next(p for p in E.points()
                     if p is not INF and p[0] != x0)
        assert _ord_at(E, cf_lin, other) == 0

    def test_two_torsion_local_parameter(self):
        # y^2 = x(x^2+1) over F_13: (0,0) is 2-torsion
        E = EllipticCurve(F13, 0, 1, 0)
        basis = rr_basis(6)
        T = (F13.zero, F13.zero)
        assert E.contains(T)
        cf_x = _coeffs(F13, basis, {(1, 0): F13.one})
        cf_y = _coeffs(F13, basis, {(0, 1): F13.one})
        assert _ord_at(E, cf_x, T) == 2
        assert _ord_at(E, cf_y, T) == 1

    def test_zero_function_rejected(self):
        E = E5()
        basis = rr_basis(6)
        P = E.points()[1]
        with pytest.raises(ZeroFunction):
            divisor_shape(E, [F5.zero] * 6, basis, P, 6)


class TestDivisorShape:
    def test_zero_degree_equals_pole_order(self):
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in E.points()
                 if p is not INF and not p[1].is_zero())
        rng = random.Random(1)
        for _ in range(200):
            cf = [F5.from_index(rng.randrange(5)) for _ in basis]
            if all(c.is_zero() for c in cf):
                continue
            sh = divisor_shape(E, cf, basis, Q, 6)
            assert sh["total_zero_degree"] == sh["pole_order_at_inf"]

    def test_explicit_non_example(self):
        # (x - xQ)^2 (x - c): double zeros at Q, sigma(Q), only two odd points
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in E.points()
                 if p is not INF and not p[1].is_zero())
        xq = Q[0]
        c = next(x for x in F5.elements()
                 if x != xq and E.cubic.eval(x).is_square()
                 and not E.cubic.eval(x).is_zero())
        # expand (x - xq)^2 (x - c)
        a0 = -xq * xq * c
        a1 = xq * xq + (xq + xq) * c
        a2 = -(xq + xq) - c
        cf = _coeffs(F5, basis, {(0, 0): a0, (1, 0): a1,
                                 (2, 0): a2, (3, 0): F5.one})
        sh = divisor_shape(E, cf, basis, Q, 6)
        assert sh["pole_order_at_inf"] == 6
        assert sh["ord_at_Q"] == 2
        assert sh["odd_order_zero_count"] == 2
        assert not sh["shape_ok"]

    def test_first_shape_ok_yields_genus3_zeta(self):
        E = E5()
        basis = rr_basis(6)
        Q = next(p for p in E.points()
                 if p is not INF and not p[1].is_zero())
        rng = random.Random(1)
        hit = None
        for _ in range(200):
            cf = [F5.from_index(rng.randrange(5)) for _ in basis]
            if all(c.is_zero() for c in cf):
                continue
            if divisor_shape(E, cf, basis, Q, 6)["shape_ok"]:
                hit = cf
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
        assert cover_count(E, cf, basis, 1) == self.brute_squarefree(E, A, B, 1)

    def test_fn_linear_matches_naive(self):
        E = E5()
        basis = rr_basis(6)
        for c in range(5):
            cf = _coeffs(F5, basis, {(0, 0): -F5.element(c), (1, 0): F5.one})
            A, B = fn_ab(cf, basis, F5)
            if not E.cubic.eval(F5.element(c)).is_zero():
                # simple zeros at the two points above x=c (if any); even pole,
                # leading coefficient 1 is a square: two points at infinity
                assert cover_count(E, cf, basis, 1) == \
                    self.brute_squarefree(E, A, B, 2)

    def test_constant_cover(self):
        E = E5()
        basis = rr_basis(6)
        nu = F5.canonical_nonsquare
        cf_sq = _coeffs(F5, basis, {(0, 0): F5.one})
        cf_ns = _coeffs(F5, basis, {(0, 0): nu})
        assert cover_count(E, cf_sq, basis, 1) == 2 * E.order()
        assert cover_count(E, cf_ns, basis, 1) == 0

    def test_extension_count(self):
        E = EllipticCurve(F13, 0, 1, 0)
        basis = rr_basis(6)
        cf = _coeffs(F13, basis, {(0, 1): F13.one})
        E2, phi = _base_change(E, 2)
        A2, B2 = fn_ab([phi(c) for c in cf], basis, E2.base)
        naive = TestCoverCount().brute_squarefree(E2, A2, B2, 1)
        assert cover_count(E, cf, basis, 2) == naive


# ---------------------------------------------------------------------------
# differential tests: divisor_shape and cover_count against the
# expansion-based versions they replaced
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _base_change(E, i):
    """E over F_{q^i}, with the embedding of its base field (cached, so
    the points of the extension curve are listed once per (E, i))."""
    big, phi = embed(E.base, i)
    return EllipticCurve(big, phi(E.a2), phi(E.a4), phi(E.a6)), phi


def _reference_divisor_shape(E, coeffs, basis, Q, k):
    """divisor_shape by local expansions: split places of multiplicity
    m >= 2 are resolved by a vanishing order over the residue field (a
    QuotientField for places of degree >= 2)."""
    A, B = fn_ab(coeffs, basis, E.base)
    pole = fn_pole_order(coeffs, basis)
    c = E.cubic
    R = A * A - B * B * c
    ord_Q = ref.vanishing_order(E, coeffs, basis, Q)
    xQ = Q[0]
    odd_points = rational_odd = total_zeros = 0
    for piece, m in R.monic().factor():
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
    pole = fn_pole_order(coeffsK, basis)
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
        ys = [P[1].is_zero() for P in E.points() if P is not INF]
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
        if h.is_irreducible():
            return h


def _with_zero_over(E, h, b, budget_deg):
    """a(x) + b y with deg a <= budget_deg whose norm a^2 - b^2 c has the
    irreducible h as a factor, so it vanishes at a point over a root of h
    (or None when no such a exists: an inert place of h)."""
    F = E.base
    b = Poly.constant(F, b)
    for a in product(F.elements(), repeat=budget_deg + 1):
        A = Poly(F, list(a))
        if ((A * A - b * b * E.cubic) % h).is_zero():
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
        if not E.cubic.eval(x0).is_square():
            out.append(_fn(basis, x - Poly.constant(F, x0)))
            break
    return out


def _kernel_combinations(E, basis, Q, rng, n):
    """n random nonzero members of the double-zero space at Q, the
    functions that double-cover test 2 sees."""
    F = E.base
    kern = _double_zero_kernel(E, basis, Q)
    out = []
    while len(out) < n:
        lam = [F.from_index(rng.randrange(F.q)) for _ in kern]
        cf = [sum((l * v[i] for l, v in zip(lam, kern)), F.zero)
              for i in range(len(basis))]
        if any(not c.is_zero() for c in cf):
            out.append(cf)
    return out


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
    affine = [P for P in E.points() if P is not INF]
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
                    got = divisor_shape(E, cf, basis, Q, k)
                    assert got == _reference_divisor_shape(E, cf, basis, Q, k), \
                        (E, Q, cf)
                    assert got["total_zero_degree"] == got["pole_order_at_inf"]
                    cases += 1
        assert cases >= 30


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
        off = next(P for P in E.points() if P is not INF and not P[1].is_zero())
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
                assert cover_count(E, cf, basis, i) == \
                    _reference_cover_count(E, cf, basis, i), (E, cf, i)


# ---------------------------------------------------------------------------
# the kernel series of elliptic's expansions against the element Series
# ---------------------------------------------------------------------------

def _kernel_points(E, i, rng):
    """(F_{q^i}, its kernel, c on its indices, points) with points a few
    seeded affine points of E over F_{q^i} off the 2-torsion and every one
    on it, as index pairs."""
    big, imap, kern, _ = _extension(E.base, i)
    c = [imap[v] for v in _index_poly(E.cubic)]
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


def _as_indices(big, s):
    """(val, coefficients of t^0 .. t^(prec-1), prec) of a reference Series."""
    return s.val, [big.index(s.coefficient(k)) for k in range(s.prec)], s.prec


def _as_kernel_indices(s):
    return s[0], [_ser_coeff(s, k) for k in range(s[2])], s[2]


class TestExpansionsAgainstSeries:
    """_local_xy_series and _local_fn_series on the kernel of F_{q^i}
    against the element Series reference, coefficient by coefficient, at
    seeded points off and at the 2-torsion."""

    @pytest.mark.parametrize("F, degrees", [
        (F5, (1, 2, 3)), (F7, (1, 2, 3)), (F9, (1, 2, 3)), (F25, (1, 2)),
        (F27, (1, 2)),
    ], ids=["F5", "F7", "F9", "F25", "F27"])
    def test_coefficients(self, F, degrees):
        rng = random.Random(2000 + F.q)
        prec = EXPANSION_PREC
        reached = set()
        for two_torsion in (True, False, False):
            E = _random_curve(F, rng, two_torsion)
            for i in degrees:
                big, kern, c, points = _kernel_points(E, i, rng)
                cubic = Poly(big, [big.from_index(v) for v in c])
                for x0, y0 in points:
                    P = (big.from_index(x0), big.from_index(y0))
                    reached.add((i, y0 == 0))
                    got = _local_xy_series(kern, c, x0, y0)
                    want = ref.local_xy_series(cubic, P, big, prec)
                    for g, w in zip(got, want):
                        assert _as_kernel_indices(g) == _as_indices(big, w)
                    for A, B in _vanishing_at(big, kern, x0, y0, rng):
                        got = _local_fn_series(kern, A, B, c, x0, y0)
                        want = ref.local_fn_series(
                            Poly(big, [big.from_index(v) for v in A]),
                            Poly(big, [big.from_index(v) for v in B]),
                            cubic, P, big, prec)
                        assert _as_kernel_indices(got) == \
                            _as_indices(big, want), (E, i, P, A, B)
        assert {(i, t) for i in degrees for t in (False, True)} <= reached


def _vanishing_at(big, kern, x0, y0, rng):
    """Index pairs (A, B) of functions A + B y in L(8 infinity) with a zero
    at (x0, y0): a random one with its constant term adjusted, and
    (x - x0)^2 (1 + y) and (x - x0)^2 y + (x - x0)^3, of higher order."""
    A = [rng.randrange(big.q) for _ in range(5)]
    B = [rng.randrange(big.q) for _ in range(2)]
    value = kern.add(kern.horner(A, x0), kern.mul(kern.horner(B, x0), y0))
    A[0] = kern.sub(A[0], value)
    mx = kern.neg(x0)
    sq = [kern.mul(mx, mx), kern.mul(2, mx), 1]          # (x - x0)^2
    cube = kern._pmul(sq, [mx, 1])                       # (x - x0)^3
    return [(A, B), (sq, sq), (cube, sq)]
