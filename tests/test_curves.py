"""Curve models: pinned paper point counts plus structural properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pointless import curves
from pointless.curves import (
    QUARTIC_MONOMIALS,
    ASTower,
    ArtinSchreierCurve,
    FiberProductGenus4,
    HyperellipticOdd,
    PlaneQuartic,
    _extension,
    _resultant_y,
    _tower_place_points,
    _tower_place_points_at,
)
from pointless.errors import (
    DivisionByZero,
    EvenCharacteristic,
    MixedFields,
    OddCharacteristic,
    PrecisionExhausted,
    UnsupportedShape,
    ZeroPolynomial,
)
from pointless.field import (
    FiniteField,
    Poly,
    RationalFunction,
    _index_poly,
    _itrim,
    _kernel,
    embed,
)
from pointless.harness import load_fixtures
from pointless.series import _ser_cubic_branch
from pointless.zeta import l_from_counts, predicted_counts, serre_bound_holds

from element_reference import (
    QElement,
    QuotientField,
    Series,
    _element_factor,
    euclid_gcd,
    fiber_product_count,
    poly_at_series,
    roots,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F7 = FiniteField(7)
F11 = FiniteField(11)
F13 = FiniteField(13)
F17 = FiniteField(17)
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [-1, -1, 1])
F25 = FiniteField(5, 2, [2, -1, 1])
F27 = FiniteField(3, 3, [1, -1, 0, 1])
F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
F32 = FiniteField(2, 5, [1, 0, 1, 0, 0, 1])


def P(F, ints):
    return Poly.from_ints(F, ints)


def _poly(F, idx):
    """The Poly of a base-field index list."""
    return Poly(F, map(F.from_index, idx))


def _separable(f):
    """Whether the Poly f is separable, on its field's kernel."""
    return _kernel(f.base).is_separable(_index_poly(f))


def _kept(C):
    """The index lists a model keeps of its f (and g): the (num, den) pair
    of an Artin-Schreier curve, f and g of a fiber product, else f."""
    if isinstance(C, ArtinSchreierCurve):
        return [(C._num, C._den)]
    if isinstance(C, FiberProductGenus4):
        return [C._f, C._g]
    return [C._idx]


def _poly_form(F, args):
    """The Poly form of a model's index-list arguments: an index list
    becomes a Poly, a (num, den) pair of them a RationalFunction."""
    def poly(idx):
        return Poly(F, map(F.from_index, idx))
    return [RationalFunction(*map(poly, a)) if isinstance(a, tuple)
            else poly(a) for a in args]


def _assert_index_form_matches(F, model, args):
    """model(F, *args) on index lists agrees with the model built from
    their Poly form: genus, count(1..3), and whichever of conductor and
    properties() the model has; both keep the indices of the Poly form.
    Returns the index-form curve."""
    forms = _poly_form(F, args)
    ref, C = model(F, *forms), model(F, *args)
    assert C.genus == ref.genus, args
    assert ([C.count(i) for i in (1, 2, 3)]
            == [ref.count(i) for i in (1, 2, 3)]), args
    assert _kept(C) == _kept(ref) == [
        (_index_poly(h.num), _index_poly(h.den))
        if isinstance(h, RationalFunction) else _index_poly(h)
        for h in forms]
    if hasattr(ref, "conductor"):
        assert C.conductor == ref.conductor, args
    if hasattr(ref, "properties"):
        assert C.properties() == ref.properties(), args
    return C


def _assert_refused(F, model, args, error, poly_form=True):
    """model(F, *args) raises exactly error from the index lists args and,
    unless poly_form is False or an index lies outside 0..q-1 (from_index
    would read it as another element), from their Poly form."""
    forms = [lambda: args]
    flat = [c for a in args for h in (a if isinstance(a, tuple) else (a,))
            for c in h]
    if poly_form and all(0 <= c < F.q for c in flat):
        forms.insert(0, lambda: _poly_form(F, args))
    for form in forms:
        with pytest.raises(error) as info:
            model(F, *form())
        assert info.type is error


def test_poly_over_another_field_is_refused():
    # a Poly (or RationalFunction) over another field, a subfield included,
    # raises MixedFields in every model, as an element does in PlaneQuartic
    f5, f2, rf2 = (P(F5, [1, 1, 0, 1]), P(F2, [1, 1, 0, 1]),
                   RationalFunction(P(F2, [1, 1, 1]), P(F2, [0, 1])))
    f1, A, B, D = first_tower_args()
    cases = [
        (HyperellipticOdd, F7, [f5]),
        (FiberProductGenus4, F7, [f5, [2, 0, 0, 1]]),
        (FiberProductGenus4, F7, [[2, 0, 0, 1], f5]),
        (ArtinSchreierCurve, F4, [f2]),
        (ArtinSchreierCurve, F4, [rf2]),
        (ASTower, F32, [rf2, A, B, D]),
        (ASTower, F32, [f1, A, f2, D]),
        (PlaneQuartic, F7, [{(4, 0, 0): F5.one}]),
    ]
    for model, F, args in cases:
        with pytest.raises(MixedFields):
            model(F, *args)


class TestHyperelliptic:
    def test_f5_table_row(self):
        C = HyperellipticOdd(F5, P(F5, [2, 0, 0, 0, 3, 0, 0, 0, 2]))
        assert C.genus == 3
        assert C.count(1) == 0

    def test_f27_elliptic_20_points(self):
        C = HyperellipticOdd(F27, P(F27, [1, 0, 2, 1]))
        assert C.genus == 1
        assert C.count(1) == 20

    def test_f25_a_x8_plus_1(self):
        a = F25.gen
        f = Poly(F25, [a, F25.zero, F25.zero, F25.zero, F25.zero,
                       F25.zero, F25.zero, F25.zero, a])
        C = HyperellipticOdd(F25, f)
        assert C.genus == 3
        assert C.count(1) == 0
        assert C.count(2) == 540

    def test_f25_n3(self):
        a = F25.gen
        f = Poly(F25, [a] + [F25.zero] * 7 + [a])
        assert HyperellipticOdd(F25, f).count(3) == 15360

    def test_f3_table_row(self):
        C = HyperellipticOdd(F3, P(F3, [-1, 1, -1, -1, 0, -1, -1, 1, -1]))
        assert C.genus == 3 and C.count(1) == 0

    def test_rejects_nonsquarefree_on_the_kernel(self):
        # (x - 1)^2 (x^2 + 1) over F_7: is_squarefree runs on the kernel
        f = P(F7, [1, -2, 2, -2, 1])
        with pytest.raises(UnsupportedShape):
            HyperellipticOdd(F7, f)
        assert HyperellipticOdd(F7, P(F7, [1, -1, 0, 0, 0, 1])).genus == 2

    def test_rejects_nonsquarefree_past_the_kernel(self):
        # a prime field past 2^16: F_65537's kernel (0.03 s to build) decides
        F = FiniteField(65537)
        with pytest.raises(UnsupportedShape):
            HyperellipticOdd(F, P(F, [3, -7, 5, -1]))     # (x - 1)^2 (3 - x)
        assert HyperellipticOdd(F, P(F, [3, -4, 1, 1])).genus == 1

    def test_rejects_char2_and_nonsquarefree(self):
        with pytest.raises(EvenCharacteristic):
            HyperellipticOdd(F2, P(F2, [1, 1, 1, 1]))
        with pytest.raises(UnsupportedShape):
            HyperellipticOdd(F5, P(F5, [0, 0, 1, 1]))  # x^2(x+1)

    @pytest.mark.parametrize("F", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_index_list_form_matches_poly_form(self, F):
        # x^3 + x + 1 with trailing zeros, then seeded random index lists
        # of degree 3, 4, 7 or 8 padded with 0-2 zeros
        rng = random.Random(F.q)
        lists = [[1, 1, 0, 1, 0, 0]]
        while len(lists) < 6:
            idx = [rng.randrange(F.q) for _ in range(rng.choice([4, 5, 8, 9]))]
            f = _poly(F, idx)
            if f.degree >= 3 and _separable(f):
                lists.append(idx + [0] * rng.randrange(3))
        for idx in lists:
            C = _assert_index_form_matches(F, HyperellipticOdd, [idx])
            assert C.genus == len(C._idx) // 2 - 1

    @pytest.mark.parametrize("F, idx, error", [
        (F2, [1, 1, 1, 1], EvenCharacteristic),
        (F5, [], ZeroPolynomial),
        (F5, [0, 0, 0], ZeroPolynomial),
        (F5, [1, 0, 1, 0], UnsupportedShape),        # degree 2
        (F5, [0, 0, 1, 1], UnsupportedShape),        # x^2 (x + 1)
        (F7, [1, 5, 2, 5, 1], UnsupportedShape),     # (x - 1)^2 (x^2 + 1)
        # even f = g(x^2), refused through g
        (F5, [0, 0, 2, 0, 0, 0, 0, 0, 1], UnsupportedShape),  # x^2 (x^6 + 2)
        (F7, [1, 0, 5, 0, 2, 0, 5, 0, 1], UnsupportedShape),  # g = (t - 1)^2 (t^2 + 1)
        (F5, [1, 0, 0, 0, 3, 0, 0, 0, 1], UnsupportedShape),  # (x^4 - 1)^2
        # an index outside 0..q-1 is refused, not reduced or read past q
        (F7, [13, 0, 0, 1], UnsupportedShape),
        (F9, [-4, 0, 0, 1], UnsupportedShape),
        (F9, [1, 0, 0, 9, 0, 0], UnsupportedShape),
    ], ids=["char2", "empty", "zero", "degree2", "square_x", "square_f7",
            "even_g0_zero", "even_g_square", "even_h_of_x4", "index_past_q",
            "negative_index", "index_q"])
    def test_index_list_form_raises_like_poly_form(self, F, idx, error):
        _assert_refused(F, HyperellipticOdd, [idx], error)

    @pytest.mark.parametrize("F", [F5, F9], ids=["F5", "F9"])
    def test_even_f_refused_iff_f_is_inseparable(self, F):
        # an even f = g(x^2) is checked through g (g separable, g(0) != 0);
        # the generic Euclid on the full f of degree 8 must agree: every g
        # of degree 4 over F_5, a seeded 2,000 over F_9
        kern = _kernel(F)
        if F.q == 5:
            gs = [[a, b, c, d, e] for a in range(5) for b in range(5)
                  for c in range(5) for d in range(5) for e in range(1, 5)]
        else:
            rng = random.Random(9)
            gs = [[rng.randrange(9) for _ in range(4)] + [rng.randrange(1, 9)]
                  for _ in range(2000)]
        verdicts = set()
        for g in gs:
            f = [0] * 9
            f[::2] = g
            try:
                C = HyperellipticOdd(F, f)
            except UnsupportedShape:
                accepted = False
            else:
                accepted = C._g == g
            assert accepted == kern.is_separable(f), g
            verdicts.add(accepted)
        assert verdicts == {False, True}

    def test_even_corpus_rows_take_the_squares_path(self):
        """The six even Klein-four rows are counted through g; losing the
        path fails here, and the other hyperelliptic rows keep f."""
        rows = {e.id: e.curve() for e in load_fixtures()
                if e.kind == "hyperelliptic_odd"}
        assert {i for i, C in rows.items() if C._g is not None} == {
            f"klein4-genus3-q{q}" for q in (5, 7, 9, 11, 19, 25)}


class TestArtinSchreier:
    def test_f2_table_row(self):
        f = RationalFunction(P(F2, [1, 0, 1, 0, 1]), P(F2, [1, 1, 1, 1, 1]))
        C = ArtinSchreierCurve(F2, f)
        assert C.genus == 3
        assert C.count(1) == 0

    @pytest.mark.parametrize("F", [F2, F4, F8, F16],
                             ids=["F2", "F4", "F8", "F16"])
    def test_conductor_matches_the_factorisation(self, F):
        # the conductor read off the distinct-degree split of the
        # denominator lists its places as the full factorisation does
        kern = _kernel(F)
        rng = random.Random(F.q)
        repeated = 0
        for _ in range(25):
            while True:
                den = _itrim([rng.randrange(F.q)
                              for _ in range(rng.randrange(2, 9))])
                if len(den) > 1 and kern.is_separable(den):
                    break
            f = RationalFunction(P(F, [1]), Poly(F, map(F.from_index, den)))
            conductor = ArtinSchreierCurve(F, f).conductor
            assert conductor == [(len(piece) - 1, 1)
                                 for piece, _ in kern.factor(den)], den
            repeated += len(set(conductor)) < len(conductor)
        assert repeated  # some denominator has two places of one degree

    @pytest.mark.parametrize("F", [F2, F4, F8, F16],
                             ids=["F2", "F4", "F8", "F16"])
    def test_index_list_form_matches_poly_form(self, F):
        # seeded reduced pairs (num, den), den monic squarefree, padded with
        # trailing zeros; the polynomial part has odd degree, degree 0, or
        # is absent (deg num < deg den)
        kern = _kernel(F)
        rng = random.Random(F.q)
        for m in (1, 0, 3, -1, 0, 1):
            while True:
                dd = rng.randrange(0 if m > 0 else 1, 4)   # deg den
                den = [rng.randrange(F.q) for _ in range(dd)] + [1]
                num = ([rng.randrange(F.q) for _ in range(dd + m)]
                       + [rng.randrange(1, F.q)])
                if ((dd == 0 or kern.is_separable(den))
                        and len(kern.gcd(num, den)) == 1):
                    break
            pair = (num + [0] * rng.randrange(3), den + [0] * rng.randrange(2))
            C = _assert_index_form_matches(F, ArtinSchreierCurve, [pair])
            assert C.genus == dd - 1 + (m + 1) // 2 * (m > 0)

    @pytest.mark.parametrize("F, f, error", [
        (F3, ([1], [0, 1]), OddCharacteristic),
        (F4, ([1], []), DivisionByZero),
        (F4, ([0, 0, 1], [1]), UnsupportedShape),     # even polynomial part
        (F4, ([1], [0, 0, 1]), UnsupportedShape),     # repeated pole
        (F4, ([1, 2], [1, 0, 1]), UnsupportedShape),  # den = (x + 1)^2
        (F4, ([1], [1]), UnsupportedShape),           # constant, no pole
        (F4, ([], [1]), UnsupportedShape),            # zero, no pole
        (F2, ([1], [1]), UnsupportedShape),
        (F4, ([4], [0, 1]), UnsupportedShape),        # index past q
        (F4, ([1], [-1, 1]), UnsupportedShape),       # negative index
    ], ids=["odd_char", "zero_den", "even_part", "double_pole",
            "square_den", "constant", "zero_f", "constant_f2",
            "index_past_q", "negative_index"])
    def test_index_list_form_raises_like_poly_form(self, F, f, error):
        _assert_refused(F, ArtinSchreierCurve, [f], error)

    @pytest.mark.parametrize("f, reduced_has_pole", [
        (([0, 1, 1], [0, 1]), True),     # x (x + 1) / x
        (([], [1, 1]), False),           # 0 / (x + 1), reduced to 0
        (([1], [1, 2]), True),           # den = a x + 1, lc a != 1
    ], ids=["common_factor", "zero_num", "non_monic"])
    def test_index_list_form_refuses_unreduced_pairs(self, f,
                                                     reduced_has_pole):
        # a RationalFunction is reduced and monic by construction, so only
        # the index form can carry these, and the model refuses them; the
        # reduced form is accepted unless it is a constant, without a pole
        _assert_refused(F4, ArtinSchreierCurve, [f], UnsupportedShape,
                        poly_form=False)
        reduced = _poly_form(F4, [f])[0]
        if reduced_has_pole:
            ArtinSchreierCurve(F4, reduced)
        else:
            with pytest.raises(UnsupportedShape):
                ArtinSchreierCurve(F4, reduced)

    def test_genus0_line(self):
        C = ArtinSchreierCurve(F2, P(F2, [0, 1]))
        assert C.genus == 0
        assert C.count(1) == 3

    def test_f8_genus4_row(self):
        # t = 1 has absolute trace 1 over F_8 (odd degree)
        f = RationalFunction(P(F8, [0, 1, 1, 1, 1]) + P(F8, [1, 0, 1, 0, 0, 1]),
                             P(F8, [1, 0, 1, 0, 0, 1]))
        C = ArtinSchreierCurve(F8, f)
        assert C.genus == 4
        assert C.count(1) == 0

    def test_genus_formula(self):
        f = RationalFunction(P(F2, [1, 0, 1, 0, 1]), P(F2, [1, 1, 1, 1, 1]))
        assert ArtinSchreierCurve(F2, f).genus == 3
        g4 = RationalFunction(P(F2, [1, 1, 1, 1, 1]) + P(F2, [1, 0, 1, 0, 0, 1]),
                              P(F2, [1, 0, 1, 0, 0, 1]))
        assert ArtinSchreierCurve(F2, g4).genus == 4

    def test_unsupported_shapes(self):
        with pytest.raises(UnsupportedShape):
            # even-degree polynomial part
            ArtinSchreierCurve(F2, P(F2, [0, 0, 1]))
        with pytest.raises(UnsupportedShape):
            # repeated pole
            ArtinSchreierCurve(F2, RationalFunction(P(F2, [1]), P(F2, [0, 0, 1])))
        # a constant f has no pole: y^2 + y = c is two lines, not a curve
        for f in (P(F4, [1]), P(F4, []), P(F4, [2]),
                  RationalFunction(P(F4, [0, 1]), P(F4, [0, 1]))):
            with pytest.raises(UnsupportedShape):
                ArtinSchreierCurve(F4, f)

    def test_parity_matches_ramified_places(self):
        f = RationalFunction(P(F2, [1, 0, 1, 0, 1]), P(F2, [1, 1, 1, 1, 1]))
        C = ArtinSchreierCurve(F2, f)
        for i in (1, 2):
            ram = 0  # degree-4 irreducible denominator: no rational poles
            assert C.count(i) % 2 == ram % 2


def diag_quartic(F, a, b, c, d, e, f):
    return PlaneQuartic(F, {(4, 0, 0): a, (0, 4, 0): b, (0, 0, 4): c,
                            (2, 2, 0): d, (2, 0, 2): e, (0, 2, 2): f})


def klein_family_quartic(F, beta, gamma):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4."""
    one = F.one
    co = {}

    def add(mono, c):
        co[mono] = co.get(mono, F.zero) + c

    add((4, 0, 0), one)
    add((3, 0, 1), one + one)
    add((2, 0, 2), one)
    b = F.element(beta)
    add((2, 2, 0), b)
    add((2, 1, 1), b)
    add((1, 2, 1), b)
    add((1, 1, 2), b)
    add((0, 4, 0), one)
    add((0, 3, 1), one + one)
    add((0, 2, 2), one)
    add((0, 0, 4), F.element(gamma))
    return PlaneQuartic(F, {m: c for m, c in co.items() if not c.is_zero()})


class TestPlaneQuartic:
    def test_fermat_f5(self):
        Q = diag_quartic(F5, 1, 1, 1, 0, 0, 0)
        assert Q.is_smooth()
        assert Q.count(1) == 0

    def test_fermat_f29(self):
        F29 = FiniteField(29)
        Q = diag_quartic(F29, 1, 1, 1, 0, 0, 0)
        assert Q.is_smooth() and Q.count(1) == 0

    def test_fermat_f2_not_smooth(self):
        Q = diag_quartic(F2, 1, 1, 1, 0, 0, 0)
        assert not Q.is_smooth()

    def test_singular_product(self):
        # x^2 (x^2 + y^2) is singular at (0:0:1)
        Q = PlaneQuartic(F5, {(4, 0, 0): 1, (2, 2, 0): 1})
        assert not Q.is_smooth()

    def test_f3_special_quartic(self):
        Q = PlaneQuartic(F3, {(4, 0, 0): 1, (1, 1, 2): 1, (0, 4, 0): 1,
                              (0, 3, 1): 1, (0, 1, 3): 2, (0, 0, 4): 1})
        assert Q.is_smooth()
        assert Q.count(1) == 0

    def test_f32_klein_twist(self):
        Q = klein_family_quartic(F32, 1, 1)
        assert Q.is_smooth()
        assert Q.count(1) == 0

    def test_f2_klein_twist(self):
        Q = klein_family_quartic(F2, 1, 1)
        assert Q.is_smooth()
        assert Q.count(1) == 0

    def test_table2_rows(self):
        rows = [
            (F7, (1, 1, 2, 0, 3, 3)),
            (F13, (1, 1, 2, 0, 0, 0)),
            (F17, (1, 1, 2, 1, 0, 0)),
        ]
        for F, co in rows:
            Q = diag_quartic(F, *co)
            assert Q.is_smooth() and Q.count(1) == 0

    def test_count_over_extension(self):
        # Fermat quartic over F_5: genus 3, check Serre bound at i = 2
        Q = diag_quartic(F5, 1, 1, 1, 0, 0, 0)
        n2 = Q.count(2)
        assert serre_bound_holds(25, 3, n2)

    def test_list_form_takes_exactly_15_coefficients(self):
        # the list form lists every monomial in QUARTIC_MONOMIALS order; a
        # shorter or longer list is refused, not padded or truncated
        coeffs = [1] + [0] * 9 + [1] + [0] * 3 + [1]      # x^4 + y^4 + z^4
        assert PlaneQuartic(F5, coeffs)._idx == diag_quartic(
            F5, 1, 1, 1, 0, 0, 0)._idx
        for bad in (coeffs + [1], coeffs[:3], []):
            with pytest.raises(UnsupportedShape):
                PlaneQuartic(F5, bad)

    @pytest.mark.parametrize("F, c", [(F7, 7), (F7, -1), (F9, -4), (F9, 81)],
                             ids=["F7:q", "F7:-1", "F9:-4", "F9:81"])
    def test_index_outside_the_field_refused(self, F, c):
        with pytest.raises(UnsupportedShape):
            PlaneQuartic(F, {(4, 0, 0): 1, (0, 4, 0): c, (0, 0, 4): 1})
        with pytest.raises(UnsupportedShape):
            PlaneQuartic(F, [c] + [0] * 14)

    @pytest.mark.parametrize("F", [F3, F4, F5, F8, F9],
                             ids=lambda F: f"F{F.q}")
    def test_index_form_matches_element_form(self, F):
        # seeded quartics, dense and sparse, and one with the involution:
        # the same quartic from index and from FieldElement coefficients
        rng = random.Random(1300 + F.q)
        forms = [_random_form(F, rng, 4, d) for d in (0.3, 1.0, 0.5)]
        forms += [_involution_form(F, F.one, [F.zero, F.one, F.zero],
                                   [F.from_index(rng.randrange(F.q))
                                    for _ in range(5)])]
        smooth = set()
        for form in forms:
            ref = PlaneQuartic(F, form)
            C = PlaneQuartic(F, {m: F.index(c) for m, c in form.items()})
            assert (C._idx, C._rows, C._b_row) == \
                (ref._idx, ref._rows, ref._b_row)
            assert C.is_smooth() == ref.is_smooth()
            assert ([C.count(i) for i in (1, 2, 3)]
                    == [ref.count(i) for i in (1, 2, 3)]), form
            smooth.add(C.is_smooth())
        assert True in smooth


def _element_properties(C):
    """FiberProductGenus4.properties() in FieldElement arithmetic on the
    Polys f and g: trigonal when (f1, f2, f3) and (g1, g2, g3) are
    proportional; extra automorphisms when q = 1 mod 3 and
    f1 = f2 = g1 = g2 = 0, or p = 3 and both are a (x^3 - x) + b."""
    F = C.base
    f, g = _poly(F, C._f), _poly(F, C._g)
    trigonal = all((f[i] * g[j] - f[j] * g[i]).is_zero()
                   for i in (1, 2, 3) for j in range(i + 1, 4))
    extra = (F.q % 3 == 1
             and all(c.is_zero() for c in (f[1], f[2], g[1], g[2]))
             or F.p == 3
             and all(h[2].is_zero() and (h[1] + h[3]).is_zero()
                     for h in (f, g)))
    return {"trigonal": trigonal, "extra_autos": extra}


class TestFiberProduct:
    def test_f3_row(self):
        C = FiberProductGenus4(F3, P(F3, [-1, -1, 0, 1]), P(F3, [-1, 1, 0, -1]))
        assert C.genus == 4 and C.count(1) == 0

    def test_f7_row(self):
        C = FiberProductGenus4(F7, P(F7, [-3, 0, 0, 1]), P(F7, [-1, 0, 0, 3]))
        assert C.count(1) == 0

    def test_f27_row(self):
        a5 = F27.gen ** 5
        f = Poly(F27, [a5, -F27.one, F27.zero, F27.one])
        g = Poly(F27, [a5, F27.one, F27.zero, -F27.one])
        assert FiberProductGenus4(F27, f, g).count(1) == 0

    def test_properties(self):
        trig = FiberProductGenus4(F3, P(F3, [-1, -1, 0, 1]), P(F3, [-1, 1, 0, -1])).properties()
        assert trig["trigonal"]
        p13 = FiberProductGenus4(F13, P(F13, [1, 0, 0, 1]), P(F13, [-5, 0, 0, 2])).properties()
        assert p13["trigonal"] and p13["extra_autos"]
        p17 = FiberProductGenus4(
            F17, P(F17, [0, 1, 0, 1]), P(F17, [5, -3, -8, 3])).properties()
        assert not p17["trigonal"]

    def test_char3_extra_autos(self):
        # both of the form a(x^3 - x) + b
        C = FiberProductGenus4(F3, P(F3, [-1, -1, 0, 1]), P(F3, [-1, 1, 0, -1]))
        assert C.properties()["extra_autos"]

    def test_validation(self):
        with pytest.raises(UnsupportedShape):
            FiberProductGenus4(F5, P(F5, [1, 0, 0, 1]), P(F5, [1, 0, 0, 1]))

    @pytest.mark.parametrize("F", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_index_list_form_matches_poly_form(self, F):
        # seeded coprime separable cubics padded with trailing zeros: drawn
        # at random, of the form a x^3 + b (a (x^3 - x) + b for p = 3), and
        # near misses of that form with one of the x, x^2 coefficients of f
        # or g moved, so that properties() meets more than one verdict;
        # properties() is checked against FieldElement arithmetic on f, g
        kern = _kernel(F)
        rng = random.Random(F.q)

        def cubic(special, nudge):
            c = [rng.randrange(F.q) for _ in range(3)] + [rng.randrange(1, F.q)]
            if special and F.p == 3:
                c[1], c[2] = kern.neg(c[3]), 0
            elif special:
                c[1] = c[2] = 0
            if nudge:
                c[nudge] = kern.add(c[nudge], rng.randrange(1, F.q))
            return c

        seen = set()
        for special, nudge_f, nudge_g in [(0, 0, 0), (0, 0, 0), (1, 0, 0),
                                          (1, 0, 0), (1, 1, 0), (1, 2, 0),
                                          (1, 0, 1), (1, 0, 2)]:
            while True:
                f, g = cubic(special, nudge_f), cubic(special, nudge_g)
                if (kern.is_separable(f) and kern.is_separable(g)
                        and len(kern.gcd(f, g)) == 1):
                    break
            args = [f + [0] * rng.randrange(3), g + [0] * rng.randrange(3)]
            C = _assert_index_form_matches(F, FiberProductGenus4, args)
            assert C.properties() == _element_properties(C), args
            seen.add(tuple(C.properties().values()))
        assert len(seen) > 1

    @pytest.mark.parametrize("F, f, g, error", [
        (F4, [1, 1, 0, 1], [1, 0, 1, 1], EvenCharacteristic),
        (F5, [1, 0, 1], [1, 0, 0, 1], UnsupportedShape),        # quadratic
        (F5, [1, 0, 0, 1, 1], [1, 0, 0, 1], UnsupportedShape),  # quartic
        (F5, [1, 4, 4, 1], [2, 0, 0, 1], UnsupportedShape),     # (x+4)^2 (x+1)
        (F5, [1, 0, 0, 1], [2, 0, 0, 2], UnsupportedShape),     # g = 2 f
        (F5, [1, 0, 0, 1], [2, 0, 5, 1], UnsupportedShape),     # index past q
    ], ids=["char2", "quadratic", "quartic", "inseparable", "not_coprime",
            "index_past_q"])
    def test_index_list_form_raises_like_poly_form(self, F, f, g, error):
        _assert_refused(F, FiberProductGenus4, [f, g], error)

    def test_q49_row_builds_no_table_past_q_squared(self, refuse_tables):
        # N_1..N_4 over F_(7^2) .. F_(7^8) from the quotients' counts over
        # F_49 and F_(49^2) alone
        entry, = [e for e in load_fixtures() if e.id == "fiber-genus4-q49"]
        C = entry.curve()
        refuse_tables(past=49 ** 2)
        C = FiberProductGenus4(C.base, C._f, C._g)   # nothing cached yet
        assert [C.count(i) for i in (1, 2, 3, 4)] == [0, 2166, 117078,
                                                      5768358]

    @pytest.mark.parametrize("F, depth", [
        (F3, 4), (F5, 4), (F7, 4), (F9, 4), (F11, 4), (F13, 4),
        (F25, 3), (F27, 3)], ids=["F3", "F5", "F7", "F9", "F11", "F13",
                                  "F25", "F27"])
    def test_count_equals_orbit_sum(self, F, depth):
        # seeded coprime separable cubics, two with lc f lc g a square and
        # two with it a nonsquare, against the model's own character sum
        kern = _kernel(F)
        rng = random.Random(500 + F.q)
        for square in (True, True, False, False):
            while True:
                f, g = ([rng.randrange(F.q) for _ in range(3)]
                        + [rng.randrange(1, F.q)] for _ in range(2))
                if (kern.sqrt_count(kern.mul(f[3], g[3])) == 2) != square:
                    continue
                try:
                    C = FiberProductGenus4(F, f, g)
                except UnsupportedShape:
                    continue
                break
            for i in range(1, depth + 1):
                assert C.count(i) == fiber_product_count(C, i), (f, g, i)

    def test_decomposition_identity(self):
        rng = random.Random(7)
        cases = 0
        while cases < 12:
            f = Poly(F5, [F5.from_index(rng.randrange(5)) for _ in range(3)]
                     + [F5.from_index(rng.randrange(1, 5))])
            g = Poly(F5, [F5.from_index(rng.randrange(5)) for _ in range(3)]
                     + [F5.from_index(rng.randrange(1, 5))])
            if not (_separable(f) and _separable(g)):
                continue
            if f.gcd(g).degree > 0 or not _separable(f * g):
                continue
            C = FiberProductGenus4(F5, f, g)
            Cf = HyperellipticOdd(F5, f)
            Cg = HyperellipticOdd(F5, g)
            Cfg = HyperellipticOdd(F5, f * g)
            for i in (1, 2):
                lhs = C.count(i) + 2 * (5 ** i + 1)
                rhs = Cf.count(i) + Cg.count(i) + Cfg.count(i)
                assert lhs == rhs
            cases += 1


def first_tower_args():
    a = F32.gen
    f1 = RationalFunction(P(F32, [1, 1, 1]), P(F32, [0, 1]))
    A = Poly(F32, [a ** 6, F32.one, a ** 13, F32.zero, a ** 7])
    B = Poly(F32, [F32.zero, a ** 23, F32.zero, a ** 30])
    D = Poly(F32, [a ** 28, F32.one, a ** 15, F32.one])
    return f1, A, B, D


def second_tower_args():
    a = F32.gen
    f1 = RationalFunction(Poly(F32, [a ** 7, F32.zero, F32.one]), P(F32, [0, 1]))
    A = Poly(F32, [a ** 16, F32.zero, a ** 28, a ** 3, a ** 4])
    B = Poly(F32, [F32.zero, a ** 28, a ** 23, a ** 7])
    D = Poly(F32, [a ** 25, a ** 22, a ** 25, F32.one])
    return f1, A, B, D


def first_tower():
    return ASTower(F32, *first_tower_args(), claimed_genus=4)


def second_tower():
    return ASTower(F32, *second_tower_args(), claimed_genus=4)


class TestASTower:
    def test_baby_tower(self):
        # y^2 + y = x, z^2 + z = y over F_2: a genus-0 tower with 3 points
        T = ASTower(F2, P(F2, [0, 1]), Poly(F2, []), P(F2, [1]), P(F2, [1]))
        assert T.count(1) == 3

    def test_first_f32_tower_pointless(self):
        assert first_tower().count(1) == 0

    def test_second_f32_tower_pointless(self):
        assert second_tower().count(1) == 0

    def test_tower_extension_counts_bounded(self):
        T = first_tower()
        n2 = T.count(2)
        assert serre_bound_holds(1024, 4, n2)

    def test_unsupported_first_stage(self):
        with pytest.raises(UnsupportedShape):
            ASTower(F2, RationalFunction(P(F2, [1]), P(F2, [1, 1])),
                    P(F2, [1]), P(F2, [1]), P(F2, [1]))

    def test_index_form_matches_poly_form(self):
        # the shipped towers and seeded towers over F_2, F_4 and F_8 (poles
        # of f1 at 0 and infinity, at one of them), rebuilt from the index
        # lists of their Poly and RationalFunction arguments
        towers = [(F32, first_tower_args()), (F32, second_tower_args())]
        for F in (F2, F4, F8):
            rng = random.Random(1400 + F.q)
            towers += [(F, _random_tower_args(F, rng, *zeros))
                       for zeros in ((False, False), (True, False),
                                     (False, True))]
        for F, (f1, A, B, D) in towers:
            ref = ASTower(F, f1, A, B, D)
            if isinstance(f1, Poly):
                f1 = RationalFunction(f1, P(F, [1]))
            pair = tuple([F.index(c) for c in h.coeffs]
                         for h in (f1.num, f1.den))
            C = ASTower(F, pair, *([F.index(c) for c in g.coeffs] + [0]
                                   for g in (A, B, D)))
            assert (C._f1, C._stage2) == (ref._f1, ref._stage2)
            assert ([C.count(i) for i in (1, 2, 3)]
                    == [ref.count(i) for i in (1, 2, 3)]), (F, pair)

    @pytest.mark.parametrize("f1, A, D, error", [
        (([1], [1, 1]), [1], [1], UnsupportedShape),      # pole at x = 1
        (([1, 0, 0, 1], [0, 1]), [1], [1], UnsupportedShape),  # x^2 term
        (([1, 1], [0, 2]), [1], [1], UnsupportedShape),   # den not monic
        (([0, 1, 1], [0, 1]), [1], [1], UnsupportedShape),  # not coprime
        (([1, 1], [0, 1]), [1], [0, 1], UnsupportedShape),  # D(0) = 0
        (([1, 1], [0, 1]), [1], [], ZeroPolynomial),
        (([1, 1], [0, 1]), [4], [1], UnsupportedShape),   # index past q
        (([1, -1], [1]), [1], [1], UnsupportedShape),     # negative index
    ], ids=["pole_at_1", "x2_term", "den_not_monic", "not_coprime",
            "pole_collision", "zero_D", "index_past_q", "negative_index"])
    def test_index_form_refusals(self, f1, A, D, error):
        with pytest.raises(error) as info:
            ASTower(F4, f1, A, [1], D)
        assert info.type is error

    def test_odd_characteristic_refused(self):
        with pytest.raises(OddCharacteristic):
            ASTower(F5, ([1, 1], [0, 1]), [1], [1], [1])

    def test_shipped_tower_counts_pinned(self):
        assert [first_tower().count(i) for i in (1, 2, 3)] == [0, 924, 32043]
        assert [second_tower().count(i) for i in (1, 2, 3)] == [0, 984, 33129]

    def test_place_expansion_too_short_raises(self, monkeypatch):
        T = first_tower()
        kern = _kernel(F32)
        f1, stage2 = tuple(T._f1), tuple(T._stage2)
        # four terms leave the t^0 coefficient unknown after the reduction
        with pytest.raises(PrecisionExhausted, match="beyond precision"):
            _tower_place_points_at(kern, f1, stage2, "ram_inf", 4)
        # every special place that count(1..3) reaches on the shipped
        # towers and the seeded random ones: at each precision below 60
        # the expansion either runs out of precision or gives the count
        # at 60, which is the one count returned
        places = []

        def spy(kern, f1, stage2, kind, x0=None, ybranch=None):
            n = _tower_place_points(kern, f1, stage2, kind, x0, ybranch)
            places.append((kern, f1, stage2, kind, x0, ybranch, n))
            return n

        monkeypatch.setattr(curves, "_tower_place_points", spy)
        towers = [first_tower(), second_tower()]
        for F in (F2, F4, F8):
            towers += _random_tower_sample(F)
        for T in towers:
            for i in (1, 2, 3):
                T.count(i)
        assert ({place[3] for place in places}
                == {"finite", "ord_inf", "ram_zero", "ram_inf"})
        for kern, f1, stage2, kind, x0, ybranch, n in places:
            assert _tower_place_points_at(kern, f1, stage2, kind, 60, x0,
                                          ybranch) == n
            for prec in range(1, 60):
                try:
                    got = _tower_place_points_at(kern, f1, stage2, kind,
                                                 prec, x0, ybranch)
                except PrecisionExhausted:
                    continue
                assert got == n, (kind, prec)

    @pytest.mark.parametrize("error, precs", [
        (PrecisionExhausted, [8, 16, 32, 64]),
        (DivisionByZero, [8]),
        (ValueError, [8]),
    ])
    def test_place_precision_schedule(self, monkeypatch, error, precs):
        # only running out of precision moves a place on to the next
        # precision, and a place still short at 64 raises
        tried = []

        def short(kern, f1, stage2, kind, prec, x0=None, ybranch=None):
            tried.append(prec)
            raise error("short")

        monkeypatch.setattr(curves, "_tower_place_points_at", short)
        T = first_tower()
        with pytest.raises(error) as info:
            _tower_place_points(_kernel(F32), tuple(T._f1),
                                tuple(T._stage2), "ram_inf")
        assert info.type is error and tried == precs


class TestTwistDuality:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_duality_f5(self, seed):
        rng = random.Random(seed)
        f = Poly(F5, [F5.from_index(rng.randrange(5)) for _ in range(8)]
                 + [F5.from_index(rng.randrange(1, 5))])
        if not _separable(f):
            return
        nu = F5.canonical_nonsquare
        C = HyperellipticOdd(F5, f)
        Ct = HyperellipticOdd(F5, f * nu)
        assert C.count(1) + Ct.count(1) == 2 * (5 + 1)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_duality_f9(self, seed):
        rng = random.Random(seed)
        f = Poly(F9, [F9.from_index(rng.randrange(9)) for _ in range(8)]
                 + [F9.from_index(rng.randrange(1, 9))])
        if not _separable(f):
            return
        nu = F9.canonical_nonsquare
        assert (HyperellipticOdd(F9, f).count(1)
                + HyperellipticOdd(F9, f * nu).count(1)) == 2 * (9 + 1)


class TestSerreBound:
    def test_all_pinned_counts(self):
        curves = [
            (5, HyperellipticOdd(F5, P(F5, [2, 0, 0, 0, 3, 0, 0, 0, 2]))),
            (3, FiberProductGenus4(F3, P(F3, [-1, -1, 0, 1]), P(F3, [-1, 1, 0, -1]))),
            (5, diag_quartic(F5, 1, 1, 1, 0, 0, 0)),
        ]
        for q, C in curves:
            assert serre_bound_holds(q, C.genus, C.count(1))


# ---------------------------------------------------------------------------
# count(i) against naive FieldElement counters
# ---------------------------------------------------------------------------

def _extension_elements(base, i):
    big, phi = embed(base, i)
    return big, phi, list(big.elements())


def _mapped(f, big, phi):
    return Poly(big, [phi(c) for c in f.coeffs])


def _sqrt_count(v):
    """#{y : y^2 = v} by Euler's criterion, odd characteristic."""
    if v.is_zero():
        return 1
    F = v.parent
    return 2 if v ** ((F.q - 1) // 2) == F.one else 0


def naive_hyperelliptic(C, i):
    big, phi, xs = _extension_elements(C.base, i)
    f = _mapped(_poly(C.base, C._idx), big, phi)
    affine = sum(_sqrt_count(f.eval(x)) for x in xs)
    return affine + (1 if f.degree % 2 else _sqrt_count(f.lc))


def naive_fiber_product(C, i):
    big, phi, xs = _extension_elements(C.base, i)
    f, g = (_mapped(_poly(C.base, h), big, phi) for h in (C._f, C._g))
    affine = sum(_sqrt_count(f.eval(x)) * _sqrt_count(g.eval(x)) for x in xs)
    return affine + _sqrt_count(f.lc * g.lc)


def naive_artin_schreier(C, i):
    big, phi, xs = _extension_elements(C.base, i)
    num, den = (_mapped(_poly(C.base, h), big, phi) for h in (C._num, C._den))
    total = 0
    for x in xs:
        d = den.eval(x)
        if d.is_zero():
            total += 1
        elif (num.eval(x) / d).trace_to_F2() == 0:
            total += 2
    m = num.degree - den.degree
    if m >= 1:
        return total + 1
    v = big.zero if m < 0 else num.lc / den.lc
    return total + (2 if v.trace_to_F2() == 0 else 0)


def naive_quartic(C, i):
    """Projective sweep: (x : y : 1), then (x : 1 : 0), then (1 : 0 : 0)."""
    big, phi, xs = _extension_elements(C.base, i)
    coeffs = {m: phi(c) for m, c in _quartic_elements(C).items()}

    def F(x, y, z):
        acc = big.zero
        for (a, b, c), v in coeffs.items():
            if not v.is_zero():
                acc = acc + v * x ** a * y ** b * z ** c
        return acc

    # for fixed y, F(x, y, 1) is a quartic in x: evaluate it by Horner
    total = 0
    for y in xs:
        row = [big.zero] * 5
        for (a, b, _), v in coeffs.items():
            row[a] = row[a] + v * y ** b
        poly = Poly(big, row)
        total += sum(1 for x in xs if poly.eval(x).is_zero())
    total += sum(1 for x in xs if F(x, big.one, big.zero).is_zero())
    return total + (1 if F(big.one, big.zero, big.zero).is_zero() else 0)


def _random_poly(F, rng, degree):
    return Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(degree)]
                + [F.from_index(rng.randrange(1, F.q))])


def _random_hyperelliptic(F, rng):
    while True:
        f = _random_poly(F, rng, rng.randrange(3, 9))
        if _separable(f):
            return HyperellipticOdd(F, f)


def _random_even_hyperelliptic(F, rng, degree, square):
    """y^2 = g(x^2) with deg g = degree and lc(g) a square or not."""
    while True:
        g = _random_poly(F, rng, degree)
        if g.lc.is_square() != square:
            continue
        f = [F.zero] * (2 * degree + 1)
        f[::2] = g.coeffs
        try:
            C = HyperellipticOdd(F, Poly(F, f))
        except UnsupportedShape:
            continue
        assert C._g is not None
        return C


def _random_fiber_product(F, rng):
    while True:
        try:
            return FiberProductGenus4(F, _random_poly(F, rng, 3),
                                      _random_poly(F, rng, 3))
        except UnsupportedShape:
            continue


def _random_artin_schreier(F, rng):
    while True:
        num = _random_poly(F, rng, rng.randrange(0, 6))
        den = _random_poly(F, rng, rng.randrange(0, 4)).monic()
        try:
            return ArtinSchreierCurve(F, RationalFunction(num, den))
        except UnsupportedShape:
            continue


def _random_quartic(F, rng):
    return PlaneQuartic(F, [F.from_index(rng.randrange(F.q))
                            for _ in QUARTIC_MONOMIALS])


ODD_FIELDS = [F3, F5, F7, F9]
EVEN_FIELDS = [F4, F8]


class TestCountAgainstNaive:
    """count(i), i = 1..3, on seeded random curves, against FieldElement
    counters that enumerate every x of F_{q^i}."""

    @pytest.mark.parametrize("F", ODD_FIELDS, ids=lambda F: f"F{F.q}")
    def test_hyperelliptic(self, F):
        rng = random.Random(100 + F.q)
        curves = [_random_hyperelliptic(F, rng) for _ in range(3)]
        # even f = g(x^2), counted over the squares through g: deg g 2..4,
        # with a square and a nonsquare leading coefficient for each
        curves += [_random_even_hyperelliptic(F, rng, d, square)
                   for d in (2, 3, 4) for square in (True, False)]
        for C in curves:
            for i in (1, 2, 3):
                assert C.count(i) == naive_hyperelliptic(C, i)

    @pytest.mark.parametrize("F", ODD_FIELDS, ids=lambda F: f"F{F.q}")
    def test_fiber_product(self, F):
        rng = random.Random(200 + F.q)
        for _ in range(3):
            C = _random_fiber_product(F, rng)
            for i in (1, 2, 3):
                assert C.count(i) == naive_fiber_product(C, i)

    @pytest.mark.parametrize("F", EVEN_FIELDS, ids=lambda F: f"F{F.q}")
    def test_artin_schreier(self, F):
        rng = random.Random(300 + F.q)
        for _ in range(3):
            C = _random_artin_schreier(F, rng)
            for i in (1, 2, 3):
                assert C.count(i) == naive_artin_schreier(C, i)

    @pytest.mark.parametrize("F", ODD_FIELDS + EVEN_FIELDS,
                             ids=lambda F: f"F{F.q}")
    def test_plane_quartic(self, F):
        # the sweep costs (q^i)^2 evaluations: i = 3 only where q^3 <= 125
        depth = 3 if F.q <= 5 else 2
        rng = random.Random(400 + F.q)
        for _ in range(2):
            C = _random_quartic(F, rng)
            for i in range(1, depth + 1):
                assert C.count(i) == naive_quartic(C, i)


# ---------------------------------------------------------------------------
# PlaneQuartic.is_smooth against the FieldElement smoothness test that the
# index-kernel one replaced (partials, restrictions and Bareiss resultants
# on Polys of FieldElements)
# ---------------------------------------------------------------------------

def _quartic_elements(C):
    """The coefficients of a PlaneQuartic as elements, from its indices."""
    return {m: C.base.from_index(v) for m, v in C._idx.items()}


def _ref_partial(C, var):
    out = {}
    for mono, c in _quartic_elements(C).items():
        e = mono[var]
        if e == 0:
            continue
        scaled = c * C.base.element(e)
        if scaled.is_zero():
            continue
        new = list(mono)
        new[var] -= 1
        out[tuple(new)] = out.get(tuple(new), C.base.zero) + scaled
    return {m: c for m, c in out.items() if not c.is_zero()}


def _ref_eval_form(base, form, x, y, z):
    acc = base.zero
    for (i, j, k), c in form.items():
        if not c.is_zero():
            acc = acc + c * x ** i * y ** j * z ** k
    return acc


def _ref_restrict_chart(base, form):
    ydeg = max((j for (i, j, k), c in form.items() if not c.is_zero()),
               default=0)
    xdeg = max((i for (i, j, k), c in form.items() if not c.is_zero()),
               default=0)
    rows = [[base.zero] * (xdeg + 1) for _ in range(ydeg + 1)]
    for (i, j, k), c in form.items():
        if not c.is_zero():
            rows[j][i] = rows[j][i] + c
    return [Poly(base, row) for row in rows]


def _ref_restrict_xy(base, form):
    deg = max((i for (i, j, k), c in form.items()), default=0)
    out = [base.zero] * (deg + 1)
    for (i, j, k), c in form.items():
        if k == 0 and not c.is_zero():
            out[i] = out[i] + c
    return Poly(base, out)


def _ref_eval_poly_in_quotient(p, K, x0):
    acc = K.zero
    for c in reversed(p.coeffs):
        acc = acc * x0 + K.from_base(c)
    return acc


def _ref_resultant_y(a, b, base):
    while a and a[-1].is_zero():
        a = a[:-1]
    while b and b[-1].is_zero():
        b = b[:-1]
    if not a or not b:
        return Poly(base, [])
    m, n = len(a) - 1, len(b) - 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    rows = []
    for r in range(n):
        row = [Poly(base, [])] * size
        for k in range(m + 1):
            row[r + k] = a[m - k]
        rows.append(row)
    for r in range(m):
        row = [Poly(base, [])] * size
        for k in range(n + 1):
            row[r + k] = b[n - k]
        rows.append(row)
    return _ref_poly_det(rows, base)


def _ref_poly_det(M, base):
    n = len(M)
    M = [row[:] for row in M]
    negate = False
    prev = Poly.constant(base, base.one)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for r in range(k + 1, n):
                if not M[r][k].is_zero():
                    M[k], M[r] = M[r], M[k]
                    negate = not negate
                    break
            else:
                return Poly(base, [])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                q, r = divmod(num, prev)
                assert r.is_zero(), "Bareiss division must be exact"
                M[i][j] = q
            M[i][k] = Poly(base, [])
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return -det if negate else det


def _reference_is_smooth(C):
    base = C.base
    partials = [_ref_partial(C, v) for v in range(3)]
    if all(not p for p in partials):
        return False
    forms = [_quartic_elements(C)] + partials
    vals = [_ref_eval_form(base, fm, base.one, base.zero, base.zero)
            for fm in forms]
    if all(v.is_zero() for v in vals):
        return False
    line = [_ref_restrict_xy(base, fm) for fm in forms]
    nonzero_line = [u for u in line if not u.is_zero()]
    if not nonzero_line:
        return False
    gline = nonzero_line[0]
    for u in nonzero_line[1:]:
        gline = gline.gcd(u)
    if gline.degree >= 1:
        return False
    bivs = [_ref_restrict_chart(base, fm) for fm in forms]
    bF = bivs[0]
    if all(p.is_zero() for p in bF):
        return False
    if len(bF) == 1:
        return False
    conditions = [b for b in bivs if not all(p.is_zero() for p in b)]
    resultants = []
    for b in conditions[1:]:
        r = _ref_resultant_y(bF, b, base)
        if not r.is_zero():
            resultants.append(r)
    if not resultants:
        return False
    g = resultants[0]
    for r in resultants[1:]:
        g = g.gcd(r)
    if g.degree == 0:
        return True
    for piece, _ in _element_factor(g):
        K = QuotientField(piece)
        x0 = K.x_class
        specs = [Poly(K, [_ref_eval_poly_in_quotient(c, K, x0) for c in b])
                 for b in conditions]
        nonzero = [s for s in specs if not s.is_zero()]
        if not nonzero:
            return False
        h = nonzero[0]
        for s in nonzero[1:]:
            h = euclid_gcd(h, s)
        if h.degree >= 1:
            return False
    return True


F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
SMOOTHNESS_FIELDS = [F2, F3, F4, F5, F7, F8, F9, F13, F16]


def _random_form(F, rng, degree, density):
    """A dict monomial -> FieldElement of a random form of the degree, each
    coefficient nonzero with probability density (at least one is)."""
    monos = [(i, j, degree - i - j) for i in range(degree + 1)
             for j in range(degree + 1 - i)]
    while True:
        form = {m: F.from_index(rng.randrange(1, F.q)) for m in monos
                if rng.random() < density}
        if form:
            return form


def _form_product(F, u, v):
    out = {}
    for mu, cu in u.items():
        for mv, cv in v.items():
            m = tuple(a + b for a, b in zip(mu, mv))
            out[m] = out.get(m, F.zero) + cu * cv
    return {m: c for m, c in out.items() if not c.is_zero()}


def _from_idx(F, cs):
    return Poly(F, [F.from_index(c) for c in cs])


def _reducible_quartic(F, rng, shape):
    """A plane quartic that factors: two conics, a line times a cubic,
    z times a cubic, or the square of a conic."""
    if shape == "conics":
        u, v = _random_form(F, rng, 2, 0.7), _random_form(F, rng, 2, 0.7)
    elif shape == "line-cubic":
        u, v = _random_form(F, rng, 1, 0.7), _random_form(F, rng, 3, 0.6)
    elif shape == "z-cubic":
        u, v = {(0, 0, 1): F.one}, _random_form(F, rng, 3, 0.6)
    else:
        u = v = _random_form(F, rng, 2, 0.7)
    return PlaneQuartic(F, _form_product(F, u, v))


class TestSmoothnessAgainstFieldElement:
    """is_smooth on seeded random quartics, dense and sparse, against the
    FieldElement reference; 60 per field, 540 in all."""

    @pytest.mark.parametrize("F", SMOOTHNESS_FIELDS, ids=lambda F: f"F{F.q}")
    def test_random_quartics(self, F):
        rng = random.Random(500 + F.q)
        verdicts = set()
        for k in range(60):
            density = (0.15, 0.35, 0.6, 1.0)[k % 4]
            C = PlaneQuartic(F, _random_form(F, rng, 4, density))
            smooth = C.is_smooth()
            assert smooth == _reference_is_smooth(C), C._idx
            verdicts.add(smooth)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("F", SMOOTHNESS_FIELDS, ids=lambda F: f"F{F.q}")
    def test_reducible_quartics_are_singular(self, F):
        rng = random.Random(600 + F.q)
        for shape in ("conics", "line-cubic", "z-cubic", "square"):
            for _ in range(3):
                C = _reducible_quartic(F, rng, shape)
                assert not C.is_smooth()
                assert not _reference_is_smooth(C)

    @pytest.mark.parametrize("F", [F3, F4, F7, F9], ids=lambda F: f"F{F.q}")
    def test_resultant_equals_reference_up_to_sign(self, F):
        # sparse bivariate pairs, so zero pivots and row swaps occur
        kern = _kernel(F)
        rng = random.Random(900 + F.q)

        def sparse(n):
            return [rng.randrange(F.q) if rng.random() < 0.4 else 0
                    for _ in range(n)]

        def bivariate(low):
            rows = [_itrim(sparse(rng.randrange(1, 5)))
                    for _ in range(rng.randrange(low, 4))]
            return rows + [sparse(rng.randrange(0, 4)) + [rng.randrange(1, F.q)]]

        for _ in range(60):
            a, b = bivariate(1), bivariate(0)   # Res_y(F, partial): deg_y F >= 1
            ref = _ref_resultant_y([_from_idx(F, r) for r in a],
                                   [_from_idx(F, r) for r in b], F)
            assert _resultant_y(kern, a, b) in (
                [F.index(c) for c in ref.coeffs],
                [F.index(c) for c in (-ref).coeffs])

    def test_partial_is_an_index_dict(self):
        # d/dx of x^4 + 2 x^2 y z + 3 y^4 over F_5: 4 x^3 + 4 x y z
        C = PlaneQuartic(F5, {(4, 0, 0): 1, (2, 1, 1): 2, (0, 4, 0): 3})
        assert C.partial(0) == {(3, 0, 0): 4, (1, 1, 1): 4}
        assert C.partial(2) == {(2, 1, 0): 2}
        # characteristic 2: d/dx x^4 = 0 and d/dx x^3 y = x^2 y
        C = PlaneQuartic(F4, {(4, 0, 0): F4.one, (3, 1, 0): F4.from_index(2),
                              (0, 0, 4): F4.from_index(3)})
        assert C.partial(0) == {(2, 1, 0): 2}


def _singular_over(F, h):
    """A reducible quartic whose singular points include those over the
    roots of the monic index polynomial h: for deg h = 4 the conics
    yz - x^2 and y^2 + h3 xy + h2 x^2 + h1 xz + h0 z^2, which meet where
    y = x^2 and h(x) = 0; for deg h = 3 the line y = 0 and the cubic
    h(x, z) + y (x^2 + yz)."""
    c = [F.from_index(v) for v in h]
    if len(h) == 5:
        u = {(0, 1, 1): F.one, (2, 0, 0): -F.one}
        v = {(0, 2, 0): F.one, (1, 1, 0): c[3], (2, 0, 0): c[2],
             (1, 0, 1): c[1], (0, 0, 2): c[0]}
    else:
        u = {(0, 1, 0): F.one}
        v = {(3, 0, 0): F.one, (2, 0, 1): c[2], (1, 0, 2): c[1],
             (0, 0, 3): c[0], (2, 1, 0): F.one, (0, 2, 1): F.one}
    return PlaneQuartic(F, _form_product(F, u, v))


def _monic_with_pieces(F, rng, degrees):
    """A random monic index polynomial, the product of distinct random
    monic irreducibles of the given degrees."""
    kern = _kernel(F)
    out, seen = [1], set()
    for d in degrees:
        while True:
            g = [rng.randrange(F.q) for _ in range(d)] + [1]
            if tuple(g) not in seen and kern.is_irreducible(g):
                break
        seen.add(tuple(g))
        out = kern._pmul(out, g)
    return out


class TestResidueGcdAgainstQuotientField:
    """The residue Euclid of the smoothness test against the element
    Euclid over the reference QuotientField, on every call that quartics
    built to be singular over pieces of degree 1, 2, 3 and 4 make."""

    @pytest.mark.parametrize("F", [F3, F4, F5, F7, F8, F9],
                             ids=lambda F: f"F{F.q}")
    def test_pieces_of_degree_1_to_4(self, F, monkeypatch):
        calls = []
        real = type(_kernel(F)).residue_gcd

        def spy(kern, a, b, m):
            out = real(kern, a, b, m)
            calls.append((a, b, m, out))
            return out

        monkeypatch.setattr(type(_kernel(F)), "residue_gcd", spy)
        rng = random.Random(1100 + F.q)
        reached = set()
        for degrees in [(1, 1, 2), (2, 2), (4,), (1, 2), (3,), (1, 1, 1)] * 3:
            C = _singular_over(F, _monic_with_pieces(F, rng, degrees))
            del calls[:]
            assert not C.is_smooth()
            assert not _reference_is_smooth(C)
            for a, b, m, out in calls:
                K = QuotientField(_from_idx(F, m))

                def over_K(residues):
                    return Poly(K, [QElement(K, _from_idx(F, r))
                                    for r in residues])

                want = euclid_gcd(over_K(a), over_K(b))
                assert out == [[F.index(c) for c in v.rep.coeffs]
                               for v in want.coeffs], (C._idx, m)
                reached.add(len(m) - 1)
        assert reached >= {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# PlaneQuartic.count and _Kernel.root_count against brute force over F_{q^i}
# ---------------------------------------------------------------------------

def _brute_quartic_count(C, i):
    """Projective points over F_{q^i} by evaluating F at every (x : y : 1),
    (x : 1 : 0) and (1 : 0 : 0), on the big field's kernel with the
    coefficients carried over by embed's phi."""
    big, phi = embed(C.base, i)
    kern = _kernel(big)
    horner = kern.horner
    c = {m: big.index(phi(v)) for m, v in _quartic_elements(C).items()}
    # cols[a] lists the y-coefficients of x^a in F(x, y, 1)
    cols = [[c[(a, b, 4 - a - b)] for b in range(5 - a)] for a in range(5)]
    total = 0
    for y in range(big.q):
        row = [horner(col, y) for col in cols]
        total += sum(1 for x in range(big.q) if not horner(row, x))
    line = [c[(a, 4 - a, 0)] for a in range(5)]
    total += sum(1 for x in range(big.q) if not horner(line, x))
    return total + (0 if c[(4, 0, 0)] else 1)


def _involution_form(F, a, B, C):
    """a Y^2 + B(x, z) Y + C(x, z) with Y = y^2 (odd p) or y^2 + yz (p = 2),
    B and C binary forms given by their x-coefficients (z-degree 2 - i and
    4 - i): a dict monomial -> FieldElement."""
    form = {}

    def add(mono, c):
        form[mono] = form.get(mono, F.zero) + c

    Y = [(2, 0)] + ([(1, 1)] if F.p == 2 else [])       # (y, z) exponents
    for j, k in Y:                                      # Y^2 = y^4 (+ y^2 z^2)
        add((0, 2 * j, 2 * k), a)
    for i, b in enumerate(B):
        for j, k in Y:
            add((i, j, k + 2 - i), b)
    for i, c in enumerate(C):
        add((i, 0, 4 - i), c)
    return form


def _times_root(F, x0, cs):
    """The x-coefficients of (x - x0 z) times the form cs."""
    out = [F.zero] * (len(cs) + 1)
    for i, c in enumerate(cs):
        out[i] -= x0 * c
        out[i + 1] += c
    return out


# which per-x case of the quadratic in Y each kind forces; the last three
# are near misses, one extra term off the involution
INVOLUTION_KINDS = ["dense", "line", "a0", "b_root", "c_root", "b_zero",
                    "square", "xy3", "x3y", "y3z"]


def _involution_quartic(F, rng, kind):
    """A seeded quartic of the kind.  `line`: a = 0 and x - x0 z divides B
    and C, so G = F(x0, y, 1) is zero and the line x = x0 z lies on the
    curve; `a0`: a = 0; `b_root`/`c_root`: B or C vanishes at x0;
    `b_zero`: B = 0; `square`: the discriminant B^2 - 4aC is zero (B = 0
    in characteristic 2)."""
    def el(lo=0):
        return F.from_index(rng.randrange(lo, F.q))

    x0 = el()
    a, B, C = el(1), [el() for _ in range(3)], [el() for _ in range(5)]
    if kind in ("line", "a0"):
        a = F.zero
    if kind in ("line", "b_root"):
        B = _times_root(F, x0, [el(), el(1)])
    if kind in ("line", "c_root"):
        C = _times_root(F, x0, [el() for _ in range(3)] + [el(1)])
    if kind == "b_zero" or (kind == "square" and F.p == 2):
        B = [F.zero] * 3
    if kind == "square" and F.p != 2:
        # C = B^2 / 4a, coefficient-wise as binary forms
        s = (a * F.element(4)).inv()
        C = [sum((B[u] * B[t - u] for u in range(3) if 0 <= t - u < 3),
                 F.zero) * s for t in range(5)]
    form = _involution_form(F, a, B, C)
    extra = {"xy3": (1, 3, 0), "x3y": (3, 1, 0), "y3z": (0, 3, 1)}.get(kind)
    if extra:
        form[extra] = form.get(extra, F.zero) + el(1)
    return PlaneQuartic(F, form)


# (F, i, number of quartics): F_{9^3} takes about 1 s per brute count
BRUTE_PAIRS = [(F3, 3, 12), (F5, 2, 12), (F9, 3, 2), (F4, 3, 12), (F8, 2, 12)]
BRUTE_IDS = ["F3^3", "F5^2", "F9^3", "F4^3", "F8^2"]


class TestQuarticCountAgainstBruteForce:
    @pytest.mark.parametrize("F, i, n", BRUTE_PAIRS, ids=BRUTE_IDS)
    def test_count(self, F, i, n):
        rng = random.Random(700 + F.q * i)
        for k in range(n):
            C = PlaneQuartic(F, _random_form(F, rng, 4, (0.3, 1.0)[k % 2]))
            assert C.count(i) == _brute_quartic_count(C, i)

    @pytest.mark.parametrize("F, i, n", BRUTE_PAIRS, ids=BRUTE_IDS)
    def test_involution(self, F, i, n):
        """Quartics with the involution y -> -y (odd p) or y -> y + z
        (p = 2) take the quadratic path, near misses take root_count; both
        against brute force.  n cases cycle through the kinds."""
        rng = random.Random(800 + F.q * i)
        for k in range(n):
            kind = INVOLUTION_KINDS[k % len(INVOLUTION_KINDS)]
            C = _involution_quartic(F, rng, kind)
            near_miss = kind in ("xy3", "x3y", "y3z")
            assert (C._b_row is None) == near_miss, kind
            assert C.count(i) == _brute_quartic_count(C, i), kind

    def test_corpus_rows_take_the_quadratic_path(self):
        """Every shipped quartic row but the F_3 in-proof example has the
        involution, so losing the fast path fails here."""
        rows = {e.id: e.curve() for e in load_fixtures()
                if e.kind == "plane_quartic"}
        assert len(rows) == 16
        assert {i for i, C in rows.items() if C._b_row is None} == \
            {"quartic-f3-inproof"}


class TestQuarticDepthFour:
    """N_4 over F_{29^4} and F_{2^20} against the zeta function that
    N_1..N_3 determine (genus 3): the largest quartic counts in the suite."""

    @pytest.mark.parametrize("row, n4", [("quartic-odd-q29", 707036),
                                         ("quartic-even-q32", 1044974)])
    def test_n4_matches_zeta(self, row, n4):
        entry, = [e for e in load_fixtures() if e.id == row]
        C = entry.curve()
        q = entry.field().q
        L = l_from_counts(q, 3, [C.count(i) for i in (1, 2, 3)])
        assert C.count(4) == predicted_counts(L, q, 4) == n4


def _root_count_cases(big, rng):
    """Index polynomials of degree 2 to 4 over big: random ones, products of
    linear factors with repeats, and ones with zero middle coefficients."""
    def lin(a):
        return Poly(big, [-big.from_index(a), big.one])

    def idx(f):
        return [big.index(c) for c in f.coeffs]

    Q = big.q
    cases = []
    for d in (2, 3, 4):
        for _ in range(4):
            cases.append([rng.randrange(Q) for _ in range(d)]
                         + [rng.randrange(1, Q)])
        c, lc = rng.randrange(1, Q), rng.randrange(1, Q)
        cases.append([c] + [0] * (d - 1) + [lc])           # lc y^d + c
        cases.append([0, c] + [0] * (d - 2) + [lc])        # lc y^d + c y
    for zeros in ([1, 1], [0, 0, 2], [2, 2, 2], [1, 1, 3, 3], [0, 2, 2, 2],
                  [5 % Q, 5 % Q, 5 % Q, 5 % Q]):
        f = Poly(big, [big.one])
        for a in zeros:
            f = f * lin(a)
        cases.append(idx(f))
    irreducible = next(f for f in (Poly(big, [big.from_index(a), b, big.one])
                                   for b in (big.zero, big.one)
                                   for a in range(Q))
                       if not roots(f))
    cases.append(idx(irreducible * lin(1)))               # one root, no pair
    cases.append(idx(irreducible * irreducible))          # no root at all
    return cases


class TestRootCountAgainstRoots:
    @pytest.mark.parametrize("F, i", [(F3, 3), (F5, 2), (F9, 3), (F3, 4),
                                      (F4, 3), (F8, 2), (F2, 5)],
                             ids=["F3^3", "F5^2", "F9^3", "F3^4", "F4^3",
                                  "F8^2", "F2^5"])
    def test_root_count(self, F, i):
        big, _ = embed(F, i)
        kern = _kernel(big)
        rng = random.Random(800 + F.q * i)
        for cs in _root_count_cases(big, rng):
            expected = len(roots(Poly(big, [big.from_index(c) for c in cs])))
            for q in (F.q, F.p, big.q):
                assert kern.root_count(cs, q) == expected, (cs, q)

    def test_q_must_be_a_subfield_order(self):
        big, _ = embed(F9, 3)
        with pytest.raises(ValueError):
            _kernel(big).root_count([1, 0, 0, 1], 81)


# ---------------------------------------------------------------------------
# ASTower.count against the Series-based place expansions (FieldElement
# coefficients) that the index-level ones replaced
# ---------------------------------------------------------------------------

def _reference_tower_count(T, i, kinds):
    """ASTower.count with each special place expanded as a Series over
    F_{q^i} at precision 60; the kind of each place is added to kinds."""
    big, phi = embed(T.base, i)
    _, _, kern, orbits = _extension(T.base, i)
    f1 = tuple(phi(T.base.from_index(c)) for c in T._f1)
    stage2 = tuple(Poly(big, [phi(T.base.from_index(c)) for c in g])
                   for g in T._stage2)
    c1, c0, cm1 = (big.index(c) for c in f1)
    A, B, D = ([big.index(c) for c in g.coeffs] for g in stage2)

    def place(kind, x0=None, ybranch=None):
        kinds.add(kind)
        return _reference_place_points(kern, f1, stage2, kind, x0, ybranch)

    total = 0
    for x, w in orbits:
        if not x:
            if cm1:
                continue
            v1 = c0
        else:
            v1 = kern.mul(c1, x) ^ c0 ^ kern.mul(cm1, kern.inv(x))
        y0 = kern.as_root(v1)
        if y0 is None:
            continue
        d = kern.horner(D, x)
        if not d:
            total += w * sum(place("finite", big.from_index(x),
                                   big.from_index(y)) for y in (y0, y0 ^ 1))
            continue
        a, b, dinv = kern.horner(A, x), kern.horner(B, x), kern.inv(d)
        for y in (y0, y0 ^ 1):
            if not kern.trace(kern.mul(a ^ kern.mul(b, y), dinv)):
                total += 2 * w
    if cm1:
        total += place("ram_zero")
    if c1:
        total += place("ram_inf")
    else:
        y0 = kern.as_root(c0)
        if y0 is not None:
            for y in (y0, y0 ^ 1):
                total += place("ord_inf", ybranch=big.from_index(y))
    return total


def _reference_place_points(kern, f1, stage2, kind, x0, ybranch, prec=60):
    c1, c0, cm1 = f1
    A, Bp, D = stage2
    big = D.base
    one = big.one
    if kind == "finite":
        xs = Series(big, 0, [x0, one], prec)
        f1s = Series.constant(big, c0, prec) + xs.scale(c1)
        if not cm1.is_zero():
            f1s = f1s + xs.inv().scale(cm1)
        ys = _reference_branch_series(big, f1s, ybranch, prec)
    elif kind == "ord_inf":
        xs = Series(big, -1, [one], prec)
        f1s = Series(big, 0, [c0, cm1], prec)
        ys = _reference_branch_series(big, f1s, ybranch, prec)
    elif kind == "ram_zero":
        xs = _ramified_x_series(big, cm1, c0, c1, prec)
        ys = Series.t(big, prec) * xs.inv()
    else:
        Xs = _ramified_x_series(big, c1, c0, cm1, prec)
        xs = Xs.inv()
        ys = Series.t(big, prec) * Xs.inv()
    As = poly_at_series(A, xs).truncate(prec)
    Bs = (poly_at_series(Bp, xs) * ys).truncate(prec)
    Ds = poly_at_series(D, xs).truncate(prec)
    f2 = (As + Bs) / Ds
    while True:
        if f2.is_zero():
            return 2
        m = -f2.valuation()
        if m <= 0:
            return 0 if kern.trace(big.index(f2.coefficient(0))) else 2
        if m % 2 == 1:
            return 1
        s = f2.coefficient(-m).sqrt()
        u = Series(big, -m // 2, [s], f2.prec)
        f2 = f2 + u * u + u


def _ramified_x_series(big, clead, cmid, cfar, prec):
    """The tower's ramified-pole parameter, x (cl + t + cm x + cf x^2) =
    t^2, from series._ser_cubic_branch over the field big, as a Series of
    elements."""
    x = _ser_cubic_branch(_kernel(big), big.index(clead), 1,
                          big.index(cmid), big.index(cfar), prec + 1)
    return Series(big, 0, [big.from_index(c) for c in x], prec + 1)


def _reference_branch_series(big, F, y0, prec):
    n = min(prec, F.prec)
    a = [y0]
    for k in range(1, n):
        c = F.coefficient(k) if k < F.prec else big.zero
        if k % 2 == 0:
            c = c + a[k // 2] * a[k // 2]
        a.append(c)
    return Series(big, 0, a, n)


def _random_tower(F, rng, c1_zero, cm1_zero):
    """A tower with the chosen first-stage poles whose D has a nonzero
    rational root: over F_{q^2} every rational x0 splits y^2 + y = f1(x0),
    so the place kind "finite" is reached there."""
    return ASTower(F, *_random_tower_args(F, rng, c1_zero, cm1_zero))


def _random_tower_sample(F):
    """TestTowerPlacesAgainstSeries's seeded towers over F: poles of f1 at 0
    and infinity; at 0 only; at infinity only; each twice."""
    rng = random.Random(500 + F.q)
    return [_random_tower(F, rng, c1_zero, cm1_zero)
            for c1_zero, cm1_zero in [(False, False), (True, False),
                                      (False, True)] * 2]


def _random_tower_args(F, rng, c1_zero, cm1_zero):
    """The Poly and RationalFunction arguments of _random_tower."""
    while True:
        c1, c0, cm1 = (F.from_index(rng.randrange(1, F.q)) for _ in range(3))
        if rng.randrange(2):
            c0 = F.zero
        c1 = F.zero if c1_zero else c1
        cm1 = F.zero if cm1_zero else cm1
        f1 = (RationalFunction(Poly(F, [cm1, c0, c1]), Poly.x(F))
              if not cm1.is_zero() else Poly(F, [c0, c1]))
        root = Poly(F, [F.from_index(rng.randrange(1, F.q)), F.one])
        D = root * _random_poly(F, rng, rng.randrange(0, 3))
        A = Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(5)])
        B = Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(4)])
        try:
            ASTower(F, f1, A, B, D)
        except UnsupportedShape:
            continue
        return f1, A, B, D


class TestTowerPlacesAgainstSeries:
    """count(i), i = 1..3, against in-test Series-based place expansions."""

    def test_shipped_f32_towers(self):
        kinds = set()
        for T in (first_tower(), second_tower()):
            for i in (1, 2, 3):
                assert T.count(i) == _reference_tower_count(T, i, kinds)
        assert kinds == {"finite", "ram_zero", "ram_inf"}

    @pytest.mark.parametrize("F", [F2, F4, F8], ids=lambda F: f"F{F.q}")
    def test_random_towers(self, F, monkeypatch):
        kinds = set()
        precs = []
        expand = _tower_place_points_at

        def spy(kern, f1, stage2, kind, prec, x0=None, ybranch=None):
            precs.append(prec)
            return expand(kern, f1, stage2, kind, prec, x0, ybranch)

        monkeypatch.setattr(curves, "_tower_place_points_at", spy)
        for T in _random_tower_sample(F):
            for i in (1, 2, 3):
                assert T.count(i) == _reference_tower_count(T, i, kinds), \
                    (T._f1, T._stage2, i)
        assert kinds == {"finite", "ord_inf", "ram_zero", "ram_inf"}
        # three ram_inf places of the F_8 sample run out of precision at
        # the first precision, so a retry is checked against the reference
        if F is F8:
            assert min(precs) < max(precs)


class TestFrobeniusOrbits:
    @pytest.mark.parametrize("base,i", [(F3, 3), (F4, 3), (F5, 2), (F9, 2),
                                        (F8, 2), (F2, 4)],
                             ids=["F27/F3", "F64/F4", "F25/F5", "F81/F9",
                                  "F64/F8", "F16/F2"])
    def test_orbits_partition_the_field(self, base, i):
        big, _ = embed(base, i)
        seen = set()
        for rep, size in _kernel(big).frobenius_orbits(base.q):
            assert i % size == 0
            x, orbit = big.from_index(rep), set()
            while big.index(x) not in orbit:
                orbit.add(big.index(x))
                x = x ** base.q
            assert len(orbit) == size and min(orbit) == rep
            assert not orbit & seen
            seen |= orbit
        assert seen == set(range(big.q))


class TestEmbeddingIndexMap:
    @pytest.mark.parametrize("base,i", [(F5, 3), (F9, 2), (F4, 3), (F8, 2)],
                             ids=["F125/F5", "F81/F9", "F64/F4", "F64/F8"])
    def test_map_equals_phi_on_every_element(self, base, i):
        big, phi = embed(base, i)
        got, imap, kern, _ = _extension(base, i)
        assert got is big and len(imap) == base.q
        assert list(imap) == [big.index(phi(v)) for v in base.elements()]
        assert _extension(base, i)[1] is imap       # built once
        # a ring embedding in its own right, on the two index kernels
        small = _kernel(base)
        assert imap[0] == 0 and imap[1] == 1
        for a in range(base.q):
            for b in range(base.q):
                assert imap[small.add(a, b)] == kern.add(imap[a], imap[b])
                assert imap[small.mul(a, b)] == kern.mul(imap[a], imap[b])

    def test_degree_one_is_the_identity(self):
        for base in (F2, F4, F5, F9):
            assert _extension(base, 1)[1] == range(base.q)


class TestRamifiedSeries:
    @pytest.mark.parametrize("F", [F2, F8, F32], ids=["F2", "F8", "F32"])
    def test_satisfies_its_defining_equation(self, F):
        rng = random.Random(F.q)
        for _ in range(3):
            cl = F.from_index(rng.randrange(1, F.q))
            cm, cf = (F.from_index(rng.randrange(F.q)) for _ in range(2))
            xs = _ramified_x_series(F, cl, cm, cf, 60)
            assert (xs.val, xs.prec) == (2, 61)
            t = Series.t(F, xs.prec)
            lhs = xs * (Series.constant(F, cl, xs.prec) + t + xs.scale(cm)
                        + (xs * xs).scale(cf))
            residual = lhs - t * t
            assert residual.prec >= 61 and residual.is_zero()
