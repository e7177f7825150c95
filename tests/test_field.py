"""Field and polynomial arithmetic: pinned examples plus algebraic properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pointless.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    ExtensionTooLarge,
    MixedFields,
    NoSquareRoot,
    OddCharacteristic,
    ReduciblePolynomial,
)
from pointless.field import (
    MAX_FIELD_ORDER,
    FiniteField,
    Poly,
    RationalFunction,
    _generator_step,
    _kernel,
    _prime_factors,
    canonical_extension,
    embed,
)

import element_reference as ref
from element_reference import (
    _element_factor,
    _element_is_irreducible,
    _element_squarefree_part,
    dlog_tables_reference,
)

F5 = FiniteField(5)
F32 = FiniteField(2, 5, [1, 0, 1, 0, 0, 1])       # a^5 + a^2 + 1 = 0
F4 = FiniteField(2, 2, [1, 1, 1])                 # a^2 + a + 1 = 0
F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])          # a^4 + a + 1 = 0
F9 = FiniteField(3, 2, [-1, -1, 1])               # a^2 - a - 1 = 0
F25 = FiniteField(5, 2, [2, -1, 1])               # a^2 - a + 2 = 0
F27 = FiniteField(3, 3, [1, -1, 0, 1])            # a^3 - a + 1 = 0
F8 = FiniteField(2, 3, [1, 1, 0, 1])              # a^3 + a + 1 = 0


class TestConstruction:
    def test_prime_field(self):
        assert F5.q == 5 and F5.n == 1

    def test_composite_characteristic(self):
        with pytest.raises(CompositeCharacteristic):
            FiniteField(6)

    def test_reducible_rejected(self):
        # x^2 - 1 = (x-1)(x+1) over F_3
        with pytest.raises(ReduciblePolynomial):
            FiniteField(3, 2, [-1, 0, 1])

    def test_irreducible_accepted(self):
        F = FiniteField(3, 2, [1, 0, 1])          # x^2 + 1 irreducible over F_3
        assert F.q == 9

    @pytest.mark.parametrize("p, degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)),
                                            (5, (2, 3))],
                             ids=["F2", "F3", "F5"])
    def test_moduli_checked_as_the_element_reference(self, p, degrees):
        # every monic f of each degree d: FiniteField(p, d, f) is built
        # exactly when Rabin's test in FieldElement arithmetic calls f
        # irreducible, and canonical_extension takes the first such f in
        # index order (295 polynomials, about 0.2 s in all)
        Fp = FiniteField(p)
        for d in degrees:
            first = None
            for i in range(p ** d):
                f = [i // p ** k % p for k in range(d)] + [1]
                if _element_is_irreducible(Poly.from_ints(Fp, f)):
                    first = first or tuple(f)
                    assert FiniteField(p, d, f).defining_poly == tuple(f)
                else:
                    with pytest.raises(ReduciblePolynomial):
                        FiniteField(p, d, f)
            assert canonical_extension(p, d).defining_poly == first

    def test_f32_defining_relation(self):
        a = F32.gen
        assert a ** 5 == F32.element([1, 0, 1])   # a^5 = a^2 + 1

    def test_element_parsing(self):
        assert F32.element("a^30") == F32.gen ** 30
        assert F25.element([2, 3]) == F25.element(2) + F25.element(3) * F25.gen
        assert F5.element(7) == F5.element(2)


class TestArithmetic:
    def test_inverse_f5(self):
        assert F5.element(2).inv() == F5.element(3)

    def test_inverse_extension(self):
        for v in F27.elements():
            if not v.is_zero():
                assert v * v.inv() == F27.one

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            F5.zero.inv()

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            F5.one + F9.one

    def test_sqrt_char2_bijection(self):
        a = F4.gen
        assert a.sqrt() == a + F4.one             # (a+1)^2 = a^2+1 = a
        for v in F32.elements():
            assert v.sqrt() ** 2 == v

    def test_sqrt_odd(self):
        for F in (F5, F9, F25, F27):
            for v in F.elements():
                if v.is_square():
                    assert v.sqrt() ** 2 == v
                else:
                    with pytest.raises(NoSquareRoot):
                        v.sqrt()

    def test_frobenius_fixes_field(self):
        for F in (F9, F25, F32):
            for v in F.elements():
                assert v ** F.q == v


class TestSquares:
    def test_f5_squares(self):
        squares = {F.coeffs for F in (F5.element(i) ** 2 for i in range(5))}
        assert not F5.element(2).is_square()
        assert F5.element(4).is_square()
        assert len(squares) == 3

    def test_f9_minus_one_square(self):
        assert (-F9.one).is_square()              # q = 9 is 1 mod 4

    def test_char2_all_squares(self):
        F8 = FiniteField(2, 3, [1, 1, 0, 1])
        assert all(v.is_square() for v in F8.elements())

    def test_square_count_odd_q(self):
        for F in (F5, F9, F25, F27):
            assert sum(v.is_square() for v in F.elements()) == (F.q + 1) // 2

    def test_canonical_nonsquare(self):
        # the kernel's nonsquare is the first nonsquare in canonical order
        assert _kernel(F5).nonsquare == 2
        assert _kernel(F4).nonsquare is None   # every element is a square


class TestTrace:
    def test_trace_examples(self):
        assert F32.one.trace_to_F2() == 1         # odd degree 5
        assert F4.gen.trace_to_F2() == 1          # a + a^2 = 1
        assert F16.one.trace_to_F2() == 0         # even degree 4
        with pytest.raises(OddCharacteristic):
            F5.one.trace_to_F2()

    def test_trace_additive_and_balanced(self):
        vals = [v.trace_to_F2() for v in F32.elements()]
        assert sum(vals) == 16                    # trace is balanced
        for v in F32.elements():
            for w in list(F32.elements())[:8]:
                assert (v + w).trace_to_F2() == (v.trace_to_F2() + w.trace_to_F2()) % 2


class TestPoly:
    def test_separability(self):
        f5 = Poly.from_ints(F5, [1, 0, 0, 0, 0, 0, 0, 0, 1])   # x^8 + 1
        assert _kernel(F5).is_separable(_idx(F5, f5))
        F2 = FiniteField(2)
        f2 = Poly.from_ints(F2, [1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert not _kernel(F2).is_separable(_idx(F2, f2))     # (x+1)^8

    def test_gcd_coprime_cubics(self):
        F3 = FiniteField(3)
        f = Poly.from_ints(F3, [-1, -1, 0, 1])    # x^3 - x - 1
        g = Poly.from_ints(F3, [-1, 1, 0, -1])    # -x^3 + x - 1
        assert f.gcd(g).degree == 0

    def test_divmod_roundtrip(self):
        f = Poly.from_ints(F9, [1, 2, 0, 1, 2])
        g = Poly.from_ints(F9, [2, 1, 1])
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree

    def test_interpolate_roundtrip(self):
        nodes = [F25.from_index(i) for i in range(6)]
        values = [F25.from_index(3 * i + 1) for i in range(6)]
        f = ref.interpolate(F25, nodes, values)
        assert all(f.eval(x) == y for x, y in zip(nodes, values))
        with pytest.raises(ref.DuplicateNodes):
            ref.interpolate(F25, [F25.one, F25.one], [F25.one, F25.zero])

    def test_roots(self):
        f = Poly.from_ints(F5, [1, 0, 1])         # x^2 + 1 = (x-2)(x-3)
        assert {F5.index(r) for r in ref.roots(f)} == {2, 3}

    def test_factor_reassembles(self):
        for F in (F5, F32, F9):
            f = Poly.from_ints(F, [1, 1, 0, 2, 0, 0, 1, 1])
            acc = Poly.constant(F, f.lc)
            for piece, m in _factor(f):
                assert _kernel(F).is_irreducible(_idx(F, piece))
                for _ in range(m):
                    acc = acc * piece
            assert acc == f

    def test_factor_with_multiplicity(self):
        F3 = FiniteField(3)
        x = Poly.x(F3)
        one = Poly.constant(F3, F3.one)
        f = (x + one) * (x + one) * (x * x + one)
        fac = dict(_factor(f))
        assert fac[(x + one)] == 2

    def test_irreducibility(self):
        F2 = FiniteField(2)
        K = _kernel(F2)
        assert K.is_irreducible([1, 0, 1, 0, 0, 1])       # x^5 + x^2 + 1
        assert not K.is_irreducible([1, 0, 0, 0, 0, 0, 1])

    def test_squarefree_part(self):
        F3 = FiniteField(3)
        x = Poly.x(F3)
        one = Poly.constant(F3, F3.one)
        f = (x + one) ** 3 * (x * x + one)
        assert _squarefree_part(F3, f) == ((x + one) * (x * x + one)).monic()


class TestRationalFunction:
    def test_normalization(self):
        x = Poly.x(F5)
        one = Poly.constant(F5, F5.one)
        r = RationalFunction((x + one) * x, (x + one) * (x - one))
        assert r.num == x and r.den == x - one

    def test_pole(self):
        x = Poly.x(F5)
        r = RationalFunction(Poly.constant(F5, F5.one), x)
        assert r.den.eval(F5.zero).is_zero()
        with pytest.raises(DivisionByZero):
            r.num.eval(F5.zero) / r.den.eval(F5.zero)


def _digit_loop_coeffs(F, i):
    """The coefficients FiniteField.from_index gives on every field: the
    base-p digits of i, F.n of them, trailing zeros trimmed."""
    coeffs = []
    for _ in range(F.n):
        coeffs.append(i % F.p)
        i //= F.p
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class TestPrimeFieldIndex:
    @pytest.mark.parametrize("p", [3, 5, 7, 29])
    def test_from_index_and_index_match_the_digit_loop(self, p):
        # the prime-field paths of from_index and index; i runs past p,
        # where from_index reduces mod p
        F = FiniteField(p)
        for i in range(2 * p):
            v = F.from_index(i)
            assert v.parent is F and v.coeffs == _digit_loop_coeffs(F, i)
            assert F.index(v) == i % p

    def test_digit_loop_on_an_extension(self):
        for i in range(2 * F25.q):
            assert F25.from_index(i).coeffs == _digit_loop_coeffs(F25, i)
            assert F25.index(F25.from_index(i)) == i % F25.q


class TestEmbed:
    def test_prime_field_case(self):
        big, phi = embed(F5, 2)
        assert big.q == 25
        assert phi(F5.element(3)) == big.element(3)

    def test_defining_relation_preserved(self):
        big, phi = embed(F25, 2)
        assert big.q == 625
        img = phi(F25.gen)
        # a^2 - a + 2 = 0 must hold for the image
        assert img * img - img + big.element(2) == big.zero

    def test_homomorphism(self):
        for F, m in ((F25, 2), (F27, 2), (F32, 2)):
            big, phi = embed(F, m)
            elems = list(F.elements())
            for x in elems[::5]:
                for y in elems[::7]:
                    assert phi(x + y) == phi(x) + phi(y)
                    assert phi(x * y) == phi(x) * phi(y)
            assert phi(F.one) == big.one

    def test_deterministic(self):
        b1, p1 = embed(F27, 2)
        b2, p2 = embed(F27, 2)
        assert b1 is b2 and p1(F27.gen) == p2(F27.gen)

    def test_root_count_f27_in_f729(self):
        big, _ = embed(F27, 2)
        mini = Poly.from_ints(big, [1, -1, 0, 1])
        assert len(ref.roots(mini)) == 3

    def test_root_is_smallest_root_of_poly_roots(self):
        # embed reads its root off the big field's index kernel; it must be
        # the smallest of the roots ref.roots finds, for every presentation
        # the corpus, the CLI and the tests use, wherever q^m <= 1024
        from pointless.cli import _field_for
        from pointless.harness import load_fixtures
        fields = {e.field() for e in load_fixtures() if e.n > 1}
        fields |= {F4, F8, F9, F16, F25, F27, F32,
                   FiniteField(3, 2, [1, 0, 1]), FiniteField(7, 2, [3, -1, 1])}
        fields |= {_field_for(q) for q in (4, 8, 9, 16, 25, 27, 32, 49)}
        pairs = 0
        for F in fields:
            m = 2
            while F.q ** m <= 1024:
                big, phi = embed(F, m)
                mini = Poly.from_ints(big, list(F.defining_poly))
                assert phi(F.gen) == min(ref.roots(mini), key=big.index)
                pairs += 1
                m += 1
        assert pairs >= 12


def _dlog_reference(F):
    """(exp, log) by FieldElement products: the powers of the first
    element, in canonical order, whose powers reach every nonzero one."""
    for g in F.elements():
        powers = [F.one]
        while not g.is_zero() and powers[-1] * g != F.one:
            powers.append(powers[-1] * g)
        if len(powers) == F.q - 1:
            break
    exp = [F.index(v) for v in powers]
    log = [None] * F.q
    for k, idx in enumerate(exp):
        log[idx] = k
    return exp, log


DLOG_FIELDS = {
    "F2": FiniteField(2), "F3": FiniteField(3), "F4": F4, "F8": F8, "F9": F9,
    "F25": F25, "F27": F27,
    # a is not primitive here (a^16 = 1), so the generator is not a
    "F625": FiniteField(5, 4, [2, 0, 0, 0, 1]),
    "F1024": FiniteField(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
}

# odd n at large p (the spread table's size), char 2 at odd and even n,
# and F625, where a is not primitive
WALK_FIELDS = {f"F{p}^{n}": canonical_extension(p, n)
               for p, n in [(13, 3), (47, 3), (2, 9), (2, 12), (3, 8), (5, 6)]}
WALK_FIELDS["F625"] = DLOG_FIELDS["F625"]


class TestDlogTables:
    @pytest.mark.parametrize("F", DLOG_FIELDS.values(), ids=DLOG_FIELDS.keys())
    def test_equal_to_field_element_reference(self, F):
        exp, log = F.dlog_tables()
        want_exp, want_log = _dlog_reference(F)
        assert (list(exp), list(log[1:])) == (want_exp, want_log[1:])

    def test_consistency(self):
        for F in (F5, F9, F25):
            exp, log = F.dlog_tables()
            assert len(exp) == F.q - 1
            for k, idx in enumerate(exp):
                assert log[idx] == k
            assert log[0] == 0                    # a placeholder: zero has no log
            # multiplication through the table matches field arithmetic
            g = F.from_index(exp[1])
            k = 5 % (F.q - 1)
            assert F.from_index(exp[k]) == g ** k

    @pytest.mark.parametrize("F", WALK_FIELDS.values(), ids=WALK_FIELDS.keys())
    def test_equal_to_walk_reference(self, F):
        exp, log = F.dlog_tables()
        want_exp, want_log = dlog_tables_reference(F)
        assert (list(exp), list(log[1:])) == (want_exp, want_log[1:])
        step = _generator_step(F.p, F.n, F.defining_poly, exp[1])
        assert all(len(t) <= F.q for t in step[1:] if t is not None)


F7 = FiniteField(7)


def _kernel_agrees(F, a, b):
    """The index kernel against FieldElement arithmetic on one pair."""
    K = _kernel(F)
    x, y = F.from_index(a), F.from_index(b)
    assert K.add(a, b) == F.index(x + y)
    assert K.sub(a, b) == F.index(x - y)
    assert K.neg(a) == F.index(-x)
    assert K.mul(a, b) == F.index(x * y)
    assert K.sqrt_count(a) == (1 if F.p == 2 or x.is_zero()
                               else 2 if x.is_square() else 0)
    if a:
        assert K.inv(a) == F.index(x.inv())
    if F.p == 2:
        assert K.trace(a) == x.trace_to_F2()


class TestIndexKernel:
    @pytest.mark.parametrize("F", [F5, F7, F9, F8, F16, F27],
                             ids=["F5", "F7", "F9", "F8", "F16", "F27"])
    def test_exhaustive_small_fields(self, F):
        for a in range(F.q):
            for b in range(F.q):
                _kernel_agrees(F, a, b)

    @pytest.mark.parametrize("base", [F25, FiniteField(29), F32],
                             ids=["F625", "F841", "F1024"])
    def test_random_pairs_in_quadratic_extensions(self, base):
        big, _ = embed(base, 2)
        rng = random.Random(big.q)
        for _ in range(400):
            _kernel_agrees(big, rng.randrange(big.q), rng.randrange(big.q))

    @pytest.mark.parametrize("F", [F5, F9, F27, F8],
                             ids=["F5", "F9", "F27", "F8"])
    def test_add_rows(self, F):
        # prime, Zech and char-2 kernels: row v is add(., v) and the
        # FieldElement sum, and asking again returns the kept row
        K = _kernel(F)
        for v in range(F.q):
            row = K.add_row(v)
            assert row == [K.add(a, v) for a in range(F.q)]
            assert row == [F.index(F.from_index(a) + F.from_index(v))
                           for a in range(F.q)]
            assert K.add_row(v) is row

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            _kernel(F9).inv(0)

    def test_built_lazily_and_cached(self):
        F = FiniteField(11)
        assert F._kern is None
        assert _kernel(F) is _kernel(F)


def _euclid_gcd(f, g):
    """Reference: the FieldElement Euclid, as Poly.gcd ran it on every
    base before finite fields moved to the index kernel."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _euclid_is_separable(f):
    d = ref.derivative(f)
    return not d.is_zero() and _euclid_gcd(f, d).degree == 0


def _idx(F, f):
    return [F.index(c) for c in f.coeffs]


def _from_idx(F, cs):
    return Poly(F, [F.from_index(c) for c in cs])


def _factor(f):
    """_Kernel.factor of the Poly f, its pieces as Polys."""
    F = f.base
    return [(_from_idx(F, g), m) for g, m in _kernel(F).factor(_idx(F, f))]


def _at_x_to_the_p(g):
    """g(x^p): the coefficient of x^(ip) is that of x^i in g."""
    F = g.base
    return Poly(F, [g[i // F.p] if i % F.p == 0 else F.zero
                    for i in range(F.p * g.degree + 1)])


def _squarefree_part(F, f):
    """The product of the squarefree factors _Kernel.squarefree finds in
    f, of degree >= 1."""
    K = _kernel(F)
    acc = [1]
    for g, _ in K.squarefree(K._monic(_idx(F, f))):
        acc = K._pmul(acc, g)
    return _from_idx(F, acc)


_GCD_FIELDS = [F5, F7, FiniteField(29), F8, F16, F9, F25, F27]
_GCD_IDS = ["F5", "F7", "F29", "F8", "F16", "F9", "F25", "F27"]


class TestKernelGcd:
    """_Kernel.gcd / is_separable and Poly.gcd, routed through the first,
    against the FieldElement Euclid on prime, char-2 and Zech kernels."""

    def _check_pair(self, F, f, g):
        K = _kernel(F)
        ref = _euclid_gcd(f, g)
        assert K.gcd(_idx(F, f), _idx(F, g)) == _idx(F, ref)
        assert f.gcd(g) == ref

    def _check_separable(self, F, f):
        ref = _euclid_is_separable(f)
        assert _kernel(F).is_separable(_idx(F, f)) == ref
        return ref

    @pytest.mark.parametrize("F", _GCD_FIELDS, ids=_GCD_IDS)
    def test_random_pairs_with_common_factors(self, F):
        rng = random.Random(F.q)

        def rand(deg):
            return _from_idx(F, [rng.randrange(F.q) for _ in range(deg + 1)])

        for _ in range(60):
            f, g = rand(rng.randrange(9)), rand(rng.randrange(9))
            self._check_pair(F, f, g)
            h = rand(rng.randrange(1, 4))
            self._check_pair(F, f * h, g * h)     # common factor h

    @pytest.mark.parametrize("F", _GCD_FIELDS, ids=_GCD_IDS)
    def test_random_separability(self, F):
        rng = random.Random(1000 + F.q)
        seen = set()
        for _ in range(150):
            f = _from_idx(F, [rng.randrange(F.q) for _ in range(9)])
            seen.add(self._check_separable(F, f))
        assert seen == {True, False}

    @pytest.mark.parametrize("F", _GCD_FIELDS, ids=_GCD_IDS)
    def test_edge_cases(self, F):
        K = _kernel(F)
        zero = Poly(F, [])
        c = Poly(F, [F.from_index(F.q - 1)])      # a nonzero constant
        x = Poly.x(F)
        g = _from_idx(F, [1, 1, 0, 1])            # x^3 + x + 1
        # zero polynomial
        assert K.gcd([], []) == [] and K.gcd([0, 0], [0]) == []
        assert zero.gcd(zero) == zero
        self._check_pair(F, g, zero)
        self._check_pair(F, zero, g)
        assert not self._check_separable(F, zero)
        # nonzero constants: gcd 1, never separable
        self._check_pair(F, c, g)
        assert K.gcd(_idx(F, c), []) == [1]
        assert not self._check_separable(F, c)
        # f' = 0: x^p and g(x^p)
        xp = x ** F.p
        assert not self._check_separable(F, xp)
        assert not self._check_separable(F, _at_x_to_the_p(g))
        # squares g^2 (and g^2 * x + 1, which is no square)
        assert not self._check_separable(F, g * g)
        self._check_separable(F, g * g * x + Poly(F, [F.one]))
        self._check_pair(F, g * g, g)
        # coprime pairs: x - a and x - b for a != b, x and x^p + 1
        for a in range(min(F.q, 6)):
            for b in range(a + 1, min(F.q, 6)):
                xa, xb = (x - Poly(F, [F.from_index(v)]) for v in (a, b))
                assert K.gcd(_idx(F, xa), _idx(F, xb)) == [1]
                assert xa.gcd(xb) == Poly(F, [F.one])
                assert self._check_separable(F, xa * xb)
        self._check_pair(F, x, xp + Poly(F, [F.one]))

    def test_root_count_agrees_with_roots(self):
        for F in (F7, F9, F8):
            rng = random.Random(F.q)
            for _ in range(40):
                f = _from_idx(F, [rng.randrange(F.q) for _ in range(6)])
                if f.is_zero():
                    continue
                assert _kernel(F).root_count(_idx(F, f)) == len(ref.roots(f))

    def test_quotient_field_gcd(self):
        """The quartic smoothness path: residue_gcd over F_5[t]/(t^2 + t + 2)
        on products of linear factors in y, against the element Euclid over
        the reference QuotientField and a pinned common factor."""
        m = [2, 1, 1]
        K = ref.QuotientField(_from_idx(F5, m))
        t, one = K.x_class, K.one
        y = Poly(K, [K.zero, one])

        def lin(r):
            return y - Poly(K, [r])

        def residues(h):
            return [_idx(F5, c.rep) for c in h.coeffs]

        f = lin(t) * lin(one) * lin(t + one)
        g = lin(t) * lin(t * t) * lin(t + one)
        common = (lin(t) * lin(t + one)).monic()
        assert common == ref.euclid_gcd(f, g)
        kern = _kernel(F5)
        assert kern.residue_gcd(residues(f), residues(g), m) == \
            residues(common)
        assert kern.residue_gcd(residues(lin(t)), residues(lin(one)), m) == \
            [[1]]


_FACTOR_FIELDS = {"F2": FiniteField(2), "F3": FiniteField(3), "F4": F4,
                  "F5": F5, "F7": F7, "F8": F8, "F9": F9, "F16": F16,
                  "F25": F25, "F27": F27, "F32": F32}


def _monic_irreducibles_ref(F, d, count):
    """The first `count` monic irreducibles of degree d in odometer order,
    by the element path."""
    out = []
    for code in range(F.q ** d):
        digits = [code // F.q ** i % F.q for i in range(d)]
        f = _from_idx(F, digits + [1])
        if _element_is_irreducible(f):
            out.append(f)
            if len(out) == count:
                break
    return out


def _mobius(n):
    primes = _prime_factors(n)
    return 0 if len(set(primes)) < len(primes) else (-1) ** len(primes)


class TestKernelFactor:
    """_Kernel.factor / is_irreducible / squarefree against the
    FieldElement path called directly."""

    def _check(self, F, f):
        K = _kernel(F)
        ref = _element_factor(f)
        assert K.factor(_idx(F, f)) == [(_idx(F, g), m) for g, m in ref]
        irreducible = len(ref) == 1 and ref[0][1] == 1
        assert K.is_irreducible(_idx(F, f)) == irreducible
        if f.degree <= 10:
            # Rabin's test raises x to q^deg: too slow past this degree
            assert _element_is_irreducible(f) == irreducible
        if f.degree > 0:
            assert _squarefree_part(F, f) == _element_squarefree_part(f)
        return ref

    @pytest.mark.parametrize("F", _FACTOR_FIELDS.values(),
                             ids=_FACTOR_FIELDS.keys())
    def test_random(self, F):
        rng = random.Random(3000 + F.q)
        for _ in range(40):
            deg = rng.randrange(10)
            self._check(F, _from_idx(F, [rng.randrange(F.q) for _ in range(deg)]
                                     + [rng.randrange(1, F.q)]))

    @pytest.mark.parametrize("F", _FACTOR_FIELDS.values(),
                             ids=_FACTOR_FIELDS.keys())
    def test_forced_shapes(self, F):
        rng = random.Random(4000 + F.q)
        x = Poly.x(F)
        lc = Poly(F, [F.from_index(F.q - 1)])
        irr = {d: _monic_irreducibles_ref(F, d, 4) for d in (1, 2, 3)}
        # several distinct irreducibles of one degree: the equal-degree
        # split has to recurse
        for d, pieces in irr.items():
            prod = lc
            for g in pieces:
                prod = prod * g
            assert dict(self._check(F, prod)) == {g: 1 for g in pieces}
        # repeated factors
        g1, g2, h = irr[1][-1], irr[2][0], irr[3][-1]
        fac = self._check(F, lc * g1 ** 3 * g2 ** 2 * h)
        assert sorted(m for _, m in fac) == [1, 2, 3]
        self._check(F, g2 ** (F.p + 1) * g1)
        # p-th powers g(x^p), whose coefficients need p-th roots
        for _ in range(4):
            g = _from_idx(F, [rng.randrange(F.q) for _ in range(3)] + [1])
            self._check(F, lc * _at_x_to_the_p(g))
            self._check(F, _at_x_to_the_p(g) * g * g)
        self._check(F, (x + lc) ** (F.p * F.p) * h)

    @pytest.mark.parametrize("F", [F5, F8, F9], ids=["F5", "F8", "F9"])
    def test_edge_cases(self, F):
        K = _kernel(F)
        c = Poly(F, [F.from_index(2)])
        for f in (Poly(F, []), c):
            assert _element_factor(f) == [] == K.factor(_idx(F, f))
            assert not _element_is_irreducible(f)
            assert not K.is_irreducible(_idx(F, f))
        lin = Poly(F, [F.one, F.from_index(2)])   # 2x + 1
        assert self._check(F, lin) == [(lin.monic(), 1)]
        assert K.is_irreducible(_idx(F, lin))
        assert K.factor([0, 0, 1, 0, 0]) == [([0, 1], 2)]

    @pytest.mark.parametrize("F", [FiniteField(2), FiniteField(3), F4, F5],
                             ids=["F2", "F3", "F4", "F5"])
    def test_irreducible_count_is_gauss(self, F):
        """(1/d) sum_{e | d} mu(d/e) q^e monic irreducibles of degree d."""
        K = _kernel(F)
        for d in range(1, 5):
            count = sum(K.is_irreducible([code // F.q ** i % F.q
                                          for i in range(d)] + [1])
                        for code in range(F.q ** d))
            gauss = sum(_mobius(d // e) * F.q ** e
                        for e in range(1, d + 1) if d % e == 0) // d
            assert count == gauss

    def test_roots_past_enumeration(self):
        """Past q = 1024 the linear factors of factor are the roots that
        ref.roots enumerates; x^2 + 1 has no root in F_(3^7), as
        3^7 = 3 mod 4."""
        F = canonical_extension(3, 7)
        K = _kernel(F)
        a, b = F.from_index(1000), F.from_index(5)
        f = (Poly(F, [-a, F.one]) ** 2 * Poly(F, [-b, F.one])
             * Poly.from_ints(F, [1, 0, 1]))
        assert ref.roots(f) == [b, a]
        assert [K.neg(g[0]) for g, _ in K.factor(_idx(F, f))
                if len(g) == 2] == [5, 1000]


class TestOrderCap:
    """Past MAX_FIELD_ORDER, FiniteField, embed and count(i) refuse with
    ExtensionTooLarge before any exp/log table is built."""

    def test_finite_field_refuses(self, refuse_tables):
        refuse_tables()
        assert 2 ** 20 == MAX_FIELD_ORDER
        with pytest.raises(ExtensionTooLarge):
            FiniteField(2, 21)
        with pytest.raises(ExtensionTooLarge):
            FiniteField(1048583)                  # the first prime past 2^20
        # at the cap and below it a field is built; its tables are not yet
        assert FiniteField(2, 20, [1, 0, 0, 1] + [0] * 16 + [1]).q \
            == MAX_FIELD_ORDER
        assert FiniteField(1048573).q == 1048573  # the last prime below it

    def test_embed_refuses(self, refuse_tables):
        refuse_tables()
        F49 = FiniteField(7, 2, [3, -1, 1])
        with pytest.raises(ExtensionTooLarge):
            embed(F49, 5)                         # F_(7^10)

    def test_count_refuses(self, refuse_tables):
        from pointless.harness import load_fixtures
        entry, = [e for e in load_fixtures() if e.id == "klein4-genus3-q25"]
        curve = entry.curve()
        refuse_tables()
        with pytest.raises(ExtensionTooLarge):
            curve.count(5)                        # over F_(5^10)


@given(st.integers(0, 24), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_field_ring_axioms(i, j):
    x, y = F25.from_index(i), F25.from_index(j)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + F25.one) == x * y + x


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(0, 8), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_mul_eval_compat(a, b):
    f = Poly(F9, [F9.from_index(c) for c in a])
    g = Poly(F9, [F9.from_index(c) for c in b])
    v = F9.from_index(5)
    assert (f * g).eval(v) == f.eval(v) * g.eval(v)


def test_canonical_extension_cached():
    assert canonical_extension(3, 6) is canonical_extension(3, 6)
    assert canonical_extension(3, 6).q == 729
