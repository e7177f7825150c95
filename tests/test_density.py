"""Density computations, permutation parsing, and the Monte-Carlo rig."""

import itertools
import random
from fractions import Fraction

import pytest

from pointless.cli import _field_for
from pointless.curves import HyperellipticOdd
from pointless.density import (
    DensityProblem,
    SplitMix64,
    _klein4_hyper_odd,
    compute_density,
    format_permutation,
    group_closure,
    heuristic_pointless_probability,
    klein4_hyper_odd_heuristic,
    montecarlo_pointless_rate,
    parse_permutation,
    wilson_interval,
)
from pointless.errors import (
    EvenCharacteristic,
    GroupTooLarge,
    NotTransitive,
    ParseError,
    UnknownFamily,
    UnsupportedShape,
)
from pointless.field import FiniteField, Poly, _index_poly, _kernel


class TestParsePermutation:
    def test_basic(self):
        assert parse_permutation("(1 2 3)", 3) == (1, 2, 0)
        assert parse_permutation("(1 2)(3 4)", 4) == (1, 0, 3, 2)
        assert parse_permutation("()", 4) == (0, 1, 2, 3)
        assert parse_permutation("(1,3)", 3) == (2, 1, 0)

    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            d = rng.randrange(1, 9)
            perm = list(range(d))
            rng.shuffle(perm)
            perm = tuple(perm)
            assert parse_permutation(format_permutation(perm), d) == perm

    def test_errors(self):
        with pytest.raises(ParseError) as e:
            parse_permutation("(1 2", 3)
        assert e.value.line == 1 and e.value.column == 1
        with pytest.raises(ParseError):
            parse_permutation("(1 5)", 3)      # out of range
        with pytest.raises(ParseError):
            parse_permutation("(1 2)(2 3)", 3)  # repeated point
        with pytest.raises(ParseError):
            parse_permutation("1 2 3", 3)      # missing parens
        with pytest.raises(ParseError):
            parse_permutation("(x)", 3)        # bad token


class TestComputeDensity:
    def test_s3(self):
        r = compute_density(DensityProblem(3, ("(1 2 3)", "(1 2)")))
        assert r.order == 6
        assert r.delta == Fraction(2, 3)
        assert not r.is_galois

    def test_d4(self):
        r = compute_density(DensityProblem(4, ("(1 2 3 4)", "(1 3)")))
        assert r.order == 8
        assert r.delta == Fraction(3, 8)  # fixed points only for e,(13),(24)
        assert not r.is_galois

    def test_klein_v_regular(self):
        r = compute_density(DensityProblem(4, ("(1 2)(3 4)", "(1 3)(2 4)")))
        assert r.order == 4
        assert r.delta == Fraction(1, 4)
        assert r.is_galois

    def test_c2(self):
        r = compute_density(DensityProblem(2, ("(1 2)",)))
        assert r.delta == Fraction(1, 2)
        assert r.is_galois

    def test_not_transitive(self):
        with pytest.raises(NotTransitive):
            compute_density(DensityProblem(4, ("(1 2)",)))

    @pytest.mark.parametrize("degree", [0, -2])
    def test_degree_below_1_rejected(self, degree):
        # the identity on no points would leave is_transitive no point 0
        with pytest.raises(ValueError, match="degree must be at least 1"):
            compute_density(DensityProblem(degree, ("()",)))

    def test_group_too_large(self):
        # S_10 has order 3628800 > 10^6
        with pytest.raises(GroupTooLarge):
            group_closure([parse_permutation("(1 2 3 4 5 6 7 8 9 10)", 10),
                           parse_permutation("(1 2)", 10)], 10)

    def test_conjugation_invariance(self):
        rng = random.Random(9)
        gens = [parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 3)", 4)]
        base = compute_density(DensityProblem(4, tuple(gens)))
        for _ in range(10):
            s = list(range(4))
            rng.shuffle(s)
            sinv = [0] * 4
            for i, v in enumerate(s):
                sinv[v] = i
            conj = [tuple(s[g[sinv[i]]] for i in range(4)) for g in gens]
            r = compute_density(DensityProblem(4, tuple(conj)))
            assert r.delta == base.delta and r.order == base.order


def _random_transitive_problems(count, max_degree=8, seed=17):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randrange(2, max_degree + 1)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = list(range(d))
            rng.shuffle(p)
            gens.append(tuple(p))
        try:
            r = compute_density(DensityProblem(d, tuple(gens)))
        except NotTransitive:
            continue
        out.append((d, r))
    return out


class TestLemma1Bounds:
    def test_fuzz_corpus(self):
        corpus = _random_transitive_problems(120)
        assert len(corpus) >= 100
        for d, r in corpus:
            assert r.lower_bound <= r.delta <= r.upper_bound
            assert (r.delta == r.lower_bound) == r.is_galois
            assert r.is_galois == (r.order == d)


class TestHeuristic:
    def test_exact_values(self):
        assert heuristic_pointless_probability(Fraction(1, 4), 6) == \
            Fraction(3, 4) ** 6
        assert heuristic_pointless_probability(Fraction(3, 8), 10) == \
            Fraction(5, 8) ** 10
        assert heuristic_pointless_probability(Fraction(1, 2), 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            heuristic_pointless_probability(Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            heuristic_pointless_probability(Fraction(1, 2), -1)


class TestSplitMix64:
    def test_reference_values(self):
        # splitmix64 with seed 0: first outputs of the reference algorithm
        r = SplitMix64(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4

    def test_below_unbiased_range(self):
        r = SplitMix64(42)
        vals = [r.below(7) for _ in range(500)]
        assert set(vals) <= set(range(7))
        assert len(set(vals)) == 7

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 2 ** 63 + 1])
    def test_below_equals_per_word_limit(self, n):
        # the rejection limit taken once per bound gives the values and
        # leaves the state of the limit taken afresh for every word; at
        # 2^63 + 1 about half the words are redrawn
        rng, ref = SplitMix64(n), SplitMix64(n)
        limit = (1 << 64) - ((1 << 64) % n)
        redrawn = 0
        for _ in range(200):
            while True:
                v = ref.next_u64()
                if v < limit:
                    break
                redrawn += 1
            assert rng.below(n) == v % n
            assert rng.state == ref.state
        assert (redrawn > 50) == (n == 2 ** 63 + 1)

    @pytest.mark.parametrize("n", [0, -5])
    def test_below_refuses_a_bound_below_1(self, n):
        # on a fresh stream (no bound taken yet) and after a valid bound;
        # drawing a word at all would loop for ever, so it fails at once
        fresh = SplitMix64(1)
        fresh.next_u64 = lambda: pytest.fail("below() drew for a bound < 1")
        with pytest.raises(ValueError, match="positive bound"):
            fresh.below(n)
        rng = SplitMix64(1)
        rng.below(5)
        with pytest.raises(ValueError, match="positive bound"):
            rng.below(n)


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.40 < lo < 0.41 and 0.59 < hi < 0.60

    def test_edges(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05


def _reference_verdict(F, g):
    """None when y^2 = g(x^2) is not squarefree, else whether it is
    pointless, without the model's rule for an even f: the kernel's
    separability test on the degree-8 f, and N_1 as a plain sum over
    every x of F_q plus the two or no points at infinity."""
    kern = _kernel(F)
    f = [0] * 9
    f[::2] = g
    if not kern.is_separable(f):
        return None
    roots, horner = kern.sqrt_count, kern.horner
    return not (roots(f[-1]) + sum(roots(horner(f, x)) for x in range(F.q)))


def _separability_first_sampler(F, rng):
    """klein4_hyper_odd's draws judged by _reference_verdict: (whether the
    curve is pointless, the number of draws rerolled for an inseparable
    f)."""
    inseparable = 0
    while True:
        g = [rng.below(F.q) for _ in range(5)]
        if g[-1]:
            hit = _reference_verdict(F, g)
            if hit is not None:
                return hit, inseparable
            inseparable += 1


class TestMonteCarlo:
    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_klein4_sampler_stream_pinned(self, q):
        # every sub-seed must give the verdict of, and leave the stream
        # where, the separability test on f followed by a plain count
        # does; equal state pins the same accepted g; criterion 9's fields
        # and seeds
        F = _field_for(q)
        sample = _klein4_hyper_odd(F)
        master = SplitMix64(q)
        inseparable = hits = 0
        for _ in range(500):
            seed = master.next_u64()
            rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
            ref, rerolls = _separability_first_sampler(F, ref_rng)
            hit = sample(rng)
            assert hit is ref, seed
            assert rng.state == ref_rng.state, seed
            inseparable += rerolls
            hits += hit
        assert inseparable > 0 and hits > 0

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_klein4_verdict_equals_constructor_and_count(self, q):
        """The reference verdict refuses what the HyperellipticOdd
        constructor refuses, and its hit is the model's count(1) == 0:
        every g with g_4 != 0 at F_5 and F_7, 4,000 seeded ones at F_9."""
        F = _field_for(q)
        if q < 9:
            draws = itertools.product(*[range(q)] * 4, range(1, q))
        else:
            rng = random.Random(q)
            draws = (tuple(rng.randrange(q) for _ in range(4))
                     + (rng.randrange(1, q),) for _ in range(4000))
        seen = set()
        for g in draws:
            f = [0] * 9
            f[::2] = g
            try:
                verdict = HyperellipticOdd(F, f).count(1) == 0
            except UnsupportedShape:
                verdict = None
            assert verdict == _reference_verdict(F, g), g
            seen.add(verdict)
        assert seen == {None, True, False}

    def test_deterministic(self):
        F5 = FiniteField(5)
        a = montecarlo_pointless_rate("klein4_hyper_odd", F5, 40, seed=1)
        b = montecarlo_pointless_rate("klein4_hyper_odd", F5, 40, seed=1)
        assert a.to_json() == b.to_json()
        assert a.heuristic == pytest.approx((3 / 4) ** 6)

    def test_family_heuristic_pinned(self):
        assert klein4_hyper_odd_heuristic(5) == Fraction(1, 25)
        assert klein4_hyper_odd_heuristic(7) == Fraction(27, 1372)
        assert klein4_hyper_odd_heuristic(9) == Fraction(64, 6561)
        F9 = FiniteField(3, 2, [-1, -1, 1])
        rep = montecarlo_pointless_rate("klein4_hyper_odd", F9, 5, seed=1)
        assert rep.family_heuristic == pytest.approx(64 / 6561)
        assert rep.to_json()["family_heuristic"] == rep.family_heuristic
        other = montecarlo_pointless_rate("fiberproduct", FiniteField(5), 3,
                                          seed=2)
        assert other.family_heuristic is None

    @pytest.mark.parametrize("F", [FiniteField(7), FiniteField(3, 2, [-1, -1, 1])],
                             ids=["F7", "F9"])
    def test_family_heuristic_conditions(self, F):
        """y^2 = g(x^2) is pointless exactly when lc(g), g(0) and g(t) at
        every nonzero square t are nonsquares: the events the family
        heuristic multiplies."""
        from pointless.curves import HyperellipticOdd
        rng = random.Random(F.q)
        squares = {x * x for x in F.elements() if not x.is_zero()}

        def nonsquare(v):
            return not v.is_zero() and not v.is_square()

        seen = set()
        for _ in range(300):
            g = Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(5)])
            f = Poly(F, [g[i // 2] if i % 2 == 0 else F.zero
                         for i in range(9)])
            if g.degree != 4 or not _kernel(F).is_separable(_index_poly(f)):
                continue
            pointless = HyperellipticOdd(F, f).count(1) == 0
            predicted = (nonsquare(g.lc) and nonsquare(g[0])
                         and all(nonsquare(g.eval(t)) for t in squares))
            assert pointless == predicted
            seen.add(pointless)
        assert seen == {True, False}

    def test_rate_in_interval(self):
        F5 = FiniteField(5)
        rep = montecarlo_pointless_rate("fiberproduct", F5, 40, seed=2)
        lo, hi = rep.wilson95
        assert lo <= rep.rate <= hi
        assert 0 <= rep.pointless <= rep.samples

    def test_diagonal_quartic_runs(self):
        F5 = FiniteField(5)
        rep = montecarlo_pointless_rate("diagonal_quartic", F5, 15, seed=3)
        assert rep.samples == 15

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            montecarlo_pointless_rate("nonexistent", FiniteField(5), 1)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            montecarlo_pointless_rate("klein4_hyper_odd", FiniteField(5), -3)
        rep = montecarlo_pointless_rate("klein4_hyper_odd", FiniteField(5), 0)
        assert (rep.samples, rep.pointless, rep.rate) == (0, 0, 0.0)
        assert rep.wilson95 == (0.0, 1.0)

    def test_even_char_rejected(self):
        with pytest.raises(EvenCharacteristic):
            montecarlo_pointless_rate("diagonal_quartic", FiniteField(2), 1)

    @pytest.mark.parametrize("family", ["klein4_hyper_odd",
                                        "diagonal_quartic", "fiberproduct"])
    @pytest.mark.parametrize("q", [4, 8])
    def test_even_char_refused_before_any_sample(self, family, q):
        # the set-up refuses the field: a run of no samples is no report
        # of a heuristic that holds for odd q only
        with pytest.raises(EvenCharacteristic):
            montecarlo_pointless_rate(family, _field_for(q), 0)
