"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Extended-scale criteria (5a-5e and the large search-recovery sizes) are
skipped unless POINTLESS_EXTENDED=1.
"""

import os
import random
import time
import warnings

import pytest

from pointless.curves import FiberProductGenus4, HyperellipticOdd
from pointless.density import (
    DensityProblem,
    compute_density,
    montecarlo_pointless_rate,
)
from pointless.elliptic import EllipticCurve
from pointless.errors import NotTransitive, PointlessError
from pointless.field import FiniteField, Poly, _index_poly, _kernel, embed
from pointless.harness import load_fixtures, verify
from pointless.search import (
    first_find,
    search_double_covers_elliptic,
    search_exhaustive_hyper_genus3,
    search_hyper_genus4_char2,
)
from pointless.zeta import (
    expand_real_weil,
    l_from_counts,
    pointless_q_range,
    predicted_counts,
    zeta_report,
)

from element_reference import serre_bound_holds

EXTENDED = os.environ.get("POINTLESS_EXTENDED") == "1"
extended = pytest.mark.skipif(
    not EXTENDED, reason="extended-scale run; set POINTLESS_EXTENDED=1")

MODULI = {4: [1, 1, 1], 8: [1, 1, 0, 1], 9: [-1, -1, 1], 16: [1, 1, 0, 0, 1],
          25: [2, -1, 1], 27: [1, -1, 0, 1], 32: [1, 0, 1, 0, 0, 1],
          49: [3, -1, 1]}


def field_for(q):
    for p in (2, 3, 5, 7):
        if q % p == 0:
            n, m = 0, q
            while m % p == 0:
                m //= p
                n += 1
            return FiniteField(p) if n == 1 else FiniteField(p, n, MODULI[q])
    return FiniteField(q)


def _separable(f):
    """Whether the Poly f is squarefree, on its field's kernel."""
    return _kernel(f.base).is_separable(_index_poly(f))


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def elliptic_classes(q, target):
    """Representatives (a4, a6) of the y^2 = x^3 + a4 x + a6 isomorphism
    classes over F_q with exactly `target` rational points."""
    F = FiniteField(q)
    used = set()
    reps = []
    for ai in range(q):
        for bi in range(q):
            if (ai, bi) in used:
                continue
            a4, a6 = F.from_index(ai), F.from_index(bi)
            try:
                E = EllipticCurve(F, F.zero, a4, a6)
            except PointlessError:
                continue
            if len(E.points()) != target:
                continue
            orbit = set()
            for ui in range(1, q):
                u = F.from_index(ui)
                orbit.add((F.index(a4 * u ** 4), F.index(a6 * u ** 6)))
            used |= orbit
            reps.append((ai, bi))
    return reps


class TestCriterion1:
    def test_table_reproduction(self, capsys):
        t0 = time.time()
        entries = load_fixtures()
        rep = verify(entries, K=1)
        elapsed = time.time() - t0
        ok = (len(entries) == 65 and rep.failed == 0 and elapsed < 60)
        report(capsys, "criterion 1", ok,
               f"{rep.passed}/{len(entries)} fixtures verified pointless "
               f"with claimed genus in {elapsed:.1f}s")


class TestCriterion2:
    def test_zeta_spot_checks(self, capsys):
        # F_25: y^2 = a(x^8 + 1)
        e25 = next(e for e in load_fixtures() if e.id == "klein4-genus3-q25")
        c25 = e25.curve()
        counts25 = [c25.count(i) for i in (1, 2, 3)]
        z25 = zeta_report(25, 3, counts25)
        # (x - 10)^2 (x - 6) = x^3 - 26x^2 + 220x - 600
        ok25 = (counts25 == [0, 540, 15360]
                and z25.real_weil == [-600, 220, -26, 1] and z25.valid)

        # F_32 quartic: N_1, N_2 by projective-plane scan
        e32 = next(e for e in load_fixtures() if e.id == "quartic-f32-inproof")
        c32 = e32.curve()
        n1, n2 = c32.count(1), c32.count(2)
        # moment rigidity: s1 = 33 and s2 = 363 force zero variance among
        # the three real Weil roots, so h = (x - 11)^3 follows from N1, N2
        s1 = 32 + 1 - n1
        s2 = (32 ** 2 + 1 - n2) + 2 * 32 * 3
        rigid = (s1 == 33 and s2 == 363 and 3 * s2 - s1 ** 2 == 0)
        h = [-1331, 363, -33, 1]                      # (x - 11)^3
        n3 = predicted_counts(expand_real_weil(h, 32, 3), 32, 3)
        z32 = zeta_report(32, 3, [n1, n2, n3])
        ok32 = ((n1, n2) == (0, 854) and rigid
                and z32.real_weil == h and z32.valid)
        report(capsys, "criterion 2", ok25 and ok32,
               f"F_25 counts {tuple(counts25)} h=(x-10)^2(x-6); "
               f"F_32 counts ({n1}, {n2}) h=(x-11)^3")


class TestCriterion3:
    def test_bound_gates(self, capsys):
        got = (pointless_q_range(2, "weil"), pointless_q_range(3, "weil"),
               pointless_q_range(4, "serre"))
        report(capsys, "criterion 3", got == (13, 32, 59),
               f"pointless q ranges (g2 weil, g3 weil, g4 serre) = {got}")


class TestCriterion4:
    def test_4a_f27_double_covers(self, capsys):
        F27 = FiniteField(3, 3, [1, -1, 0, 1])
        a = F27.element("a")
        pairs = 0
        survivors = 0
        candidates = 0
        for a6 in (F27.one, a):
            E = EllipticCurve(F27, F27.element(2), F27.zero, a6)
            r = search_double_covers_elliptic(E, genus_target=3,
                                              mode="census")
            pairs += r.parameters["reps"]
            survivors += len(r.survivors)
            candidates += r.candidates
        ok = (pairs == 6 and survivors == 0 and candidates > 200000)
        report(capsys, "criterion 4a", ok,
               f"F_27: {pairs} (E,Q) pairs, {candidates} candidates, "
               f"{survivors} survivors of tests 1+2")

    def test_4b_f25_double_covers(self, capsys):
        F25 = FiniteField(5, 2, [2, -1, 1])
        notes = []
        ok = True

        # the two 20-point curves: exactly one pointless cover each, with
        # the point counts of y^2 = a(x^8 + 1)
        for a4 in (2, 3):
            E = EllipticCurve(F25, F25.zero, F25.element(a4), F25.zero)
            assert len(E.points()) == 20
            r = search_double_covers_elliptic(E, genus_target=3,
                                              mode="census")
            hits = [s for s in r.survivors if s["pointless"]]
            ok &= (len(hits) == 1 and hits[0]["counts"] == [0, 540, 15360])
            notes.append(f"20pt:{len(hits)}")

        # 17-point curve: zero survivors
        E17 = EllipticCurve(F25, F25.zero, F25.from_index(1),
                            F25.from_index(7))
        assert len(E17.points()) == 17
        r17 = search_double_covers_elliptic(E17, genus_target=3,
                                            mode="census")
        ok &= len(r17.survivors) == 0
        notes.append(f"17pt:{len(r17.survivors)}")

        # 16-point curve: two surviving functions per coset representative,
        # every one with (N1, N2) = (0, 540)
        E16 = EllipticCurve(F25, F25.zero, F25.from_index(0),
                            F25.from_index(7))
        assert len(E16.points()) == 16
        r16 = search_double_covers_elliptic(E16, genus_target=3,
                                            mode="census")
        hits = [s for s in r16.survivors if s["pointless"]]
        by_q = {}
        for s in hits:
            by_q.setdefault(tuple(s["Q"]), []).append(s["counts"])
        ok &= (len(by_q) > 0
               and all(len(v) == 2 for v in by_q.values())
               and all(c[:2] == [0, 540] for v in by_q.values() for c in v))
        notes.append(f"16pt:{[len(v) for v in by_q.values()]} per rep")
        report(capsys, "criterion 4b", ok, ", ".join(notes))


class TestCriterion5Extended:
    @staticmethod
    def _certificate(r):
        # the engine raises unless the join's inseparable passes are N4(q)
        k = r.kill_counts
        return (f"{k['join_passes']} join passes: {len(r.survivors)} "
                f"separable, {k['degenerate']} inseparable = "
                f"N4({r.parameters['q']})")

    @extended
    def test_5a_f29_census_empty(self, capsys):
        r = search_exhaustive_hyper_genus3(FiniteField(29), mode="census")
        report(capsys, "criterion 5a", len(r.survivors) == 0,
               f"F_29 exhaustive census: {len(r.survivors)} survivors; "
               f"{self._certificate(r)}")

    @extended
    def test_5b_f23_census_single_class(self, capsys):
        r = search_exhaustive_hyper_genus3(FiniteField(23), mode="census")
        report(capsys, "criterion 5b", r.dedup_classes == 1,
               f"F_23 exhaustive census: {r.dedup_classes} class(es); "
               f"{self._certificate(r)}")

    @extended
    def test_5c_f53_double_covers(self, capsys):
        reps = elliptic_classes(53, 42)
        assert len(reps) == 4
        F = FiniteField(53)
        bad = 0
        for ai, bi in reps:
            E = EllipticCurve(F, F.zero, F.from_index(ai), F.from_index(bi))
            r = search_double_covers_elliptic(E, genus_target=4,
                                              mode="census")
            bad += sum(1 for s in r.survivors if s["pointless"])
        report(capsys, "criterion 5c", bad == 0,
               f"F_53: 4 classes of 42-point curves, {bad} pointless covers")

    @extended
    def test_5d_f59_double_covers(self, capsys):
        reps = elliptic_classes(59, 45)
        assert len(reps) == 1
        F = FiniteField(59)
        E = EllipticCurve(F, F.zero, F.from_index(reps[0][0]),
                          F.from_index(reps[0][1]))
        r = search_double_covers_elliptic(E, genus_target=4, mode="census")
        bad = sum(1 for s in r.survivors if s["pointless"])
        report(capsys, "criterion 5d", bad == 0,
               f"F_59: unique 45-point curve, {bad} pointless covers")

    @extended
    def test_5e_f32_genus4_census_empty(self, capsys):
        F32 = FiniteField(2, 5, [1, 0, 1, 0, 0, 1])
        r = search_hyper_genus4_char2(F32, mode="census")
        # the engine raises unless the kept conductors' affine orbits
        # cover all N(5) + N(2) N(3) conductors
        report(capsys, "criterion 5e", len(r.survivors) == 0,
               f"F_32 genus-4 hyperelliptic census: {r.candidates} "
               f"conductors, one per affine class, covering "
               f"{r.kill_counts['conductors_covered']} = N(5) + N(2) N(3); "
               f"{len(r.survivors)} survivors")


# search-recovery sizes: the table coverage is split so that CI stays fast;
# the remaining q (< 5 min at q <= 29, < 1 h at q <= 49 per spec budget)
# run under POINTLESS_EXTENDED=1
CI_PLAN = [
    ("klein4_hyper_odd", (3, 5, 7, 9, 11, 13), {"n": 1}),
    ("diagonal_quartic", (5, 7, 9, 11, 13), {}),
    ("quartic_char2", (2, 4, 8, 16), {}),
    ("fiberproduct", (3, 5, 7, 9, 11, 13), {}),
    ("hyper_genus4_char2", (2, 4, 8), {}),
]
EXTENDED_PLAN = [
    ("klein4_hyper_odd", (17, 19, 25), {"n": 1}),
    # the F_23 family is empty for every square n; 5 is the first nonsquare
    ("klein4_hyper_odd", (23,), {"n": 5}),
    ("diagonal_quartic", (17, 19, 23, 29), {}),
    ("quartic_char2", (32,), {}),
    ("fiberproduct", (17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49), {}),
    ("hyper_genus4_char2", (16,), {}),
]


class TestCriterion6:
    def _run_plan(self, plan):
        failures = []
        total = 0
        for family, qs, kw in plan:
            for q in qs:
                total += 1
                r = first_find(field_for(q), family, **kw)
                if len(r.survivors) < 1:
                    failures.append(f"{family}@q={q}")
        return total, failures

    def test_search_recovery_ci(self, capsys):
        total, failures = self._run_plan(CI_PLAN)
        report(capsys, "criterion 6 (CI sizes)", not failures,
               f"first_find succeeded for {total - len(failures)}/{total} "
               f"(family, q) pairs" + (f"; failed: {failures}" if failures
                                       else ""))

    @extended
    def test_search_recovery_extended(self, capsys):
        total, failures = self._run_plan(EXTENDED_PLAN)
        report(capsys, "criterion 6 (extended sizes)", not failures,
               f"first_find succeeded for {total - len(failures)}/{total} "
               f"(family, q) pairs" + (f"; failed: {failures}" if failures
                                       else ""))


class TestCriterion7:
    NAMED = [
        (3, ("(1 2 3)", "(1 2)"), "2/3"),            # S3, natural
        (4, ("(1 2 3 4)", "(1 3)"), "3/8"),          # D4
        (4, ("(1 2)(3 4)", "(1 3)(2 4)"), "1/4"),    # Klein four, regular
        (2, ("(1 2)",), "1/2"),                      # C2
    ]

    def test_density_values_and_bounds(self, capsys):
        from fractions import Fraction
        named_ok = True
        for degree, gens, expected in self.NAMED:
            res = compute_density(DensityProblem(degree, gens))
            named_ok &= res.delta == Fraction(expected)

        rng = random.Random(7)
        cases = 0
        violations = 0
        signatures = set()
        while cases < 120:
            degree = rng.randrange(2, 9)
            gens = []
            for _ in range(rng.randrange(1, 3)):
                perm = list(range(degree))
                rng.shuffle(perm)
                gens.append(tuple(perm))
            try:
                res = compute_density(DensityProblem(degree, tuple(gens)))
            except NotTransitive:
                continue
            cases += 1
            signatures.add((degree, res.order, res.delta))
            if not res.lower_bound <= res.delta <= res.upper_bound:
                violations += 1
        report(capsys, "criterion 7", named_ok and violations == 0,
               f"named deltas 2/3, 3/8, 1/4, 1/2 exact; {cases} transitive "
               f"fuzz groups ({len(signatures)} distinct), "
               f"{violations} bound violations")


class TestCriterion8:
    def test_property_suites(self, capsys):
        rng = random.Random(88)
        serre_checks = []
        n = 1000

        # twist duality on the degree-8 model
        fields = [FiniteField(q) for q in (3, 5, 7)]
        for i in range(n):
            F = fields[i % 3]
            while True:
                f = Poly(F, [F.from_index(rng.randrange(F.q))
                             for _ in range(8)]
                         + [F.from_index(rng.randrange(1, F.q))])
                if _separable(f):
                    break
            nu = F.from_index(_kernel(F).nonsquare)
            c1 = HyperellipticOdd(F, f).count(1)
            c2 = HyperellipticOdd(F, f * Poly(F, [nu])).count(1)
            assert c1 + c2 == 2 * (F.q + 1)
            serre_checks.append((F.q, 3, c1))

        # fiber-product count identity for i in {1, 2}
        fields = [FiniteField(q) for q in (3, 5)]
        done = 0
        while done < n:
            F = fields[done % 2]
            f = Poly(F, [F.from_index(rng.randrange(F.q))
                         for _ in range(3)] + [F.one])
            g = Poly(F, [F.from_index(rng.randrange(F.q))
                         for _ in range(3)] + [F.one])
            if not (_separable(f) and _separable(g)):
                continue
            if f.gcd(g).degree != 0:
                continue
            C = FiberProductGenus4(F, f, g)
            for i in (1, 2):
                lhs = C.count(i)
                rhs = (HyperellipticOdd(F, f).count(i)
                       + HyperellipticOdd(F, g).count(i)
                       + HyperellipticOdd(F, f * g).count(i)
                       - 2 * (F.q ** i + 1))
                assert lhs == rhs
            serre_checks.append((F.q, 4, C.count(1)))
            done += 1

        # Newton / functional-equation roundtrip
        F3 = FiniteField(3)
        for _ in range(n):
            while True:
                deg = rng.choice((7, 8))
                f = Poly(F3, [F3.from_index(rng.randrange(3))
                              for _ in range(deg)]
                         + [F3.from_index(rng.randrange(1, 3))])
                if _separable(f):
                    break
            C = HyperellipticOdd(F3, f)
            counts = [C.count(i) for i in (1, 2, 3)]
            L = l_from_counts(3, 3, counts)
            for i in range(7):
                assert L[6 - i] == 3 ** (3 - i) * L[i]
            for i in (1, 2, 3):
                assert predicted_counts(L, 3, i) == counts[i - 1]
            assert predicted_counts(L, 3, 4) == C.count(4)
            serre_checks.append((3, 3, counts[0]))

        # embedding homomorphism checks
        pool = [(FiniteField(5), 2), (FiniteField(5), 3),
                (FiniteField(3, 2, [-1, -1, 1]), 2),
                (FiniteField(2, 2, [1, 1, 1]), 3)]
        embeds = [(F, embed(F, i)) for F, i in pool]
        for j in range(n):
            F, (big, phi) = embeds[j % len(embeds)]
            x = F.from_index(rng.randrange(F.q))
            y = F.from_index(rng.randrange(F.q))
            assert phi(x + y) == phi(x) + phi(y)
            assert phi(x * y) == phi(x) * phi(y)
            assert phi(F.one) == big.one
        assert all(serre_bound_holds(q, g, n1) for q, g, n1 in serre_checks)
        report(capsys, "criterion 8", True,
               f"4 property suites x {n} exact cases; Serre bound held for "
               f"all {len(serre_checks)} computed point counts")


def klein4_exact_rate(F):
    """(pointless, total) over every g of degree 4 with g(x^2) separable:
    the family that montecarlo samples uniformly, as it rerolls every
    other g.  The curve y^2 = g(x^2) is pointless exactly when lc(g) is a
    nonsquare (a square gives two points at infinity) and g(x^2) is a
    nonsquare at every x."""
    kern = _kernel(F)
    q = F.q
    pointless = total = 0
    f = [0] * 9
    for code in range(q ** 5):
        f[::2] = [code // q ** i % q for i in range(5)]
        if not f[8] or not kern.is_separable(f):
            continue
        total += 1
        if not kern.sqrt_count(f[8]) and not any(
                kern.sqrt_count(kern.horner(f, x)) for x in range(q)):
            pointless += 1
    return pointless, total


class TestCriterion9:
    @pytest.fixture(scope="class")
    def runs(self):
        return {q: montecarlo_pointless_rate("klein4_hyper_odd", field_for(q),
                                             100000, seed=q)
                for q in (5, 7, 9)}

    def test_montecarlo_soft(self, capsys, runs):
        """The factor-4 band is centred on the sampled family's own rate;
        the paper's generic (3/4)^(q+1) is printed beside it."""
        lines = []
        for q, r in runs.items():
            fam = r.family_heuristic
            within = fam / 4 <= r.rate <= fam * 4 and r.rate > 0
            if not within:
                warnings.warn(
                    f"q={q}: observed pointless rate {r.rate:.4f} outside "
                    f"factor-4 band of family heuristic {fam:.4f}")
            lines.append(f"q={q} rate {r.rate:.4f} vs family heuristic "
                         f"{fam:.4f}{'' if within else ' (warned)'}"
                         f", heuristic (3/4)^(q+1) {r.heuristic:.4f}")
        report(capsys, "criterion 9 (soft)", True, "; ".join(lines))

    def test_hits_pinned(self, runs):
        """The seeded streams and their rerolls, pinned: the pointless
        hits of the 100k samples at seeds 5, 7 and 9."""
        assert ({q: r.pointless for q, r in runs.items()}
                == {5: 3312, 7: 1483, 9: 692})

    def test_exact_family_rate_in_wilson_interval(self, capsys, runs):
        """Hard check: the exact pointless rate of the sampled family, by
        enumeration of every g, lies in each seeded run's Wilson interval."""
        exact = {q: klein4_exact_rate(field_for(q)) for q in runs}
        assert exact == {5: (54, 1664), 7: (162, 10800), 9: (300, 41984)}
        lines = []
        for q, r in runs.items():
            hits, total = exact[q]
            lo, hi = r.wilson95
            assert lo <= hits / total <= hi, (q, hits / total, r.wilson95)
            lines.append(f"q={q} exact {hits}/{total} = {hits / total:.4f} "
                         f"in [{lo:.4f}, {hi:.4f}]")
        report(capsys, "criterion 9 (exact)", True, "; ".join(lines))
