"""Search engines: fixture recovery, filter-vs-oracle agreement, budgets,
checkpoints, and determinism."""

import hashlib
import json
import os
import random
from itertools import product

import pytest

from pointless import search
from pointless.curves import (
    ArtinSchreierCurve,
    FiberProductGenus4,
    HyperellipticOdd,
    PlaneQuartic,
)
from pointless.elliptic import INF, EllipticCurve, cover_count, rr_basis
from pointless.errors import (
    BudgetExceeded,
    EvenCharacteristic,
    FilterDisagreement,
    OddCharacteristic,
    UnknownFamily,
    UnsupportedShape,
)
from pointless.field import FiniteField, Poly, RationalFunction, _kernel
from pointless.search import (
    SearchConfig,
    census,
    first_find,
    run_search,
    search_diagonal_quartic,
    search_double_covers_elliptic,
    search_exhaustive_hyper_genus3,
    search_fiberproduct,
    search_hyper_genus4_char2,
    search_klein4_hyper_even,
    search_klein4_hyper_odd,
    search_quartic_char2,
    _diagonal_has_point,
)
from pointless.zeta import zeta_report

from element_reference import fn_ab, fn_value

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F7 = FiniteField(7)
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F9 = FiniteField(3, 2, [-1, -1, 1])
F11 = FiniteField(11)
F13 = FiniteField(13)
F27 = FiniteField(3, 3, [1, -1, 0, 1])


def _naive_join(F, alphabet, d, weights, consts, target):
    """The codes that _linear_join should yield, one FieldElement sum per
    form and code."""
    size = len(alphabet)
    out = []
    for code in range(size ** d):
        lam = [F.from_index(alphabet[code // size ** i % size])
               for i in range(d)]
        for row, c in zip(weights, consts):
            v = F.from_index(c)
            for w, x in zip(row, lam):
                v = v + F.from_index(w) * x
            if not target[F.index(v)]:
                break
        else:
            out.append(code)
    return out


class TestLinearJoin:
    @pytest.mark.parametrize("F", [F5, F7, F9, F13, F27],
                             ids=["F5", "F7", "F9", "F13", "F27"])
    def test_agrees_with_naive_evaluation(self, F):
        rng = random.Random(F.q)
        K = _kernel(F)
        for d in range(5):
            # alphabets up to the whole field, at most about 1000 codes
            size = F.q
            while size ** d > 1000:
                size -= 1
            # an empty, a full and three random targets
            for density in (0.0, 1.0, 0.6, 0.8, 0.9):
                alphabet = sorted(rng.sample(range(F.q), size))
                target = bytearray(rng.random() < density
                                   for _ in range(F.q))
                m = rng.randrange(1, 6)
                weights = [[rng.randrange(F.q) for _ in range(d)]
                           for _ in range(m)]
                consts = [rng.randrange(F.q) for _ in range(m)]
                got = list(search._linear_join(K, alphabet, d, weights,
                                               consts, target))
                want = _naive_join(F, alphabet, d, weights, consts, target)
                assert got == want
                start = rng.randrange(size ** d + 1)
                assert list(search._linear_join(
                    K, alphabet, d, weights, consts, target, start)) == \
                    [code for code in want if code >= start]
                if density == 0.0:
                    assert got == []
                if density == 1.0:
                    assert got == list(range(size ** d))

    def test_no_forms_pass_every_code(self):
        K = _kernel(F7)
        got = list(search._linear_join(K, range(7), 3, [], [], bytearray(7)))
        assert got == list(range(343))


def _klein4_reference(F, n):
    """(code, f, model) for every census survivor of klein4_hyper_odd, by
    direct evaluation: f = c0 + c1 u + c2 u^2 + c3 u^3 + nu u^4 is a
    nonsquare at every u = x + n/x, separable and coprime to u^2 - 4n."""
    nu = F.canonical_nonsquare
    us = {x + n / x for x in F.elements() if not x.is_zero()}
    disc = Poly(F, [-(F.element(4) * n), F.zero, F.one])
    x = Poly.x(F)
    out = []
    for code in range(F.q ** 4):
        f = Poly(F, [F.from_index(code // F.q ** i % F.q) for i in range(4)]
                 + [nu])
        if any(f.eval(u).is_square() for u in us):
            continue
        if not f.is_separable() or f.gcd(disc).degree > 0:
            continue
        # x^4 f(x + n/x) = sum_i c_i x^(4 - i) (x^2 + n)^i
        model = Poly(F, [])
        for i, c in enumerate(f.coeffs):
            model = model + (x * x + Poly.constant(F, n)) ** i \
                * x ** (4 - i) * c
        out.append((code, f, model))
    return out


class TestKlein4Odd:
    def test_f5_census_recovers_table_model(self):
        r = search_klein4_hyper_odd(F5, 1, mode="census")
        models = [s["model"] for s in r.survivors]
        assert [2, 0, 0, 0, 3, 0, 0, 0, 2] in models  # y^2 = 2x^8 + 3x^4 + 2
        assert all(z["counts"][0] == 0 and z["valid"] for z in r.zeta)

    def test_f3_first_find(self):
        r = search_klein4_hyper_odd(F3, 1, mode="first_find")
        assert len(r.survivors) == 1
        model = Poly(F3, [F3.from_index(i) for i in r.survivors[0]["model"]])
        assert HyperellipticOdd(F3, model).count(1) == 0

    def test_even_char_rejected(self):
        with pytest.raises(EvenCharacteristic):
            search_klein4_hyper_odd(F2, 1)

    @pytest.mark.parametrize("F", [F3, F5, F7, F9, F11, F13],
                             ids=["F3", "F5", "F7", "F9", "F11", "F13"])
    @pytest.mark.parametrize("square_n", [True, False], ids=["n=1", "n=nu"])
    def test_reports_equal_naive_filter_reference(self, F, square_n):
        n = F.one if square_n else F.canonical_nonsquare
        found = _klein4_reference(F, n)
        survivors, zetas = [], []
        for _, f, model in found:
            curve = HyperellipticOdd(F, model)
            counts = [curve.count(i) for i in (1, 2, 3)]
            assert counts[0] == 0
            survivors.append({"f": [F.index(c) for c in f.coeffs],
                              "model": [F.index(c) for c in model.coeffs]})
            zetas.append(zeta_report(F.q, 3, counts).to_json())
        for mode in ("census", "first_find"):
            got = search_klein4_hyper_odd(F, n, mode=mode).to_json()
            got.pop("wall_time")
            # first_find stops after the first survivor's code
            stops = mode == "first_find" and found
            candidates = found[0][0] + 1 if stops else F.q ** 4
            keep = 1 if stops else len(found)
            assert got == {
                "family": "klein4_hyper_odd",
                "parameters": {"q": F.q, "n": F.index(n), "mode": mode},
                "candidates": candidates,
                "survivors": survivors[:keep],
                "dedup_classes": len({tuple(z["counts"])
                                      for z in zetas[:keep]}),
                "zeta": zetas[:keep],
                "fingerprint": search._fingerprint(
                    "klein4_hyper_odd", F.q, F.index(n),
                    "odometer-c0..c3-lc-nu"),
                "kill_counts": {},
            }

    def test_budget_boundary(self):
        r = search_klein4_hyper_odd(F13, 1, mode="first_find")
        again = search_klein4_hyper_odd(F13, 1, mode="first_find",
                                        budget=r.candidates)
        assert again.survivors == r.survivors
        with pytest.raises(BudgetExceeded):
            search_klein4_hyper_odd(F13, 1, mode="first_find",
                                    budget=r.candidates - 1)

    def test_census_budget_covers_every_candidate(self):
        search_klein4_hyper_odd(F5, 1, mode="census", budget=625)
        with pytest.raises(BudgetExceeded):
            search_klein4_hyper_odd(F5, 1, mode="census", budget=624)

    def test_f23_pointless_only_for_nonsquare_n(self):
        # every square n has an empty census over F_23, every nonsquare n
        # 18 pointless models; 5 is the canonical nonsquare
        F23 = FiniteField(23)
        r = census(F23, "klein4_hyper_odd", n=1)
        assert (r.candidates, len(r.survivors)) == (279841, 0)
        r = census(F23, "klein4_hyper_odd", n=5)
        assert len(r.survivors) == 18
        for s in r.survivors:
            model = Poly(F23, [F23.from_index(i) for i in s["model"]])
            assert HyperellipticOdd(F23, model).count(1) == 0

    def test_filter_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(HyperellipticOdd, "count", lambda self, i=1: 1)
        with pytest.raises(FilterDisagreement):
            search_klein4_hyper_odd(F5, 1, mode="census")

    def test_deterministic(self):
        a = search_klein4_hyper_odd(F5, 1, mode="census").to_json()
        b = search_klein4_hyper_odd(F5, 1, mode="census").to_json()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b


class TestKlein4Even:
    def test_f2_census_matches_table(self):
        r = search_klein4_hyper_even(F2, mode="census")
        hits = [s for s in r.survivors
                if s["f_num"] == [1, 0, 1, 0, 1]
                and s["f_den"] == [1, 1, 1, 1, 1]]
        # y^2 + y = (x^4 + x^2 + 1)/(x^4 + x^3 + x^2 + x + 1)
        assert len(hits) == 1

    def test_odd_char_rejected(self):
        with pytest.raises(OddCharacteristic):
            search_klein4_hyper_even(F3)


class TestDiagonalQuartic:
    def test_f5_first_find(self):
        r = search_diagonal_quartic(F5, mode="first_find")
        assert r.survivors[0]["coeffs"] == [1, 1, 1, 0, 0, 0]
        assert r.zeta[0]["counts"][0] == 0

    def test_fast_path_agrees_with_plane_quartic(self):
        rng = random.Random(5)
        for F in (F5, F7):
            kern = _kernel(F)
            nonzero = range(1, F.q)
            for _ in range(25):
                b, c = rng.choice(nonzero), rng.choice(nonzero)
                d, e, f = (rng.randrange(F.q) for _ in range(3))
                v = [F.from_index(i) for i in (b, c, d, e, f)]
                C = PlaneQuartic(F, {(4, 0, 0): F.one, (0, 4, 0): v[0],
                                     (0, 0, 4): v[1], (2, 2, 0): v[2],
                                     (2, 0, 2): v[3], (0, 2, 2): v[4]})
                assert _diagonal_has_point(kern, b, c, d, e, f) == \
                    (C.count(1) > 0)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            search_diagonal_quartic(F13, mode="census", budget=50)


class TestQuarticChar2:
    def test_f2_census(self):
        r = search_quartic_char2(F2, mode="census")
        assert {"beta": 1, "gamma": 1} in r.survivors

    def test_f4_census_contains_table_row(self):
        r = search_quartic_char2(F4, mode="census")
        # (beta, gamma) = (a, a^2) with a^2 + a + 1 = 0
        a = F4.element("a")
        assert {"beta": F4.index(a), "gamma": F4.index(a * a)} in r.survivors

    @pytest.mark.parametrize("F", [F2, F4, F8, FiniteField(2, 4, [1, 1, 0, 0, 1])],
                             ids=["F2", "F4", "F8", "F16"])
    def test_family_equals_the_expanded_product(self, F):
        for beta, gamma in product(F.elements(), repeat=2):
            got = search._char2_family_quartic(F, beta, gamma)
            assert got.coeffs == _char2_family_product(F, beta, gamma).coeffs


def _char2_family_product(F, beta, gamma):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4 by
    multiplying out the dicts of the two factors."""
    A = {(2, 0, 0): F.one, (1, 0, 1): F.one}        # x^2 + xz
    B = {(0, 2, 0): F.one, (0, 1, 1): F.one}        # y^2 + yz
    coeffs = {}

    def mul(u, v):
        out = {}
        for mu, cu in u.items():
            for mv, cv in v.items():
                m = tuple(a + b for a, b in zip(mu, mv))
                out[m] = out.get(m, F.zero) + cu * cv
        return out

    def add_into(dst, src, scale):
        for m, c in src.items():
            dst[m] = dst.get(m, F.zero) + c * scale

    add_into(coeffs, mul(A, A), F.one)
    add_into(coeffs, mul(A, B), beta)
    add_into(coeffs, mul(B, B), F.one)
    add_into(coeffs, {(0, 0, 4): F.one}, gamma)
    return PlaneQuartic(F, {m: c for m, c in coeffs.items() if not c.is_zero()})


class TestFiberProduct:
    def test_f3_census_contains_table_pair(self):
        r = search_fiberproduct(F3, mode="census")
        pairs = [(s["f"], s["g"]) for s in r.survivors]
        # (x^3 - x - 1, -x^3 + x - 1)
        assert ([2, 2, 0, 1], [2, 1, 0, 2]) in pairs

    def test_f7_first_find_validates(self):
        r = search_fiberproduct(F7, mode="first_find")
        assert len(r.survivors) >= 1
        assert all(z["counts"][0] == 0 for z in r.zeta)

    @pytest.mark.parametrize("F, sample", [(F3, None), (F5, 2000)],
                             ids=["F3", "F5"])
    def test_survivors_are_the_pointless_models(self, F, sample):
        # every (f, g) over F_3, a seeded sample over F_5: a pair survives
        # the census exactly when FiberProductGenus4 builds it and it has
        # no rational point
        survivors = {(tuple(s["f"]), tuple(s["g"]))
                     for s in search_fiberproduct(F, mode="census").survivors}
        nu = F.index(F.canonical_nonsquare)
        cubics = list(product(range(F.q), repeat=3))
        pairs = [(f + (1,), g + (nu,)) for f in cubics for g in cubics]
        if sample:
            pairs = random.Random(11).sample(pairs, sample)
        pointless = 0
        for f, g in pairs:
            try:
                C = FiberProductGenus4(F, Poly(F, [F.from_index(i) for i in f]),
                                       Poly(F, [F.from_index(i) for i in g]))
                expected = C.count(1) == 0
            except UnsupportedShape:
                expected = False
            assert ((f, g) in survivors) == expected, (f, g)
            pointless += expected
        assert pointless > 0


class TestExhaustiveHyperGenus3:
    def test_f9_first_find(self):
        r = search_exhaustive_hyper_genus3(F9, mode="first_find")
        f = Poly(F9, [F9.from_index(i) for i in r.survivors[0]["f"]])
        curve = HyperellipticOdd(F9, f)
        assert curve.genus == 3 and curve.count(1) == 0

    def test_small_field_rejected(self):
        with pytest.raises(ValueError):
            search_exhaustive_hyper_genus3(F5)

    def test_budget_deterministic(self):
        with pytest.raises(BudgetExceeded):
            search_exhaustive_hyper_genus3(F13, mode="census", budget=500)

    def test_checkpoint_resume(self, tmp_path):
        cp = str(tmp_path / "ck.json")
        full = search_exhaustive_hyper_genus3(F9, mode="first_find")
        # seed a mid-run checkpoint and resume: the engine must pick up the
        # stored cursor instead of restarting
        with open(cp, "w") as fh:
            json.dump({"next": 1, "survivors": [], "candidates": 1}, fh)
        resumed = search_exhaustive_hyper_genus3(F9, mode="first_find",
                                                 checkpoint=cp)
        assert resumed.survivors[-1] == full.survivors[-1]
        state = json.load(open(cp))
        assert state["candidates"] == resumed.candidates


    def test_checkpoint_holds_the_unchecked_candidate(self, tmp_path,
                                                      monkeypatch):
        # candidate 3 is the first survivor over F_9; the checkpoint written
        # as it is reached must leave it to the resumed run
        full = search_exhaustive_hyper_genus3(F9, mode="first_find")
        assert full.candidates == 3
        monkeypatch.setattr(search, "_CENSUS_CHECKPOINT_EVERY", 3)
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            search_exhaustive_hyper_genus3(F9, mode="census", budget=3,
                                           checkpoint=cp)
        state = json.load(open(cp))
        assert (state["next"], state["candidates"]) == (2, 2)
        resumed = search_exhaustive_hyper_genus3(F9, mode="first_find",
                                                 checkpoint=cp)
        expected, got = full.to_json(), resumed.to_json()
        expected.pop("wall_time")
        got.pop("wall_time")
        assert got == expected


def _fe_pgl2_key(F, f):
    """The PGL2 canonical key as a FieldElement computation: every
    normalised (a, b, c, d) from a q^4 scan, g = (cx+d)^8 f((ax+b)/(cx+d))
    by Poly products, and the minimal index tuple over the s^2 g.  The
    reference the index-kernel key must equal.  The powers of ax + b and
    cx + d are built one product at a time, 7 products each."""
    elems = list(F.elements())
    squares = {s * s for s in elems if not s.is_zero()}
    one = Poly(F, [F.one])
    best = None
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    if (a * d - b * c).is_zero():
                        continue
                    lead = next(v for v in (a, b, c, d) if not v.is_zero())
                    if lead != F.one:
                        continue
                    num, den = Poly(F, [b, a]), Poly(F, [d, c])
                    num_pows, den_pows = [one, num], [one, den]
                    for _ in range(7):
                        num_pows.append(num_pows[-1] * num)
                        den_pows.append(den_pows[-1] * den)
                    g = Poly(F, [])
                    for i, coef in enumerate(f.coeffs):
                        g = g + num_pows[i] * den_pows[8 - i] * coef
                    if g.degree != 8:
                        continue
                    for s2 in squares:
                        key = tuple(F.index(v * s2) for v in g.coeffs)
                        if best is None or key < best:
                            best = key
    return best


def _random_octic(F, rng):
    return [rng.randrange(F.q) for _ in range(8)] + [rng.randrange(1, F.q)]


class TestExhaustiveKernel:
    """The exhaustive genus-3 engine on the index kernel: PGL2 keys, one
    orbit walk per class, the node-value join and its checkpoints."""

    @pytest.mark.parametrize("F,n_random", [(F9, 3), (F11, 1), (F13, 1)],
                             ids=["F9", "F11", "F13"])
    def test_key_equals_field_element_key(self, F, n_random):
        rng = random.Random(F.q)
        kern = _kernel(F)
        nu = F.index(F.canonical_nonsquare)
        models = [_random_octic(F, rng) for _ in range(n_random)]
        models.append(first_find(F, "exhaustive_hyper_genus3")
                      .survivors[0]["f"])
        for f in models:
            fe = Poly(F, [F.from_index(i) for i in f])
            assert search._pgl2_canonical_key(kern, nu, f) == \
                _fe_pgl2_key(F, fe), f

    @pytest.mark.parametrize("F", [F9, F11], ids=["F9", "F11"])
    def test_every_orbit_member_has_the_key(self, F):
        rng = random.Random(7 * F.q)
        kern = _kernel(F)
        nu = F.index(F.canonical_nonsquare)
        f = first_find(F, "exhaustive_hyper_genus3").survivors[0]["f"]
        key = search._pgl2_canonical_key(kern, nu, f)
        orbit = list(search._pgl2_orbit(kern, f))
        assert len(orbit) == F.q ** 3 - F.q   # pointless: no root to move
        members = rng.sample(orbit, 4)
        for g in members:
            assert search._pgl2_canonical_key(kern, nu, g) == key
        keys, classes = search._pgl2_classes(
            kern, nu, members + [_random_octic(F, rng)] + [f])
        assert keys[:4] == [key] * 4 and keys[-1] == key
        assert classes == (2 if keys[4] != key else 1)

    @pytest.mark.parametrize("F", [F9, F11], ids=["F9", "F11"])
    def test_join_equals_naive_nonsquare_filter(self, F):
        nonsquare, basis, weights = search._node_value_forms(F)
        ns = [a for a in range(F.q) if nonsquare[a]]
        passes = set(search._linear_join(_kernel(F), ns, 9, weights,
                                         [0] * len(weights), nonsquare))
        rng = random.Random(F.q)
        sample = rng.sample(sorted(passes), 100)
        sample += rng.sample(range(len(ns) ** 9), 200)
        nodes = [F.from_index(i) for i in range(9)]
        for code in sample:
            values = [F.from_index(ns[d]) for d in search._digits(
                code, len(ns), 9)]
            f = Poly.interpolate(F, nodes, values)
            naive = all(not v.is_zero() and not v.is_square()
                        for v in [f[8]] + [f.eval(x) for x in F.elements()])
            assert (code in passes) == naive, code
            if naive:
                rebuilt = [0] * 9
                for d, L in zip(search._digits(code, len(ns), 9), basis):
                    rebuilt = [F.index(F.from_index(c) + F.from_index(ns[d])
                                       * F.from_index(w))
                               for c, w in zip(rebuilt, L)]
                assert rebuilt == [F.index(c) for c in f.coeffs]

    # the F_9 checkpoints of a census stopped by budgets 20 and 50 with a
    # checkpoint every 7 candidates, as the candidate-by-candidate engine
    # wrote them: budget -> (next, candidates, number of survivors), then
    # the survivors' f and point counts
    F9_CHECKPOINTS = {
        20: (13, 13, 7),
        50: (48, 48, 24),
    }
    F9_SURVIVORS = [
        [6, 0, 0, 0, 0, 0, 0, 0, 6], [6, 1, 1, 1, 1, 1, 1, 1, 7],
        [7, 1, 1, 1, 1, 1, 1, 1, 6], [3, 6, 6, 6, 6, 6, 6, 6, 6],
        [5, 6, 6, 6, 6, 6, 6, 6, 7], [6, 6, 6, 6, 6, 6, 6, 6, 3],
        [7, 6, 6, 6, 6, 6, 6, 6, 5], [5, 8, 8, 8, 8, 8, 8, 8, 6],
        [6, 8, 8, 8, 8, 8, 8, 8, 5], [6, 2, 1, 2, 1, 2, 1, 2, 7],
        [7, 2, 1, 2, 1, 2, 1, 2, 6], [3, 8, 7, 8, 7, 8, 7, 8, 7],
        [7, 8, 7, 8, 7, 8, 7, 8, 3], [3, 7, 6, 7, 6, 7, 6, 7, 6],
        [6, 7, 6, 7, 6, 7, 6, 7, 3], [3, 3, 6, 3, 6, 3, 6, 3, 6],
        [5, 3, 6, 3, 6, 3, 6, 3, 7], [6, 3, 6, 3, 6, 3, 6, 3, 3],
        [7, 3, 6, 3, 6, 3, 6, 3, 5], [3, 4, 7, 4, 7, 4, 7, 4, 7],
        [7, 4, 7, 4, 7, 4, 7, 4, 3], [3, 0, 3, 0, 3, 0, 3, 0, 3],
        [3, 2, 5, 2, 5, 2, 5, 2, 5], [5, 2, 5, 2, 5, 2, 5, 2, 3],
    ]
    F9_COUNTS = [[0, 92, 768] if i in (0, 3, 5, 15, 17, 21) else [0, 84, 732]
                 for i in range(24)]

    @pytest.mark.parametrize("budget", [20, 50])
    def test_f9_checkpoint_state(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(search, "_CENSUS_CHECKPOINT_EVERY", 7)
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            search_exhaustive_hyper_genus3(F9, mode="census", budget=budget,
                                           checkpoint=cp)
        nxt, cands, kept = self.F9_CHECKPOINTS[budget]
        assert json.load(open(cp)) == {
            "next": nxt, "candidates": cands,
            "survivors": [{"f": f} for f in self.F9_SURVIVORS[:kept]],
            "zetas": [zeta_report(9, 3, c).to_json()
                      for c in self.F9_COUNTS[:kept]]}

    @pytest.mark.parametrize("every,budget",
                             [(7, b) for b in range(7, 58, 7)] + [(29, 58)])
    def test_f13_first_find_resumes_from_census_checkpoints(
            self, tmp_path, monkeypatch, every, budget):
        full = search_exhaustive_hyper_genus3(F13, mode="first_find")
        assert full.candidates == 58
        monkeypatch.setattr(search, "_CENSUS_CHECKPOINT_EVERY", every)
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            search_exhaustive_hyper_genus3(F13, mode="census", budget=budget,
                                           checkpoint=cp)
        assert json.load(open(cp))["next"] == budget - budget % every - 1
        resumed = search_exhaustive_hyper_genus3(F13, mode="first_find",
                                                 checkpoint=cp)
        expected, got = full.to_json(), resumed.to_json()
        expected.pop("wall_time")
        got.pop("wall_time")
        assert got == expected


class TestDoubleCovers:
    def test_coset_of_o_alone_is_unsupported(self):
        # E(F_7) = (Z/3)^2 on y^2 = x^3 + 2, so 3E(F_7) = {O} and the coset
        # {O} has no affine point for the double zero
        E = EllipticCurve(F7, 0, 0, 2)
        assert E.group_structure() == (3, 3)
        with pytest.raises(UnsupportedShape, match=r"coset \{O\}"):
            search_double_covers_elliptic(E, genus_target=4)

    def test_f5_census_runs(self):
        E = EllipticCurve(F5, 0, 1, 1)
        r = search_double_covers_elliptic(E, genus_target=3, mode="census")
        assert r.candidates > 0
        assert set(r.kill_counts) == {"test1", "test2"}
        assert r.kill_counts["test1"] + r.kill_counts["test2"] <= r.candidates
        for s in r.survivors:
            assert s["pointless"] == (s["counts"][0] == 0)

    def test_resume_after_a_rep_equals_uninterrupted(self, tmp_path):
        # y^2 = x^3 + 1 over F_5: two coset reps of 312 candidates each
        E = EllipticCurve(F5, 0, 0, 1)
        full = search_double_covers_elliptic(E, mode="census").to_json()
        assert (full["candidates"], len(full["survivors"])) == (624, 5)
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            # stops in rep 1, after the checkpoint of rep 0
            search_double_covers_elliptic(E, mode="census", budget=313,
                                          checkpoint=cp)
        assert json.load(open(cp))["rep"] == 1
        resumed = search_double_covers_elliptic(E, mode="census",
                                                checkpoint=cp).to_json()
        full.pop("wall_time")
        resumed.pop("wall_time")
        assert resumed == full

    @pytest.mark.parametrize("F, curve, candidates, test1, test2, found", [
        (F5, (0, 1, 1), 312, 303, 9, 0),
        (F5, (0, 0, 1), 624, 544, 75, 5),
        (F7, (0, 1, 3), 1600, 1430, 136, 34),
    ], ids=["F5:x3+x+1", "F5:x3+1", "F7:x3+x+3"])
    def test_counts_as_recorded(self, F, curve, candidates, test1, test2,
                                found):
        # genus-3 census figures recorded with a per-candidate test 1
        # (one field evaluation per point and candidate)
        r = search_double_covers_elliptic(EllipticCurve(F, *curve),
                                          genus_target=3, mode="census")
        assert r.candidates == candidates
        assert r.kill_counts == {"test1": test1, "test2": test2}
        assert len(r.survivors) == found

    @pytest.mark.parametrize("F, curve, k, lead", [
        (F5, (0, 1, 1), 6, 0), (F7, (0, 1, 3), 6, 0), (F5, (0, 1, 1), 8, 2),
    ], ids=["F5:k6", "F7:k6", "F5:k8"])
    def test_test1_rejects_only_covers_with_points(self, F, curve, k, lead):
        # one (lead, lead_val) block of test 1, built as the engine builds
        # it: the join yields exactly the codes whose f is zero or a
        # nonsquare at every rational point, and every other code's cover
        # z^2 = f has a rational point
        E = EllipticCurve(F, *curve)
        basis = rr_basis(k)
        Q = E.quotient_reps(2 if k == 6 else 3, fallback=True)[0]
        kernel = search._double_zero_kernel(E, basis, Q)
        kern = _kernel(F)
        pts = [P for P in E.points() if P is not INF]
        B_at = [[F.index(fn_value(*fn_ab(vec, basis, F), P)) for vec in kernel]
                for P in pts]
        lead_val = F.index(F.canonical_nonsquare)
        free = len(kernel) - lead - 1
        not_square = bytearray(kern.sqrt_count(a) != 2 for a in range(F.q))
        passes = set(search._linear_join(
            kern, range(F.q), free, [row[lead + 1:] for row in B_at],
            [kern.mul(lead_val, row[lead]) for row in B_at], not_square))
        rejected = 0
        for code in range(F.q ** free):
            lam = [F.zero] * lead + [F.from_index(lead_val)] + [
                F.from_index(code // F.q ** i % F.q) for i in range(free)]
            coeffs = [sum((l * vec[j] for l, vec in zip(lam, kernel)), F.zero)
                      for j in range(len(basis))]
            A, B = fn_ab(coeffs, basis, F)
            values = [fn_value(A, B, P) for P in pts]
            naive = all(v.is_zero() or not v.is_square() for v in values)
            assert (code in passes) == naive, code
            if not naive:
                rejected += 1
                assert cover_count(E, coeffs, basis, 1) > 0, code
        assert rejected > 0

    def test_budget_boundary(self):
        E = EllipticCurve(F5, 0, 1, 1)
        search_double_covers_elliptic(E, mode="census", budget=312)
        with pytest.raises(BudgetExceeded):
            search_double_covers_elliptic(E, mode="census", budget=311)

    def test_bad_genus_rejected(self):
        with pytest.raises(ValueError):
            E = EllipticCurve(F5, 0, 1, 1)
            search_double_covers_elliptic(E, genus_target=5)


class TestHyperGenus4Char2:
    def test_f2_census(self):
        r = search_hyper_genus4_char2(F2, mode="census")
        assert len(r.survivors) >= 1
        assert all(s["counts"][0] == 0 for s in r.survivors)
        # the published curve y^2 + y = t + (x^4+x^3+x^2+x)/(x^5+x^2+1) is
        # point-count-equivalent to a census class
        m = Poly(F2, [F2.one, F2.zero, F2.one, F2.zero, F2.zero, F2.one])
        g = Poly(F2, [F2.zero, F2.one, F2.one, F2.one, F2.one])
        curve = ArtinSchreierCurve(F2, RationalFunction(g + m, m))
        vec = [curve.count(i) for i in (1, 2, 3, 4)]
        assert vec in [s["counts"] for s in r.survivors]

    def test_f4_first_find(self):
        r = search_hyper_genus4_char2(F4, mode="first_find")
        s = r.survivors[0]
        m = Poly(F4, [F4.from_index(i) for i in s["m"]])
        g = Poly(F4, [F4.from_index(i) for i in s["g"]])
        t = F4.from_index(s["t"])
        curve = ArtinSchreierCurve(F4, RationalFunction(g + m * t, m))
        assert curve.genus == 4 and curve.count(1) == 0

    def test_resume_equals_uninterrupted(self, tmp_path):
        full = search_hyper_genus4_char2(F2, mode="census").to_json()
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            # stops at conductor 1, after the checkpoint of conductor 0
            search_hyper_genus4_char2(F2, mode="census", budget=1,
                                      checkpoint=cp)
        resumed = search_hyper_genus4_char2(F2, mode="census",
                                            checkpoint=cp).to_json()
        full.pop("wall_time")
        resumed.pop("wall_time")
        assert resumed == full

    def test_resumes_a_checkpoint_with_seen_vectors(self, tmp_path):
        # checkpoints used to carry the distinct count vectors under
        # "seen_vectors"; a resumed run ignores the key
        full = search_hyper_genus4_char2(F2, mode="census").to_json()
        cp = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceeded):
            search_hyper_genus4_char2(F2, mode="census", budget=1,
                                      checkpoint=cp)
        state = json.load(open(cp))
        state["seen_vectors"] = [list(v) for v in dict.fromkeys(
            tuple(z["counts"]) for z in state["zetas"])]
        with open(cp, "w") as fh:
            json.dump(state, fh)
        resumed = search_hyper_genus4_char2(F2, mode="census",
                                            checkpoint=cp).to_json()
        full.pop("wall_time")
        resumed.pop("wall_time")
        assert resumed == full

    def test_odd_char_rejected(self):
        with pytest.raises(OddCharacteristic):
            search_hyper_genus4_char2(F3)

    @pytest.mark.parametrize("F", [F4, F8], ids=["F4", "F8"])
    def test_verdict_equals_model_count(self, F):
        # seeded (m, g, t) over the engine's conductors, with g kept only
        # when the engine's conductor filter keeps it: the engine calls
        # y^2 + y = g/m + t pointless exactly when Tr(t) = 1 and g's bit
        # vector lies in the span of the trace matrix's kernel, and that
        # must be ArtinSchreierCurve's count(1) == 0.  Half of the g come
        # from the span, so that both verdicts occur.
        rng = random.Random(17 * F.q)
        kern = _kernel(F)
        conductors = _first_conductors(F, 20)
        spans = {}
        checked = pointless = 0
        while checked < 200:
            parts = rng.choice(conductors)
            m = parts[0]
            for p in parts[1:]:
                m = m * p
            key = tuple(F.index(c) for c in m.coeffs)
            if key not in spans:
                spans[key] = search.kernel_span(
                    search._trace_matrix_kernel(kern, list(key)))
            span = spans[key]
            bits = (rng.choice(span) if rng.random() < 0.5
                    else rng.randrange(2 ** (m.degree * F.n)))
            g = Poly(F, [F.from_index(bits >> (i * F.n) & (F.q - 1))
                         for i in range(m.degree)])
            if any((g % p).is_zero() for p in parts):
                continue
            t = F.from_index(rng.randrange(F.q))
            try:
                curve = ArtinSchreierCurve(F, RationalFunction(g + m * t, m))
            except UnsupportedShape:
                continue
            if curve.genus != 4:
                continue
            verdict = bool(kern.trace(F.index(t))) and bits in span
            assert verdict == (curve.count(1) == 0), (key, bits, F.index(t))
            checked += 1
            pointless += verdict
        assert 0 < pointless < checked


def _first_conductors(F, per_shape):
    """The parts of the first per_shape conductors of each shape in the
    census order, or of every conductor when per_shape is None."""
    out = {"5": [], "2+3": []}
    for shape, parts in search._conductor_stream(F):
        if per_shape is None or len(out[shape]) < per_shape:
            out[shape].append(parts)
        elif all(len(v) == per_shape for v in out.values()):
            break
    return out["5"] + out["2+3"]


class TestTraceMatrixKernel:
    @pytest.mark.parametrize("F, per_shape", [(F2, None), (F4, 10)],
                             ids=["F2", "F4"])
    def test_span_equals_brute_force(self, F, per_shape):
        # the span of the kernel basis against every g of degree < deg m
        # with Tr(g(x)/m(x)) = 0 at every x, in FieldElement arithmetic;
        # bit i*n + b of g's bit vector is bit b of coefficient i's index
        kern = _kernel(F)
        conductors = _first_conductors(F, per_shape)
        assert len(conductors) == (8 if per_shape is None else 20)
        for parts in conductors:
            m = parts[0]
            for p in parts[1:]:
                m = m * p
            span = search.kernel_span(search._trace_matrix_kernel(
                kern, [F.index(c) for c in m.coeffs]))
            inv_m = [(x, m.eval(x).inv()) for x in F.elements()]
            brute = set()
            for bits in range(2 ** (m.degree * F.n)):
                g = Poly(F, [F.from_index(bits >> (i * F.n) & (F.q - 1))
                             for i in range(m.degree)])
                if not any((g.eval(x) * w).trace_to_F2() for x, w in inv_m):
                    brute.add(bits)
            assert len(span) == len(set(span)) and set(span) == brute, m


class TestDispatch:
    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            run_search(F5, SearchConfig(family="no_such_family"))

    def test_first_find_helper(self):
        r = first_find(F5, "klein4_hyper_odd", n=1)
        assert r.family == "klein4_hyper_odd"
        assert len(r.survivors) == 1

    def test_census_helper(self):
        r = census(F2, "quartic_char2")
        assert r.parameters["mode"] == "census"


# every engine's full report minus wall_time, recorded before the engines
# shared one _Search: (candidates, survivors, dedup_classes) for reading, and
# the first 16 hex digits of the sha256 of the JSON with sorted keys
REPORT_PINS = [
    ("klein4_hyper_even@F4:census",
     lambda: search_klein4_hyper_even(F4, mode="census"),
     (576, 42, 6), "bc6851851fc6adaf"),
    ("klein4_hyper_even@F4:first",
     lambda: search_klein4_hyper_even(F4, mode="first_find"),
     (44, 1, 1), "98763f41c40febd8"),
    ("diagonal_quartic@F5:census",
     lambda: search_diagonal_quartic(F5, mode="census"),
     (2000, 44, 3), "1f762562eec4d30f"),
    ("diagonal_quartic@F5:first",
     lambda: search_diagonal_quartic(F5, mode="first_find"),
     (1, 1, 1), "38b1371d1355e057"),
    ("quartic_char2@F2:census",
     lambda: search_quartic_char2(F2, mode="census"),
     (4, 1, 1), "2ef56dd173ca5f2e"),
    ("quartic_char2@F4:census",
     lambda: search_quartic_char2(F4, mode="census"),
     (16, 2, 1), "84aff78ceeb29de5"),
    ("quartic_char2@F4:first",
     lambda: search_quartic_char2(F4, mode="first_find"),
     (12, 1, 1), "1e4796dfd79624f0"),
    ("fiberproduct@F3:census",
     lambda: search_fiberproduct(F3, mode="census"),
     (729, 72, 8), "ad387466cda1aa1a"),
    ("fiberproduct@F3:first",
     lambda: search_fiberproduct(F3, mode="first_find"),
     (87, 1, 1), "ada579a692153985"),
    ("exhaustive_hyper_genus3@F9:first",
     lambda: search_exhaustive_hyper_genus3(F9, mode="first_find"),
     (3, 1, 1), "6f00f44818760a4c"),
    ("double_covers@F5:x3+1:census",
     lambda: search_double_covers_elliptic(EllipticCurve(F5, 0, 0, 1),
                                           mode="census"),
     (624, 5, 5), "a628c050577d82bc"),
    ("double_covers@F5:x3+1:first",
     lambda: search_double_covers_elliptic(EllipticCurve(F5, 0, 0, 1),
                                           mode="first_find"),
     (312, 2, 2), "27dff7dd06c532cc"),
    ("hyper_genus4_char2@F2:census",
     lambda: search_hyper_genus4_char2(F2, mode="census"),
     (8, 54, 9), "5fcb6ba80f7becaf"),
    ("hyper_genus4_char2@F2:first",
     lambda: search_hyper_genus4_char2(F2, mode="first_find"),
     (1, 1, 1), "324cbaae34095e30"),
]


@pytest.mark.parametrize("run, sizes, digest",
                         [pin[1:] for pin in REPORT_PINS],
                         ids=[pin[0] for pin in REPORT_PINS])
def test_report_is_pinned(run, sizes, digest):
    report = run().to_json()
    report.pop("wall_time")
    assert (report["candidates"], len(report["survivors"]),
            report["dedup_classes"]) == sizes
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
