"""Search engines: fixture recovery, filter-vs-oracle agreement, budgets,
symmetry reductions against their unreduced streams, and determinism."""

import functools
import hashlib
import json
import math
import os
import random
from itertools import product

import pytest

from pointless import elliptic, search
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
from pointless.field import (
    FiniteField,
    Poly,
    RationalFunction,
    _index_poly,
    _kernel,
)
from pointless.search import (
    ENGINE_FAMILIES,
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

from element_reference import fn_ab, fn_value, group_structure, interpolate

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F7 = FiniteField(7)
F8 = FiniteField(2, 3, [1, 1, 0, 1])
F16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
F9 = FiniteField(3, 2, [-1, -1, 1])
F11 = FiniteField(11)
F13 = FiniteField(13)
F17 = FiniteField(17)
F19 = FiniteField(19)
F23 = FiniteField(23)
F27 = FiniteField(3, 3, [1, -1, 0, 1])
F59 = FiniteField(59)
F243 = FiniteField(3, 5, [1, -1, 0, 0, 0, 1])

extended = pytest.mark.skipif(
    os.environ.get("POINTLESS_EXTENDED") != "1",
    reason="extended-scale run; set POINTLESS_EXTENDED=1")


def _index_dot(kern, u, v):
    """sum_i u_i v_i on kernel indices."""
    out = 0
    for a, b in zip(u, v):
        out = kern.add(out, kern.mul(a, b))
    return out


def _naive_join(F, alphabets, weights, consts, target):
    """The codes that _linear_join should yield over alphabets, one per
    digit (little-endian mixed radix), one FieldElement sum per form and
    code."""
    out = []
    for code in range(math.prod(map(len, alphabets))):
        lam, rest = [], code
        for alphabet in alphabets:
            rest, digit = divmod(rest, len(alphabet))
            lam.append(F.from_index(alphabet[digit]))
        for row, c in zip(weights, consts):
            v = F.from_index(c)
            for w, x in zip(row, lam):
                v = v + F.from_index(w) * x
            if not target[F.index(v)]:
                break
        else:
            out.append(code)
    return out


def _spy_tables(monkeypatch):
    """(sets, halves): from now on, the number of forms of every table set
    search builds, and one entry per _partial_sums call, of which every
    form's bitsets take two (its right and left halves)."""
    sets, halves = [], []
    build, partial = search._join_tables, search._partial_sums

    def tables(kern, alphabets, weights, *rest):
        sets.append(len(weights))
        return build(kern, alphabets, weights, *rest)

    def partial_sums(*args):
        halves.append(1)
        return partial(*args)

    monkeypatch.setattr(search, "_join_tables", tables)
    monkeypatch.setattr(search, "_partial_sums", partial_sums)
    return sets, halves


class TestLinearJoin:
    # past F_27 at d <= 2 only, where the byte tables hold indices up to
    # 242 and the alphabets reach 3600 codes
    @pytest.mark.parametrize("F, depth, codes",
                             [(F5, 5, 1000), (F7, 5, 1000), (F9, 5, 1000),
                              (F13, 5, 1000), (F27, 5, 1000), (F23, 3, 3600),
                              (F59, 3, 3600), (F243, 3, 3600)],
                             ids=["F5", "F7", "F9", "F13", "F27", "F23",
                                  "F59", "F243"])
    def test_agrees_with_naive_evaluation(self, F, depth, codes):
        rng = random.Random(F.q)
        K = _kernel(F)
        for d in range(depth):
            # alphabets up to the whole field, at most about `codes` codes
            size = F.q
            while size ** d > codes:
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
                got = list(search._linear_join(K, [alphabet] * d, weights,
                                               consts, target))
                want = _naive_join(F, [alphabet] * d, weights, consts,
                                   target)
                assert got == want
                if density == 0.0:
                    assert got == []
                if density == 1.0:
                    assert got == list(range(size ** d))

    def test_two_targets_on_one_kernel(self):
        # the kernel keeps its addition rows across calls; what one call
        # read off them for its target must not leak into the next call
        K = _kernel(F27)
        rng = random.Random(2)
        weights = [[rng.randrange(27) for _ in range(3)] for _ in range(4)]
        consts = [rng.randrange(27) for _ in range(4)]
        for density in (0.5, 0.8):
            target = bytearray(rng.random() < density for _ in range(27))
            got = list(search._linear_join(K, [range(27)] * 3, weights,
                                           consts, target))
            assert got == _naive_join(F27, [range(27)] * 3, weights, consts,
                                      target)

    def test_no_forms_pass_every_code(self):
        K = _kernel(F7)
        got = list(search._linear_join(K, [range(7)] * 3, [], [],
                                       bytearray(7)))
        assert got == list(range(343))

    def test_nonsquare_alphabet_odd_depth(self):
        # d = 5 over the nonsquares of F_11, as the exhaustive census
        # enumerates: r = 3 right digits (125 codes) and 2 left digits
        K = _kernel(F11)
        ns = [a for a in range(11) if K.sqrt_count(a) == 0]
        rng = random.Random(1)
        for density in (0.5, 0.8):
            target = bytearray(rng.random() < density for _ in range(11))
            weights = [[rng.randrange(11) for _ in range(5)]
                       for _ in range(4)]
            consts = [rng.randrange(11) for _ in range(4)]
            want = _naive_join(F11, [ns] * 5, weights, consts, target)
            assert want
            assert list(search._linear_join(K, [ns] * 5, weights, consts,
                                            target)) == want

    @pytest.mark.parametrize("F, free", [(F7, 3), (F9, 3), (F27, 2)],
                             ids=["F7", "F9", "F27"])
    def test_two_letter_top_digit(self, F, free):
        # the double covers' alphabets: free digits over F_q and a top
        # digit over (1, nu), on the prime kernel and on the Zech kernels
        # of F_9 and F_27; the codes' base-q digits are the free lambda
        # and a top digit 0 or 1
        K = _kernel(F)
        alphabets = [range(F.q)] * free + [(1, K.nonsquare)]
        rng = random.Random(F.q)
        not_square = bytearray(K.sqrt_count(a) != 2 for a in range(F.q))
        tops = set()
        for density in (None, 0.5, 0.9):
            target = not_square if density is None else bytearray(
                rng.random() < density for _ in range(F.q))
            weights = [[rng.randrange(F.q) for _ in range(free + 1)]
                       for _ in range(4)]
            consts = [0 if density is None else rng.randrange(F.q)
                      for _ in range(4)]
            got = list(search._linear_join(K, alphabets, weights, consts,
                                           target))
            assert got == _naive_join(F, alphabets, weights, consts, target)
            tops |= {search._digits(code, F.q, free + 1)[-1] for code in got}
        assert tops == {0, 1}

    def test_refuses_fields_past_256(self):
        # kernel indices are packed in bytes, so F_257 is out of range
        K = _kernel(FiniteField(257))
        with pytest.raises(UnsupportedShape, match="bytes"):
            next(search._linear_join(K, [range(257)] * 2, [[1, 1]], [0],
                                     bytearray(257)))


def _klein4_reference(F, n):
    """(code, f, model) for every census survivor of klein4_hyper_odd, by
    direct evaluation: f = c0 + c1 u + c2 u^2 + c3 u^3 + nu u^4 is a
    nonsquare at every u = x + n/x, separable and coprime to u^2 - 4n."""
    nu = F.from_index(_kernel(F).nonsquare)
    us = {x + n / x for x in F.elements() if not x.is_zero()}
    disc = Poly(F, [-(F.element(4) * n), F.zero, F.one])
    x = Poly.x(F)
    out = []
    for code in range(F.q ** 4):
        f = Poly(F, [F.from_index(code // F.q ** i % F.q) for i in range(4)]
                 + [nu])
        if any(f.eval(u).is_square() for u in us):
            continue
        if (not _kernel(F).is_separable(_index_poly(f))
                or f.gcd(disc).degree > 0):
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

    @pytest.mark.parametrize("F, n", [
        pytest.param(F, F.one if kind == "1"
                     else F.from_index(_kernel(F).nonsquare),
                     id=f"n={kind}-F{F.q}")
        for kind in ("1", "nu") for F in (F3, F5, F7, F9, F11, F13)
    ] + [
        # an int n is an index: 5 in F_9 lies outside F_3
        pytest.param(F9, 5, id="n=5-F9"),
    ])
    def test_reports_equal_naive_filter_reference(self, F, n):
        # the engine takes n as given, the reference its element
        element = F.from_index(n) if isinstance(n, int) else n
        found = _klein4_reference(F, element)
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
                "parameters": {"q": F.q, "n": F.index(element), "mode": mode},
                "candidates": candidates,
                "survivors": survivors[:keep],
                "dedup_classes": len({tuple(z["counts"])
                                      for z in zetas[:keep]}),
                "zeta": zetas[:keep],
                "fingerprint": search._fingerprint(
                    "klein4_hyper_odd", F.q, F.index(element),
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

    def test_deterministic(self):
        a = search_klein4_hyper_odd(F5, 1, mode="census").to_json()
        b = search_klein4_hyper_odd(F5, 1, mode="census").to_json()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b


# every engine whose filter claims exactness raises on the first pass the
# model does not confirm: here the model counts one point on every curve
@pytest.mark.parametrize("model, run", [
    (HyperellipticOdd,
     lambda: search_klein4_hyper_odd(F5, 1, mode="census")),
    (PlaneQuartic, lambda: search_diagonal_quartic(F5, mode="census")),
    (FiberProductGenus4, lambda: search_fiberproduct(F3, mode="census")),
    (HyperellipticOdd,
     lambda: search_exhaustive_hyper_genus3(F9, mode="first_find")),
    (ArtinSchreierCurve,
     lambda: search_hyper_genus4_char2(F2, mode="census")),
    (PlaneQuartic, lambda: search_quartic_char2(F4, mode="census")),
], ids=["klein4_hyper_odd@F5", "diagonal_quartic@F5", "fiberproduct@F3",
        "exhaustive_hyper_genus3@F9", "hyper_genus4_char2@F2",
        "quartic_char2@F4"])
def test_filter_disagreement_raises(monkeypatch, model, run):
    monkeypatch.setattr(model, "count", lambda self, i=1: 1)
    with pytest.raises(FilterDisagreement, match="rational points"):
        run()


# the genus half of the same check: the model's constructor runs, then
# claims genus 2 for every curve, each of which has no rational point
@pytest.mark.parametrize("model, run", [
    (HyperellipticOdd,
     lambda: search_klein4_hyper_odd(F5, 1, mode="census")),
    (HyperellipticOdd,
     lambda: search_exhaustive_hyper_genus3(F9, mode="first_find")),
    (ArtinSchreierCurve,
     lambda: search_hyper_genus4_char2(F2, mode="census")),
], ids=["klein4_hyper_odd@F5", "exhaustive_hyper_genus3@F9",
        "hyper_genus4_char2@F2"])
def test_filter_genus_disagreement_raises(monkeypatch, model, run):
    init = model.__init__

    def genus_two(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.genus = 2

    monkeypatch.setattr(model, "__init__", genus_two)
    with pytest.raises(FilterDisagreement,
                       match="genus 2 and 0 rational points"):
        run()


# every engine refuses a field of the wrong characteristic before its walk
# counts a candidate
@pytest.mark.parametrize("family", ENGINE_FAMILIES)
def test_wrong_characteristic_refused_before_any_candidate(monkeypatch,
                                                           family):
    def walked(run, blocks):
        raise AssertionError(f"{family} walked its candidates")

    monkeypatch.setattr(search._Search, "walk", walked)
    char2 = {"klein4_hyper_even", "quartic_char2", "hyper_genus4_char2"}
    F, error = (F3, OddCharacteristic) if family in char2 \
        else (F4, EvenCharacteristic)
    with pytest.raises(error):
        run_search(F, SearchConfig(family=family, mode="census"))


class TestKlein4Even:
    def test_f2_census_matches_table(self):
        r = search_klein4_hyper_even(F2, mode="census")
        hits = [s for s in r.survivors
                if s["f_num"] == [1, 0, 1, 0, 1]
                and s["f_den"] == [1, 1, 1, 1, 1]]
        # y^2 + y = (x^4 + x^2 + 1)/(x^4 + x^3 + x^2 + x + 1)
        assert len(hits) == 1

    def test_f4_accepted_candidates_have_genus_3(self, monkeypatch):
        # the engine tests no genus: every pair the model accepts has
        # den squarefree of degree 4 and no pole at infinity
        genera = []

        class Recorded(ArtinSchreierCurve):
            def __init__(self, base, f):
                super().__init__(base, f)
                genera.append(self.genus)

        monkeypatch.setattr(search, "ArtinSchreierCurve", Recorded)
        search_klein4_hyper_even(F4, mode="census")
        assert len(genera) == 468 and set(genera) == {3}

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

    def test_singular_survivor_raises(self, monkeypatch):
        # the smoothness filter is exact too: a survivor the model calls
        # singular is a disagreement, not a skip
        monkeypatch.setattr(PlaneQuartic, "is_smooth", lambda self: False)
        with pytest.raises(FilterDisagreement, match="singular"):
            search_diagonal_quartic(F5, mode="first_find")

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
    def test_pointless_gammas_agree_with_the_model(self, F):
        # the closed-form verdict against count(1) at every (beta, gamma)
        kern = _kernel(F)
        verdicts = set()
        for beta in range(F.q):
            got = search._char2_pointless_gammas(kern, beta)
            for gamma in range(F.q):
                C = search._char2_family_quartic(F, beta, gamma)
                pointless = C.count(1) == 0
                assert (gamma in got) == pointless, (beta, gamma)
                verdicts.add(pointless)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("F", [F2, F4, F8, FiniteField(2, 4, [1, 1, 0, 0, 1])],
                             ids=["F2", "F4", "F8", "F16"])
    def test_family_equals_the_expanded_product(self, F):
        for beta, gamma in product(F.elements(), repeat=2):
            got = search._char2_family_quartic(F, F.index(beta),
                                               F.index(gamma))
            assert got._idx == _char2_family_product(F, beta, gamma)._idx


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

    def test_budget_boundary(self):
        # one join block per monic cubic f: the budget is spent up to each
        # pass, and a block adds its q^3 candidates, or those up to the stop
        r = search_fiberproduct(F7, mode="first_find")
        assert r.candidates == 697
        again = search_fiberproduct(F7, mode="first_find",
                                    budget=r.candidates)
        assert again.survivors == r.survivors
        with pytest.raises(BudgetExceeded):
            search_fiberproduct(F7, mode="first_find",
                                budget=r.candidates - 1)
        search_fiberproduct(F3, mode="census", budget=729)
        with pytest.raises(BudgetExceeded):
            search_fiberproduct(F3, mode="census", budget=728)

    def test_forms_tabled_once(self, monkeypatch):
        # the q forms in g, one per x, are tabled once per run, not once
        # per monic cubic f: each f joins the subset of them it needs
        sets, halves = _spy_tables(monkeypatch)
        r = search_fiberproduct(F7, mode="census")
        assert r.survivors
        assert sets == [7]
        assert len(halves) == 14

    @pytest.mark.parametrize("F, sample",
                             [(F3, None), (F5, 2000), (F9, 2000)],
                             ids=["F3", "F5", "F9"])
    def test_survivors_are_the_pointless_models(self, F, sample):
        # every (f, g) over F_3, a seeded sample over F_5 and over F_9, where
        # the join runs on the Zech kernel: a pair survives the census
        # exactly when FiberProductGenus4 builds it and it has no rational
        # point
        survivors = {(tuple(s["f"]), tuple(s["g"]))
                     for s in search_fiberproduct(F, mode="census").survivors}
        nu = _kernel(F).nonsquare
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

    @pytest.mark.parametrize("drop", [0, 1], ids=["all", "first_dropped"])
    def test_census_certificate(self, monkeypatch, drop):
        # a join that yields only the inseparable passes exhausts with
        # N4(9) = 2286 of them; one pass short, the certificate raises
        f_of, width, codes = search._census_join(F9)
        kept = [code for code in codes
                if not _kernel(F9).is_separable(f_of(code))]
        monkeypatch.setattr(search, "_census_join",
                            lambda F: (f_of, width, kept[drop:]))
        if drop:
            with pytest.raises(FilterDisagreement, match="not N4"):
                search_exhaustive_hyper_genus3(F9, mode="census")
        else:
            r = search_exhaustive_hyper_genus3(F9, mode="census")
            assert r.kill_counts["degenerate"] == 2286 == \
                math.comb(9, 2) * 81 - math.comb(9, 3) * 9 + math.comb(9, 4)
            assert r.survivors == []


    @staticmethod
    @functools.cache
    def _one_class_join(F):
        """The census join cut down to its inseparable passes and the
        separable passes of the first survivor's class, the class read off
        the reference orbit: (f_of, width, the cut-down join's codes, the
        class's codes, the first separable pass outside the class)."""
        kern = _kernel(F)
        f_of, width, codes = search._census_join(F)
        f = first_find(F, "exhaustive_hyper_genus3").survivors[0]["f"]
        members = _fe_pgl2_orbit(F, Poly(F, [F.from_index(i) for i in f]))
        kept, ours, outsider = [], [], None
        for code in codes:
            g = f_of(code)
            if not kern.is_separable(g):
                kept.append(code)
            elif tuple(g) in members:
                kept.append(code)
                ours.append(code)
            elif outsider is None:
                outsider = tuple(g)
        return f_of, width, tuple(kept), tuple(ours), outsider

    @pytest.mark.parametrize("drop", [False, True],
                             ids=["whole", "one_dropped"])
    def test_closure_certificate(self, monkeypatch, drop):
        # a join of the inseparable passes and one class's separable passes
        # exhausts with that class alone; one of those passes short, the
        # class is walked from the others, and the dropped one is a walked
        # member that is no survivor
        f_of, width, kept, ours, _ = self._one_class_join(F9)
        if drop:
            kept = [code for code in kept if code != ours[len(ours) // 2]]
        monkeypatch.setattr(search, "_census_join",
                            lambda F: (f_of, width, kept))
        if drop:
            with pytest.raises(FilterDisagreement, match="not closed"):
                search_exhaustive_hyper_genus3(F9, mode="census")
        else:
            r = search_exhaustive_hyper_genus3(F9, mode="census")
            assert (len(r.survivors), r.dedup_classes) == (len(ours), 1)

    def test_closure_certificate_fires_on_a_non_member(self, monkeypatch):
        # an orbit walk with one member replaced by a survivor of another
        # class walks a member that is no survivor of the cut-down join
        f_of, width, kept, _, outsider = self._one_class_join(F9)
        walk = search._pgl2_orbit

        def with_outsider(kern, f):
            members = list(walk(kern, f))
            members[len(members) // 2] = outsider
            return members

        monkeypatch.setattr(search, "_census_join",
                            lambda F: (f_of, width, kept))
        monkeypatch.setattr(search, "_pgl2_orbit", with_outsider)
        with pytest.raises(FilterDisagreement, match="not closed|recount"):
            search_exhaustive_hyper_genus3(F9, mode="census")

    def test_f9_census_is_pinned(self):
        # the whole F_9 census: 26,955 survivors in 54 classes, each key the
        # least survivor of its class, and the report, minus wall_time, as
        # it was when every survivor was counted on its own
        r = search_exhaustive_hyper_genus3(F9, mode="census").to_json()
        r.pop("wall_time")
        assert (len(r["survivors"]), r["dedup_classes"]) == (26955, 54)
        classes = {}
        for s in r["survivors"]:
            classes.setdefault(tuple(s["iso_class_key"]), []).append(
                tuple(s["f"]))
        assert len(classes) == 54
        assert all(min(fs) == key for key, fs in classes.items())
        text = json.dumps(r, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            "924c9742e0b38267"


@functools.cache
def _fe_pgl2_orbit(F, f):
    """The PGL2 orbit as a FieldElement computation: every normalised
    (a, b, c, d) from a q^4 scan, g = (cx+d)^8 f((ax+b)/(cx+d)) by Poly
    products, and the set, over the g of degree 8, of the minimal index
    tuple over the s^2 g.  The reference the index-kernel walk must equal.
    The powers of ax + b and cx + d are built one product at a time, 7
    products each."""
    elems = list(F.elements())
    squares = {s * s for s in elems if not s.is_zero()}
    one = Poly(F, [F.one])
    members = set()
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
                    members.add(min(tuple(F.index(v * s2) for v in g.coeffs)
                                    for s2 in squares))
    return members


def _fe_pgl2_key(F, f):
    """The PGL2 canonical key as a FieldElement computation: the least
    member of _fe_pgl2_orbit.  The reference the index-kernel key must
    equal."""
    return min(_fe_pgl2_orbit(F, f))


def _square_class_tuple(kern, g):
    """The least index tuple among the square multiples s^2 g of the
    nonzero index list g.  The first nonzero entry decides it: s^2 takes
    it to 1 when it is a square and to the kernel's nonsquare, the least
    nonsquare index, when it is not."""
    lead = next(c for c in g if c)
    s2 = kern.mul(kern.inv(lead),
                  kern.nonsquare if kern.sqrt_count(lead) == 0 else 1)
    return tuple(kern.mul(s2, c) for c in g)


def _pgl2_classes(kern, models):
    """The PGL2 canonical key of each degree-8 index list in models, and
    the number of distinct keys: the least square class tuple over the
    orbit (search._pgl2_orbit).  A model whose square class tuple is not
    yet known has its orbit walked, and every member is mapped to the
    orbit minimum: one walk per class, not per model, which keeps a count
    over a whole unreduced census stream within a test's time."""
    key_of = {}
    keys = []
    for f in models:
        tup = _square_class_tuple(kern, f)
        if tup not in key_of:
            members = set(search._pgl2_orbit(kern, f))
            key_of.update(dict.fromkeys(members, min(members)))
        keys.append(key_of[tup])
    return keys, len(set(keys))


def _random_octic(F, rng):
    return [rng.randrange(F.q) for _ in range(8)] + [rng.randrange(1, F.q)]


class TestExhaustiveKernel:
    """The exhaustive genus-3 engine on the index kernel: PGL2 keys, one
    orbit walk per class, the node-value join and its certificate."""

    @pytest.mark.parametrize("F,n_random", [(F9, 3), (F11, 1), (F13, 1)],
                             ids=["F9", "F11", "F13"])
    def test_key_equals_field_element_key(self, F, n_random):
        rng = random.Random(F.q)
        kern = _kernel(F)
        models = [_random_octic(F, rng) for _ in range(n_random)]
        models.append(first_find(F, "exhaustive_hyper_genus3")
                      .survivors[0]["f"])
        for f in models:
            fe = Poly(F, [F.from_index(i) for i in f])
            assert min(search._pgl2_orbit(kern, f)) == _fe_pgl2_key(F, fe), f

    @pytest.mark.parametrize("F", [F9, F11], ids=["F9", "F11"])
    def test_every_orbit_member_has_the_key(self, F):
        rng = random.Random(7 * F.q)
        kern = _kernel(F)
        f = first_find(F, "exhaustive_hyper_genus3").survivors[0]["f"]
        orbit = list(search._pgl2_orbit(kern, f))
        assert len(orbit) == F.q ** 3 - F.q   # pointless: no root to move
        # the census's key of a class: the least member of its orbit
        key = min(orbit)
        members = rng.sample(orbit, 4)
        keys = [min(search._pgl2_orbit(kern, g))
                for g in members + [_random_octic(F, rng)] + [f]]
        assert keys[:4] == [key] * 4 and keys[-1] == key
        assert len(set(keys)) == (2 if keys[4] != key else 1)

    @pytest.mark.parametrize("F", [F9, F11], ids=["F9", "F11"])
    def test_orbit_equals_field_element_orbit(self, F):
        # the walk's member tuples, read off logs, are the reference's
        # square class tuples; an octic with c0 = 0 has members whose
        # first nonzero entry lies past index 0, and a root at 0 that some
        # bases move to infinity
        kern = _kernel(F)
        octic = [0] + _random_octic(F, random.Random(11 * F.q))[1:]
        survivor = first_find(F, "exhaustive_hyper_genus3").survivors[0]["f"]
        for f in (survivor, octic):
            fe = Poly(F, [F.from_index(i) for i in f])
            assert set(search._pgl2_orbit(kern, f)) == _fe_pgl2_orbit(F, fe)

    @pytest.mark.parametrize("F", [F9, F11, F13], ids=["F9", "F11", "F13"])
    def test_node_basis_equals_element_interpolation(self, F):
        # basis[i] is the element interpolant of the i-th unit vector on
        # the nodes 0..8; the weights are its leading coefficients and its
        # values at the elements 9..q-1
        nonsquare, basis, weights = search._node_value_forms(F)
        nodes = [F.from_index(i) for i in range(9)]
        want = [interpolate(F, nodes, [F.one if j == i else F.zero
                                       for j in range(9)])
                for i in range(9)]
        assert basis == [_index_poly(L) for L in want]
        assert weights == [[F.index(L[8]) for L in want]] + [
            [F.index(L.eval(F.from_index(x))) for L in want]
            for x in range(9, F.q)]
        assert list(nonsquare) == [not v.is_zero() and not v.is_square()
                                   for v in F.elements()]

    @pytest.mark.parametrize("F", [F9, F11], ids=["F9", "F11"])
    def test_join_equals_naive_nonsquare_filter(self, F):
        nonsquare, basis, weights = search._node_value_forms(F)
        ns = [a for a in range(F.q) if nonsquare[a]]
        passes = set(search._linear_join(_kernel(F), [ns] * 9, weights,
                                         [0] * len(weights), nonsquare))
        rng = random.Random(F.q)
        sample = rng.sample(sorted(passes), 100)
        sample += rng.sample(range(len(ns) ** 9), 200)
        nodes = [F.from_index(i) for i in range(9)]
        for code in sample:
            values = [F.from_index(ns[d]) for d in search._digits(
                code, len(ns), 9)]
            f = interpolate(F, nodes, values)
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

    # the reduced F_9 census stopped by budgets 20 and 50: every survivor
    # below the budget, with its point counts, in stream order (f(0) is 3,
    # the first nonsquare index of F_9)
    F9_KEPT = {20: 11, 50: 28}
    F9_SURVIVORS = [
        [3, 6, 6, 6, 6, 6, 6, 6, 6], [3, 8, 7, 8, 7, 8, 7, 8, 7],
        [3, 7, 6, 7, 6, 7, 6, 7, 6], [3, 3, 6, 3, 6, 3, 6, 3, 6],
        [3, 4, 7, 4, 7, 4, 7, 4, 7], [3, 0, 3, 0, 3, 0, 3, 0, 3],
        [3, 2, 5, 2, 5, 2, 5, 2, 5], [3, 5, 6, 5, 6, 5, 6, 5, 6],
        [3, 1, 5, 1, 5, 1, 5, 1, 5], [3, 2, 5, 3, 8, 4, 1, 0, 7],
        [3, 1, 4, 5, 7, 3, 0, 2, 6], [3, 0, 5, 4, 8, 5, 1, 1, 7],
        [3, 8, 5, 0, 8, 1, 1, 6, 7], [3, 4, 1, 8, 4, 6, 6, 5, 3],
        [3, 6, 4, 1, 7, 2, 0, 7, 6], [3, 7, 5, 2, 8, 0, 1, 8, 7],
        [3, 3, 1, 7, 4, 8, 6, 4, 3], [3, 5, 0, 6, 3, 7, 8, 3, 5],
        [3, 2, 7, 4, 3, 1, 5, 8, 6], [3, 0, 8, 5, 4, 2, 3, 6, 7],
        [3, 8, 4, 1, 0, 7, 2, 5, 3], [3, 7, 3, 0, 2, 6, 1, 4, 5],
        [3, 1, 8, 3, 4, 0, 3, 7, 7], [3, 6, 4, 2, 0, 8, 2, 3, 3],
        [3, 5, 4, 7, 0, 4, 2, 2, 3], [3, 3, 3, 8, 2, 5, 1, 0, 5],
        [3, 4, 4, 6, 0, 3, 2, 1, 3], [3, 7, 0, 8, 5, 4, 2, 3, 6],
    ]
    F9_COUNTS = {0: [0, 92, 768], 3: [0, 92, 768], 5: [0, 92, 768],
                 11: [0, 86, 750], 15: [0, 82, 720], 17: [0, 86, 750],
                 18: [0, 92, 768], 20: [0, 92, 768], 24: [0, 92, 768]}

    @pytest.mark.parametrize("budget", [20, 50])
    def test_f9_census_stream(self, monkeypatch, budget):
        kept = []
        keep = search._Search.keep

        def record(run, entry, zeta):
            kept.append((entry["f"], zeta))
            return keep(run, entry, zeta)

        monkeypatch.setattr(search._Search, "keep", record)
        with pytest.raises(BudgetExceeded):
            search_exhaustive_hyper_genus3(F9, mode="census", budget=budget)
        n = self.F9_KEPT[budget]
        assert kept == [
            (f, zeta_report(9, 3, self.F9_COUNTS.get(i, [0, 84, 732]))
             .to_json()) for i, f in enumerate(self.F9_SURVIVORS[:n])]

    # passes and inseparable passes of the census join at q = 9..19
    @pytest.mark.parametrize("F, passes, degenerate", [
        (F9, 29241, 2286), (F11, 37345, 5170), (F13, 38298, 10179),
        pytest.param(F17, 40528, 30124, marks=extended),
        pytest.param(F19, 52326, 47196, marks=extended),
    ], ids=["F9", "F11", "F13", "F17", "F19"])
    def test_inseparable_passes_are_the_rootless_quartics(
            self, F, passes, degenerate):
        # the certificate, on the join and is_separable alone: the
        # inseparable passes are exactly the c s^2 with s a monic quartic
        # without a root in F_q and c = nu0 / s(0)^2, N4(q) of them
        q, kern = F.q, _kernel(F)
        nu0 = next(a for a in range(q) if kern.sqrt_count(a) == 0)
        f_of, _, codes = search._census_join(F)
        fs = [f_of(code) for code in codes]
        inseparable = {tuple(f) for f in fs if not kern.is_separable(f)}
        want = set()
        for code in range(q ** 4):
            s = search._digits(code, q, 4) + [1]
            if all(kern.horner(s, x) for x in range(q)):
                c = kern.mul(nu0, kern.inv(kern.mul(s[0], s[0])))
                want.add(tuple(kern.mul(c, v) for v in kern._pmul(s, s)))
        n4 = math.comb(q, 2) * q * q - math.comb(q, 3) * q + math.comb(q, 4)
        assert (len(fs), len(inseparable)) == (passes, degenerate)
        assert inseparable == want and len(want) == n4

    # separable passes before and after fixing f(0), and PGL2 classes
    @pytest.mark.parametrize("F, unreduced, reduced, classes", [
        (F9, 107820, 26955, 54),
        pytest.param(F11, 160875, 32175, 39, marks=extended),
        pytest.param(F13, 168714, 28119, 23, marks=extended),
    ], ids=["F9", "F11", "F13"])
    def test_reduced_census_equals_unreduced_stream(
            self, F, unreduced, reduced, classes):
        # the unreduced stream is the 9-node join, f(0) over every
        # nonsquare, with is_separable and no validation; the reduced
        # join is its f(0) = nu0 slice, and square scaling maps that
        # slice onto the others, so every class has a member in it
        kern = _kernel(F)
        nonsquare, basis, weights = search._node_value_forms(F)
        ns = [a for a in range(F.q) if nonsquare[a]]
        scaled = [[[kern.add_row(kern.mul(v, w)) for w in L] for v in ns]
                  for L in basis]
        passes = []
        for code in search._linear_join(kern, [ns] * 9, weights,
                                        [0] * len(weights), nonsquare):
            f = [0] * 9
            for digit, rows in zip(search._digits(code, len(ns), 9), scaled):
                f = [row[c] for row, c in zip(rows[digit], f)]
            passes.append(f)
        f_of, _, codes = search._census_join(F)
        assert [f_of(code) for code in codes] == \
            [f for f in passes if f[0] == ns[0]]
        full = [f for f in passes if kern.is_separable(f)]
        fs = [f for f in full if f[0] == ns[0]]
        assert (len(full), len(fs)) == (unreduced, reduced)
        assert unreduced == (F.q - 1) // 2 * reduced
        keys, n = _pgl2_classes(kern, full)
        assert n == classes
        assert {k for f, k in zip(full, keys) if f[0] == ns[0]} == set(keys)


class TestDoubleCovers:
    def test_coset_of_o_alone_is_unsupported(self):
        # E(F_7) = (Z/3)^2 on y^2 = x^3 + 2, so 3E(F_7) = {O} and the coset
        # {O} has no affine point for the double zero
        E = EllipticCurve(F7, 0, 0, 2)
        assert group_structure(E) == (3, 3)
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

    def test_first_find_stops_at_first_survivor(self):
        # the census's first survivor, with only the candidates up to it
        # counted, and a rerun stops at the same survivor
        E = EllipticCurve(F5, 0, 0, 1)
        full = search_double_covers_elliptic(E, mode="census")
        first = search_double_covers_elliptic(E, mode="first_find")
        assert first.survivors == full.survivors[:1]
        assert first.candidates == sum(first.kill_counts.values()) + 1
        assert first.candidates < 312
        again = search_double_covers_elliptic(E, mode="first_find")
        assert (again.candidates, again.survivors) == \
            (first.candidates, first.survivors)

    @pytest.mark.parametrize("F, curve, candidates, test1, test2, found", [
        (F5, (0, 1, 1), 250, 242, 8, 0),
        (F5, (0, 0, 1), 500, 437, 58, 5),
        (F7, (0, 1, 3), 1372, 1228, 110, 34),
    ], ids=["F5:x3+x+1", "F5:x3+1", "F7:x3+x+3"])
    def test_counts_as_recorded(self, F, curve, candidates, test1, test2,
                                found):
        # genus-3 census figures, re-recorded when the top coefficient took
        # the square-class normalisation: reps * 2 * q^3 candidates, and
        # the survivors of the first-nonzero normalisation (recorded with a
        # per-candidate test 1) up to square scaling
        r = search_double_covers_elliptic(EllipticCurve(F, *curve),
                                          genus_target=3, mode="census")
        assert r.candidates == candidates
        assert r.kill_counts == {"test1": test1, "test2": test2}
        assert len(r.survivors) == found

    def test_shape_possible_gates_divisor_shape(self, monkeypatch):
        # criterion 4a's two F_27 curves: the kill counts are those of a
        # divisor_shape call on every test-1 pass, but the pre-test leaves
        # divisor_shape only the 3 passes it cannot reject
        calls = []

        def spy(E, coeffs, basis, Q, k):
            assert elliptic.shape_possible(E, coeffs, basis, Q)
            calls.append(Q)
            return elliptic.divisor_shape(E, coeffs, basis, Q, k)

        monkeypatch.setattr(search, "divisor_shape", spy)
        kills = []
        for a6 in (F27.one, F27.element("a")):
            E = EllipticCurve(F27, F27.element(2), F27.zero, a6)
            r = search_double_covers_elliptic(E, mode="census")
            assert r.survivors == []
            kills.append(r.kill_counts)
        assert kills == [{"test1": 157350, "test2": 114},
                         {"test1": 78678, "test2": 54}]
        assert len(calls) == 3

    @pytest.mark.parametrize("F, curve, k, top", [
        (F5, (0, 1, 1), 6, "nu"), (F7, (0, 1, 3), 6, "1"),
        (F5, (0, 1, 1), 8, "nu"),
    ], ids=["F5:k6", "F7:k6", "F5:k8"])
    def test_test1_rejects_only_covers_with_points(self, F, curve, k, top):
        # one (Q, top) block of test 1, built as the engine builds it, with
        # the last kernel coordinate fixed to 1 or nu: the join yields
        # exactly the codes whose f is zero or a nonsquare at every
        # rational point, and every other code's cover z^2 = f has a
        # rational point
        E = EllipticCurve(F, *curve)
        basis = rr_basis(k)
        Q = E.quotient_reps(2 if k == 6 else 3)[0]
        kernel = [[F.from_index(v) for v in vec] for vec in
                  search._double_zero_kernel(E, basis, Q)]
        kern = _kernel(F)
        pts = [(F.from_index(P[0]), F.from_index(P[1]))
               for P in E.points() if P is not INF]
        B_at = [[F.index(fn_value(*fn_ab(vec, basis, F), P)) for vec in kernel]
                for P in pts]
        top_val = _kernel(F).nonsquare if top == "nu" else 1
        free = len(kernel) - 1
        not_square = bytearray(kern.sqrt_count(a) != 2 for a in range(F.q))
        passes = set(search._linear_join(
            kern, [range(F.q)] * free, [row[:free] for row in B_at],
            [kern.mul(top_val, row[free]) for row in B_at], not_square))
        rejected = 0
        for code in range(F.q ** free):
            lam = [F.from_index(code // F.q ** i % F.q)
                   for i in range(free)] + [F.from_index(top_val)]
            coeffs = [sum((l * vec[j] for l, vec in zip(lam, kernel)), F.zero)
                      for j in range(len(basis))]
            A, B = fn_ab(coeffs, basis, F)
            values = [fn_value(A, B, P) for P in pts]
            naive = all(v.is_zero() or not v.is_square() for v in values)
            assert (code in passes) == naive, code
            if not naive:
                rejected += 1
                assert cover_count(E, [F.index(c) for c in coeffs],
                                   basis, 1) > 0, code
        assert rejected > 0

    @pytest.mark.parametrize("F, curve, k", [
        (F5, (0, 0, 1), 6), (F7, (0, 1, 3), 6), (F7, (0, 1, 6), 8),
        pytest.param(F11, (0, 1, 1), 8, marks=extended),
        pytest.param(F13, (0, 1, 1), 8, marks=extended),
    ], ids=["F5:k6", "F7:k6", "F7:k8", "F11:k8", "F13:k8"])
    def test_top_normalisation_equals_first_nonzero_stream(self, F, curve,
                                                           k):
        # every lambda != 0 whose first nonzero coordinate is 1 or nu, by a
        # per-candidate test 1 and divisor_shape: none with a zero top
        # coordinate (the coefficient of x^(k/2), the one monomial of pole
        # order k) passes test 2, though some pass test 1, and its
        # survivors scaled by a square to top 1 or nu are the engine's
        E = EllipticCurve(F, *curve)
        kern, q, nu = _kernel(F), F.q, _kernel(F).nonsquare
        basis = rr_basis(k)
        pts = [P for P in E.points() if P is not INF]
        found, top_zero_passes = set(), 0
        for Q in E.quotient_reps(2 if k == 6 else 3):
            kernel = search._double_zero_kernel(E, basis, Q)
            dim = len(kernel)
            B_at = [[F.index(fn_value(*fn_ab(
                [F.from_index(v) for v in vec], basis, F),
                (F.from_index(x), F.from_index(y)))) for vec in kernel]
                for x, y in pts]
            for lead, val in product(range(dim), (1, nu)):
                for code in range(q ** (dim - lead - 1)):
                    lam = [0] * lead + [val] + search._digits(
                        code, q, dim - lead - 1)
                    if any(v and kern.sqrt_count(v) == 2 for v in (
                            _index_dot(kern, lam, row) for row in B_at)):
                        continue
                    coeffs = [_index_dot(kern, lam, col)
                              for col in zip(*kernel)]
                    top_zero_passes += not lam[-1]
                    if not elliptic.divisor_shape(E, coeffs, basis, Q,
                                                  k)["shape_ok"]:
                        continue
                    assert lam[-1], (Q, lam)
                    # 1/top or nu/top, a square either way
                    scale = kern.inv(lam[-1])
                    if kern.sqrt_count(lam[-1]) != 2:
                        scale = kern.mul(nu, scale)
                    coeffs = [kern.mul(scale, c) for c in coeffs]
                    found.add((Q, tuple(coeffs), tuple(
                        cover_count(E, coeffs, basis, i) for i in (1, 2, 3))))
        r = search_double_covers_elliptic(E, genus_target=k // 2,
                                          mode="census")
        assert top_zero_passes > 0
        assert found and {(tuple(s["Q"]), tuple(s["coeffs"]),
                           tuple(s["counts"])) for s in r.survivors} == found
        assert len(r.survivors) == len(found)

    @pytest.mark.parametrize("genus, a6, candidates",
                             [(3, 0, 348), (4, 1, 22116)],
                             ids=["g3", "g4"])
    def test_first_find_stops_in_the_nu_half(self, genus, a6, candidates):
        # y^2 = x^3 + 3x + a6 over F_7: the first representative's top = 1
        # half (its q^(k-3) low codes) has no survivor, and first_find
        # stops in its top = nu half, having counted the candidates up to
        # the stop
        E = EllipticCurve(F7, 0, 3, a6)
        k = 2 * genus
        r = search_double_covers_elliptic(E, genus_target=genus,
                                          mode="first_find")
        assert r.candidates == candidates
        assert 7 ** (k - 3) < candidates <= 2 * 7 ** (k - 3)
        s = r.survivors[0]
        # Q from E/2E at genus 3 and from E/3E at genus 4
        assert tuple(s["Q"]) == E.quotient_reps(genus - 1)[0]
        assert s["coeffs"][rr_basis(k).index((k // 2, 0))] == \
            _kernel(F7).nonsquare
        again = search_double_covers_elliptic(
            E, genus_target=genus, mode="first_find", budget=candidates)
        assert again.survivors == r.survivors
        with pytest.raises(BudgetExceeded):
            search_double_covers_elliptic(E, genus_target=genus,
                                          mode="first_find",
                                          budget=candidates - 1)

    def test_one_table_set_per_representative(self, monkeypatch):
        # each coset representative builds its forms' tables once, one
        # form per rational point, shared by the top = 1 and top = nu
        # halves of its one join
        E = EllipticCurve(F7, 0, 1, 3)
        sets, halves = _spy_tables(monkeypatch)
        search_double_covers_elliptic(E, genus_target=3, mode="census")
        reps, pts = len(E.quotient_reps(2)), len(E.points()) - 1
        assert reps > 1
        assert sets == [pts] * reps
        assert len(halves) == 2 * pts * reps

    def test_budget_boundary(self):
        E = EllipticCurve(F5, 0, 1, 1)
        search_double_covers_elliptic(E, mode="census", budget=250)
        with pytest.raises(BudgetExceeded):
            search_double_covers_elliptic(E, mode="census", budget=249)

    def test_bad_genus_rejected(self):
        with pytest.raises(ValueError):
            E = EllipticCurve(F5, 0, 1, 1)
            search_double_covers_elliptic(E, genus_target=5)


def _unreduced_conductors(F):
    """Every degree-5 conductor over the char-2 field F, as (shape, parts)
    with the places as monic index lists: the irreducible quintics, then
    each irreducible quadratic paired with each irreducible cubic, all in
    odometer order.  This is the census stream before its affine
    reduction.  Irreducibility is read off roots, not tested: a monic
    quadratic or cubic is irreducible iff it has no root in F, and a
    rootless quintic iff it is no such quadratic times such a cubic."""
    kern, q = _kernel(F), F.q

    def rootless(d):
        for code in range(q ** d):
            f = search._digits(code, q, d) + [1]
            if all(kern.horner(f, x) for x in range(q)):
                yield f

    quadratics, cubics = list(rootless(2)), list(rootless(3))
    split = {tuple(kern._pmul(p2, p3))
             for p2 in quadratics for p3 in cubics}
    for m in rootless(5):
        if tuple(m) not in split:
            yield "5", [m]
    for p2 in quadratics:
        for p3 in cubics:
            yield "2+3", [p2, p3]


def _shift(kern, f, b):
    """f(x + b) for the index list f (char 2), by Horner's rule."""
    out = [f[-1]]
    for c in reversed(f[:-1]):
        out = kern._pmul(out, [b, 1])
        out[0] ^= c
    return out


def _affine_normal_form(kern, parts):
    """The conductor's normal form by brute force: every place is shifted
    by the anchor's c_{d-1}, the anchor being the place of odd degree d
    (x -> x + b adds b to it), and the least (anchor, then the other
    place) index tuple is taken over every scaling a^-e f(ax) of that."""
    mul = kern.mul
    anchor = parts[-1]
    shifted = [_shift(kern, f, anchor[-2]) for f in [anchor] + parts[:-1]]
    images = []
    for a in range(1, kern.q):
        ainv, image = kern.inv(a), []
        for f in shifted:
            # coefficient i times a^(i - e), from the leading one down
            w, out = 1, []
            for c in reversed(f):
                out.append(mul(c, w))
                w = mul(w, ainv)
            image.append(tuple(out[::-1]))
        images.append(tuple(image))
    return min(images)


def _anchor_first(parts):
    """A conductor's places as tuples, the odd-degree anchor first."""
    return tuple(map(tuple, parts[-1:] + parts[:-1]))


def _reduced_orbits(F):
    """{normal form: orbit} over the engine's conductor stream."""
    out = {}
    for _, parts, orbit in search._affine_conductors(_kernel(F)):
        key = _anchor_first(parts)
        assert key not in out
        out[key] = orbit
    return out


def _unreduced_census(F, monkeypatch):
    """The engine's census over every conductor (each its own orbit)."""
    with monkeypatch.context() as mp:
        mp.setattr(search, "_affine_conductors", lambda kern: (
            (shape, parts, 1) for shape, parts in _unreduced_conductors(F)))
        return search_hyper_genus4_char2(F, mode="census")


def _assert_census_differential(F, monkeypatch):
    # the affine maps keep every count vector, so the reduced census has
    # the unreduced one's count vectors and classes; its survivors'
    # conductors are normal forms, and they are the normal forms of the
    # unreduced survivors' conductors
    kern = _kernel(F)
    full = _unreduced_census(F, monkeypatch)
    reduced = search_hyper_genus4_char2(F, mode="census")

    def vectors(r):
        return {tuple(z["counts"]) for z in r.zeta}

    def places(s):
        # the places of the survivor's conductor by degree: [p2, p3] or [m]
        return [f for f, _ in kern.factor(s["m"])]

    assert vectors(full) == vectors(reduced)
    assert full.dedup_classes == reduced.dedup_classes
    kept = {_anchor_first(places(s)) for s in reduced.survivors}
    for r in (full, reduced):
        assert {_affine_normal_form(kern, places(s))
                for s in r.survivors} == kept
    return full, reduced


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

    def test_odd_char_rejected(self):
        with pytest.raises(OddCharacteristic):
            search_hyper_genus4_char2(F3)

    def test_f2_census_equals_unreduced(self, monkeypatch):
        full, reduced = _assert_census_differential(F2, monkeypatch)
        assert (full.candidates, len(full.survivors), full.dedup_classes) \
            == (8, 54, 9)
        assert (reduced.candidates, len(reduced.survivors)) == (4, 27)

    @extended
    def test_f4_census_equals_unreduced(self, monkeypatch):
        full, reduced = _assert_census_differential(F4, monkeypatch)
        assert (full.candidates, len(full.survivors), full.dedup_classes) \
            == (324, 20052, 127)
        assert (reduced.candidates, len(reduced.survivors)) == (27, 1671)

    @pytest.mark.parametrize("F", [
        F2, F4, F8, pytest.param(F16, marks=extended)],
        ids=["F2", "F4", "F8", "F16"])
    def test_unreduced_stream_meets_each_normal_form_by_its_orbit(self, F):
        # every conductor's brute-force normal form is in the stream, and
        # each normal form is met by as many conductors as its orbit holds
        kern = _kernel(F)
        met = {}
        for _, parts in _unreduced_conductors(F):
            key = _affine_normal_form(kern, parts)
            met[key] = met.get(key, 0) + 1
        assert met == _reduced_orbits(F)

    # kept conductors, and their orbits' total: the Gauss count
    # N(5) + N(2) N(3), N(k) = (q^k - q)/k.  F_4 and F_16 have scalings
    # a != 1 with a^3 = 1 (and a^5 = 1 over F_16) that fix c_0
    @pytest.mark.parametrize("F, kept", [
        (F2, 4), (F4, 27), (F8, 201), (F16, 1557)],
        ids=["F2", "F4", "F8", "F16"])
    def test_orbits_add_up_to_the_gauss_count(self, F, kept):
        q = F.q
        orbits = _reduced_orbits(F)
        assert len(orbits) == kept
        assert sum(orbits.values()) == \
            (q ** 5 - q) // 5 + (q * q - q) // 2 * ((q ** 3 - q) // 3)

    def test_certificate_fires_on_a_dropped_conductor(self, monkeypatch):
        stream = search._affine_conductors
        monkeypatch.setattr(search, "_affine_conductors",
                            lambda kern: list(stream(kern))[1:])
        with pytest.raises(FilterDisagreement, match="not N"):
            search_hyper_genus4_char2(F2, mode="census")

    @pytest.mark.parametrize("F", [F4, F8], ids=["F4", "F8"])
    def test_verdict_equals_model_count(self, F):
        # seeded (m, g, t) over every shape of conductor, with g kept only
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
    unreduced order, or of every conductor when per_shape is None, as
    Polys (the stream yields index lists)."""
    out = {"5": [], "2+3": []}
    for shape, parts in _unreduced_conductors(F):
        if per_shape is None or len(out[shape]) < per_shape:
            out[shape].append([Poly(F, map(F.from_index, p)) for p in parts])
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
     (3, 1, 1), "895b5aae1454c06b"),
    # re-recorded when the double covers took the top coefficient, of
    # x^(k/2), to 1 or nu instead of the first nonzero one: candidates,
    # kill counts, the first find, survivors scaled by squares and the
    # fingerprint change; parameters, classes and count vectors do not
    ("double_covers@F5:x3+1:census",
     lambda: search_double_covers_elliptic(EllipticCurve(F5, 0, 0, 1),
                                           mode="census"),
     (500, 5, 5), "ec1bf39f1279550a"),
    ("double_covers@F5:x3+1:first",
     lambda: search_double_covers_elliptic(EllipticCurve(F5, 0, 0, 1),
                                           mode="first_find"),
     (40, 1, 1), "e573af763fe1dcc3"),
    # re-recorded when the genus-4 char-2 census took one conductor per
    # affine class: candidates count the kept conductors, the fingerprint
    # names the normal-form order, and kill_counts carries the orbit total
    ("hyper_genus4_char2@F2:census",
     lambda: search_hyper_genus4_char2(F2, mode="census"),
     (4, 27, 9), "5e24a3d911f046a3"),
    ("hyper_genus4_char2@F2:first",
     lambda: search_hyper_genus4_char2(F2, mode="first_find"),
     (1, 1, 1), "32030015da583ea9"),
    # recorded before the Artin-Schreier and fiber-product models took
    # index lists, at a second field for each engine whose candidate path
    # that changed
    ("klein4_hyper_odd@F7:census",
     lambda: search_klein4_hyper_odd(F7, 1, mode="census"),
     (2401, 54, 5), "60c0e30b9ec1cdaa"),
    ("klein4_hyper_odd@F7:first",
     lambda: search_klein4_hyper_odd(F7, 1, mode="first_find"),
     (52, 1, 1), "8df2ca2e0a9b8bfa"),
    ("klein4_hyper_even@F8:first",
     lambda: search_klein4_hyper_even(F8, mode="first_find"),
     (94, 1, 1), "f6289414724b5371"),
    ("hyper_genus4_char2@F4:first",     # re-recorded as @F2 above
     lambda: search_hyper_genus4_char2(F4, mode="first_find"),
     (1, 1, 1), "32b0860146776d4f"),
    ("fiberproduct@F5:first",
     lambda: search_fiberproduct(F5, mode="first_find"),
     (138, 1, 1), "e2c9922b3c389f3d"),
    # recorded before the join built its tables with bytes.translate: the
    # genus-4 double covers join up to five free coordinates (r = 3 right
    # digits), and the odd Klein-four census runs over F_13; the double
    # covers re-recorded with the top-coefficient normalisation as above
    ("double_covers@F11:x3+x+1:g4:census",
     lambda: search_double_covers_elliptic(EllipticCurve(F11, 0, 1, 1), 4,
                                           mode="census"),
     (322102, 13, 10), "d32bc0a576597830"),
    ("double_covers@F13:x3+x+1:g4:census",
     lambda: search_double_covers_elliptic(EllipticCurve(F13, 0, 1, 1), 4,
                                           mode="census"),
     (2227758, 5, 3), "c1ce998180a4c7b7"),
    ("klein4_hyper_odd@F13:census",
     lambda: search_klein4_hyper_odd(F13, 1, mode="census"),
     (28561, 63, 4), "83137339126154ab"),
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


@pytest.mark.parametrize("run, sizes, digest",
                         [pin[1:] for pin in REPORT_PINS],
                         ids=[pin[0] for pin in REPORT_PINS])
def test_budget_boundary_is_the_pinned_candidate_count(
        monkeypatch, run, sizes, digest):
    # every engine spends its budget up to the last candidate it counts:
    # the pinned count as the budget gives the pinned report, and one
    # less raises.  The pins call the engines by their names here, so
    # each name is bound to its engine with the budget.
    engines = {name: engine for name, engine in globals().items()
               if name.startswith("search_")}

    def capped(budget):
        for name, engine in engines.items():
            monkeypatch.setitem(globals(), name,
                                functools.partial(engine, budget=budget))
        return run

    report = capped(sizes[0])().to_json()
    report.pop("wall_time")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    with pytest.raises(BudgetExceeded):
        capped(sizes[0] - 1)()
