"""Search engines: fixture recovery, filter-vs-oracle agreement, budgets,
checkpoints, and determinism."""

import json
import os
import random

import pytest

from pointless import search
from pointless.curves import ArtinSchreierCurve, HyperellipticOdd, PlaneQuartic
from pointless.elliptic import EllipticCurve
from pointless.errors import (
    BudgetExceeded,
    EvenCharacteristic,
    OddCharacteristic,
    UnknownFamily,
)
from pointless.field import FiniteField, Poly, RationalFunction
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
from pointless.curves import square_set

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2, [1, 1, 1])
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2, [-1, -1, 1])
F13 = FiniteField(13)


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
            sq = square_set(F)
            nonzero = [v for v in F.elements() if not v.is_zero()]
            for _ in range(25):
                b, c = rng.choice(nonzero), rng.choice(nonzero)
                d, e, f = (F.from_index(rng.randrange(F.q)) for _ in range(3))
                C = PlaneQuartic(F, {(4, 0, 0): F.one, (0, 4, 0): b,
                                     (0, 0, 4): c, (2, 2, 0): d,
                                     (2, 0, 2): e, (0, 2, 2): f})
                assert _diagonal_has_point(F, b, c, d, e, f, sq) == \
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


class TestDoubleCovers:
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

    def test_odd_char_rejected(self):
        with pytest.raises(OddCharacteristic):
            search_hyper_genus4_char2(F3)


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
