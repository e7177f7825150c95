"""Zeta pipeline: pinned paper values, roundtrips, and bound gates."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from pointless.errors import NonIntegralResult
from pointless.zeta import (
    expand_real_weil,
    l_from_counts,
    pointless_q_range,
    predicted_counts,
    real_weil_from_l,
    serre_bound_holds,
    validate_weil,
    zeta_report,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestLFromCounts:
    def test_elliptic_trace_11(self):
        assert l_from_counts(32, 1, [22]) == [1, -11, 32]

    def test_f25_genus3(self):
        # (1 - 10T + 25T^2)^2 (1 - 6T + 25T^2)
        expected = poly_mul(poly_mul([1, -10, 25], [1, -10, 25]), [1, -6, 25])
        assert l_from_counts(25, 3, [0, 540, 15360]) == expected

    def test_f32_genus3(self):
        expected = poly_mul(poly_mul([1, -11, 32], [1, -11, 32]), [1, -11, 32])
        assert l_from_counts(32, 3, [0, 854, 31944]) == expected

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralResult):
            l_from_counts(5, 2, [1, 2])  # S_1 = 5, S_2 = 24: e_2 = 1/2

    def test_negative_genus_is_refused(self):
        # refused by name, not read as a count length
        with pytest.raises(ValueError, match="genus must be at least 0"):
            l_from_counts(5, -1, [])


class TestRealWeil:
    def test_cube_trace_11(self):
        L = poly_mul(poly_mul([1, -11, 32], [1, -11, 32]), [1, -11, 32])
        # (x - 11)^3 = -1331 + 363x - 33x^2 + x^3
        assert real_weil_from_l(L, 32, 3) == [-1331, 363, -33, 1]

    def test_f25_h(self):
        L = l_from_counts(25, 3, [0, 540, 15360])
        # (x - 10)^2 (x - 6)
        assert real_weil_from_l(L, 25, 3) == poly_mul(poly_mul([-10, 1], [-10, 1]), [-6, 1])

    def test_f27_h(self):
        L = poly_mul(poly_mul([1, -10, 27], [1, -10, 27]), [1, -8, 27])
        assert real_weil_from_l(L, 27, 3) == poly_mul(poly_mul([-10, 1], [-10, 1]), [-8, 1])

    def test_expand_inverse(self):
        L = l_from_counts(25, 3, [0, 540, 15360])
        h = real_weil_from_l(L, 25, 3)
        assert expand_real_weil(h, 25, 3) == L

    def test_functional_equation_violation(self):
        with pytest.raises(NonIntegralResult):
            real_weil_from_l([1, 0, 0, 0, 0, 0, 1], 5, 3)


class TestPredictedCounts:
    def test_f25_n2(self):
        L = l_from_counts(25, 3, [0, 540, 15360])
        assert predicted_counts(L, 25, 2) == 540

    def test_trace11_cube_n1(self):
        L = poly_mul(poly_mul([1, -11, 32], [1, -11, 32]), [1, -11, 32])
        assert predicted_counts(L, 32, 1) == 0

    def test_f27_n2(self):
        L = poly_mul(poly_mul([1, -10, 27], [1, -10, 27]), [1, -8, 27])
        assert predicted_counts(L, 27, 2) == 628


class TestValidateWeil:
    def test_paper_h_values(self):
        assert validate_weil([-600, 220, -26, 1], 25)         # (x-10)^2(x-6)
        assert validate_weil(poly_mul(poly_mul([-10, 1], [-10, 1]), [-8, 1]), 27)

    def test_boundary(self):
        assert validate_weil([-10, 1], 25)                    # x = 10 = 2 sqrt(25)
        assert not validate_weil([-12, 1], 25)
        assert validate_weil([-2, 0, 1], 2)                   # +/- sqrt(2) in [-2sqrt2, 2sqrt2]

    def test_irrational_quadratic_factor(self):
        # (x - 10)(x^2 - 16x + 62): roots 10 and 8 +/- sqrt(2), all in [-10, 10]
        h = poly_mul([-10, 1], [62, -16, 1])
        assert validate_weil(h, 25)

    def test_complex_roots_rejected(self):
        for h, q in [
                ([1, 0, 1], 25),                    # x^2 + 1
                ([1, 1, 1, 1], 5),                  # (x + 1)(x^2 + 1)
                ([-1, 1, -1, 1], 5),                # (x - 1)(x^2 + 1)
                ([0, 0, -1, 2, -2, 1], 2),          # x^2 (x - 1)(x^2 - x + 1)
                ([0, 0, 1, 0, 0, 1], 4),            # x^2 (x + 1)(x^2 - x + 1)
                ([-6, -6, 1, 1, 1, 1], 3)]:         # (x + 1)(x^2 - 2)(x^2 + 3)
            assert not validate_weil(h, q), (h, q)

    def test_non_monic_or_non_integer_refused(self):
        for h in ([-10, 2], [1, 1, 0], [], [Fraction(1, 2), 1]):
            with pytest.raises(ValueError):
                validate_weil(h, 25)

    def test_zero_root_ok(self):
        assert validate_weil([0, 1], 5)                       # x

    def test_all_paper_f1_to_f4(self):
        f1 = poly_mul(poly_mul([-10, 1], [-10, 1]), [-6, 1])
        f2 = poly_mul([-10, 1], [62, -16, 1])
        f3 = poly_mul(poly_mul([-10, 1], [-9, 1]), [-7, 1])
        f4 = poly_mul(poly_mul([-10, 1], [-8, 1]), [-8, 1])
        for h in (f1, f2, f3, f4):
            assert validate_weil(h, 25)


class TestBounds:
    def test_paper_gates(self):
        assert pointless_q_range(2, "weil") == 13
        assert pointless_q_range(3, "weil") == 32
        assert pointless_q_range(4, "serre") == 59

    def test_no_prime_power_qualifies(self):
        # q + 1 > 2 sqrt(q) for every q > 1, so neither bound admits a
        # pointless curve of genus 1, nor of genus 0
        assert pointless_q_range(1, "serre") is None
        assert pointless_q_range(1, "weil") is None
        assert pointless_q_range(0, "weil") is None
        assert pointless_q_range(0, "serre") is None

    def test_negative_genus_is_refused(self):
        with pytest.raises(ValueError, match="genus must be at least 0"):
            pointless_q_range(-1, "weil")

    def test_serre_bound_holds(self):
        assert serre_bound_holds(25, 3, 0)
        assert not serre_bound_holds(32, 3, 70)


class TestZetaReport:
    def test_pipeline(self):
        rep = zeta_report(25, 3, [0, 540, 15360])
        assert rep.valid
        assert rep.real_weil == [-600, 220, -26, 1]
        assert rep.predicted[3] == 15360
        j = rep.to_json()
        assert j["predicted_counts"]["2"] == 540


def _random_weil_counts(q, g, rng):
    """Counts from g random Frobenius quadratics x^2 - t x + q, |t| <= 2 sqrt(q)."""
    import math
    tmax = math.isqrt(4 * q)
    traces = [rng.randint(-tmax, tmax) for _ in range(g)]
    counts = []
    # power sums via per-factor recurrences s_k = t s_{k-1} - q s_{k-2}
    for i in range(1, g + 1):
        total = 0
        for t in traces:
            s = [2, t]
            for k in range(2, i + 1):
                s.append(t * s[-1] - q * s[-2])
            total += s[i]
        counts.append(q ** i + 1 - total)
    return counts, traces


@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_roundtrip_fuzz(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 5, 7, 9, 11, 13, 25, 27, 32])
    g = rng.choice([1, 2, 3, 4])
    counts, traces = _random_weil_counts(q, g, rng)
    if any(c < 0 for c in counts):
        return
    L = l_from_counts(q, g, counts)
    assert L[0] == 1
    for i in range(g):
        assert L[2 * g - i] == q ** (g - i) * L[i]
    for i in range(1, g + 1):
        assert predicted_counts(L, q, i) == counts[i - 1]
    h = real_weil_from_l(L, q, g)
    assert h[-1] == 1
    assert validate_weil(h, q)
    assert h[g - 1] == -sum(traces)  # trace of Frobenius pairs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_validate_rejects_out_of_band(seed):
    rng = random.Random(seed)
    q = rng.choice([5, 9, 25])
    import math
    t_bad = math.isqrt(4 * q) + 1 + rng.randint(0, 5)
    h = [-t_bad, 1]
    assert not validate_weil(h, q)


def _factor(q):
    """One factor of h with the verdict that validate_weil must give for
    it alone: x - t, x^2 - s (s >= 0), x^k, or x^2 + bx + c with b^2 < 4c."""
    band = isqrt(4 * q)
    linear = st.integers(-band - 2, band + 2).map(
        lambda t: ([-t, 1], t * t <= 4 * q))
    square = st.integers(0, 4 * q + 4).map(
        lambda s: ([-s, 0, 1], s <= 4 * q))
    power = st.integers(1, 3).map(lambda k: ([0] * k + [1], True))
    nonreal = st.tuples(st.integers(-band, band), st.integers(1, 2 * q)).map(
        lambda bc: ([bc[0] * bc[0] // 4 + bc[1], bc[0], 1], False))
    return st.one_of(linear, square, power, nonreal)


@st.composite
def _factored_h(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]))
    factors = draw(st.lists(_factor(q), min_size=1, max_size=3))
    # repeat a factor, so that repeated and zero roots meet nonreal ones
    factors += draw(st.lists(st.sampled_from(factors), max_size=2))
    return q, factors


@given(_factored_h())
@settings(max_examples=150, deadline=None)
def test_validate_weil_by_factors(qf):
    q, factors = qf
    h = [1]
    for f, _ in factors:
        h = poly_mul(h, f)
    assert validate_weil(h, q) == all(ok for _, ok in factors)
