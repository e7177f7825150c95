"""Point counts -> L-polynomials -> real Weil polynomials, plus the exact
Weil/Serre bound gates.

All arithmetic is exact: big integers, Fractions, and Sturm sequences.
Integer polynomials are stored as ascending coefficient lists.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

from .errors import NonIntegralResult
from .field import _prime_factors


def l_from_counts(q, g, counts):
    """L-polynomial coefficients [a_0 .. a_2g] from counts [N_1 .. N_g].

    Power sums S_i = q^i + 1 - N_i feed Newton's identities for the
    elementary symmetric functions of the Frobenius eigenvalues; the top
    half follows from the functional equation a_{2g-i} = q^{g-i} a_i.
    """
    if len(counts) != g:
        raise ValueError(f"need exactly {g} counts, got {len(counts)}")
    if any(N < 0 for N in counts):
        raise NonIntegralResult("negative point count")
    S = [q ** i + 1 - counts[i - 1] for i in range(1, g + 1)]
    e = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * S[i - 1]
        e.append(acc / k)
    a = [0] * (2 * g + 1)
    for k in range(g + 1):
        v = (-1) ** k * e[k]
        if v.denominator != 1:
            raise NonIntegralResult(
                f"counts give non-integral L coefficient a_{k} = {v}")
        a[k] = int(v)
    for i in range(g):
        a[2 * g - i] = q ** (g - i) * a[i]
    return a


def predicted_counts(L, q, i):
    """N_i from the L-polynomial via Newton recurrences (exact)."""
    deg = len(L) - 1
    s = [0] * (i + 1)  # power sums of the eigenvalues
    for k in range(1, i + 1):
        acc = -k * (L[k] if k <= deg else 0)
        for j in range(1, min(k, deg) + 1):
            if j < k:
                acc -= L[j] * s[k - j]
        s[k] = acc
    return q ** i + 1 - s[i]


def real_weil_from_l(L, q, g):
    """The monic degree-g integer h with L(T) = T^g h(1/T + qT).

    Matching the coefficient of T^{g-j} gives the triangular system
    a_{g-j} = sum_m b_{j+2m} C(j+2m, m) q^m, solved top-down.
    """
    if len(L) != 2 * g + 1:
        raise ValueError("L must have degree 2g")
    b = [0] * (g + 1)
    for j in range(g, -1, -1):
        acc = L[g - j]
        m = 1
        while j + 2 * m <= g:
            acc -= b[j + 2 * m] * comb(j + 2 * m, m) * q ** m
            m += 1
        b[j] = acc
    if expand_real_weil(b, q, g) != list(L):
        raise NonIntegralResult("L does not satisfy the functional equation")
    return b


def expand_real_weil(h, q, g):
    """Coefficients of T^g h(1/T + qT) — the inverse of real_weil_from_l."""
    out = [0] * (2 * g + 1)
    for j, bj in enumerate(h):
        # b_j T^{g-j} (1 + qT^2)^j
        for m in range(j + 1):
            out[g - j + 2 * m] += bj * comb(j, m) * q ** m
    return out


# ---------------------------------------------------------------------------
# exact real-root location via Sturm sequences over Q
# ---------------------------------------------------------------------------

def _qtrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _qderiv(f):
    return _qtrim([f[i] * i for i in range(1, len(f))])


def _qrem(a, b):
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = Fraction(a[-1], 1) / b[-1]
        k = len(a) - 1 - db
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a.pop()
        _qtrim(a)
    return a


def _qeval(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _sturm_chain(f):
    chain = [f, _qderiv(f)]
    while chain[-1]:
        r = _qrem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_changes(chain, x):
    signs = []
    for f in chain:
        v = _qeval(f, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_in(f, lo, hi):
    """Distinct real roots of the integer/rational polynomial f in (lo, hi]."""
    f = _qtrim([Fraction(c) for c in f])
    if len(f) <= 1:
        return 0
    chain = _sturm_chain(f)
    return _sign_changes(chain, Fraction(lo)) - _sign_changes(chain, Fraction(hi))


def _squarefree_q(f):
    g = _qderiv(list(f))
    a, b = list(f), g
    while b:
        a, b = b, _qrem(a, b)
    if len(a) <= 1:
        return list(f)
    # divide f by gcd a
    lead = a[-1]
    a = [c / lead for c in a]
    quot = []
    rem = list(f)
    da = len(a) - 1
    while len(rem) - 1 >= da and rem:
        c = rem[-1]
        quot.append(c)
        k = len(rem) - 1 - da
        for i, y in enumerate(a):
            rem[k + i] -= c * y
        rem.pop()
        _qtrim(rem)
    quot.reverse()
    return _qtrim(quot)


def validate_weil(h, q):
    """True iff every root of h is real and lies in [-2 sqrt(q), 2 sqrt(q)].

    Squaring the roots turns the irrational interval into [0, 4q]: with
    u(x^2) = (-1)^deg h(x) h(-x), all roots of h lie in [-2 sqrt(q), 2 sqrt(q)]
    iff all roots of u are real and lie in [0, 4q].
    """
    h = _qtrim([Fraction(c) for c in h])
    d = len(h) - 1
    if d <= 0:
        return True
    hm = [(-1) ** i * c for i, c in enumerate(h)]  # h(-x)
    prod = [Fraction(0)] * (2 * d + 1)
    for i, x in enumerate(h):
        for j, y in enumerate(hm):
            prod[i + j] += x * y
    u = [(-1) ** d * prod[2 * k] for k in range(d + 1)]
    usf = _squarefree_q(u)
    want = len(usf) - 1
    bound = 1 + max(abs(c) for c in usf[:-1]) / abs(usf[-1]) if want else Fraction(1)
    inside = count_real_roots_in(usf, -bound, 4 * q)
    negatives = count_real_roots_in(usf, -bound, 0)
    if _qeval(usf, Fraction(0)) == 0:
        negatives -= 1  # a root of u at exactly 0 means h(0) = 0, which is legal
    return inside == want and negatives == 0


# ---------------------------------------------------------------------------
# bound gates
# ---------------------------------------------------------------------------

def pointless_q_range(g, kind):
    """Largest prime power q where the chosen bound still allows N_1 = 0.

    weil:  q + 1 <= 2g sqrt(q), compared exactly as (q+1)^2 <= 4 g^2 q.
    serre: q + 1 <= g * floor(2 sqrt(q)).
    """
    if kind not in ("weil", "serre"):
        raise ValueError(f"unknown bound kind {kind!r}")
    limit = 8 * g * g + 16
    best = None
    for q in range(2, limit + 1):
        if len(set(_prime_factors(q))) != 1:
            continue                  # not a prime power
        if kind == "weil":
            ok = (q + 1) ** 2 <= 4 * g * g * q
        else:
            ok = q + 1 <= g * isqrt(4 * q)
        if ok:
            best = q
    return best


def serre_bound_holds(q, g, N1):
    return abs(N1 - (q + 1)) <= g * isqrt(4 * q)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class ZetaReport:
    q: int
    genus: int
    counts: list
    L: list
    real_weil: list
    valid: bool
    predicted: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "q": self.q,
            "genus": self.genus,
            "counts": list(self.counts),
            "L": list(self.L),
            "real_weil": list(self.real_weil),
            "valid": self.valid,
            "predicted_counts": {str(k): v for k, v in self.predicted.items()},
        }


def zeta_report(q, g, counts, depth=None):
    """Full pipeline: counts -> L -> h -> validity -> predictions."""
    L = l_from_counts(q, g, counts)
    h = real_weil_from_l(L, q, g)
    valid = validate_weil(h, q)
    depth = depth or 2 * g
    predicted = {i: predicted_counts(L, q, i) for i in range(1, depth + 1)}
    return ZetaReport(q, g, list(counts), L, h, valid, predicted)
