"""Point counts -> L-polynomials -> real Weil polynomials, plus the exact
Weil/Serre bound gates.

All arithmetic is on integers.  Integer polynomials are stored as
ascending coefficient lists; Newton's identities (_power_sums and its
inverse _coefficients) carry a polynomial 1 + c_1 T + ... + c_d T^d =
prod (1 - x T) to the power sums of its roots x and back.  A real Weil
polynomial is checked by Hermite's theorem on two integer Hankel forms
(validate_weil).
"""

from dataclasses import dataclass, field
from math import comb, isqrt

from .errors import NonIntegralResult
from .field import _prime_factors


def _power_sums(c, n):
    """[s_0 .. s_n], s_k the sum of x^k over the d roots x of
    1 + c_1 T + ... + c_d T^d = prod (1 - x T), by Newton's identities
    s_k = -k c_k - sum_{0<j<k} c_j s_{k-j} (c_k = 0 past d)."""
    d = len(c) - 1
    s = [d]
    for k in range(1, n + 1):
        s.append(-k * (c[k] if k <= d else 0)
                 - sum(c[j] * s[k - j] for j in range(1, min(k, d + 1))))
    return s


def _coefficients(s):
    """The inverse of _power_sums: [1, c_1 .. c_n] from [s_0 .. s_n], by
    k c_k = -sum_{0<i<=k} c_{k-i} s_i.  Raises NonIntegralResult when some
    c_k is not an integer (which _psd's traces never give)."""
    c = [1]
    for k in range(1, len(s)):
        acc = -sum(c[k - i] * s[i] for i in range(1, k + 1))
        if acc % k:
            raise NonIntegralResult(
                f"counts give non-integral L coefficient a_{k} = {acc}/{k}")
        c.append(acc // k)
    return c


def l_from_counts(q, g, counts):
    """L-polynomial coefficients [a_0 .. a_2g] from counts [N_1 .. N_g].

    The power sums S_i = q^i + 1 - N_i of the Frobenius eigenvalues give
    a_0 .. a_g by Newton's identities; the top half follows from the
    functional equation a_{2g-i} = q^{g-i} a_i.
    """
    if g < 0:
        raise ValueError(f"genus must be at least 0, got {g}")
    if len(counts) != g:
        raise ValueError(f"need exactly {g} counts, got {len(counts)}")
    if any(N < 0 for N in counts):
        raise NonIntegralResult("negative point count")
    a = _coefficients([2 * g] + [q ** i + 1 - counts[i - 1]
                                 for i in range(1, g + 1)])
    return a + [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]


def predicted_counts(L, q, i):
    """N_i from the L-polynomial: q^i + 1 minus the i-th power sum of its
    reciprocal roots."""
    return q ** i + 1 - _power_sums(L, i)[i]


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


def _psd(A):
    """True iff the symmetric integer matrix A is positive semidefinite,
    that is iff prod (1 - lambda T) over its eigenvalues lambda has
    coefficients of alternating sign (all e_k(lambda) >= 0).  The
    coefficients come from the traces of A, A^2, .., A^d by Le Verrier's
    method, Newton's identities again (_coefficients); they are the
    characteristic polynomial's, integers, so every division is exact."""
    d = len(A)
    traces, P = [d, sum(A[i][i] for i in range(d))], A
    while len(traces) <= d:
        P = [[sum(r[k] * A[k][j] for k in range(d)) for j in range(d)]
             for r in P]
        traces.append(sum(P[i][i] for i in range(d)))
    return all((-1) ** k * c >= 0
               for k, c in enumerate(_coefficients(traces)))


def validate_weil(h, q):
    """True iff every root of the monic integer polynomial h is real and
    lies in [-2 sqrt(q), 2 sqrt(q)]; ValueError unless h is monic with
    integer coefficients.

    Hermite's theorem on the power sums s_k of the d roots x (with
    multiplicity): the Hankel form H = [s_(i+j)], 0 <= i, j < d, takes
    the coefficient vector of a polynomial p of degree < d to
    sum_x p(x)^2, so it is positive semidefinite exactly when no root is
    nonreal (a conjugate pair gives it a negative direction).  With every root real,
    M = [4q s_(i+j) - s_(i+j+2)] is sum_x (4q - x^2) p(x)^2, and since the
    Vandermonde vectors of distinct roots are independent, it is positive
    semidefinite exactly when no root has x^2 > 4q.
    """
    if not h or h[-1] != 1 or not all(isinstance(c, int) for c in h):
        raise ValueError(f"validate_weil needs a monic integer h, got {h}")
    d = len(h) - 1
    s = _power_sums(h[::-1], 2 * d)
    return (_psd([[s[i + j] for j in range(d)] for i in range(d)])
            and _psd([[4 * q * s[i + j] - s[i + j + 2] for j in range(d)]
                      for i in range(d)]))


# ---------------------------------------------------------------------------
# bound gates
# ---------------------------------------------------------------------------

def pointless_q_range(g, kind):
    """Largest prime power q where the chosen bound still allows N_1 = 0.

    weil:  q + 1 <= 2g sqrt(q), compared exactly as (q+1)^2 <= 4 g^2 q.
    serre: q + 1 <= g * floor(2 sqrt(q)).
    None when no prime power qualifies (genus 0 and genus 1, under either
    bound); ValueError for a negative genus.
    """
    if kind not in ("weil", "serre"):
        raise ValueError(f"unknown bound kind {kind!r}")
    if g < 0:
        raise ValueError(f"genus must be at least 0, got {g}")
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
    if depth is None:
        depth = 2 * g
    predicted = {i: predicted_counts(L, q, i) for i in range(1, depth + 1)}
    return ZetaReport(q, g, list(counts), L, h, valid, predicted)
