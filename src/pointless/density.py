"""Chebotarev-style density heuristics.

Given a transitive permutation group G of degree d (the Galois group of the
closure of a degree-d cover, acting on the fiber), delta is the fraction of
elements of G with at least one fixed point: the density of places where the
fiber acquires a degree-one point.  A curve needing every one of N such
fibers to stay pointless does so with heuristic probability (1-delta)^N.

Also contains a deterministic Monte-Carlo rig (splitmix64) for measuring
actual pointless rates in the curve families.  Each family is a set-up,
run once per montecarlo_pointless_rate call, that returns sample(rng):
whether the member drawn from one sub-seeded stream is pointless.
klein4_hyper_odd judges its draws on the field's index kernel alone: five
indices give g, a g that HyperellipticOdd would refuse (g(0) = 0, or g
inseparable) is rerolled, and y^2 = g(x^2) is counted fibre by fibre as
the model counts an even f (curves._even_fibres), once per distinct g per
call.  Separability is a lookup of g / lc(g) in a table, built once per
call, of the q^3 inseparable monic quartics: those with a repeated root,
(x - r)^2 (x^2 + s x + t) or (x^2 + u x + v)^2.  diagonal_quartic
rerolls a singular draw by the diagonal engine's closed form
(curves._diagonal_smooth) and builds and counts only a smooth one;
fiberproduct builds its curve for each draw and counts its points.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .curves import (
    FiberProductGenus4,
    _diagonal_model,
    _diagonal_smooth,
    _even_fibres,
)
from .errors import (
    EvenCharacteristic,
    FilterDisagreement,
    GroupTooLarge,
    NotTransitive,
    ParseError,
    UnknownFamily,
    UnsupportedShape,
)
from .field import _kernel

MAX_GROUP_ORDER = 10 ** 6


# ---------------------------------------------------------------------------
# permutations in cycle notation
# ---------------------------------------------------------------------------

def parse_permutation(text, degree):
    """Parse cycle notation like "(1 2 3)(4 5)" into a tuple mapping
    0-based points; "()" is the identity.  Points are 1-based in the text."""
    perm = list(range(degree))
    seen = set()
    i = 0
    n = len(text)
    line = 1

    def err(msg, col):
        raise ParseError(msg, line, col + 1)

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            err(f"expected '(' but found {ch!r}", i)
        j = text.find(")", i)
        if j < 0:
            err("unclosed cycle", i)
        body = text[i + 1:j].replace(",", " ").split()
        cycle = []
        for tok in body:
            if not tok.isdigit():
                err(f"bad point {tok!r}", i)
            v = int(tok)
            if not 1 <= v <= degree:
                err(f"point {v} outside 1..{degree}", i)
            if v - 1 in seen:
                err(f"point {v} repeated", i)
            seen.add(v - 1)
            cycle.append(v - 1)
        for k, v in enumerate(cycle):
            perm[v] = cycle[(k + 1) % len(cycle)]
        i = j + 1
    return tuple(perm)


def _compose(a, b):
    """a after b."""
    return tuple(a[b[i]] for i in range(len(a)))


def group_closure(generators, degree):
    """All elements generated by the given permutations (BFS)."""
    ident = tuple(range(degree))
    gens = [g for g in generators if len(g) == degree]
    if len(gens) != len(generators):
        raise ValueError("generator degree mismatch")
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = _compose(g, e)
                if h not in elems:
                    if len(elems) >= MAX_GROUP_ORDER:
                        raise GroupTooLarge(
                            f"group order exceeds {MAX_GROUP_ORDER}")
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


def is_transitive(elems, degree):
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for p in frontier:
            for e in elems:
                q = e[p]
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(orbit) == degree


@dataclass(frozen=True)
class DensityProblem:
    degree: int
    generators: tuple  # cycle-notation strings or permutation tuples

    def parsed_generators(self):
        return [parse_permutation(g, self.degree) if isinstance(g, str)
                else tuple(g) for g in self.generators]


@dataclass(frozen=True)
class DensityResult:
    degree: int
    order: int
    delta: Fraction              # fraction of elements with a fixed point
    lower_bound: Fraction        # 1/d
    upper_bound: Fraction        # 1 - (d-1)/|G|
    is_galois: bool              # |G| == d (regular action)

    def to_json(self):
        return {
            "degree": self.degree,
            "order": self.order,
            "delta": str(self.delta),
            "lower_bound": str(self.lower_bound),
            "upper_bound": str(self.upper_bound),
            "is_galois": self.is_galois,
        }


def compute_density(problem):
    """delta = fraction of group elements fixing at least one point (the
    union of the point-stabilizer conjugates)."""
    degree = problem.degree
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    elems = group_closure(problem.parsed_generators(), degree)
    if not is_transitive(elems, degree):
        raise NotTransitive(f"group is not transitive on {degree} points")
    fixing = sum(1 for e in elems if any(e[i] == i for i in range(degree)))
    order = len(elems)
    return DensityResult(
        degree=degree,
        order=order,
        delta=Fraction(fixing, order),
        lower_bound=Fraction(1, degree),
        upper_bound=1 - Fraction(degree - 1, order),
        is_galois=(order == degree),
    )


def heuristic_pointless_probability(delta, base_point_count):
    """Probability that all base_point_count fibers miss their degree-one
    point: (1 - delta)^N, exact."""
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    if base_point_count < 0:
        raise ValueError("point count must be nonnegative")
    return (1 - delta) ** base_point_count


# ---------------------------------------------------------------------------
# deterministic Monte Carlo
# ---------------------------------------------------------------------------

class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64)."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK
        self._bound = self._limit = None   # below(): last bound, its limit

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n) (rejection sampling, no modulo bias):
        words from the largest multiple of n up to 2^64 are redrawn.  That
        limit is taken once per bound, not per word: a stream draws below
        the same bound again and again."""
        if n != self._bound:
            if n <= 0:
                raise ValueError("below() needs a positive bound")
            self._bound, self._limit = n, (1 << 64) - (1 << 64) % n
        limit = self._limit
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def wilson_interval(hits, n, z=1.96):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = hits / n
    z2 = z * z
    denom = 1 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = z * ((phat * (1 - phat) / n + z2 / (4 * n * n)) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class MonteCarloReport:
    family: str
    q: int
    samples: int
    pointless: int
    rate: float
    wilson95: tuple
    heuristic: float
    family_heuristic: float | None   # None: no figure for the family
    seed: int

    def to_json(self):
        return {
            "family": self.family,
            "q": self.q,
            "samples": self.samples,
            "pointless": self.pointless,
            "rate": self.rate,
            "wilson95": list(self.wilson95),
            "heuristic": self.heuristic,
            "family_heuristic": self.family_heuristic,
            "seed": self.seed,
        }


def klein4_hyper_odd_heuristic(q):
    """Heuristic pointless rate of the sampled family y^2 = g(x^2), g of
    degree 4, over F_q (q odd).

    The curve is pointless exactly when lc(g) is a nonsquare (no point at
    infinity), g(0) is a nonsquare (none over x = 0) and g(t) is a
    nonsquare at each of the (q - 1)/2 nonzero squares t (none over
    x = +-sqrt(t)); a nonsquare x^2 carries no condition.  lc(g) is
    uniform on F_q^*, and separability forces g(0) != 0, so each of these
    two is a nonsquare with probability 1/2; each g(t) is near uniform on
    F_q, a nonsquare with probability (q - 1)/(2q).  Taking the conditions
    as independent gives (1/4) ((q - 1)/(2q))^((q - 1)/2)."""
    return Fraction(1, 4) * Fraction(q - 1, 2 * q) ** ((q - 1) // 2)


def _inseparable_monic_quartics(kern):
    """The inseparable monic quartics over kern's field (p odd), each as
    the tuple (c_0, c_1, c_2, c_3) of its coefficient indices.

    A monic quartic h is inseparable when it has a repeated root.  A
    repeated root in F_q gives (x - r)^2 (x^2 + s x + t); one outside
    F_q has its conjugate as a second repeated root, so it is a root of an
    irreducible m with m^2 | h: h = (x^2 + u x + v)^2.  The set holds
    both kinds, and it has q^3 members, q^4 less the q^4 - q^3 squarefree
    monic quartics; any other size raises FilterDisagreement.  For a fixed
    r, (x^2 + a x + b)(x^2 + s x + t) with a = -2r and b = r^2 is affine
    in (s, t): c_3 = s + a, c_2 = t + (a s + b), c_1 = a t + b s and
    c_0 = b t, read off rows of the addition table."""
    q, mul, add, add_row = kern.q, kern.mul, kern.add, kern.add_row
    out = set()
    for r in range(q):
        a, b = kern.neg(add(r, r)), mul(r, r)
        at = [mul(a, t) for t in range(q)]
        bt = [mul(b, t) for t in range(q)]
        for s in range(q):
            c2 = add_row(add(mul(a, s), b))
            c1 = add_row(mul(b, s))
            out.update(zip(bt, map(c1.__getitem__, at), c2,
                           repeat(add(s, a))))
    for u in range(q):
        uu = mul(u, u)
        for v in range(q):
            uv = mul(u, v)
            out.add((mul(v, v), add(uv, uv), add(uu, add(v, v)), add(u, u)))
    if len(out) != q ** 3:
        raise FilterDisagreement(
            f"F_{q}: {len(out)} inseparable monic quartics, not q^3 = "
            f"{q ** 3}")
    return frozenset(out)


def _klein4_hyper_odd(F):
    """Set-up of klein4_hyper_odd: y^2 = f(x), f = g(x^2) of degree 8 (the
    Klein-four-symmetric family).  A draw is five indices below q, g_0
    first; it is rerolled while g_4 = 0, g_0 = 0 or g / g_4 is an
    inseparable monic quartic, which are the draws the HyperellipticOdd
    constructor refuses (f is squarefree iff g(0) != 0 and g is
    separable).  Each distinct draw is judged once per set-up: pointless
    when no fibre of _even_fibres has a point, stopping at the first that
    has one.

    The set-up builds the table of the q^3 inseparable monic quartics
    (_inseparable_monic_quartics) with about q^3 kernel products; a draw
    is made monic on logs, exp[log c - log g_4], and looked up in it.  The
    table takes 1.2 ms at q = 13, 10 ms at q = 25 and 14-18 ms at q = 31
    to build, the addition rows included (2-core Intel Xeon VM, Python
    3.11), and holds 729 tuples at q = 9.

    The memo of judged draws pays off only when the draws are many next
    to the q^4 (q - 1) possible g: criterion 9's 100k samples repeat 98% /
    89% / 62% of their draws over F_5 / F_7 / F_9, 4,000 samples 63% /
    17% / 5%.  For a large q it holds one entry per draw and saves
    nothing."""
    if F.p == 2:
        raise EvenCharacteristic("family needs odd characteristic")
    kern, q, seen = _kernel(F), F.q, {}
    exp, log, n1 = kern.exp, kern.log, kern.n1
    inseparable = _inseparable_monic_quartics(kern)

    def judge(g):
        """None when g / g_4 is inseparable, else whether f = g(x^2) is
        pointless."""
        g0, g1, g2, g3, g4 = g
        shift = n1 - log[g4]            # c -> c / g_4; g_0 != 0
        if (exp[log[g0] + shift], g1 and exp[log[g1] + shift],
                g2 and exp[log[g2] + shift],
                g3 and exp[log[g3] + shift]) in inseparable:
            return None
        return not any(_even_fibres(kern, g, q))

    def sample(rng):
        below = rng.below
        while True:
            g = (below(q), below(q), below(q), below(q), below(q))
            if not (g[0] and g[4]):
                continue
            hit = seen.get(g, seen)     # the dict itself marks "not yet seen"
            if hit is seen:
                hit = seen[g] = judge(g)
            if hit is not None:
                return hit
    return sample


def _diagonal_quartic(F):
    """Set-up of diagonal_quartic: a x^4 + b y^4 + c z^4 + d x^2 y^2 +
    e x^2 z^2 + g y^2 z^2 with a, b, c drawn from the units, rerolled
    while singular (curves._diagonal_smooth)."""
    if F.p == 2:
        raise EvenCharacteristic("diagonal quartics are singular in char 2")
    kern = _kernel(F)

    def sample(rng):
        while True:
            a, b, c = (1 + rng.below(F.q - 1) for _ in range(3))
            d, e, g = (rng.below(F.q) for _ in range(3))
            if _diagonal_smooth(kern, a, b, c, d, e, g):
                return _diagonal_model(F, a, b, c, d, e, g).count(1) == 0
    return sample


def _fiberproduct(F):
    if F.p == 2:
        raise EvenCharacteristic("fiber products are an odd-char model")

    def sample(rng):
        while True:
            f = [rng.below(F.q) for _ in range(3)] + [1 + rng.below(F.q - 1)]
            g = [rng.below(F.q) for _ in range(3)] + [1 + rng.below(F.q - 1)]
            try:
                C = FiberProductGenus4(F, f, g)
            except UnsupportedShape:
                continue
            return C.count(1) == 0
    return sample


# family -> set-up(F), which returns sample(rng): whether the member drawn
# from the stream rng is pointless
_FAMILIES = {
    "klein4_hyper_odd": _klein4_hyper_odd,
    "diagonal_quartic": _diagonal_quartic,
    "fiberproduct": _fiberproduct,
}


def montecarlo_pointless_rate(family, F, samples, seed=0):
    """Sample `samples` random members of the family over F and measure how
    many have no rational point.  The family is set up once per call, so
    a characteristic it cannot use is refused before any sample.  The
    heuristic rate is the paper's (3/4)^(q+1); family_heuristic is the
    figure derived from the sampled family's own fibres, for
    klein4_hyper_odd (None for the others)."""
    if family not in _FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; "
                            f"known: {sorted(_FAMILIES)}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    sample = _FAMILIES[family](F)
    # per-sample sub-seeded streams: order-independent, merge by summation
    master = SplitMix64(seed)
    hits = 0
    for _ in range(samples):
        hits += sample(SplitMix64(master.next_u64()))
    rate = hits / samples if samples else 0.0
    return MonteCarloReport(
        family=family,
        q=F.q,
        samples=samples,
        pointless=hits,
        rate=rate,
        wilson95=wilson_interval(hits, samples),
        heuristic=float(heuristic_pointless_probability(Fraction(1, 4),
                                                        F.q + 1)),
        family_heuristic=(float(klein4_hyper_odd_heuristic(F.q))
                          if family == "klein4_hyper_odd" else None),
        seed=seed,
    )
