"""Search and census engines for pointless curves of genus 3 and 4.

Every engine is one function that runs on a _Search, the run state they
share.  The engine supplies what is particular to its family:
  * the enumeration, in a fixed deterministic order;
  * the family filter: cheap arithmetic (index tables, bitmasks, early
    abort) that discards most candidates;
  * the model validation: every survivor is rebuilt through the curve
    models and never trusted from the filter alone;
  * the survivor entry, its own parameters and the name of its
    enumeration order.
The _Search owns the rest.  It refuses a field of the wrong characteristic
(_CHAR2_FAMILIES) before the engine sets up, and keeps the start time, the
kill counts under the keys the engine declares, the survivor and zeta lists
and the first_find stop (keep() stops a first_find run at its first
survivor).  Where a filter claims to decide pointlessness exactly, confirm()
raises FilterDisagreement on a survivor whose model has a rational point or
another genus, instead of skipping it.  keep_genus3() keeps a genus-3
survivor with the zeta summary of its counts over F_q^2 and F_q^3.  report()
builds the one SearchReport: the parameters (q, the engine's own and the
mode), the fingerprint, the default dedup (distinct count vectors) and the
kill counts.  An engine hands walk(), the one walk over the candidates,
its enumeration as blocks (context, width, codes): codes are the block's
passes, ascending among its width candidates (one block of width 1 per
candidate for the engines that test candidates one at a time, one join
per block for the others).  The walk spends the budget (BudgetExceeded)
up to each pass and at each block's end, counts each block's width
candidates, or those up to the pass where first_find stopped, counts the
passes, and yields nothing more once first_find has stopped.
Fingerprints make census results reproducible.

Every filter reads the square class and the absolute trace of a value
from the field's index kernel (field._kernel) only: sqrt_count (the parity
of a discrete log) and, in characteristic 2, trace (the parity of
idx & trace_mask).  Filters enumerate and evaluate on indices, and the
survivors reach the curve models as index lists: no engine builds a field
element.  A parameter given as a field constant (klein4's n) is converted
to its index once.

Linear-form filters ask one question: for which lambda in A^d does every
form c_j + sum_i w_ji lambda_i land in a target set (the nonsquares, or
zero and the nonsquares)?  _linear_join answers it on the field's index
kernel by a bitset meet in the middle, one alphabet per digit, yielding
the passing codes in odometer order.  It builds every form's tables
first (_join_tables), as a pass must clear every form, and then ANDs
them per left code (_join_passes); it keeps its sums as bytes of indices
and builds every sum and every right-half bitset with bytes.translate
through the kernel's addition rows, so no Python loop runs per
right-half code (fields of at most 256 elements).  klein4_hyper_odd (one
form per u = x + n/x), the fiber products (one form in g per x, tabled
once per run; each monic cubic f joins the tables of the x where f(x) is
not a nonsquare), test 1 of the elliptic double covers (one join per
double zero Q, the top digit over {1, nu}; one form per rational point)
and the exhaustive genus-3 census (f(0) fixed, the values at nodes 1..8
over the nonsquares; one form for the leading coefficient and one per
remaining field element) run on it.
The census checks its join by the count of its inseparable passes and
deduplicates its survivors under PGL2 and square scaling on index lists,
walking each orbit on logs once per class, not once per survivor; it
counts each class over F_q^2 and F_q^3 once, recounts a second member,
and checks that the survivors are closed under the action.  The genus-4
char-2 census enumerates one conductor per class under x -> ax + b and
checks its enumeration by the Gauss count of all conductors.
"""

import hashlib
import inspect
import time
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import product, zip_longest
from math import comb, gcd, inf, prod
from operator import add

from .curves import (
    ArtinSchreierCurve,
    FiberProductGenus4,
    HyperellipticOdd,
    PlaneQuartic,
    _diagonal_model,
    _diagonal_smooth,
    _scalar,
)
from .elliptic import (
    INF,
    _fn_indices,
    cover_count,
    divisor_shape,
    rr_basis,
    shape_possible,
)
from .errors import (
    BudgetExceeded,
    EvenCharacteristic,
    FilterDisagreement,
    OddCharacteristic,
    UnknownFamily,
    UnsupportedShape,
)
from .field import _digits, _f2_eliminate, _itrim, _kernel
from .zeta import zeta_report


@dataclass
class SearchConfig:
    family: str
    mode: str = "first_find"          # or "census"
    n: object = None                  # the x -> n/x twist parameter
    budget: int = None                # candidate cap (BudgetExceeded)


@dataclass
class SearchReport:
    family: str
    parameters: dict
    candidates: int
    survivors: list                   # serialized curves (JSON-able dicts)
    dedup_classes: int
    zeta: list                        # per-survivor zeta summaries
    wall_time: float
    fingerprint: str
    kill_counts: dict = dc_field(default_factory=dict)

    def to_json(self):
        return dict(vars(self), wall_time=round(self.wall_time, 3))


def _fingerprint(*parts):
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


# the families of characteristic 2; every other engine needs an odd one
_CHAR2_FAMILIES = {"klein4_hyper_even", "quartic_char2", "hyper_genus4_char2"}


class _Search:
    """One engine run over F: the state every engine shares, and its
    report.  It refuses a field of the wrong characteristic before the
    engine sets up, and kills holds the engine's kill counts, one per
    declared key."""

    def __init__(self, F, family, mode, budget, kills=()):
        self.t0 = time.time()
        char2 = family in _CHAR2_FAMILIES
        if (F.p == 2) != char2:
            raise (OddCharacteristic if char2 else EvenCharacteristic)(
                f"{family} needs "
                f"{'characteristic 2' if char2 else 'odd characteristic'}")
        self.q, self.family, self.mode, self.budget = F.q, family, mode, budget
        self.kills = dict.fromkeys(kills, 0)
        self.survivors, self.zetas = [], []
        self.candidates = self.passes = 0
        self.stopped = False

    def walk(self, blocks):
        """(context, code) for each pass of each block (context, width,
        codes), lazily and in order; codes ascend among the block's width
        candidates, which follow the candidates counted so far.  The budget
        is spent up to each pass and at each block's end, and a block counts
        its width candidates, or those up to the pass where first_find
        stopped; nothing is yielded after that pass."""
        over = BudgetExceeded(f"candidate budget {self.budget} exhausted")
        cap = inf if self.budget is None else self.budget
        for context, width, codes in blocks:
            room = cap - self.candidates
            for code in codes:
                if code >= room:
                    raise over
                self.passes += 1
                yield context, code
                if self.stopped:
                    self.candidates += code + 1
                    return
            if width > room:
                raise over
            self.candidates += width

    def confirm(self, curve, candidate, genus=None):
        """Raise FilterDisagreement unless the exact model of a candidate
        that passed a filter claiming exactness has no rational point and,
        if genus is given, that genus."""
        if genus not in (None, curve.genus) or curve.count(1) != 0:
            raise FilterDisagreement(
                f"{self.family} over F_{self.q}: the filter passed "
                f"{candidate}, but the curve has genus {curve.genus} and "
                f"{curve.count(1)} rational points")

    def keep(self, entry, zeta):
        """Record a validated survivor; a first_find run stops here."""
        self.survivors.append(entry)
        self.zetas.append(zeta)
        self.stopped = self.mode == "first_find"

    def keep_genus3(self, entry, curve):
        """keep() a pointless genus-3 survivor with the zeta summary of its
        counts over F_q, F_q^2 and F_q^3; returns the summary."""
        counts = [0, curve.count(2), curve.count(3)]
        zeta = zeta_report(self.q, 3, counts).to_json()
        self.keep(entry, zeta)
        return zeta

    def report(self, *key, dedup_classes=None, **parameters):
        """The SearchReport.  Its parameters are q, the engine's own and the
        mode.  Its fingerprint hashes the family (double_covers for the
        double covers, as their pinned fingerprints do), q and key: the
        engine's parameters and the name of its enumeration order.
        dedup_classes defaults to the number of distinct count vectors
        among the zetas."""
        if dedup_classes is None:
            dedup_classes = len({tuple(z["counts"]) for z in self.zetas})
        return SearchReport(
            family=self.family,
            parameters={"q": self.q, **parameters, "mode": self.mode},
            candidates=self.candidates, survivors=self.survivors,
            dedup_classes=dedup_classes, zeta=self.zetas,
            wall_time=time.time() - self.t0,
            fingerprint=_fingerprint(self.family.removesuffix("_elliptic"),
                                     self.q, *key),
            kill_counts=self.kills)


def _each(candidates):
    """The walk's blocks for candidates tested one at a time: one block of
    width 1 per candidate, the candidate its context and its pass."""
    return ((c, 1, (0,)) for c in candidates)


def _partial_sums(row, mul, alphabets, weights, start):
    """start + sum_i weights[i] * alphabets[i][digit_i] for every tuple of
    digits, in little-endian odometer order, as a bytes of kernel indices;
    row(v) is v's addition row as a translate table."""
    sums = bytes([start])
    for w, alphabet in zip(weights, alphabets):
        sums = b"".join(sums.translate(row(mul(w, a))) for a in alphabet)
    return sums


def _join_tables(kern, alphabets, weights, consts, target):
    """The tables of _linear_join's meet in the middle, every form's built
    at once: (width, lefts, tables), with width the number of right codes,
    lefts that of left codes and tables[j][left] form j's bitset at a left
    code.

    Of the d = len(alphabets) digits, the low r = ceil(d/2) are the right
    half: per form, good[a] is the int bitset over the right codes of the
    sums v with target[a + v].  The high digits are the left half; their
    sums, the constant included, pick one good[a] per left code.  Sums and
    bitsets are bytes.translate passes: a sum is a translate through an
    addition row, and good[a] is the right sums, high code first,
    translated through a's row and then to the digits '0'/'1' of target,
    and read as a base-2 int.  Bytes hold indices up to 255, so a field
    past 256 elements raises UnsupportedShape.
    """
    if kern.q > 256:
        raise UnsupportedShape(f"the linear join packs kernel indices in "
                               f"bytes: F_{kern.q} has over 256 elements")
    mul = kern.mul
    r = (len(alphabets) + 1) // 2
    right, left = alphabets[:r], alphabets[r:]
    bit = bytes(48 + t for t in target).ljust(256, b"0")

    @cache
    def row(v):
        return bytes(kern.add_row(v)).ljust(256)

    def table(w, c):
        rsums = _partial_sums(row, mul, right, w[:r], 0)[::-1]
        lsums = _partial_sums(row, mul, left, w[r:], c)
        good = {a: int(rsums.translate(row(a).translate(bit)), 2)
                for a in set(lsums)}
        return [good[a] for a in lsums]

    return (prod(map(len, right)), prod(map(len, left)),
            [table(w, c) for w, c in zip(weights, consts)])


def _join_passes(width, lefts, tables):
    """Codes, ascending, that pass every table of _join_tables: a left
    code ANDs its bitsets table by table and stops at 0; the set bits
    left, low to high, are its passing codes."""
    for left in range(lefts):
        bits = (1 << width) - 1
        for t in tables:
            bits &= t[left]
            if not bits:
                break
        base = left * width
        while bits:
            low = bits & -bits
            yield base + low.bit_length() - 1
            bits ^= low


def _linear_join(kern, alphabets, weights, consts, target):
    """Codes, ascending, of the lambda in alphabets[0] x ... x
    alphabets[d-1] (little-endian odometer: digit i of the code picks
    lambda_i from alphabets[i]) for which every form consts[j] +
    sum_i weights[j][i] * lambda_i lands in target, a 0/1 bytearray over
    kernel indices: a bitset meet in the middle, its tables built first
    (_join_tables) and then joined (_join_passes)."""
    return _join_passes(*_join_tables(kern, alphabets, weights, consts,
                                      target))


# ---------------------------------------------------------------------------
# Klein-four hyperelliptic families (genus 3)
# ---------------------------------------------------------------------------

def _klein4_model(kern, f, n):
    """x^4 * f(x + n/x) = sum_i c_i x^(4-i) (x^2 + n)^i for the index list
    f of a quartic and the index n, as an index list."""
    add, mul = kern.add, kern.mul
    acc = [0] * 9
    power = [1]                       # (x^2 + n)^i
    for i, c in enumerate(f):
        for j, v in enumerate(power):
            acc[4 - i + j] = add(acc[4 - i + j], mul(c, v))
        power = kern._pmul(power, [n, 0, 1])
    return _itrim(acc)


def search_klein4_hyper_odd(F, n, mode="first_find", budget=None):
    """y^2 = f(x + n/x) for separable quartics f coprime to x^2 - 4n,
    materialized as degree-8 models y^2 = x^4 f(x + n/x).  n is taken as
    the models take a coefficient (curves._scalar): an int is an index in
    0..q-1, and an element of F is converted once."""
    run = _Search(F, "klein4_hyper_odd", mode, budget)
    n_i = _scalar(F, n)
    if not n_i:
        raise ValueError("n must be nonzero")
    q = F.q
    kern = _kernel(F)
    mul = kern.mul
    nu_i = kern.nonsquare
    # pointlessness needs f(u) to be a nonsquare for every u = x + n/x:
    # one linear form in (c0, c1, c2, c3) per u, with constant nu * u^4
    u_set = sorted({kern.add(x, mul(n_i, kern.inv(x))) for x in range(1, q)})
    weights = []
    consts = []
    for u in u_set:
        u2 = mul(u, u)
        weights.append([1, u, u2, mul(u2, u)])
        consts.append(mul(nu_i, mul(u2, u2)))
    nonsquare = bytearray(kern.sqrt_count(a) == 0 for a in range(q))
    disc = [kern.neg(mul(4 % F.p, n_i)), 0, 1]     # u^2 - 4n
    # lc fixed to the canonical nonsquare: square-class scaling y -> cy
    join = _linear_join(kern, [range(q)] * 4, weights, consts, nonsquare)
    for _, code in run.walk([(None, q ** 4, join)]):
        coeffs = _digits(code, q, 4) + [nu_i]
        if not kern.is_separable(coeffs) or len(kern.gcd(coeffs, disc)) > 1:
            continue
        model = _klein4_model(kern, coeffs, n_i)
        curve = HyperellipticOdd(F, model)
        run.confirm(curve, {"f": coeffs, "n": n_i}, genus=3)
        run.keep_genus3({"f": coeffs, "model": model}, curve)
    return run.report(n_i, "odometer-c0..c3-lc-nu", n=n_i)


def search_klein4_hyper_even(F, mode="first_find", budget=None):
    """Char 2: y^2 + y = f(x + 1/x), f = (a u^2 + b u + c)/d(u) with d a
    separable monic quadratic, d(0) != 0."""
    run = _Search(F, "klein4_hyper_even", mode, budget)
    # a runs fastest; d must be separable with nonzero roots
    abcd = ((a, b, c, d1, d0) for d0, d1, c, b, a
            in product(range(F.q), repeat=5) if d1 and d0)
    for (a, b, c, d1, d0), _ in run.walk(_each(abcd)):
        # substitute u = x + 1/x and clear x^2, with (x^2 + 1)^2 = x^4 + 1:
        # num = a (x^2+1)^2 + b x (x^2+1) + c x^2;  den likewise from d.
        # A common factor (num = 0 included) cancels a pole, which is not
        # the 2-simple-pole shape: the model refuses the pair.  Otherwise
        # the genus is 3: den' = d1 (x + 1)^2 and den(1) = d0 != 0, so den
        # is squarefree, and deg num <= 4 = deg den, so the poles are
        # den's four simple geometric points.
        num, den = _itrim([a, b, c, b, a]), [1, d1, d0, d1, 1]
        try:
            curve = ArtinSchreierCurve(F, (num, den))
        except UnsupportedShape:
            continue
        if curve.count(1) != 0:
            continue
        run.keep_genus3({"f_num": num, "f_den": den,
                         "quartic_f": [c, b, a], "d": [d0, d1, 1]}, curve)
    return run.report("odometer-abcd1d0")


# ---------------------------------------------------------------------------
# diagonal quartics and the char-2 quartic family
# ---------------------------------------------------------------------------

def _diagonal_has_point(kern, b, c, d, e, f):
    """Conic fast path: x^4 + b y^4 + c z^4 + d x^2 y^2 + e x^2 z^2 + f y^2 z^2
    has a rational point iff the conic X^2 + bY^2 + cZ^2 + dXY + eXZ + fYZ
    has a point with X, Y, Z all squares (X = x^2 etc.).  The coefficients
    are kernel indices, b != 0; each quadratic in a square is solved by
    kern.quadratic_fibres, as PlaneQuartic.count solves it."""
    add, mul, fibres = kern.add, kern.mul, kern.quadratic_fibres
    # z = 0, y = 1: x^4 + d x^2 + b
    if fibres(1, d, b):
        return True
    # z = 1: b y^4 + (dX + f) y^2 + (X^2 + eX + c) for square X = x^2
    return any(fibres(b, add(mul(d, X), f), add(mul(X, add(X, e)), c))
               for X in range(kern.q) if kern.sqrt_count(X))


def search_diagonal_quartic(F, mode="first_find", budget=None):
    """x^4 + b y^4 + c z^4 + d x^2 y^2 + e x^2 z^2 + f y^2 z^2 (a = 1 WLOG).

    Both filters are exact: pointlessness by the conic's points with
    square coordinates (_diagonal_has_point), then smoothness by the
    conic's coefficients (curves._diagonal_smooth).  A survivor the model
    finds singular or with a rational point raises FilterDisagreement."""
    run = _Search(F, "diagonal_quartic", mode, budget)
    kern = _kernel(F)
    # b = 0 gives the point (0:1:0), c = 0 the point (0:0:1); d runs
    # fastest
    units, values = range(1, F.q), range(F.q)
    bcdef = ((b, c, d, e, f) for b, c, f, e, d
             in product(units, units, values, values, values))
    for coeffs, _ in run.walk(_each(bcdef)):
        if (_diagonal_has_point(kern, *coeffs)
                or not _diagonal_smooth(kern, 1, *coeffs)):
            continue
        C = _diagonal_model(F, 1, *coeffs)
        entry = {"coeffs": [1, *coeffs]}
        if not C.is_smooth():
            raise FilterDisagreement(
                f"diagonal_quartic over F_{F.q}: the smoothness filter "
                f"passed {entry}, but the curve is singular")
        run.confirm(C, entry)
        run.keep_genus3(entry, C)
    return run.report("b-c-outer-def-odometer")


def _char2_family_quartic(F, beta, gamma):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4, expanded
    in characteristic 2, where the cross terms of the squares vanish."""
    return PlaneQuartic(F, {(4, 0, 0): 1, (2, 0, 2): 1, (0, 4, 0): 1,
                            (0, 2, 2): 1, (0, 0, 4): gamma,
                            (2, 2, 0): beta, (2, 1, 1): beta,
                            (1, 2, 1): beta, (1, 1, 2): beta})


def _char2_pointless_gammas(kern, beta):
    """The gamma for which the char-2 family member at beta has no
    rational point.  On z = 0 it is (x^2 + sqrt(beta) xy + y^2)^2, which
    has a rational point iff beta = 0 or Tr(1/beta) = 0 (x = sqrt(beta) t
    turns x^2 + sqrt(beta) x + 1 into t^2 + t = 1/beta): then there are
    none.  Otherwise they are the gamma outside V_beta = {u^2 + beta uv +
    v^2 : u, v in T_0}, T_0 = {x^2 + x} the trace-zero subgroup, as x^2 +
    x and y^2 + y range over T_0 in the chart z = 1."""
    if not beta or not kern.trace(kern.inv(beta)):
        return set()
    mul = kern.mul
    t0 = {mul(x, x) ^ x for x in range(kern.q)}
    return set(range(kern.q)) - {mul(u, u) ^ mul(beta, mul(u, v)) ^ mul(v, v)
                                 for u in t0 for v in t0}


def search_quartic_char2(F, mode="first_find", budget=None):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4 over
    F_{2^n}.  The filter is exact (_char2_pointless_gammas, built once per
    beta the walk reaches): a survivor the model counts a point on raises
    FilterDisagreement.  Smoothness is the model's."""
    run = _Search(F, "quartic_char2", mode, budget)
    kern = _kernel(F)
    pointless = {}
    # beta runs fastest
    pairs = ((beta, gamma) for gamma, beta in product(range(F.q), repeat=2))
    for (beta, gamma), _ in run.walk(_each(pairs)):
        if beta not in pointless:
            pointless[beta] = _char2_pointless_gammas(kern, beta)
        if gamma not in pointless[beta]:
            continue
        C = _char2_family_quartic(F, beta, gamma)
        entry = {"beta": beta, "gamma": gamma}
        # the model confirms the filter's verdict, then judges smoothness
        run.confirm(C, entry)
        if not C.is_smooth():
            continue
        run.keep(entry, {"q": F.q, "counts": [0, C.count(2)]})
    return run.report("beta-gamma-odometer")


# ---------------------------------------------------------------------------
# fiber products of two hyperelliptic genus-1 covers (genus 4)
# ---------------------------------------------------------------------------

def search_fiberproduct(F, mode="first_find", budget=None):
    """y^2 = f, z^2 = g with f monic cubic and lc(g) the canonical nonsquare;
    pointless iff for every x at least one of f(x), g(x) is a nonsquare.
    f is the high three digits of the candidate code, g the low three."""
    run = _Search(F, "fiberproduct", mode, budget)
    q = F.q
    kern = _kernel(F)
    mul, nu_i = kern.mul, kern.nonsquare
    nonsquare = bytearray(kern.sqrt_count(a) == 0 for a in range(q))
    # g(x) = g0 + g1 x + g2 x^2 + nu x^3 is a nonsquare at x: one linear
    # form in (g0, g1, g2) per x, with constant nu * x^3, tabled once
    width, lefts, tables = _join_tables(
        kern, [range(q)] * 3, [[1, x, mul(x, x)] for x in range(q)],
        [mul(nu_i, mul(x, mul(x, x))) for x in range(q)], nonsquare)

    def blocks():
        # one join per monic cubic f: the spots where f(x) is zero or a
        # nonzero square need g to cover them; an f without such spots
        # passes every g
        for fcode in range(q ** 3):
            fco = _digits(fcode, q, 3) + [1]
            need = [tables[x] for x in range(q)
                    if kern.sqrt_count(kern.horner(fco, x))]
            yield fco, q ** 3, _join_passes(width, lefts, need)

    for fco, gcode in run.walk(blocks()):
        gco = _digits(gcode, q, 3) + [nu_i]
        try:
            C = FiberProductGenus4(F, fco, gco)
        except UnsupportedShape:
            continue
        entry = {"f": list(fco), "g": list(gco)}
        run.confirm(C, entry)
        props = C.properties()
        entry.update(trigonal=props["trigonal"],
                     extra_autos=props["extra_autos"])
        run.keep(entry, {"q": q, "counts": [0, C.count(2)]})
    return run.report("f-monic-g-nu-odometer")


# ---------------------------------------------------------------------------
# exhaustive genus-3 hyperelliptic census (odd q > 7)
# ---------------------------------------------------------------------------

def _taylor_shifts(kern, f):
    """f(x + t) for each t = 0..q-1 in turn, f an index polynomial
    (constant term first).  Coefficient k of f(x + t) is the k-th Hasse
    derivative sum_i C(i, k) f_i x^(i - k) of f at t; the index of the
    integer C(i, k) mod p is itself."""
    p, mul, horner = kern.p, kern.mul, kern.horner
    hasse = [[mul(comb(i, k) % p, c) for i, c in enumerate(f) if i >= k]
             for k in range(len(f))]
    for t in range(kern.q):
        yield [horner(d, t) for d in hasse]


def _pgl2_orbit(kern, f):
    """The square class tuple of g = (cx + d)^8 f((ax + b)/(cx + d)) for
    each of the q^3 - q normalised (a, b, c, d) (first nonzero entry 1,
    ad - bc != 0) that keeps deg g = 8; f is a degree-8 index list.  The
    square class tuple of g is the least index tuple among its square
    multiples s^2 g: the one whose first nonzero coefficient is 1 when
    g's is a square and nu = kern.nonsquare, the least nonsquare index,
    when it is not.

    (1, b, c, d) is (1, 0; c, 1)(1, b; 0, e) with e = d - bc.  The first
    factor turns f into rev(rev(f)(x + c)), rev reversing the 9
    coefficients; the second into e^8 h((x + b)/e), which is e^8 times
    h(x + b/e) with x scaled by 1/e.  (0, 1, c, d) gives rev(f)(cx + d):
    rev(f) shifted by d, x scaled by c.  So each of the q + 1 bases is
    shifted by every t and scaled by every u != 0.

    The scaling and the square class multiplier are multiplications, so
    they run on logs.  With h the shifted base and h_j its first nonzero
    coefficient, the member for u has coefficient i
    exp[log h_i - log h_j + (i - j) log u], times nu when the scaled lead
    h_j u^j is a nonsquare, that is when log h_j + j log u is odd."""
    n1, log = kern.n1, kern.log
    lnu = log[kern.nonsquare]
    # get reads exp over two periods, then zeros: a zero coefficient takes
    # the log 2 n1, which a step below n1 keeps past the periods
    get = (list(kern.exp) + [0] * n1).__getitem__
    zero = 2 * n1
    # steps[j][log u][i] = (i - j) log u mod n1
    steps = [[[(i - j) * lu % n1 for i in range(9)] for lu in range(n1)]
             for j in range(9)]
    rev = f[::-1]
    bases = [h[::-1] for h in _taylor_shifts(kern, rev)] + [rev]
    for base in bases:
        if not base[8]:
            continue            # a branch point went to infinity
        for h in _taylor_shifts(kern, base):
            j = next(i for i, c in enumerate(h) if c)
            lj = log[h[j]]
            even = [(log[c] - lj) % n1 if c else zero for c in h]
            odd = [v if v == zero else (v + lnu) % n1 for v in even]
            yield from [tuple(map(get, map(add, odd if (lj + j * lu) & 1
                                           else even, step)))
                        for lu, step in enumerate(steps[j])]


def _node_value_forms(F):
    """The exhaustive census filter over F as linear forms in the values
    at the nodes 0..8: the nonsquare indicator (a bytearray over indices),
    basis[i], the interpolant of the i-th unit vector on the nodes (so
    f = sum_i value_i basis[i], index lists), and the weights of the
    forms, the leading coefficient first and then the values at the other
    field elements 9..q-1.  f is pointless iff every value and form is a
    nonsquare."""
    kern = _kernel(F)
    nonsquare = bytearray(kern.sqrt_count(a) == 0 for a in range(F.q))
    basis = []
    for i in range(9):
        # prod_{j != i} (x - j) / (i - j)
        num, den = [1], 1
        for j in range(9):
            if j != i:
                num = kern._pmul(num, [kern.neg(j), 1])
                den = kern.mul(den, kern.sub(i, j))
        inv = kern.inv(den)
        basis.append([kern.mul(c, inv) for c in num])
    weights = [[L[8] for L in basis]]
    weights += [[kern.horner(L, x) for L in basis] for x in range(9, F.q)]
    return nonsquare, basis, weights


def _census_join(F):
    """The census join as one walk block (f_of, width, codes): codes are
    its passes, ascending among its width = ((q - 1)/2)^8 candidates, and
    f_of(code) is the interpolant, an index list, of nu0 = ns[0], the
    first nonsquare, at node 0 and ns[digit i - 1 of code] at node
    i = 1..8.  A pass's f has a nonsquare leading coefficient and
    nonsquare values at 9..q-1."""
    kern = _kernel(F)
    nonsquare, basis, weights = _node_value_forms(F)
    ns = [a for a in range(F.q) if nonsquare[a]]
    base = [kern.mul(ns[0], c) for c in basis[0]]
    # the addition rows of ns[digit] * basis[i], per node i > 0 and digit
    scaled = [[[kern.add_row(kern.mul(v, w)) for w in L] for v in ns]
              for L in basis[1:]]

    def f_of(code):
        f = base
        for digit, rows in zip(_digits(code, len(ns), 8), scaled):
            f = [row[c] for row, c in zip(rows[digit], f)]
        return f

    return f_of, len(ns) ** 8, _linear_join(
        kern, [ns] * 8, [w[1:] for w in weights],
        [kern.mul(w[0], ns[0]) for w in weights], nonsquare)


@dataclass
class _CensusClass:
    """A PGL2 class met by the census: its key (the orbit minimum), its
    size (the number of square class tuples in the orbit), the zeta
    summary of its first survivor, and whether a second survivor has been
    recounted against it."""
    key: tuple
    size: int
    zeta: dict = None
    recounted: bool = False


def search_exhaustive_hyper_genus3(F, mode="census", budget=None):
    """All pointless y^2 = f with f of degree 8, one per square class:
    f(0) is nu0 and the values at the nodes 1..8 range over the
    nonsquares (_census_join), and each pass is built as a
    HyperellipticOdd, whose constructor refuses an inseparable f: a
    degenerate pass.  Scaling y -> sy moves f(0) freely over the (q - 1)/2
    nonsquares, so this keeps one model per orbit, and the PGL2 dedup sees
    every class.

    Certificate: an exhausted join has exactly N4(q) = C(q,2) q^2 -
    C(q,3) q + C(q,4) inseparable passes, or FilterDisagreement is
    raised.  Write a pass f = c s^2 g with c = lc(f), a nonsquare, and s,
    g monic, g squarefree.  No f(x) is 0, so s and g have no root in F_q:
    deg s != 1, and deg g = 8 - 2 deg s is 8, 4, 2 or 0.  For deg g = 4 or
    2, y^2 = c g is a genus-1 curve or a smooth conic, with a rational
    point; none lies at infinity (c is a nonsquare) and none is affine
    (c g(x) = f(x) / s(x)^2 is a nonsquare).  So an inseparable pass is
    c s^2 with s a monic quartic without a root in F_q, and each such s
    passes once, with c = nu0 / s(0)^2: N4(q) counts them by
    inclusion-exclusion over root sets, sum_k (-1)^k C(q,k) q^(4-k).

    Survivors are validated per PGL2 class.  Every survivor is rebuilt as
    a HyperellipticOdd and must have genus 3 and no rational point.  Its
    f(0) = nu0 is the canonical nonsquare, so f is its own square class
    tuple.  The first survivor of a class walks the class's orbit
    (_pgl2_orbit), mapping every member to the class, and is counted over
    F_q^2 and F_q^3 for the class's zeta summary; the second is counted
    again, and counts that differ raise FilterDisagreement; later members
    take the class's summary, as isomorphic curves have the same counts.

    Closure: an exhausted census raises FilterDisagreement unless every
    walked member is a survivor and the class sizes add up to the number
    of survivors.  The survivors are closed under the action: a member g
    of a survivor f's orbit is a square multiple of (cx + d)^8
    f((ax + b)/(cx + d)) of degree 8, a model of a curve isomorphic to
    y^2 = f over F_q (x -> (ax + b)/(cx + d), y -> s y/(cx + d)^4).  So
    y^2 = g has no rational point: g is separable, lc(g) and every g(x)
    are nonsquares, and the square class tuple takes g(0) to nu0.  That is
    a separable pass of the join.  So on an exact join the survivors are
    whole classes, and both checks hold.  A join that drops some but not
    all of a class's separable passes fails them, since the class is
    walked from a member it kept and the dropped ones are walked members
    that are no survivors.  These checks see the survivors only; the
    N4(q) count checks the join's inseparable passes.

    A first_find run stops at its first survivor: it walks that one
    orbit, for the key, and claims no closure."""
    run = _Search(F, "exhaustive_hyper_genus3", mode, budget,
                  ("join_passes", "degenerate"))
    if F.q < 9:
        raise ValueError("exhaustive census engine needs q >= 9")
    q = F.q
    kern = _kernel(F)
    class_of = {}                     # walked member -> its _CensusClass
    met = []                          # the classes, in the order met
    for f_of, code in run.walk([_census_join(F)]):
        coeffs = f_of(code)
        try:
            curve = HyperellipticOdd(F, coeffs)
        except UnsupportedShape:      # f is inseparable
            run.kills["degenerate"] += 1
            continue
        run.confirm(curve, {"f": coeffs}, genus=3)
        cls = class_of.get(tuple(coeffs))
        if cls is None:
            members = set(_pgl2_orbit(kern, coeffs))
            cls = _CensusClass(min(members), len(members))
            class_of.update(dict.fromkeys(members, cls))
            met.append(cls)
        elif not cls.recounted:
            cls.recounted = True
            counts = [0, curve.count(2), curve.count(3)]
            if counts != cls.zeta["counts"]:
                raise FilterDisagreement(
                    f"F_{q} census: the recount of survivor {coeffs} gives "
                    f"{counts}, but its class {list(cls.key)} has "
                    f"{cls.zeta['counts']}")
        entry = {"f": coeffs, "iso_class_key": list(cls.key)}
        if cls.zeta is None:
            cls.zeta = run.keep_genus3(entry, curve)
        else:
            run.keep(entry, cls.zeta)
    degenerate = run.kills["degenerate"]
    if not run.stopped:
        n4 = comb(q, 2) * q * q - comb(q, 3) * q + comb(q, 4)
        if degenerate != n4:
            raise FilterDisagreement(f"F_{q} census: {degenerate} "
                                     f"inseparable passes, not N4(q) = {n4}")
        survivors = {tuple(s["f"]) for s in run.survivors}
        sizes = sum(cls.size for cls in met)
        if not class_of.keys() <= survivors or sizes != len(run.survivors):
            raise FilterDisagreement(
                f"F_{q} census: the survivors are not closed under PGL2: "
                f"{len(class_of.keys() - survivors)} walked members are no "
                f"survivors, and the {len(met)} classes hold {sizes} "
                f"members for {len(run.survivors)} survivors")
    run.kills["join_passes"] = run.passes
    return run.report("f0-nu0-nodes-1..8-nonsquare-odometer",
                      dedup_classes=len(met))


# ---------------------------------------------------------------------------
# double covers of elliptic curves (genus 3 via L(6*inf), genus 4 via L(8*inf))
# ---------------------------------------------------------------------------

def _double_zero_kernel(E, basis, Q):
    """Basis of the functions in L(k*inf) vanishing to order >= 2 at Q (an
    index pair), as index vectors on basis, in closed form.  With the local
    parameter t at Q (t = x - x0 off the 2-torsion, t = y at a 2-torsion
    point, where x = x0 + O(t^2)), every monomial m but 1 and t gives
    m - m(Q) - m'(Q) t, m' = dm/dt, in basis order: the reduced echelon
    kernel of the two rows m(Q) and m'(Q), whose pivots are 1 and t.  Off
    the 2-torsion dy/dx = c'(x0) / (2 y0)."""
    kern = _kernel(E.base)
    mul, sub, p = kern.mul, kern.sub, E.base.p
    x0, y0 = Q
    powers = [1]                        # x0^i
    for _ in range(max(i for i, _ in basis)):
        powers.append(mul(powers[-1], x0))
    t = (1, 0) if y0 else (0, 1)
    if y0:
        dy = mul(kern.horner(kern._derivative(E._cubic), x0),
                 kern.inv(mul(2, y0)))
    kernel = []
    for col, (i, j) in enumerate(basis):
        if (i, j) in ((0, 0), t):
            continue
        if y0:
            # d(x^i)/dx = i x0^(i-1), and d(x^i y)/dx adds x^i dy/dx; the
            # index of an integer i < p is i
            dxi = mul(i % p, powers[i - 1]) if i else 0
            value = mul(powers[i], y0) if j else powers[i]
            slope = kern.add(mul(dxi, y0), mul(powers[i], dy)) if j else dxi
        else:
            value, slope = (0, powers[i]) if j else (powers[i], 0)
        vec = [0] * len(basis)
        vec[col] = 1
        # - m(Q) - m'(Q) t, with t(Q) = 0: t = x - x0 adds m'(Q) x0
        vec[0] = sub(mul(slope, x0), value) if y0 else kern.neg(value)
        vec[basis.index(t)] = kern.neg(slope)
        kernel.append(vec)
    return kernel


def search_double_covers_elliptic(E, genus_target=3, mode="census",
                                  budget=None):
    """Genus-3 (k=6, Q from E/2E) or genus-4 (k=8, Q from E/3E) double covers
    z^2 = f, f in the double-zero space at Q.  Test 1: no rational point of
    E where f is a nonzero square.  Test 2: divisor shape
    2Q + (k-2 odd-order points) - k*inf, read by divisor_shape on the
    passes that shape_possible, a necessary condition without
    factorisation, admits.  Test 2 asks for a pole of order k, and x^(k/2)
    is the one monomial of that order, so f's coefficient on the last
    basis function of the space is nonzero; up to square scaling it is 1
    or nu.  Each Q runs one join, its top digit over (1, nu) and the
    others over F_q: reps * 2 * q^(k-3) candidates in all."""
    F = E.base
    run = _Search(F, "double_covers_elliptic", mode, budget,
                  ("test1", "test2"))
    if genus_target not in (3, 4):
        raise ValueError("genus_target must be 3 or 4")
    k = 6 if genus_target == 3 else 8
    m = 2 if genus_target == 3 else 3
    basis = rr_basis(k)
    q = F.q
    qreps = E.quotient_reps(m)
    if INF in qreps:
        # E(F_q) is killed by m, so O is alone in its coset of m E(F_q); the
        # double zero Q = O needs L((k - 2) inf), which is not built here
        raise UnsupportedShape(f"{E!r}: the coset {{O}} of {m}E(F_{q}) has "
                               f"no affine point to carry the double zero")
    # a coset with only 2-torsion affine points gives one of them as Q
    fallback = any(not y for _, y in qreps)
    kern = _kernel(F)
    horner, add, mul = kern.horner, kern.add, kern.mul
    not_square = bytearray(kern.sqrt_count(a) != 2 for a in range(q))
    pts = E.points()[1:]             # the affine points, after INF
    # modulo square scaling: the top coefficient, of x^(k/2), is 1 or nu
    tops = (1, kern.nonsquare)

    def blocks():
        # one join per Q
        for Q in qreps:
            kernel = _double_zero_kernel(E, basis, Q)
            # per-point values of the kernel basis functions
            fns = [_fn_indices(basis, vec) for vec in kernel]
            B_at = [[add(horner(A, x), mul(horner(B, x), y)) for A, B in fns]
                    for x, y in pts]
            # test 1: f(P) is zero or a nonsquare at every rational P; the
            # top digit, 0 or 1 in base q, picks the top coefficient from
            # tops
            free = len(kernel) - 1
            yield (Q, kernel), 2 * q ** free, _linear_join(
                kern, [range(q)] * free + [tops], B_at, [0] * len(B_at),
                not_square)

    for (Q, kernel), code in run.walk(blocks()):
        *lam, top = _digits(code, q, len(kernel))
        coeffs = [0] * len(basis)
        for l_i, vec in zip(lam + [tops[top]], kernel):
            coeffs = [add(c, mul(l_i, v)) for c, v in zip(coeffs, vec)]
        if not (shape_possible(E, coeffs, basis, Q) and
                divisor_shape(E, coeffs, basis, Q, k)["shape_ok"]):
            run.kills["test2"] += 1
            continue
        counts = [cover_count(E, coeffs, basis, i) for i in (1, 2, 3)]
        run.keep({"Q": list(Q), "coeffs": coeffs,
                  "counts": counts, "pointless": counts[0] == 0},
                 {"q": q, "counts": counts})
    curve = [E.a2, E.a4, E.a6]
    run.kills["test1"] = run.candidates - run.passes
    return run.report(genus_target, *curve, "top-norm-odometer",
                      genus=genus_target, curve=curve, reps=len(qreps),
                      fallback=fallback)


# ---------------------------------------------------------------------------
# genus-4 hyperelliptic (Artin-Schreier) census in characteristic 2
# ---------------------------------------------------------------------------

def _scaled(kern, f, la):
    """a^-e f(ax) for the monic index list f of degree e and a = exp[la]:
    coefficient i times a^(i - e)."""
    exp, log, n1 = kern.exp, kern.log, kern.n1
    e = len(f) - 1
    return [exp[(log[c] + (i - e) * la) % n1] if c else 0
            for i, c in enumerate(f)]


def _rootless(kern, f, k):
    """The c, ascending, for which f + c x^k has no root in the char-2
    field of kern: a root x has c x^k = f(x), so x = 0 with k > 0 is a
    root for every c or for none, and any other x for c = f(x) / x^k
    alone."""
    hit = set()
    for x in range(kern.q):
        xk = kern.exp[kern.log[x] * k % kern.n1] if x else int(not k)
        v = kern.horner(f, x)
        if xk:
            hit.add(kern.mul(v, kern.inv(xk)))
        elif not v:
            return []
    return [c for c in range(kern.q) if c not in hit]


def _affine_conductors(kern):
    """The degree-5 conductors over the char-2 index kernel kern, one per
    class under the maps x -> ax + b (a != 0): (shape, parts, orbit), parts
    the places as monic index lists and orbit the size of the class.

    The anchor is the place of odd degree d: the quintic of shape "5", or
    the cubic of shape "2+3" (a quadratic place p2 and a cubic place).
    The shift x -> x + b adds b to the anchor's c_{d-1}, and the scaling
    x -> ax takes a monic f of degree e to a^-e f(ax), c_i to c_i a^(i-e).
    The normal form has c_{d-1} = 0, the anchor's c_0 the least index of
    its class modulo d-th powers, and (anchor, then p2) the least index
    tuple over its images under mu_d = {a : a^d = 1}, the scalings that
    keep both c_{d-1} = 0 and c_0.  The anchors are enumerated directly,
    c_0 class by class and c_1..c_{d-2} in odometer order; each cubic
    anchor is paired with every monic irreducible quadratic, in odometer
    order.

    Irreducibility is read off roots first (_rootless): a quadratic or a
    cubic is irreducible iff it has no root in F_q, and only a rootless
    quintic, which may be a quadratic times a cubic, goes to Ben-Or."""
    q, n1 = kern.q, kern.n1
    for shape, d in (("5", 5), ("2+3", 3)):
        partners = [[]] if d == 5 else [
            [[c0, c1, 1]] for c1 in range(q)
            for c0 in _rootless(kern, [0, c1, 1], 0)]
        g = gcd(d, n1)
        mu = [k * n1 // g for k in range(g)]      # the logs of mu_d
        least = {}                                 # class of c_0 -> least c_0
        for c in range(1, q):
            least.setdefault(kern.log[c] % g, c)
        for c0, code in product(least.values(), range(q ** (d - 3))):
            # c_2..c_{d-2}; c_1, the fastest digit, runs over the rootless
            high = _digits(code, q, d - 3) + [0, 1]
            for c1 in _rootless(kern, [c0, 0] + high, 1):
                anchor = [c0, c1] + high
                if d == 5 and not kern.is_irreducible(anchor):
                    continue
                for rest in partners:
                    images = [[_scaled(kern, f, la) for f in [anchor] + rest]
                              for la in mu]
                    if min(images) == images[0]:
                        yield (shape, rest + [anchor],
                               q * n1 // images.count(images[0]))


def _trace_matrix_kernel(kern, m):
    """F_2-kernel of g -> (Tr(g(x)/m(x)))_{x in F_q}, g of degree < deg m,
    over the char-2 index kernel kern, m an index list without rational
    roots.

    Each kernel vector is a bit int over deg(m)*n coefficient bits: bit
    i*n + b is bit b of the index of g's coefficient i (index bits are
    coefficient bits), so the basis element for bit b is the index 1 << b.
    Bit x of a column is the trace at the index x.
    """
    q, mul, trace = kern.q, kern.mul, kern.trace
    deg = len(m) - 1
    n = q.bit_length() - 1
    # x^i / m(x) at every x, from i = 0 up
    w = [kern.inv(kern.horner(m, x)) for x in range(q)]
    cols = []
    for i in range(deg):
        if i:
            w = [mul(v, x) for x, v in enumerate(w)]
        for b in range(n):
            col = 0
            for x, v in enumerate(w):
                if trace(mul(1 << b, v)):
                    col |= 1 << x
            cols.append(col)
    return _f2_eliminate(cols)[1]


def search_hyper_genus4_char2(F, mode="first_find", budget=None):
    """Genus-4 hyperelliptic curves with no rational Weierstrass point:
    y^2 + y = g(x)/m(x) + t over the conductor shapes {degree-5 place} and
    {degree-2 + degree-3 places}, all poles simple, one conductor m per
    affine class (_affine_conductors).

    Pointless iff Tr(g(x)/m(x)) = 0 for all rational x and Tr(t) = 1 (the
    place at infinity is ordinary with value t), which is an F_2-linear
    condition on g: each m contributes its kernel, filtered for conductor
    preservation (g not divisible by a factor of m).

    The reduction keeps every count vector: x -> ax + b permutes F_q and
    fixes infinity, so it takes y^2 + y = g/m + t to y^2 + y = g'/m' + t
    with m' = a^-5 m(ax + b), of m's shape, and g' = a^-5 g(ax + b), a
    curve with the same N_i at every i.

    Certificate: an exhausted run's orbits add up to N(5) + N(2) N(3), the
    number of conductors, with N(k) = (q^k - q)/k monic irreducibles of
    prime degree k (Gauss), or FilterDisagreement is raised.  An orbit
    has q(q - 1)/|Stab| conductors.  A map x -> ax + b that fixes a normal
    form fixes its anchor f of degree d: the c_{d-1} of a^-d f(ax + b) is
    b/a in characteristic 2, so b = 0, and c_0 a^-d = c_0, so a is in
    mu_d.  Stab is thus the a in mu_d that fix the conductor, the orbit
    the engine adds.  Every conductor lies in one class, so a class left
    out or kept twice moves the sum."""
    run = _Search(F, "hyper_genus4_char2", mode, budget,
                  ("conductors_covered",))
    q = F.q
    kern = _kernel(F)
    t = next(v for v in range(q) if kern.trace(v))
    for (shape_name, parts, orbit), _ in run.walk(
            _each(_affine_conductors(kern))):
        run.kills["conductors_covered"] += orbit
        m = parts[0]
        for p in parts[1:]:
            m = kern._pmul(m, p)
        tm = [kern.mul(t, c) for c in m]
        for bits in sorted(kernel_span(_trace_matrix_kernel(kern, m))):
            if bits == 0:
                continue
            # coefficient i of g: bits i*n .. i*n + n - 1
            g = _itrim([bits >> (i * F.n) & (q - 1)
                        for i in range(len(m) - 1)])
            # g + t m over m: for squarefree m, gcd(g + t m, m) =
            # gcd(g, m), so a factor of m dividing g (a pole that
            # disappears, changing the conductor) is refused.  Otherwise
            # deg g < 5 = deg m, so the poles are m's five simple
            # geometric points and the genus is 4.
            num = [u ^ v for u, v in zip_longest(g, tm, fillvalue=0)]
            try:
                curve = ArtinSchreierCurve(F, (num, m))
            except UnsupportedShape:
                continue
            entry = {"shape": shape_name, "m": m, "g": g, "t": t}
            run.confirm(curve, entry, genus=4)
            entry["counts"] = [0] + [curve.count(i) for i in (2, 3, 4)]
            run.keep(entry, {"q": q, "counts": entry["counts"]})
            if run.stopped:
                break
    gauss = (q ** 5 - q) // 5 + (q * q - q) // 2 * ((q ** 3 - q) // 3)
    covered = run.kills["conductors_covered"]
    if not run.stopped and covered != gauss:
        raise FilterDisagreement(f"F_{q} genus-4 census: the kept "
                                 f"conductors' orbits cover {covered} "
                                 f"conductors, not N(5) + N(2) N(3) = "
                                 f"{gauss}")
    return run.report("affine-normal-quintic-then-cubic-quadratic-odometer",
                      raw_survivors=len(run.survivors))


def kernel_span(kernel_basis):
    """All F_2 combinations of the basis bit-vectors (small kernels only)."""
    if len(kernel_basis) > 24:
        raise BudgetExceeded("kernel too large to span explicitly")
    out = [0]
    for b in kernel_basis:
        out += [v ^ b for v in out]
    return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# run_search's families; each family's engine is the function named
# search_<family>, looked up at call time so that a wrapper bound to that
# module attribute (a profiler, say) sees every dispatched call
ENGINE_FAMILIES = ("klein4_hyper_odd", "klein4_hyper_even",
                   "diagonal_quartic", "quartic_char2", "fiberproduct",
                   "exhaustive_hyper_genus3", "hyper_genus4_char2")


def run_search(F, config):
    """Run config.family's engine over F.  n (default 1) goes only to the
    engine that reads it; any other engine refuses it with ValueError
    rather than ignore it."""
    if config.family not in ENGINE_FAMILIES:
        raise UnknownFamily(f"unknown family {config.family!r}; "
                            f"known: {sorted(ENGINE_FAMILIES)}")
    engine = globals()[f"search_{config.family}"]
    takes = inspect.signature(engine).parameters
    kwargs = {"mode": config.mode, "budget": config.budget}
    if "n" in takes:
        kwargs["n"] = 1 if config.n is None else config.n
    elif config.n is not None:
        raise ValueError(f"{config.family} takes no n")
    return engine(F, **kwargs)


def first_find(F, family, **kw):
    return run_search(F, SearchConfig(family=family, mode="first_find", **kw))


def census(F, family, **kw):
    return run_search(F, SearchConfig(family=family, mode="census", **kw))
