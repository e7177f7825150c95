"""Search and census engines for pointless curves of genus 3 and 4.

Every engine is one function that runs on a _Search, the run state they
share.  The engine supplies what is particular to its family:
  * the enumeration, in a fixed deterministic order, and its cursor when
    the engine resumes from a checkpoint;
  * the family filter: cheap arithmetic (index tables, bitmasks, early
    abort) that discards most candidates;
  * the model validation: every survivor is rebuilt through the curve
    models and never trusted from the filter alone.  Where a filter claims
    to decide pointlessness exactly, a survivor that the model rejects
    raises FilterDisagreement instead of being skipped;
  * the survivor entry and its zeta summary, the parameters and the
    fingerprint of the enumeration order.
The _Search owns the rest: the start time, the survivor and zeta lists, the
candidate count and its budget (BudgetExceeded), the first_find stop
(keep() returns True at the first survivor, so an engine ends its loop
with one break), the default dedup (distinct count vectors), the
checkpoint of that shared state under the engine's cursor key, and the
one SearchReport.  Fingerprints make census results reproducible and
chunking-invariant.

Every filter reads the square class and the absolute trace of a value
from the field's index kernel (field._kernel) only: sqrt_count (the parity
of a discrete log) and, in characteristic 2, trace (the parity of
idx & trace_mask).  Filters enumerate and evaluate on indices; field
elements are built only for the candidates a filter passes.

Linear-form filters ask one question: for which lambda in A^d does every
form c_j + sum_i w_ji lambda_i land in a target set (the nonsquares, or
zero and the nonsquares)?  _linear_join answers it on the field's index
kernel by a bitset meet in the middle, yielding the passing codes in
odometer order.  klein4_hyper_odd (one form per u = x + n/x), test 1 of
the elliptic double covers (one form per rational point) and the
exhaustive genus-3 census (the values at nodes 0..8 range over the
nonsquares; one form for the leading coefficient and one per remaining
field element) run on it.  The census deduplicates its survivors under
PGL2 and square scaling on index lists, walking each orbit once per
class, not once per survivor.
"""

import hashlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field as dc_field
from itertools import islice, product

from .curves import (
    ArtinSchreierCurve,
    FiberProductGenus4,
    HyperellipticOdd,
    PlaneQuartic,
)
from .elliptic import (
    INF,
    _fn_indices,
    cover_count,
    divisor_shape,
    rr_basis,
)
from .errors import (
    BudgetExceeded,
    EmptyCosetUnderConstraint,
    EvenCharacteristic,
    FilterDisagreement,
    OddCharacteristic,
    UnknownFamily,
    UnsupportedShape,
)
from .field import Poly, RationalFunction, _kernel
from .zeta import zeta_report


@dataclass
class SearchConfig:
    family: str
    mode: str = "first_find"          # or "census"
    n: object = None                  # the x -> n/x twist parameter
    budget: int = None                # candidate cap (BudgetExceeded)
    checkpoint: str = None            # path for resumable extended runs


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
        return {
            "family": self.family,
            "parameters": self.parameters,
            "candidates": self.candidates,
            "survivors": self.survivors,
            "dedup_classes": self.dedup_classes,
            "zeta": self.zeta,
            "wall_time": round(self.wall_time, 3),
            "fingerprint": self.fingerprint,
            "kill_counts": self.kill_counts,
        }


def _fingerprint(*parts):
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


def _poly_ints(F, f):
    return [F.index(c) for c in f.coeffs]


def _disagreement(family, q, candidate, curve):
    """The error for a candidate that passed a filter claiming exactness
    but whose exact model is not a pointless curve of the family's genus."""
    return FilterDisagreement(
        f"{family} over F_{q}: the filter passed {candidate}, but the curve "
        f"has genus {curve.genus} and {curve.count(1)} rational points")


class _Search:
    """One engine run: the state every engine shares, and its report.

    A checkpoint holds the survivors, zetas and candidates, the engine's
    cursor under cursor_key and any keys the engine adds; a run resumes
    from it, with the cursor in start and the whole file in state (keys
    this run does not read are ignored)."""

    def __init__(self, family, mode, budget, checkpoint=None,
                 cursor_key=None):
        self.t0 = time.time()
        self.family, self.mode, self.budget = family, mode, budget
        self.checkpoint, self.cursor_key = checkpoint, cursor_key
        self.state = {}
        if checkpoint and os.path.exists(checkpoint):
            with open(checkpoint) as fh:
                self.state = json.load(fh)
        self.start = self.state.get(cursor_key, 0)
        self.survivors = self.state.get("survivors", [])
        self.zetas = self.state.get("zetas", [])
        self.candidates = self.state.get("candidates", 0)
        self.stopped = False

    def spend(self, visited):
        """Raise BudgetExceeded once the candidates visited pass the cap."""
        if self.budget is not None and visited > self.budget:
            raise BudgetExceeded(f"candidate budget {self.budget} exhausted")

    def visit(self, n=1):
        """Count n more candidates against the budget."""
        self.candidates += n
        self.spend(self.candidates)

    def keep(self, entry, zeta):
        """Record a validated survivor; True when first_find stops here."""
        self.survivors.append(entry)
        self.zetas.append(zeta)
        self.stopped = self.mode == "first_find"
        return self.stopped

    def save(self, cursor, **extra):
        """Checkpoint the shared state with the cursor (extra keys win),
        through a temporary file so that a kill leaves the last one whole."""
        if self.checkpoint:
            tmp = self.checkpoint + ".tmp"
            with open(tmp, "w") as fh:
                json.dump({self.cursor_key: cursor,
                           "survivors": self.survivors, "zetas": self.zetas,
                           "candidates": self.candidates, **extra}, fh)
            os.replace(tmp, self.checkpoint)

    def report(self, parameters, fingerprint, dedup_classes=None,
               kill_counts=None):
        """The SearchReport; dedup_classes defaults to the number of
        distinct count vectors among the zetas."""
        if dedup_classes is None:
            dedup_classes = len({tuple(z["counts"]) for z in self.zetas})
        return SearchReport(
            family=self.family, parameters=parameters,
            candidates=self.candidates, survivors=self.survivors,
            dedup_classes=dedup_classes, zeta=self.zetas,
            wall_time=time.time() - self.t0, fingerprint=fingerprint,
            kill_counts=kill_counts or {})


def _digits(code, alphabet_size, length):
    """The little-endian digits of code: the tuple the odometer gives it."""
    out = []
    for _ in range(length):
        code, digit = divmod(code, alphabet_size)
        out.append(digit)
    return out


def _odometer(alphabet_size, length):
    """Tuples in little-endian odometer order, as index vectors."""
    for code in range(alphabet_size ** length):
        yield code, _digits(code, alphabet_size, length)


def _partial_sums(kern, alphabet, weights, start):
    """start + sum_i weights[i] * alphabet[digit_i] for every tuple of
    digits, in little-endian odometer order (kernel indices)."""
    add, mul = kern.add, kern.mul
    sums = [start]
    for w in weights:
        terms = [mul(w, a) for a in alphabet]
        sums = [add(s, t) for t in terms for s in sums]
    return sums


def _linear_join(kern, alphabet, d, weights, consts, target, start=0):
    """Codes, ascending and from start on, of the lambda in alphabet^d
    (little-endian odometer: digit i of the code picks lambda_i) for which
    every form consts[j] + sum_i weights[j][i] * lambda_i lands in target,
    a bytearray over kernel indices.

    Meet in the middle.  The low r = ceil(d/2) digits are the right half:
    per form, the right-half sums are bucketed by value into int bitsets
    over the right codes, and good[a] is the union of the buckets v with
    target[a + v].  The high digits are the left half; their sums, the
    constant included, pick one good[a] per left code.  A left code ANDs
    those bitsets form by form and stops at 0; the set bits left, low to
    high, are its passing codes.  A form's tables are built the first
    time a left code reaches it, as most left codes die at the first few
    forms.
    """
    r = (d + 1) // 2
    width = len(alphabet) ** r
    add = kern.add

    def table(j):
        buckets = {}
        for bit, v in enumerate(_partial_sums(kern, alphabet,
                                              weights[j][:r], 0)):
            buckets.setdefault(v, bytearray((width + 7) // 8))[bit >> 3] \
                |= 1 << (bit & 7)
        buckets = [(v, int.from_bytes(b, "little"))
                   for v, b in buckets.items()]
        good = []
        for a in range(kern.q):
            bits = 0
            for v, bucket in buckets:
                if target[add(a, v)]:
                    bits |= bucket
            good.append(bits)
        return [good[a] for a in _partial_sums(kern, alphabet,
                                                weights[j][r:], consts[j])]

    tables = []
    full = (1 << width) - 1
    first, skip = divmod(start, width)
    for left in range(first, len(alphabet) ** (d - r)):
        bits = full >> skip << skip if left == first else full
        for j in range(len(weights)):
            if j == len(tables):
                tables.append(table(j))
            bits &= tables[j][left]
            if not bits:
                break
        base = left * width
        while bits:
            low = bits & -bits
            yield base + low.bit_length() - 1
            bits ^= low


# ---------------------------------------------------------------------------
# Klein-four hyperelliptic families (genus 3)
# ---------------------------------------------------------------------------

def _klein4_model(F, f, n):
    """x^4 * f(x + n/x) = sum_i c_i x^(4-i) (x^2 + n)^i as a Poly."""
    x = Poly.x(F)
    shifted = x * x + Poly.constant(F, n)
    acc = Poly(F, [])
    for i, c in enumerate(f.coeffs):
        acc = acc + (shifted ** i) * (x ** (4 - i)) * c
    return acc


def search_klein4_hyper_odd(F, n, mode="first_find", budget=None):
    """y^2 = f(x + n/x) for separable quartics f coprime to x^2 - 4n,
    materialized as degree-8 models y^2 = x^4 f(x + n/x)."""
    if F.p == 2:
        raise EvenCharacteristic("odd-characteristic family")
    n = F.element(n)
    if n.is_zero():
        raise ValueError("n must be nonzero")
    q = F.q
    kern = _kernel(F)
    mul = kern.mul
    nu = F.canonical_nonsquare
    # pointlessness needs f(u) to be a nonsquare for every u = x + n/x:
    # one linear form in (c0, c1, c2, c3) per u, with constant nu * u^4
    four_n = F.element(4) * n
    u_set = sorted({F.index(x + n / x) for x in F.elements() if not x.is_zero()})
    nu_i = F.index(nu)
    weights = []
    consts = []
    for u in u_set:
        u2 = mul(u, u)
        weights.append([1, u, u2, mul(u2, u)])
        consts.append(mul(nu_i, mul(u2, u2)))
    nonsquare = bytearray(kern.sqrt_count(a) == 0 for a in range(q))
    disc = [F.index(-four_n), 0, 1]                # u^2 - 4n
    run = _Search("klein4_hyper_odd", mode, budget)
    run.candidates = q ** 4
    # lc fixed to the canonical nonsquare: square-class scaling y -> cy
    for code in _linear_join(kern, range(q), 4, weights, consts, nonsquare):
        run.spend(code + 1)          # candidates visited up to this one
        coeffs = _digits(code, q, 4) + [nu_i]
        if not kern.is_separable(coeffs) or len(kern.gcd(coeffs, disc)) > 1:
            continue
        f = Poly(F, [F.from_index(i) for i in coeffs])
        model = _klein4_model(F, f, n)
        curve = HyperellipticOdd(F, model)
        if curve.genus != 3 or curve.count(1) != 0:
            raise _disagreement("klein4_hyper_odd", q,
                                {"f": _poly_ints(F, f), "n": F.index(n)}, curve)
        counts = [0] + [curve.count(i) for i in (2, 3)]
        if run.keep({"f": _poly_ints(F, f), "model": _poly_ints(F, model)},
                    zeta_report(q, 3, counts).to_json()):
            run.candidates = code + 1
            break
    run.spend(run.candidates)
    return run.report({"q": q, "n": F.index(n), "mode": mode},
                      _fingerprint("klein4_hyper_odd", q, F.index(n),
                                   "odometer-c0..c3-lc-nu"))


def search_klein4_hyper_even(F, mode="first_find", budget=None):
    """Char 2: y^2 + y = f(x + 1/x), f = (a u^2 + b u + c)/d(u) with d a
    separable monic quadratic, d(0) != 0."""
    if F.p != 2:
        raise OddCharacteristic("characteristic-2 family")
    run = _Search("klein4_hyper_even", mode, budget)
    x = Poly.x(F)
    x2p1 = x * x + Poly.constant(F, F.one)
    for code, idx in _odometer(F.q, 5):
        a, b, c, d1, d0 = (F.from_index(i) for i in idx)
        if d1.is_zero() or d0.is_zero():
            continue  # d must be separable with nonzero roots
        run.visit()
        # substitute u = x + 1/x and clear x^2:
        # num = a (x^2+1)^2 + b x (x^2+1) + c x^2;  den likewise from d
        num = x2p1 * x2p1 * a + x * x2p1 * b + x * x * c
        den = x2p1 * x2p1 + x * x2p1 * d1 + x * x * d0
        if num.is_zero():
            continue
        fr = RationalFunction(num, den)
        if fr.den.degree < 4:
            continue  # poles cancelled: not the 2-simple-pole shape
        try:
            curve = ArtinSchreierCurve(F, fr)
        except UnsupportedShape:
            continue
        if curve.genus != 3 or curve.count(1) != 0:
            continue
        counts = [0] + [curve.count(i) for i in (2, 3)]
        if run.keep({"f_num": _poly_ints(F, fr.num),
                     "f_den": _poly_ints(F, fr.den),
                     "quartic_f": [F.index(v) for v in (c, b, a)],
                     "d": [F.index(d0), F.index(d1), 1]},
                    zeta_report(F.q, 3, counts).to_json()):
            break
    return run.report({"q": F.q, "mode": mode},
                      _fingerprint("klein4_hyper_even", F.q, "odometer-abcd1d0"))


# ---------------------------------------------------------------------------
# diagonal quartics and the char-2 quartic family
# ---------------------------------------------------------------------------

def _diagonal_has_point(kern, b, c, d, e, f):
    """Conic fast path: x^4 + b y^4 + c z^4 + d x^2 y^2 + e x^2 z^2 + f y^2 z^2
    has a rational point iff the conic X^2 + bY^2 + cZ^2 + dXY + eXZ + fYZ
    has a point with X, Y, Z all squares (X = x^2 etc.).  The coefficients
    are kernel indices, b != 0; sqrt_count is 0 exactly off the squares
    and zero, and a nonzero square's root is exp[log / 2]."""
    add, mul, neg, is_sq = kern.add, kern.mul, kern.neg, kern.sqrt_count
    squares = [X for X in range(kern.q) if is_sq(X)]
    # z = 0: X^2 + dX + b = 0 with X = (x/y)^2 a square
    for X in squares:
        if not add(mul(X, add(X, d)), b):
            return True
    # z = 1: b Y^2 + (dX + f) Y + (X^2 + eX + c) = 0 for square X, square Y
    two_b = add(b, b)
    inv_2b, four_b = kern.inv(two_b), add(two_b, two_b)
    for X in squares:
        A1, A0 = add(mul(d, X), f), add(mul(X, add(X, e)), c)
        disc = kern.sub(mul(A1, A1), mul(four_b, A0))
        if not disc:
            if is_sq(mul(neg(A1), inv_2b)):
                return True
        elif is_sq(disc):
            r = kern.exp[kern.log[disc] >> 1]
            for root in (r, neg(r)):
                if is_sq(mul(kern.sub(root, A1), inv_2b)):
                    return True
    return False


def _diagonal_quartic(F, b, c, d, e, f):
    return PlaneQuartic(F, {(4, 0, 0): F.one, (0, 4, 0): b, (0, 0, 4): c,
                            (2, 2, 0): d, (2, 0, 2): e, (0, 2, 2): f})


def search_diagonal_quartic(F, mode="first_find", budget=None):
    """x^4 + b y^4 + c z^4 + d x^2 y^2 + e x^2 z^2 + f y^2 z^2 (a = 1 WLOG)."""
    if F.p == 2:
        raise EvenCharacteristic("diagonal quartics need odd characteristic")
    run = _Search("diagonal_quartic", mode, budget)
    kern = _kernel(F)
    # b = 0 gives the point (0:1:0), c = 0 the point (0:0:1)
    for b, c, code in product(range(1, F.q), range(1, F.q), range(F.q ** 3)):
        coeffs = [b, c] + _digits(code, F.q, 3)
        run.visit()
        if _diagonal_has_point(kern, *coeffs):
            continue
        C = _diagonal_quartic(F, *(F.from_index(i) for i in coeffs))
        if not C.is_smooth():
            continue
        entry = {"coeffs": [1] + coeffs}
        if C.count(1) != 0:
            raise _disagreement("diagonal_quartic", F.q, entry, C)
        counts = [0] + [C.count(i) for i in (2, 3)]
        if run.keep(entry, zeta_report(F.q, 3, counts).to_json()):
            break
    return run.report({"q": F.q, "mode": mode},
                      _fingerprint("diagonal_quartic", F.q,
                                   "b-c-outer-def-odometer"))


def _char2_family_quartic(F, beta, gamma):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4, expanded
    in characteristic 2, where the cross terms of the squares vanish."""
    one = F.one
    return PlaneQuartic(F, {(4, 0, 0): one, (2, 0, 2): one, (0, 4, 0): one,
                            (0, 2, 2): one, (0, 0, 4): gamma,
                            (2, 2, 0): beta, (2, 1, 1): beta,
                            (1, 2, 1): beta, (1, 1, 2): beta})


def search_quartic_char2(F, mode="first_find", budget=None):
    if F.p != 2:
        raise OddCharacteristic("characteristic-2 quartic family")
    run = _Search("quartic_char2", mode, budget)
    for code, idx in _odometer(F.q, 2):
        beta, gamma = (F.from_index(i) for i in idx)
        run.visit()
        C = _char2_family_quartic(F, beta, gamma)
        # the point count kills nearly every candidate and costs far less
        # than the resultants of the smoothness test, so it goes first
        if C.count(1) != 0 or not C.is_smooth():
            continue
        if run.keep({"beta": F.index(beta), "gamma": F.index(gamma)},
                    {"q": F.q, "counts": [0, C.count(2)]}):
            break
    return run.report({"q": F.q, "mode": mode},
                      _fingerprint("quartic_char2", F.q, "beta-gamma-odometer"))


# ---------------------------------------------------------------------------
# fiber products of two hyperelliptic genus-1 covers (genus 4)
# ---------------------------------------------------------------------------

def search_fiberproduct(F, mode="first_find", budget=None):
    """y^2 = f, z^2 = g with f monic cubic and lc(g) the canonical nonsquare;
    pointless iff for every x at least one of f(x), g(x) is a nonsquare."""
    if F.p == 2:
        raise EvenCharacteristic("odd-characteristic family")
    run = _Search("fiberproduct", mode, budget)
    nu_i = F.index(F.canonical_nonsquare)
    q = F.q
    kern = _kernel(F)
    horner, is_sq = kern.horner, kern.sqrt_count

    # bitmask per cubic (an index list): bit x set when the value at the
    # index x is NOT a nonsquare (zero or nonzero square), i.e. the spot
    # needs the partner to cover it
    def value_mask(coeffs):
        mask = 0
        for x in range(q):
            if is_sq(horner(coeffs, x)):
                mask |= 1 << x
        return mask

    g_masks = {}
    for code, idx in _odometer(q, 6):
        gcode = code % q ** 3         # f the high three digits, g the low
        if gcode == 0:                # a new f: its mask once, not per g
            fco = idx[3:] + [1]
            fmask = value_mask(fco)
        run.visit()
        gm = g_masks.get(gcode)
        if gm is None:
            gco = idx[:3] + [nu_i]
            gm = g_masks[gcode] = (value_mask(gco), gco)
        gmask, gco = gm
        if fmask & gmask:
            continue
        f = Poly(F, [F.from_index(i) for i in fco])
        g = Poly(F, [F.from_index(i) for i in gco])
        try:
            C = FiberProductGenus4(F, f, g)
        except UnsupportedShape:
            continue
        entry = {"f": list(fco), "g": list(gco)}
        if C.count(1) != 0:
            raise _disagreement("fiberproduct", q, entry, C)
        props = C.properties()
        entry.update(trigonal=props["trigonal"],
                     extra_autos=props["extra_autos"])
        if run.keep(entry, {"q": q, "counts": [0, C.count(2)]}):
            break
    return run.report({"q": q, "mode": mode},
                      _fingerprint("fiberproduct", q, "f-monic-g-nu-odometer"))


# ---------------------------------------------------------------------------
# exhaustive genus-3 hyperelliptic census (odd q > 7)
# ---------------------------------------------------------------------------

def _taylor_shift(kern, f, t):
    """f(x + t) for the index polynomial f (constant term first)."""
    f = list(f)
    mul, add = kern.mul, kern.add
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] = add(f[j], mul(t, f[j + 1]))
    return f


def _pgl2_orbit(kern, f):
    """g = (cx + d)^8 f((ax + b)/(cx + d)) up to a square factor, as index
    lists, for each of the q^3 - q normalised (a, b, c, d) (first nonzero
    entry 1, ad - bc != 0) that keeps deg g = 8; f is a degree-8 index
    list.

    (1, b, c, d) is (1, 0; c, 1)(1, b; 0, e) with e = d - bc.  The first
    factor turns f into rev(rev(f)(x + c)), rev reversing the 9
    coefficients; the second into e^8 h((x + b)/e), which is e^8 times
    h(x + b/e) with x scaled by 1/e.  (0, 1, c, d) gives rev(f)(cx + d):
    rev(f) shifted by d, x scaled by c.  So each of the q + 1 bases is
    shifted by every t and scaled by every u != 0."""
    q = kern.q
    mul = kern.mul
    rev = f[::-1]
    bases = [_taylor_shift(kern, rev, c)[::-1] for c in range(q)] + [rev]
    powers = [[1] * 9 for _ in range(q)]
    for u in range(1, q):
        for i in range(1, 9):
            powers[u][i] = mul(powers[u][i - 1], u)
    for base in bases:
        if not base[8]:
            continue            # a branch point went to infinity
        for t in range(q):
            h = _taylor_shift(kern, base, t)
            for u in range(1, q):
                yield [mul(c, w) for c, w in zip(h, powers[u])]


def _square_class_canonical(kern, nu, g):
    """The minimal index tuple over the square multiples s^2 g of the
    nonzero index list g.  The first nonzero entry decides it: s^2 takes
    it to 1 when it is a square and to nu, the smallest nonsquare index,
    when it is not."""
    lead = next(c for c in g if c)
    s2 = kern.mul(kern.inv(lead), nu if kern.sqrt_count(lead) == 0 else 1)
    return tuple(kern.mul(s2, c) for c in g)


def _pgl2_canonical_key(kern, nu, f):
    """Canonical key of the degree-8 model y^2 = f (an index list) under
    PGL2(F_q) acting on x and square scaling of f: the minimal square
    class tuple over the orbit.  The key is an orbit invariant, so a
    census walks each orbit only once (_pgl2_classes)."""
    return min(_square_class_canonical(kern, nu, g)
               for g in _pgl2_orbit(kern, f))


def _pgl2_classes(kern, nu, models):
    """The PGL2 canonical key of each degree-8 index list in models, and
    the number of distinct keys.  A model whose square class is not yet
    known has its orbit walked, and every member's square class tuple is
    mapped to the orbit minimum: one walk per class, not per model."""
    key_of = {}
    keys = []
    for f in models:
        tup = _square_class_canonical(kern, nu, f)
        if tup not in key_of:
            members = {_square_class_canonical(kern, nu, g)
                       for g in _pgl2_orbit(kern, f)}
            key_of.update(dict.fromkeys(members, min(members)))
        keys.append(key_of[tup])
    return keys, len(set(keys))


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
    nodes = [F.from_index(i) for i in range(9)]
    basis = [_poly_ints(F, Poly.interpolate(
                 F, nodes, [F.one if j == i else F.zero for j in range(9)]))
             for i in range(9)]
    weights = [[L[8] for L in basis]]
    weights += [[kern.horner(L, x) for L in basis] for x in range(9, F.q)]
    return nonsquare, basis, weights


# candidates between checkpoint writes: the join covers 1e8 candidates in
# about 3 s over F_29 (1e5 took about 10 s one by one), so that a write,
# about 30 ms on a VM disk, costs about 1 % of the run
_CENSUS_CHECKPOINT_EVERY = 10 ** 8


def search_exhaustive_hyper_genus3(F, mode="census", budget=None,
                                   checkpoint=None):
    """All pointless y^2 = f with f of degree 8, driven by interpolation:
    the values at the nodes 0..8 range over the nonsquares, the join keeps
    the value tuples whose leading coefficient and q - 9 remaining
    evaluations are all nonsquares, and f is rebuilt and checked for
    separability.

    A checkpoint is the state after the first m - 1 candidates, for m the
    last multiple of _CENSUS_CHECKPOINT_EVERY the run has reached within
    its budget: the state a candidate-by-candidate loop would save before
    checking candidate m - 1."""
    if F.p == 2:
        raise EvenCharacteristic("odd-characteristic census")
    if F.q < 9:
        raise ValueError("exhaustive census engine needs q >= 9")
    q = F.q
    kern = _kernel(F)
    mul, add = kern.mul, kern.add
    nonsquare, basis, weights = _node_value_forms(F)
    ns = [a for a in range(q) if nonsquare[a]]
    nv = len(ns)
    total = nv ** 9
    run = _Search("exhaustive_hyper_genus3", mode, budget, checkpoint, "next")
    written = run.start         # candidates + 1 of the last state saved

    def save(reached):
        nonlocal written
        m = reached if budget is None else min(reached, budget)
        m -= m % _CENSUS_CHECKPOINT_EVERY
        if m > written:
            # every survivor so far has a code below m - 1: one at m - 1
            # or later would have saved m already
            written = m
            run.save(m - 1, candidates=m - 1)

    run.candidates = total
    for code in _linear_join(kern, ns, 9, weights, [0] * len(weights),
                             nonsquare, run.start):
        save(code + 1)
        run.spend(code + 1)          # candidates visited up to this one
        coeffs = [0] * 9
        for digit, L in zip(_digits(code, nv, 9), basis):
            v = ns[digit]
            coeffs = [add(c, mul(v, w)) for c, w in zip(coeffs, L)]
        if not kern.is_separable(coeffs):
            continue
        curve = HyperellipticOdd(F, Poly(F, [F.from_index(c) for c in coeffs]))
        if curve.genus != 3 or curve.count(1) != 0:
            raise _disagreement("exhaustive_hyper_genus3", q,
                                {"f": coeffs}, curve)
        counts = [0] + [curve.count(i) for i in (2, 3)]
        if run.keep({"f": coeffs}, zeta_report(q, 3, counts).to_json()):
            run.candidates = code + 1
            break
    save(run.candidates)             # a no-op after a first_find stop
    run.spend(run.candidates)
    # census dedup under PGL2 + square scaling; ns[0] is the smallest
    # nonsquare index
    keys, classes = _pgl2_classes(kern, ns[0],
                                  [s["f"] for s in run.survivors])
    for s, key in zip(run.survivors, keys):
        s["iso_class_key"] = list(key)
    run.save(total, done=True)
    return run.report({"q": q, "mode": mode},
                      _fingerprint("exhaustive_hyper_genus3", q,
                                   "nodes-0..8-nonsquare-odometer"),
                      dedup_classes=classes)


# ---------------------------------------------------------------------------
# double covers of elliptic curves (genus 3 via L(6*inf), genus 4 via L(8*inf))
# ---------------------------------------------------------------------------

def _double_zero_kernel(E, basis, Q):
    """Basis of the space of functions in L(k*inf) vanishing to order >= 2
    at Q: the kernel of two rows, the value of each monomial x^i y^j at Q
    and its derivative in the local parameter t.  Off 2-torsion t = x - x0
    and dy/dx = c'(x0) / (2 y0); at a 2-torsion point t = y and
    x = x0 + O(t^2), so the rows are x0^i [j = 0] and x0^i [j = 1]."""
    F = E.base
    x0, y0 = Q
    mat = [[], []]
    if y0.is_zero():
        for (i, j) in basis:
            mat[j].append(x0 ** i)
            mat[1 - j].append(F.zero)
    else:
        dy = E.cubic.derivative().eval(x0) / (F.element(2) * y0)
        for (i, j) in basis:
            # d(x^i)/dt = i x0^(i-1), and d(x^i y)/dt adds x^i dy/dx
            dxi = F.element(i) * x0 ** (i - 1) if i else F.zero
            mat[0].append(x0 ** i * y0 if j else x0 ** i)
            mat[1].append(dxi * y0 + x0 ** i * dy if j else dxi)
    # gaussian elimination on the 2 x k system
    k = len(basis)
    col_of_row = []
    r = 0
    for col in range(k):
        piv = None
        for rr in range(r, len(mat)):
            if not mat[rr][col].is_zero():
                piv = rr
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inv()
        mat[r] = [v * inv for v in mat[r]]
        for rr in range(len(mat)):
            if rr != r and not mat[rr][col].is_zero():
                c = mat[rr][col]
                mat[rr] = [a - c * b for a, b in zip(mat[rr], mat[r])]
        col_of_row.append(col)
        r += 1
        if r == len(mat):
            break
    pivot_cols = set(col_of_row)
    free_cols = [c for c in range(k) if c not in pivot_cols]
    kernel = []
    for fc in free_cols:
        vec = [F.zero] * k
        vec[fc] = F.one
        for rr, pc in enumerate(col_of_row):
            vec[pc] = -mat[rr][fc]
        kernel.append(vec)
    return kernel


def search_double_covers_elliptic(E, genus_target=3, mode="census",
                                  budget=None, checkpoint=None):
    """Genus-3 (k=6, Q from E/2E) or genus-4 (k=8, Q from E/3E) double covers
    z^2 = f.  Test 1: no rational point of E where f is a nonzero square.
    Test 2: divisor shape 2Q + (k-2 odd-order points) - k*inf."""
    F = E.base
    if F.p == 2:
        raise EvenCharacteristic("odd-characteristic engine")
    if genus_target not in (3, 4):
        raise ValueError("genus_target must be 3 or 4")
    k = 6 if genus_target == 3 else 8
    m = 2 if genus_target == 3 else 3
    basis = rr_basis(k)
    q = F.q
    try:
        qreps = E.quotient_reps(m)
        used_fallback = False
    except EmptyCosetUnderConstraint:
        qreps = E.quotient_reps(m, fallback=True)
        used_fallback = True
    if INF in qreps:
        # E(F_q) is killed by m, so O is alone in its coset of m E(F_q); the
        # double zero Q = O needs L((k - 2) inf), which is not built here
        raise UnsupportedShape(f"{E!r}: the coset {{O}} of {m}E(F_{q}) has "
                               f"no affine point to carry the double zero")
    kern = _kernel(F)
    horner, add, mul = kern.horner, kern.add, kern.mul
    not_square = bytearray(kern.sqrt_count(a) != 2 for a in range(q))
    pts = [(F.index(P[0]), F.index(P[1])) for P in E.points() if P is not INF]
    one_i, nu_i = F.index(F.one), F.index(F.canonical_nonsquare)
    run = _Search("double_covers_elliptic", mode, budget, checkpoint, "rep")
    kill1, kill2 = run.state.get("kill_counts", (0, 0))
    for rep_i in range(run.start, len(qreps)):
        Q = qreps[rep_i]
        kernel = _double_zero_kernel(E, basis, Q)
        dim = len(kernel)
        # per-point values of the kernel basis functions, as indices
        fns = [_fn_indices(basis, [F.index(v) for v in vec]) for vec in kernel]
        B_at = [[add(horner(A, x), mul(horner(B, x), y)) for A, B in fns]
                for x, y in pts]
        # enumerate modulo square scaling: leading coefficient in {1, nu}
        for lead, lead_val in product(range(dim), (one_i, nu_i)):
            free = dim - lead - 1     # coordinates after the leading one
            weights = [row[lead + 1:] for row in B_at]
            # test 1: f(P) is zero or a nonsquare at every rational P
            consts = [mul(lead_val, row[lead]) for row in B_at]
            passes = 0
            for code in _linear_join(kern, range(q), free, weights,
                                     consts, not_square):
                run.spend(run.candidates + code + 1)
                passes += 1
                lam = [0] * lead + [lead_val] + _digits(code, q, free)
                coeffs = [F.zero] * len(basis)
                for l_i, vec in zip(lam, kernel):
                    if l_i:
                        li = F.from_index(l_i)
                        coeffs = [c + li * v for c, v in zip(coeffs, vec)]
                if all(c.is_zero() for c in coeffs):
                    continue
                sh = divisor_shape(E, coeffs, basis, Q, k)
                if not sh["shape_ok"]:
                    kill2 += 1
                    continue
                counts = [cover_count(E, coeffs, basis, i) for i in (1, 2, 3)]
                # first_find stops after the coset, not at this survivor
                run.keep({"Q": [F.index(Q[0]), F.index(Q[1])],
                          "coeffs": [F.index(c) for c in coeffs],
                          "counts": counts, "pointless": counts[0] == 0},
                         {"q": q, "counts": counts})
            run.visit(q ** free)
            kill1 += q ** free - passes
        run.save(rep_i + 1, kill_counts=[kill1, kill2])
        if mode == "first_find" and run.survivors:
            break
    curve = [F.index(E.a2), F.index(E.a4), F.index(E.a6)]
    return run.report({"q": q, "genus": genus_target, "curve": curve,
                       "reps": len(qreps), "fallback": used_fallback,
                       "mode": mode},
                      _fingerprint("double_covers", q, genus_target, *curve,
                                   "lead-norm-odometer"),
                      kill_counts={"test1": kill1, "test2": kill2})


# ---------------------------------------------------------------------------
# genus-4 hyperelliptic (Artin-Schreier) census in characteristic 2
# ---------------------------------------------------------------------------

def _monic_irreducibles(F, degree):
    """Monic irreducibles of the given degree, lazily, in odometer order;
    each code is tested on its index list (the index of 1 is 1)."""
    is_irreducible = _kernel(F).is_irreducible
    for code, idx in _odometer(F.q, degree):
        cs = idx + [1]
        if is_irreducible(cs):
            yield Poly(F, [F.from_index(i) for i in cs])


def _conductor_stream(F):
    """Degree-5 conductors: a single quintic place first, then a quadratic
    place paired with a cubic place."""
    for m in _monic_irreducibles(F, 5):
        yield "5", (m,)
    cubics = None
    for p2 in _monic_irreducibles(F, 2):
        if cubics is None:
            cubics = list(_monic_irreducibles(F, 3))
        for p3 in cubics:
            yield "2+3", (p2, p3)


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
    nbits = deg * n
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
    # gaussian elimination on columns to find the kernel
    # represent each column with a tracking combination bitmask
    combos = [1 << j for j in range(nbits)]
    work = list(cols)
    pivots = {}  # row -> (col value, combo)
    kernel = []
    for j in range(nbits):
        v, comb = work[j], combos[j]
        while v:
            r = v.bit_length() - 1
            if r in pivots:
                pv, pc = pivots[r]
                v ^= pv
                comb ^= pc
            else:
                pivots[r] = (v, comb)
                break
        if v == 0:
            kernel.append(comb)
    return kernel


def search_hyper_genus4_char2(F, mode="first_find", budget=None,
                              checkpoint=None):
    """Genus-4 hyperelliptic curves with no rational Weierstrass point:
    y^2 + y = g(x)/m(x) + t over the conductor shapes {degree-5 place} and
    {degree-2 + degree-3 places}, all poles simple.

    Pointless iff Tr(g(x)/m(x)) = 0 for all rational x and Tr(t) = 1 (the
    place at infinity is ordinary with value t), which is an F_2-linear
    condition on g: each m contributes its kernel, filtered for conductor
    preservation (g not divisible by a factor of m).
    """
    if F.p != 2:
        raise OddCharacteristic("characteristic-2 census")
    q = F.q
    kern = _kernel(F)
    t_val = F.from_index(next(v for v in range(q) if kern.trace(v)))
    run = _Search("hyper_genus4_char2", mode, budget, checkpoint, "next_m")
    next_m = run.start

    def curves():
        """(entry, curve) for every genus-4 curve of the conductors from
        the cursor on; next_m is one past the conductor in hand."""
        nonlocal next_m
        conductors = islice(_conductor_stream(F), run.start, None)
        for m_index, (shape_name, parts) in enumerate(conductors, run.start):
            next_m = m_index + 1
            m = parts[0]
            for p in parts[1:]:
                m = m * p
            run.visit()
            kernel = _trace_matrix_kernel(kern, _poly_ints(F, m))
            for bits in sorted(kernel_span(kernel)):
                if bits == 0:
                    continue
                # coefficient i of g: bits i*n .. i*n + n - 1
                g = Poly(F, [F.from_index(bits >> (i * F.n) & (q - 1))
                             for i in range(m.degree)])
                if any((g % p).is_zero() for p in parts):
                    continue  # a pole disappears: conductor changes
                try:
                    curve = ArtinSchreierCurve(
                        F, RationalFunction(g + m * t_val, m))
                except UnsupportedShape:
                    continue
                if curve.genus == 4:
                    yield {"shape": shape_name, "m": _poly_ints(F, m),
                           "g": _poly_ints(F, g), "t": F.index(t_val)}, curve
            if m_index % 1000 == 0:
                run.save(next_m)

    for entry, curve in curves():
        if curve.count(1) != 0:
            raise _disagreement("hyper_genus4_char2", q, entry, curve)
        entry["counts"] = [0] + [curve.count(i) for i in (2, 3, 4)]
        if run.keep(entry, {"q": q, "counts": entry["counts"]}):
            break
    run.save(next_m, done=not run.stopped)
    return run.report({"q": q, "mode": mode,
                       "raw_survivors": len(run.survivors)},
                      _fingerprint("hyper_genus4_char2", q,
                                   "shape5-then-2+3-odometer"))


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
    """Run config.family's engine over F.  n (default 1 where the engine
    takes it) and checkpoint go only to the engines that read them; any
    other engine refuses them with ValueError rather than ignore them."""
    if config.family not in ENGINE_FAMILIES:
        raise UnknownFamily(f"unknown family {config.family!r}; "
                            f"known: {sorted(ENGINE_FAMILIES)}")
    engine = globals()[f"search_{config.family}"]
    takes = inspect.signature(engine).parameters
    kwargs = {"mode": config.mode, "budget": config.budget}
    if "n" in takes:
        kwargs["n"] = 1
    for option in ("n", "checkpoint"):
        value = getattr(config, option)
        if value is not None:
            if option not in takes:
                raise ValueError(f"{config.family} takes no {option}")
            kwargs[option] = value
    return engine(F, **kwargs)


def first_find(F, family, **kw):
    return run_search(F, SearchConfig(family=family, mode="first_find", **kw))


def census(F, family, **kw):
    return run_search(F, SearchConfig(family=family, mode="census", **kw))
