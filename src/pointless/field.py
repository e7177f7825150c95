"""Exact arithmetic in F_p and F_{p^n}, univariate polynomials, embeddings.

Elements of an extension field are dense coefficient vectors over F_p in a
caller-chosen presentation: the defining polynomial is never normalized, so
constants quoted against a specific generator relation stay bit-exact.

All F_p[x] arithmetic behind the library runs on index kernels (_kernel),
the prime field's among them, whose indices are the residues mod p: it
proves each extension's defining polynomial irreducible (Ben-Or,
_Kernel.is_irreducible), finds canonical_extension's smallest one, and
tests the candidate generators of FiniteField.dlog_tables (_Kernel.powmod).
FieldElement keeps its own arithmetic on int tuples, independent of the
kernels, as the reference the tests check them against.
"""

import random
from array import array
from itertools import repeat, zip_longest
from operator import xor

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    ExtensionTooLarge,
    MixedFields,
    NoSquareRoot,
    OddCharacteristic,
    ReduciblePolynomial,
)

# The largest field order served: every FieldElement square test and
# every Poly gcd runs on the field's index kernel, and counting over
# F_{q^i} builds one for that field too, so FiniteField and embed refuse a
# field past this before any table is built.  A count that needs such a
# field raises ExtensionTooLarge, which `verify` and `count` report as a
# usage error.  2^20 is the largest kernel the shipped corpus builds at
# depth 4: N_4 at q = 32 (the q = 32 quartics and towers).  Every other
# row that counts over F_{q^i} has q <= 29, and the fiber products (q up
# to 49) count over F_q and F_{q^2} only.  Measured on a 2-core
# x86-64 VM under Python 3.11, the F_{2^20} kernel takes 0.3 s to build
# and a fresh process peaks at 35 MB doing it.
MAX_FIELD_ORDER = 2 ** 20


# ---------------------------------------------------------------------------
# FieldElement's arithmetic: dense F_p[t] on plain int tuples (c0, c1, ...),
# kept apart from the index kernel, which the tests check against it
# ---------------------------------------------------------------------------

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def _psub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _trim(out)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lc = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    quot = [0] * max(0, da - db + 1)
    for i in range(da - db, -1, -1):
        c = (a[i + db] * inv_lc) % p
        if c:
            quot[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(quot), _trim(a[:db])


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pinvmod(a, m, p):
    """Inverse of a modulo m in F_p[t]; a must be coprime to m."""
    r0, r1 = m, a
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise DivisionByZero("element not invertible")
    c = pow(r0[0], p - 2, p) if p > 2 else 1
    return _trim([(x * c) % p for x in s0])


# ---------------------------------------------------------------------------
# field construction helpers
# ---------------------------------------------------------------------------

def _check_order(p, n):
    """Refuse F_{p^n} past MAX_FIELD_ORDER, whose index kernel is not
    built."""
    if p ** n > MAX_FIELD_ORDER:
        name = f"F_{p}" if n == 1 else f"F_{p}^{n}"
        raise ExtensionTooLarge(
            f"{name} has {p ** n} elements, past MAX_FIELD_ORDER = "
            f"{MAX_FIELD_ORDER}, the largest field the index kernel serves")


def _prime_factors(n):
    """The prime factors of n with multiplicity, ascending ([] for n < 2):
    the one trial division behind every primality and prime-power test."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(i, p, n):
    """The n base-p digits of i, least significant first."""
    out = []
    for _ in range(n):
        i, c = divmod(i, p)
        out.append(c)
    return out


def _generator_step(p, n, mod, g):
    """Multiplication by g in F_p[a]/(mod) on indices, as tables for
    FiniteField.dlog_tables: (h, lo_img, hi_img, spread).

    The product is F_p-linear on digit vectors, so an index splits into its
    low h = n // 2 digits lo and its high digits hi, and x * g is the sum of
    the images of lo and of hi * p^h.  lo_img and hi_img hold those images
    (p^h and p^(n-h) entries), built one digit at a time from the columns
    a^k * g.  In characteristic 2 they are indices and the sum is their
    XOR (spread is None).  For odd p they hold the digits in base
    B = 2p - 1, so adding two images carries no digit into the next, and
    spread maps an (n-h)-digit base-B sum back to base-p digits mod p: the
    low chunk of the product is spread[s % B^h] and the high one
    spread[s // B^h].  spread has B^(n-h) entries, at most q, since
    (2p - 1)^k <= p^(2k) and (2p - 1)^(k+1) <= p^(2k+1) for odd p and
    k >= 1: no table here exceeds q entries."""
    cols = [_digits(g, p, n)]              # cols[k] = a^k * g mod `mod`
    for _ in range(n - 1):
        up = [0] + cols[-1]                # times a, then reduce a^n
        top = up.pop()
        cols.append([(c - top * m) % p for c, m in zip(up, mod)])
    base = 2 if p == 2 else 2 * p - 1

    def images(chunk):
        vecs = [[0] * n]
        for col in chunk:                  # one more digit: index d * len + i
            vecs = [[(x + d * c) % p for x, c in zip(v, col)]
                    for d in range(p) for v in vecs]
        return array("q", [sum(c * base ** i for i, c in enumerate(v))
                           for v in vecs])

    h = n // 2
    lo_img, hi_img = images(cols[:h]), images(cols[h:])
    if p == 2:
        return h, lo_img, hi_img, None
    spread = [0]
    for j in range(n - h):
        spread = [r + d % p * p ** j for d in range(base) for r in spread]
    return h, lo_img, hi_img, array("q", spread)


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class FiniteField:
    """F_{p^n} with an explicit defining polynomial (absent when n = 1).

    Instances are immutable; elements are coefficient vectors of length n in
    the generator a, fully reduced.  The canonical total order on elements is
    by the integer index sum(c_i * p^i).
    """

    def __init__(self, p, n=1, defining_poly=None):
        if _prime_factors(p) != [p]:
            raise CompositeCharacteristic(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        _check_order(p, n)
        self.p = p
        self.n = n
        self.q = p ** n
        if n == 1:
            if defining_poly is not None:
                defining_poly = _trim(tuple(c % p for c in defining_poly))
                if defining_poly != (0, 1):
                    raise ValueError("prime fields take no defining polynomial")
            self.defining_poly = None
        else:
            if defining_poly is None:
                raise ValueError("extension fields need a defining polynomial")
            coeffs = _trim(tuple(c % p for c in defining_poly))
            if len(coeffs) != n + 1 or coeffs[-1] != 1:
                raise ReduciblePolynomial(
                    f"defining polynomial must be monic of degree {n}")
            if not _kernel(canonical_extension(p, 1)).is_irreducible(coeffs):
                raise ReduciblePolynomial(
                    f"defining polynomial {list(coeffs)} is reducible over F_{p}")
            self.defining_poly = coeffs
        self.zero = FieldElement(self, ())
        self.one = FieldElement(self, (1,))
        self._kern = None

    @property
    def char(self):
        return self.p

    @property
    def order(self):
        return self.q

    @property
    def gen(self):
        if self.n == 1:
            raise ValueError("prime field has no distinguished generator")
        return FieldElement(self, (0, 1))

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.n == other.n
                and self.defining_poly == other.defining_poly)

    def __hash__(self):
        return hash((self.p, self.n, self.defining_poly))

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.q}; a: {list(self.defining_poly)})"

    # -- element construction ------------------------------------------

    def element(self, spec):
        """Coerce an int, a coefficient list, or an "a^k" power string."""
        if isinstance(spec, FieldElement):
            if spec.parent != self:
                raise MixedFields("element belongs to a different field")
            return spec
        if isinstance(spec, int):
            return FieldElement(self, _trim((spec % self.p,)))
        if isinstance(spec, str):
            s = spec.strip()
            if s == "a":
                return self.gen
            if s.startswith("a^"):
                return self.gen ** int(s[2:])
            return FieldElement(self, _trim((int(s) % self.p,)))
        if isinstance(spec, (list, tuple)):
            coeffs = [c % self.p for c in spec]
            if len(coeffs) > self.n:
                raise ValueError("coefficient vector longer than the degree")
            return FieldElement(self, _trim(coeffs))
        raise TypeError(f"cannot coerce {spec!r} into {self!r}")

    def from_index(self, i):
        return FieldElement(self, _trim(_digits(i, self.p, self.n)))

    def index(self, v):
        if self.n == 1:
            return v.coeffs[0] if v.coeffs else 0
        out = 0
        for c in reversed(v.coeffs):
            out = out * self.p + c
        return out

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    @property
    def canonical_nonsquare(self):
        """First nonsquare in the canonical element order (odd q only)."""
        if self.p == 2:
            raise OddCharacteristic("every element of a char-2 field is a square")
        return self.from_index(_kernel(self).nonsquare)

    # -- discrete-log tables -------------------------------------------

    def dlog_tables(self):
        """(exp, log) over element indices, as 'i' arrays: the generator is
        the first primitive element in canonical order, and log[0] = 0 is a
        placeholder (zero has no log).  These are the index kernel's tables.

        Built afresh on each call on ints, never on FieldElements: k * g % p
        on a prime field.  On an extension the search for g starts at index
        p, since an element of F_p has order dividing p - 1 < q - 1; a
        candidate's powers v^((q - 1)/r) modulo the defining polynomial are
        taken on the prime field's kernel (_Kernel.powmod), whose indices
        are the residues mod p, so the digit list of v is its index
        polynomial.  The walk multiplies by g through _generator_step's
        tables, a few lookups per element.  The index kernel (_kernel)
        takes the arrays once per field and keeps them; the square test,
        square roots, gcds, factorisations and every curve's count(i) read
        them there.
        Filling arrays keeps no int object per entry: the tables of
        F_{2^20}, the largest field MAX_FIELD_ORDER admits, take 8 MB as
        arrays and about 80 MB as lists.  The walk, at about 0.3 us per
        element, is nearly all of a kernel's build: the F_{2^20} kernel
        takes about 0.3 s."""
        p, n, q = self.p, self.n, self.q
        factors = set(_prime_factors(q - 1))
        exp = array("i", bytes(4 * (q - 1)))
        log = array("i", bytes(4 * q))
        if n == 1:
            g = next(v for v in range(1, q)
                     if all(pow(v, (q - 1) // r, p) != 1 for r in factors))
            acc = 1
            for k in range(q - 1):
                exp[k] = acc
                log[acc] = k
                acc = acc * g % p
        else:
            mod = self.defining_poly
            powmod = _kernel(canonical_extension(p, 1)).powmod
            g = next(v for v in range(p, q)
                     if all(powmod(_digits(v, p, n), (q - 1) // r, mod) != [1]
                            for r in factors))
            h, lo_img, hi_img, spread = _generator_step(p, n, mod, g)
            if p == 2:
                mask = (1 << h) - 1
                acc = 1
                for k in range(q - 1):
                    exp[k] = acc
                    log[acc] = k
                    acc = lo_img[acc & mask] ^ hi_img[acc >> h]
            else:
                ph, bh = p ** h, (2 * p - 1) ** h
                lo = 1
                hi = 0
                for k in range(q - 1):
                    idx = lo + ph * hi
                    exp[k] = idx
                    log[idx] = k
                    s = lo_img[lo] + hi_img[hi]
                    lo = spread[s % bh]
                    hi = spread[s // bh]
        return exp, log


class FieldElement:
    """A fully reduced coefficient vector in the generator of its field."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.parent != self.parent:
            raise MixedFields("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.parent, _padd(self.coeffs, other.coeffs, self.parent.p))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.parent, _psub(self.coeffs, other.coeffs, self.parent.p))

    def __neg__(self):
        p = self.parent.p
        return FieldElement(self.parent, tuple((-c) % p for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        F = self.parent
        prod = _pmul(self.coeffs, other.coeffs, F.p)
        if F.n > 1 and len(prod) > F.n:
            prod = _pmod(prod, F.defining_poly, F.p)
        return FieldElement(F, prod)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        F = self.parent
        if F.n == 1:
            return FieldElement(F, (pow(self.coeffs[0], F.p - 2, F.p),))
        return FieldElement(F, _pinvmod(self.coeffs, F.defining_poly, F.p))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.parent.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.parent == other.parent and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        if self.parent.n == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                s = "a" if i == 1 else f"a^{i}"
                terms.append(s if c == 1 else f"{c}*{s}")
        return "+".join(reversed(terms))

    def is_square(self):
        """Log parity on the index kernel for odd q; in characteristic 2
        everything is a square.  Zero reports True."""
        if self.is_zero():
            return True
        F = self.parent
        if F.p == 2:
            return True
        return _kernel(F).sqrt_count(F.index(self)) == 2

    def sqrt(self):
        F = self.parent
        if F.p == 2:
            # squaring is a bijection; the inverse is q/2 more squarings
            out = self
            for _ in range(F.n - 1):
                out = out * out
            return out
        if self.is_zero():
            return self
        kern = _kernel(F)
        k = kern.log[F.index(self)]
        if k % 2 == 1:
            raise NoSquareRoot(f"{self!r} is not a square in {F!r}")
        return F.from_index(kern.exp[k // 2])

    def trace_to_F2(self):
        """Absolute trace down to F_2, as an int bit."""
        F = self.parent
        if F.p != 2:
            raise OddCharacteristic("absolute 2-trace needs characteristic 2")
        acc = F.zero
        v = self
        for _ in range(F.n):
            acc = acc + v
            v = v * v
        return 0 if acc.is_zero() else 1


# ---------------------------------------------------------------------------
# index kernel: table-driven arithmetic on canonical element indices
# ---------------------------------------------------------------------------

def _kernel(field):
    """The index kernel of `field`, built on first use and cached on it."""
    if field._kern is None:
        if field.p == 2:
            field._kern = _Char2Kernel(field)
        elif field.n == 1:
            field._kern = _PrimeKernel(field)
        else:
            field._kern = _ZechKernel(field)
    return field._kern


class _Kernel:
    """Arithmetic on the canonical indices 0..q-1 of one field's elements.

    Multiplication, inversion and the square test read the field's exp/log
    tables as typed arrays (FiniteField.dlog_tables); exp is stored twice
    over so that exp[log a + log b] needs no reduction.
    Addition is left to the subclasses: (a + b) % p on a prime field,
    a ^ b in characteristic 2 (index bits are coefficient bits), Zech
    logarithms on odd-characteristic extensions; add_row(v) is row v of
    the addition table, kept once built.  Index polynomials are
    lists of indices, constant term first; on them the kernel evaluates
    (horner), multiplies, subtracts, reduces and divides (_pmul, _psub,
    _pmod, _pquo), raises to powers modulo a polynomial (powmod), takes
    the monic gcd (gcd), tests separability (is_separable), counts roots
    (root_count: y^Q mod f from y^q by the q-power Frobenius of
    F_Q[y]/(f), which is semilinear on index lists), solves
    a Y^2 + b Y + c in Y = y^2, or y^2 + y in characteristic 2, counting
    the y (quadratic_fibres), and
    factors (squarefree, factor, is_irreducible), all on the one Euclid
    loop (_euclid).  FieldElement's square test and square root, and
    Poly's gcd, run on it over every FiniteField, and nonsquare is the
    canonical nonsquare's index (p odd).  The tables hold 4-byte ints, exp
    twice and log once (and the Zech logarithms twice on an odd
    extension): 12 to 20 bytes per element, which with their build time
    is what MAX_FIELD_ORDER bounds (12 MB at F_{2^20}, the cap).
    """

    def __init__(self, field):
        # log[0] = 0 is never read: zero is always tested for first
        exp, log = field.dlog_tables()
        self.q = field.q
        self.p = field.p
        self.n1 = field.q - 1
        self.log_minus_one = 0 if field.p == 2 else self.n1 // 2
        self.exp = exp + exp
        self.log = log
        # the index of the canonical nonsquare, the first with an odd log
        self.nonsquare = None if field.p == 2 else next(
            a for a in range(1, field.q) if log[a] & 1)
        self._orbits = {}
        self._square_orbits = {}
        self._rows = {}

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return self.exp[self.n1 - self.log[a]]

    def sqrt_count(self, a):
        """Number of y with y^2 = a: the square test is log parity."""
        if not a:
            return 1
        return 0 if self.log[a] & 1 else 2

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def add_row(self, v):
        """[add(a, v) for a in range(q)], built on first use and kept."""
        if v not in self._rows:
            self._rows[v] = [self.add(a, v) for a in range(self.q)]
        return self._rows[v]

    def frobenius_orbits(self, q):
        """(smallest index, size) for each orbit of x -> x^q, where F_q is
        a subfield; every orbit size divides the degree of the field over
        F_q.  Summing a function of values in F_q[x] over the field is
        summing size * value at each representative."""
        if q == self.q:
            return zip(range(self.q), repeat(1))
        if q not in self._orbits:
            exp, log, n1 = self.exp, self.log, self.n1
            seen = bytearray(self.q)
            reps, sizes = array("i", [0]), bytearray([1])
            for x in range(1, self.q):
                if seen[x]:
                    continue
                k = log[x]
                j, size = k, 0
                while True:
                    seen[exp[j]] = 1
                    size += 1
                    j = j * q % n1
                    if j == k:
                        break
                reps.append(x)
                sizes.append(size)
            self._orbits[q] = (reps, sizes)
        return zip(*self._orbits[q])

    def square_orbits(self, q):
        """frobenius_orbits(q) restricted to the nonzero squares, q odd: the
        orbits whose representative has an even log.  x -> x^q multiplies
        log x by q modulo the even order of the group, which keeps its
        parity, so each orbit is all squares or none."""
        if q not in self._square_orbits:
            log = self.log
            reps, sizes = array("i"), bytearray()
            for x, w in self.frobenius_orbits(q):
                if x and not log[x] & 1:
                    reps.append(x)
                    sizes.append(w)
            self._square_orbits[q] = (reps, sizes)
        return zip(*self._square_orbits[q])

    # -- index polynomials ---------------------------------------------

    def _pmod(self, a, m):
        """a mod m for index polynomials, m trimmed and nonzero.  Products
        are taken on logs: a row with leading term c adds -(c / lc(m)) m,
        whose log is log c - log lc(m) + log(-1)."""
        add, exp, log, n1 = self.add, self.exp, self.log, self.n1
        a = list(a)
        dm = len(m) - 1
        shift = n1 - log[m[-1]] + self.log_minus_one
        for k in range(len(a) - dm - 1, -1, -1):
            c = a[k + dm]
            if c:
                lr = (log[c] + shift) % n1
                for j in range(dm):
                    v = m[j]
                    if v:
                        a[k + j] = add(a[k + j], exp[lr + log[v]])
        return _itrim(a[:dm])

    def _pquo(self, a, m):
        """a / m for index polynomials where m divides a: the quotient of
        the long division in _pmod, which stays a loop of its own because
        _pmod, under every gcd, is the hotter of the two."""
        add, exp, log, n1 = self.add, self.exp, self.log, self.n1
        a = list(a)
        dm = len(m) - 1
        linv = n1 - log[m[-1]]
        quot = [0] * (len(a) - dm)
        for k in range(len(a) - dm - 1, -1, -1):
            c = a[k + dm]
            if c:
                lq = (log[c] + linv) % n1
                quot[k] = exp[lq]
                lr = (lq + self.log_minus_one) % n1
                for j in range(dm):
                    v = m[j]
                    if v:
                        a[k + j] = add(a[k + j], exp[lr + log[v]])
        return quot

    def _pmul(self, a, b):
        if not a or not b:
            return []
        add, exp, log = self.add, self.exp, self.log
        logb = [(j, log[y]) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in logb:
                    out[i + j] = add(out[i + j], exp[lx + ly])
        return out

    def _psquare(self, a):
        return self._pmul(a, a)

    def powmod(self, a, e, m):
        """a^e mod m for index polynomials, by left-to-right
        square-and-multiply."""
        r = [1]
        for bit in bin(e)[2:]:
            r = self._pmod(self._psquare(r), m)
            if bit == "1":
                r = self._pmod(self._pmul(r, a), m)
        return r

    def _minus_x(self, h):
        h = h + [0] * (2 - len(h))
        h[1] = self.sub(h[1], 1)
        return _itrim(h)

    def _monic(self, cs):
        c = self.inv(cs[-1])
        return [self.mul(v, c) for v in cs]

    def _psub(self, a, b):
        sub = self.sub
        return _itrim([sub(u, v) for u, v in zip_longest(a, b, fillvalue=0)])

    def root_count(self, cs, q=None):
        """Number of distinct roots in the field of the index polynomial
        cs: deg gcd(cs, y^Q - y), Q the field's order.  The zero polynomial
        has Q roots.  q is the order of a subfield (by default the field
        itself) over which y^Q mod cs is formed (_y_to_the_order)."""
        m = _itrim(cs)
        if not m:
            return self.q
        if len(m) <= 2:
            return len(m) - 1
        yQ = self._y_to_the_order(m, q or self.q)
        return len(self.gcd(m, self._minus_x(yQ))) - 1

    def quadratic_fibres(self, a, b, c):
        """Number of y in the field with a y^4 + b y^2 + c = 0 (p odd): the
        roots Y of a Y^2 + b Y + c, each weighted by sqrt_count(Y), the
        number of y with y^2 = Y.  The discriminant is a square when its
        log is even, with root exp[log / 2].  As in root_count, the zero
        polynomial has Q roots."""
        mul, sqrt_count = self.mul, self.sqrt_count
        if not a:
            if not b:
                return 0 if c else self.q
            return sqrt_count(mul(self.neg(c), self.inv(b)))
        # the index of an integer k < p is k
        disc = self.sub(mul(b, b), mul(mul(a, c), 4 % self.p))
        half = self.inv(mul(a, 2))
        if not disc:
            return sqrt_count(mul(self.neg(b), half))
        ld = self.log[disc]
        if ld & 1:
            return 0
        r = self.exp[ld >> 1]
        return (sqrt_count(mul(self.sub(r, b), half))
                + sqrt_count(mul(self.neg(self.add(r, b)), half)))

    def _y_to_the_order(self, m, q):
        """y^Q mod m (deg m >= 2), Q the field's order, F_q a subfield: y^q
        by square-and-multiply, where multiplying by y is a shift and one
        reduction row, then the q-power Frobenius of F_Q[y]/(m) applied
        until the exponent is Q (von zur Gathen and Shoup, 1992).  The
        Frobenius is semilinear, h -> sum_j h_j^q Y_j with Y_j = y^(qj) mod
        m, and h_j^q is exp[log h_j * q mod (Q - 1)]."""
        h = [0, 1]
        for bit in bin(q)[3:]:
            h = self._pmod(self._psquare(h), m)
            if bit == "1":
                h = self._pmod([0] + h, m)
        if q == self.q:
            return h
        exp, log, n1, add = self.exp, self.log, self.n1, self.add
        d = len(m) - 1
        ys = [[1], h]
        while len(ys) < d:
            ys.append(self._pmod(self._pmul(ys[-1], h), m))
        ys = [[(k, log[v]) for k, v in enumerate(y) if v] for y in ys]
        e = q
        while e < self.q:
            out = [0] * d
            for c, y in zip(h, ys):
                if c:
                    lc = log[c] * q % n1
                    for k, lv in y:
                        out[k] = add(out[k], exp[lc + lv])
            h = out
            e *= q
        if e != self.q:
            raise ValueError(f"F_{q} is not a subfield of F_{self.q}")
        return _itrim(h)

    def _euclid(self, a, b):
        """The last nonzero remainder of Euclid on the index polynomials a
        and b: their gcd up to a unit; [] when both are zero."""
        a, b = _itrim(a), _itrim(b)
        while b:
            a, b = b, self._pmod(a, b)
        return a

    def gcd(self, a, b):
        """Monic gcd of the index polynomials a and b; [] when both are
        zero."""
        g = self._euclid(a, b)
        return self._monic(g) if g else g

    def residue_gcd(self, a, b, m):
        """Monic gcd in y of a and b over the residue field F_q[x]/(m), m
        monic irreducible of degree e: a and b list residues, constant term
        first, each an index polynomial in x of degree < e ([] for zero).
        Residues multiply by _pmul then _pmod; the inverse of a residue r is
        r^(q^e - 2) mod m.  [] when both are zero."""
        a, b = _itrim(a), _itrim(b)
        pmod, pmul, psub = self._pmod, self._pmul, self._psub
        e = self.q ** (len(m) - 1) - 2

        def monic(f):
            lead = self.powmod(f[-1], e, m)
            return [pmod(pmul(c, lead), m) for c in f]

        while b:
            b = monic(b)
            a = list(a)
            db = len(b) - 1
            for k in range(len(a) - db - 1, -1, -1):
                c = a[k + db]
                if c:
                    for j in range(db):
                        a[k + j] = psub(a[k + j], pmod(pmul(c, b[j]), m))
            a, b = b, _itrim(a[:db])
        return monic(a) if a else a

    def _derivative(self, cs):
        """cs': its coefficient i - 1 is c_i times i mod p, and the index
        of an integer k < p is k on every kernel."""
        p, mul = self.p, self.mul
        return _itrim([mul(c, i % p) for i, c in enumerate(cs) if i])

    def is_separable(self, cs):
        """Whether the index polynomial cs is coprime to its derivative
        (False when the derivative is zero, constants included): the last
        nonzero remainder of their Euclid is a constant."""
        d = self._derivative(cs)
        return bool(d) and len(self._euclid(cs, d)) == 1

    # -- factorisation -------------------------------------------------

    def _frobenius_root(self, cs):
        """The g with g^p = cs, for cs with zero derivative: coefficient i
        of g is the p-th root of c_(ip), which is c^(q/p), so its log is
        log c * (q/p) mod (q - 1)."""
        exp, log, n1, e = self.exp, self.log, self.n1, self.q // self.p
        return [exp[log[c] * e % n1] if c else 0 for c in cs[::self.p]]

    def squarefree(self, f):
        """[(g, m)] for monic f of degree >= 1: the g monic, squarefree and
        pairwise coprime, f = prod g^m.  Musser's algorithm: the loop
        peels off the factors of multiplicity prime to p, and what is left
        is a p-th power."""
        p = self.p
        d = self._derivative(f)
        if not d:
            return [(g, m * p) for g, m in self.squarefree(self._frobenius_root(f))]
        out = []
        a = self.gcd(f, d)
        w = self._pquo(f, a)
        i = 1
        while len(w) > 1:
            y = self.gcd(w, a)
            z = self._pquo(w, y)
            if len(z) > 1:
                out.append((z, i))
            w = y
            a = self._pquo(a, y)
            i += 1
        if len(a) > 1:
            out += [(g, m * p) for g, m in self.squarefree(self._frobenius_root(a))]
        return out

    def _distinct_degree(self, f):
        """[(g, d)] for monic squarefree f: g is the product of f's
        irreducible factors of degree d, from gcd(f, x^(q^d) - x)."""
        out = []
        h = [0, 1]
        d = 0
        while len(f) > 1:
            d += 1
            if 2 * d > len(f) - 1:
                out.append((f, len(f) - 1))
                break
            h = self.powmod(h, self.q, f)
            g = self.gcd(f, self._minus_x(h))
            if len(g) > 1:
                out.append((g, d))
                f = self._pquo(f, g)
                h = self._pmod(h, f)
        return out

    def _equal_degree(self, f, d):
        """The monic irreducible factors of f, a monic product of distinct
        irreducibles of degree d (Cantor-Zassenhaus).  A random r of
        degree < deg f splits f by gcd(f, r^((q^d - 1)/2) - 1) for odd q,
        and by gcd(f, r + r^2 + ... + r^(2^(nd - 1))) for q = 2^n, the
        trace to F_2; the seed is the index tuple, so a rerun splits the
        same way."""
        n = len(f) - 1
        if n == d:
            return [f]
        add = self.add
        rng = random.Random(hash((tuple(f), d)))
        while True:
            r = _itrim([rng.randrange(self.q) for _ in range(n)])
            if len(r) < 2:
                continue
            if self.p == 2:
                acc = t = r
                for _ in range((self.q.bit_length() - 1) * d - 1):
                    t = self._pmod(self._psquare(t), f)
                    acc = _itrim([add(u, v) for u, v in
                                  zip_longest(acc, t, fillvalue=0)])
            else:
                acc = self.powmod(r, (self.q ** d - 1) // 2, f) or [0]
                acc = _itrim([self.sub(acc[0], 1)] + acc[1:])
            g = self.gcd(f, acc)
            if 1 < len(g) < len(f):
                return (self._equal_degree(g, d)
                        + self._equal_degree(self._pquo(f, g), d))

    def factor(self, cs):
        """[(monic irreducible index list, multiplicity)] of the index
        polynomial cs, sorted by (degree, indices); [] for a constant or
        zero."""
        f = _itrim(cs)
        if len(f) < 2:
            return []
        out = [(piece, m)
               for g, m in self.squarefree(self._monic(f))
               for prod, d in self._distinct_degree(g)
               for piece in self._equal_degree(prod, d)]
        out.sort(key=lambda t: (len(t[0]), t[0]))
        return out

    def is_irreducible(self, cs):
        """Whether the index polynomial cs (degree >= 1) is irreducible
        (Ben-Or): a reducible f of degree n has an irreducible factor of
        some degree i <= n/2, which divides x^(q^i) - x."""
        f = _itrim(cs)
        if len(f) < 2:
            return False
        f = self._monic(f)
        h = [0, 1]
        for _ in range((len(f) - 1) // 2):
            h = self.powmod(h, self.q, f)
            if len(self.gcd(f, self._minus_x(h))) > 1:
                return False
        return True


def _itrim(cs):
    i = len(cs)
    while i and not cs[i - 1]:
        i -= 1
    return cs[:i]


def _f2_eliminate(images):
    """Gaussian elimination of an F_2-linear map given by the images of
    the basis vectors 1 << j, each a bit int: (rows, relations).  rows
    maps the leading bit of each echelon row of the image to (image bits,
    preimage bits): a vector is in the image exactly when clearing its
    leading bit by the rows over and over leaves zero, and the preimage
    bits of the rows used sum to a preimage.  relations is a basis of the
    kernel, as preimage bits."""
    rows, relations = {}, []
    for j, v in enumerate(images):
        combo = 1 << j
        while v:
            r = v.bit_length() - 1
            if r not in rows:
                rows[r] = (v, combo)
                break
            m, c = rows[r]
            v ^= m
            combo ^= c
        else:
            relations.append(combo)
    return rows, relations


class _PrimeKernel(_Kernel):
    """F_p: indices are the residues themselves."""

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def horner(self, cs, x):
        """Value at x of the index polynomial cs."""
        p = self.p
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % p
        return acc


class _Char2Kernel(_Kernel):
    """F_{2^n}: addition is XOR; the absolute trace to F_2 is the parity
    of idx & trace_mask, and y^2 + y = v is solved by F_2-linear algebra
    on index bits."""

    def __init__(self, field):
        super().__init__(field)
        n = field.n
        self.trace_mask = 0
        for j in range(n):
            acc, v = 0, 1 << j
            for _ in range(n):
                acc ^= v
                v = self.mul(v, v)
            self.trace_mask |= acc << j
        # the map y -> y^2 + y on the index bits of y
        self._as_rows = _f2_eliminate(
            [self.mul(1 << j, 1 << j) ^ (1 << j) for j in range(n)])[0]

    add = staticmethod(xor)     # a builtin: the series and Euclid loops call it

    def neg(self, a):
        return a

    def _psquare(self, a):
        """Squaring is additive: (sum c_i x^i)^2 = sum c_i^2 x^(2i)."""
        exp, log = self.exp, self.log
        out = [0] * (2 * len(a) - 1) if a else []
        for i, c in enumerate(a):
            if c:
                out[2 * i] = exp[2 * log[c]]
        return out

    def sqrt_count(self, a):
        return 1

    def quadratic_fibres(self, a, b, c):
        """Number of y with a Y^2 + b Y + c = 0 for Y = y^2 + y: a root Y
        carries the two y of y^2 + y = Y when Tr(Y) = 0 and none otherwise.
        For a, b != 0 the roots are (b/a) u and (b/a)(u + 1), where
        u^2 + u = ac/b^2 (as_root); for b = 0 the one root is the square
        root of c/a, whose trace is that of c/a.  The zero polynomial has Q
        roots, as in root_count."""
        mul, inv, trace = self.mul, self.inv, self.trace
        if not b:
            if not a:
                return 0 if c else self.q
            return 0 if trace(mul(c, inv(a))) else 2
        if not a:
            return 0 if trace(mul(c, inv(b))) else 2
        u = self.as_root(mul(mul(a, c), inv(mul(b, b))))
        if u is None:
            return 0
        s = mul(b, inv(a))
        r = mul(s, u)
        return (0 if trace(r) else 2) + (0 if trace(r ^ s) else 2)

    def trace(self, a):
        return (a & self.trace_mask).bit_count() & 1

    def as_root(self, v):
        """A y with y^2 + y = v (the other is y ^ 1), or None when the
        trace of v is 1."""
        combo = 0
        while v:
            r = v.bit_length() - 1
            if r not in self._as_rows:
                return None
            m, c = self._as_rows[r]
            v ^= m
            combo ^= c
        return combo

    def horner(self, cs, x):
        if not x:
            return cs[0] if cs else 0
        exp, log = self.exp, self.log
        lx = log[x]
        acc = 0
        for c in reversed(cs):
            if acc:
                acc = exp[log[acc] + lx]
            acc ^= c
        return acc


class _ZechKernel(_Kernel):
    """F_{p^n}, p odd, n > 1: g^i + g^j = g^(i + Z(j - i)) with the Zech
    logarithm Z(k) = log(1 + g^k), stored over k = -(q-1)..q-2 as
    zech[k + q - 1]; -1 marks 1 + g^k = 0."""

    def __init__(self, field):
        super().__init__(field)
        p, log = self.p, self.log
        # plus_one[v] = log(v + 1): adding 1 steps the constant digit, so
        # each run of p indices shifts its logs by one place, cyclically
        plus_one = log[1:]
        plus_one.append(0)
        plus_one[p - 1::p] = log[::p]
        zech = array("i", map(plus_one.__getitem__,
                              memoryview(self.exp)[:self.n1]))
        del plus_one
        zech[self.log_minus_one] = -1
        self.zech = zech + zech

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[self.log[b] - la + self.n1]
        return 0 if z < 0 else self.exp[la + z]

    def neg(self, a):
        if not a:
            return 0
        return self.exp[self.log[a] + self.log_minus_one]

    def horner(self, cs, x):
        if not x:
            return cs[0] if cs else 0
        exp, log, zech, n1 = self.exp, self.log, self.zech, self.n1
        lx = log[x]
        acc = 0
        for c in reversed(cs):
            if acc:
                la = log[acc] + lx
                if la >= n1:
                    la -= n1
                if c:
                    z = zech[log[c] - la + n1]
                    acc = 0 if z < 0 else exp[la + z]
                else:
                    acc = exp[la]
            else:
                acc = c
        return acc


# ---------------------------------------------------------------------------
# univariate polynomials over a field
# ---------------------------------------------------------------------------

def _index_poly(f):
    """Base-field indices of f's coefficients, constant term first: the
    index polynomial Poly.gcd and the curve models run on."""
    return [f.base.index(c) for c in f.coeffs]


class Poly:
    """Dense univariate polynomial; trailing zeros are trimmed."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        self.base = base
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, base, ints):
        return cls(base, [base.element(c) for c in ints])

    @classmethod
    def constant(cls, base, c):
        return cls(base, [base.element(c)])

    @classmethod
    def x(cls, base):
        return cls(base, [base.zero, base.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.base.zero

    def _check(self, other):
        if not isinstance(other, Poly) or other.base != self.base:
            raise MixedFields("polynomials over different fields")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.base == other.base
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.base, out)

    def __sub__(self, other):
        self._check(other)
        out = list(self.coeffs) + [self.base.zero] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return Poly(self.base, out)

    def __neg__(self):
        return Poly(self.base, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):  # a FieldElement scalar
            return Poly(self.base, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.base, [])
        out = [self.base.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return Poly(self.base, out)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv_lc = other.lc.inv()
        quot = [self.base.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] * inv_lc
            if not c.is_zero():
                quot[i] = c
                for j, y in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * y
        return Poly(self.base, quot), Poly(self.base, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        result = Poly.constant(self.base, self.base.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self):
        if self.is_zero():
            return self
        return self * self.lc.inv()

    def eval(self, x):
        acc = self.base.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gcd(self, other):
        """Monic gcd (zero when both are zero), by the Euclid on the base
        field's index kernel (_Kernel.gcd)."""
        self._check(other)
        F = self.base
        g = _kernel(F).gcd(_index_poly(self), _index_poly(other))
        return Poly(F, [F.from_index(i) for i in g])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            terms.append(f"({c!r}){xs}" if xs else f"{c!r}")
        return "Poly(" + " + ".join(reversed(terms)) + ")"


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """num/den with gcd(num, den) = 1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        c = den.lc.inv()
        self.num = num * c
        self.den = den * c

    @property
    def base(self):
        return self.den.base

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

_EXT_FIELDS = {}
_EMBEDDINGS = {}


def _smallest_irreducible(p, d):
    """Monic irreducible of degree d >= 2 over F_p, smallest in index
    order, by Ben-Or's test on the prime field's kernel."""
    irreducible = _kernel(canonical_extension(p, 1)).is_irreducible
    for i in range(p ** d):
        f = _digits(i, p, d) + [1]
        if irreducible(f):
            return f


def canonical_extension(p, d):
    """F_{p^d} with the deterministic smallest defining polynomial."""
    key = (p, d)
    if key not in _EXT_FIELDS:
        _check_order(p, d)      # before the search for a defining polynomial
        if d == 1:
            _EXT_FIELDS[key] = FiniteField(p)
        else:
            _EXT_FIELDS[key] = FiniteField(p, d, _smallest_irreducible(p, d))
    return _EXT_FIELDS[key]


def embed(field, m):
    """(F_{q^m}, phi) with phi a ring embedding; phi is deterministic via the
    smallest root of the defining polynomial in the canonical element order."""
    big, imap = _embed_indices(field, m)
    if m == 1:
        return field, lambda v: v
    return big, lambda v: big.from_index(imap[field.index(v)])


def _embed_indices(field, m):
    """(F_{q^m}, embed(field, m) on indices): entry j of the map is the
    index in F_{q^m} of the image of field.from_index(j) (range(q) for
    m = 1).  The map is built once per (field, m) on the big field's
    kernel: the image of sum c_i a^i is sum c_i r^i, r the root, and an
    integer c < p keeps its index c, so the map grows by one base-p digit
    at a time over the powers of r."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return field, range(field.q)
    key = (field, m)
    if key not in _EMBEDDINGS:
        big = canonical_extension(field.p, field.n * m)
        kern = _kernel(big)
        pows = [1]
        if field.n > 1:
            # the smallest root, off the linear factors of the defining
            # polynomial over big: coefficients in F_p keep their index there
            root = min(kern.neg(g[0]) for g, _ in kern.factor(field.defining_poly)
                       if len(g) == 2)
            for _ in range(field.n - 1):
                pows.append(kern.mul(pows[-1], root))
        imap = [0]
        for r in pows:
            digits = [kern.mul(c, r) for c in range(field.p)]
            imap = [kern.add(u, t) for t in digits for u in imap]
        _EMBEDDINGS[key] = (big, imap)
    return _EMBEDDINGS[key]
