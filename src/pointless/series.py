"""Truncated Laurent series over a finite field's index kernel, for local
expansions at places of curves.

A series is a tuple (val, cs, prec): cs[k] is the index of the coefficient
of t^(val + k), and the exponents >= prec are unknown.  Leading zeros are
stripped, a series with no known nonzero coefficient has val = prec, and
every operation carries the worst-case precision of its result.

Asking a series for more than its precision holds raises
errors.PrecisionExhausted: _ser_coeff reading a coefficient at or past it,
and _ser_inv given a series with no known nonzero coefficient and a finite
precision, which is not known to be zero, only unknown past its
precision.  An exact zero (precision EXACT) raises DivisionByZero.  Since
no operation claims a coefficient it does not know, a result computed
without that error is exact whatever precision the inputs started at; a
caller that runs short retries with more (curves._tower_place_points
doubles from 8 to 64).

The arithmetic is that of a field._Kernel of any characteristic: sums
through kern.add and kern.neg, products on its exp/log tables.  The char-2
towers (curves.ASTower) expand their special places here, and nothing else
does: the elliptic double covers read the orders at the zeros of fn off
index polynomials.
"""

from .errors import DivisionByZero, PrecisionExhausted

EXACT = 10 ** 9  # precision marker for exact (polynomial) inputs


def _ser(val, cs, prec):
    i = 0
    while i < len(cs) and not cs[i]:
        i += 1
    val += i
    cs = cs[i:i + max(0, prec - val)]
    return (val, cs, prec) if cs else (prec, [], prec)


def _ser_coeff(s, k):
    val, cs, prec = s
    if k >= prec:
        raise PrecisionExhausted(
            f"coefficient of t^{k} beyond precision {prec}")
    return cs[k - val] if val <= k < val + len(cs) else 0


def _ser_add(kern, a, b):
    (va, ca, pa), (vb, cb, pb) = a, b
    prec = min(pa, pb)
    lo = min(va, vb)
    hi = min(prec, max(lo, va + len(ca) if ca else lo,
                       vb + len(cb) if cb else lo))
    add = kern.add
    out = [0] * (hi - lo)
    for v, cs in ((va, ca), (vb, cb)):
        for k, c in enumerate(cs[:max(0, hi - v)], v - lo):
            out[k] = add(out[k], c)
    return _ser(lo, out, prec)


def _ser_mul(kern, a, b):
    (va, ca, pa), (vb, cb, pb) = a, b
    prec = min(pa + vb, pb + va)
    if not ca or not cb:
        return (prec, [], prec)
    lo = va + vb
    n = min(prec - lo, len(ca) + len(cb) - 1)
    out = [0] * n
    add, exp, log = kern.add, kern.exp, kern.log
    logs_b = [(j, log[y]) for j, y in enumerate(cb[:n]) if y]
    for i, x in enumerate(ca[:n]):
        if x:
            lx = log[x]
            for j, ly in logs_b:
                if i + j >= n:
                    break
                out[i + j] = add(out[i + j], exp[lx + ly])
    return _ser(lo, out, prec)


def _ser_scale(kern, s, c):
    val, cs, prec = s
    return _ser(val, [kern.mul(c, a) for a in cs], prec)


def _ser_inv(kern, s):
    val, cs, prec = s
    if not cs:
        if prec >= EXACT:
            raise DivisionByZero("inverse of zero series")
        raise PrecisionExhausted(
            f"inverse of a series unknown past precision {prec}")
    n = prec - val  # relative precision carries over
    add, exp, log, n1 = kern.add, kern.exp, kern.log, kern.n1
    linv0 = n1 - log[cs[0]]
    lneg = (linv0 + kern.log_minus_one) % n1    # log of -1 / cs[0]
    logs = [(j, log[c]) for j, c in enumerate(cs) if j and c]
    out = [exp[linv0]] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for j, lc in logs:
            if j > k:
                break
            if out[k - j]:
                acc = add(acc, exp[lc + log[out[k - j]]])
        if acc:
            out[k] = exp[lneg + log[acc]]
    return _ser(-val, out, n - val)


def _ser_truncate(s, prec):
    val, cs, p = s
    if prec >= p:
        return s
    return _ser(val, cs[:max(0, prec - val)], prec)


def _ser_horner(kern, cs, s):
    """Value of the index polynomial cs at the series s; the coefficients
    are exact (precision EXACT)."""
    acc = (EXACT, [], EXACT)
    for c in reversed(cs):
        acc = _ser_add(kern, _ser_mul(kern, acc, s), _ser(0, [c], EXACT))
    return acc


def _ser_cubic_branch(kern, c1, ct, c2, c3, n):
    """The indices of s_0 .. s_(n-1), all exact, of the series s(t) with
    s(0) = 0 and
        c1 s + ct t s + c2 s^2 + c3 s^3 = t^2,   c1 != 0:
    the smooth-model parameter at a ramified Artin-Schreier pole
    (curves._tower_place_points).  The coefficient of t^k gives
        s_k = (delta_(k,2) - ct s_(k-1) - c2 (s^2)_k - c3 (s^3)_k) / c1,
    explicit because s_0 = 0, so (s^2)_k and (s^3)_k only involve s_j with
    j < k; they are kept as running sums."""
    add, neg, mul = kern.add, kern.neg, kern.mul
    inv1 = kern.inv(c1)
    s = [0] * n              # coefficients of t^0 .. t^(n-1)
    s2 = [0] * n             # coefficients of s^2
    for k in range(1, n):
        acc2 = acc3 = 0      # (s^2)_k and (s^3)_k
        for j in range(1, k):
            acc2 = add(acc2, mul(s[j], s[k - j]))
            acc3 = add(acc3, mul(s[j], s2[k - j]))
        s2[k] = acc2
        rhs = add(mul(ct, s[k - 1]), add(mul(c2, acc2), mul(c3, acc3)))
        s[k] = mul(add(1 if k == 2 else 0, neg(rhs)), inv1)
    return s
