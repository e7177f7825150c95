"""Independent recount of the Monte-Carlo samples.

Regenerates every sample of a `klein4_hyper_odd` Monte-Carlo run from its
seed and counts the rational points with this file's own F_q tables and
polynomial arithmetic, so that the check shares no arithmetic with
`pointless`.  The sample stream follows the sampler's documented procedure:
splitmix64 sub-seeds drawn from a master stream, then five coefficients
g_0..g_4 drawn below q for f(x) = g(x^2), rerolled while g_4 = 0 or f is
not separable.
"""

MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 (Steele, Lea and Flood), with rejection below n."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


class Fq:
    """F_{p^n} on element indices sum(c_i p^i), as lookup tables."""

    def __init__(self, p, modulus=None):
        modulus = [c % p for c in (modulus or [0, 1])]
        n = len(modulus) - 1
        self.p, self.q = p, p ** n
        vecs = [[(i // p ** k) % p for k in range(n)] for i in range(self.q)]

        def index(vec):
            return sum(c * p ** k for k, c in enumerate(vec))

        def mul(a, b):
            prod = [0] * (2 * n - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for k in range(len(prod) - 1, n - 1, -1):   # reduce; monic
                c = prod[k]
                if c:
                    for j in range(n + 1):
                        prod[k - n + j] = (prod[k - n + j]
                                           - c * modulus[j]) % p
            return prod[:n]

        self.add = [[index([(x + y) % p for x, y in zip(a, b)]) for b in vecs]
                    for a in vecs]
        self.mul = [[index(mul(a, b)) for b in vecs] for a in vecs]
        self.neg = [index([(-x) % p for x in a]) for a in vecs]
        self.inv = [0] * self.q
        for a in range(1, self.q):
            self.inv[a] = self.mul[a].index(1)
        self.squares = {self.mul[a][a] for a in range(1, self.q)}

    # polynomials: little-endian index lists with no trailing zeros

    def _trim(self, f):
        while f and f[-1] == 0:
            f.pop()
        return f

    def poly_mod(self, a, b):
        a = list(a)
        lead_inv = self.inv[b[-1]]
        while len(a) >= len(b):
            c = self.mul[a[-1]][lead_inv]
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                minus = self.neg[self.mul[c][bj]]
                a[shift + j] = self.add[a[shift + j]][minus]
            self._trim(a)
        return a

    def is_separable(self, f):
        deriv = self._trim([self.mul[f[i]][i % self.p]
                            for i in range(1, len(f))])
        if not deriv:
            return False
        a, b = f, deriv
        while b:
            a, b = b, self.poly_mod(a, b)
        return len(a) == 1

    def rational_points(self, f):
        """Degree-1 places of y^2 = f for f of even degree."""
        total = 2 if f[-1] in self.squares else 0
        for x in range(self.q):
            v = 0
            for c in reversed(f):
                v = self.add[self.mul[v][x]][c]
            total += 1 if v == 0 else (2 if v in self.squares else 0)
        return total


def sample_poly(F, rng):
    """The next separable f(x) = g(x^2) of degree 8 in a sample's stream."""
    while True:
        g = [rng.below(F.q) for _ in range(5)]
        if g[-1] == 0:
            continue
        f = [0] * 9
        f[0::2] = g
        if F.is_separable(f):
            return f


def pointless_hits(p, modulus, samples, seed):
    """Number of pointless curves among the first `samples` samples."""
    F = Fq(p, modulus)
    master = SplitMix64(seed)
    hits = 0
    for _ in range(samples):
        f = sample_poly(F, SplitMix64(master.next_u64()))
        if F.rational_points(f) == 0:
            hits += 1
    return hits
