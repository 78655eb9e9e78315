"""Factorization of rational polynomials over Z, stdlib only.

Zassenhaus's method (J. Number Theory 1, 1969; von zur Gathen-Gerhard,
*Modern Computer Algebra*, ch. 14-16).  Denominators are cleared and the
primitive part split square-free by Yun's algorithm.  Each part is factored
by Berlekamp modulo a prime p: of the first few primes that keep the part
square-free, the one giving the fewest factors.  The factors are
Hensel-lifted to p^(2^j) above twice the leading coefficient times the
Mignotte bound, then recombined in subsets of increasing size by trial
division over Z.  Inside, polynomials are ascending int lists without
trailing zeros.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, count, islice, zip_longest
from math import gcd, isqrt, lcm

from .rings import poly_monic, poly_normalize

_PRIMES_TRIED = 3  # good primes compared by their number of modular factors


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m, sign=1):
    """a + sign * b mod m."""
    return _trim([(x + sign * y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a, b, m):
    """Quotient and remainder mod m; the leading coefficient of b is a unit."""
    a, db, inv = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + db] * inv % m
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _trim(q), _trim([c % m for c in a[:db]])


def _gcd(a, b, p):
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _mul(a, [pow(a[-1], -1, p)], p)


def _berlekamp(f, p):
    """Row echelon form M (pivots 1) of (Q - I)^T, row i of Q being x^(p i)
    mod f, for a monic f square-free mod p: the kernel {v : v^p = v mod f}
    has the dimension n - len(pivots) = the number of factors of f mod p."""
    n, rows, x = len(f) - 1, [], [1] + [0] * (len(f) - 2)
    for i in range(n):
        rows.append([c - (j == i) for j, c in enumerate(x)])
        for _ in range(p):
            x = [(c - x[-1] * fc) % p for c, fc in zip([0] + x[:-1], f)]
    M, pivots = [list(col) for col in zip(*rows)], []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, n) if M[i][c] % p), None)
        if k is not None:
            M[r], M[k] = M[k], M[r]
            inv = pow(M[r][c], -1, p)
            M[r] = [v * inv % p for v in M[r]]
            for i in range(r + 1, n):
                if M[i][c] % p:
                    M[i] = [(v - M[i][c] * w) % p for v, w in zip(M[i], M[r])]
            pivots.append(c)
    return M, pivots


def _split(f, p, M, pivots):
    """The monic irreducible factors of f mod p.  Each kernel vector v of M
    (back-substituted from a free column) splits every factor u found so far
    as prod_s gcd(u, v - s); column 0 gives the constants, so it is skipped."""
    n, facs = len(M), [f]
    for c in (c for c in range(1, n) if c not in pivots):
        if len(facs) == n - len(pivots):
            break
        v = [0] * n
        v[c] = 1
        for i in range(len(pivots) - 1, -1, -1):
            v[pivots[i]] = -sum(M[i][j] * v[j] for j in range(pivots[i] + 1, n)) % p
        facs = [g for u in facs for s in range(p) if len(g := _gcd(u, _add(v, [s], p, -1), p)) > 1]
    return facs


def _lift(F, facs, p, M):
    """Monic factors of F mod M = p^(2^j) lifting its monic, coprime factors
    facs mod p: quadratic Hensel steps (vzGG Alg. 15.10) on a balanced split,
    then on each half."""
    if len(facs) == 1:
        return [F]
    k = len(facs) // 2
    g, h = (reduce(lambda u, v: _mul(u, v, p), half, [1]) for half in (facs[:k], facs[k:]))
    r0, r1, s0, s = g, h, [1], []  # extended Euclid for s g + t h = 1 mod p
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s = r1, r, s, _add(s0, _mul(q, s, p), p, -1)
    s = _mul(s0, [pow(r0[-1], -1, p)], p)
    t, m = _divmod(_add([1], _mul(s, g, p), p, -1), h, p)[0], p
    while m < M:  # F = g h and s g + t h = 1 mod m, then mod m^2
        m *= m
        e = _add(F, _mul(g, h, m), m, -1)
        q, r = _divmod(_mul(s, e, m), h, m)
        g, h = _add(_add(g, _mul(t, e, m), m), _mul(q, g, m), m), _add(h, r, m)
        if m < M:
            b = _add(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m, -1)
            c, d = _divmod(_mul(s, b, m), h, m)
            s, t = _add(s, d, m, -1), _add(t, _add(_mul(t, b, m), _mul(c, g, m), m), m, -1)
    return _lift(g, facs[:k], p, M) + _lift(h, facs[k:], p, M)


def _integral(a):
    """The primitive integer multiple of a rational polynomial, lc > 0."""
    den = lcm(*(c.denominator for c in a))
    a = [int(c * den) for c in a]
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // c for x in a]


def _quotient(f, g):
    """f / g over Z, or None when g does not divide f there."""
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(f[i + len(g) - 1], g[-1])
        if rem:
            return None
        for j, y in enumerate(g):
            f[i + j] -= q[i] * y
    return None if any(f) else q


def _gcd_z(a, b):
    """Primitive gcd over Z, by Euclid on primitive pseudo-remainders."""
    while b:
        r, k = a, len(a) - len(b)
        while k >= 0:
            r = _trim([x * b[-1] - r[-1] * (b[i - k] if i >= k else 0) for i, x in enumerate(r)])
            k = len(r) - len(b)
        a, b = b, _integral(r) if r else []
    return _integral(a)


def _deriv(a):
    return _trim([k * c for k, c in enumerate(a)][1:])


def _primes():
    return (q for q in count(2) if all(q % d for d in range(2, isqrt(q) + 1)))


def _monic_mod(f, p):
    """f made monic mod p, or None when p divides lc(f) or f mod p is not
    square-free."""
    if f[-1] % p == 0:
        return None
    fp = _mul(f, [pow(f[-1], -1, p)], p)
    return fp if len(_gcd(fp, _add(_deriv(fp), [], p), p)) == 1 else None


def _factor_squarefree(f):
    """Irreducible factors over Z of a primitive, square-free f with lc > 0."""
    n, b, tried = len(f) - 1, f[-1], []  # (factor count, p, f mod p, echelon form)
    for p in _primes():
        if fp := _monic_mod(f, p):
            E, pivots = _berlekamp(fp, p)
            tried.append((n - len(pivots), p, fp, E, pivots))
            if len(tried) == _PRIMES_TRIED or len(pivots) == n - 1:
                break
    r, p, fp, E, pivots = min(tried)
    if r == 1:
        return [f]
    M, bound = p, b * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    while M <= 2 * bound:
        M *= M
    T = _lift(_mul(f, [pow(b, -1, M)], M), _split(fp, p, E, pivots), p, M)
    out, size = [], 1
    while 2 * size <= len(T):
        for S in combinations(range(len(T)), size):
            g = reduce(lambda u, v: _mul(u, v, M), (T[i] for i in S), [f[-1]])
            g = _integral([c if 2 * c <= M else c - M for c in g])
            if (q := _quotient(f, g)) is not None:
                out.append(g)
                f, T = q, [T[i] for i in range(len(T)) if i not in S]
                break
        else:
            size += 1
    return out + [f]


def _yun(f):
    """Square-free parts (a, i) with f = prod a^i, for a primitive f over Z;
    f alone when it stays square-free mod one of the first few primes."""
    if any(_monic_mod(f, p) for p in islice(_primes(), _PRIMES_TRIED)):
        return [(f, 1)]
    a = _gcd_z(f, _deriv(f))
    b, c, i, out = _quotient(f, a), _quotient(_deriv(f), a), 1, []
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _deriv(b), fillvalue=0)])
        a = _gcd_z(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c, i = _quotient(b, a), _quotient(d, a), i + 1
    return out


def factor_rational_poly(p) -> tuple:
    """Monic irreducible factors over Q with multiplicities.

    Returns a tuple of (factor, multiplicity) pairs, each factor a monic
    ascending-coefficient tuple of Fractions with degree >= 1, sorted by
    (degree, coefficients).  The rational unit is discarded.
    """
    p = poly_normalize(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    f = _integral(p)
    out = [(poly_monic(poly_normalize(g)), i)
           for a, i in (_yun(f) if len(f) > 1 else ()) for g in _factor_squarefree(a)]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)
