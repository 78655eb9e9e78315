"""Exact arithmetic substrate: rationals on the unit circle, Gaussian
rationals, Laurent polynomials over Q, Sturm-chain root isolation and
exact signatures of Hermitian matrices.

No floating point anywhere; every value is a fractions.Fraction or built
from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


class NonSymmetricInput(ValueError):
    """Raised when a Laurent polynomial expected to satisfy p(t) = p(1/t) does not."""


class NotHermitian(ValueError):
    """Raised when a matrix expected to equal its conjugate transpose does not."""


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, strings like ``-3/4`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating-point input rejected; use Fraction or a 'p/q' string")
    return Fraction(x)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _power(base, n: int, one):
    """base ** n for n >= 0 by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(frozen=True)
class GaussRational:
    """Element of Q(i): re + im*i with exact rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", rat(self.re))
        object.__setattr__(self, "im", rat(self.im))

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(rat(x))

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def inverse(self) -> "GaussRational":
        a2 = self.abs2()
        if not a2:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussRational(self.re / a2, -self.im / a2)

    def __add__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRational.of(other))

    def __rsub__(self, other):
        return GaussRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * GaussRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussRational.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, GaussRational(Fraction(1)))

    def __str__(self):
        if self.is_real:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        op = "+" if self.im >= 0 else "-"
        return f"{self.re} {op} {abs(self.im)}*i"


# ---------------------------------------------------------------------------
# Points on the unit circle


@dataclass(frozen=True)
class CirclePoint:
    """Rational point of the unit circle via the tangent half-angle parameter.

    omega = ((1 - s^2) + 2si) / (1 + s^2); s = None encodes the point at
    infinity, i.e. omega = -1.  s = 0 is omega = 1, s = 1 is omega = i, and
    s > 0 sweeps the upper semicircle.
    """

    s: Optional[Fraction]

    def __post_init__(self):
        if self.s is not None:
            object.__setattr__(self, "s", rat(self.s))

    @staticmethod
    def infinity() -> "CirclePoint":
        return CirclePoint(None)

    @property
    def is_one(self) -> bool:
        return self.s == 0

    @property
    def is_minus_one(self) -> bool:
        return self.s is None

    def conjugate(self) -> "CirclePoint":
        return CirclePoint(None) if self.s is None else CirclePoint(-self.s)

    def cos(self) -> Fraction:
        """Real part of the circle value: cos(theta) = (1 - s^2)/(1 + s^2)."""
        if self.s is None:
            return Fraction(-1)
        s2 = self.s * self.s
        return (1 - s2) / (1 + s2)

    def __str__(self):
        return "omega(s=inf)" if self.s is None else f"omega(s={self.s})"


def circle_value(p: CirclePoint) -> GaussRational:
    """Exact Gaussian-rational value of the circle point (unit modulus)."""
    if p.s is None:
        return GaussRational(Fraction(-1))
    s = p.s
    d = 1 + s * s
    return GaussRational((1 - s * s) / d, 2 * s / d)


# ---------------------------------------------------------------------------
# Exact linear algebra and rendering shared by every layer


def eliminate(rows) -> tuple:
    """(rank, det) of a rational matrix by forward Gaussian elimination over Q:
    each pivot row updates a copy of the rows below it in place, only after
    the pivot column and only for nonzero multipliers.  det is None for a
    non-square matrix."""
    m = [list(r) for r in rows]
    n, cols = len(m), len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        p = next((r for r in range(rank, n) if m[r][c]), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            det = -det
        top = m[rank]
        det *= top[c]
        inv = Fraction(1) / top[c]
        for row in m[rank + 1 :]:
            f = row[c] * inv
            if f:
                for k in range(c + 1, cols):
                    row[k] -= f * top[k]
        rank += 1
    if n != cols:
        return rank, None
    return rank, det if rank == n else Fraction(0)


def mat_mul(a, b) -> list:
    """Product of two matrices given as row sequences."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in cols] for row in a]


def charpoly_adj(a) -> tuple:
    """(chi, adj) for a square rational matrix A by Faddeev-LeVerrier:
    chi = det(xI - A) as an ascending Poly and adj(xI - A) = sum_k x^k adj[k].
    Integer matrices stay integer: every division by k is exact."""
    n = len(a)
    chi = [Fraction(0)] * n + [Fraction(1)]
    adj = [None] * n
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        adj[n - k] = m
        am = mat_mul(a, m)
        c = -Fraction(sum(am[i][i] for i in range(n)), k)
        c = c.numerator if c.denominator == 1 else c
        chi[n - k] = Fraction(c)
        m = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(am)]
    return tuple(chi), adj


def _monomial(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _signed_terms(terms) -> str:
    """'c1*m1 - c2*m2 + ...' from (coefficient, monomial) pairs in order,
    dropping zero coefficients and unit factors; an empty monomial is the
    constant term.  Renders "0" when nothing is left."""
    parts = []
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# Laurent polynomials over Q


class LaurentPoly:
    """Laurent polynomial over Q stored as {exponent: coefficient}.

    Treated as immutable; all operations return fresh objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = rat(c)
                if c:
                    d[int(e)] = c
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: rat(c)})

    @staticmethod
    def t(k: int = 1) -> "LaurentPoly":
        return LaurentPoly({k: Fraction(1)})

    @staticmethod
    def of(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.const(rat(x))

    @staticmethod
    def from_dense(coeffs: Sequence[RationalLike], shift: int = 0) -> "LaurentPoly":
        """Build from ascending coefficients of a polynomial times t^shift."""
        return LaurentPoly({i + shift: rat(c) for i, c in enumerate(coeffs)})

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree window")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree window")
        return max(self.coeffs)

    def coeff(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))

    def to_dense(self):
        """Return (ascending coefficient tuple, shift) with p = t^shift * poly."""
        if self.is_zero:
            return (), 0
        lo, hi = self.min_exp(), self.max_exp()
        return tuple(self.coeff(e) for e in range(lo, hi + 1)), lo

    # -- arithmetic

    def __add__(self, other):
        o = LaurentPoly.of(other)
        d = dict(self.coeffs)
        for e, c in o.coeffs.items():
            d[e] = d.get(e, Fraction(0)) + c
        return LaurentPoly(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-LaurentPoly.of(other))

    def __rsub__(self, other):
        return LaurentPoly.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        return _power(self, n, LaurentPoly.const(1))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def conjugate(self) -> "LaurentPoly":
        """The involution t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    @property
    def is_symmetric(self) -> bool:
        return self.coeffs == self.conjugate().coeffs

    def __call__(self, x):
        """Evaluate at a Fraction or GaussRational (nonzero if negative exponents occur)."""
        if self.is_zero:
            return GaussRational() if isinstance(x, GaussRational) else Fraction(0)
        if isinstance(x, GaussRational):
            acc = GaussRational()
            xinv = None
            for e, c in self.coeffs.items():
                if e >= 0:
                    acc = acc + x**e * c
                else:
                    xinv = xinv or x.inverse()
                    acc = acc + xinv ** (-e) * c
            return acc
        x = rat(x)
        acc = Fraction(0)
        for e, c in self.coeffs.items():
            acc += c * (x**e if e >= 0 else Fraction(1) / x ** (-e))
        return acc

    # -- identity and display

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        terms = sorted(self.coeffs.items(), reverse=True)
        return _signed_terms((c, _monomial("t", e)) for e, c in terms)

    def __repr__(self):
        return f"LaurentPoly({self})"


# ---------------------------------------------------------------------------
# Dense polynomials over Q (ascending coefficient tuples)

Poly = tuple  # tuple[Fraction, ...], ascending, no trailing zeros


def poly_normalize(coeffs: Iterable[RationalLike]) -> Poly:
    cs = [rat(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_normalize(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_normalize(out)


def poly_scale(a: Poly, c: RationalLike) -> Poly:
    c = rat(c)
    return poly_normalize([x * c for x in a])


def poly_deriv(a: Poly) -> Poly:
    return poly_normalize([i * c for i, c in enumerate(a)][1:])


def poly_divmod(a: Poly, b: Poly):
    """Exact division with remainder in Q[x]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and poly_normalize(a):
        a = list(poly_normalize(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] / lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
    return poly_normalize(q), poly_normalize(a)


def poly_monic(a: Poly) -> Poly:
    if not a:
        return a
    return poly_scale(a, Fraction(1) / a[-1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_gcdex(a: Poly, b: Poly):
    """Extended Euclid: (g, u, v) monic with u*a + v*b = g."""
    r0, r1 = a, b
    u0, u1 = (Fraction(1),), ()
    v0, v1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    if not r0:
        return (), u0, v0
    lc = r0[-1]
    inv = Fraction(1) / lc
    return poly_scale(r0, inv), poly_scale(u0, inv), poly_scale(v0, inv)


def poly_str(p: Poly, var: str = "t") -> str:
    """Human-readable descending-degree rendering of a dense polynomial."""
    return _signed_terms((p[e], _monomial(var, e)) for e in range(len(p) - 1, -1, -1))


def poly_interpolate(points: Sequence[Fraction], values: Sequence[Fraction]) -> Poly:
    """Lagrange interpolation through distinct rational points, exact."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    out: Poly = ()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        basis: Poly = (Fraction(1),)
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            basis = poly_mul(basis, (-xj, Fraction(1)))
            denom *= xi - xj
        out = poly_add(out, poly_scale(basis, yi / denom))
    return out


def poly_squarefree(a: Poly) -> Poly:
    """Square-free part a / gcd(a, a'), made monic."""
    if poly_degree(a) <= 0:
        return poly_monic(a)
    g = poly_gcd(a, poly_deriv(a))
    if poly_degree(g) == 0:
        return poly_monic(a)
    return poly_monic(poly_divmod(a, g)[0])


def poly_is_squarefree(a: Poly) -> bool:
    return poly_degree(poly_gcd(a, poly_deriv(a))) == 0


# ---------------------------------------------------------------------------
# Sturm isolation of real roots


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval (lo, hi) holding exactly one root of a square-free
    polynomial, witnessed by a strict sign change at the endpoints."""

    poly: Poly = field(repr=False)
    lo: Fraction
    hi: Fraction
    sign_lo: int
    sign_hi: int

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("isolating interval needs lo < hi")
        if self.sign_lo * self.sign_hi != -1:
            raise ValueError("endpoint signs must witness a sign change")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi


def _sturm_chain(q: Poly):
    chain = [q, poly_deriv(q)]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(poly_neg(r))
    return [p for p in chain if p]


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (sign(poly_eval(p, x)) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_isolate(p: Sequence[RationalLike], lo: RationalLike, hi: RationalLike):
    """Isolate the real roots of p inside the open interval (lo, hi).

    Square-free reduction is applied first, so multiple roots are reported
    once.  Returns IsolatingIntervals in increasing order, pairwise disjoint,
    each strictly inside (lo, hi) with nonzero endpoint values.
    """
    lo, hi = rat(lo), rat(hi)
    if not lo < hi:
        raise ValueError("empty isolation range")
    q = poly_squarefree(poly_normalize(p))
    if poly_degree(q) <= 0:
        return []
    # roots exactly at the range endpoints are outside the open range: deflate
    for endpoint in (lo, hi):
        while poly_eval(q, endpoint) == 0:
            q = poly_divmod(q, (-endpoint, Fraction(1)))[0]
    if poly_degree(q) <= 0:
        return []
    chain = _sturm_chain(q)
    out = []

    def emit(a, b, sa, sb):
        out.append(IsolatingInterval(q, a, b, sa, sb))

    def subdivide(a, b, va, vb):
        count = va - vb
        if count == 0:
            return
        if count == 1:
            emit(a, b, sign(poly_eval(q, a)), sign(poly_eval(q, b)))
            return
        m = (a + b) / 2
        if poly_eval(q, m) == 0:
            # rational root at the midpoint: fence it off with a tight straddle
            d = (b - a) / 8
            while True:
                if poly_eval(q, m - d) != 0 and poly_eval(q, m + d) != 0:
                    if _variations(chain, m - d) - _variations(chain, m + d) == 1:
                        break
                d = d / 2
            vmd, vpd = _variations(chain, m - d), _variations(chain, m + d)
            subdivide(a, m - d, va, vmd)
            emit(m - d, m + d, sign(poly_eval(q, m - d)), sign(poly_eval(q, m + d)))
            subdivide(m + d, b, vpd, vb)
        else:
            vm = _variations(chain, m)
            subdivide(a, m, va, vm)
            subdivide(m, b, vm, vb)

    subdivide(lo, hi, _variations(chain, lo), _variations(chain, hi))
    return out


def refine(interval: IsolatingInterval, target_width: RationalLike) -> IsolatingInterval:
    """Bisect until the interval is no wider than target_width.

    Idempotent on intervals already within the target.  The unique root never
    escapes; if the midpoint lands exactly on the root, a straddle of width
    at most the target is returned.
    """
    target = rat(target_width)
    if target <= 0:
        raise ValueError("target width must be positive")
    q = interval.poly
    lo, hi = interval.lo, interval.hi
    s_lo, s_hi = interval.sign_lo, interval.sign_hi
    while hi - lo > target:
        m = (lo + hi) / 2
        v = poly_eval(q, m)
        if v == 0:
            d = min(target, hi - m, m - lo) / 2
            return IsolatingInterval(q, m - d, m + d, s_lo, s_hi)
        if sign(v) == s_lo:
            lo = m
        else:
            hi = m
    return IsolatingInterval(q, lo, hi, s_lo, s_hi)


def separate(intervals):
    """Shrink each isolating interval strictly inside itself so that no two
    returned intervals share an endpoint.  Preserves order and roots."""
    out = []
    for iv in intervals:
        q, lo, hi = iv.poly, iv.lo, iv.hi
        orig_lo, orig_hi = lo, hi
        while lo == orig_lo or hi == orig_hi:
            w = hi - lo
            for probe in (lo + w / 4, hi - w / 4):
                if not (lo < probe < hi):
                    continue
                v = poly_eval(q, probe)
                if v == 0:
                    # root is rational: clamp a thin straddle around it
                    d = min(probe - lo, hi - probe) / 2
                    lo, hi = probe - d, probe + d
                    break
                if sign(v) == iv.sign_lo:
                    lo = max(lo, probe)
                else:
                    hi = min(hi, probe)
            if lo > orig_lo and hi < orig_hi:
                break
        out.append(IsolatingInterval(q, lo, hi, iv.sign_lo, iv.sign_hi))
    return out


# ---------------------------------------------------------------------------
# Symmetric Laurent polynomial -> polynomial in x = cos(theta)


def chebyshev_reduce(delta: LaurentPoly) -> Poly:
    """Rewrite a symmetric Laurent polynomial on the unit circle in x = cos(theta).

    For delta with delta(t) = delta(1/t), returns P with
    delta(e^{i theta}) = P(cos theta); deg P = max exponent of delta.
    Uses e^{ik theta} + e^{-ik theta} = 2 T_k(cos theta).
    """
    if not isinstance(delta, LaurentPoly):
        delta = LaurentPoly.of(delta)
    if delta.is_zero:
        return ()
    if not delta.is_symmetric:
        raise NonSymmetricInput(f"not symmetric under t -> 1/t: {delta}")
    n = delta.max_exp()
    # Chebyshev polynomials of the first kind: T_{k+1} = 2x T_k - T_{k-1}
    two_x = (Fraction(0), Fraction(2))
    t_prev, t_cur = (Fraction(1),), (Fraction(0), Fraction(1))
    out = poly_normalize((delta.coeff(0),))
    for k in range(1, n + 1):
        c = delta.coeff(k)
        if c:
            out = poly_add(out, poly_scale(t_cur, 2 * c))
        t_prev, t_cur = t_cur, poly_sub(poly_mul(two_x, t_cur), t_prev)
    return out


# ---------------------------------------------------------------------------
# Exact signature of Hermitian matrices over Q(i)


def hermitian_signature(B) -> tuple:
    """(n_plus, n_minus, n_zero) of a Hermitian matrix with GaussRational entries.

    Exact symmetric reduction: 1x1 pivots on nonzero diagonal entries; when the
    working diagonal is identically zero, a 2x2 hyperbolic pivot [[0,b],[b*,0]]
    contributes (1,1) and the Schur complement is taken.  Sylvester's law of
    inertia makes the count independent of pivot order.
    """
    M = [[GaussRational.of(e) for e in row] for row in B]
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i, n):
            if M[i][j] != M[j][i].conjugate():
                raise NotHermitian(f"entry ({i},{j}) != conjugate of ({j},{i})")
    n_plus = n_minus = n_zero = 0
    idx = list(range(n))
    while idx:
        k = next((i for i in idx if not M[i][i].is_zero), None)
        if k is not None:
            d = M[k][k].re
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            rest = [i for i in idx if i != k]
            col = {i: M[i][k] for i in rest}
            row = {j: M[k][j] for j in rest}
            for i in rest:
                for j in rest:
                    M[i][j] = M[i][j] - col[i] * row[j] * (Fraction(1) / d)
            idx = rest
            continue
        off = next(
            ((i, j) for a, i in enumerate(idx) for j in idx[a + 1 :] if not M[i][j].is_zero),
            None,
        )
        if off is None:
            n_zero += len(idx)
            break
        i0, j0 = off
        b = M[i0][j0]
        n_plus += 1
        n_minus += 1
        binv = b.inverse()
        bcinv = b.conjugate().inverse()
        rest = [i for i in idx if i != i0 and i != j0]
        ci = {p: M[p][i0] for p in rest}
        cj = {p: M[p][j0] for p in rest}
        for p in rest:
            for q in rest:
                M[p][q] = M[p][q] - (
                    cj[p] * binv * ci[q].conjugate() + ci[p] * bcinv * cj[q].conjugate()
                )
        idx = rest
    return (n_plus, n_minus, n_zero)
