"""Seifert matrices and the zero-order concordance invariants built from
them: Alexander polynomial, Arf invariant, Levine-Tristram signatures, the
exact signature profile over the circle, the signature average rho0, and
the Fox-Milnor factorization test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from typing import Optional, Sequence

from .factorq import factor_rational_poly
from .intervals import RatInterval, acos_interval, pi_interval, sqrt_interval
from .rings import (
    CirclePoint,
    GaussRational,
    LaurentPoly,
    Poly,
    chebyshev_reduce,
    circle_value,
    eliminate,
    hermitian_signature,
    poly_interpolate,
    poly_monic,
    poly_normalize,
    rat,
    refine,
    separate,
    sturm_isolate,
)

#: default half-width guarantee for certified rho0 intervals
DEFAULT_TOL = Fraction(1, 10**9)
#: precision rho0 adds to its estimate of the least bits that can meet tol
RHO0_GUARD_BITS = 6


class AtOne(ValueError):
    """Levine-Tristram signature requested at omega = 1, where it is undefined."""


class AtRootOfAlexander(ValueError):
    """Levine-Tristram signature requested at a unit root of the Alexander polynomial."""


@dataclass(frozen=True)
class SeifertMatrix:
    """Rational Seifert matrix: square, even size, det(V - V^T) = +-1.

    slice_hint is curated knowledge that the knot is (smoothly) slice; it is
    never derived and does not participate in equality.
    """

    entries: tuple
    name: str = field(default="", compare=False)
    slice_hint: bool = field(default=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(rat(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Seifert matrix must be square")
        if n % 2:
            raise ValueError("Seifert matrix must have even size")
        _, d = eliminate([[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)])
        if d not in (1, -1):
            raise ValueError(f"det(V - V^T) = {d}, not +-1: not a Seifert pairing")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return self.size // 2

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def fingerprint(self) -> str:
        """Content hash; independent of the display name."""
        return sha256(repr(self.entries).encode()).hexdigest()[:12]

    @property
    def display_name(self) -> str:
        return self.name or f"K[{self.fingerprint()}]"

    def __str__(self):
        rows = ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.entries)
        return f"{self.display_name} [{rows}]"


def mirror(V: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix of the mirror image: -V^T."""
    n = V.size
    return SeifertMatrix(
        tuple(tuple(-V.entries[j][i] for j in range(n)) for i in range(n)),
        name=V.name and f"mirror({V.name})",
    )


def connected_sum(A: SeifertMatrix, B: SeifertMatrix) -> SeifertMatrix:
    """Block sum of Seifert matrices."""
    n, m = A.size, B.size
    zero = Fraction(0)
    rows = [tuple(A.entries[i]) + (zero,) * m for i in range(n)]
    rows += [(zero,) * n + tuple(B.entries[i]) for i in range(m)]
    name = f"{A.name} # {B.name}" if A.name and B.name else ""
    return SeifertMatrix(tuple(rows), name=name)


# Canonical small Seifert matrices used throughout: the unknot, the
# right-handed trefoil, the figure-eight knot, and the ribbon knot 9_46.
UNKNOT = SeifertMatrix((), name="unknot", slice_hint=True)
TREFOIL = SeifertMatrix(((-1, 1), (0, -1)), name="trefoil")
FIGURE_EIGHT = SeifertMatrix(((1, 1), (0, -1)), name="figure-eight")
K9_46 = SeifertMatrix(((0, 2), (1, 0)), name="9_46", slice_hint=True)


# ---------------------------------------------------------------------------
# Alexander polynomial and Arf


@lru_cache(maxsize=1024)  # by matrix content, the 1024 most recent
def _alexander(V: SeifertMatrix) -> LaurentPoly:
    n, g = V.size, V.genus
    if n == 0:
        return LaurentPoly.const(1)
    pts = [Fraction(k) for k in range(-g, g + 1)]
    E = V.entries
    vals = [
        eliminate([[E[i][j] - t * E[j][i] for j in range(n)] for i in range(n)])[1]
        for t in pts
    ]
    dense = poly_interpolate(pts, vals)
    lp = LaurentPoly.from_dense(dense, -g)
    c = lp(Fraction(1))
    assert c in (1, -1), "det(V - V^T) should be a unit"
    if c == -1:
        lp = lp * Fraction(-1)
    assert lp.is_symmetric, "Alexander polynomial must satisfy p(t) = p(1/t)"
    return lp


def alexander_polynomial(V: SeifertMatrix) -> LaurentPoly:
    """t^{-g} det(V - t V^T), normalized so that Delta(1) = 1.

    Always symmetric under t -> 1/t with this normalization.
    """
    return _alexander(V)


def arf(V: SeifertMatrix) -> int:
    """Arf invariant from Delta(-1) mod 8: 0 when +-1, 1 when +-3.

    Rejects Seifert matrices whose Delta(-1) is not an odd integer (possible
    for rational matrices that do not arise from honest knots).
    """
    d = _alexander(V)(Fraction(-1))
    if d.denominator != 1 or d.numerator % 2 == 0:
        raise ValueError(f"Delta(-1) = {d} is not an odd integer; Arf undefined")
    return 0 if d.numerator % 8 in (1, 7) else 1


# ---------------------------------------------------------------------------
# Levine-Tristram signatures


def _lt_form(V: SeifertMatrix, omega: GaussRational):
    n = V.size
    a = GaussRational.of(1) - omega
    b = a.conjugate()
    return [
        [a * V.entries[i][j] + b * V.entries[j][i] for j in range(n)] for i in range(n)
    ]


def lt_signature(V: SeifertMatrix, p: CirclePoint) -> int:
    """Signature of (1-omega)V + (1-conj(omega))V^T at a rational circle point.

    Undefined at omega = 1 (AtOne) and at unit roots of the Alexander
    polynomial (AtRootOfAlexander); elsewhere the form is nonsingular.
    """
    if p.is_one:
        raise AtOne("Levine-Tristram signature is undefined at omega = 1")
    omega = circle_value(p)
    if _alexander(V)(omega).is_zero:
        raise AtRootOfAlexander(f"{p} is a root of the Alexander polynomial")
    plus, minus, zero = hermitian_signature(_lt_form(V, omega))
    assert zero == 0, "form must be nonsingular away from Alexander roots"
    return plus - minus


# ---------------------------------------------------------------------------
# Signature profile over the circle


@dataclass(frozen=True)
class SignatureProfile:
    """Exact description of theta -> signature on the open upper semicircle.

    Jumps are located at the circle roots of the Alexander polynomial,
    isolated as disjoint intervals in x = cos(theta), ordered by increasing
    theta (decreasing x).  arc_values[j] is the constant signature between
    jump j and jump j+1; arc_samples[j] is a rational witness point on that
    arc.  The signature extends continuously to omega = -1.
    """

    alexander: LaurentPoly
    chebyshev: Poly
    jumps: tuple  # tuple[IsolatingInterval, ...] in decreasing x
    arc_values: tuple  # tuple[int, ...], len(jumps) + 1
    arc_samples: tuple  # tuple[CirclePoint, ...]
    value_at_minus_one: int

    @property
    def jump_count(self) -> int:
        return len(self.jumps)

    def is_constant_zero(self) -> bool:
        return all(v == 0 for v in self.arc_values)


def _sample_param(a: Fraction, b: Fraction) -> Fraction:
    """Rational s > 0 with cos-parameter x(s) = (1-s^2)/(1+s^2) in [a, b]."""
    assert -1 < a < b < 1
    # x(s) in [a, b]  <=>  s^2 in [(1-b)/(1+b), (1-a)/(1+a)]
    u = (1 - b) / (1 + b)
    v = (1 - a) / (1 + a)
    mid = (u + v) / 2
    bits = 16
    while True:
        cand = sqrt_interval(mid, bits).lo
        if cand > 0 and u < cand * cand < v:
            return cand
        bits *= 2


@lru_cache(maxsize=1024)  # by matrix content, the 1024 most recent
def signature_profile(V: SeifertMatrix) -> SignatureProfile:
    """Compute the full exact signature profile of a Seifert matrix."""
    delta = _alexander(V)
    cheb = chebyshev_reduce(delta)
    jumps = separate(sturm_isolate(cheb, -1, 1))
    jumps = tuple(sorted(jumps, key=lambda iv: iv.lo, reverse=True))
    # safe x-range for each arc between consecutive jump intervals
    ranges = []
    if not jumps:
        ranges.append((Fraction(-1, 2), Fraction(1, 2)))
    else:
        first_hi = jumps[0].hi
        ranges.append((first_hi, (first_hi + 1) / 2))
        for left, right in zip(jumps, jumps[1:]):
            ranges.append((right.hi, left.lo))
        last_lo = jumps[-1].lo
        ranges.append(((last_lo - 1) / 2, last_lo))
    samples = []
    for a, b in ranges:
        a, b = (a, b) if a < b else (b, a)
        samples.append(CirclePoint(_sample_param(a, b)))
    values = tuple(lt_signature(V, p) for p in samples)
    at_minus_one = lt_signature(V, CirclePoint.infinity())
    assert values[0] == 0, "signature must vanish on the arc at omega -> 1"
    assert values[-1] == at_minus_one, "last arc must match the value at omega = -1"
    return SignatureProfile(
        alexander=delta,
        chebyshev=cheb,
        jumps=jumps,
        arc_values=values,
        arc_samples=tuple(samples),
        value_at_minus_one=at_minus_one,
    )


# ---------------------------------------------------------------------------
# rho0: average of the signature over the circle


@dataclass(frozen=True)
class Rho0Result:
    """Certified value of the circle average of the signature function.

    error_bound = 0 means the value is exact (constant profile); otherwise
    the true value lies within [value - error_bound, value + error_bound].
    """

    value: Fraction
    error_bound: Fraction
    profile: SignatureProfile

    @property
    def is_exact(self) -> bool:
        return self.error_bound == 0

    def interval(self) -> RatInterval:
        return RatInterval(self.value - self.error_bound, self.value + self.error_bound)

    def __str__(self):
        if self.is_exact:
            return f"{self.value} (exact)"
        return f"{self.value} +- {self.error_bound}"


def rho0(V: SeifertMatrix, tol=DEFAULT_TOL) -> Rho0Result:
    """Average of the Levine-Tristram signature over the unit circle.

    Writing theta_1 < ... < theta_m for the jump angles and v_0, ..., v_m for
    the arc values, the average telescopes to
        v_m + (1/pi) * sum_j (v_{j-1} - v_j) * theta_j.
    Exact when the profile is constant; otherwise a certified interval of
    half-width at most tol, computed from arccos enclosures of the jump
    cosines refined to width 2^-bits, which lands between half and all of
    that width: at arccos slope 1 the half-width is at least S 2^-bits /
    (4 pi), S = sum |v_{j-1} - v_j|.  So bits is picked once, as the least
    with 2^bits > S / (12 tol) plus RHO0_GUARD_BITS for the steeper arccos
    near +-1, and doubles only if that pass misses tol.
    """
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    prof = signature_profile(V)
    coeffs = [
        prof.arc_values[j - 1] - prof.arc_values[j] for j in range(1, len(prof.arc_values))
    ]
    active = [(c, iv) for c, iv in zip(coeffs, prof.jumps) if c]
    base = Fraction(prof.value_at_minus_one)
    if not active:
        return Rho0Result(value=base, error_bound=Fraction(0), profile=prof)
    spread = sum(abs(c) for c, _ in active)
    bits = (spread * tol.denominator // (12 * tol.numerator)).bit_length() + RHO0_GUARD_BITS
    while True:
        width_target = Fraction(1, 1 << bits)
        total = RatInterval.point(0)
        for c, iv in active:
            iv = refine(iv, width_target)
            theta = RatInterval(
                acos_interval(iv.hi, bits).lo, acos_interval(iv.lo, bits).hi
            )
            total = total + theta * c
        result = base + total * pi_interval(bits).inverse()
        if result.width <= 2 * tol:
            half = result.width / 2
            return Rho0Result(value=result.midpoint(), error_bound=half, profile=prof)
        bits *= 2


# ---------------------------------------------------------------------------
# Fox-Milnor


def _reciprocal(q: Poly) -> Poly:
    return poly_monic(poly_normalize(tuple(reversed(q))))


def fox_milnor_test(V: SeifertMatrix) -> bool:
    """Whether Delta factors as c * f(t) * f(1/t) * t^k over Q.

    Necessary for topological sliceness.  Checks that the multiset of monic
    irreducible factors is closed under t -> 1/t with matching
    multiplicities, self-reciprocal factors appearing evenly.
    """
    delta = _alexander(V)
    dense, _ = delta.to_dense()
    if len(dense) == 1:
        return True  # Delta = 1
    factors = dict(factor_rational_poly(dense))
    for q, m in factors.items():
        qr = _reciprocal(q)
        if qr == q:
            if m % 2:
                return False
        elif factors.get(qr) != m:
            return False
    return True
