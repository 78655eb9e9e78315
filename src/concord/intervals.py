"""Certified rational interval arithmetic and enclosures of the handful of
transcendental values the signature integrals need: sqrt, arctan, arccos
and pi.  An enclosure [lo, hi] always contains the true real value.

arctan, arccos and pi come from one fixed-point kernel (Brent, JACM 23,
1976): integers at scale 2^W, each rounding a floor and counted, in ulps
2^-W, in an explicit error bound.  The arctan series runs on an argument
halved below 2^-r, r about sqrt(bits) / 3, for a term count read off bit
lengths; only the final interval is built from Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .rings import rat

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(q: RationalLike) -> "RatInterval":
        q = rat(q)
        return RatInterval(q, q)

    @staticmethod
    def of(x) -> "RatInterval":
        if isinstance(x, RatInterval):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return RatInterval(rat(x[0]), rat(x[1]))
        return RatInterval.point(x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q: RationalLike) -> bool:
        q = rat(q)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def overlaps(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        o = RatInterval.of(other)
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RatInterval.of(other))

    def __rsub__(self, other):
        return RatInterval.of(other) + (-self)

    def __mul__(self, other):
        o = RatInterval.of(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def inverse(self) -> "RatInterval":
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(Fraction(1) / self.hi, Fraction(1) / self.lo)

    def __truediv__(self, other):
        return self * RatInterval.of(other).inverse()

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def __str__(self):
        if self.is_point:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


def simplest_rational(lo: RationalLike, hi: RationalLike) -> Fraction:
    """The rational with smallest denominator (smallest magnitude breaking
    ties) in the closed interval [lo, hi], by Stern-Brocot descent."""
    lo, hi = rat(lo), rat(hi)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational(-hi, -lo)
    floor_lo = lo.numerator // lo.denominator
    if lo == floor_lo or floor_lo + 1 <= hi:
        return Fraction(floor_lo if lo == floor_lo else floor_lo + 1)
    rest = simplest_rational(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / rest


def sqrt_interval(q: RationalLike, bits: int = 64) -> RatInterval:
    """Enclosure of sqrt(q) for q >= 0, 2^-bits wide via integer square roots."""
    q = rat(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return RatInterval.point(0)
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    big = num * den << (2 * bits)
    r = math.isqrt(big)
    scale = den << bits
    lo = Fraction(r, scale)
    hi = Fraction(r + 1, scale) if r * r != big else lo
    return RatInterval(lo, hi)


def _atan_sqrt(q: Fraction, bits: int) -> RatInterval:
    """Enclosure of arctan(sqrt(q)) for rational q >= 0, at most 2^-bits wide.

    Values are integer counts of ulps 2^-W.  arctan and the halving map are
    1-Lipschitz, so an ulp of error in u is at most an ulp in arctan(u)."""
    if q == 0:
        return RatInterval.point(0)
    reduce = max(1, math.isqrt(bits) // 3)  # halve until u < 2^-reduce
    W = bits + reduce + bits.bit_length() + 8
    one = 1 << W
    # isqrt(floor(q 4^W)) is within 2 ulps of sqrt(q)
    u, halvings = math.isqrt((q.numerator << 2 * W) // q.denominator), 0
    while u.bit_length() > W - reduce:
        # arctan(u) = 2 arctan(u / (1 + sqrt(1 + u^2))); the map is 1-Lipschitz
        # and its two floors leave the new u within 1 ulp of the map's value
        u = (u << W) // (one + math.isqrt(one * one + u * u))
        halvings += 1
    # u < 2^-r with r = W - u.bit_length(), so the first omitted term
    # u^(2n+1)/(2n+1) is below one ulp
    n = W // (2 * (W - u.bit_length())) + 1
    # the floored powers p stay within 2 ulps of u^(2k+1), so each floored
    # term is within 3 ulps; add the tail, and 2 + halvings ulps for u
    err = 3 * n + 1 + 2 + halvings
    x2 = u * u >> W
    acc, p = 0, u
    for k in range(n):
        acc += -(p // (2 * k + 1)) if k & 1 else p // (2 * k + 1)
        p = p * x2 >> W
    lo, hi = (acc - err) << halvings, (acc + err) << halvings
    return RatInterval(Fraction(lo, one), Fraction(hi, one))


def atan_interval(y, bits: int = 64) -> RatInterval:
    """Enclosure of arctan(y) for a rational or interval argument y of any
    sign; width shrinks like 2^-bits."""
    y = RatInterval.of(y)
    end = {v: _atan_sqrt(v * v, bits) * (1 if v >= 0 else -1) for v in {y.lo, y.hi}}
    return RatInterval(end[y.lo].lo, end[y.hi].hi)


@lru_cache(maxsize=None)
def pi_interval(bits: int = 64) -> RatInterval:
    """Machin's formula: pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a = _atan_sqrt(Fraction(1, 5**2), bits + 5)
    return 16 * a - 4 * _atan_sqrt(Fraction(1, 239**2), bits + 3)


def acos_interval(x: RationalLike, bits: int = 64) -> RatInterval:
    """Enclosure of arccos(x) for rational x in [-1, 1].

    Uses arccos(x) = 2 arctan(sqrt((1 - x)/(1 + x))); the endpoints are exact
    (0) and pi respectively.
    """
    x = rat(x)
    if not (-1 <= x <= 1):
        raise ValueError("arccos argument outside [-1, 1]")
    if x == 1:
        return RatInterval.point(0)
    if x == -1:
        return pi_interval(bits)
    return 2 * _atan_sqrt((1 - x) / (1 + x), bits + 1)
