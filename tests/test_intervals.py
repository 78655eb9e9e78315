"""Outward-rounded rational interval arithmetic and the certified
enclosures of pi, atan and arccos."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from concord.intervals import (
    RatInterval,
    acos_interval,
    atan_interval,
    pi_interval,
    simplest_rational,
    sqrt_interval,
)
from concord.seifert import K9_46, TREFOIL, SeifertMatrix, connected_sum, mirror, rho0

from oracles import acos_enclosure_fraction, atan_enclosure_fraction


def test_interval_basics():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert a.width == Fraction(1, 6)
    assert not a.is_point
    assert a.contains(Fraction(2, 5))
    assert not a.contains_zero()
    assert a.excludes_zero()
    p = RatInterval.point(Fraction(-2))
    assert p.is_point and p.midpoint() == -2
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_interval_arithmetic_encloses_true_values():
    rng = random.Random(3)
    for _ in range(150):
        a_mid = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b_mid = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        ra = Fraction(rng.randint(0, 3), 7)
        rb = Fraction(rng.randint(0, 3), 7)
        A = RatInterval(a_mid - ra, a_mid + ra)
        B = RatInterval(b_mid - rb, b_mid + rb)
        # pick true points inside and check closure under the operations
        x = a_mid + ra * Fraction(rng.randint(-7, 7), 7)
        y = b_mid + rb * Fraction(rng.randint(-7, 7), 7)
        assert (A + B).contains(x + y)
        assert (A - B).contains(x - y)
        assert (A * B).contains(x * y)
        assert A.abs().contains(abs(x))
        if B.excludes_zero():
            assert (A / B).contains(x / y)
            assert B.inverse().contains(1 / y)


def test_interval_division_by_zero_straddling_raises():
    with pytest.raises(ZeroDivisionError):
        RatInterval(Fraction(1), Fraction(2)) / RatInterval(Fraction(-1), Fraction(1))


def test_pi_interval_tightens():
    last_width = None
    for bits in (16, 32, 64, 128):
        p = pi_interval(bits)
        # the certified enclosure brackets the closest double to pi
        assert float(p.lo) <= math.pi <= float(p.hi)
        assert p.width <= Fraction(1, 2 ** (bits - 8))
        if last_width is not None:
            assert p.width < last_width
        last_width = p.width
    assert abs(float(pi_interval(64).midpoint()) - math.pi) < 1e-15
    assert pi_interval(64).width < Fraction(1, 2 ** 60)


def test_atan_interval_known_points():
    p = pi_interval(80)
    quarter_pi = atan_interval(Fraction(1), 80)
    assert quarter_pi.lo * 4 <= p.hi and p.lo <= quarter_pi.hi * 4
    assert atan_interval(Fraction(0), 64) == RatInterval.point(Fraction(0))


def test_atan_interval_vs_math():
    rng = random.Random(5)
    for _ in range(100):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 40))
        iv = atan_interval(x, 64)
        true = math.atan(float(x))
        assert float(iv.lo) - 1e-12 <= true <= float(iv.hi) + 1e-12
        assert iv.width < Fraction(1, 2 ** 50)


def test_acos_interval_exact_endpoints_and_vs_math():
    assert acos_interval(Fraction(1), 64) == RatInterval.point(Fraction(0))
    full = acos_interval(Fraction(-1), 64)
    assert float(full.lo) <= math.pi <= float(full.hi)
    rng = random.Random(9)
    for _ in range(100):
        x = Fraction(rng.randint(-99, 99), 100)
        iv = acos_interval(x, 64)
        true = math.acos(float(x))
        assert float(iv.lo) - 1e-12 <= true <= float(iv.hi) + 1e-12


def test_acos_interval_rejects_out_of_range():
    with pytest.raises(ValueError):
        acos_interval(Fraction(3, 2), 64)


def test_sqrt_interval():
    rng = random.Random(101)
    for _ in range(100):
        x = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 100))
        iv = sqrt_interval(x, 64)
        assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
        assert iv.width <= Fraction(1, 2 ** 40) * max(1, x)
    assert sqrt_interval(Fraction(9, 4), 64) == RatInterval.point(Fraction(3, 2))


def test_simplest_rational_frozen_cases():
    assert simplest_rational(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)
    assert simplest_rational(Fraction(-1, 2), Fraction(1, 3)) == 0
    assert simplest_rational(Fraction(27, 10), Fraction(28, 10)) == Fraction(11, 4)
    assert simplest_rational(Fraction(-28, 10), Fraction(-27, 10)) == Fraction(-11, 4)
    assert simplest_rational(Fraction(5), Fraction(5)) == 5
    # the canonical use: a tight enclosure of -4/3 snaps to -4/3
    assert simplest_rational(Fraction(-4, 3) - Fraction(1, 10 ** 9),
                             Fraction(-4, 3) + Fraction(1, 10 ** 9)) == Fraction(-4, 3)
    with pytest.raises(ValueError):
        simplest_rational(Fraction(1), Fraction(0))


def test_simplest_rational_is_simplest():
    rng = random.Random(15)
    for _ in range(120):
        lo = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        width = Fraction(rng.randint(0, 50), rng.randint(1, 60))
        hi = lo + width
        q = simplest_rational(lo, hi)
        assert lo <= q <= hi
        # nothing with a smaller denominator fits in [lo, hi]
        for d in range(1, q.denominator):
            n_lo = math.ceil(lo * d)
            n_hi = math.floor(hi * d)
            assert n_lo > n_hi, (lo, hi, q, d)


# ---------------------------------------------------------------------------
# Correctness gate for the fixed-point kernel: mpmath values (oracle only)
# and the Fraction-series reference enclosures from tests/oracles.py

SWEEP_BITS = (16, 64, 256, 1024)
SWEEP_SIZE = 2500  # rationals per function, each at every precision
# The reference runs at 16 bits only: its unrounded powers make it cost
# about a second per call at 256 bits.  Enclosures of one value overlap
# whatever their widths, so the check still applies at every precision.
REFERENCE_BITS = 16


def _exact(v) -> Fraction:
    """An mpmath binary float as the exact rational it is."""
    man, exp = v.man_exp  # man_exp drops the sign
    return (-1 if v < 0 else 1) * Fraction(int(man)) * Fraction(2) ** int(exp)


def _sweep(rng, draw, fn, ref, oracle):
    for _ in range(SWEEP_SIZE):
        x = draw(rng)
        ref_lo, ref_hi = ref(x)
        for bits in SWEEP_BITS:
            iv = fn(x, bits)
            with mpmath.workprec(bits + 64):
                true = _exact(oracle(mpmath.mpf(x.numerator) / x.denominator))
            assert iv.contains(true), (x, bits)
            assert iv.lo <= ref_hi and ref_lo <= iv.hi, (x, bits)
            assert iv.width <= Fraction(1, 2 ** bits), (x, bits)


def test_atan_sweep_vs_mpmath_and_fraction_reference():
    def draw(rng):
        scale = 10 ** rng.randint(0, 6)
        return Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 3)) / scale

    _sweep(random.Random(1976), draw, atan_interval,
           lambda x: atan_enclosure_fraction(x, x, REFERENCE_BITS), mpmath.atan)


def test_acos_sweep_vs_mpmath_and_fraction_reference():
    def draw(rng):
        den = 10 ** rng.randint(1, 6)
        return Fraction(rng.randint(-den + 1, den - 1), den)

    _sweep(random.Random(1998), draw, acos_interval,
           lambda x: acos_enclosure_fraction(x, REFERENCE_BITS), mpmath.acos)


def test_interval_arguments_and_exact_points():
    for bits in SWEEP_BITS:
        assert atan_interval(Fraction(0), bits) == RatInterval.point(0)
        assert acos_interval(Fraction(1), bits) == RatInterval.point(0)
        assert acos_interval(Fraction(-1), bits) == pi_interval(bits)
        with mpmath.workprec(bits + 64):
            assert pi_interval(bits).contains(_exact(+mpmath.pi))
        # an interval argument is enclosed by its endpoints' enclosures,
        # also across zero
        for lo, hi in ((Fraction(-3, 7), Fraction(5, 2)), (Fraction(-9), Fraction(-1, 9))):
            iv = atan_interval(RatInterval(lo, hi), bits)
            assert iv.lo == atan_interval(lo, bits).lo
            assert iv.hi == atan_interval(hi, bits).hi
        assert atan_interval(Fraction(-2, 3), bits) == -atan_interval(Fraction(2, 3), bits)


def test_rho0_mirror_negates_exactly_at_tight_tolerances():
    for V in (TREFOIL, connected_sum(TREFOIL, K9_46), connected_sum(TREFOIL, mirror(TREFOIL))):
        for tol in (Fraction(1, 10 ** 30), Fraction(1, 10 ** 100)):
            r, m = rho0(V, tol).interval(), rho0(mirror(V), tol).interval()
            assert m.lo == -r.hi and m.hi == -r.lo


def test_rho0_trefoil_at_1e_300():
    tol = Fraction(1, 10 ** 300)
    r = rho0(TREFOIL, tol)
    assert r.error_bound <= tol
    assert r.interval().contains(Fraction(-4, 3))


def test_rho0_steep_jump_meets_tol_through_the_fallback():
    # Delta = n^2 (t - 2 + 1/t) + 1 jumps at cos(theta) = 1 - 1/(2 n^2), where
    # arccos has slope about n: steeper than the guard bits cover, so the
    # first pass misses tol and the precision doubles
    n = 100
    tol = Fraction(1, 10 ** 30)
    r = rho0(SeifertMatrix(((n, 1), (0, n))), tol)
    with mpmath.workprec(256):
        theta = mpmath.acos(1 - mpmath.mpf(1) / (2 * n * n))
        true = _exact(2 * (1 - theta / mpmath.pi))
    assert r.error_bound <= tol
    assert r.interval().contains(true)
