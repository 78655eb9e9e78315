"""Exact ring layer: Laurent polynomials, Sturm isolation, Chebyshev
rewriting on the circle, and Hermitian signatures over Q(i)."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from concord.infection import RhoLedger, rho0_atom
from concord.rings import (
    CirclePoint,
    GaussRational,
    IsolatingInterval,
    LaurentPoly,
    NonSymmetricInput,
    NotHermitian,
    charpoly_adj,
    chebyshev_reduce,
    circle_value,
    eliminate,
    hermitian_signature,
    mat_mul,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_gcdex,
    poly_interpolate,
    poly_monic,
    poly_mul,
    poly_normalize,
    poly_str,
    refine,
    separate,
    sturm_isolate,
)

from concord.seifert import TREFOIL

from oracles import count_roots_on_grid, signature_float


# ---------------------------------------------------------------------------
# GaussRational and circle points


def test_gauss_rational_arithmetic():
    a = GaussRational(Fraction(1, 2), Fraction(3))
    b = GaussRational(Fraction(-2), Fraction(1, 3))
    assert a + b == GaussRational(Fraction(-3, 2), Fraction(10, 3))
    assert a * b == GaussRational(Fraction(-2), Fraction(-35, 6))
    assert (a - a).is_zero
    assert a.conjugate() == GaussRational(Fraction(1, 2), Fraction(-3))
    assert a.abs2() == Fraction(1, 4) + 9
    assert (a * a.inverse()) == GaussRational.of(1)
    assert str(GaussRational(Fraction(0), Fraction(-1))) == "-1*i"


def test_gauss_rational_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussRational.of(0).inverse()


def test_gauss_rational_random_field_axioms():
    rng = random.Random(7)
    for _ in range(120):
        a = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b.conjugate()).conjugate() == a.conjugate() * b
        if not b.is_zero:
            assert (a / b) * b == a


def test_circle_point_values():
    one = CirclePoint(Fraction(0))
    assert one.is_one and one.cos() == 1
    minus = CirclePoint.infinity()
    assert minus.is_minus_one and minus.cos() == -1
    i_pt = CirclePoint(Fraction(1))
    assert i_pt.cos() == 0
    assert circle_value(i_pt) == GaussRational(Fraction(0), Fraction(1))


def test_circle_value_lies_on_unit_circle():
    rng = random.Random(11)
    for _ in range(150):
        s = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        p = CirclePoint(s)
        w = circle_value(p)
        assert w.abs2() == 1
        assert w.re == p.cos()
        wc = circle_value(p.conjugate())
        assert wc == w.conjugate()


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_laurent_basics():
    t = LaurentPoly.t()
    p = t + LaurentPoly.const(-1) + LaurentPoly.t(-1)
    assert p.coeff(1) == 1 and p.coeff(0) == -1 and p.coeff(-1) == 1
    assert p.is_symmetric
    assert p(Fraction(1)) == 1
    assert p(Fraction(2)) == Fraction(3, 2)
    assert str(p) == "t - 1 + t^-1"
    assert p.conjugate() == p
    q = t * 2 - 1
    assert not q.is_symmetric
    assert q.conjugate() == LaurentPoly.t(-1) * 2 - 1


def test_laurent_ring_axioms_random():
    rng = random.Random(13)

    def rand_poly():
        return LaurentPoly(
            {rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(rng.randint(0, 5))}
        )

    for _ in range(120):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert (a * b)(x) == a(x) * b(x)
        # symmetrized product is symmetric
        s = a * a.conjugate()
        assert s.is_symmetric


def test_laurent_shift_and_dense():
    p = LaurentPoly.from_dense((Fraction(1), Fraction(-5, 2), Fraction(1)), shift=-1)
    assert p.min_exp() == -1 and p.max_exp() == 1
    assert p.shift(2).min_exp() == 1
    dense, shift = p.to_dense()
    assert shift == -1 and dense == (Fraction(1), Fraction(-5, 2), Fraction(1))


# ---------------------------------------------------------------------------
# Dense polynomial helpers


def test_poly_divmod_and_gcd():
    a = poly_normalize((Fraction(-2), Fraction(1)))  # t - 2
    b = poly_normalize((Fraction(-1, 2), Fraction(1)))  # t - 1/2
    prod = poly_mul(a, b)
    q, r = poly_divmod(prod, a)
    assert r == () and q == b
    assert poly_gcd(prod, a) == poly_monic(a)
    g, u, v = poly_gcdex(a, b)
    # u*a + v*b = g with g monic gcd = 1 (distinct roots)
    assert g == (Fraction(1),)


def test_poly_gcdex_random_bezout():
    rng = random.Random(17)
    for _ in range(100):
        a = poly_normalize([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        b = poly_normalize([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        if not a or not b:
            continue
        g, u, v = poly_gcdex(a, b)
        lhs = poly_normalize(
            [x + y for x, y in zip(
                list(poly_mul(u, a)) + [Fraction(0)] * 8,
                list(poly_mul(v, b)) + [Fraction(0)] * 8,
            )]
        )
        assert lhs == g
        if g:
            assert poly_divmod(a, g)[1] == ()
            assert poly_divmod(b, g)[1] == ()


def test_poly_interpolate_roundtrip():
    pts = [Fraction(k) for k in range(5)]
    vals = [Fraction(3) * x ** 3 - x + Fraction(1, 2) for x in pts]
    p = poly_interpolate(pts, vals)
    assert [poly_eval(p, x) for x in pts] == vals
    assert poly_str(p) == "3*t^3 - t + 1/2"


# ---------------------------------------------------------------------------
# Sturm isolation


def test_sturm_isolate_known_roots():
    # (x - 1/3)(x + 2)(x - 5) inside (-10, 10)
    p = poly_mul(poly_mul((Fraction(-1, 3), Fraction(1)), (Fraction(2), Fraction(1))),
                 (Fraction(-5), Fraction(1)))
    roots = sturm_isolate(p, -10, 10)
    assert len(roots) == 3
    expected = [Fraction(-2), Fraction(1, 3), Fraction(5)]
    for iv, want in zip(roots, expected):
        assert iv.lo < want < iv.hi
        tight = refine(iv, Fraction(1, 10 ** 6))
        assert tight.hi - tight.lo <= Fraction(1, 10 ** 6)
        assert tight.lo < want < tight.hi


def test_sturm_isolate_multiplicity_collapsed():
    # (x - 1)^2 (x + 1): the double root reported once
    p = poly_mul(poly_mul((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1))),
                 (Fraction(1), Fraction(1)))
    roots = sturm_isolate(p, -2, 2)
    assert len(roots) == 2


def test_sturm_isolate_open_interval_excludes_endpoints():
    p = (Fraction(0), Fraction(1))  # x
    assert sturm_isolate(p, 0, 1) == []
    assert len(sturm_isolate(p, -1, 1)) == 1


def test_sturm_random_vs_grid_oracle():
    rng = random.Random(19)
    for _ in range(100):
        # product of distinct linear factors with well-separated roots
        roots = rng.sample(range(-20, 20), rng.randint(1, 5))
        p = (Fraction(1),)
        for r in roots:
            p = poly_mul(p, (Fraction(-r) + Fraction(1, 7), Fraction(1)))
        found = sturm_isolate(p, -30, 30)
        assert len(found) == len(roots)
        for iv in found:
            # exactly one true root in each reported interval
            assert count_roots_on_grid(p, iv.lo, iv.hi, steps=512) == 1
        assert all(a.hi <= b.lo for a, b in zip(found, found[1:]))


def test_separate_shrinks_overlaps():
    p = poly_mul((Fraction(-1), Fraction(1)), (Fraction(-2), Fraction(1)))
    a = sturm_isolate(p, 0, 3)
    assert all(x.hi <= y.lo for x, y in zip(a, a[1:]))
    sep = separate(a)
    assert all(x.hi < y.lo or x.hi == y.lo for x, y in zip(sep, sep[1:]))


def test_isolating_interval_validation():
    p = (Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        IsolatingInterval(p, Fraction(1), Fraction(0), -1, 1)
    with pytest.raises(ValueError):
        IsolatingInterval(p, Fraction(0), Fraction(2), 1, 1)


# ---------------------------------------------------------------------------
# Chebyshev rewriting


def test_chebyshev_reduce_frozen():
    t = LaurentPoly.t()
    tinv = LaurentPoly.t(-1)
    # t - 1 + 1/t  ->  2x - 1
    assert chebyshev_reduce(t - 1 + tinv) == (Fraction(-1), Fraction(2))
    # -t + 3 - 1/t  ->  -2x + 3
    assert chebyshev_reduce(-t + 3 - tinv) == (Fraction(3), Fraction(-2))
    # -2t + 5 - 2/t  ->  -4x + 5
    assert chebyshev_reduce(-t * 2 + 5 - tinv * 2) == (Fraction(5), Fraction(-4))
    assert chebyshev_reduce(LaurentPoly.const(Fraction(7, 2))) == (Fraction(7, 2),)


def test_chebyshev_reduce_rejects_asymmetric():
    with pytest.raises(NonSymmetricInput):
        chebyshev_reduce(LaurentPoly.t() * 2 - 1)


def test_chebyshev_reduce_matches_complex_evaluation():
    rng = random.Random(23)
    for _ in range(100):
        half = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))]
        c0 = Fraction(rng.randint(-4, 4))
        sym = LaurentPoly.const(c0)
        for k, c in enumerate(half, start=1):
            sym = sym + (LaurentPoly.t(k) + LaurentPoly.t(-k)) * c
        P = chebyshev_reduce(sym)
        theta = rng.uniform(0.1, 3.0)
        lhs = complex(sum(float(c) * math.cos(k * theta) for k, c in
                          [(0, c0)] + [(k, 2 * c) for k, c in enumerate(half, start=1)]))
        rhs = poly_eval(P, Fraction(math.cos(theta)).limit_denominator(10 ** 12))
        assert abs(lhs.real - float(rhs)) < 1e-6


# ---------------------------------------------------------------------------
# Hermitian signatures


def test_hermitian_signature_small_cases():
    assert hermitian_signature(()) == (0, 0, 0)
    assert hermitian_signature(((1,),)) == (1, 0, 0)
    assert hermitian_signature(((Fraction(-3, 2),),)) == (0, 1, 0)
    assert hermitian_signature(((0,),)) == (0, 0, 1)
    # hyperbolic block: signature (1, 1)
    i = GaussRational(Fraction(0), Fraction(1))
    B = ((GaussRational.of(0), i), (i.conjugate(), GaussRational.of(0)))
    assert hermitian_signature(B) == (1, 1, 0)


def test_hermitian_signature_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_signature(((0, 1), (2, 0)))
    i = GaussRational(Fraction(0), Fraction(1))
    with pytest.raises(NotHermitian):
        hermitian_signature(((i, GaussRational.of(0)), (GaussRational.of(0), i)))


def random_hermitian(rng, n):
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = GaussRational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                                Fraction(0))
        for j in range(i + 1, n):
            e = GaussRational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                              Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
            M[i][j] = e
            M[j][i] = e.conjugate()
    return tuple(tuple(row) for row in M)


def test_hermitian_signature_vs_float_oracle():
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(1, 5)
        B = random_hermitian(rng, n)
        got = hermitian_signature(B)
        want = signature_float([[(e.re, e.im) for e in row] for row in B])
        # the float oracle can only misreport very near-singular matrices;
        # on this integer-ish ensemble the counts agree exactly
        assert got == want
        assert sum(got) == n


def test_hermitian_signature_congruence_invariance():
    # P* B P has the same signature for invertible P (Sylvester)
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        B = random_hermitian(rng, n)
        # random integer upper-triangular P with unit diagonal: invertible
        P = [[GaussRational.of(0)] * n for _ in range(n)]
        for i in range(n):
            P[i][i] = GaussRational.of(1)
            for j in range(i + 1, n):
                P[i][j] = GaussRational(Fraction(rng.randint(-2, 2)),
                                        Fraction(rng.randint(-2, 2)))
        PBP = [[sum((P[k][i].conjugate() * B[k][m] * P[m][j]
                     for k in range(n) for m in range(n)),
                    GaussRational.of(0))
                for j in range(n)] for i in range(n)]
        assert hermitian_signature(PBP) == hermitian_signature(B)


# ---------------------------------------------------------------------------
# Exact elimination


def _sympy_of(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m])


def _fraction_of(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def test_eliminate_matches_sympy_random():
    rng = random.Random(2024)
    entries = [0, 0, 0, 1, -1, 2, Fraction(-3, 2), Fraction(5, 7)]
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[Fraction(rng.choice(entries)) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            # a dependent row makes the matrix singular
            i, j = rng.sample(range(rows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[i] = [c * x for x in m[j]]
        before = [list(r) for r in m]
        rank, det = eliminate(m)
        assert m == before, "eliminate must not touch its input"
        S = _sympy_of(m)
        assert rank == S.rank()
        if rows == cols:
            assert det == _fraction_of(S.det())
        else:
            assert det is None


def test_eliminate_edge_cases():
    assert eliminate([]) == (0, 1)
    # zero rows, all-zero matrices and a non-square matrix
    assert eliminate([[0, 0], [3, 4]]) == (1, 0)
    assert eliminate([[0, 0, 0]] * 3) == (0, 0)
    assert eliminate([[1, 2, 3], [2, 4, 6]]) == (1, None)
    assert eliminate([[1, 2], [3, 4], [5, 6]]) == (2, None)
    assert eliminate([[0] * 4]) == (0, None)
    # integer input stays exact; a row swap flips the sign
    rank, det = eliminate([[0, 1], [1, 0]])
    assert (rank, det) == (2, -1) and isinstance(det, Fraction)
    rank, det = eliminate([[2, 1], [1, 1]])
    assert det == 1 and isinstance(det, Fraction)
    assert eliminate([[Fraction(1, 3)]]) == (1, Fraction(1, 3))


def test_charpoly_adj_matches_sympy_random():
    rng = random.Random(2025)
    entries = [0, 0, 1, -1, 2, -3, Fraction(-3, 2), Fraction(5, 7)]
    x = sympy.Symbol("x")
    for _ in range(120):
        n = rng.randint(1, 6)
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        chi, adj = charpoly_adj(a)
        S = _sympy_of(a)
        assert chi == tuple(_fraction_of(c) for c in reversed(S.charpoly(x).all_coeffs()))
        # adj(xI - A) = sum_k x^k adj[k], checked at one rational point
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        want = (sympy.Rational(x0.numerator, x0.denominator) * sympy.eye(n) - S).adjugate()
        got = [[sum(x0**k * adj[k][i][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert got == [[_fraction_of(want[i, j]) for j in range(n)] for i in range(n)]
    # integer input stays integer; the empty matrix has chi = 1
    chi, adj = charpoly_adj([[2, 1], [1, 1]])
    assert chi == (1, -3, 1) and all(type(e) is int for m in adj for row in m for e in row)
    assert charpoly_adj([]) == ((Fraction(1),), [])
    assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]


# ---------------------------------------------------------------------------
# Signed-term rendering


def test_render_zero_units_and_signs():
    assert poly_str(()) == "0"
    assert str(LaurentPoly.zero()) == "0"
    assert str(RhoLedger()) == "0"
    assert poly_str(poly_normalize([-1, 0, 1])) == "t^2 - 1"
    assert poly_str(poly_normalize([1, -1])) == "-t + 1"
    assert poly_str(poly_normalize([0, -1])) == "-t"
    assert poly_str(poly_normalize([Fraction(1, 2), -3])) == "-3*t + 1/2"
    assert poly_str(poly_normalize([-1])) == "-1"
    assert poly_str(poly_normalize([1, 0, -2]), var="x") == "-2*x^2 + 1"
    assert poly_str(poly_normalize([0, 1]), var="x") == "x"


def test_render_negative_exponents():
    p = LaurentPoly({-2: -1, -1: Fraction(3, 2), 1: 1})
    assert str(p) == "t + 3/2*t^-1 - t^-2"
    assert str(LaurentPoly({-1: -1})) == "-t^-1"
    assert str(LaurentPoly({-3: Fraction(-2, 5), 0: 4})) == "4 - 2/5*t^-3"


def test_render_ledgers():
    a = rho0_atom(TREFOIL)
    assert str(RhoLedger.of_rational(Fraction(-5, 3))) == "-5/3"
    assert str(RhoLedger.of_rational(2)) == "2"
    assert str(RhoLedger.of_atom(a, -1)) == "-rho0(trefoil)"
    assert str(RhoLedger.of_atom(a, 2) - Fraction(1, 2)) == "2*rho0(trefoil) - 1/2"
    assert str(RhoLedger.of_atom(a, Fraction(-1, 3)) + 1) == "-1/3*rho0(trefoil) + 1"


def test_render_laurent_agrees_with_poly_str_random():
    rng = random.Random(77)
    for _ in range(500):
        coeffs = [rng.choice([0, 0, 1, -1, 3]) for _ in range(rng.randint(0, 7))]
        p = poly_normalize([Fraction(c, rng.choice([1, 2])) for c in coeffs])
        assert str(LaurentPoly.from_dense(p)) == poly_str(p)
