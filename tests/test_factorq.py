"""The stdlib factorizer against sympy's factor_list, and the Fox-Milnor
test it serves against a sympy-backed reference.

The inputs stress each stage of the Zassenhaus pipeline: repeated factors
(Yun), non-monic and rational input (denominators, leading coefficient),
cyclotomics and Swinnerton-Dyer polynomials (irreducible over Q yet split
into many factors modulo every prime, so only recombination finds the true
factors), and products with large coefficients (the Hensel lift has to
reach its bound).
"""

import random
from fractions import Fraction
from functools import cache

import pytest
import sympy

from concord import factorq
from concord.factorq import factor_rational_poly
from concord.rings import poly_mul, poly_normalize
from concord.seifert import SeifertMatrix, alexander_polynomial, connected_sum, fox_milnor_test, mirror

from oracles import factor_list_q, fox_milnor_sympy
from test_seifert import random_seifert

T = sympy.Symbol("t")

#: irreducible over Q, split into linear or quadratic factors mod every prime
SWINNERTON_DYER = [
    (1, 0, -10, 0, 1),  # sqrt(2) + sqrt(3)
    (9, 0, -14, 0, 1),  # sqrt(2) + sqrt(5)
    (4, 0, -16, 0, 1),  # sqrt(3) + sqrt(5)
    (1, 0, 0, 0, 1),  # x^4 + 1
    (576, 0, -960, 0, 352, 0, -40, 0, 1),  # sqrt(2) + sqrt(3) + sqrt(5)
]


def _cyclotomic(n):
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, T), T).all_coeffs()))


def _random_poly(rng):
    deg, e = rng.randint(1, 6), 10 ** rng.randint(0, 3)
    return [rng.randint(-e, e) for _ in range(deg)] + [rng.choice((-1, 1)) * rng.randint(1, e)]


def _case(rng, pieces):
    """(p, pieces): p is a random rational unit times prod q^m over the
    (q, m) in pieces."""
    p, den = [rng.choice((-1, 1)) * rng.randint(1, 6)], rng.randint(1, 6)
    for q, m in pieces:
        for _ in range(m):
            p = [sum(p[j] * q[i - j] for j in range(max(0, i - len(q) + 1), min(i, len(p) - 1) + 1))
                 for i in range(len(p) + len(q) - 1)]
    return [Fraction(c) / den for c in p], pieces


def _product(rng, pool, factors=4, mult=(1, 1, 2, 3)):
    return _case(rng, [(rng.choice(pool) if pool else _random_poly(rng), rng.choice(mult))
                       for _ in range(rng.randint(1, factors))])


@cache
def _cases():
    rng = random.Random(2207)
    cases = [_product(rng, None) for _ in range(500)]
    cyclo = [_cyclotomic(n) for n in range(1, 41)]
    cases += [_case(rng, [(c, 1)]) for c in cyclo]
    cases += [_product(rng, cyclo, 3, (1,)) for _ in range(60)]
    for _ in range(150):  # reciprocal pairs f * f^*, some times a cyclotomic
        f = _random_poly(rng)
        extra = [(rng.choice(cyclo), 1)] if rng.random() < 0.3 else []
        cases.append(_case(rng, [(f, 1), (f[::-1], 1)] + extra))
    cases += [_case(rng, [(s, 1)]) for s in SWINNERTON_DYER]
    cases += [_product(rng, SWINNERTON_DYER, 3) for _ in range(60)]
    for _ in range(60):  # a Swinnerton-Dyer polynomial shifted, times a random one
        s = sympy.Poly(list(reversed(rng.choice(SWINNERTON_DYER))), T).compose(
            sympy.Poly(T + rng.randint(-3, 3), T))
        s = [int(c) for c in reversed(s.all_coeffs())]
        cases.append(_case(rng, [(s, 1), (_random_poly(rng), 1)]))
    for _ in range(40):  # low degree, huge coefficients: the lift must reach its bound
        e = 10 ** rng.randint(6, 12)
        cases.append(_case(rng, [([rng.randint(-e, e) for _ in range(rng.randint(1, 3))] + [1], 1),
                                 ([rng.randint(-9, 9) for _ in range(rng.randint(1, 2))] + [1], 1)]))
    for genus, count in ((1, 20), (2, 15), (3, 10), (4, 6), (5, 4), (6, 3)):
        for _ in range(count):
            d, _ = alexander_polynomial(random_seifert(rng, genus)).to_dense()
            cases.append(_case(rng, [(d, 1)]))
    return cases


def test_factors_match_sympy():
    """Factorization over Q is unique, so the factors of a product are those
    of its pieces, with multiplicities added: sympy factors each piece."""
    cases = _cases()
    assert len(cases) >= 950
    oracle = {}
    for p, pieces in cases:
        expected = {}
        for q, m in pieces:
            q = tuple(q)
            if q not in oracle:
                oracle[q] = factor_list_q(q)
            for f, k in oracle[q]:
                expected[f] = expected.get(f, 0) + k * m
        assert factor_rational_poly(p) == tuple(sorted(
            expected.items(), key=lambda fm: (len(fm[0]), fm[0]))), p


def test_lift_reaches_the_bound(monkeypatch):
    """Recombination is exact only when the lifted modulus M exceeds twice
    the leading coefficient times the Mignotte bound 2^n ||f||_2.  That bound
    is far from tight, so a lift one step short still factors nearly every
    input correctly: the modulus is checked against it directly."""
    squarefree, lift, moduli = factorq._factor_squarefree, factorq._lift, []

    def checked_squarefree(f):
        moduli.append((f, set()))
        return squarefree(f)

    def checked_lift(F, facs, p, M):
        moduli[-1][1].add(M)
        return lift(F, facs, p, M)

    monkeypatch.setattr(factorq, "_factor_squarefree", checked_squarefree)
    monkeypatch.setattr(factorq, "_lift", checked_lift)
    for p, _ in _cases()[-200:]:
        factor_rational_poly(p)
    lifted = [(f, Ms.pop()) for f, Ms in moduli if Ms]
    assert len(lifted) >= 100 and all(not Ms for _, Ms in moduli)
    for f, M in lifted:
        assert M * M > 4 * f[-1] ** 2 * 4 ** (len(f) - 1) * sum(c * c for c in f), f


def test_edge_cases():
    third = Fraction(1, 3)
    assert factor_rational_poly([Fraction(-2, 3), Fraction(4, 9)]) == (((Fraction(-3, 2), Fraction(1)), 1),)
    assert factor_rational_poly([5]) == ()
    assert factor_rational_poly([third]) == ()
    with pytest.raises(ValueError):
        factor_rational_poly([])
    with pytest.raises(ValueError):
        factor_rational_poly([0, 0])
    # (x/3 - 1)^2 (2x^2 + 1/2): non-monic, rational, repeated
    p = poly_mul(poly_mul((-1, third), (-1, third)), (Fraction(1, 2), 0, 2))
    assert factor_rational_poly(p) == (
        ((Fraction(-3), Fraction(1)), 2), ((Fraction(1, 4), Fraction(0), Fraction(1)), 1))


def _fox_milnor_matrices():
    rng = random.Random(46)
    out = []
    for _ in range(70):
        out.append(random_seifert(rng, rng.choice((1, 1, 2, 2, 3)), -2, 2))
    for _ in range(50):  # K # -K is slice: Fox-Milnor holds
        V = random_seifert(rng, rng.choice((1, 1, 1, 2)), -2, 2)
        out.append(connected_sum(V, mirror(V)))
    for _ in range(40):  # the 9_46 family: Delta = (a t - a - 1)((a + 1) t - a) / t
        a = rng.randint(1, 6)
        out.append(connected_sum(SeifertMatrix(((0, a + 1), (a, 0))), random_seifert(rng, 1, -2, 2))
                   if rng.random() < 0.5 else SeifertMatrix(((0, a + 1), (a, 0))))
    for _ in range(40):
        out.append(connected_sum(random_seifert(rng, 1, -2, 2), random_seifert(rng, 1, -2, 2)))
    return out


def test_fox_milnor_matches_sympy():
    matrices = _fox_milnor_matrices()
    assert len(matrices) >= 200
    verdicts = [fox_milnor_test(V) for V in matrices]
    assert verdicts == [fox_milnor_sympy(V.entries) for V in matrices]
    assert 50 <= sum(verdicts) <= len(verdicts) - 50  # both answers are exercised
