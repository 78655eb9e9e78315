"""Independent oracles used to cross-check the exact-arithmetic code.

Every function here deliberately avoids the `concord` package: floating point
plus numpy for the analytic quantities, sympy for the one symbolic inversion,
Fraction-only enclosures of arctan and arccos as the reference for the
fixed-point interval kernel, and tree walks as the reference for expression
fingerprints and displays.  Expected values frozen into the test modules
were produced by these routines.
"""

from __future__ import annotations

import math
from fractions import Fraction
from hashlib import sha256

import numpy as np
import sympy
from sympy.polys.matrices import DomainMatrix


def lt_signature_float(V, theta):
    """Signature of (1-w)V + (1-conj(w))V^T at w = exp(i*theta), by eigendecomposition."""
    A = np.array([[float(a) for a in row] for row in V], dtype=complex)
    if A.size == 0:
        return 0
    w = np.exp(1j * theta)
    B = (1 - w) * A + (1 - np.conj(w)) * A.T
    eigs = np.linalg.eigvalsh(B)
    return int(np.sum(eigs > 1e-9) - np.sum(eigs < -1e-9))


def rho0_sampling(V, n=100_000):
    """Dense midpoint average of the signature function over the unit circle.

    Uses conjugation symmetry: averages over theta in (0, pi) only.
    """
    A = np.array([[float(a) for a in row] for row in V], dtype=complex)
    if A.size == 0:
        return 0.0
    thetas = (np.arange(n) + 0.5) * (np.pi / n)
    w = np.exp(1j * thetas)
    # stack of Hermitian matrices, one per sample point
    B = (1 - w)[:, None, None] * A[None, :, :] + (1 - np.conj(w))[:, None, None] * A.T[None, :, :]
    eigs = np.linalg.eigvalsh(B)
    sigs = np.sum(eigs > 1e-9, axis=1) - np.sum(eigs < -1e-9, axis=1)
    return float(np.mean(sigs))


def signature_float(B):
    """(n_plus, n_minus, n_zero) of a Hermitian matrix via numpy, 1e-9 cutoff.

    Entries may be python complex, Fraction pairs, or anything float()-able via
    complex(); rows of (re, im) tuples are also accepted.
    """
    n = len(B)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = B[i][j]
            if isinstance(e, tuple):
                M[i, j] = float(e[0]) + 1j * float(e[1])
            else:
                M[i, j] = complex(e)
    if n == 0:
        return (0, 0, 0)
    eigs = np.linalg.eigvalsh(M)
    plus = int(np.sum(eigs > 1e-9))
    minus = int(np.sum(eigs < -1e-9))
    return (plus, minus, n - plus - minus)


def count_roots_on_grid(coeffs, a, b, steps=20_000):
    """Count sign changes of a polynomial on a rational grid over (a, b).

    `coeffs` ascending, Fractions. Exact arithmetic; counts strict sign flips
    between consecutive grid nodes plus exact zeros at interior nodes. For a
    square-free polynomial with no roots closer together than (b-a)/steps this
    equals the number of roots in the open interval.
    """
    a, b = Fraction(a), Fraction(b)
    step = (b - a) / steps
    count = 0
    prev_sign = None
    for k in range(steps + 1):
        x = a + k * step
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * x + Fraction(c)
        s = (v > 0) - (v < 0)
        if s == 0:
            if 0 < k < steps:
                count += 1
            prev_sign = None
            continue
        if prev_sign is not None and s != prev_sign:
            count += 1
        prev_sign = s
    return count


def blanchfield_reduced(V, x, y):
    """Canonical representative of (1-t) * x^T (tV^T - V)^{-1} ybar in Q(t)/Q[t,t^-1].

    x, y: vectors of sympy expressions in t (or ints). Returns (num, den) as
    tuples of ascending Fraction coefficients with den monic, den(0) != 0,
    deg num < deg den, gcd(num, den) = 1; ((), (1,)) encodes the zero class.
    """
    t = sympy.Symbol("t")
    n = len(V)
    M = sympy.Matrix(n, n, lambda i, j: t * sympy.Rational(V[j][i]) - sympy.Rational(V[i][j]))
    xv = sympy.Matrix([sympy.sympify(e) for e in x])
    ybar = sympy.Matrix([sympy.sympify(e).subs(t, 1 / t) for e in y])
    val = sympy.cancel(((1 - t) * (xv.T * M.inv() * ybar))[0, 0])
    num, den = [sympy.Poly(sympy.expand(p), t, domain="QQ") for p in sympy.fraction(val)]
    # split den = t^k * den0 with den0(0) != 0; t^k is a unit of the Laurent ring,
    # so the class of num/den equals the class of num * (t^{-1} mod den0)^k / den0
    dc = den.all_coeffs()[::-1]
    k = 0
    while dc[k] == 0:
        k += 1
    den0 = sympy.Poly(dc[k:][::-1], t, domain="QQ")
    if den0.degree() == 0:
        return ((), (Fraction(1),))
    if k:
        s, _, h = sympy.gcdex(t, den0.as_expr(), t)
        tinv = sympy.Poly(sympy.expand(s / h), t, domain="QQ")
        num = (num * tinv**k) % den0
    r = num % den0
    g = sympy.gcd(r, den0)
    r = sympy.div(r, g, t)[0]
    den0 = sympy.div(den0, g, t)[0]
    if r.is_zero:
        return ((), (Fraction(1),))
    lc = den0.all_coeffs()[0]
    to_frac = lambda p: tuple(
        Fraction(sympy.Rational(c).p, sympy.Rational(c).q) for c in p.all_coeffs()[::-1]
    )
    return (
        to_frac(sympy.Poly([c / lc for c in r.all_coeffs()], t)),
        to_frac(sympy.Poly([c / lc for c in den0.all_coeffs()], t)),
    )


# ---------------------------------------------------------------------------
# Reference arctan / arccos enclosures in exact Fraction arithmetic: Taylor
# series with a tail bound after argument halving.  Intervals are (lo, hi)
# pairs of Fractions.  Slow (the powers of the argument grow without
# rounding), so keep `bits` modest.


def _floor_to(q, bits):
    return Fraction(math.floor(q * (1 << bits)), 1 << bits)


def _ceil_to(q, bits):
    return Fraction(math.ceil(q * (1 << bits)), 1 << bits)


def _sqrt_enclosure(q, bits):
    """(lo, hi) around sqrt(q), 2^-bits wide, for rational q > 0."""
    num, den = q.numerator, q.denominator
    big = num * den << (2 * bits)
    r = math.isqrt(big)
    scale = den << bits
    return Fraction(r, scale), (Fraction(r + 1, scale) if r * r != big else Fraction(r, scale))


def _atan_series_fraction(lo, hi, bits):
    """Alternating Taylor series for arctan on [0, 3/4] with a tail bound."""
    tail_num = hi ** 3
    # need hi^(2K+3)/(2K+3) <= 2^-(bits+2)
    bound = Fraction(1, 1 << (bits + 2))
    k = 0
    while tail_num / (2 * k + 3) > bound:
        k += 1
        tail_num *= hi * hi
    terms = k + 1

    def partial(x):
        acc, p, s = Fraction(0), x, 1
        for j in range(terms):
            acc += s * p / (2 * j + 1)
            p *= x * x
            s = -s
        return acc

    tail = tail_num / (2 * terms + 1)
    return partial(lo) - tail, partial(hi) + tail


def atan_enclosure_fraction(lo, hi, bits):
    """Enclosure (lo, hi) of arctan over the rational interval [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < 0:
        a, b = atan_enclosure_fraction(-hi, -lo, bits)
        return -b, -a
    if lo < 0:
        return -atan_enclosure_fraction(0, -lo, bits)[1], atan_enclosure_fraction(0, hi, bits)[1]
    work = bits + 8
    halvings = 0
    while hi > Fraction(1, 2):
        # arctan(y) = 2 arctan(y / (1 + sqrt(1 + y^2)))
        s_lo = _sqrt_enclosure(1 + lo * lo, work)
        s_hi = _sqrt_enclosure(1 + hi * hi, work)
        lo = _floor_to(lo / (1 + s_lo[1]), work)
        hi = _ceil_to(hi / (1 + s_hi[0]), work)
        halvings += 1
    a, b = _atan_series_fraction(lo, hi, bits + halvings)
    return _floor_to(a * (1 << halvings), bits + 4), _ceil_to(b * (1 << halvings), bits + 4)


def acos_enclosure_fraction(x, bits):
    """Enclosure (lo, hi) of arccos(x) for rational x in (-1, 1]."""
    x = Fraction(x)
    if x == 1:
        return Fraction(0), Fraction(0)
    y = _sqrt_enclosure((1 - x) / (1 + x), bits + 8)
    a, b = atan_enclosure_fraction(y[0], y[1], bits + 2)
    return _floor_to(2 * a, bits), _ceil_to(2 * b, bits)


# ---------------------------------------------------------------------------
# Expression fingerprints and displays by plain recursion


def _sha12(text):
    return sha256(text.encode()).hexdigest()[:12]


def template_fingerprint_tree(tpl):
    """Content hash of a template, from its fields, recomputed on each call."""
    sites = tuple(
        (s.name, tuple(str(c) for c in s.knot_class), s.seifert_disjoint) for s in tpl.sites
    )
    body = (tpl.name, _sha12(repr(tpl.base.entries)), sites, tpl.slice_flag,
            tpl.ribbon_metabolizers, tpl.rho1_known)
    return _sha12(repr(body))


def fingerprint_tree(e):
    """Fingerprint of an expression (atom, sum or infection, told apart by
    their fields).  Walks the DAG as a tree: a two-site tower of depth n
    costs 2^n template hashes."""
    if hasattr(e, "matrix"):
        return "atom:" + _sha12(repr(e.matrix.entries))
    if hasattr(e, "left"):
        return _sha12(f"sum({fingerprint_tree(e.left)},{fingerprint_tree(e.right)})")
    body = ",".join(f"{n}={fingerprint_tree(x)}" for n, x in e.inputs)
    return _sha12(f"infect({template_fingerprint_tree(e.template)};{body})")


def display_tree(e):
    """Display of an expression: an infection longer than 80 characters
    becomes NAME(...)#<first 8 hex digits of its fingerprint>, a sum
    sum(...)#<the same>."""
    if hasattr(e, "matrix"):
        return e.matrix.name or f"K[{_sha12(repr(e.matrix.entries))}]"
    if hasattr(e, "left"):
        s = f"({display_tree(e.left)} + {display_tree(e.right)})"
        return s if len(s) <= 80 else f"sum(...)#{fingerprint_tree(e)[:8]}"
    name = e.template.name
    s = f"{name}({', '.join(f'{n}={display_tree(x)}' for n, x in e.inputs)})"
    return s if len(s) <= 80 else f"{name}(...)#{fingerprint_tree(e)[:8]}"


def in_presentation_image(V, x):
    """Whether x lies in the image of tV^T - V over Q[t, t^-1]: every entry of
    (tV^T - V)^{-1} x has a power of t as its denominator.

    x: vector of sympy expressions in t (or ints).  Solved over Q(t)."""
    t = sympy.Symbol("t")
    n = len(V)
    M = sympy.Matrix(n, n, lambda i, j: t * sympy.Rational(V[j][i]) - sympy.Rational(V[i][j]))
    A, b = DomainMatrix.from_Matrix(M).unify(DomainMatrix.from_Matrix(sympy.Matrix(x)))
    z = A.to_field().lu_solve(b.to_field()).to_Matrix()
    return all(len(sympy.Poly(sympy.fraction(e)[1], t).terms()) == 1 for e in z)
