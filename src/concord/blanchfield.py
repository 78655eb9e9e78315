"""Rational Alexander module and Blanchfield linking form.

The module of a Seifert matrix V is presented by B(t) = tV^T - V over the
Laurent ring Q[t, 1/t]; its order is the Alexander polynomial.  When the
order is square-free the module is cyclic and its finitely many submodules
form a lattice indexed by monic divisors.  The linking form

    pair(x, y) = (1 - t) * x^T B(t)^{-1} conj(y)   in  Q(t) / Q[t, 1/t]

is sesquilinear (linear in x, conjugate-linear in y) and Hermitian with
respect to t -> 1/t.  Values are kept in a canonical reduced form so that
equality of classes is literal equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .factorq import factor_rational_poly
from .rings import (
    LaurentPoly,
    Poly,
    poly_add,
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_gcdex,
    poly_is_squarefree,
    poly_monic,
    poly_mul,
    poly_normalize,
    poly_scale,
    poly_str,
)
from .seifert import SeifertMatrix, alexander_polynomial

ONE: Poly = (Fraction(1),)
T: Poly = (Fraction(0), Fraction(1))


class NotSquareFree(ValueError):
    """Raised when an operation needs a square-free Alexander polynomial."""


class NotCyclic(ValueError):
    """Raised when no cyclic generator for the Alexander module can be found."""


# ---------------------------------------------------------------------------
# Rational functions over Q(t), used only inside linear solves


@dataclass(frozen=True)
class _RF:
    """Reduced fraction num/den in Q(t); den monic, gcd(num, den) = 1."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=ONE) -> "_RF":
        num, den = poly_normalize(num), poly_normalize(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if not num:
            return _RF((), ONE)
        g = poly_gcd(num, den)
        if poly_degree(g) > 0:
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        lc = den[-1]
        if lc != 1:
            inv = Fraction(1) / lc
            num, den = poly_scale(num, inv), poly_scale(den, inv)
        return _RF(num, den)

    @staticmethod
    def from_laurent(lp: LaurentPoly) -> "_RF":
        if lp.is_zero:
            return _RF((), ONE)
        dense, shift = lp.to_dense()
        if shift >= 0:
            return _RF.make(poly_mul(dense, _t_power(shift)), ONE)
        return _RF.make(dense, _t_power(-shift))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, o: "_RF") -> "_RF":
        return _RF.make(
            poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
            poly_mul(self.den, o.den),
        )

    def __neg__(self) -> "_RF":
        return _RF(poly_scale(self.num, -1), self.den)

    def __sub__(self, o: "_RF") -> "_RF":
        return self + (-o)

    def __mul__(self, o: "_RF") -> "_RF":
        return _RF.make(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    def inverse(self) -> "_RF":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(t)")
        return _RF.make(self.den, self.num)

    def __truediv__(self, o: "_RF") -> "_RF":
        return self * o.inverse()

    def is_laurent_unit_denominator(self) -> bool:
        """True when den is a power of t, i.e. the value lies in Q[t, 1/t]."""
        return all(c == 0 for c in self.den[:-1])


def _t_power(k: int) -> Poly:
    return tuple([Fraction(0)] * k + [Fraction(1)])


def _solve_rf(matrix, rhs):
    """Solve matrix * z = rhs over Q(t) by Gaussian elimination; None if singular."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for c in range(n):
        p = next((r for r in range(c, n) if not m[r][c].is_zero), None)
        if p is None:
            return None
        if p != c:
            m[c], m[p] = m[p], m[c]
        inv = m[c][c].inverse()
        m[c] = [e * inv for e in m[c]]
        for r in range(n):
            if r != c and not m[r][c].is_zero:
                f = m[r][c]
                m[r] = [er - f * ec for er, ec in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# Canonical values in Q(t) / Q[t, 1/t]


@dataclass(frozen=True)
class BlanchfieldValue:
    """Class in Q(t)/Q[t,1/t], reduced as num/den with den monic, den(0) != 0,
    deg num < deg den and gcd(num, den) = 1.  The zero class is ((), (1,))."""

    num: Poly
    den: Poly

    @staticmethod
    def zero() -> "BlanchfieldValue":
        return BlanchfieldValue((), ONE)

    @staticmethod
    def from_fraction(num, den) -> "BlanchfieldValue":
        """Reduce an arbitrary fraction in Q(t) to the canonical class form."""
        rf = _RF.make(num, den)
        if rf.is_zero:
            return BlanchfieldValue.zero()
        num, den = rf.num, rf.den
        # split den = t^k * den0 with den0(0) != 0; t-powers are Laurent units
        k = 0
        while den and den[0] == 0:
            den = den[1:]
            k += 1
        den = poly_normalize(den)
        if poly_degree(den) == 0:
            return BlanchfieldValue.zero()
        if k:
            # multiply num by (t^{-1} mod den)^k to absorb the unit
            g, u, _ = poly_gcdex(T, den)
            assert g == ONE, "t divides a denominator with nonzero constant term"
            tinv = poly_divmod(u, den)[1]
            for _ in range(k):
                num = poly_divmod(poly_mul(num, tinv), den)[1]
        num = poly_divmod(num, den)[1]
        if not num:
            return BlanchfieldValue.zero()
        g = poly_gcd(num, den)
        if poly_degree(g) > 0:
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        lc = den[-1]
        if lc != 1:
            inv = Fraction(1) / lc
            num, den = poly_scale(num, inv), poly_scale(den, inv)
        return BlanchfieldValue(num, den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def conjugate(self) -> "BlanchfieldValue":
        """The class of num(1/t)/den(1/t)."""
        if self.is_zero:
            return self
        dn, dd = poly_degree(self.num), poly_degree(self.den)
        rev_num = poly_normalize(tuple(reversed(self.num)))
        rev_den = poly_normalize(tuple(reversed(self.den)))
        return BlanchfieldValue.from_fraction(
            poly_mul(rev_num, _t_power(dd - dn)), rev_den
        )

    def __add__(self, other: "BlanchfieldValue") -> "BlanchfieldValue":
        return BlanchfieldValue.from_fraction(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __neg__(self) -> "BlanchfieldValue":
        return BlanchfieldValue(poly_scale(self.num, -1), self.den)

    def __sub__(self, other: "BlanchfieldValue") -> "BlanchfieldValue":
        return self + (-other)

    def scaled(self, lp) -> "BlanchfieldValue":
        """Multiply the class by a Laurent polynomial (or rational scalar)."""
        lp = LaurentPoly.of(lp)
        if lp.is_zero or self.is_zero:
            return BlanchfieldValue.zero()
        rf = _RF.make(self.num, self.den) * _RF.from_laurent(lp)
        return BlanchfieldValue.from_fraction(rf.num, rf.den)

    def __str__(self):
        if self.is_zero:
            return "0"
        num_s = poly_str(self.num)
        den_s = poly_str(self.den)
        if " " in num_s or "*" in num_s:
            num_s = f"({num_s})"
        if " " in den_s:
            den_s = f"({den_s})"
        return f"{num_s} / {den_s}"


# ---------------------------------------------------------------------------
# The Alexander module


@dataclass(frozen=True)
class AlexanderModule:
    """Q[t,1/t]-module presented by tV^T - V, with cyclic structure data
    available when the order (Alexander polynomial) is square-free."""

    seifert: SeifertMatrix
    order: LaurentPoly
    order_poly: Poly  # monic dense form of the order
    square_free: bool
    factors: tuple  # tuple[Poly, ...]: distinct monic irreducible divisors
    generator: Optional[tuple]  # tuple[LaurentPoly, ...] cyclic generator

    @property
    def rank(self) -> int:
        return self.seifert.size

    @property
    def is_trivial(self) -> bool:
        return poly_degree(self.order_poly) == 0

    def presentation(self):
        """The matrix B(t) = tV^T - V as LaurentPoly entries."""
        V = self.seifert.entries
        n = self.seifert.size
        t = LaurentPoly.t()
        return tuple(
            tuple(t * V[j][i] - LaurentPoly.const(V[i][j]) for j in range(n))
            for i in range(n)
        )

    def __str__(self):
        kind = "cyclic" if self.generator is not None else "non-cyclic-certified"
        return f"AlexanderModule({self.seifert.display_name}, order={self.order}, {kind})"


def _presentation_rf(V: SeifertMatrix):
    n = V.size
    return [
        [
            _RF.make(
                poly_normalize((-V.entries[i][j], V.entries[j][i]))
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def _vector(module_rank: int, x) -> tuple:
    """Coerce a vector of ints/Fractions/LaurentPolys to LaurentPoly entries."""
    xs = tuple(LaurentPoly.of(e) for e in x)
    if len(xs) != module_rank:
        raise ValueError(f"vector length {len(xs)} != module rank {module_rank}")
    return xs


def _in_image(V: SeifertMatrix, x: Sequence[LaurentPoly]) -> bool:
    """Whether x lies in the image of B(t) = tV^T - V over Q[t, 1/t]."""
    if V.size == 0:
        return all(e.is_zero for e in x)
    B = _presentation_rf(V)
    z = _solve_rf(B, [_RF.from_laurent(e) for e in x])
    assert z is not None, "presentation matrix is nonsingular over Q(t)"
    return all(e.is_laurent_unit_denominator() for e in z)


@lru_cache(maxsize=None)
def _module_of(V: SeifertMatrix) -> AlexanderModule:
    """module_from_seifert, cached by matrix content."""
    delta = alexander_polynomial(V)
    dense, _ = delta.to_dense()
    order_poly = poly_monic(dense)
    square_free = poly_is_squarefree(order_poly)
    if poly_degree(order_poly) == 0:
        return AlexanderModule(V, delta, order_poly, True, (), (LaurentPoly.zero(),) * V.size)
    if not square_free:
        return AlexanderModule(V, delta, order_poly, False, (), None)
    factors = tuple(q for q, _ in factor_rational_poly(order_poly))
    cofactors = [LaurentPoly.from_dense(poly_divmod(order_poly, q)[0]) for q in factors]

    def generates(x, cofs):
        """x has a nonzero component on the factor of each cofactor."""
        return all(not _in_image(V, tuple(cof * c for c in x)) for cof in cofs)

    basis = [tuple(LaurentPoly.const(int(j == i)) for j in range(V.size)) for i in range(V.size)]
    picks = [next((e for e in basis if generates(e, [cof])), None) for cof in cofactors]
    if None in picks:
        q = factors[picks.index(None)]
        raise NotCyclic(f"no basis vector generates the {poly_str(q)}-component")
    # Weight the picks by (1, lam, lam^2, ...); lam = 1 is their plain sum.
    # Constant weights keep the generator constant, which matters because
    # the pairing reads Laurent entries conjugated.  A factor's component of
    # the sum is a nonzero linear form in the weights, zero for at most
    # len(picks) - 1 values of lam: one of the first len(picks)^2 generates.
    weighted = (
        tuple(sum((p[i] * lam**j for j, p in enumerate(picks)), LaurentPoly.zero())
              for i in range(V.size))
        for lam in range(1, len(picks) ** 2 + 1)
    )
    gen = next(g for g in weighted if generates(g, cofactors))
    return AlexanderModule(V, delta, order_poly, True, factors, gen)


def module_from_seifert(V: SeifertMatrix) -> AlexanderModule:
    """Build the rational Alexander module, with cyclic data when square-free.

    For square-free order the module is a cyclic torsion module Q[t,1/t]/(Delta)
    and a constant generator is assembled from one basis vector per
    irreducible factor (Chinese remainder style).  Built once per matrix
    content; the returned module carries the caller's matrix and name.
    """
    m = _module_of(V)
    return m if m.seifert is V else replace(m, seifert=V)


module_from_seifert.cache_info = _module_of.cache_info


def cyclic_generator(module_or_matrix) -> tuple:
    """A single module element generating the whole Alexander module."""
    m = _as_module(module_or_matrix)
    if m.generator is None:
        raise NotSquareFree(
            f"order {m.order} is not square-free; cyclic structure not computed"
        )
    return m.generator


def _as_module(m) -> AlexanderModule:
    if isinstance(m, AlexanderModule):
        return m
    if isinstance(m, SeifertMatrix):
        return module_from_seifert(m)
    raise TypeError("expected an AlexanderModule or SeifertMatrix")


# ---------------------------------------------------------------------------
# The Blanchfield pairing


def blanchfield_pair(module_or_matrix, x, y) -> BlanchfieldValue:
    """(1 - t) x^T B(t)^{-1} conj(y) in Q(t)/Q[t,1/t], B = tV^T - V.

    Linear in x, conjugate-linear in y, Hermitian: pair(y, x) equals the
    conjugate of pair(x, y); well-defined on the cokernel of B.
    """
    m = _as_module(module_or_matrix)
    V = m.seifert
    xs = _vector(V.size, x)
    ys = _vector(V.size, y)
    if V.size == 0:
        return BlanchfieldValue.zero()
    B = _presentation_rf(V)
    z = _solve_rf(B, [_RF.from_laurent(e.conjugate()) for e in ys])
    assert z is not None, "presentation matrix is nonsingular over Q(t)"
    acc = _RF((), ONE)
    for xe, ze in zip(xs, z):
        acc = acc + _RF.from_laurent(xe) * ze
    one_minus_t = _RF.make(poly_normalize((Fraction(1), Fraction(-1))))
    acc = one_minus_t * acc
    return BlanchfieldValue.from_fraction(acc.num, acc.den)


# ---------------------------------------------------------------------------
# Submodule lattice (square-free, cyclic case)


@dataclass(frozen=True)
class Submodule:
    """Submodule of a cyclic Alexander module, indexed by a monic divisor d of
    the order: the set of elements annihilated by d, generated by
    (order/d) * generator."""

    module: AlexanderModule = field(repr=False)
    divisor: Poly
    generator: tuple  # tuple[LaurentPoly, ...]

    @property
    def is_zero_submodule(self) -> bool:
        return poly_degree(self.divisor) == 0

    @property
    def is_whole_module(self) -> bool:
        return self.divisor == self.module.order_poly

    def contains(self, x) -> bool:
        xs = _vector(self.module.rank, x)
        d = LaurentPoly.from_dense(self.divisor)
        return _in_image(self.module.seifert, tuple(d * e for e in xs))

    def __str__(self):
        return f"S[{poly_str(self.divisor)}]"


def _submodule_for_divisor(m: AlexanderModule, d: Poly) -> Submodule:
    gen = cyclic_generator(m)
    if poly_degree(d) == 0:
        return Submodule(m, ONE, tuple(LaurentPoly.zero() for _ in gen))
    cofactor = LaurentPoly.from_dense(poly_divmod(m.order_poly, d)[0])
    return Submodule(m, d, tuple(cofactor * e for e in gen))


def submodule_lattice(module_or_matrix) -> tuple:
    """All submodules of the cyclic module, one per monic divisor of the order,
    sorted by (degree, coefficients) of the divisor.  Requires square-free order."""
    m = _as_module(module_or_matrix)
    if not m.square_free:
        raise NotSquareFree(f"order {m.order} is not square-free")
    divisors = [ONE]
    for q in m.factors:
        divisors += [poly_monic(poly_mul(d, q)) for d in divisors]
    divisors.sort(key=lambda d: (len(d), d))
    return tuple(_submodule_for_divisor(m, d) for d in divisors)


def submodule_spanned_by(module_or_matrix, vectors) -> Submodule:
    """Smallest lattice submodule containing the given vectors."""
    m = _as_module(module_or_matrix)
    if not m.square_free:
        raise NotSquareFree(f"order {m.order} is not square-free")
    d = ONE
    for q in m.factors:
        cofactor = LaurentPoly.from_dense(poly_divmod(m.order_poly, q)[0])
        for v in vectors:
            vs = _vector(m.rank, v)
            if not _in_image(m.seifert, tuple(cofactor * e for e in vs)):
                d = poly_monic(poly_mul(d, q))
                break
    return _submodule_for_divisor(m, d)


def orthogonal(module_or_matrix, P: Submodule) -> Submodule:
    """P^perp: the largest submodule pairing to zero with P under the form."""
    m = _as_module(module_or_matrix)
    if not m.square_free:
        raise NotSquareFree(f"order {m.order} is not square-free")
    d = ONE
    for q in m.factors:
        s_q = _submodule_for_divisor(m, q)
        if blanchfield_pair(m, s_q.generator, P.generator).is_zero:
            d = poly_monic(poly_mul(d, q))
    return _submodule_for_divisor(m, d)


def is_isotropic(module_or_matrix, P: Submodule) -> bool:
    """Whether P pairs to zero with itself (P contained in P^perp)."""
    m = _as_module(module_or_matrix)
    return blanchfield_pair(m, P.generator, P.generator).is_zero


def is_metabolizer(module_or_matrix, P: Submodule) -> bool:
    """Whether P = P^perp: self-annihilating of exactly half the available size."""
    m = _as_module(module_or_matrix)
    return orthogonal(m, P).divisor == P.divisor


def class_in_quotient(module_or_matrix, x, P: Submodule) -> int:
    """0 if x lies in P, 1 otherwise: the image of x in the quotient module,
    recorded only through vanishing (which is all the infection calculus uses)."""
    m = _as_module(module_or_matrix)
    return 0 if P.contains(_vector(m.rank, x)) else 1
