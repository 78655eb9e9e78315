"""Rational Alexander module and Blanchfield linking form.

The module of a Seifert matrix V is presented by B(t) = tV^T - V over the
Laurent ring Q[t, 1/t]; its order is the Alexander polynomial.  When the
order is square-free the module is cyclic and its finitely many submodules
form a lattice indexed by monic divisors.  The linking form

    pair(x, y) = (1 - t) * x^T B(t)^{-1} conj(y)   in  Q(t) / Q[t, 1/t]

is sesquilinear (linear in x, conjugate-linear in y) and Hermitian with
respect to t -> 1/t.  Values are kept in a canonical reduced form so that
equality of classes is literal equality.

The pairing is well defined on the cokernel of B^T = -t conj(B), while
membership (Submodule.contains, submodule_spanned_by, class_in_quotient)
is taken in the cokernel of B.  Both are computed in Levine's rational
model of the module, Q^r with t acting by a matrix, built once per matrix
content from one kernel, rings.charpoly_adj.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .factorq import factor_rational_poly
from .rings import (
    LaurentPoly,
    Poly,
    charpoly_adj,
    mat_mul,
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
        num, den = poly_normalize(num), poly_normalize(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(t)")
        # split den = t^k * den0 with den0(0) != 0; t-powers are Laurent units
        k = next(i for i, c in enumerate(den) if c)
        den = den[k:]
        if not num or poly_degree(den) == 0:
            return BlanchfieldValue.zero()
        # multiply num by (t^{-1} mod den)^k to absorb the unit
        tinv = poly_gcdex(T, den)[1]
        for _ in range(k):
            num = poly_divmod(poly_mul(num, tinv), den)[1]
        num = poly_divmod(num, den)[1]
        if not num:
            return BlanchfieldValue.zero()
        g = poly_gcd(num, den)
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
        inv = Fraction(1) / den[-1]
        return BlanchfieldValue(poly_scale(num, inv), poly_scale(den, inv))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def conjugate(self) -> "BlanchfieldValue":
        """The class of num(1/t)/den(1/t)."""
        # num(1/t) / den(1/t) = t^deg(den) num(1/t) / reversed(den)
        num = LaurentPoly.from_dense(self.num).conjugate().shift(poly_degree(self.den))
        return _laurent_over(num, tuple(reversed(self.den)))

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
        return _laurent_over(LaurentPoly.from_dense(self.num) * LaurentPoly.of(lp), self.den)

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


def _laurent_over(num: LaurentPoly, den: Poly) -> BlanchfieldValue:
    """The class of num / den for a Laurent numerator."""
    dense, shift = num.to_dense()
    zeros = (Fraction(0),) * abs(shift)
    if shift < 0:
        return BlanchfieldValue.from_fraction(dense, zeros + den)
    return BlanchfieldValue.from_fraction(zeros + dense, den)


# ---------------------------------------------------------------------------
# The Alexander module as Q^r with t acting by a matrix


def _apply(m, v) -> list:
    return [sum(a * b for a, b in zip(row, v) if b) for row in m]


def _poly_at(p: Poly, n) -> list:
    """p(N) by Horner."""
    acc = [[0] * len(n) for _ in n]
    for c in reversed(p):
        acc = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat_mul(acc, n))]
    return acc


@dataclass(frozen=True)
class _RationalModel:
    """The module of V over Q: Q^r with t acting by a matrix (Levine).

    With W = (V^T - V)^{-1} and N = W V^T, B = tV^T - V = (V^T - V)(I + (t-1)N).
    Write chi_N = x^a (x - 1)^b g with g(0) g(1) != 0.  On the generalized
    eigenspaces of 0 and 1, I + (t-1)N is a unit over Q[t, 1/t], so the
    module is the g-part, the image of P = e(N) with e = 1 mod g and
    e = 0 mod x^a (x - 1)^b.  There I + (t-1)N = N(tI - T) with
    T = (I - h(N))P, h = x^{-1} mod g, so x(t) = sum t^k x_k lies in the
    image of B exactly when sum T^k P W x_k = 0, and modulo Laurent vectors
    B^{-1} = adj(tI - T) h(N) P W / det(tI - T).
    """

    pw: list  # P W
    act: list  # T
    hpw: list  # h(N) P W
    chi: Poly  # det(xI - T)

    @staticmethod
    def of(V: SeifertMatrix) -> "_RationalModel":
        if not V.size:
            return _RationalModel([], [], [], ONE)
        v = [[x.numerator if x.denominator == 1 else x for x in row] for row in V.entries]
        vt = [list(col) for col in zip(*v)]
        chi, adj = charpoly_adj([[a - b for a, b in zip(*rows)] for rows in zip(vt, v)])
        # A^{-1} = -adj(-A) / det(-A), and det(-A) = det(V - V^T) = +-1 is its own inverse
        w = [[-x * int(chi[0]) for x in row] for row in adj[0]]
        n = mat_mul(w, vt)
        chi = charpoly_adj(n)[0]
        g = chi[next(i for i, c in enumerate(chi) if c):]
        while sum(g) == 0:  # g(1) == 0
            g = poly_divmod(g, (Fraction(-1), Fraction(1)))[0]
        # e = u * x^a (x - 1)^b, kept unreduced: modulo g it would be 1
        f = poly_divmod(chi, g)[0]
        p = _poly_at(poly_mul(poly_gcdex(f, g)[1], f), n)
        hp = mat_mul(_poly_at(poly_gcdex(T, g)[1], n), p)
        act = [[a - b for a, b in zip(*rows)] for rows in zip(p, hp)]
        return _RationalModel(mat_mul(p, w), act, mat_mul(hp, w), charpoly_adj(act)[0])

    def kills(self, xs) -> bool:
        """Whether the Laurent vector xs lies in the image of B: Horner in T
        from the top exponent down (T is invertible on the g-part)."""
        exps = {e for x in xs for e in x.coeffs}
        acc = [0] * len(self.act)
        for e in range(max(exps, default=0), min(exps, default=0) - 1, -1):
            xe = _apply(self.pw, [x.coeff(e) for x in xs])
            acc = [a + b for a, b in zip(_apply(self.act, acc), xe)]
        return not any(acc)

    def pair(self, xs, ys) -> BlanchfieldValue:
        """(1 - t) x^T B^{-1} conj(y) modulo Laurent polynomials.  The
        coefficients of adj(tI - T) u come from the Faddeev-LeVerrier
        recurrence: u at t^(r-1), then u_(k-1) = T u_k + chi_k u."""
        def terms(vs):
            return [(e, [v.coeff(e) for v in vs]) for e in sorted({e for v in vs for e in v.coeffs})]

        xt, acc = terms(xs), {}
        for e, y in terms(ys):
            u = uk = _apply(self.hpw, y)
            for k in range(len(u) - 1, -1, -1):
                for i, x in xt:
                    acc[i + k - e] = acc.get(i + k - e, 0) + sum(a * b for a, b in zip(x, uk) if a)
                uk = [a + self.chi[k] * b for a, b in zip(_apply(self.act, uk), u)]
        num = LaurentPoly(acc) * LaurentPoly({0: 1, 1: -1})
        return _laurent_over(num, self.chi)


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
    model: _RationalModel = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.seifert.size

    @property
    def is_trivial(self) -> bool:
        return poly_degree(self.order_poly) == 0

    def __str__(self):
        kind = "cyclic" if self.generator is not None else "non-cyclic-certified"
        return f"AlexanderModule({self.seifert.display_name}, order={self.order}, {kind})"


def _vector(module_rank: int, x) -> tuple:
    """Coerce a vector of ints/Fractions/LaurentPolys to LaurentPoly entries."""
    xs = tuple(LaurentPoly.of(e) for e in x)
    if len(xs) != module_rank:
        raise ValueError(f"vector length {len(xs)} != module rank {module_rank}")
    return xs


@lru_cache(maxsize=1024)
def _module_of(V: SeifertMatrix) -> AlexanderModule:
    """module_from_seifert, cached by matrix content (the 1024 most recent)."""
    delta = alexander_polynomial(V)
    dense, _ = delta.to_dense()
    order_poly = poly_monic(dense)
    square_free = poly_is_squarefree(order_poly)
    model = _RationalModel.of(V)
    if poly_degree(order_poly) == 0:
        return AlexanderModule(V, delta, order_poly, True, (), (LaurentPoly.zero(),) * V.size, model)
    if not square_free:
        return AlexanderModule(V, delta, order_poly, False, (), None, model)
    factors = tuple(q for q, _ in factor_rational_poly(order_poly))
    cofactors = [LaurentPoly.from_dense(poly_divmod(order_poly, q)[0]) for q in factors]

    def generates(x, cofs):
        """x has a nonzero component on the factor of each cofactor."""
        return all(not model.kills(tuple(cof * c for c in x)) for cof in cofs)

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
    return AlexanderModule(V, delta, order_poly, True, factors, gen, model)


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
        raise NotSquareFree(f"order {m.order} is not square-free; cyclic structure not computed")
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
    conjugate of pair(x, y); well-defined on the cokernel of B^T (in both
    slots), not on the cokernel of B that membership uses.
    """
    m = _as_module(module_or_matrix)
    return m.model.pair(_vector(m.rank, x), _vector(m.rank, y))


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
        return self.module.model.kills(tuple(d * e for e in xs))

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
            if not m.model.kills(tuple(cofactor * e for e in vs)):
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
