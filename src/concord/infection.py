"""Infection calculus: templates with marked axes in the Alexander module,
formal knot expressions (atoms, connected sums, infections), symbolic
signature ledgers, first-order signature sets, and solvability bookkeeping.

An infection R(eta_1 <- J_1, ..., eta_k <- J_k) ties the knot J_i into the
template knot R along the curve eta_i.  When every curve is disjoint from a
Seifert surface of R, the infected knot shares R's Seifert matrix, so all
zero-order invariants are computable; the higher-order content lives in the
symbolic ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from typing import Mapping, NamedTuple, Optional

from .blanchfield import (
    NotSquareFree,
    Submodule,
    class_in_quotient,
    is_isotropic,
    is_metabolizer,
    module_from_seifert,
    submodule_lattice,
)
from .intervals import RatInterval
from .rings import LaurentPoly, Poly, _signed_terms, poly_monic, poly_normalize, poly_str, rat
from .seifert import (
    DEFAULT_TOL,
    FIGURE_EIGHT,
    K9_46,
    SeifertMatrix,
    arf,
    connected_sum,
    rho0,
)


class UnsupportedGenus(ValueError):
    """Raised when a first-order signature formula needs a genus-1 template."""


class MissingSite(ValueError):
    """An infection omitted a site the template declares."""


class UnknownSite(ValueError):
    """An infection named a site the template does not declare."""


class SiteNotSeifertDisjoint(ValueError):
    """A Seifert-matrix computation was requested through a site that is not
    known to miss the template's Seifert surface."""


def _short_hash(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Templates


@dataclass(frozen=True)
class Site:
    """Named infection axis: a class in the Alexander module of the template,
    flagged when the representative curve misses the Seifert surface."""

    name: str
    knot_class: tuple  # tuple[LaurentPoly, ...]
    seifert_disjoint: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "knot_class", tuple(LaurentPoly.of(e) for e in self.knot_class)
        )


@dataclass(frozen=True)
class Template:
    """Infection template: a base knot with marked axes and curated facts.

    ribbon_metabolizers lists divisors of submodules known to arise from
    ribbon disks (their first-order signatures vanish); rho1_known pins the
    zero-submodule first-order signature when it has been computed elsewhere.
    Both are curated inputs, verified for shape but not derivable here.
    """

    name: str
    base: SeifertMatrix
    sites: tuple  # tuple[Site, ...]
    slice_flag: bool = False
    ribbon_metabolizers: tuple = ()  # tuple[Poly, ...] monic divisors
    rho1_known: Optional[Fraction] = None

    def __post_init__(self):
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names in template {self.name}")
        for s in sites:
            if len(s.knot_class) != self.base.size:
                raise ValueError(
                    f"site {s.name}: class has length {len(s.knot_class)}, "
                    f"base has rank {self.base.size}"
                )
        mets = tuple(poly_monic(poly_normalize(d)) for d in self.ribbon_metabolizers)
        object.__setattr__(self, "ribbon_metabolizers", mets)
        if self.rho1_known is not None:
            object.__setattr__(self, "rho1_known", rat(self.rho1_known))
        if mets:
            lattice = {S.divisor: S for S in submodule_lattice(self.base)}
            for d in mets:
                if d not in lattice:
                    raise ValueError(
                        f"declared metabolizer {poly_str(d)} is not a submodule divisor"
                    )
                if not is_metabolizer(self.base, lattice[d]):
                    raise ValueError(
                        f"declared metabolizer {poly_str(d)} is not self-orthogonal"
                    )

    @property
    def site_names(self) -> tuple:
        return tuple(s.name for s in self.sites)

    def site(self, name: str) -> Site:
        for s in self.sites:
            if s.name == name:
                return s
        raise UnknownSite(f"template {self.name} has no site {name!r}")

    @cached_property
    def module(self):
        return module_from_seifert(self.base)

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        body = repr(
            (
                self.name,
                self.base.fingerprint(),
                tuple((s.name, tuple(str(c) for c in s.knot_class), s.seifert_disjoint) for s in self.sites),
                self.slice_flag,
                self.ribbon_metabolizers,
                self.rho1_known,
            )
        )
        return _short_hash(body)

    def __str__(self):
        tags = []
        if self.slice_flag:
            tags.append("slice")
        if self.rho1_known is not None:
            tags.append(f"rho1={self.rho1_known}")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        return f"{self.name}({', '.join(self.site_names)}){suffix}"


# ---------------------------------------------------------------------------
# Knot expressions


class _Facts(NamedTuple):
    fingerprint: str
    display: str
    hash: int


class KnotExpr:
    """Formal knot expression: Atom, Sum or Infect.

    Fingerprint, display and hash come from one fold over the expression DAG
    (_fold): each distinct node computes them once, from its children's, and
    keeps them on the node object, never in a table keyed by content, so one
    knot's name cannot show in another knot's output."""

    def _facts_of(self) -> _Facts:
        return _fold(self, "_facts", _expr_children, lambda e: e._node_facts())

    def fingerprint(self) -> str:
        return self._facts_of().fingerprint

    def display(self) -> str:
        return self._facts_of().display

    def __hash__(self):
        return self._facts_of().hash

    def __eq__(self, other):
        """Structural equality, as the dataclass fields give it, from an
        explicit stack: identity, then the stored hash, then the children
        pairwise, each pair of nodes compared once."""
        if type(other) is not type(self):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or hash(a) != hash(b) or _own_fields(a) != _own_fields(b):
                return False
            stack += zip(_expr_children(a), _expr_children(b))
        return True

    def __add__(self, other):
        return Sum(self, as_expr(other))

    def __str__(self):
        return self.display()


@dataclass(frozen=True, eq=True)
class Atom(KnotExpr):
    matrix: SeifertMatrix

    def _node_facts(self) -> _Facts:
        V = self.matrix
        # hash(self) is the dataclass hash of the matrix: atoms have no children
        return _Facts("atom:" + V.fingerprint(), V.display_name, hash(self))


@dataclass(frozen=True, eq=False)
class Sum(KnotExpr):
    left: KnotExpr
    right: KnotExpr

    def __post_init__(self):
        object.__setattr__(self, "left", as_expr(self.left))
        object.__setattr__(self, "right", as_expr(self.right))

    def _node_facts(self) -> _Facts:
        a, b = self.left._facts, self.right._facts
        fp = _short_hash(f"sum({a.fingerprint},{b.fingerprint})")
        display = f"({a.display} + {b.display})"
        if len(display) > 80:
            display = f"sum(...)#{fp[:8]}"
        return _Facts(fp, display, hash((a.hash, b.hash)))


@dataclass(frozen=True, eq=False)
class Infect(KnotExpr):
    template: Template
    inputs: tuple  # tuple[(site_name, KnotExpr), ...] in template site order

    def _node_facts(self) -> _Facts:
        tpl, facts = self.template, [(n, e._facts) for n, e in self.inputs]
        body = ",".join(f"{n}={f.fingerprint}" for n, f in facts)
        fp = _short_hash(f"infect({tpl.fingerprint()};{body})")
        display = f"{tpl.name}({', '.join(f'{n}={f.display}' for n, f in facts)})"
        if len(display) > 80:
            display = f"{tpl.name}(...)#{fp[:8]}"
        return _Facts(fp, display, hash((tpl, tuple((n, f.hash) for n, f in facts))))


def as_expr(x) -> KnotExpr:
    if isinstance(x, KnotExpr):
        return x
    if isinstance(x, SeifertMatrix):
        return Atom(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a knot expression")


def infect(template: Template, inputs: Mapping) -> Infect:
    """Tie the given knots into the template along its named sites.

    Every declared site must receive exactly one input knot (expression or
    Seifert matrix)."""
    given = dict(inputs)
    ordered = []
    for s in template.sites:
        if s.name not in given:
            raise MissingSite(f"no input for site {s.name!r} of template {template.name}")
        ordered.append((s.name, as_expr(given.pop(s.name))))
    if given:
        raise UnknownSite(
            f"template {template.name} has no site named {sorted(given)[0]!r}"
        )
    return Infect(template, tuple(ordered))


def iterate_operator(template: Template, n: int, seed) -> KnotExpr:
    """n-fold self-composition: feed the previous stage into every site."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    expr = as_expr(seed)
    for _ in range(n):
        expr = infect(template, {name: expr for name in template.site_names})
    return expr


# ---------------------------------------------------------------------------
# Zero-order invariants of expressions


def seifert_of(e) -> SeifertMatrix:
    """Seifert matrix of the expression.

    Infection along axes disjoint from the Seifert surface leaves the matrix
    unchanged, so an Infect node inherits its template's base matrix; sums
    take block sums.  Raises SiteNotSeifertDisjoint when an axis lacks the
    disjointness certificate."""
    e = as_expr(e)
    if isinstance(e, Atom):
        return e.matrix
    if isinstance(e, Sum):
        return connected_sum(seifert_of(e.left), seifert_of(e.right))
    assert isinstance(e, Infect)
    for s in e.template.sites:
        if not s.seifert_disjoint:
            raise SiteNotSeifertDisjoint(
                f"site {s.name} of template {e.template.name} is not certified "
                "disjoint from the Seifert surface"
            )
    base = e.template.base
    if base.slice_hint:
        return SeifertMatrix(base.entries, name=base.name, slice_hint=False)
    return base


def _try_seifert(e) -> Optional[SeifertMatrix]:
    try:
        return seifert_of(e)
    except SiteNotSeifertDisjoint:
        return None


def arf_of(e) -> int:
    """Arf invariant of the expression (an abelian invariant, so it only
    needs the Seifert matrix)."""
    return arf(seifert_of(e))


def rho0_of(e, tol=DEFAULT_TOL):
    """Signature average of the expression; abelian, hence computed from the
    Seifert matrix."""
    return rho0(seifert_of(e), tol)


# ---------------------------------------------------------------------------
# Symbolic rho ledgers


@dataclass(frozen=True)
class RhoAtom:
    """Symbolic signature quantity, identified by content.

    kind 'rho0': signature average of a knot/expression;
    kind 'rho1': first-order signature of a knot at the zero submodule;
    kind 'rhoP': first-order signature of a knot at the submodule with the
    given divisor."""

    kind: str
    key: str
    divisor: Optional[tuple] = None
    display: str = field(default="", compare=False)

    _KIND_RANK = {"rho1": 0, "rhoP": 1, "rho0": 2}

    def sort_key(self):
        return (self._KIND_RANK.get(self.kind, 9), self.key, self.divisor or ())

    def __str__(self):
        return self.display or f"{self.kind}[{self.key}]"


def rho0_atom(source) -> RhoAtom:
    """rho0 of a knot expression or Seifert matrix, keyed by content."""
    e = as_expr(source)
    return RhoAtom(kind="rho0", key=e.fingerprint(), display=f"rho0({e.display()})")


def rho1_atom(V: SeifertMatrix) -> RhoAtom:
    return RhoAtom(
        kind="rho1", key="atom:" + V.fingerprint(), display=f"rho1({V.display_name})"
    )


def rho_sub_atom(V: SeifertMatrix, divisor: Poly) -> RhoAtom:
    d = poly_monic(poly_normalize(divisor))
    return RhoAtom(
        kind="rhoP",
        key="atom:" + V.fingerprint(),
        divisor=d,
        display=f"rho({V.display_name}, {poly_str(d)})",
    )


@dataclass(frozen=True)
class RhoLedger:
    """Formal Q-linear combination of rho atoms plus an exact rational part."""

    rational: Fraction = Fraction(0)
    terms: tuple = ()  # tuple[(RhoAtom, Fraction)], sorted, nonzero coefficients

    @staticmethod
    def of_rational(q) -> "RhoLedger":
        return RhoLedger(rational=rat(q))

    @staticmethod
    def of_atom(atom: RhoAtom, coeff=1) -> "RhoLedger":
        c = rat(coeff)
        if not c:
            return RhoLedger()
        return RhoLedger(terms=((atom, c),))

    @staticmethod
    def zero() -> "RhoLedger":
        return RhoLedger()

    @staticmethod
    def _build(rational, term_map) -> "RhoLedger":
        terms = tuple(
            (a, c)
            for a, c in sorted(term_map.items(), key=lambda ac: ac[0].sort_key())
            if c
        )
        return RhoLedger(rational=rational, terms=terms)

    @property
    def is_zero(self) -> bool:
        return not self.rational and not self.terms

    @property
    def is_rational(self) -> bool:
        return not self.terms

    def atoms(self) -> tuple:
        return tuple(a for a, _ in self.terms)

    def coefficient(self, atom: RhoAtom) -> Fraction:
        for a, c in self.terms:
            if a == atom:
                return c
        return Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RhoLedger.of_rational(other)
        d = dict(self.terms)
        for a, c in other.terms:
            d[a] = d.get(a, Fraction(0)) + c
        return RhoLedger._build(self.rational + other.rational, d)

    __radd__ = __add__

    def __neg__(self):
        return RhoLedger(
            rational=-self.rational, terms=tuple((a, -c) for a, c in self.terms)
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RhoLedger.of_rational(other)
        return self + (-other)

    def __mul__(self, scalar):
        c = rat(scalar)
        if not c:
            return RhoLedger()
        return RhoLedger(
            rational=self.rational * c, terms=tuple((a, k * c) for a, k in self.terms)
        )

    __rmul__ = __mul__

    def __str__(self):
        return _signed_terms([(c, str(a)) for a, c in self.terms] + [(self.rational, "")])


@dataclass(frozen=True)
class LedgerValue:
    """Result of evaluating a ledger against an assignment: the resolved part
    as a rational interval plus whatever symbolic residue remains."""

    resolved: RatInterval
    residual: RhoLedger

    @property
    def is_resolved(self) -> bool:
        return self.residual.is_zero

    @property
    def is_exact_zero(self) -> bool:
        return (
            self.is_resolved and self.resolved.is_point and self.resolved.lo == 0
        )

    def certified_nonzero(self) -> bool:
        return self.is_resolved and self.resolved.excludes_zero()

    def __str__(self):
        if self.is_resolved:
            return str(self.resolved)
        if self.resolved.is_point and self.resolved.lo == 0:
            return str(self.residual)
        return f"{self.residual} + {self.resolved}"


def evaluate(ledger: RhoLedger, assignment: Mapping) -> LedgerValue:
    """Substitute assigned atom values (exact rationals or intervals) into the
    ledger; unassigned atoms are carried through symbolically."""
    box = RatInterval.point(ledger.rational)
    residue = {}
    for atom, coeff in ledger.terms:
        if atom in assignment:
            box = box + RatInterval.of(assignment[atom]) * coeff
        else:
            residue[atom] = residue.get(atom, Fraction(0)) + coeff
    return LedgerValue(resolved=box, residual=RhoLedger._build(Fraction(0), residue))


# ---------------------------------------------------------------------------
# First-order signature sets


@dataclass(frozen=True)
class FosEntry:
    """One first-order signature: the isotropic submodule it is attached to
    and its value as a symbolic ledger."""

    submodule: Submodule = field(repr=False)
    ledger: RhoLedger

    @property
    def divisor(self) -> Poly:
        return self.submodule.divisor

    def __str__(self):
        return f"P = {self.submodule}: {self.ledger}"


@dataclass(frozen=True)
class FirstOrderSignatureSet:
    """All first-order signatures of an expression, one per isotropic proper
    submodule of the relevant Alexander module (the zero submodule always
    included).  context maps the rho0 atoms appearing in the ledgers back to
    the expressions they measure, so checks can evaluate them on demand."""

    expr: KnotExpr
    entries: tuple  # tuple[FosEntry, ...] ordered by divisor
    context: tuple  # tuple[(RhoAtom, KnotExpr), ...]

    def ledgers(self) -> tuple:
        return tuple(e.ledger for e in self.entries)

    def context_map(self) -> dict:
        return dict(self.context)

    def __str__(self):
        return "\n".join(str(e) for e in self.entries)


def _fos_candidates(module):
    lattice = submodule_lattice(module)
    out = [S for S in lattice if S.is_zero_submodule]
    out += [
        S
        for S in lattice
        if not S.is_zero_submodule
        and not S.is_whole_module
        and is_isotropic(module, S)
    ]
    return out


def _input_contribution(e: KnotExpr, context: dict) -> RhoLedger:
    """Ledger for rho0 of an infection input.

    Atoms stay symbolic.  Composite inputs that are at least half-solvable
    have vanishing signature average; so do those whose (computable) Seifert
    matrix has a constant signature profile.  Anything else becomes a
    symbolic rho0 atom keyed by the expression."""
    if isinstance(e, Atom):
        a = rho0_atom(e)
        context.setdefault(a, e)
        return RhoLedger.of_atom(a)
    level = solvability_lower_bound(e)
    if level >= SolvLevel.of_rank(Fraction(1, 2)):
        return RhoLedger.zero()
    V = _try_seifert(e)
    if V is not None:
        r = rho0(V)
        if r.is_exact:
            return RhoLedger.of_rational(r.value)
    a = rho0_atom(e)
    context.setdefault(a, e)
    return RhoLedger.of_atom(a)


def first_order_signatures(e) -> FirstOrderSignatureSet:
    """First-order signature set of an infection or a plain knot.

    For an infection R(eta_i <- J_i) with genus-1 template and square-free
    order, the entry at an isotropic submodule P is

        base(P) + sum_i [eta_i not in P] * rho0(J_i)

    where base(P) vanishes for declared ribbon metabolizers, is the rho1
    atom (or its curated value) at the zero submodule, and is a symbolic
    rho(R, P) atom otherwise.  For a plain knot every entry is symbolic.
    """
    e = as_expr(e)
    context: dict = {}
    if isinstance(e, Sum):
        raise ValueError(
            "first-order signatures are defined here for infections and plain knots, "
            "not connected sums"
        )
    if isinstance(e, Atom):
        module = module_from_seifert(e.matrix)
        if not module.square_free:
            raise NotSquareFree(f"order {module.order} is not square-free")
        entries = []
        for P in _fos_candidates(module):
            if P.is_zero_submodule:
                ledger = RhoLedger.of_atom(rho1_atom(e.matrix))
            else:
                ledger = RhoLedger.of_atom(rho_sub_atom(e.matrix, P.divisor))
            entries.append(FosEntry(P, ledger))
        return FirstOrderSignatureSet(e, tuple(entries), tuple(context.items()))
    assert isinstance(e, Infect)
    tpl = e.template
    if tpl.base.size != 2:
        raise UnsupportedGenus(
            f"template {tpl.name} has genus {tpl.base.genus}; need genus 1"
        )
    module = tpl.module
    if not module.square_free:
        raise NotSquareFree(f"order {module.order} is not square-free")
    # once per input object (not per equal input: their names may differ)
    distinct = {id(x): x for _, x in e.inputs}
    by_id = {i: _input_contribution(x, context) for i, x in distinct.items()}
    contributions = {name: by_id[id(x)] for name, x in e.inputs}
    entries = []
    for P in _fos_candidates(module):
        if P.divisor in tpl.ribbon_metabolizers:
            ledger = RhoLedger.zero()
        elif P.is_zero_submodule:
            if tpl.rho1_known is not None:
                ledger = RhoLedger.of_rational(tpl.rho1_known)
            else:
                ledger = RhoLedger.of_atom(rho1_atom(tpl.base))
        else:
            ledger = RhoLedger.of_atom(rho_sub_atom(tpl.base, P.divisor))
        for s in tpl.sites:
            eps = class_in_quotient(module, s.knot_class, P)
            if eps:
                ledger = ledger + contributions[s.name]
        entries.append(FosEntry(P, ledger))
    return FirstOrderSignatureSet(e, tuple(entries), tuple(context.items()))


# ---------------------------------------------------------------------------
# Solvability bookkeeping


@dataclass(frozen=True)
class SolvLevel:
    """Certified lower bound in the solvability filtration.

    rank -1 means no bound; integer n >= 0 means n-solvable; +infinity means
    slice.  Half-integer ranks appear only in comparisons."""

    rank: float

    @staticmethod
    def none() -> "SolvLevel":
        return SolvLevel(-1.0)

    @staticmethod
    def of(n: int) -> "SolvLevel":
        if n < 0:
            raise ValueError("solvability level must be >= 0")
        return SolvLevel(float(n))

    @staticmethod
    def of_rank(q) -> "SolvLevel":
        return SolvLevel(float(q))

    @staticmethod
    def slice_level() -> "SolvLevel":
        return SolvLevel(math.inf)

    @property
    def is_none(self) -> bool:
        return self.rank < 0

    @property
    def is_slice(self) -> bool:
        return math.isinf(self.rank)

    @property
    def integer(self) -> Optional[int]:
        if self.is_none or self.is_slice:
            return None
        return int(self.rank)

    def __lt__(self, other):
        return self.rank < other.rank

    def __le__(self, other):
        return self.rank <= other.rank

    def __gt__(self, other):
        return self.rank > other.rank

    def __ge__(self, other):
        return self.rank >= other.rank

    def __str__(self):
        if self.is_none:
            return "none"
        if self.is_slice:
            return "slice"
        return str(self.integer)


def _fold(root, attr: str, children, value):
    """Bottom-up fold over an expression DAG from an explicit stack: each
    distinct node gets its value once, after its children, and keeps it in
    attribute attr, so shared sub-expressions and later calls reuse it."""
    stack = [root]
    while stack:
        node = stack.pop()
        if attr in node.__dict__:
            continue
        pending = [c for c in children(node) if attr not in c.__dict__]
        if pending:
            stack += [node, *pending]
        else:
            object.__setattr__(node, attr, value(node))
    return root.__dict__[attr]


def _solv_children(e) -> list:
    if isinstance(e, Sum):
        return [e.left, e.right]
    if isinstance(e, Infect) and e.template.slice_flag:
        return [expr for _, expr in e.inputs]
    return []


def _arf_level(e) -> SolvLevel:
    V = _try_seifert(e)
    return SolvLevel.of(0) if V is not None and arf(V) == 0 else SolvLevel.none()


def _solv_value(e) -> SolvLevel:
    if isinstance(e, Atom):
        return SolvLevel.slice_level() if e.matrix.slice_hint else _arf_level(e)
    if isinstance(e, Infect) and not e.template.slice_flag:
        return _arf_level(e)
    worst = min((c._solvability for c in _solv_children(e)), key=lambda s: s.rank)
    if isinstance(e, Sum) or worst.is_slice:
        return worst
    if worst.is_none:
        return _arf_level(e)
    return SolvLevel.of(worst.integer + 1)


def solvability_lower_bound(e) -> SolvLevel:
    """Mechanically certified lower bound for the solvability level.

    Atoms: slice when curated, level 0 when Arf vanishes, none otherwise.
    Sums: the minimum of the parts.  Infections of a slice template: slice
    when every input is slice, otherwise one more than the worst input
    (an infected slice knot is always 0-solvable since its Arf vanishes).
    Infections of non-slice templates fall back to the Arf test."""
    return _fold(as_expr(e), "_solvability", _solv_children, _solv_value)


def _expr_children(e) -> list:
    if isinstance(e, Sum):
        return [e.left, e.right]
    return [expr for _, expr in e.inputs] if isinstance(e, Infect) else []


def _own_fields(e):
    """The fields of a node other than its sub-expressions."""
    if isinstance(e, Infect):
        return e.template, [n for n, _ in e.inputs]
    return getattr(e, "matrix", None)


def _mult_children(e) -> list:
    if isinstance(e, Sum):
        raise ValueError("multiplicity bound is defined for infection towers, not sums")
    return _expr_children(e)


def _mult_value(e) -> int:
    if isinstance(e, Atom):
        return 1
    return len(e.template.sites) * max(expr._multiplicity for _, expr in e.inputs)


def rho0_multiplicity_bound(e) -> int:
    """Bound on how many rho0 terms of the seed can stack up through a tower
    of infections: sites-per-stage multiplied down the tower.  Defined for
    atoms and nested infections (not sums)."""
    return _fold(as_expr(e), "_multiplicity", _mult_children, _mult_value)


# ---------------------------------------------------------------------------
# Standard templates

#: The ribbon knot 9_46 doubled along its two band meridians alpha = (1, 0)
#: and beta = (0, 1), which generate the two metabolizers S[t - 2] and
#: S[t - 1/2].  Each metabolizer is induced by one of the two ribbon disks,
#: so both carry vanishing first-order signatures (curated, standard fact).
R946_DOUBLING = Template(
    name="R946_op",
    base=K9_46,
    sites=(Site("alpha", (1, 0)), Site("beta", (0, 1))),
    slice_flag=True,
    ribbon_metabolizers=(
        (Fraction(-2), Fraction(1)),
        (Fraction(-1, 2), Fraction(1)),
    ),
)

#: The figure-eight knot doubled along its two band meridians.  Its Alexander
#: polynomial is irreducible, so the only isotropic proper submodule is zero;
#: the amphichiral symmetry of the figure-eight forces that first-order
#: signature to vanish (curated, standard fact).
FIG8_DOUBLING = Template(
    name="fig8_op",
    base=FIGURE_EIGHT,
    sites=(Site("a", (1, 0)), Site("b", (0, 1))),
    rho1_known=Fraction(0),
)
