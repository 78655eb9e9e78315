"""Slice and infinite-order obstruction verdicts.

Decision procedures over first-order signature ledgers, signature averages
and user-supplied universal bounds.  A Verdict never overclaims: OBSTRUCTED
rests on fully resolved numbers, anything depending on an unassigned
symbolic atom (or an enclosure through zero) comes back CONDITIONAL, and
CONSISTENT only means "this particular obstruction does not apply".

Every verdict carries a certificate: a tuple of 'key: value' facts from
which verify_certificate re-derives the status without recomputing any
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .blanchfield import blanchfield_pair
from .intervals import RatInterval, simplest_rational
from .rings import eliminate, rat
from .seifert import (
    DEFAULT_TOL,
    FIGURE_EIGHT,
    K9_46,
    Rho0Result,
    SeifertMatrix,
    arf,
    connected_sum,
    rho0,
)
from .infection import (
    Atom,
    Infect,
    KnotExpr,
    RhoAtom,
    RhoLedger,
    Site,
    SiteNotSeifertDisjoint,
    Template,
    as_expr,
    evaluate,
    first_order_signatures,
    rho1_atom,
    seifert_of,
)

OBSTRUCTED = "OBSTRUCTED"
CONSISTENT = "CONSISTENT"
CONDITIONAL = "CONDITIONAL"

#: the first-order signature of 9_46 at the zero submodule, the one symbolic
#: constant every doubling-tower statement keeps coming back to
RHO1_9_46 = rho1_atom(K9_46)


class HypothesisFailed(ValueError):
    """A mechanical hypothesis of an obstruction theorem does not hold.

    which names the failing hypothesis: 'arf', 'slice' or 'blanchfield'."""

    def __init__(self, which: str, message: str):
        super().__init__(message)
        self.which = which


# ---------------------------------------------------------------------------
# Assignments and verdicts


def _as_interval(x) -> RatInterval:
    if isinstance(x, Rho0Result):
        return x.interval()
    return RatInterval.of(x)


class Assignment:
    """Map from rho atoms to trusted values: exact rationals or certified
    intervals.  Nothing defaults silently; an atom is either assigned here or
    stays symbolic."""

    def __init__(self, entries: Optional[Mapping] = None):
        self._values = {}
        for atom, value in (entries or {}).items():
            if not isinstance(atom, RhoAtom):
                raise TypeError(f"assignment keys must be rho atoms, got {atom!r}")
            v = _as_interval(value)
            self._values[atom] = v.lo if v.is_point else v

    def __contains__(self, atom) -> bool:
        return atom in self._values

    def __getitem__(self, atom):
        return self._values[atom]

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return self._values.items()

    def __repr__(self):
        body = ", ".join(f"{a} = {v}" for a, v in self._values.items())
        return f"Assignment({body})"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one obstruction check.

    status is OBSTRUCTED, CONSISTENT or CONDITIONAL; theorem is the short
    tag of the check that produced it; conditions are the equations that
    would have to hold for sliceness when the status is CONDITIONAL; the
    certificate is a replayable trace of 'key: value' facts."""

    status: str
    theorem: str
    summary: str
    conditions: tuple = ()
    certificate: tuple = ()

    def __str__(self):
        out = [f"{self.status} [{self.theorem}] {self.summary}"]
        for c in self.conditions:
            out.append(f"  requires: {c}")
        for line in self.certificate:
            out.append(f"  | {line}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Formatting and parsing of certificate values

_BOUND_CTX = Context(prec=2, rounding=ROUND_CEILING)


def _bound_str(q: Fraction) -> str:
    """Short decimal upper bound for a positive rational."""
    return str(_BOUND_CTX.divide(Decimal(q.numerator), Decimal(q.denominator)))


def cert_val(x) -> str:
    """Exact machine-readable rendering: 'p/q' or '[lo, hi]'."""
    v = _as_interval(x)
    if v.is_point:
        return str(v.lo)
    return f"[{v.lo}, {v.hi}]"


def _parse_val(s: str) -> RatInterval:
    s = s.strip()
    if s.startswith("["):
        lo, hi = s[1:-1].split(",")
        return RatInterval(Fraction(lo.strip()), Fraction(hi.strip()))
    return RatInterval.point(Fraction(s))


def value_str(x) -> str:
    """Human-readable rendering: exact fraction, or the simplest rational in
    the enclosure with an outward error bound."""
    v = _as_interval(x)
    if v.is_point:
        return str(v.lo)
    q = simplest_rational(v.lo, v.hi)
    bound = max(q - v.lo, v.hi - q)
    return f"{q} (within {_bound_str(bound)})"


def _cert_pairs(certificate: Sequence[str]):
    out = []
    for line in certificate:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed certificate line: {line!r}")
        out.append((key, value))
    return out


# ---------------------------------------------------------------------------
# Ledger evaluation with on-demand rho0 computation


def eval_ledger(ledger: RhoLedger, assignment, context, tol) -> "LedgerValue":
    """Evaluate a ledger, filling in rho0 atoms whose source expressions have
    computable Seifert matrices.  Explicit assignments always win."""
    values = {}
    for atom, _ in ledger.terms:
        if assignment is not None and atom in assignment:
            values[atom] = assignment[atom]
        elif atom.kind == "rho0" and atom in context:
            try:
                V = seifert_of(context[atom])
            except SiteNotSeifertDisjoint:
                continue
            values[atom] = rho0(V, tol).interval()
    return evaluate(ledger, values)


def _classify(val) -> str:
    if not val.is_resolved:
        return "unresolved"
    if val.is_exact_zero:
        return "zero"
    if val.resolved.excludes_zero():
        return "nonzero"
    return "undetermined"


def _fos_status(classes) -> str:
    if any(c == "zero" for c in classes):
        return CONSISTENT
    if classes and all(c == "nonzero" for c in classes):
        return OBSTRUCTED
    return CONDITIONAL


# ---------------------------------------------------------------------------
# First-order signature check


def check_first_order_signatures(e, assignment=None, tol=DEFAULT_TOL) -> Verdict:
    """Slice obstruction from first-order signatures.

    A slice knot (even one slice only in a rational homology ball) must have
    some vanishing first-order signature, so when every entry of the set is
    certified nonzero the knot is obstructed.  An entry that is exactly zero
    makes the verdict CONSISTENT; entries resting on unassigned atoms or on
    enclosures through zero make it CONDITIONAL, with the equations sliceness
    would force listed as conditions.
    """
    fs = first_order_signatures(e)
    context = fs.context_map()
    rows = []
    for entry in fs.entries:
        val = eval_ledger(entry.ledger, assignment, context, tol)
        rows.append((entry, val, _classify(val)))
    status = _fos_status([c for _, _, c in rows])

    conditions = []
    cert = [f"expression: {fs.expr.display()}", f"entries: {len(rows)}"]
    for i, (entry, val, cls) in enumerate(rows, 1):
        divisor = str(entry.submodule)[2:-1]  # strip the 'S[' ... ']' wrapper
        if cls == "unresolved":
            cert.append(
                f"entry {i}: divisor={divisor}; class=unresolved; "
                f"residual={val.residual}; window={cert_val(val.resolved)}"
            )
            if status == CONDITIONAL:
                terms = val.residual.terms
                if len(terms) == 1:
                    atom, coeff = terms[0]
                    solved = val.resolved * (Fraction(-1) / coeff)
                    conditions.append(f"{atom} = {value_str(solved)}")
                else:
                    conditions.append(
                        f"{val.residual} = {value_str(-val.resolved)}"
                    )
        else:
            cert.append(
                f"entry {i}: divisor={divisor}; class={cls}; "
                f"value={cert_val(val.resolved)}"
            )
            if status == CONDITIONAL and cls == "undetermined":
                conditions.append(f"{entry.ledger} = 0")
    cert.append(
        "rule: consistent if some entry is exactly zero, obstructed if every "
        "entry is certified nonzero, conditional otherwise"
    )

    if status == OBSTRUCTED:
        summary = (
            "every first-order signature is certified nonzero: not slice in a "
            "rational homology ball, not rationally (1.5)-solvable"
        )
    elif status == CONSISTENT:
        summary = "a first-order signature vanishes; the obstruction does not apply"
    else:
        summary = "sliceness would force the listed constraints"
    return Verdict(status, "fos", summary, tuple(conditions), tuple(cert))


# ---------------------------------------------------------------------------
# Membership check for the twice-iterated double


def _membership(val: RatInterval, allowed) -> str:
    """yes / no / possible membership of an enclosure in a finite set of
    enclosures (None entries mean 'unknown value', which blocks 'no')."""
    concrete = [w for w in allowed if w is not None]
    if any(val.is_point and w.is_point and val.lo == w.lo for w in concrete):
        return "yes"
    if len(concrete) == len(allowed) and all(
        not val.overlaps(w) for w in concrete
    ):
        return "no"
    return "possible"


def _j2_decide(val: RatInterval, rho1_val: Optional[RatInterval]):
    d_primary = None if rho1_val is None else rho1_val * Fraction(-1, 2)
    d_mirror = None if rho1_val is None else rho1_val * Fraction(1, 2)
    zero = RatInterval.point(0)
    primary = _membership(val, [zero, d_primary])
    mirror = _membership(val, [zero, d_mirror])
    if primary == "yes" or mirror == "yes":
        status = CONSISTENT
    elif primary == "no" and mirror == "no":
        status = OBSTRUCTED
    else:
        status = CONDITIONAL
    return status, primary, mirror


def check_iterated_double(k_rho0, assignment=None) -> Verdict:
    """Membership constraint forced by sliceness of the twice-iterated double.

    If the result of applying the 9_46 doubling operator to K twice is slice,
    then rho0(K) lies in {0, D} with D = -1/2 * rho1(9_46) (the mirror
    orientation convention flips the sign of D; both are reported).  Decides
    membership of the given certified rho0(K) value.
    """
    val = _as_interval(k_rho0)
    a = Assignment() if assignment is None else (
        assignment if isinstance(assignment, Assignment) else Assignment(assignment)
    )
    rho1_val = _as_interval(a[RHO1_9_46]) if RHO1_9_46 in a else None
    status, primary, mirror = _j2_decide(val, rho1_val)

    conditions = []
    if status == CONDITIONAL:
        if val.contains_zero() and not (val.is_point and val.lo == 0):
            conditions.append("rho0(K) = 0")
        if rho1_val is None:
            conditions.append(f"rho1(9_46) = {value_str(val * Fraction(-2))}")
        else:
            d = rho1_val * Fraction(-1, 2)
            if not (val.is_point and d.is_point and val.lo == d.lo) and val.overlaps(d):
                conditions.append(f"rho0(K) = {value_str(d)}")

    cert = (
        f"rho0(K): {cert_val(val)}",
        "derived: D := -1/2 * rho1(9_46); mirror convention uses +1/2 * rho1(9_46)",
        f"rho1(9_46): {'unassigned' if rho1_val is None else cert_val(rho1_val)}",
        f"membership (primary): {primary}",
        f"membership (mirror): {mirror}",
    )
    if status == OBSTRUCTED:
        summary = (
            "rho0(K) lies outside {0, D} under both sign conventions: the "
            "twice-iterated double of K is not slice"
        )
    elif status == CONSISTENT:
        summary = "rho0(K) lies in the allowed set {0, D}"
    else:
        summary = "membership in {0, D} is undecided; sliceness would force the listed constraints"
    return Verdict(status, "j2", summary, tuple(conditions), cert)


# ---------------------------------------------------------------------------
# Infinite-order check for a doubling tower


def tower_split(e: KnotExpr):
    """Peel self-similar infection layers: returns (templates outermost
    first, innermost seed expression)."""
    templates = []
    e = as_expr(e)
    while isinstance(e, Infect):
        inner = [expr for _, expr in e.inputs]
        if any(x != inner[0] for x in inner[1:]):
            break
        templates.append(e.template)
        e = inner[0]
    return tuple(templates), e


def seed_rho0(seed, k_rho0, tol) -> RatInterval:
    if k_rho0 is not None:
        return _as_interval(k_rho0)
    try:
        V = seifert_of(seed)
    except SiteNotSeifertDisjoint:
        raise ValueError(
            "rho0 of the seed is not computable from its Seifert matrix; "
            "pass k_rho0 explicitly"
        )
    return rho0(V, tol).interval()


def check_infinite_order(e, k_rho0=None, bound=None, tol=DEFAULT_TOL) -> Verdict:
    """Infinite-order obstruction for the doubling tower on a seed K.

    When |rho0(K)| exceeds a trusted universal bound C for the tower's
    template (a Cheeger-Gromov-type constant, always user-supplied), every
    stage of the tower has infinite order in the concordance group.  Without
    C the verdict is CONDITIONAL on the inequality itself.
    """
    templates, seed = tower_split(e)
    val = seed_rho0(seed, k_rho0, tol)
    abs_val = val.abs()
    cert = [
        f"tower depth: {len(templates)}",
        f"seed: {seed.display()}",
        f"abs rho0 lower bound: {abs_val.lo}",
        f"abs rho0 upper bound: {abs_val.hi}",
        f"C: {'unassigned' if bound is None else rat(bound)}",
    ]
    if bound is None:
        return Verdict(
            CONDITIONAL,
            "main",
            "no universal bound supplied; the obstruction needs the listed inequality",
            ("|rho0(K)| > C",),
            tuple(cert),
        )
    c = rat(bound)
    if c < 0:
        raise ValueError("the universal bound C must be >= 0")
    if abs_val.lo > c:
        return Verdict(
            OBSTRUCTED,
            "main",
            "|rho0(K)| > C: every stage of the tower has infinite order in "
            "F_n/F_n.5, hence in both concordance groups",
            (),
            tuple(cert),
        )
    return Verdict(
        CONSISTENT,
        "main",
        "|rho0(K)| > C is not established; the obstruction does not apply",
        (),
        tuple(cert),
    )


# ---------------------------------------------------------------------------
# Tower constant and the mechanically-verified tower check


def doubling_tower_constant(templates=None, unit_bound=1, *, n=None, m=None) -> Fraction:
    """Threshold (m^n - 1)/(m - 1) * C' for an n-level tower with at most m
    sites per level and per-level bound C'.

    The geometric sum 1 + m + ... + m^(n-1) counts the largest possible
    number of seed copies contributing at the bottom of the tower.  Pass
    either the template sequence or n and m directly.
    """
    if templates is not None:
        templates = tuple(templates)
        if not templates:
            raise ValueError("need at least one template level")
        n = len(templates)
        m = max(len(t.sites) for t in templates)
    if n is None or m is None:
        raise ValueError("pass templates, or both n and m")
    if n < 1:
        raise ValueError("need at least one level")
    if m < 1:
        raise ValueError("every level needs at least one site")
    c = rat(unit_bound)
    if m == 1:
        return n * c
    return Fraction(m**n - 1, m - 1) * c


def _check_tower_hypotheses(templates, seed) -> list:
    """Mechanical hypothesis battery; returns certificate lines or raises
    HypothesisFailed.  Site classes live in the Alexander module by
    construction, which is the commutator-subgroup requirement."""
    try:
        seed_arf = arf(seifert_of(seed))
    except SiteNotSeifertDisjoint:
        raise HypothesisFailed(
            "arf", "the Arf invariant of the seed is not computable from a Seifert matrix"
        )
    if seed_arf != 0:
        raise HypothesisFailed("arf", "the seed has Arf invariant 1; the tower needs 0")
    lines = [f"arf(seed): {seed_arf}"]
    for i, tpl in enumerate(templates, 1):
        if not tpl.slice_flag:
            raise HypothesisFailed(
                "slice", f"template {tpl.name} (level {i}) is not flagged slice"
            )
        witness = None
        for si in tpl.sites:
            for sj in tpl.sites:
                if not blanchfield_pair(tpl.base, si.knot_class, sj.knot_class).is_zero:
                    witness = (si.name, sj.name)
                    break
            if witness:
                break
        if witness is None:
            raise HypothesisFailed(
                "blanchfield",
                f"template {tpl.name} (level {i}): the linking form vanishes on "
                "all pairs of site classes",
            )
        lines.append(
            f"template {i}: {tpl.name}; sites={len(tpl.sites)}; slice=yes; "
            f"blanchfield=pair({witness[0]}, {witness[1]}) nonzero"
        )
    return lines


def check_doubling_tower(
    templates, seed, k_rho0=None, unit_bound=None, tol=DEFAULT_TOL
) -> Verdict:
    """Infinite-order obstruction for a tower of slice templates.

    Verifies the hypotheses mechanically -- seed Arf zero, every template
    slice-flagged, and on each level some pair of site classes (possibly
    equal) with nonvanishing linking form -- then compares |rho0(seed)|
    against the geometric threshold (m^n - 1)/(m - 1) * C'.  C' is the
    per-level universal bound, always user-supplied; without it the verdict
    is CONDITIONAL on the inequality.
    """
    templates = tuple(templates)
    if not templates:
        raise ValueError("need at least one template level")
    seed = as_expr(seed)
    hypothesis_lines = _check_tower_hypotheses(templates, seed)
    n = len(templates)
    m = max(len(t.sites) for t in templates)
    val = seed_rho0(seed, k_rho0, tol).abs()
    geometric = doubling_tower_constant(n=n, m=m, unit_bound=1)
    cert = [f"levels: {n}", f"max sites: {m}"]
    cert += hypothesis_lines
    cert.append(f"C': {'unassigned' if unit_bound is None else rat(unit_bound)}")
    if unit_bound is None:
        cert.append(f"abs rho0 lower bound: {val.lo}")
        return Verdict(
            CONDITIONAL,
            "main3",
            "hypotheses verified; the obstruction needs the listed inequality",
            (f"|rho0(K)| > {geometric} * C'",),
            tuple(cert),
        )
    c = rat(unit_bound)
    if c < 0:
        raise ValueError("the per-level bound C' must be >= 0")
    constant = geometric * c
    cert.append(f"constant: {constant}")
    cert.append(f"abs rho0 lower bound: {val.lo}")
    if val.lo > constant:
        return Verdict(
            OBSTRUCTED,
            "main3",
            "hypotheses verified and |rho0(K)| exceeds the tower constant: the "
            "tower output is of infinite order in F_n/F_n.5 and in both "
            "concordance groups",
            (),
            tuple(cert),
        )
    return Verdict(
        CONSISTENT,
        "main3",
        "|rho0(K)| does not exceed the tower constant; the obstruction does not apply",
        (),
        tuple(cert),
    )


# ---------------------------------------------------------------------------
# Concordance-order check for doubled figure-eight patterns


def _figure_eight_sum_template(copies: int) -> Template:
    """Connected sum of an even number of figure-eight patterns, with one
    site per basis class.  An even sum of figure-eights is a ribbon knot
    (the figure-eight is amphichiral), so the template is slice-flagged."""
    assert copies >= 2 and copies % 2 == 0
    base = FIGURE_EIGHT
    for _ in range(copies - 1):
        base = connected_sum(base, FIGURE_EIGHT)
    base = SeifertMatrix(base.entries, name=f"fig8#{copies}", slice_hint=True)
    size = 2 * copies
    sites = tuple(
        Site(f"s{i + 1}", tuple(1 if j == i else 0 for j in range(size)))
        for i in range(size)
    )
    return Template(name=f"fig8sum{copies}_op", base=base, sites=sites, slice_flag=True)


def check_torsion(e, multiple, k_rho0=None, unit_bound=None, tol=DEFAULT_TOL) -> Verdict:
    """Concordance-order obstruction for a figure-eight pattern doubled over
    an inner tower.

    The expression must be the figure-eight doubling template applied to a
    single inner expression.  Odd multiples are obstructed outright by the
    Arf invariant.  An even multiple 2k of the knot equals the connected sum
    of 2k figure-eight patterns (a ribbon knot) infected along all 4k basis
    classes by the inner expression, so the tower check applies with that
    sum as the outer level.  The zero multiple is the unknot.
    """
    if multiple < 0:
        raise ValueError("multiple must be >= 0 (mirrors have the same order)")
    if multiple == 0:
        return Verdict(
            CONSISTENT,
            "torsion",
            "the zero multiple is the unknot",
            (),
            ("multiple: 0",),
        )
    e = as_expr(e)
    if not isinstance(e, Infect) or e.template.base != FIGURE_EIGHT:
        raise ValueError("expected the figure-eight doubling pattern applied to an inner knot")
    inner = [expr for _, expr in e.inputs]
    if any(x != inner[0] for x in inner[1:]):
        raise ValueError("expected the same inner knot at every site")
    if multiple % 2:
        a = arf(seifert_of(e))
        cert = (f"multiple: {multiple}", "parity: odd", f"arf: {a}")
        assert a == 1, "a figure-eight pattern always has Arf invariant 1"
        return Verdict(
            OBSTRUCTED,
            "torsion",
            "odd multiples have Arf invariant 1: not slice, not even 0-solvable",
            (),
            cert,
        )
    copies = multiple
    outer = _figure_eight_sum_template(copies)
    inner_templates, seed = tower_split(inner[0])
    delegate = check_doubling_tower(
        (outer,) + inner_templates, seed, k_rho0, unit_bound, tol
    )
    cert = (
        f"multiple: {multiple}",
        "parity: even",
        f"outer: connected sum of {copies} figure-eight patterns, "
        f"{2 * copies} sites, ribbon",
    ) + delegate.certificate
    if delegate.status == OBSTRUCTED:
        summary = (
            "the even multiple is obstructed by the tower bound; combined with "
            "the Arf obstruction for odd multiples, the knot has infinite "
            "concordance order"
        )
    else:
        summary = f"even multiple: {delegate.summary}"
    return Verdict(delegate.status, "torsion", summary, delegate.conditions, cert)


# ---------------------------------------------------------------------------
# Rational independence of ledger families


def independence_check(ledgers: Sequence[RhoLedger], target: RhoLedger):
    """Rank of the ledger family over Q, and whether some nontrivial rational
    combination of the family equals a nonzero rational multiple of the
    target.

    Purely formal linear algebra over the atom basis (plus the rational
    coordinate); numeric approximations never enter.  For a zero target the
    bit reports whether the family itself is linearly dependent.
    """
    ledgers = tuple(ledgers)
    atoms = sorted(
        {a for L in (*ledgers, target) for a in L.atoms()},
        key=lambda a: a.sort_key(),
    )

    def vec(L: RhoLedger):
        return [L.coefficient(a) for a in atoms] + [L.rational]

    rows = [vec(L) for L in ledgers]
    rank = eliminate(rows)[0]
    if target.is_zero:
        bit = rank < len(ledgers)
    else:
        bit = eliminate(rows + [vec(target)])[0] == rank
    return rank, bit


# ---------------------------------------------------------------------------
# Certificate replay


def _numbered(pairs, prefix, count):
    """The values of the lines `prefix 1` ... `prefix count`, which must be
    all the lines whose key starts with `prefix`, in order."""
    lines = [(key, value) for key, value in pairs if key.startswith(prefix + " ")]
    if [key for key, _ in lines] != [f"{prefix} {i}" for i in range(1, count + 1)]:
        raise ValueError(f"the {prefix} lines do not number 1 to {count}")
    return [value for _, value in lines]


def _replay_fos(pairs) -> str:
    classes = []
    for value in _numbered(pairs, "entry", int(dict(pairs)["entries"])):
        fields = dict(f.partition("=")[::2] for f in value.split("; "))
        cls = fields["class"]
        if cls == "zero":
            v = _parse_val(fields["value"])
            if not (v.is_point and v.lo == 0):
                raise ValueError("zero entry with nonzero recorded value")
        elif cls == "nonzero":
            if not _parse_val(fields["value"]).excludes_zero():
                raise ValueError("nonzero entry whose recorded value allows zero")
        elif cls == "undetermined":
            v = _parse_val(fields["value"])
            if not v.contains_zero() or v.is_point:
                raise ValueError("undetermined entry with a decisive recorded value")
        elif cls != "unresolved":
            raise ValueError(f"unknown entry class {cls!r}")
        classes.append(cls)
    return _fos_status(classes)


def _replay_j2(pairs) -> str:
    facts = dict(pairs)
    val = _parse_val(facts["rho0(K)"])
    raw = facts["rho1(9_46)"]
    rho1_val = None if raw == "unassigned" else _parse_val(raw)
    status, primary, mirror = _j2_decide(val, rho1_val)
    if facts["membership (primary)"] != primary or facts["membership (mirror)"] != mirror:
        raise ValueError("recorded memberships disagree with the recorded values")
    return status


def _replay_main(pairs) -> str:
    facts = dict(pairs)
    if facts["C"] == "unassigned":
        return CONDITIONAL
    c = Fraction(facts["C"])
    lo = Fraction(facts["abs rho0 lower bound"])
    return OBSTRUCTED if lo > c else CONSISTENT


def _replay_main3(pairs) -> str:
    facts = dict(pairs)
    n = int(facts["levels"])
    m = int(facts["max sites"])
    if facts["arf(seed)"] != "0":
        raise ValueError("the tower needs a seed with Arf invariant 0")
    _numbered(pairs, "template", n)
    if facts["C'"] == "unassigned":
        return CONDITIONAL
    c = Fraction(facts["C'"])
    constant = doubling_tower_constant(n=n, m=m, unit_bound=c)
    if constant != Fraction(facts["constant"]):
        raise ValueError("recorded constant disagrees with (m^n - 1)/(m - 1) * C'")
    lo = Fraction(facts["abs rho0 lower bound"])
    return OBSTRUCTED if lo > constant else CONSISTENT


def _replay_torsion(pairs) -> str:
    facts = dict(pairs)
    multiple = int(facts["multiple"])
    if multiple == 0:
        return CONSISTENT
    if multiple % 2:
        if facts["parity"] != "odd" or int(facts["arf"]) != 1:
            raise ValueError("odd-multiple certificate must record Arf invariant 1")
        return OBSTRUCTED
    if facts["parity"] != "even":
        raise ValueError("even multiple recorded with odd parity")
    return _replay_main3(pairs)


_REPLAYS = {
    "fos": _replay_fos,
    "j2": _replay_j2,
    "main": _replay_main,
    "main3": _replay_main3,
    "torsion": _replay_torsion,
}


def verify_certificate(verdict: Verdict) -> bool:
    """Re-derive the verdict status from its recorded certificate alone.

    Returns True when the certificate parses, its numeric claims re-check,
    and the re-derived status matches; False otherwise."""
    replay = _REPLAYS.get(verdict.theorem)
    if replay is None:
        raise ValueError(f"unknown theorem tag {verdict.theorem!r}")
    try:
        derived = replay(_cert_pairs(verdict.certificate))
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        return False
    return derived == verdict.status
