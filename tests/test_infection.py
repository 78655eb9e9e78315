"""Satellite infection: expressions, templates, symbolic rho-ledgers,
first-order signature sets, and solvability bounds."""

import random
from fractions import Fraction

import pytest

from concord.infection import (
    FIG8_DOUBLING,
    R946_DOUBLING,
    Atom,
    Infect,
    MissingSite,
    RhoLedger,
    Site,
    SiteNotSeifertDisjoint,
    SolvLevel,
    Sum,
    Template,
    UnknownSite,
    arf_of,
    as_expr,
    evaluate,
    first_order_signatures,
    infect,
    iterate_operator,
    rho0_atom,
    rho0_multiplicity_bound,
    rho0_of,
    rho1_atom,
    rho_sub_atom,
    seifert_of,
    solvability_lower_bound,
)
from concord.seifert import (
    FIGURE_EIGHT,
    K9_46,
    TREFOIL,
    UNKNOT,
    SeifertMatrix,
    alexander_polynomial,
    arf,
    connected_sum,
    rho0,
    signature_profile,
)

from test_seifert import random_seifert


def J(n, seed=TREFOIL):
    return iterate_operator(R946_DOUBLING, n, seed)


# ---------------------------------------------------------------------------
# Expressions and templates


def test_expression_construction():
    e = as_expr(TREFOIL)
    assert isinstance(e, Atom)
    assert str(e) == "trefoil"
    s = e + as_expr(FIGURE_EIGHT)
    assert isinstance(s, Sum)
    j1 = infect(R946_DOUBLING, {"alpha": TREFOIL, "beta": TREFOIL})
    assert isinstance(j1, Infect)
    assert str(j1) == "R946_op(alpha=trefoil, beta=trefoil)"
    assert iterate_operator(R946_DOUBLING, 0, TREFOIL) == e


def test_builtin_templates():
    assert R946_DOUBLING.base == K9_46
    assert R946_DOUBLING.site_names == ("alpha", "beta")
    assert R946_DOUBLING.slice_flag
    assert len(R946_DOUBLING.ribbon_metabolizers) == 2
    assert FIG8_DOUBLING.base == FIGURE_EIGHT
    assert FIG8_DOUBLING.rho1_known == 0
    assert not FIG8_DOUBLING.slice_flag


def test_template_validation():
    with pytest.raises(ValueError):
        Template("x", K9_46, (Site("a", (1, 0)), Site("a", (0, 1))))
    with pytest.raises(ValueError):
        Template("x", K9_46, (Site("a", (1, 0, 0)),))


def test_infect_site_errors():
    with pytest.raises(MissingSite):
        infect(R946_DOUBLING, {"alpha": TREFOIL})
    with pytest.raises(UnknownSite):
        infect(R946_DOUBLING, {"alpha": TREFOIL, "beta": TREFOIL, "gamma": UNKNOT})
    with pytest.raises(ValueError):
        iterate_operator(R946_DOUBLING, -1, TREFOIL)


def test_seifert_of_expressions():
    assert seifert_of(as_expr(TREFOIL)) == TREFOIL
    s = seifert_of(as_expr(TREFOIL) + as_expr(FIGURE_EIGHT))
    assert s.size == 4
    assert alexander_polynomial(s) == (alexander_polynomial(TREFOIL)
                                       * alexander_polynomial(FIGURE_EIGHT))
    # infection along Seifert-disjoint sites keeps the base matrix, but the
    # slice hint no longer applies to the infected knot
    V = seifert_of(J(1))
    assert V.entries == K9_46.entries
    assert not V.slice_hint
    # non-disjoint sites admit no Seifert matrix here
    t = Template("bad", K9_46, (Site("a", (1, 0), seifert_disjoint=False),))
    with pytest.raises(SiteNotSeifertDisjoint):
        seifert_of(infect(t, {"a": TREFOIL}))


def test_arf_and_rho0_of_expressions():
    assert arf_of(J(1)) == 0
    assert arf_of(as_expr(TREFOIL)) == 1
    assert rho0_of(as_expr(K9_46)).value == 0
    assert rho0_of(J(2)).value == 0  # profile of 9_46 is constant zero


# ---------------------------------------------------------------------------
# Atoms and ledgers


def test_atom_display_and_ordering():
    a0 = rho0_atom(as_expr(TREFOIL))
    a1 = rho1_atom(K9_46)
    ap = rho_sub_atom(K9_46, (Fraction(-2), Fraction(1)))
    assert str(a0) == "rho0(trefoil)"
    assert str(a1) == "rho1(9_46)"
    assert str(ap) == "rho(9_46, t - 2)"
    # ledgers print first-order terms before zero-order ones
    assert sorted([a0, a1, ap], key=lambda a: a.sort_key()) == [a1, ap, a0]


def test_ledger_arithmetic_and_str():
    a = rho0_atom(as_expr(TREFOIL))
    b = rho1_atom(K9_46)
    L = RhoLedger.of_atom(a) * Fraction(2) + RhoLedger.of_rational(Fraction(-8, 3))
    assert str(L) == "2*rho0(trefoil) - 8/3"
    assert str(RhoLedger.zero()) == "0"
    assert str(RhoLedger.of_rational(Fraction(5, 2))) == "5/2"
    M = RhoLedger.of_atom(b) - RhoLedger.of_atom(a)
    assert str(M) == "rho1(9_46) - rho0(trefoil)"
    assert M.coefficient(a) == -1 and M.coefficient(b) == 1
    assert (M - M).is_zero
    assert not M.is_rational
    assert RhoLedger.of_rational(Fraction(1)).is_rational


def test_evaluate_full_and_partial():
    a = rho0_atom(as_expr(TREFOIL))
    b = rho1_atom(K9_46)
    M = RhoLedger.of_atom(b) - RhoLedger.of_atom(a)
    partial = evaluate(M, {a: Fraction(-4, 3)})
    assert not partial.is_resolved
    assert str(partial.residual) == "rho1(9_46)"
    assert partial.resolved.lo == Fraction(4, 3)
    full = evaluate(M, {a: Fraction(-4, 3), b: Fraction(8, 3)})
    assert full.is_resolved
    assert full.resolved.lo == Fraction(4)
    assert full.certified_nonzero()
    assert not full.is_exact_zero
    zero = evaluate(RhoLedger.zero(), {})
    assert zero.is_exact_zero


def test_ledger_linearity_random():
    rng = random.Random(89)
    pool = (
        rho0_atom(as_expr(TREFOIL)),
        rho0_atom(as_expr(FIGURE_EIGHT)),
        rho1_atom(K9_46),
        rho_sub_atom(K9_46, (Fraction(-2), Fraction(1))),
    )

    def rand_ledger():
        L = RhoLedger.of_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for atom in pool:
            if rng.random() < 0.6:
                L = L + RhoLedger.of_atom(atom) * Fraction(rng.randint(-3, 3))
        return L

    values = {atom: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for atom in pool}
    for _ in range(150):
        L1, L2 = rand_ledger(), rand_ledger()
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        v1 = evaluate(L1, values).resolved.lo
        v2 = evaluate(L2, values).resolved.lo
        combo = evaluate(L1 * c + L2, values)
        assert combo.is_resolved
        assert combo.resolved.lo == c * v1 + v2


# ---------------------------------------------------------------------------
# First-order signature sets


def test_fos_atom_is_symbolic():
    fs = first_order_signatures(TREFOIL)
    assert [(str(e.submodule), str(e.ledger)) for e in fs.entries] == [
        ("S[1]", "rho1(trefoil)"),
    ]


def test_fos_j1_frozen():
    fs = first_order_signatures(J(1))
    assert [(str(e.submodule), str(e.ledger)) for e in fs.entries] == [
        ("S[1]", "rho1(9_46) + 2*rho0(trefoil)"),
        ("S[t - 2]", "rho0(trefoil)"),
        ("S[t - 1/2]", "rho0(trefoil)"),
    ]
    assert [(str(a), str(e)) for a, e in fs.context] == [("rho0(trefoil)", "trefoil")]


def test_fos_j2_and_deeper_frozen():
    for n in (2, 3, 4):
        fs = first_order_signatures(J(n))
        assert [str(e.ledger) for e in fs.entries] == ["rho1(9_46)", "0", "0"], n


def test_fos_fig8_doubling_frozen():
    e = infect(FIG8_DOUBLING, {"a": TREFOIL, "b": TREFOIL})
    fs = first_order_signatures(e)
    assert [(str(x.submodule), str(x.ledger)) for x in fs.entries] == [
        ("S[1]", "2*rho0(trefoil)"),
    ]
    # with distinct inputs both appear
    e2 = infect(FIG8_DOUBLING, {"a": TREFOIL, "b": FIGURE_EIGHT})
    (entry,) = first_order_signatures(e2).entries
    assert str(entry.ledger) == "rho0(trefoil) + rho0(figure-eight)"


def test_fos_atom_inputs_stay_symbolic():
    # top-level knot inputs keep symbolic rho0 atoms (resolution happens at
    # evaluation time); nested infection inputs collapse to exact zeros as
    # soon as their solvability level certifies the vanishing
    e = infect(R946_DOUBLING, {"alpha": UNKNOT, "beta": FIGURE_EIGHT})
    fs = first_order_signatures(e)
    assert [str(x.ledger) for x in fs.entries] == [
        "rho1(9_46) + rho0(unknot) + rho0(figure-eight)",
        "rho0(figure-eight)",
        "rho0(unknot)",
    ]
    nested = first_order_signatures(J(2, UNKNOT))
    assert [str(x.ledger) for x in nested.entries] == ["rho1(9_46)", "0", "0"]


def test_fos_rejects_sums():
    with pytest.raises(ValueError):
        first_order_signatures(as_expr(TREFOIL) + as_expr(TREFOIL))


def test_infection_preserves_zero_order_invariants_random():
    # the infected knot keeps the base's Seifert form, hence all zero-order
    # invariants; inputs only move the higher-order terms
    rng = random.Random(97)
    for _ in range(100):
        base = (K9_46, FIGURE_EIGHT)[rng.randrange(2)]
        tpl = Template(
            "rand_op",
            base,
            (Site("a", (1, 0)), Site("b", (0, 1))),
        )
        inp_a = random_seifert(rng, rng.choice((1, 2)))
        inp_b = random_seifert(rng, 1)
        e = infect(tpl, {"a": inp_a, "b": inp_b})
        V = seifert_of(e)
        assert alexander_polynomial(V) == alexander_polynomial(base)
        assert arf_of(e) == arf(base)
        assert signature_profile(V).arc_values == signature_profile(base).arc_values
        r_base, r_inf = rho0(base), rho0_of(e)
        assert r_base.value == r_inf.value and r_base.error_bound == r_inf.error_bound


# ---------------------------------------------------------------------------
# Solvability


def test_solvability_frozen_table():
    assert str(solvability_lower_bound(as_expr(UNKNOT))) == "slice"
    assert str(solvability_lower_bound(as_expr(K9_46))) == "slice"
    assert str(solvability_lower_bound(as_expr(TREFOIL))) == "none"
    assert str(solvability_lower_bound(as_expr(FIGURE_EIGHT))) == "none"
    # arf-0 seed: J_n is n-solvable; slice seed: every level stays slice
    seed = SeifertMatrix(K9_46.entries)  # same form, no slice hint
    assert arf(seed) == 0
    for n in range(5):
        assert solvability_lower_bound(J(n, seed)) == SolvLevel.of(n)
        assert str(solvability_lower_bound(J(n, UNKNOT))) == ("slice" if n >= 0 else "")
    # arf-1 seed loses one level at the bottom
    assert solvability_lower_bound(J(1)) == SolvLevel.of(0)
    assert solvability_lower_bound(J(3)) == SolvLevel.of(2)


def test_solvability_of_sums():
    s = as_expr(UNKNOT) + as_expr(K9_46)
    assert str(solvability_lower_bound(s)) == "slice"
    mixed = as_expr(TREFOIL) + as_expr(UNKNOT)
    assert str(solvability_lower_bound(mixed)) == "none"


def test_solv_level_ordering():
    assert SolvLevel.none() < SolvLevel.of(0) < SolvLevel.of(3) < SolvLevel.slice_level()
    assert SolvLevel.of(2).integer == 2
    assert SolvLevel.slice_level().integer is None


def test_deep_towers_fold_without_recursion():
    seed = connected_sum(TREFOIL, TREFOIL)
    assert arf(seed) == 0
    J500 = iterate_operator(R946_DOUBLING, 500, seed)
    assert solvability_lower_bound(J500) == SolvLevel.of(500)
    assert rho0_multiplicity_bound(J500) == 2**500
    J5000 = iterate_operator(R946_DOUBLING, 5000, seed)
    assert solvability_lower_bound(J5000) == SolvLevel.of(5000)
    assert rho0_multiplicity_bound(J5000) == 2**5000
    # values kept on the nodes are reused, and a later sum sees them
    assert str(solvability_lower_bound(J500 + as_expr(TREFOIL))) == "none"
    assert str(solvability_lower_bound(J500 + as_expr(UNKNOT))) == "500"


def test_rho0_multiplicity_bound_frozen():
    for n in range(6):
        assert rho0_multiplicity_bound(J(n)) == 2 ** n
    assert rho0_multiplicity_bound(as_expr(TREFOIL)) == 1
    with pytest.raises(ValueError):
        rho0_multiplicity_bound(as_expr(TREFOIL) + as_expr(TREFOIL))
