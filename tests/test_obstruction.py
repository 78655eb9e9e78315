"""Obstruction verdicts: first-order signature checks, iterated doubles,
infinite-order towers, torsion multiples, independence, and certificate
replay."""

import dataclasses
import random
from fractions import Fraction

import pytest

from concord.infection import (
    FIG8_DOUBLING,
    R946_DOUBLING,
    RhoLedger,
    Site,
    Template,
    as_expr,
    infect,
    iterate_operator,
    rho0_atom,
    rho1_atom,
)
from concord.intervals import RatInterval
from concord.obstruction import (
    CONDITIONAL,
    CONSISTENT,
    OBSTRUCTED,
    RHO1_9_46,
    Assignment,
    HypothesisFailed,
    Verdict,
    check_doubling_tower,
    check_first_order_signatures,
    check_infinite_order,
    check_iterated_double,
    check_torsion,
    doubling_tower_constant,
    independence_check,
    tower_split,
    verify_certificate,
)
from concord.seifert import FIGURE_EIGHT, K9_46, TREFOIL, UNKNOT, SeifertMatrix, rho0

from test_seifert import random_seifert


def J(n, seed=TREFOIL):
    return iterate_operator(R946_DOUBLING, n, seed)


FIG8_TT = infect(FIG8_DOUBLING, {"a": TREFOIL, "b": TREFOIL})


# ---------------------------------------------------------------------------
# Assignment


def test_assignment_normalization():
    a = rho0_atom(as_expr(TREFOIL))
    asg = Assignment({a: RatInterval.point(Fraction(-4, 3))})
    assert a in asg
    assert asg[a] == Fraction(-4, 3)  # point intervals collapse to rationals
    asg2 = Assignment({a: RatInterval(Fraction(-3, 2), Fraction(-1))})
    assert isinstance(asg2[a], RatInterval)
    assert len(asg2) == 1
    with pytest.raises(TypeError):
        Assignment({"rho0(trefoil)": Fraction(1)})


def test_assignment_accepts_rho0_results():
    a = rho0_atom(as_expr(TREFOIL))
    asg = Assignment({a: rho0(TREFOIL)})
    assert isinstance(asg[a], RatInterval)
    assert asg[a].contains(Fraction(-4, 3))


# ---------------------------------------------------------------------------
# First-order signature check


def test_check_fos_obstructed_fig8_doubling():
    v = check_first_order_signatures(FIG8_TT)
    assert v.status == OBSTRUCTED
    assert v.theorem == "fos"
    assert "certified nonzero" in v.summary
    assert v.conditions == ()
    assert verify_certificate(v)


def test_check_fos_consistent_on_slice_seed():
    v = check_first_order_signatures(J(1, UNKNOT))
    assert v.status == CONSISTENT
    assert verify_certificate(v)


def test_check_fos_conditional_j1_trefoil():
    v = check_first_order_signatures(J(1))
    assert v.status == CONDITIONAL
    assert len(v.conditions) == 1
    assert v.conditions[0].startswith("rho1(9_46) = 8/3 (within ")
    assert verify_certificate(v)


def test_check_fos_with_rho1_assigned():
    # rho1 = 0 makes every entry certified nonzero
    v0 = check_first_order_signatures(J(1), Assignment({RHO1_9_46: Fraction(0)}))
    assert v0.status == OBSTRUCTED
    # rho1 = 8/3 puts the first entry inside an interval around zero
    v1 = check_first_order_signatures(
        J(1), Assignment({RHO1_9_46: Fraction(8, 3)})
    )
    assert v1.status == CONDITIONAL
    assert any("rho1(9_46) + 2*rho0(trefoil) = 0" in c for c in v1.conditions)


def test_verdict_str_layout():
    v = check_first_order_signatures(FIG8_TT)
    s = str(v)
    assert s.startswith("OBSTRUCTED [fos] ")
    assert "  | entries: 1" in s


# ---------------------------------------------------------------------------
# Iterated double (j2)


def test_check_j2_zero_is_consistent():
    v = check_iterated_double(Fraction(0))
    assert v.status == CONSISTENT
    assert verify_certificate(v)


def test_check_j2_unassigned_rho1_is_conditional():
    v = check_iterated_double(Fraction(-4, 3))
    assert v.status == CONDITIONAL
    assert v.conditions == ("rho1(9_46) = 8/3",)
    assert "rho1(9_46): unassigned" in v.certificate
    assert verify_certificate(v)


def test_check_j2_rho1_zero_obstructs():
    v = check_iterated_double(
        Fraction(-4, 3), Assignment({RHO1_9_46: Fraction(0)})
    )
    assert v.status == OBSTRUCTED
    assert "membership (primary): no" in v.certificate
    assert "membership (mirror): no" in v.certificate
    assert verify_certificate(v)


def test_check_j2_matching_rho1_is_consistent():
    v = check_iterated_double(
        Fraction(-4, 3), Assignment({RHO1_9_46: Fraction(8, 3)})
    )
    assert v.status == CONSISTENT
    assert "membership (primary): yes" in v.certificate
    # the mirror convention accepts the opposite sign
    vm = check_iterated_double(
        Fraction(4, 3), Assignment({RHO1_9_46: Fraction(8, 3)})
    )
    assert vm.status == CONSISTENT
    assert "membership (mirror): yes" in vm.certificate
    assert verify_certificate(v) and verify_certificate(vm)


def test_check_j2_interval_near_zero_forces_conditions():
    v = check_iterated_double(RatInterval(Fraction(-1, 10 ** 9), Fraction(1, 10 ** 9)))
    assert v.status == CONDITIONAL
    assert "rho0(K) = 0" in v.conditions


# ---------------------------------------------------------------------------
# Infinite-order towers (main)


def test_check_main_obstructed():
    v = check_infinite_order(J(2), k_rho0=Fraction(4, 3), bound=Fraction(1))
    assert v.status == OBSTRUCTED
    assert "tower depth: 2" in v.certificate
    assert "seed: trefoil" in v.certificate
    assert "C: 1" in v.certificate
    assert verify_certificate(v)


def test_check_main_consistent_at_zero():
    v = check_infinite_order(J(2), k_rho0=Fraction(0), bound=Fraction(1))
    assert v.status == CONSISTENT
    assert verify_certificate(v)


def test_check_main_conditional_without_bound():
    v = check_infinite_order(J(2), k_rho0=Fraction(4, 3))
    assert v.status == CONDITIONAL
    assert v.conditions == ("|rho0(K)| > C",)
    assert "C: unassigned" in v.certificate
    assert verify_certificate(v)


def test_check_main_auto_computes_seed_rho0():
    v = check_infinite_order(J(2), bound=Fraction(1))
    assert v.status == OBSTRUCTED  # |rho0(trefoil)| = 4/3 > 1
    assert verify_certificate(v)


def test_check_main_rejects_negative_bound():
    with pytest.raises(ValueError):
        check_infinite_order(J(2), k_rho0=Fraction(1), bound=Fraction(-1))


def test_tower_split():
    templates, seed = tower_split(J(3))
    assert len(templates) == 3
    assert all(t is R946_DOUBLING for t in templates)
    assert str(seed) == "trefoil"
    none, atom = tower_split(as_expr(TREFOIL))
    assert none == () and str(atom) == "trefoil"


# ---------------------------------------------------------------------------
# Doubling-tower constant and check (main3)


def test_doubling_tower_constant_frozen():
    assert doubling_tower_constant(n=3, m=2, unit_bound=Fraction(1)) == 7
    assert doubling_tower_constant(n=2, m=2, unit_bound=Fraction(1)) == 3
    assert doubling_tower_constant(n=4, m=3, unit_bound=Fraction(1, 2)) == 20
    assert doubling_tower_constant(n=5, m=1, unit_bound=Fraction(2)) == 10
    assert doubling_tower_constant((R946_DOUBLING, R946_DOUBLING)) == 3
    with pytest.raises(ValueError):
        doubling_tower_constant(n=0, m=2)
    with pytest.raises(ValueError):
        doubling_tower_constant(n=2, m=0)


def test_check_main3_boundary_is_strict():
    towers = (R946_DOUBLING, R946_DOUBLING)
    const = doubling_tower_constant(towers, unit_bound=Fraction(1))
    assert const == 3
    at = check_doubling_tower(towers, UNKNOT, k_rho0=Fraction(3), unit_bound=Fraction(1))
    assert at.status == CONSISTENT  # |rho0| equal to the constant is not enough
    above = check_doubling_tower(
        towers, UNKNOT, k_rho0=Fraction(3) + Fraction(1, 10 ** 12),
        unit_bound=Fraction(1),
    )
    assert above.status == OBSTRUCTED
    below = check_doubling_tower(towers, UNKNOT, k_rho0=Fraction(-5, 2),
                                 unit_bound=Fraction(1))
    assert below.status == CONSISTENT
    assert verify_certificate(at) and verify_certificate(above)
    assert "constant: 3" in above.certificate


def test_check_main3_conditional_without_unit_bound():
    v = check_doubling_tower((R946_DOUBLING,) * 2, UNKNOT, k_rho0=Fraction(4))
    assert v.status == CONDITIONAL
    assert v.conditions == ("|rho0(K)| > 3 * C'",)
    assert verify_certificate(v)


def test_check_main3_hypothesis_arf():
    with pytest.raises(HypothesisFailed) as exc:
        check_doubling_tower((R946_DOUBLING,), TREFOIL, k_rho0=Fraction(4),
                             unit_bound=Fraction(1))
    assert exc.value.which == "arf"


def test_check_main3_hypothesis_slice():
    unflagged = Template(
        "noslice", K9_46, (Site("alpha", (1, 0)), Site("beta", (0, 1)))
    )
    with pytest.raises(HypothesisFailed) as exc:
        check_doubling_tower((unflagged,), UNKNOT, k_rho0=Fraction(4),
                             unit_bound=Fraction(1))
    assert exc.value.which == "slice"


def test_check_main3_hypothesis_blanchfield():
    # a single self-annihilating site: every ordered pair of site classes
    # pairs to zero, so the linking-form hypothesis fails
    lonely = Template("single", K9_46, (Site("alpha", (1, 0)),), slice_flag=True)
    with pytest.raises(HypothesisFailed) as exc:
        check_doubling_tower((lonely,), UNKNOT, k_rho0=Fraction(4),
                             unit_bound=Fraction(1))
    assert exc.value.which == "blanchfield"
    # the two-site template passes: pair(alpha, beta) != 0
    ok = check_doubling_tower((R946_DOUBLING,), UNKNOT, k_rho0=Fraction(4),
                              unit_bound=Fraction(1))
    assert ok.status == OBSTRUCTED


def test_check_main3_auto_seed_rho0():
    v = check_doubling_tower((R946_DOUBLING,) * 2, SeifertMatrix(K9_46.entries),
                             unit_bound=Fraction(1))
    assert v.status == CONSISTENT  # rho0(9_46 pattern) = 0 exactly
    assert verify_certificate(v)


# ---------------------------------------------------------------------------
# Torsion multiples


def test_check_torsion_zero_multiple():
    v = check_torsion(FIG8_TT, 0)
    assert v.status == CONSISTENT
    assert v.certificate == ("multiple: 0",)
    assert verify_certificate(v)


def test_check_torsion_odd_is_arf_obstructed():
    v = check_torsion(FIG8_TT, 3)
    assert v.status == OBSTRUCTED
    assert "parity: odd" in v.certificate
    assert "arf: 1" in v.certificate
    assert verify_certificate(v)


def test_check_torsion_even_delegates_to_tower():
    e = infect(FIG8_DOUBLING, {"a": UNKNOT, "b": UNKNOT})
    v = check_torsion(e, 2, k_rho0=Fraction(100), unit_bound=Fraction(1))
    assert v.status == OBSTRUCTED
    assert "parity: even" in v.certificate
    assert "outer: connected sum of 2 figure-eight patterns, 4 sites, ribbon" \
        in v.certificate
    assert "levels: 1" in v.certificate
    assert "max sites: 4" in v.certificate
    assert "constant: 1" in v.certificate
    assert verify_certificate(v)
    small = check_torsion(e, 2, k_rho0=Fraction(1), unit_bound=Fraction(1))
    assert small.status == CONSISTENT


def test_check_torsion_even_with_inner_tower():
    inner = infect(FIG8_DOUBLING, {"a": J(1, UNKNOT), "b": J(1, UNKNOT)})
    v = check_torsion(inner, 2, k_rho0=Fraction(100), unit_bound=Fraction(1))
    assert v.status == OBSTRUCTED
    assert "levels: 2" in v.certificate
    assert "constant: 5" in v.certificate  # (4^2 - 1)/(4 - 1)
    assert verify_certificate(v)


def _without(v, *prefixes):
    return dataclasses.replace(
        v, certificate=tuple(c for c in v.certificate if not c.startswith(prefixes)))


def _edited(v, old, new):
    return dataclasses.replace(
        v, certificate=tuple(new if c == old else c for c in v.certificate))


def test_replay_rejects_incomplete_fos_certificates():
    v = check_first_order_signatures(FIG8_TT)
    assert verify_certificate(v)
    count = next(c for c in v.certificate if c.startswith("entries: "))
    n = int(count.split(": ")[1])
    assert not verify_certificate(_without(v, "entries:"))
    assert not verify_certificate(_edited(v, count, f"entries: {n + 1}"))
    assert not verify_certificate(_edited(v, count, f"entries: {n - 1}"))
    for i in range(1, n + 1):
        assert not verify_certificate(_without(v, f"entry {i}:"))


def test_replay_rejects_incomplete_tower_certificates():
    main3 = check_doubling_tower([R946_DOUBLING] * 2, UNKNOT, k_rho0=Fraction(4),
                                 unit_bound=Fraction(1, 5))
    inner = infect(FIG8_DOUBLING, {"a": J(1, UNKNOT), "b": J(1, UNKNOT)})
    torsion = check_torsion(inner, 2, k_rho0=Fraction(100), unit_bound=Fraction(1))
    conditional = check_doubling_tower([R946_DOUBLING] * 2, UNKNOT, k_rho0=Fraction(4))
    for v in (main3, torsion, conditional):
        assert verify_certificate(v)
        assert not verify_certificate(_without(v, "arf(seed):"))
        assert not verify_certificate(_edited(v, "arf(seed): 0", "arf(seed): 1"))
        assert not verify_certificate(_without(v, "template "))
        for i in (1, 2):
            assert not verify_certificate(_without(v, f"template {i}:"))
        assert not verify_certificate(_edited(v, "levels: 2", "levels: 1"))
        assert not verify_certificate(_edited(v, "levels: 2", "levels: 3"))


def test_check_torsion_validation():
    with pytest.raises(ValueError):
        check_torsion(FIG8_TT, -1)
    with pytest.raises(ValueError):
        check_torsion(as_expr(TREFOIL), 2)  # not a figure-eight pattern
    mixed = infect(FIG8_DOUBLING, {"a": TREFOIL, "b": UNKNOT})
    with pytest.raises(ValueError):
        check_torsion(mixed, 2)  # inputs must agree


def test_check_torsion_even_arf1_seed_fails_hypothesis():
    with pytest.raises(HypothesisFailed) as exc:
        check_torsion(FIG8_TT, 2, unit_bound=Fraction(1))
    assert exc.value.which == "arf"


# ---------------------------------------------------------------------------
# Independence


def test_independence_frozen():
    L1 = first_ledger(J(1))
    L2 = first_ledger(J(2))
    target_t = RhoLedger.of_atom(rho0_atom(as_expr(TREFOIL)))
    target_8 = RhoLedger.of_atom(rho0_atom(as_expr(FIGURE_EIGHT)))
    assert independence_check([L1, L2], target_t) == (2, True)
    assert independence_check([L1, L2], target_8) == (2, False)
    assert independence_check([], target_t) == (0, False)
    # a zero target asks for linear dependence of the family itself
    zero = RhoLedger.zero()
    assert independence_check([L1, L2], zero) == (2, False)
    assert independence_check([L1, L1], zero) == (1, True)


def first_ledger(e):
    from concord.infection import first_order_signatures

    return first_order_signatures(e).entries[0].ledger


def test_independence_scaling_and_permutation_invariant():
    rng = random.Random(103)
    atoms = (
        rho0_atom(as_expr(TREFOIL)),
        rho0_atom(as_expr(FIGURE_EIGHT)),
        rho1_atom(K9_46),
    )
    for _ in range(100):
        ledgers = []
        for _ in range(rng.randint(1, 4)):
            L = RhoLedger.of_rational(Fraction(rng.randint(-2, 2)))
            for a in atoms:
                L = L + RhoLedger.of_atom(a) * Fraction(rng.randint(-2, 2))
            ledgers.append(L)
        target = RhoLedger.of_atom(atoms[rng.randrange(3)])
        base = independence_check(ledgers, target)
        scaled = [L * Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2)))
                  for L in ledgers]
        assert independence_check(scaled, target) == base
        perm = ledgers[:]
        rng.shuffle(perm)
        assert independence_check(perm, target) == base


# ---------------------------------------------------------------------------
# Certificate replay


def test_verify_certificate_detects_tampering():
    v = check_iterated_double(Fraction(-4, 3), Assignment({RHO1_9_46: Fraction(0)}))
    assert verify_certificate(v)
    # flip the recorded status: replay disagrees
    forged = Verdict(CONSISTENT, v.theorem, v.summary, v.conditions, v.certificate)
    assert not verify_certificate(forged)
    # corrupt a recorded numeric fact: replay fails closed
    cert = tuple(
        line.replace("rho0(K): -4/3", "rho0(K): 0") for line in v.certificate
    )
    assert not verify_certificate(Verdict(v.status, v.theorem, v.summary,
                                          v.conditions, cert))


def test_verify_certificate_unknown_theorem():
    v = Verdict(CONSISTENT, "mystery", "?", (), ("a: b",))
    with pytest.raises(ValueError):
        verify_certificate(v)


def test_certificate_replay_stability_random():
    # replay every verdict produced by randomized scenarios, twice
    rng = random.Random(107)
    verdicts = []
    for _ in range(60):
        k = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if rng.random() < 0.5:
            asg = Assignment({RHO1_9_46: Fraction(rng.randint(-6, 6),
                                                  rng.randint(1, 3))})
        else:
            asg = None
        verdicts.append(check_iterated_double(k, asg))
    for _ in range(40):
        n = rng.randint(1, 4)
        k = Fraction(rng.randint(-40, 40), rng.randint(1, 3))
        cprime = rng.choice((None, Fraction(1), Fraction(3, 2)))
        verdicts.append(
            check_doubling_tower((R946_DOUBLING,) * n, UNKNOT,
                                 k_rho0=k, unit_bound=cprime)
        )
    for _ in range(40):
        k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        bound = rng.choice((None, Fraction(1), Fraction(7, 5)))
        verdicts.append(check_infinite_order(J(1), k_rho0=k, bound=bound))
    assert len(verdicts) >= 100
    for v in verdicts:
        assert verify_certificate(v)
        assert verify_certificate(v)  # idempotent
        assert v.status in (OBSTRUCTED, CONSISTENT, CONDITIONAL)
