"""The operations of each workload, as calls into concord's public API.

Each workload gives `warm_up(tr)`, which returns the matrices it touched so
that no measured input repeats them, and `round(gen, r, tr)`, which returns
the round's operations as (description, thunk) pairs.  A thunk returns
plain data (ints, Fractions, strings) for the independent checks in
checks.py; descriptions say what the checks need to know about the input.
Every public call goes through `tr.call` under the name `<module>.<function>`.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from concord import (
    FIG8_DOUBLING,
    FIGURE_EIGHT,
    K9_46,
    R946_DOUBLING,
    RHO1_9_46,
    TREFOIL,
    UNKNOT,
    Assignment,
    HypothesisFailed,
    RhoLedger,
    SeifertMatrix,
    Site,
    Template,
    alexander_polynomial,
    arf,
    blanchfield_pair,
    check_doubling_tower,
    check_first_order_signatures,
    check_infinite_order,
    check_iterated_double,
    check_torsion,
    first_order_signatures,
    fox_milnor_test,
    independence_check,
    is_isotropic,
    is_metabolizer,
    iterate_operator,
    module_from_seifert,
    orthogonal,
    rho0,
    rho0_multiplicity_bound,
    rho1_atom,
    signature_profile,
    solvability_lower_bound,
    submodule_lattice,
    submodule_spanned_by,
    verify_certificate,
)
from concord import cli
from concord.catalog import loads

import gen

# ---------------------------------------------------------------------------
# zero_order: Sturm, Hermitian signature and certified interval kernels

ZO_TOLS = (9, 30, 60)  # tol = 10^-k
ZO_BOUND = {1: 6, 2: 2, 3: 1, 4: 1}  # entry range of the random matrices
ZO_JUMPS = 1  # signature jumps on the upper semicircle, for every genus


def _zo_call(tr, entries, tol_exp):
    V = SeifertMatrix(entries)
    tol = Fraction(1, 10**tol_exp)
    delta = tr.call("seifert.alexander_polynomial", alexander_polynomial, V)
    a = tr.call("seifert.arf", arf, V)
    prof = tr.call("seifert.signature_profile", signature_profile, V)
    fm = tr.call("seifert.fox_milnor_test", fox_milnor_test, V)
    r = tr.call("seifert.rho0", rho0, V, tol)
    if not r.is_exact:
        tr.sample("seifert.rho0.overshoot_bits", math.log2(tol / r.error_bound))
    return {
        "alexander": dict(delta.coeffs),
        "arf": a,
        "jumps": prof.jump_count,
        "at_minus_one": prof.value_at_minus_one,
        "rho0": r.value,
        "err": r.error_bound,
        "exact": r.is_exact,
        "fox_milnor": fm,
    }


def zero_order_warm_up(tr):
    for V in (TREFOIL, FIGURE_EIGHT):
        _zo_call(tr, V.entries, 9)
    return {TREFOIL.entries, FIGURE_EIGHT.entries}


def zero_order_round(g_, r, tr):
    """Per genus 1-4 and per tolerance: a square-free matrix with a fixed
    number of signature jumps, and (below 1e-60) its mirror; plus
    V # mirror(V) for the round's first genus-1 and genus-2 matrices."""
    panel, rng = g_.panel(), g_.rng(r)
    ops = []
    firsts = {}
    for g in (1, 2, 3, 4):
        for k in ZO_TOLS:
            base = g_.draw(
                panel, g, ZO_BOUND[g],
                lambda V, P: gen.is_square_free(P) and gen.upper_circle_roots(P) == ZO_JUMPS,
                f"zero_order.g{g}",
            )
            V = g_.fresh(rng, base)
            M = gen.mirror_entries(V)
            g_.seen.add(M)
            firsts.setdefault(g, V)
            pair = f"{r}.{g}.{k}"
            # the mirror op repeats the interval work of V; at 1e-60 that
            # would double the round's cost, so mirrors run at 1e-9 and 1e-30
            for role, E in (("V", V), ("mirror", M))[: 1 if k == 60 else 2]:
                ops.append(({"role": role, "pair": pair, "V": E, "tol_exp": k},
                            lambda E=E, k=k: _zo_call(tr, E, k)))
    for g in (1, 2):
        S = gen.block_sum(firsts[g], gen.mirror_entries(firsts[g]))
        g_.seen.add(S)
        ops.append(({"role": "sum", "V": S, "tol_exp": 9}, lambda S=S: _zo_call(tr, S, 9)))
    rng.shuffle(ops)  # spread each kind of operation over the round's time
    return ops


# ---------------------------------------------------------------------------
# modules: the Q(t) linear algebra behind the Blanchfield form

MOD_BOUND = {2: 2, 3: 1, 4: 1}


def _bf_value(v):
    return (list(v.num), list(v.den))


def _mod_call(tr, entries, x, y):
    V = SeifertMatrix(entries)
    m = tr.call("blanchfield.module_from_seifert", module_from_seifert, V)
    lattice = tr.call("blanchfield.submodule_lattice", submodule_lattice, m)
    subs = []
    for S in lattice:
        iso = tr.call("blanchfield.is_isotropic", is_isotropic, m, S)
        met = tr.call("blanchfield.is_metabolizer", is_metabolizer, m, S)
        perp = tr.call("blanchfield.orthogonal", orthogonal, m, S)
        subs.append({"divisor": list(S.divisor), "isotropic": iso, "metabolizer": met,
                     "orthogonal": list(perp.divisor)})
    span = tr.call("blanchfield.submodule_spanned_by", submodule_spanned_by, m, [x])
    pxy = tr.call("blanchfield.blanchfield_pair", blanchfield_pair, m, x, y)
    pyx = tr.call("blanchfield.blanchfield_pair", blanchfield_pair, m, y, x)
    return {
        "order": list(m.order_poly),
        "factors": [list(f) for f in m.factors],
        "subs": subs,
        "span": list(span.divisor),
        "pxy": _bf_value(pxy),
        "pyx": _bf_value(pyx),
    }


def modules_warm_up(tr):
    _mod_call(tr, FIGURE_EIGHT.entries, (1, 0), (0, 1))
    return {FIGURE_EIGHT.entries, TREFOIL.entries, K9_46.entries}


def _irreducible_count(P):
    import sympy  # already loaded by concord; used here for input selection only

    t = sympy.Symbol("t")
    _, facs = sympy.Poly([sympy.Rational(c) for c in reversed(P)], t).factor_list()
    return len(facs)


def _genus1_sum(rng, count):
    """Block sum of `count` genus-1 knots with distinct irreducible orders,
    so the order has exactly `count` factors."""
    V = ()
    for a in rng.sample(gen.GENUS1_IRREDUCIBLE, count):
        V = gen.block_sum(V, gen.genus1_with_det(rng, a))
    return V


def modules_round(g_, r, tr):
    """Random square-free, irreducible matrices of genus 2, 3 and 4, and
    block sums of 2 and 3 genus-1 knots (lattices of 4 and 8 submodules)."""
    panel, rng = g_.panel(), g_.rng(r)
    bases = []
    for g in (2, 3, 4):
        bases.append((g, g_.draw(panel, g, MOD_BOUND[g],
                                 lambda V, P: gen.is_square_free(P) and _irreducible_count(P) == 1,
                                 f"modules.g{g}")))
    for count in (2, 3):
        bases.append((f"sum{count}", _genus1_sum(panel, count)))
    out = []
    for kind, base in bases:
        V = g_.fresh(rng, base)
        n = len(V)
        x = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n))
        y = tuple(rng.choice([-2, -1, 0, 1, 2]) for _ in range(n))
        out.append(({"kind": kind, "V": V, "x": x, "y": y},
                    lambda V=V, x=x, y=y: _mod_call(tr, V, x, y)))
    rng.shuffle(out)  # spread each kind of operation over the round's time
    return out


# ---------------------------------------------------------------------------
# towers: infection trees over a shared DAG, and the verdict layer

TOL = Fraction(1, 10**9)
# every family at depths 1-10, R946_op also at 11 and 12: a round of about
# 10 s, so a run holds two or more of them
SLOTS = tuple((n, f) for n in range(1, 11) for f in range(3)) + ((11, 0), (12, 0))
FAMILIES = ("R946_op", "fig8_op", "random")
SEEDS_BY_ARF = (("unknot", "T2", "T4", "mT2", "mT4"), ("T1", "T3", "mT1", "mT3", "figure-eight"))
RANDOM_BASE_DETS = (-2, -6)  # even: Arf 0; negative: no jumps; reducible: 4 submodules
SPLIT_FAULT_BASE, SPLIT_FAULT_DET = ((5, 3), (2, 0)), -6


def seed_matrix(name):
    if name == "unknot":
        return UNKNOT
    if name == "figure-eight":
        return FIGURE_EIGHT
    mirrored = name.startswith("m")
    return SeifertMatrix(gen.trefoil_sum(int(name[-1]), mirrored), name=name)


def _tower_call(tr, tpl, n, seed, p, ledgers):
    seedV = seed_matrix(seed)
    J = tr.call("infection.iterate_operator", iterate_operator, tpl, n, seedV)
    fs = tr.call("infection.first_order_signatures", first_order_signatures, J)
    ledgers.append(fs.entries[0].ledger)
    level = tr.call("infection.solvability_lower_bound", solvability_lower_bound, J)
    mult = tr.call("infection.rho0_multiplicity_bound", rho0_multiplicity_bound, J)
    fp = tr.call("infection.fingerprint", J.fingerprint)
    disp = tr.call("infection.display", J.display)
    A = Assignment({RHO1_9_46: p["rho1"]})
    verdicts = {}
    verdicts["fos"] = tr.call("obstruction.check_first_order_signatures",
                              check_first_order_signatures, J, A, TOL)
    k = tr.call("seifert.rho0", rho0, seedV, TOL)
    verdicts["j2"] = tr.call("obstruction.check_iterated_double", check_iterated_double, k, A)
    verdicts["main"] = tr.call("obstruction.check_infinite_order", check_infinite_order,
                               J, bound=p["C"], tol=TOL)
    try:
        verdicts["main3"] = tr.call("obstruction.check_doubling_tower", check_doubling_tower,
                                    [tpl] * n, seedV, unit_bound=p["Cprime"], tol=TOL)
    except HypothesisFailed as ex:
        verdicts["main3"] = "hypothesis:" + ex.which
    if tpl is FIG8_DOUBLING:
        verdicts["torsion"] = tr.call("obstruction.check_torsion", check_torsion,
                                      J, p["multiple"], tol=TOL)
    out = {
        "level": str(level),
        "multiplicity": mult,
        "ledgers": [str(e.ledger) for e in fs.entries],
        "fingerprint": fp,
        "display": disp,
        "status": {},
        "replay": {},
    }
    for name, v in verdicts.items():
        if isinstance(v, str):
            out["status"][name] = v
            continue
        out["status"][name] = v.status
        out["replay"][name] = tr.call("obstruction.verify_certificate", verify_certificate, v)
    return out


def _independence_call(tr, ledgers, target):
    rank, in_span = tr.call("obstruction.independence_check", independence_check,
                            list(ledgers), RhoLedger.of_atom(target))
    return {"rank": rank, "in_span": in_span}


def _deep_call(tr):
    """Kept fault: the recursive walks overflow the stack on a depth-500 tower."""
    J = iterate_operator(R946_DOUBLING, 500, seed_matrix("T2"))
    try:
        level = tr.call("infection.solvability_lower_bound", solvability_lower_bound, J)
        mult = tr.call("infection.rho0_multiplicity_bound", rho0_multiplicity_bound, J)
    except RecursionError:
        return {"fault": "RecursionError on a depth-500 tower"}
    return {"level": str(level), "multiplicity": mult}


def _truncated_cert_call(tr):
    """Kept fault: replay accepts certificates with their completeness facts
    dropped.  The op expects every truncated certificate to be rejected."""
    seedV = seed_matrix("T2")
    J = iterate_operator(R946_DOUBLING, 1, seedV)
    A = Assignment({RHO1_9_46: Fraction(1)})
    fos = tr.call("obstruction.check_first_order_signatures",
                  check_first_order_signatures, J, A, TOL)
    main3 = tr.call("obstruction.check_doubling_tower", check_doubling_tower,
                    [R946_DOUBLING] * 2, seedV, unit_bound=Fraction(1, 5), tol=TOL)
    cut = {
        "fos": dataclasses.replace(fos, certificate=tuple(
            c for c in fos.certificate if not c.startswith("entries:"))),
        "main3": dataclasses.replace(main3, certificate=tuple(
            c for c in main3.certificate
            if not c.startswith(("arf(seed)", "template ")))),
    }
    accepted = [k for k, v in cut.items()
                if tr.call("obstruction.verify_certificate", verify_certificate, v)]
    if accepted:
        return {"fault": "replay accepted truncated certificates: " + ", ".join(accepted)}
    return {"rejected": sorted(cut)}


def _split_module_call(tr):
    """Kept fault: module_from_seifert fails its own generator assertion on
    a genus-1 base whose summed generator misses a component
    (gen.summed_generator_misses).  The random templates leave such bases
    out, since which ones a run draws depends on the seed; this fixed one
    keeps the fault in every round."""
    V = SeifertMatrix(SPLIT_FAULT_BASE, name="split_fault")
    try:
        m = tr.call("blanchfield.module_from_seifert", module_from_seifert, V)
    except AssertionError:
        return {"fault": "module_from_seifert fails its generator assertion"}
    return {"factors": len(m.factors), "generator": [dict(c.coeffs) for c in m.generator]}


def towers_warm_up(tr):
    J = iterate_operator(R946_DOUBLING, 1, K9_46)
    check_first_order_signatures(J)
    solvability_lower_bound(J)
    args = cli._build_parser().parse_args(["solvable", "9_46", "--format", "json"])
    cli.render(cli.run(args), "json")
    return set()


def random_template(rng, r):
    a = rng.choice(RANDOM_BASE_DETS)
    while True:
        V = gen.genus1_with_det(rng, a)
        if not gen.summed_generator_misses(V, a):
            break
    base = SeifertMatrix(V, name=f"rt{r}")
    tpl = Template(name=f"rt{r}_op", base=base,
                   sites=(Site("u", (1, 0)), Site("v", (0, 1))), slice_flag=True)
    return tpl, a


def towers_round(g_, r, tr):
    """Every family at depths 1-10 and R946_op at 11 and 12, so each round
    costs the same; the random template and the constants are drawn from
    the run seed, the seed knots are fixed by depth, family and round.
    Then one independence check per family, the two kept-fault operations,
    and the command-line layer in process: the seven subcommands in text
    and json over a seeded catalog of such towers, plus one repeated
    invocation."""
    rng = g_.rng(r)
    tpl_random, a = random_template(rng, r)
    templates = {"R946_op": R946_DOUBLING, "fig8_op": FIG8_DOUBLING, "random": tpl_random}
    targets = {"R946_op": RHO1_9_46, "fig8_op": rho1_atom(FIGURE_EIGHT),
               "random": rho1_atom(tpl_random.base)}
    ledgers = {f: [] for f in FAMILIES}
    ops = []
    for n, f in SLOTS:
        family = FAMILIES[f]
        # the seed knot sets part of the cost (Arf-1 seeds skip the main3
        # pairings), so it is fixed by depth, family and round, the same
        # for every run seed
        seed = SEEDS_BY_ARF[(n + f) % 2][(n + 2 * f + r) % 5]
        p = {
            "rho1": rng.choice(gen.RHO1_VALUES),
            "C": rng.choice(gen.C_VALUES),
            "Cprime": Fraction(rng.choice((1, 3, 5)), 2**n),
            "multiple": rng.choice((1, 3, 5)),
        }
        desc = {"kind": "tower", "family": family, "n": n, "seed": seed,
                "base_det": a, "base_name": tpl_random.base.name, **p}
        ops.append((desc, lambda t=templates[family], n=n, s=seed, p=p, L=ledgers[family]:
                    _tower_call(tr, t, n, s, p, L)))
    rng.shuffle(ops)  # spread each depth over the round's time
    for family in FAMILIES:
        members = [(d["n"], d["seed"]) for d, _ in ops if d.get("family") == family]
        ops.append(({"kind": "independence", "family": family, "members": members},
                    lambda L=ledgers[family], t=targets[family]: _independence_call(tr, L, t)))
    ops.append(({"kind": "deep500"}, lambda: _deep_call(tr)))
    ops.append(({"kind": "truncated_cert"}, lambda: _truncated_cert_call(tr)))
    ops.append(({"kind": "split_module", "V": SPLIT_FAULT_BASE, "det": SPLIT_FAULT_DET},
                lambda: _split_module_call(tr)))
    path = cli_catalog_path(g_.seed)
    offset = len(ops)
    for desc, argv in gen.cli_round(g_.seed, r, path):
        if "repeat_of" in desc:
            desc["repeat_of"] += offset
        ops.append(({"kind": "cli", **desc}, lambda argv=argv: _cli_call(tr, argv, path)))
    return ops


# ---------------------------------------------------------------------------
# the command-line layer, in process: catalog parser, commands and renderer

CLI_WORK = "perfbench/.work"


def cli_catalog_path(seed):
    return f"{CLI_WORK}/cli_{seed}.cat"


def _cli_call(tr, argv, catalog_path):
    with open(catalog_path, encoding="utf-8") as fh:
        text = fh.read()
    tr.call("catalog.loads", loads, text, catalog_path)
    args = cli._build_parser().parse_args(argv)
    report = tr.call("cli.run", cli.run, args)
    return {"stdout": tr.call("cli.render", cli.render, report, args.format)}


WORKLOADS = {
    "zero_order": (zero_order_warm_up, zero_order_round),
    "modules": (modules_warm_up, modules_round),
    "towers": (towers_warm_up, towers_round),
}


def cache_info():
    return {
        "signature_profile": signature_profile.cache_info()._asdict(),
        "module_from_seifert": module_from_seifert.cache_info()._asdict(),
    }
