"""Independent checks of the program's outputs.

Each check is built from the benchmark's own exact arithmetic (gen.py),
numpy floating point, sympy's rational functions, or closed forms known for
the inputs; none of them compares against a stored copy of an earlier
output.  `check(workload, items)` takes [(description, output)] and returns
a list of error strings; `self_test(workload, items)` perturbs one output
and confirms that the check catches it.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import mpmath
import numpy as np
import sympy

import gen

T = sympy.Symbol("t")
DENSE_SAMPLES = 4096  # midpoint rule: error <= sum of jump sizes / (2 * samples)
DENSE_TOL = 1e-3


# ---------------------------------------------------------------------------
# Oracles


def signature_of_symmetrized(V):
    """Signature of V + V^T, by numpy eigendecomposition."""
    A = np.array(V, dtype=float)
    if A.size == 0:
        return 0
    e = np.linalg.eigvalsh(A + A.T)
    return int(np.sum(e > 1e-9) - np.sum(e < -1e-9))


def dense_circle_average(V, n=DENSE_SAMPLES):
    """Midpoint average over theta in (0, pi) of the signature of
    (1 - w) V + (1 - conj w) V^T, w = exp(i theta)."""
    A = np.array(V, dtype=complex)
    if A.size == 0:
        return 0.0
    w = np.exp(1j * (np.arange(n) + 0.5) * (np.pi / n))
    B = (1 - w)[:, None, None] * A[None] + (1 - np.conj(w))[:, None, None] * A.T[None]
    e = np.linalg.eigvalsh(B)
    return float(np.mean(np.sum(e > 1e-9, axis=1) - np.sum(e < -1e-9, axis=1)))


def rho0_one_jump(V):
    """rho0 to about 80 digits for a matrix whose Alexander polynomial has a
    single distinct root exp(i theta) on the open upper semicircle: the
    signature is 0 up to theta and sigma = signature(V + V^T) after it, so
    the circle average is sigma (1 - theta / pi).  theta comes from mpmath's
    polynomial roots at 100 digits."""
    sigma = signature_of_symmetrized(V)
    if sigma == 0:
        return Fraction(0)
    P = gen.alexander_coeffs(V)
    with mpmath.workdps(100):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in reversed(P)],
                                 maxsteps=400, extraprec=400)
        thetas = [mpmath.arg(z) for z in roots if abs(abs(z) - 1) < mpmath.mpf(10) ** -60
                  and mpmath.im(z) > 0]
        if len(thetas) != 1:
            raise ValueError(f"expected one circle root, found {len(thetas)}")
        value = sigma * (1 - thetas[0] / mpmath.pi)
        return Fraction(int(value * 10**90), 10**90)


def _sym_poly(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * T**k
               for k, c in enumerate(Fraction(x) for x in coeffs))


def _is_laurent(expr):
    """Whether a rational function in t lies in Q[t, 1/t]."""
    _, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return sympy.Poly(den, T).is_monomial


def _from_1_over_t(expr):
    return expr.subs(T, 1 / T)


def factor_count(P):
    _, facs = sympy.Poly(_sym_poly(P), T).factor_list()
    return len(facs)


def fox_milnor_closed_form(P):
    """Delta = f(t) f(1/t) up to units: factors closed under reciprocal with
    matching multiplicities, self-reciprocal ones with even multiplicity."""
    _, facs = sympy.Poly(_sym_poly(P), T).factor_list()
    mult = {tuple(gen.p_monic([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])): m
            for f, m in facs}
    for f, m in mult.items():
        r = tuple(gen.p_reciprocal(list(f)))
        if (r == f and m % 2) or (r != f and mult.get(r) != m):
            return False
    return True


# ---------------------------------------------------------------------------
# zero_order


def _alexander_errors(V, coeffs):
    g = len(V) // 2
    errs = []
    for x in range(1, 2 * g + 2):
        if gen.seifert_det_at(V, x) != sum(c * Fraction(x) ** (e + g) for e, c in coeffs.items()):
            errs.append(f"t^g Delta({x}) differs from det(V - {x} V^T)")
            break
    if sum(coeffs.values()) != 1:
        errs.append("Delta(1) != 1")
    if any(coeffs.get(-e) != c for e, c in coeffs.items()):
        errs.append("Delta is not symmetric")
    return errs


def check_zero_order(items):
    errs = []
    partner = {}
    for i, (d, out) in enumerate(items):
        V, tol = d["V"], Fraction(1, 10 ** d["tol_exp"])
        where = f"zero_order op {i} (genus {len(V) // 2}, tol 1e-{d['tol_exp']})"
        e = _alexander_errors(V, out["alexander"])
        if out["arf"] != gen.arf_symplectic(V):
            e.append("arf differs from the symplectic-basis Arf invariant")
        if out["jumps"] != gen.upper_circle_roots(gen.alexander_coeffs(V)):
            e.append("jump count differs from the Sturm count of circle roots")
        if out["at_minus_one"] != signature_of_symmetrized(V):
            e.append("value_at_minus_one differs from signature(V + V^T)")
        if out["err"] > tol or (out["exact"] and out["err"] != 0):
            e.append("rho0 half-width exceeds tol")
        if abs(float(out["rho0"]) - dense_circle_average(V)) > DENSE_TOL:
            e.append("rho0 midpoint is off the dense circle average")
        if abs(out["rho0"] - rho0_one_jump(V)) > out["err"] + Fraction(1, 10**80):
            e.append("rho0 interval misses sigma (1 - theta / pi) from 100-digit roots")
        if d["role"] == "sum" and out["fox_milnor"] is not True:
            e.append("fox_milnor_test(V # mirror V) is not True")
        if d["role"] != "sum":
            partner.setdefault(d["pair"], {})[d["role"]] = out
        errs += [f"{where}: {x}" for x in e]
    for pair, both in partner.items():
        if len(both) == 2:
            a, b = both["V"], both["mirror"]
            if a["rho0"] != -b["rho0"] or a["err"] != b["err"]:
                errs.append(f"zero_order pair {pair}: rho0(mirror V) is not the negated interval")
    return errs


# ---------------------------------------------------------------------------
# modules


def _presentation_inverse(V):
    """(tV^T - V)^{-1} over Q(t), by sympy."""
    n = len(V)
    return sympy.Matrix(n, n, lambda i, j: T * V[j][i] - V[i][j]).inv()


def _value(nd):
    num, den = nd
    return _sym_poly(num) / _sym_poly(den)


def check_modules(items):
    errs = []
    for i, (d, out) in enumerate(items):
        V = d["V"]
        where = f"modules op {i} ({d['kind']})"
        P = gen.alexander_coeffs(V)
        order = gen.p_monic(P)
        e = []
        if [Fraction(c) for c in out["order"]] != order:
            e.append("order differs from the monic det(V - t V^T)")
        f = factor_count(P)
        if len(out["subs"]) != 2**f:
            e.append(f"{len(out['subs'])} submodules, expected 2^{f}")
        prod = [Fraction(1)]
        for q in out["factors"]:
            prod = gen.p_mul(prod, q)
        if prod != order:
            e.append("product of the factors differs from the order")
        for s in out["subs"]:
            dv = s["divisor"]
            cof, rem = gen.p_divmod(order, dv)
            star = gen.p_reciprocal(dv)
            if rem:
                e.append(f"divisor {dv} does not divide the order")
                continue
            if [Fraction(c) for c in s["orthogonal"]] != gen.p_reciprocal(cof):
                e.append(f"orthogonal(S[{dv}]) is not S[(Delta/d)*]")
            if s["isotropic"] != (not gen.p_divmod(cof, star)[1]):
                e.append(f"is_isotropic(S[{dv}]) disagrees with d* | Delta/d")
            if s["metabolizer"] != (star == gen.p_monic(cof)):
                e.append(f"is_metabolizer(S[{dv}]) disagrees with d* = Delta/d")
        if gen.p_divmod(order, out["span"])[1]:
            e.append("span divisor does not divide the order")
        pxy, pyx = _value(out["pxy"]), _value(out["pyx"])
        if not _is_laurent(pyx - _from_1_over_t(pxy)):
            e.append("pair(y, x) != conj(pair(x, y))")
        if len(V) == 4:
            Minv = _presentation_inverse(V)
            oracle = (1 - T) * (sympy.Matrix([d["x"]]) * Minv * sympy.Matrix(d["y"]))[0, 0]
            if not _is_laurent(pxy - oracle):
                e.append("pair(x, y) differs from the sympy Q(t) inverse")
            span = out["span"]

            def in_image(poly):
                z = Minv * sympy.Matrix([_sym_poly(poly) * c for c in d["x"]])
                return all(_is_laurent(c) for c in z)

            if not in_image(span) or any(
                in_image(gen.p_divmod(span, q)[0]) for q in out["factors"]
                if not gen.p_divmod(span, q)[1]
            ):
                e.append("submodule_spanned_by is not the annihilator of x (sympy)")
        errs += [f"{where}: {x}" for x in e]
    return errs


# ---------------------------------------------------------------------------
# towers (and the closed forms the cli checks share)


def tower_closed_form(family, n, seed, rho1, C, Cprime, base_name=None):
    """Expected level, multiplicity, ledgers and statuses of a depth-n tower.

    R946_op and the random templates are slice-flagged with Arf-0 bases, so
    the level is n on Arf-0 seeds, n - 1 on Arf-1 seeds and slice on the
    unknot; fig8_op is not slice-flagged and its base has Arf 1: no level.
    """
    rho, arf, is_slice = gen.seed_facts(seed)
    exp = {"multiplicity": 2**n}
    if family == "fig8_op":
        exp["level"] = "none"
    else:
        exp["level"] = "slice" if is_slice else str(n - arf)
    if n >= 2:
        exp["ledgers"] = {
            "R946_op": ["0", "0", "rho1(9_46)"],
            "fig8_op": ["0"],
            "random": None,
        }[family]
        if family == "random":
            exp["zero_ledger"] = f"rho1({base_name})"
    st = {}
    if family == "R946_op":
        st["fos"] = ("CONSISTENT" if n >= 2 or rho == 0
                     else "CONDITIONAL" if rho1 + 2 * rho == 0 else "OBSTRUCTED")
    elif family == "fig8_op":
        st["fos"] = "CONSISTENT" if n >= 2 or rho == 0 else "OBSTRUCTED"
        st["torsion"] = "OBSTRUCTED"  # odd multiples only
    else:
        st["fos"] = "CONDITIONAL"  # rho1 of a random base is never assigned
    st["j2"] = ("CONSISTENT" if rho == 0
                else "CONDITIONAL" if abs(rho) == abs(rho1) / 2 else "OBSTRUCTED")
    st["main"] = "OBSTRUCTED" if abs(rho) > C else "CONSISTENT"
    if arf:
        st["main3"] = "hypothesis:arf"
    elif family == "fig8_op":
        st["main3"] = "hypothesis:slice"
    else:
        st["main3"] = "OBSTRUCTED" if abs(rho) > (2**n - 1) * Cprime else "CONSISTENT"
    exp["status"] = st
    return exp


def independence_closed_form(family, members):
    """Rank of the zero-submodule ledgers: depth >= 2 towers all give rho1 of
    the base (0 for fig8_op), depth-1 towers add 2 rho0(seed) per distinct
    seed; the target rho1(base) is in the span iff a deep tower is present."""
    seeds = {s for n, s in members if n == 1}
    deep = any(n >= 2 for n, _ in members)
    if family == "fig8_op":
        return {"rank": len(seeds), "in_span": False}
    return {"rank": len(seeds) + deep, "in_span": deep}


def check_towers(items):
    errs = []
    fingerprints = {}
    for i, (d, out) in enumerate(items):
        kind = d["kind"]
        where = f"towers op {i} ({kind})"
        e = []
        if kind == "tower":
            exp = tower_closed_form(d["family"], d["n"], d["seed"], d["rho1"], d["C"],
                                    d["Cprime"], d["base_name"])
            where = f"towers op {i} ({d['family']} depth {d['n']} on {d['seed']})"
            for key in ("level", "multiplicity"):
                if out[key] != exp[key]:
                    e.append(f"{key} {out[key]!r}, expected {exp[key]!r}")
            if exp.get("ledgers") and sorted(out["ledgers"]) != exp["ledgers"]:
                e.append(f"ledgers {out['ledgers']}, expected {exp['ledgers']}")
            if "zero_ledger" in exp and out["ledgers"][0] != exp["zero_ledger"]:
                e.append(f"zero-submodule ledger {out['ledgers'][0]!r}, expected {exp['zero_ledger']!r}")
            for thm, want in exp["status"].items():
                if out["status"].get(thm) != want:
                    e.append(f"{thm} gives {out['status'].get(thm)}, expected {want}")
            if not all(out["replay"].values()) or set(out["replay"]) != {
                k for k, v in out["status"].items() if not v.startswith("hypothesis")
            }:
                e.append("a certificate does not replay")
            tpl = f"{d['base_name']}_op" if d["family"] == "random" else d["family"]
            key = (tpl, d["n"], d["seed"])
            if fingerprints.setdefault(key, out["fingerprint"]) != out["fingerprint"]:
                e.append("fingerprint differs for an identical tower")
            disp, fp = out["display"], out["fingerprint"]
            if not (disp == f"{tpl}(...)#{fp[:8]}" or (
                    len(disp) <= 80 and disp.startswith(f"{tpl}(") and disp.endswith(")"))):
                e.append(f"display {disp!r} is neither full nor the hashed short form")
        elif kind == "independence":
            exp = independence_closed_form(d["family"], d["members"])
            if out != exp:
                e.append(f"independence {out}, expected {exp}")
        elif kind == "deep500":
            if out.get("level") != "500" or out.get("multiplicity") != 2**500:
                e.append("depth-500 tower level or multiplicity is wrong")
        elif kind == "truncated_cert":
            if out.get("rejected") != ["fos", "main3"]:
                e.append("truncated certificates were not all rejected")
        elif kind == "split_module":
            vec = out.get("generator")
            if out.get("factors") != 2 or vec is None or any(
                gen.component_vanishes(d["V"], lam, [sum(c * lam**k for k, c in p.items())
                                                     for p in vec])
                for lam in gen.genus1_roots(d["det"])
            ):
                e.append("the module generator misses a component of the split base")
        errs += [f"{where}: {x}" for x in e]
    by_fp = {}
    for key, fp in fingerprints.items():
        if by_fp.setdefault(fp, key) != key:
            errs.append(f"towers: distinct towers {key} and {by_fp[fp]} share a fingerprint")
    return errs


# ---------------------------------------------------------------------------
# cli


def _text_scalars(stdout):
    out = {}
    for line in stdout.splitlines():
        if line and not line.startswith(" ") and ": " in line:
            k, v = line.split(": ", 1)
            out[k] = v
    return out


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _expr_facts(name):
    fam, rest = name[0], name[1:]
    n, seed = rest.split("_", 1)
    return gen.CLI_FAMILIES[fam], int(n), seed


def _laurent_from_text(s):
    return sympy.sympify(s.replace("^", "**"), locals={"t": T})


def cli_expected(d, knots, consts):
    """Top-level scalar fields (as text) that the closed forms fix, plus a
    function for the json-only nested fields."""
    cmd, exp, nested = d["cmd"], {}, []
    if cmd in ("invariants", "rho0", "module"):
        V = knots[d["name"]]
        P = gen.alexander_coeffs(V)
        g = len(V) // 2
        delta = sum(sympy.Rational(c.numerator, c.denominator) * T ** (k - g) for k, c in enumerate(P))
        delta = delta * (1 if sum(P) > 0 else -1)
        known = gen.seed_facts(d["name"])[0] if d["name"][0] in "km" else None
        tol = Fraction(d.get("tol", "1e-9"))

        def rho_ok(field):
            if field["provenance"] == "exact":
                lo = hi = Fraction(field["value"])
            else:
                lo, hi = Fraction(field["lo"]), Fraction(field["hi"])
            if hi - lo > 2 * tol:
                return "rho0 interval wider than 2 tol"
            if known is not None and not lo <= known <= hi:
                return f"rho0 interval misses {known}"
            if abs(float(lo + hi) / 2 - dense_circle_average(V)) > DENSE_TOL:
                return "rho0 is off the dense circle average"

        if cmd == "invariants":
            exp.update(genus=str(g), arf=str(gen.arf_symplectic(V)),
                       fox_milnor_factors=_scalar(fox_milnor_closed_form(P)))
            nested.append(lambda r: rho_ok(r["rho0"]))
            nested.append(lambda r: None if r["signature"]["at_minus_one"] == signature_of_symmetrized(V)
                          else "at_minus_one differs from signature(V + V^T)")
            nested.append(lambda r: None if sympy.simplify(_laurent_from_text(r["alexander"]) - delta) == 0
                          else "alexander differs from det(V - t V^T)")
        elif cmd == "rho0":
            exp["exact"] = _scalar(gen.upper_circle_roots(P) == 0)
            nested.append(lambda r: rho_ok(r["rho0"]))
        else:
            f = factor_count(P)
            order = gen.p_monic(P)
            exp.update(rank=str(len(V)), square_free="true")

            def lattice_ok(r):
                if len(r["submodules"]) != 2**f:
                    return f"{len(r['submodules'])} submodules, expected 2^{f}"
                for s in r["submodules"]:
                    dpoly = sympy.Poly(_laurent_from_text(s["divisor"]), T)
                    dv = [Fraction(int(c.p), int(c.q)) for c in reversed(dpoly.all_coeffs())]
                    cof, rem = gen.p_divmod(order, dv)
                    star = gen.p_reciprocal(dv)
                    if rem or s["isotropic"] != (not gen.p_divmod(cof, star)[1]) or \
                            s["metabolizer"] != (star == gen.p_monic(cof)):
                        return f"submodule {s['divisor']} misclassified"
            nested.append(lattice_ok)
    elif cmd in ("fos", "solvable", "obstruct"):
        family, n, seed = _expr_facts(d["name"])
        cf = tower_closed_form(family, n, seed, consts["rho1"], consts["C"], consts["Cprime"])
        if cmd == "solvable":
            exp.update(level=cf["level"], rho0_multiplicity_bound=str(cf["multiplicity"]))
        elif cmd == "fos":
            if cf.get("ledgers"):
                nested.append(lambda r: None if sorted(x["symbolic"] for x in r["entries"]) == cf["ledgers"]
                              else "fos ledgers differ from the closed form")
        else:
            exp.update(status=cf["status"][d["theorem"]], theorem=d["theorem"], replay="true")
    else:
        members = [_expr_facts(x)[1:] for x in d["names"]]
        cf = independence_closed_form("R946_op", members)
        exp.update(rank=str(cf["rank"]), target_in_span=_scalar(cf["in_span"]))
    return exp, nested


def check_cli(items, knots, consts):
    errs = []
    for i, (d, out) in enumerate(items):
        if d.get("kind") != "cli" or failed(out):
            continue
        where = f"cli op {i} ({d['cmd']} {d['format']})"
        e = []
        if "repeat_of" in d:
            if failed(items[d["repeat_of"]][1]):
                continue
            if out["stdout"] != items[d["repeat_of"]][1]["stdout"]:
                e.append("repeated invocation printed different stdout")
        else:
            exp, nested = cli_expected(d, knots, consts)
            if d["format"] == "json":
                report = json.loads(out["stdout"])
                got = {k: _scalar(v) for k, v in report.items() if not isinstance(v, (dict, list))}
                e += [x for x in (fn(report) for fn in nested) if x]
            else:
                got = _text_scalars(out["stdout"])
            for k, v in exp.items():
                if got.get(k) != v:
                    e.append(f"{k} is {got.get(k)!r}, expected {v!r}")
        errs += [f"{where}: {x}" for x in e]
    return errs


# ---------------------------------------------------------------------------
# Self-test: a perturbed output must fail its check


def _first(items, pred):
    return next(i for i, (d, out) in enumerate(items) if pred(d, out))


def _perturbations(workload, items):
    """(what, subset, perturbed subset) cases for the self-test."""
    if workload == "zero_order":
        i = _first(items, lambda d, o: d["role"] == "V" and not o["exact"])
        subset = [x for x in items if x[0].get("pair") == items[i][0]["pair"]]
        bad = copy.deepcopy(subset)
        bad[0][1]["rho0"] += 2 * Fraction(1, 10 ** bad[0][0]["tol_exp"])
        yield "rho0 shifted by 2 tol", subset, bad
    elif workload == "modules":
        bad = copy.deepcopy(items[:1])
        bad[0][1]["subs"][0]["isotropic"] ^= True
        yield "flipped isotropy flag", items[:1], bad
    else:
        i = _first(items, lambda d, o: d["kind"] == "tower" and o["level"].isdigit())
        bad = copy.deepcopy([items[i]])
        bad[0][1]["level"] = str(int(bad[0][1]["level"]) + 1)
        yield "level off by one", [items[i]], bad
        i = _first(items, lambda d, o: d["kind"] == "cli" and d["format"] == "json"
                   and "repeat_of" not in d and d["cmd"] in ("solvable", "obstruct", "independence"))
        bad = copy.deepcopy([items[i]])
        report = json.loads(bad[0][1]["stdout"])
        key = next(k for k in ("level", "status", "rank") if k in report)
        report[key] = "edited" if isinstance(report[key], str) else report[key] + 1
        bad[0][1]["stdout"] = json.dumps(report)
        yield f"edited cli value {key!r}", [items[i]], bad


def self_test(workload, items, *extra):
    """Perturb outputs and return an error if a check still passes."""
    items = [(d, o) for d, o in items if not failed(o)]
    for what, subset, bad in _perturbations(workload, items):
        if check(workload, subset, *extra):
            return f"self-test: the unperturbed subset fails its check ({what})"
        if not check(workload, bad, *extra):
            return f"self-test: the check accepted a perturbed output ({what})"
    return None


def failed(out):
    return "fault" in out or "error" in out


def check(workload, items, *extra):
    """Errors in the outputs of the operations that did not fail.  The cli
    operations of towers see the whole list, since a repeated invocation
    names the earlier one by its index."""
    fn = {"zero_order": check_zero_order, "modules": check_modules, "towers": check_towers}[workload]
    errs = fn([(d, o) for d, o in items if not failed(o)])
    if workload == "towers":
        errs += check_cli(items, *extra)
    return errs
