"""Batch command-line front end.

Usage::

    concord invariants NAME [flags]
    concord rho0 NAME [flags]
    concord module NAME [flags]
    concord fos NAME [flags]
    concord solvable NAME [flags]
    concord obstruct NAME --theorem {fos,j2,main,main3,torsion}
                     [--assign FILE] [--multiple M] [flags]
    concord independence NAME [NAME ...] --target ATOM [flags]

Shared flags (after the subcommand): --catalog FILE (repeatable),
--format {text,json}, --tol Q.  The default rho0 tolerance is 1e-9,
overridable by the CONCORD_DEFAULT_TOL environment variable (an exact
rational or decimal literal) and per invocation by --tol.

Constants picked up from [assign] sections: C feeds the infinite-order
check, Cprime the doubling-tower and torsion checks, and D (when rho1(9_46)
is unassigned) fixes the iterated-double constant via rho1(9_46) = -2*D.

Exit codes: 0 success, 2 parse error (catalog or flags), 3 validation
error, 4 failed theorem hypothesis, 1 internal error.  Reports carry no
timestamps; identical inputs produce byte-identical output, and every
report embeds the inputs it was produced from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .blanchfield import (
    NotSquareFree,
    is_isotropic,
    is_metabolizer,
    module_from_seifert,
    submodule_lattice,
)
from .catalog import Catalog, ParseError, ValidationError, load, merge
from .infection import (
    RhoLedger,
    SiteNotSeifertDisjoint,
    first_order_signatures,
    rho0_atom,
    rho0_multiplicity_bound,
    seifert_of,
    solvability_lower_bound,
)
from .intervals import RatInterval
from .obstruction import (
    RHO1_9_46,
    Assignment,
    HypothesisFailed,
    check_doubling_tower,
    check_first_order_signatures,
    check_infinite_order,
    check_iterated_double,
    check_torsion,
    eval_ledger,
    independence_check,
    seed_rho0,
    tower_split,
    value_str,
    verify_certificate,
)
from .rings import poly_str
from .seifert import (
    DEFAULT_TOL,
    Rho0Result,
    alexander_polynomial,
    arf,
    fox_milnor_test,
    rho0,
    signature_profile,
)

TOL_ENV_VAR = "CONCORD_DEFAULT_TOL"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_HYPOTHESIS = 4


def _parse_tol(text: str, origin: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(origin, f"not a rational tolerance: {text!r}")
    if tol <= 0:
        raise ValidationError(origin, f"tolerance must be positive, got {text!r}")
    return tol


def _effective_tol(args) -> Fraction:
    if args.tol is not None:
        return _parse_tol(args.tol, "--tol")
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        return _parse_tol(env, TOL_ENV_VAR)
    return DEFAULT_TOL


# ---------------------------------------------------------------------------
# Report values


def _num(x) -> dict:
    """Numeric report field with provenance: exact rational or interval."""
    v: RatInterval = x.interval() if isinstance(x, Rho0Result) else x
    if v.is_point:
        return {"provenance": "exact", "value": str(v.lo)}
    return {
        "provenance": "interval",
        "lo": str(v.lo),
        "hi": str(v.hi),
        "value": value_str(v),
    }


def _ledger_display(lv) -> str:
    """Human form of a partially evaluated ledger: 'rho1(9_46) - 8/3 (...)'."""
    if lv.is_resolved:
        return value_str(lv.resolved)
    disp = value_str(lv.resolved)
    if disp == "0":
        return str(lv.residual)
    if disp.startswith("-"):
        return f"{lv.residual} - {disp[1:]}"
    return f"{lv.residual} + {disp}"


# ---------------------------------------------------------------------------
# Commands


def _load_catalog(paths) -> Catalog:
    catalog = Catalog.builtins()
    catalog.sources = tuple(paths)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            merge(catalog, fh.read())
    return catalog


def _inputs(args, **extra) -> dict:
    inputs = {"command": args.command}
    inputs.update(extra)
    inputs["catalog"] = list(args.catalog)
    inputs["format"] = args.format
    if args.tol is not None:
        inputs["tol"] = args.tol
    return inputs


def _cmd_invariants(args, catalog: Catalog, tol: Fraction) -> dict:
    V = seifert_of(catalog.expression(args.name))
    prof = signature_profile(V)
    return {
        "inputs": _inputs(args, name=args.name),
        "knot": V.display_name,
        "genus": V.genus,
        "alexander": str(alexander_polynomial(V)),
        "arf": arf(V),
        "fox_milnor_factors": fox_milnor_test(V),
        "signature": {
            "jump_count": prof.jump_count,
            "arc_values": list(prof.arc_values),
            "at_minus_one": prof.value_at_minus_one,
        },
        "rho0": _num(rho0(V, tol)),
    }


def _cmd_rho0(args, catalog: Catalog, tol: Fraction) -> dict:
    V = seifert_of(catalog.expression(args.name))
    r = rho0(V, tol)
    return {
        "inputs": _inputs(args, name=args.name),
        "knot": V.display_name,
        "tolerance": str(tol),
        "exact": r.is_exact,
        "rho0": _num(r),
    }


def _cmd_module(args, catalog: Catalog, tol: Fraction) -> dict:
    V = seifert_of(catalog.expression(args.name))
    mod = module_from_seifert(V)
    report = {
        "inputs": _inputs(args, name=args.name),
        "knot": V.display_name,
        "order": str(mod.order),
        "rank": mod.rank,
        "square_free": mod.square_free,
        "factors": [poly_str(f) for f in mod.factors],
    }
    if mod.square_free:
        report["submodules"] = [
            {
                "divisor": poly_str(s.divisor),
                "isotropic": is_isotropic(mod, s),
                "metabolizer": is_metabolizer(mod, s),
            }
            for s in submodule_lattice(mod)
        ]
    else:
        report["note"] = "order is not square-free; submodule lattice unavailable"
    return report


def _cmd_fos(args, catalog: Catalog, tol: Fraction) -> dict:
    e = catalog.expression(args.name)
    fs = first_order_signatures(e)
    context = fs.context_map()
    entries = []
    for entry in fs.entries:
        lv = eval_ledger(entry.ledger, catalog.assignment, context, tol)
        item = {
            "submodule": str(entry.submodule),
            "symbolic": str(entry.ledger),
            "evaluated": _ledger_display(lv),
            "resolved": _num(lv.resolved),
        }
        if not lv.is_resolved:
            item["residual"] = str(lv.residual)
        entries.append(item)
    return {
        "inputs": _inputs(args, name=args.name),
        "expression": str(fs.expr),
        "entries": entries,
    }


def _cmd_solvable(args, catalog: Catalog, tol: Fraction) -> dict:
    e = catalog.expression(args.name)
    report = {
        "inputs": _inputs(args, name=args.name),
        "expression": str(e),
        "level": str(solvability_lower_bound(e)),
    }
    try:
        report["rho0_multiplicity_bound"] = rho0_multiplicity_bound(e)
    except ValueError:
        pass
    return report


def _seed_k(assignment, seed):
    """The assigned rho0 of a tower seed, or None when it is to be computed."""
    atom = rho0_atom(seed)
    return assignment[atom] if atom in assignment else None


def _cmd_obstruct(args, catalog: Catalog, tol: Fraction) -> dict:
    if args.assign:
        with open(args.assign, "r", encoding="utf-8") as fh:
            merge(catalog, fh.read())
    e = catalog.expression(args.name)
    assignment = catalog.assignment
    constants = catalog.constants
    theorem = args.theorem
    if theorem == "fos":
        verdict = check_first_order_signatures(e, assignment, tol)
    else:
        templates, seed = tower_split(e)
        k = _seed_k(assignment, seed)
    if theorem == "j2":
        if "D" in constants and RHO1_9_46 not in assignment:
            assignment = Assignment(
                dict(assignment.items()) | {RHO1_9_46: -2 * constants["D"]}
            )
        verdict = check_iterated_double(seed_rho0(seed, k, tol), assignment)
    elif theorem == "main":
        verdict = check_infinite_order(e, k_rho0=k, bound=constants.get("C"), tol=tol)
    elif theorem == "main3":
        if not templates:
            raise ValidationError(args.name, "expression is not an infection tower")
        verdict = check_doubling_tower(
            templates, seed, k_rho0=k, unit_bound=constants.get("Cprime"), tol=tol
        )
    elif theorem == "torsion":
        if args.multiple is None:
            raise ValidationError(args.name, "--multiple is required for the torsion theorem")
        verdict = check_torsion(
            e, args.multiple, k_rho0=k, unit_bound=constants.get("Cprime"), tol=tol
        )
    inputs = _inputs(args, name=args.name, theorem=theorem)
    if args.assign:
        inputs["assign"] = args.assign
    if args.multiple is not None:
        inputs["multiple"] = args.multiple
    return {
        "inputs": inputs,
        "status": verdict.status,
        "theorem": verdict.theorem,
        "summary": verdict.summary,
        "conditions": list(verdict.conditions),
        "certificate": list(verdict.certificate),
        "replay": verify_certificate(verdict),
    }


def _cmd_independence(args, catalog: Catalog, tol: Fraction) -> dict:
    target = catalog.atom(args.target)
    ledgers = []
    rows = []
    for name in args.names:
        fs = first_order_signatures(catalog.expression(name))
        ledger = fs.entries[0].ledger
        ledgers.append(ledger)
        rows.append({"name": name, "ledger": str(ledger)})
    rank, hits = independence_check(ledgers, RhoLedger.of_atom(target))
    return {
        "inputs": _inputs(args, names=list(args.names), target=args.target),
        "ledgers": rows,
        "target": str(target),
        "rank": rank,
        "target_in_span": hits,
    }


_COMMANDS = {
    "invariants": _cmd_invariants,
    "rho0": _cmd_rho0,
    "module": _cmd_module,
    "fos": _cmd_fos,
    "solvable": _cmd_solvable,
    "obstruct": _cmd_obstruct,
    "independence": _cmd_independence,
}


# ---------------------------------------------------------------------------
# Rendering


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _text_lines(obj, indent: int) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                if not value:
                    lines.append(f"{pad}{key}: (none)")
                else:
                    lines.append(f"{pad}{key}:")
                    lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    else:
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    return lines


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(_text_lines(report, 0)) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--catalog", action="append", default=[], metavar="FILE",
        help="catalog file to load (repeatable; built-ins always available)",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report serialization (default: text)",
    )
    common.add_argument(
        "--tol", default=None, metavar="Q",
        help="rho0 tolerance as an exact rational or decimal literal",
    )
    parser = argparse.ArgumentParser(
        prog="concord",
        description="Exact knot concordance invariants and obstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("invariants", "zero-order invariants of a knot or expression"),
        ("rho0", "the integrated signature rho0 with a certified bound"),
        ("module", "rational Alexander module and submodule lattice"),
        ("fos", "first-order signature set, symbolic and evaluated"),
        ("solvable", "certified solvability lower bound"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("name", help="knot or expression name")
    p = sub.add_parser(
        "obstruct", parents=[common], help="run an obstruction theorem"
    )
    p.add_argument("name", help="knot or expression name")
    p.add_argument(
        "--theorem", required=True,
        choices=("fos", "j2", "main", "main3", "torsion"),
    )
    p.add_argument("--assign", metavar="FILE", help="extra [assign] entries")
    p.add_argument("--multiple", type=int, help="connected-sum multiple (torsion)")
    p = sub.add_parser(
        "independence", parents=[common],
        help="rank of a family of first-order ledgers against a target atom",
    )
    p.add_argument("names", nargs="+", help="expression names")
    p.add_argument("--target", required=True, metavar="ATOM",
                   help="atom literal, e.g. 'rho0(trefoil)'")
    return parser


def run(args) -> dict:
    """Execute one parsed command against its catalog, returning the report."""
    tol = _effective_tol(args)
    catalog = _load_catalog(args.catalog)
    return _COMMANDS[args.command](args, catalog, tol)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = run(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisFailed as ex:
        print(f"hypothesis failed: {ex}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValidationError, SiteNotSeifertDisjoint, NotSquareFree, ValueError) as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as ex:  # pragma: no cover - defensive
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
