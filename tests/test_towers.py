"""Infection towers as DAGs: fingerprint, display and hash are folded once
per node and agree with the tree-walk reference; templates are told apart by
name; towers of depth 500 finish quickly, in the library and in the CLI."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from concord.catalog import load
from concord.infection import (
    FIG8_DOUBLING,
    R946_DOUBLING,
    Atom,
    Site,
    Sum,
    Template,
    as_expr,
    infect,
    iterate_operator,
    rho0_atom,
)
from concord.seifert import FIGURE_EIGHT, K9_46, TREFOIL, SeifertMatrix, connected_sum

from oracles import display_tree, fingerprint_tree, template_fingerprint_tree
from test_seifert import random_seifert

ROOT = Path(__file__).resolve().parents[1]
TT = connected_sum(TREFOIL, TREFOIL)


def _random_template():
    base = random_seifert(random.Random(946), 1)
    return Template("rnd_op", SeifertMatrix(base.entries, name="rnd"),
                    (Site("u", (1, 0)), Site("v", (0, 1))), slice_flag=True)


def _agrees_with_reference(e):
    assert e.fingerprint() == fingerprint_tree(e)
    assert e.display() == display_tree(e)


# ---------------------------------------------------------------------------
# The fold against the tree-walk reference


@pytest.mark.parametrize("tpl", [R946_DOUBLING, FIG8_DOUBLING, _random_template()],
                         ids=lambda t: t.name)
def test_tower_facts_match_tree_walk(tpl):
    assert tpl.fingerprint() == template_fingerprint_tree(tpl)
    for n in range(1, 13):
        _agrees_with_reference(iterate_operator(tpl, n, TT))


def test_mixed_inputs_and_sums_match_tree_walk():
    J1, J2 = iterate_operator(R946_DOUBLING, 1, TREFOIL), iterate_operator(R946_DOUBLING, 2, TT)
    unnamed = as_expr(SeifertMatrix(((-1, 1), (0, 1))))
    exprs = [
        infect(R946_DOUBLING, {"alpha": TREFOIL, "beta": FIGURE_EIGHT}),
        infect(R946_DOUBLING, {"alpha": J2, "beta": J2 + as_expr(TREFOIL)}),
        infect(FIG8_DOUBLING, {"a": J1, "b": iterate_operator(FIG8_DOUBLING, 3, unnamed)}),
        J2 + as_expr(TREFOIL),
        as_expr(TREFOIL) + unnamed,
        Sum(J1, Sum(J1, J1)),  # shortened past 80 characters, as infections are
        infect(R946_DOUBLING, {"alpha": Sum(J2, J1), "beta": unnamed}),
    ]
    for e in exprs:
        _agrees_with_reference(e)
    assert exprs[5].display() == f"sum(...)#{exprs[5].fingerprint()[:8]}"
    assert len(exprs[5].right.display()) <= 80 and "+" in exprs[5].right.display()


def test_catalog_expressions_match_tree_walk():
    catalog = load(str(ROOT / "tests" / "golden" / "catalog.cat"))
    for name in sorted(catalog.exprs) + sorted(catalog.knots):
        _agrees_with_reference(catalog.expression(name))


def test_equal_towers_keep_their_own_names():
    # matrix names do not take part in equality, so these towers are equal
    # and hash alike, yet each prints the names it was built from
    entries = connected_sum(TREFOIL, TREFOIL).entries
    T2, k2 = SeifertMatrix(entries, name="T2"), SeifertMatrix(entries, name="k2")
    assert Atom(T2) == Atom(k2)
    mixed = infect(R946_DOUBLING, {"alpha": T2, "beta": k2})
    assert mixed.display() == "R946_op(alpha=T2, beta=k2)"
    a, b = iterate_operator(R946_DOUBLING, 3, T2), iterate_operator(R946_DOUBLING, 3, k2)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.fingerprint() == b.fingerprint()
    low_a = iterate_operator(R946_DOUBLING, 1, T2)
    low_b = iterate_operator(R946_DOUBLING, 1, k2)
    assert low_a.display() == "R946_op(alpha=T2, beta=T2)"
    assert low_b.display() == "R946_op(alpha=k2, beta=k2)"
    assert str(rho0_atom(low_b)) == "rho0(R946_op(alpha=k2, beta=k2))"


def test_same_data_templates_differ_by_name():
    # two templates with identical curated data are still two unknowns: no
    # tower fingerprint, and so no rho0 atom, may be shared between them
    a = Template("ta_op", K9_46, (Site("u", (1, 0)), Site("v", (0, 1))), slice_flag=True)
    b = dataclasses.replace(a, name="tb_op")
    assert a.fingerprint() != b.fingerprint()
    for n in (1, 2, 5):
        Ja, Jb = iterate_operator(a, n, TREFOIL), iterate_operator(b, n, TREFOIL)
        assert Ja.fingerprint() != Jb.fingerprint()
        assert rho0_atom(Ja) != rho0_atom(Jb)


def test_doubled_sums_display_stays_short():
    # s + s shares its summand, so the unshortened display doubles per step
    s = as_expr(TREFOIL)
    for _ in range(12):
        s = s + s
    assert len(s.display()) <= 80
    assert s.display() == f"({s.left.display()} + {s.left.display()})"
    _agrees_with_reference(s)


def test_equality_agrees_with_field_equality():
    # two separately built copies of each expression, plus near misses that
    # differ in one field deep down; fingerprints tell the same apart
    def build():
        J1 = iterate_operator(R946_DOUBLING, 1, TT)
        return [
            J1, iterate_operator(R946_DOUBLING, 3, TT), iterate_operator(R946_DOUBLING, 3, TREFOIL),
            iterate_operator(FIG8_DOUBLING, 3, TT), J1 + as_expr(TREFOIL), as_expr(TREFOIL) + J1,
            infect(R946_DOUBLING, {"alpha": J1, "beta": TT}),
            infect(R946_DOUBLING, {"alpha": TT, "beta": J1}),
            Sum(J1, Sum(J1, J1)), as_expr(TREFOIL),
        ]

    for a in build():
        for b in build():
            same = fingerprint_tree(a) == fingerprint_tree(b)
            assert (a == b) is same and (a != b) is not same


# ---------------------------------------------------------------------------
# Depth 500, in a subprocess with a timeout so that a walk exponential in
# depth fails the test instead of hanging the suite


def _python(args, cwd=None):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


DEEP_SCRIPT = """
import json, time
from concord.infection import R946_DOUBLING, iterate_operator
from concord.obstruction import check_first_order_signatures
from concord.seifert import TREFOIL, connected_sum

def J():
    return iterate_operator(R946_DOUBLING, 500, connected_sum(TREFOIL, TREFOIL))

out = {"hash": [hash(J()), hash(J())], "display": J().display(), "fingerprint": J().fingerprint()}
start = time.perf_counter()
out["status"] = check_first_order_signatures(J()).status
out["check_s"] = time.perf_counter() - start
print(json.dumps(out))
"""


def test_depth_500_tower_in_library():
    proc = _python(["-c", DEEP_SCRIPT])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["hash"][0] == out["hash"][1]
    assert out["display"] == f"R946_op(...)#{out['fingerprint'][:8]}"
    assert out["status"] == "CONSISTENT"
    assert out["check_s"] < 0.5


@pytest.mark.parametrize("argv", [
    ("fos", "J500"),
    ("solvable", "J500"),
    ("obstruct", "J500", "--theorem", "main"),
], ids=["fos", "solvable", "obstruct-main"])
def test_depth_500_tower_in_cli(argv, tmp_path):
    (tmp_path / "deep.cat").write_text(
        "[knot tt]\n"
        "matrix = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]\n\n"
        "[expr J500]\niterate R946_op 500 tt\n",
        encoding="utf-8",
    )
    proc = _python(["-m", "concord", *argv, "--catalog", "deep.cat", "--format", "json"],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"]["name"] == "J500"
    if argv[0] == "solvable":
        assert report["level"] == "500"
        assert report["rho0_multiplicity_bound"] == 2**500


EQUAL_DEEP_SCRIPT = """
from concord.infection import R946_DOUBLING, iterate_operator
from concord.seifert import TREFOIL, connected_sum

tt = connected_sum(TREFOIL, TREFOIL)
A, B = (iterate_operator(R946_DOUBLING, 400, tt) for _ in range(2))
C = iterate_operator(R946_DOUBLING, 400, TREFOIL)
print(A == B, A != B, A == C, hash(A) == hash(B))
"""


def test_equal_deep_towers_compare_without_recursion(tmp_path):
    proc = _python(["-c", EQUAL_DEEP_SCRIPT])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False", "True"]
    # the main theorem compares the two inputs of P
    (tmp_path / "deep.cat").write_text(
        "[knot tt]\n"
        "matrix = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]\n\n"
        "[expr A]\niterate R946_op 400 tt\n\n"
        "[expr B]\niterate R946_op 400 tt\n\n"
        "[expr P]\ninfect R946_op alpha=A beta=B\n",
        encoding="utf-8",
    )
    proc = _python(["-m", "concord", "obstruct", "P", "--theorem", "main", "--catalog", "deep.cat",
                    "--format", "json"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["name"] == "P"
