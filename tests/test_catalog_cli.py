"""Catalog file parsing and the batch command-line front end."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from concord.catalog import (
    Catalog,
    ParseError,
    ValidationError,
    load,
    loads,
    parse_poly,
)
from concord.cli import (
    EXIT_HYPOTHESIS,
    EXIT_PARSE,
    EXIT_VALIDATION,
    TOL_ENV_VAR,
    main,
)
from concord.infection import Infect, rho0_atom, rho1_atom, as_expr
from concord.intervals import RatInterval
from concord.obstruction import RHO1_9_46
from concord.seifert import K9_46, TREFOIL, alexander_polynomial

JFAMILY = """\
# Iterated doubling family over the trefoil seed.
[expr J1_trefoil]
infect R946_op alpha=trefoil beta=trefoil

[expr J2_trefoil]
iterate R946_op 2 trefoil

[expr J4_trefoil]
iterate R946_op 4 trefoil

[expr fig8_tt]
infect fig8_op a=trefoil b=trefoil

[assign]
C = 1
Cprime = 1
"""

TOWER = """\
[expr J2_unknot]
iterate R946_op 2 unknot

[expr fig8_uu]
infect fig8_op a=unknot b=unknot

[assign]
Cprime = 1
rho0(unknot) = 4
D = 5/2
"""


@pytest.fixture
def jfamily(tmp_path):
    p = tmp_path / "jfamily.cat"
    p.write_text(JFAMILY)
    return str(p)


@pytest.fixture
def tower(tmp_path):
    p = tmp_path / "tower.cat"
    p.write_text(TOWER)
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


# ---------------------------------------------------------------------------
# Catalog parsing


def test_builtins():
    cat = Catalog.builtins()
    assert {"unknot", "trefoil", "figure-eight", "9_46"} <= set(cat.knots)
    assert {"R946_op", "fig8_op"} <= set(cat.templates)
    assert cat.exprs == {}
    t = cat.template("R946_op")
    assert t.site_names == ("alpha", "beta")
    assert t.slice_flag
    assert t.base == K9_46


def test_empty_file_is_builtins_only(tmp_path):
    p = tmp_path / "empty.cat"
    p.write_text("# nothing but a comment\n\n")
    cat = load(str(p))
    assert cat.names() == Catalog.builtins().names()
    assert cat.sources == (str(p),)


def test_knot_section():
    cat = loads("[knot granny2]\nmatrix = ((-1, 1), (0, -1))\nslice = false\n")
    k = cat.knots["granny2"]
    assert k.entries == TREFOIL.entries
    assert str(alexander_polynomial(k)) == "t - 1 + t^-1"


def test_expr_sections(jfamily):
    cat = load(jfamily)
    e1 = cat.expression("J1_trefoil")
    assert isinstance(e1, Infect)
    assert str(e1) == "R946_op(alpha=trefoil, beta=trefoil)"
    e4 = cat.expression("J4_trefoil")
    from concord.obstruction import tower_split

    templates, seed = tower_split(e4)
    assert len(templates) == 4
    assert str(seed) == "trefoil"
    # knots resolve as atoms too
    assert str(cat.expression("trefoil")) == "trefoil"
    assert cat.constants == {"C": Fraction(1), "Cprime": Fraction(1)}


def test_iterate_expression_is_resolvable(jfamily):
    from concord.infection import seifert_of, solvability_lower_bound

    cat = load(jfamily)
    e = cat.expression("J4_trefoil")
    assert seifert_of(e).genus == 1
    assert str(solvability_lower_bound(e)) == "3"


def test_sum_and_atom_exprs():
    cat = loads(
        "[expr two_trefoils]\nsum trefoil trefoil\n"
        "[expr same]\natom figure-eight\n"
    )
    assert str(cat.expression("two_trefoils")) == "(trefoil + trefoil)"
    assert str(cat.expression("same")) == "figure-eight"


def test_template_section():
    text = (
        "[knot base946]\n"
        "matrix = ((0, 2), (1, 0))\n"
        "[template my_op]\n"
        "base = base946\n"
        "slice = true\n"
        "site alpha = (1, 0)\n"
        "site beta = (0, 1) nondisjoint\n"
        "metabolizer = t - 2\n"
        "metabolizer = t - 1/2\n"
        "rho1 = 0\n"
    )
    t = loads(text).template("my_op")
    assert t.site_names == ("alpha", "beta")
    assert t.slice_flag is True
    assert t.sites[0].seifert_disjoint is True
    assert t.sites[1].seifert_disjoint is False
    assert len(t.ribbon_metabolizers) == 2
    assert t.rho1_known == 0


def test_assign_section(tower):
    cat = load(tower)
    assert cat.constants["Cprime"] == 1
    assert cat.constants["D"] == Fraction(5, 2)
    a = rho0_atom(as_expr(cat.knots["unknot"]))
    assert cat.assignment[a] == 4


def test_assign_interval_values():
    cat = loads("[assign]\nrho1(9_46) = [5/2, 3]\n")
    v = cat.assignment[RHO1_9_46]
    assert isinstance(v, RatInterval)
    assert (v.lo, v.hi) == (Fraction(5, 2), Fraction(3))


def test_assign_constant_must_be_exact():
    with pytest.raises(ParseError):
        loads("[assign]\nC = [1, 2]\n")


def test_atom_parsing():
    cat = Catalog.builtins()
    assert cat.atom("rho0(trefoil)") == rho0_atom(as_expr(TREFOIL))
    assert cat.atom("rho1(9_46)") == rho1_atom(K9_46)
    assert str(cat.atom("rho(9_46, t - 2)")) == "rho(9_46, t - 2)"
    with pytest.raises(ValidationError):
        cat.atom("rho0(nosuch)")
    with pytest.raises(ValidationError):
        cat.atom("sigma(trefoil)")


def test_parse_poly_forms():
    assert parse_poly("t^2 - 5/2*t + 1", 1) == (
        Fraction(1), Fraction(-5, 2), Fraction(1)
    )
    assert parse_poly("2t - 1", 1) == (Fraction(-1), Fraction(2))
    assert parse_poly("-t + 3", 1) == (Fraction(3), Fraction(-1))
    with pytest.raises(ParseError):
        parse_poly("t + q", 1)


def test_parse_error_coordinates():
    with pytest.raises(ParseError) as exc:
        loads("[knot k]\nmatrix = [[0, x], [1, 0]]\n")
    assert exc.value.line == 2
    assert exc.value.col == 6
    assert "not a rational literal" in str(exc.value)


def test_catalog_errors():
    with pytest.raises(ValidationError) as exc:
        loads("[knot trefoil]\nmatrix = ((-1, 1), (0, -1))\n")
    assert exc.value.name == "trefoil"
    assert "already defined" in exc.value.reason
    with pytest.raises(ParseError):
        loads("[mystery thing]\n")
    with pytest.raises(ParseError):
        loads("[knot k]\nnonsense without equals\n")
    with pytest.raises(ValidationError):
        loads("[knot k]\nmatrix = ((0, 1), (1, 0))\n")  # det(V - V^T) = 0
    with pytest.raises(ValidationError):
        loads("[expr e]\ninfect R946_op alpha=trefoil\n")  # missing site
    with pytest.raises(ValidationError):
        loads("[expr e]\nsum trefoil ghost\n")


def test_merge_across_files(tmp_path):
    # the CLI merges --catalog files in order; later files see earlier names
    from concord.catalog import merge

    a = tmp_path / "a.cat"
    b = tmp_path / "b.cat"
    a.write_text("[knot k]\nmatrix = ((-1, 1), (0, -1))\n")
    b.write_text("[expr e]\nsum k k\n")
    cat = Catalog.builtins()
    merge(cat, a.read_text())
    merge(cat, b.read_text())
    assert str(cat.expression("e")) == "(k + k)"


# ---------------------------------------------------------------------------
# CLI commands


def test_cli_rho0_trefoil(capsys):
    rc, out = run_cli(capsys, "rho0", "trefoil", "--tol", "1e-6")
    assert rc == 0
    assert "tolerance: 1/1000000" in out
    assert "value: -4/3 (within " in out
    assert "provenance: interval" in out


def test_cli_rho0_exact(capsys):
    rc, out = run_cli(capsys, "rho0", "figure-eight")
    assert rc == 0
    assert "exact: true" in out
    assert "provenance: exact" in out
    assert "value: 0" in out


def test_cli_invariants(capsys):
    rc, out = run_cli(capsys, "invariants", "figure-eight")
    assert rc == 0
    for line in (
        "genus: 1",
        "alexander: -t + 3 - t^-1",
        "arf: 1",
        "fox_milnor_factors: false",
        "jump_count: 0",
        "at_minus_one: 0",
    ):
        assert line in out


def test_cli_module(capsys):
    rc, out = run_cli(capsys, "module", "9_46")
    assert rc == 0
    assert "order: -2*t + 5 - 2*t^-1" in out
    assert "square_free: true" in out
    assert out.count("metabolizer: true") == 2
    assert "divisor: t^2 - 5/2*t + 1" in out


def test_cli_fos(capsys, jfamily):
    rc, out = run_cli(capsys, "fos", "J1_trefoil", "--catalog", jfamily)
    assert rc == 0
    assert "submodule: S[1]" in out
    assert "symbolic: rho1(9_46) + 2*rho0(trefoil)" in out
    assert "evaluated: rho1(9_46) - 8/3 (within " in out
    assert "residual: rho1(9_46)" in out
    assert out.count("evaluated: -4/3 (within ") == 2


def test_cli_solvable(capsys, jfamily):
    rc, out = run_cli(capsys, "solvable", "J4_trefoil", "--catalog", jfamily)
    assert rc == 0
    assert "level: 3" in out  # trefoil seed has Arf 1: one level is lost
    assert "rho0_multiplicity_bound: 16" in out
    rc, out = run_cli(capsys, "solvable", "unknot")
    assert rc == 0
    assert "level: slice" in out


def test_cli_obstruct_j2_conditional(capsys, jfamily):
    rc, out = run_cli(
        capsys, "obstruct", "J2_trefoil", "--theorem", "j2", "--catalog", jfamily
    )
    assert rc == 0
    assert "status: CONDITIONAL" in out
    assert "rho1(9_46) = 8/3 (within " in out
    assert "membership (primary): possible" in out
    assert "replay: true" in out


def test_cli_obstruct_fos(capsys, jfamily):
    rc, out = run_cli(
        capsys, "obstruct", "fig8_tt", "--theorem", "fos", "--catalog", jfamily
    )
    assert rc == 0
    assert "status: OBSTRUCTED" in out
    assert "replay: true" in out


def test_cli_obstruct_main_uses_catalog_constants(capsys, jfamily):
    rc, out = run_cli(
        capsys, "obstruct", "J2_trefoil", "--theorem", "main", "--catalog", jfamily
    )
    assert rc == 0
    assert "status: OBSTRUCTED" in out  # |rho0(trefoil)| = 4/3 > C = 1
    assert "C: 1" in out


def test_cli_obstruct_main3(capsys, tower):
    rc, out = run_cli(
        capsys, "obstruct", "J2_unknot", "--theorem", "main3", "--catalog", tower
    )
    assert rc == 0
    assert "status: OBSTRUCTED" in out  # assigned rho0(unknot) = 4 > constant 3
    assert "constant: 3" in out
    assert "replay: true" in out


def test_cli_obstruct_torsion(capsys, tower):
    rc, out = run_cli(
        capsys, "obstruct", "fig8_uu", "--theorem", "torsion",
        "--multiple", "2", "--catalog", tower,
    )
    assert rc == 0
    assert "status: OBSTRUCTED" in out
    assert "parity: even" in out
    rc, out = run_cli(
        capsys, "obstruct", "fig8_uu", "--theorem", "torsion",
        "--multiple", "3", "--catalog", tower,
    )
    assert rc == 0
    assert "parity: odd" in out


def test_cli_obstruct_j2_with_assigned_d(capsys, tower):
    # D = 5/2 in the catalog pins rho1(9_46) = -2D = -5
    rc, out = run_cli(
        capsys, "obstruct", "J2_unknot", "--theorem", "j2", "--catalog", tower
    )
    assert rc == 0
    assert "rho1(9_46): -5" in out
    assert "status: OBSTRUCTED" in out  # rho0 = 4 is in neither {0, 5/2} nor {0, -5/2}


def test_cli_assign_file_flag(capsys, tmp_path, jfamily):
    asg = tmp_path / "constants.cat"
    asg.write_text("[assign]\nrho1(9_46) = 8/3\n")
    rc, out = run_cli(
        capsys, "obstruct", "J2_trefoil", "--theorem", "j2",
        "--catalog", jfamily, "--assign", str(asg),
    )
    assert rc == 0
    # rho0(trefoil) is a certified interval around -4/3 = D, so membership
    # is possible but not certain: the verdict stays conditional
    assert "status: CONDITIONAL" in out
    assert "rho0(K) = -4/3" in out
    assert "rho1(9_46): 8/3" in out
    assert "membership (primary): possible" in out
    assert "membership (mirror): no" in out


def test_cli_independence(capsys, jfamily):
    rc, out = run_cli(
        capsys, "independence", "J1_trefoil", "J2_trefoil",
        "--target", "rho0(trefoil)", "--catalog", jfamily,
    )
    assert rc == 0
    assert "rank: 2" in out
    assert "target_in_span: true" in out
    rc, out = run_cli(
        capsys, "independence", "J1_trefoil", "J2_trefoil",
        "--target", "rho0(figure-eight)", "--catalog", jfamily,
    )
    assert rc == 0
    assert "target_in_span: false" in out


# ---------------------------------------------------------------------------
# Report contract


def test_reports_are_deterministic(capsys, jfamily):
    runs = [
        run_cli(capsys, "fos", "J1_trefoil", "--catalog", jfamily)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    jruns = [
        run_cli(capsys, "obstruct", "J2_trefoil", "--theorem", "j2",
                "--catalog", jfamily, "--format", "json")
        for _ in range(2)
    ]
    assert jruns[0] == jruns[1]


def test_json_is_machine_readable(capsys, jfamily):
    rc, out = run_cli(capsys, "rho0", "trefoil", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2) + "\n"
    assert obj["inputs"]["command"] == "rho0"
    assert obj["rho0"]["provenance"] == "interval"
    assert obj["rho0"]["value"].startswith("-4/3 (within ")
    rc, out = run_cli(capsys, "fos", "J1_trefoil", "--catalog", jfamily,
                      "--format", "json")
    obj = json.loads(out)
    assert [e["submodule"] for e in obj["entries"]] == [
        "S[1]", "S[t - 2]", "S[t - 1/2]"
    ]
    assert obj["inputs"]["catalog"] == [jfamily]


def test_report_embeds_inputs(capsys):
    rc, out = run_cli(capsys, "invariants", "trefoil", "--format", "json")
    obj = json.loads(out)
    assert obj["inputs"] == {
        "command": "invariants",
        "name": "trefoil",
        "catalog": [],
        "format": "json",
    }


# ---------------------------------------------------------------------------
# Exit codes and failure modes


def test_exit_unknown_name(capsys):
    rc, out = run_cli(capsys, "rho0", "nosuch")
    assert rc == EXIT_VALIDATION == 3
    assert "validation error: nosuch: unknown knot or expression" in out


def test_exit_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.cat"
    p.write_text("[knot k]\nmatrix = [[0, x], [1, 0]]\n")
    rc, out = run_cli(capsys, "rho0", "trefoil", "--catalog", str(p))
    assert rc == EXIT_PARSE == 2
    assert "parse error: line 2, col 6" in out


def test_exit_redefined_builtin(capsys, tmp_path):
    p = tmp_path / "redef.cat"
    p.write_text("[knot trefoil]\nmatrix = ((-1, 1), (0, -1))\n")
    rc, out = run_cli(capsys, "rho0", "trefoil", "--catalog", str(p))
    assert rc == EXIT_VALIDATION
    assert "already defined" in out


def test_exit_hypothesis_failed(capsys, jfamily):
    # torsion on a trefoil-seeded pattern: Arf hypothesis fails
    rc, out = run_cli(
        capsys, "obstruct", "fig8_tt", "--theorem", "torsion",
        "--multiple", "2", "--catalog", jfamily,
    )
    assert rc == EXIT_HYPOTHESIS == 4
    assert "hypothesis failed" in out
    assert "Arf" in out


def test_exit_missing_file(capsys):
    rc, out = run_cli(capsys, "rho0", "trefoil", "--catalog", "/nonexistent.cat")
    assert rc == EXIT_VALIDATION
    assert "error" in out


def test_exit_torsion_needs_multiple(capsys, jfamily):
    rc, out = run_cli(
        capsys, "obstruct", "fig8_tt", "--theorem", "torsion",
        "--catalog", jfamily,
    )
    assert rc == EXIT_VALIDATION
    assert "--multiple" in out


def test_tolerance_env_var(capsys, monkeypatch):
    monkeypatch.setenv(TOL_ENV_VAR, "1e-3")
    rc, out = run_cli(capsys, "rho0", "trefoil")
    assert rc == 0
    assert "tolerance: 1/1000" in out
    # an explicit flag wins over the environment
    rc, out = run_cli(capsys, "rho0", "trefoil", "--tol", "1e-6")
    assert "tolerance: 1/1000000" in out
    monkeypatch.setenv(TOL_ENV_VAR, "not-a-number")
    rc, out = run_cli(capsys, "rho0", "trefoil")
    assert rc == EXIT_VALIDATION


def test_tolerance_floor_is_checked_before_computing():
    """Below the floor 1e-4000 the CLI exits 3 at once, naming the floor, for
    --tol and CONCORD_DEFAULT_TOL alike; at the floor rho0 renders (exit 0)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    env.pop(TOL_ENV_VAR, None)

    def concord(*args, **extra_env):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "concord", *args], capture_output=True,
                              text=True, timeout=60, env=dict(env, **extra_env))
        return proc, time.perf_counter() - start

    for proc, seconds in (concord("rho0", "trefoil", "--tol", "1e-5000"),
                          concord("rho0", "trefoil", **{TOL_ENV_VAR: "1e-4001"})):
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "below the floor 1e-4000" in proc.stderr
        assert seconds < 2
    proc, _ = concord("rho0", "trefoil", "--tol", "1e-4000")
    assert proc.returncode == 0, proc.stderr
    assert f"tolerance: 1/1{'0' * 4000}\n" in proc.stdout
