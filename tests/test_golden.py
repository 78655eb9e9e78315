"""Golden reports: every subcommand, in text and json, on the built-ins and
the fixture catalogs in tests/golden/, must print exactly the stored bytes.

Regenerate the stored reports (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from concord.cli import EXIT_OK, TOL_ENV_VAR, main

GOLDEN = Path(__file__).parent / "golden"

CAT = ("--catalog", "catalog.cat")
ASSIGN = ("--assign", "assign.cat")

#: (file stem, argv without --format); paths are relative to tests/golden/
CASES = [
    ("invariants-trefoil", ("invariants", "trefoil")),
    ("invariants-9_46", ("invariants", "9_46")),
    ("invariants-g2", ("invariants", "g2", *CAT)),
    ("invariants-sum", ("invariants", "trefoil_fig8", *CAT)),
    ("invariants-J3", ("invariants", "J3_trefoil", *CAT)),
    ("rho0-trefoil-tol", ("rho0", "trefoil", "--tol", "1e-6")),
    ("rho0-figure-eight", ("rho0", "figure-eight")),
    ("rho0-unknot", ("rho0", "unknot")),
    ("rho0-g2", ("rho0", "g2", *CAT, "--tol", "1/1000")),
    ("rho0-tt", ("rho0", "tt", *CAT, "--tol", "1e-30")),
    ("module-9_46", ("module", "9_46")),
    ("module-trefoil", ("module", "trefoil")),
    ("module-g2", ("module", "g2", *CAT)),
    ("module-sum", ("module", "trefoil_fig8", *CAT)),
    ("fos-9_46", ("fos", "9_46")),
    ("fos-J2_tt", ("fos", "J2_tt", *CAT)),
    ("fos-J1_mixed", ("fos", "J1_mixed", *CAT)),
    ("fos-F2", ("fos", "F2_trefoil", *CAT)),
    ("solvable-trefoil", ("solvable", "trefoil")),
    ("solvable-J3", ("solvable", "J3_trefoil", *CAT)),
    ("solvable-F2", ("solvable", "F2_trefoil", *CAT)),
    ("solvable-sum", ("solvable", "trefoil_fig8", *CAT)),
    ("obstruct-fos-9_46", ("obstruct", "9_46", "--theorem", "fos")),
    ("obstruct-fos-J1_mixed", ("obstruct", "J1_mixed", "--theorem", "fos", *CAT)),
    ("obstruct-fos-J2_tt", ("obstruct", "J2_tt", "--theorem", "fos", *CAT)),
    ("obstruct-j2-trefoil", ("obstruct", "trefoil", "--theorem", "j2")),
    ("obstruct-j2-J2_tt", ("obstruct", "J2_tt", "--theorem", "j2", *CAT)),
    ("obstruct-j2-assigned", ("obstruct", "J2_tt", "--theorem", "j2", *CAT, *ASSIGN)),
    ("obstruct-main-trefoil", ("obstruct", "trefoil", "--theorem", "main")),
    ("obstruct-main-J3", ("obstruct", "J3_trefoil", "--theorem", "main", *CAT)),
    ("obstruct-main-assigned", ("obstruct", "J2_tt", "--theorem", "main", *CAT, *ASSIGN)),
    ("obstruct-main3-J2_tt", ("obstruct", "J2_tt", "--theorem", "main3", *CAT)),
    ("obstruct-main3-assigned", ("obstruct", "J2_tt", "--theorem", "main3", *CAT, *ASSIGN)),
    ("obstruct-torsion-even", ("obstruct", "P_tt", "--theorem", "torsion", "--multiple", "2", *CAT)),
    ("obstruct-torsion-odd", ("obstruct", "P_tt", "--theorem", "torsion", "--multiple", "3", *CAT)),
    ("obstruct-torsion-assigned",
     ("obstruct", "P_tt", "--theorem", "torsion", "--multiple", "4", *CAT, *ASSIGN)),
    ("independence-in-span",
     ("independence", "J1_tt", "J1_mixed", "J3_trefoil", "--target", "rho1(9_46)", *CAT)),
    ("independence-out-of-span",
     ("independence", "J1_tt", "F2_trefoil", "--target", "rho0(tt)", *CAT)),
]

FORMATS = ("text", "json")


def _report(argv, fmt) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main([*argv, "--format", fmt])
    assert rc == EXIT_OK, f"exit {rc}"
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_report(stem, argv, fmt, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv(TOL_ENV_VAR, raising=False)
    expected = (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")
    assert _report(argv, fmt) == expected


def test_golden_files_all_used():
    stored = {p.name for p in GOLDEN.iterdir() if p.suffix in (".text", ".json")}
    assert stored == {f"{stem}.{fmt}" for stem, _ in CASES for fmt in FORMATS}


if __name__ == "__main__":
    os.chdir(GOLDEN)
    os.environ.pop(TOL_ENV_VAR, None)
    for stem, argv in CASES:
        for fmt in FORMATS:
            Path(f"{stem}.{fmt}").write_text(_report(argv, fmt), encoding="utf-8")
