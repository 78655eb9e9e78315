"""The runtime needs no sympy: with every import of sympy made to fail, all
golden reports print byte for byte through cli.main, and a plain
`import concord` leaves sympy unloaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, FORMATS, GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["sympy"] = None  # from here on, any import of sympy raises ImportError
from concord.cli import main
differ = []
for stem, argv, fmt in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main([*argv, "--format", fmt])
    with open(f"{stem}.{fmt}", encoding="utf-8") as fh:
        if rc != 0 or out.getvalue() != fh.read():
            differ.append(f"{stem}.{fmt}")
print(json.dumps(differ))
"""


def _python(code, stdin="", cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("CONCORD_DEFAULT_TOL", None)
    return subprocess.run([sys.executable, "-c", code], input=stdin, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_golden_reports_without_sympy():
    runs = [(stem, list(argv), fmt) for stem, argv in CASES for fmt in FORMATS]
    assert len(runs) == 76
    proc = _python(GOLDEN_SCRIPT, json.dumps(runs), cwd=GOLDEN)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_import_concord_loads_no_sympy():
    proc = _python("import sys, concord; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
