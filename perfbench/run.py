"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload {zero_order,modules,towers}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; concord is imported from ./src.
Each measured process is a fresh interpreter (perfbench/worker.py) started
by this script, one at a time.  Outputs are checked here, after the
measured processes have ended, so the checks cost them neither time nor
memory.
The last line of stdout is the result; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # the checks' numpy: one thread

import checks  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("zero_order", "modules", "towers")
SETUP_PROBES = 3  # fresh interpreters per run for setup_s
STARTUP_PROBES = 3
CHILD_TIMEOUT = 170
CLI_COMMANDS = ("invariants", "rho0", "module", "fos", "solvable", "obstruct", "independence")
SPANS = (
    "seifert.alexander_polynomial", "seifert.arf", "seifert.signature_profile",
    "seifert.fox_milnor_test", "seifert.rho0",
    "blanchfield.module_from_seifert", "blanchfield.submodule_lattice",
    "blanchfield.is_isotropic", "blanchfield.is_metabolizer", "blanchfield.orthogonal",
    "blanchfield.submodule_spanned_by", "blanchfield.blanchfield_pair",
    "infection.iterate_operator", "infection.first_order_signatures",
    "infection.solvability_lower_bound", "infection.rho0_multiplicity_bound",
    "infection.fingerprint", "infection.display",
    "obstruction.check_first_order_signatures", "obstruction.check_iterated_double",
    "obstruction.check_infinite_order", "obstruction.check_doubling_tower",
    "obstruction.check_torsion", "obstruction.verify_certificate",
    "obstruction.independence_check",
    "catalog.loads", "cli.run", "cli.render",
)
CACHES = ("signature_profile", "module_from_seifert")


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout("a measured process ran past its time limit")


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_child, which stops the child


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, timeout=CHILD_TIMEOUT):
    """Run one child to completion; returns (exit code, stdout bytes,
    stderr bytes, wall seconds, peak RSS KiB) from wait4's own rusage."""
    out_path, err_path = WORK / f"child.{os.getpid()}.out", WORK / f"child.{os.getpid()}.err"
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # time limit or termination: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.alarm(0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


def worker(workload, seed, seconds, traced, rounds):
    code, out, err, _, _ = run_child(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
         "1" if traced else "0", str(rounds)])
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {err.decode(errors='replace')[-2000:]}")
    return pickle.loads(out)


def setup_probe_argv(workload, seed):
    return [sys.executable, str(HERE / "worker.py"), workload, str(seed), "0", "0", "-1"]


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import concord and make
    the workload's warm-up calls."""
    times = []
    for _ in range(SETUP_PROBES):
        code, _, err, wall, _ = run_child(setup_probe_argv(workload, seed))
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {err.decode(errors='replace')[-2000:]}")
        times.append(wall)
    return statistics.median(times)


def measure_startup():
    """import concord in a fresh interpreter, and the sympy share of it as
    reported by -X importtime (cumulative microseconds)."""
    imports, sympy_s = [], []
    for _ in range(STARTUP_PROBES):
        code, out, err, _, _ = run_child([
            sys.executable, "-X", "importtime", "-c",
            "import time; t = time.perf_counter(); import concord; print(time.perf_counter() - t)"])
        if code != 0:
            raise RuntimeError("import concord failed: " + err.decode(errors="replace")[-2000:])
        imports.append(float(out.decode().split()[-1]))
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "sympy":
                sympy_s.append(int(parts[1]) / 1e6)
    return statistics.median(imports), statistics.median(sympy_s) if sympy_s else 0.0


def renumber_repeats(results):
    """A repeated cli invocation names the earlier one by its index in the
    round; make it an index into the whole run."""
    start = {}
    for i, (r, desc, out, _) in enumerate(results):
        start.setdefault(r, i)
        if "repeat_of" in desc:
            desc["repeat_of"] += start[r]


def cli_walls(seed):
    """Wall time of `python3 -m concord` for each subcommand, once each, on
    the json invocations of the first cli round."""
    walls = {}
    for desc, argv in gen.cli_round(seed, 0, ops_catalog_path(seed)):
        if desc["format"] == "json" and "repeat_of" not in desc:
            code, _, err, wall, _ = run_child([sys.executable, "-m", "concord", *argv])
            if code != 0:
                raise RuntimeError(f"concord {' '.join(argv)} exited {code}: {err.decode()[-500:]}")
            walls[desc["cmd"]] = wall
    return walls


def ops_catalog_path(seed):
    return f"{WORK.relative_to(ROOT).as_posix()}/cli_{seed}.cat"


def run_checks(workload, seed, results):
    renumber_repeats(results)
    items = [(desc, out) for _, desc, out, _ in results]
    extra = ()
    if workload == "towers":
        _, knots, consts = gen.cli_catalog(seed)
        extra = (knots, consts)
    errors = checks.check(workload, items, *extra)
    problem = checks.self_test(workload, items, *extra)
    if problem:
        errors.append(problem)
    return errors


def end_to_end(payload, setup_s):
    times = [t for *_, t in payload["results"]]
    return {
        "ops_per_s": (len(times) / payload["timed_s"], "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (payload["maxrss_kib"] / 1024, "MiB"),
    }


def per_layer(traced, untraced, walls):
    import_s, sympy_s = measure_startup()
    m = {
        "startup.import_s": (import_s, "s"),
        "startup.sympy_import_s": (sympy_s, "s"),
        "trace.overhead_s": (traced["timed_s"] - untraced["timed_s"], "s"),
    }
    for name in SPANS:
        busy, calls = traced["busy"].get(name, (0.0, 0))
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.calls"] = (calls, "count")
    bits = traced["samples"].get("seifert.rho0.overshoot_bits", [])
    m["seifert.rho0.overshoot_bits"] = (statistics.mean(bits) if bits else 0.0, "bits")
    for cache in CACHES:
        for field in ("hits", "misses"):
            delta = traced["cache_after"][cache][field] - traced["cache_before"][cache][field]
            m[f"cache.{cache}.{field}"] = (delta, "count")
    for cmd in CLI_COMMANDS:
        m[f"cli.wall_ms.{cmd}"] = (walls.get(cmd, 0.0) * 1000, "ms")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "concord" / "__init__.py").is_file():
        print(f"error: no concord sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload == "towers":
        text, _, _ = gen.cli_catalog(args.seed)
        (ROOT / ops_catalog_path(args.seed)).write_text(text, encoding="utf-8")

    if args.trace:
        untraced = worker(args.workload, args.seed, args.seconds, False, 0)
        measured = worker(args.workload, args.seed, 0, True, untraced["rounds"])
        walls = cli_walls(args.seed) if args.workload == "towers" else {}
        metrics = per_layer(measured, untraced, walls)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        measured = worker(args.workload, args.seed, args.seconds, False, 0)
        metrics = end_to_end(measured, setup_s)

    results = measured["results"]
    errors = run_checks(args.workload, args.seed, results)

    for e in errors[:20]:
        print(e, file=sys.stderr)
    for _, desc, out, _ in results:
        if checks.failed(out):
            print(f"failed op {desc.get('kind', desc.get('cmd', ''))}: "
                  f"{out.get('fault') or out.get('error')}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(1 for _, _, out, _ in results if checks.failed(out)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}_{args.seed}_{args.trace}"
    (WORK / f"result_{tag}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [{"name": n, "start": s, "end": e, "op": op} for n, s, e, op in measured["spans"]]
        (WORK / f"trace_{tag}.json").write_text(json.dumps(
            {"rounds": measured["rounds"], "rejected": measured["rejected"], "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
