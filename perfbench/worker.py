"""One measured process: import concord, warm up, run whole rounds of a
workload's operations, and write the raw results to stdout as a pickle.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE ROUNDS

ROUNDS = 0 runs rounds until the operations have taken SECONDS; ROUNDS > 0
runs exactly that many (the traced pass repeats the untraced pass's count).
ROUNDS = -1 stops after the import and the warm-up calls: that is what
setup_s times.  The process starts no threads and no children.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402  (imports concord)
from gen import Generator  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv):
    workload, seed, seconds, traced, rounds = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", int(argv[4]))
    warm_up, make_round = ops.WORKLOADS[workload]
    tr = Tracer(traced)
    seen = warm_up(Tracer(False))
    if rounds < 0:
        return
    cache_before = ops.cache_info()
    g = Generator(workload, seed, seen)
    results, timed, r = [], 0.0, 0
    while (r < rounds) if rounds else (timed < seconds):
        gc.collect()
        for desc, thunk in make_round(g, r, tr):
            tr.op = len(results)
            start = perf_counter()
            try:
                out = thunk()
            except Exception as ex:  # an op that raises is counted as failed
                out = {"error": f"{type(ex).__name__}: {ex}"}
            elapsed = perf_counter() - start
            timed += elapsed
            results.append((r, desc, out, elapsed))
        r += 1
    payload = {
        "results": results,
        "rounds": r,
        "timed_s": timed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_before": cache_before,
        "cache_after": ops.cache_info(),
        "rejected": g.rejected,
        "busy": tr.busy,
        "samples": tr.samples,
        "spans": tr.spans,
    }
    sys.stdout.buffer.write(pickle.dumps(payload))
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
    # skip interpreter teardown of the large result graphs; output is flushed
    os._exit(0)
