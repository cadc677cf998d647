"""The benchmark's own test: exact counts repeat across runs of one commit.

Runs ``run.py --trace 1`` twice per workload with the same seed and
requires both runs to be correct and to print identical exact counts
(``solver.nodes``, ``simplex.pivots``, ``simplex.lp_calls``,
``pareto.milp_solves``, ``oracle.timing_lps``) and identical per-solve
node counts.  Under the pinned BLAS these depend only on the code, so a
mismatch means the search is not reproducible and a later change could
not separate engine speed from tree luck.

    python3 perfbench/check_repeat.py [workload ...]

Exits 0 when every workload repeats, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("front_nine", "sweep_layer_time", "oracle_batch")


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=RUN.parent.parent,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload}: run failed\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(next(line[len("# counts "):] for line in lines if line.startswith("# counts ")))


def main() -> int:
    ok = True
    for workload in sys.argv[1:] or WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        same = first == second
        ok &= same
        totals = {k: v for k, v in first.items() if k != "solve_nodes"}
        print(f"{workload}: {'repeats' if same else 'DIFFERS'} {json.dumps(totals)}")
        if not same:
            print(f"  first:  {json.dumps(first)}\n  second: {json.dumps(second)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
