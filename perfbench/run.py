"""printplan benchmark: time to a proven answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload front_nine --seed 1 --seconds 40 --trace 0

A run sets up the workload, then repeats its request (a pass) for about
``--seconds`` seconds, one pass at a time, and checks every answer.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, each
starting with ``#``, give the environment, the median, tail percentile
and sample count of every timing, and any failure.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, the tracing overhead, and the exact counts that must repeat
across runs of one commit; its spans go to ``.bench_out/`` in the
checkout.  See NOTES.md for the metrics and why each workload exists.
"""

import os

# One BLAS thread, set before numpy loads: the thread count changes the
# branch-and-bound trees (nine-part z: 210 nodes at 1 thread, 211 at 2)
# and nearly doubles CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_STARTED = time.perf_counter()

import argparse
import ctypes
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import printplan from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "printplan" / "__init__.py").is_file():
        _fail(f"no printplan package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import printplan

    if Path(printplan.__file__).resolve().parent != SRC / "printplan":
        _fail(f"imported printplan from {printplan.__file__}, not from {SRC}")
    import workloads

    return workloads


def _blas_runtime() -> dict:
    """Vendor config string and thread count as the loaded OpenBLAS reports them."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            config.restype = ctypes.c_char_p
            return {"blas_runtime_config": config().decode(), "blas_threads": threads()}
    return {"blas_runtime_config": None, "blas_threads": None}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "printplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        **_blas_runtime(),
        "blas_env_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def tail(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g}"
    for level in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - level) / 100 >= 10:
            rank = math.ceil(level / 100 * n) - 1
            text += f" p{level:g}={ordered[rank]:.6g}"
            break
    else:
        text += " tail=none(<10 beyond any percentile)"
    return f"{text} n={n}"


def setup_probe(workload_name: str, base: int) -> float:
    """Imports plus the workload's instance set-up, as a fresh process pays them."""
    workloads = _import_program()
    import printplan.cli  # noqa: F401  the CLI workloads run the command module

    workloads.WORKLOADS[workload_name](base).setup()
    return time.perf_counter() - _STARTED


def measure_setup(workload_name: str, base: int) -> list[float]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--base", str(base)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            _fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probes.append(float(done.stdout.strip().splitlines()[-1]))
    return probes


def run(args) -> int:
    workloads = _import_program()
    import spans

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    setup_times = measure_setup(args.workload, args.base)

    workload = workloads.WORKLOADS[args.workload](args.base)
    workload.setup()
    workload.order(random.Random(args.seed))

    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    passes = []  # (number, traced, wall_s, cpu_s, PassResult, Tracer | None)
    started = time.perf_counter()
    try:
        while True:
            number = len(passes)
            traced = bool(args.trace) and number % 2 == 1
            tracer = spans.Tracer() if traced else None
            out = scratch / f"pass-{number}"
            out.mkdir(parents=True)
            if tracer:
                tracer.install(workloads)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = workload.run_pass(out)
            finally:
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                if tracer:
                    tracer.uninstall()
            shutil.rmtree(out)
            passes.append((number, traced, wall, cpu, result, tracer))
            elapsed = time.perf_counter() - started
            need_traced = bool(args.trace) and not any(p[1] for p in passes)
            if elapsed + wall > args.seconds and not need_traced:
                break
        checks = workload.verify([p[4] for p in passes])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.exists() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    results = [p[4] for p in passes] + [checks]
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    plain = [p for p in passes if not p[1]]
    print(f"# workload={args.workload} seed={args.seed} base={args.base} passes={len(passes)}")
    print("# pass_s " + " ".join(f"{p[2]:.4f}{'t' if p[1] else ''}" for p in passes))
    print(f"# run_s {tail([p[2] for p in plain])}")
    print(f"# cpu_s {tail([p[3] for p in plain])}")
    print(f"# setup_s {tail(setup_times)}")
    print(f"# fail_share {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for failure in failures[:20]:
        print(f"# failure: {failure}")

    if args.trace:
        traced = [p for p in passes if p[1]]
        per_pass = [spans.layer_metrics(p[5].spans) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["cli.bytes_written"] = statistics.median(p[4].bytes_written for p in traced)
        traced_run_s = statistics.median(p[2] for p in traced)
        metrics["trace.overhead_s"] = traced_run_s - statistics.median(p[2] for p in plain)
        first = traced[0][5].spans
        counts = {name: per_pass[0][name] for name in spans.EXACT_COUNTS}
        counts["solve_nodes"] = spans.solve_nodes(first)
        print("# counts " + json.dumps(counts))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                          [(p[0], p[5]) for p in traced])
        units = spans.UNITS
    else:
        metrics = {
            "run_s": statistics.median(p[2] for p in plain),
            "cpu_s": statistics.median(p[3] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["front_nine", "sweep_layer_time", "oracle_batch"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the independent requests of a pass")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for about this long; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--base", type=int, default=0,
                        help="first random_instance seed of oracle_batch; 0 gives "
                             "acceptance criterion 1's seeds, others are held out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.base):.9f}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
