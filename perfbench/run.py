"""cobadd benchmark: run one workload for a fixed time and report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 30 --trace 0

Repetitions run one at a time, each in a fresh process (``rep.py``),
with OpenBLAS limited to min(2, nproc) threads.  New repetitions start
until the next one would end after ``--seconds`` (at least three with
``--trace 0``).  ``--trace 0`` reports the end-to-end metrics as medians
over the repetitions; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones plus
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation is one solver run.  It fails when any of its output checks
fails, when its trace CSV differs from the first repetition's, or when
its repetition could not set up or crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

# operations (solver runs) per repetition, charged when a repetition dies
OPERATIONS = {"fig1": 5, "n1000": 1, "lmi_d2": 3}
END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("iters_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("rel_error_final", "ratio"), ("viol_final", "1"),
)
MIN_PLAIN_REPS = 3
HARD_LIMIT_S = 170.0  # the whole invocation must end within 180 s


def source_record() -> dict:
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cobadd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit or "unavailable (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def run_repetition(args, mode: str, index: int, env: dict, timeout: float) -> dict:
    out_dir = os.path.join(ROOT, ".bench_out", "reps")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-{index:02d}-{mode}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--result", path]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        ok = proc.returncode == 0 and os.path.exists(path)
        error = None if ok else f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        ok, error = False, f"repetition killed after {timeout:.0f} s"
    wall = time.perf_counter() - start
    if not ok:
        return {"mode": mode, "crash": error, "wall_s": wall}
    with open(path) as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    return result


def describe(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile the sample count supports:
    with fewer than ten samples beyond any higher percentile, the max."""
    ordered = sorted(values)
    return (f"{name}: median {statistics.median(ordered):.6g} {unit}, "
            f"max {ordered[-1]:.6g} {unit}, min {ordered[0]:.6g} {unit}, n={len(ordered)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload not in OPERATIONS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(OPERATIONS)}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "cobadd", "__init__.py")):
        print(f"no cobadd sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    invoked = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(2, nproc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc,
              "python": platform.python_version(), "blas_threads_requested": int(threads),
              **source_record()}
    warm = run_repetition(args, "warmup", 0, env, 60.0)
    record["warmup"] = {"policy": "one 1000x1000 eigvalsh in its own process before "
                                  "the first repetition", "seconds": warm.get("warmup_s"),
                        "error": warm.get("crash")}
    record["blas"] = warm.get("blas")
    record["numpy"] = warm.get("numpy")

    modes = ("plain", "traced") if args.trace else ("plain",)
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        mode = modes[len(reps) % len(modes)]
        elapsed = time.perf_counter() - started
        walls = [r["wall_s"] for r in reps if r["mode"] == mode]
        estimate = statistics.median(walls) if walls else 0.0
        enough = len(reps) >= (2 if args.trace else MIN_PLAIN_REPS)
        if enough and elapsed + estimate > args.seconds:
            break
        remaining = HARD_LIMIT_S - (time.perf_counter() - invoked)
        if reps and remaining < 1.5 * estimate:
            break
        reps.append(run_repetition(args, mode, len(reps), env, remaining))

    return report(args, record, reps)


def report(args, record: dict, reps: list[dict]) -> int:
    ops_per_rep = OPERATIONS[args.workload]
    attempted = failed = 0
    digests: dict[str, str] = {}
    notes = []
    for i, rep in enumerate(reps):
        if "operations" not in rep:
            attempted += ops_per_rep
            failed += ops_per_rep
            notes.append(f"repetition {i} ({rep['mode']}): "
                         f"{rep.get('crash') or 'failed setup: ' + rep.get('setup_error', '?')}")
            continue
        for op in rep["operations"]:
            attempted += 1
            first = digests.setdefault(op["name"], op["digest"])
            mismatch = op["digest"] != first
            if op["failed"] or mismatch:
                failed += 1
                bad = [k for k, v in op["checks"].items() if v == "fail"]
                notes.append(f"repetition {i}: {op['name']} failed "
                             f"{bad + (['determinism'] if mismatch else [])}")

    good = [r for r in reps if "operations" in r]
    print(json.dumps({"environment": record}))
    for note in notes:
        print(note)

    plain = [r for r in good if r["mode"] == "plain"]
    traced = [r for r in good if r["mode"] == "traced"]
    metrics = {}
    if plain:
        samples = {
            "setup_s": [r["setup_s"] for r in plain],
            "run_s": [r["run_s"] for r in plain],
            "iters_per_s": [r["iterations"] / r["solver_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        units = dict(END_TO_END)
        for name, values in samples.items():
            print(describe(name, values, units[name]))
        if plain[0].get("certificate"):
            print(f"lmi_d2 certificate at x*: {plain[0]['certificate']}")
        ops = plain[0]["operations"]
        samples["rel_error_final"] = [max(op["rel_error_final"] for op in ops)]
        samples["viol_final"] = [max(op["viol_final"] for op in ops)]
        for op in ops:
            verdicts = " ".join(f"{k}={v}" for k, v in op["checks"].items())
            figures = " ".join(f"{k}={op[k]}" for k in ("rel_error_final", "viol_final",
                                                        "first_1pct_k", "messages_to_1pct",
                                                        "G_norm_final") if k in op)
            print(f"op {op['name']}: {figures} | {verdicts}")
        if not args.trace:
            metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END}
    if args.trace and traced and plain:
        absent = sorted({a for r in traced for a in r["absent_hooks"]})
        print(f"absent hooks: {absent if absent else 'none'}; "
              f"spans: {[r['spans'] for r in traced]}")
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in plain))
        for name, unit, _ in PER_LAYER:
            value = (overhead if name == "bench.trace_overhead_s"
                     else statistics.median(r["layers"][name] for r in traced))
            metrics[name] = {"value": value, "unit": unit}

    expected = ({n for n, _ in END_TO_END} if not args.trace else {n for n, _, _ in PER_LAYER})
    complete = set(metrics) == expected
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
