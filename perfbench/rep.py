"""One repetition of one workload, in a fresh process.

Usage (run.py starts it; one repetition at a time)::

    python3 perfbench/rep.py --workload fig1 --seed 0 --mode plain --result R.json

``--mode plain`` installs no per-layer hooks: it only brackets the
solver calls, which ``setup_s`` and ``iters_per_s`` need.  ``--mode
traced`` adds the span hooks of ``layers.py`` and writes the spans next
to the result file.  Either way the timed work comes first; the outputs
are checked afterwards, with every wrapper removed, and everything goes
into one JSON result file.  ``--mode warmup`` only runs the warm-up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import cobadd  # noqa: E402
from cobadd.errors import ConfigurationError  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, Tracer, perf  # noqa: E402

# Warm-up policy: before its first repetition, run.py starts one process
# that only runs a 1000x1000 eigvalsh.  On the 2-CPU machine this
# benchmark was tuned on, the first large LAPACK call after the machine
# sat idle stalled for about 1 s (seen in metropolis_weights at n=1000),
# in whichever process made it; later processes did not stall.  A
# separate process keeps the warm-up's arrays out of the repetitions'
# peak RSS.  Its duration is reported as warmup_s.
WARMUP_N = 1000


def warm_up() -> float:
    start = perf()
    A = np.random.default_rng(0).random((WARMUP_N, WARMUP_N))
    np.linalg.eigvalsh(A + A.T)
    return perf() - start


def blas_info() -> dict:
    """The OpenBLAS library numpy loaded and its thread count."""
    info = {"library": None, "threads": None}
    with open("/proc/self/maps") as fh:
        path = next((line.split()[-1] for line in fh if "openblas" in line), None)
    if path is None:
        return info
    info["library"] = os.path.basename(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return info
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["threads"] = int(fn())
            break
    return info


def check_outputs(workload: str, timed) -> list[dict]:
    if workload == "lmi_d2":
        f_star, instance = timed.context["f_star"], timed.context["instance"]
    else:
        f_star = workloads.reference_num(timed)
        instance = None
    results = []
    solve_trace = None
    for op in timed.operations:
        if op.states is not None:
            verdicts, figures = checks.check_step_api(op, solve_trace, instance, f_star)
        else:
            verdicts, figures = checks.check_trace(op, f_star)
            if op.solver == "cobadd" and op.trace is not None:
                solve_trace = op.trace
        if timed.f_star_reported is not None:
            verdicts["f_star"] = checks.verdict(
                abs(timed.f_star_reported - f_star) <= 1e-9 * max(1.0, abs(f_star)))
        results.append({"name": op.name, "solver": op.solver, "K": op.K,
                        "checks": verdicts, "failed": "fail" in verdicts.values(),
                        **figures})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "warmup"), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(cobadd.__file__).startswith(SRC + os.sep):
        print(f"cobadd was imported from {cobadd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "blas": blas_info(), "numpy": np.__version__}
    if args.mode == "warmup":
        result["warmup_s"] = warm_up()
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.install(layers.HOOKS, layers.TALLIES)
    if args.workload in ("fig1", "n1000"):
        rec.clock("cobadd.cli", "cobadd_solve", "cobadd")
        rec.clock("cobadd.cli", "central_solve", "central")
    span = tracer.span if tracer is not None else (lambda layer: contextlib.nullcontext())

    workroot = os.path.join(ROOT, ".bench_out", "work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        timed = None
        try:
            timed = workloads.WORKLOADS[args.workload](rec, workdir, args.seed, span)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except (workloads.SetupFailed, ConfigurationError) as exc:
            result["setup_error"] = str(exc)
        finally:
            rec.uninstall()
        if timed is not None:
            result.update(setup_s=timed.setup_s, run_s=timed.run_s,
                          solver_s=timed.solver_s, iterations=timed.iterations,
                          certificate=timed.context.get("certificate"),
                          operations=check_outputs(args.workload, timed))
        if tracer is not None:
            result["layers"] = layers.layer_metrics(tracer.layer_stats(), tracer.counts)
            result["absent_hooks"] = tracer.absent
            spans = os.path.splitext(args.result)[0] + ".spans.csv"
            tracer.write_spans(spans)
            result["spans"] = os.path.relpath(spans, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
