"""The benchmark's workloads and the lmi_d2 instance generator.

Every workload derives its inputs from the benchmark seed s alone: the
instance seed is 42 + s and the graph seed 7 + s, so s = 0 reproduces
the paper's Fig. 1 instance (``num`` n=100 seed 42, Erdos-Renyi graph
with average degree 3.12 and seed 7).  ``fig1`` keeps the paper's graph
(seed 7) for every s: at average degree 3.12 the number of draws until
a connected graph varies from 1 to hundreds with the seed (95 for seed
7), which would make its set-up time a property of the seed.

- ``fig1``: the paper's Fig. 1 experiment through ``cli.cmd_run``, five
  CoBa-DD runs of K=2000.  Its time is the trace metrics and the CSV
  writing; mixing on a 100x100 W is a few percent of it.
- ``n1000``: one CoBa-DD run through ``cli.cmd_run`` at n=1000 (average
  degree 8, since Erdos-Renyi connectivity needs about ln n = 6.9).  The
  dense mixing, the Metropolis eigenvalue certificate, ``compute_c0``
  and the O(n^2) per-row dual values grow with n, so network, bounds and
  trace-metric changes show here.
- ``lmi_d2``: a generated d=2 instance with a certified optimum, run
  through the library API three ways (``cobadd_solve`` with
  phi >= phibar, bounded ``central_solve`` with stepsize alpha/n, and
  ``cobadd_init`` plus K ``cobadd_step`` calls).  It is the only
  workload that runs the PSD projection and where the agreement
  theorems apply.

Each ``run_*`` function performs the timed work and returns a
``Timed`` record; the operations' outputs are checked afterwards, with
every hook removed, by ``rep.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from cobadd import central, cli, problem, solver
from cobadd.problem import DualPoint, NodeSpec, ProblemInstance

from tracer import Recorder, perf

FIG1_K = 2000
FIG1_GRAPH_SEED = 7
FIG1_RUNS = ((1.0, 1), (1.0, 2), (1.0, 4), (1.0, 26), (0.1, 1))  # (alpha, phi)
N1000 = {"n": 1000, "avg_degree": 8.0, "alpha": 1.0, "phi": 4, "K": 100}
# alpha = 0.1 keeps the ergodic iterate in its O(1/k) phase at K, where
# the final error and violation are stable across seeds; phi = 16 clears
# phibar (9 to 13.5 over seeds 0..9) so the agreement theorems apply.
LMI = {"n": 200, "avg_degree": 40.0, "c": 1.0, "alpha": 0.1, "phi": 16, "K": 500}


def seeds(seed: int) -> tuple[int, int]:
    """(instance seed, graph seed) for a benchmark seed."""
    return (42 + seed) % 2**32, (7 + seed) % 2**32


@dataclass
class Operation:
    """One solver run's output, checked after the timed region."""

    name: str
    solver: str
    K: int
    csv: str | None = None
    applicable: bool | None = None
    trace: object | None = None
    states: list | None = None


@dataclass
class Timed:
    setup_s: float
    run_s: float
    solver_s: float
    iterations: int
    operations: list[Operation]
    f_star_reported: float | None = None
    context: dict = field(default_factory=dict)


class SetupFailed(RuntimeError):
    """The workload's inputs could not be built (e.g. no connected graph)."""


# ---------------------------------------------------------------------------
# fig1 and n1000: the experiment CLI
# ---------------------------------------------------------------------------

def _run_cli(rec: Recorder, workdir: str, inst_seed: int, graph_seed: int, n: int,
             avg_degree: float, runs, K: int, span) -> Timed:
    out_dir = os.path.join(workdir, "out")
    config = {
        "instance": {"builtin": "num", "n": n, "seed": inst_seed},
        "graph": {"n": n, "avg_degree": avg_degree, "seed": graph_seed},
        "runs": [{"solver": "cobadd", "alpha": a, "phi": phi, "K": K} for a, phi in runs],
        "output_dir": out_dir,
    }
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    errors = io.StringIO()
    start = perf()
    with span("cli.run"), contextlib.redirect_stderr(errors):
        code = cli.cmd_run(path)
    end = perf()
    if code != 0 or rec.first_solver_start is None:
        raise SetupFailed(f"cmd_run exited with code {code}: {errors.getvalue().strip()}")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    ops = [Operation(r["name"], r["solver"], r["K"], os.path.join(out_dir, r["csv"]),
                     applicable=r["bound_violations"]["applicable"])
           for r in summary["runs"]]
    return Timed(setup_s=rec.first_solver_start - start, run_s=end - start,
                 solver_s=rec.solver_seconds, iterations=len(runs) * K,
                 operations=ops, f_star_reported=summary["f_star"],
                 context={"n": n, "instance_seed": inst_seed})


def run_fig1(rec, workdir, seed, span):
    return _run_cli(rec, workdir, seeds(seed)[0], FIG1_GRAPH_SEED, 100, 3.12,
                    FIG1_RUNS, FIG1_K, span)


def run_n1000(rec, workdir, seed, span):
    p = N1000
    return _run_cli(rec, workdir, *seeds(seed), p["n"], p["avg_degree"],
                    ((p["alpha"], p["phi"]),), p["K"], span)


def reference_num(timed: Timed) -> float:
    """Independent f* for the num instance the CLI ran."""
    base = problem.make_sample_num_instance(timed.context["n"], timed.context["instance_seed"])
    return cli.dual_bisection(base, tol=1e-10).f_star


# ---------------------------------------------------------------------------
# lmi_d2: library API on a generated d=2 instance
# ---------------------------------------------------------------------------

def make_lmi_instance(n: int, seed: int, c: float):
    """A d=2 instance whose LMI restates the budget, plus its d=0 twin.

    Node i keeps the ``num`` cost and constraint and gets
    A_i = Q diag(-c s_i, -c s_i r_i) Q^T, with A0 = Q diag(10c, c sum s_i r_i + 1) Q^T,
    a seeded rotation Q and r_i in [0, 1).  In the rotated basis the
    first diagonal entry of A0 + sum A_i x_i is c (10 - sum s_i x_i), the
    budget itself, and the second is at least 1 on the box.  So the LMI
    cuts nothing off, f* equals the d=0 optimum, and the LMI binds there.
    """
    base = cli.make_sample_num_instance(n, seed)
    rng = np.random.default_rng([seed, 2])
    theta = rng.uniform(0.0, np.pi)
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    r = rng.uniform(0.0, 1.0, size=n)
    sigma = np.asarray(base.meta["sigma"])
    nodes = tuple(
        NodeSpec(nd.f, nd.g, Q @ np.diag([-c * sigma[i], -c * sigma[i] * r[i]]) @ Q.T, nd.box)
        for i, nd in enumerate(base.nodes))
    A0 = Q @ np.diag([10.0 * c, c * float(np.sum(sigma * r)) + 1.0]) @ Q.T
    meta = {"builtin": "bench_lmi_d2", "n": n, "seed": int(seed), "c": c}
    return ProblemInstance(nodes, A0, 2, meta), base, Q


def certify_lmi(instance: ProblemInstance, Q: np.ndarray, x_star: np.ndarray) -> dict:
    """The d=0 optimum is feasible for the LMI, which binds, with a
    strictly positive slack block."""
    M = instance.lmi_matrix(x_star)
    lam_min = float(np.linalg.eigvalsh(M)[0])
    slack = float((Q.T @ M @ Q)[1, 1])
    if lam_min < -1e-9 or not slack > 0.0:
        raise SetupFailed(f"lmi_d2 certificate failed: lambda_min={lam_min}, slack={slack}")
    return {"lambda_min": lam_min, "slack": slack}


def run_lmi_d2(rec: Recorder, workdir: str, seed: int, span) -> Timed:
    p = LMI
    n, K = p["n"], p["K"]
    inst_seed, graph_seed = seeds(seed)
    start = perf()
    with span("problem.setup"):
        instance, base, Q = make_lmi_instance(n, inst_seed, p["c"])
    # set-up goes through the names cmd_run uses, so the traced run
    # charges it to the same layers as fig1 and n1000
    graph = cli.random_connected_graph(n, p["avg_degree"], graph_seed)
    W = cli.metropolis_weights(graph)
    slater = cli.slater_certificate(instance, np.zeros(n))
    probe = DualPoint(0.0, np.zeros((2, 2)))
    threshold = cli.dual_set_threshold(instance, slater, probe)
    sets = cli.build_dual_sets(instance, slater, probe, threshold)
    oracle = cli.dual_bisection(base, tol=1e-10)
    setup_s = perf() - start
    certificate = certify_lmi(instance, Q, oracle.x_star)  # untimed

    resumed = perf()
    config = solver.CobaddConfig(alpha=p["alpha"], phi=p["phi"], K=K, sets=sets,
                                 seed=graph_seed)
    ops = []
    with rec.solver_run("cobadd_solve"):
        trace = solver.cobadd_solve(instance, W, config)
    csv = os.path.join(workdir, f"cobadd_phi{p['phi']}.csv")
    trace.write_csv(csv)
    ops.append(Operation("cobadd_solve", "cobadd", K, csv,
                         trace.bounds.agreement_applicable, trace))
    with rec.solver_run("central_solve"):
        ctrace = central.central_solve(instance, p["alpha"] / n, K, sets=sets)
    csv = os.path.join(workdir, "central.csv")
    ctrace.write_csv(csv)
    ops.append(Operation("central_solve", "centralized", K, csv, None, ctrace))
    with rec.solver_run("step_api"):
        states = solver.cobadd_init(instance, W, config)
        for _ in range(K):
            states = solver.cobadd_step(instance, states, W, config)
    ops.append(Operation("step_api", "cobadd_step", K, states=states))
    end = perf()
    return Timed(setup_s=setup_s, run_s=setup_s + (end - resumed),
                 solver_s=rec.solver_seconds, iterations=3 * K, operations=ops,
                 context={"instance": instance, "f_star": oracle.f_star,
                          "certificate": certificate})


WORKLOADS = {"fig1": run_fig1, "n1000": run_n1000, "lmi_d2": run_lmi_d2}
