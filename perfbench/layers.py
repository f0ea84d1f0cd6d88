"""Which package names the traced run wraps, and the per-layer metrics.

Layers are named after the package's modules.  Each hook is
``(module, attribute, layer, counter)``: a span per call, plus an
optional counter that reads the call's arguments.  Tallies only count
calls, which keeps ``ScalarFunction.__call__`` (millions of calls per
fig1 run) cheap enough to wrap.  Mixing bytes and flops are computed
from the array shapes of a dense ``W @ payload`` product, not measured.
"""

from __future__ import annotations

import os


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _q_nodes(counts, args, kwargs):
    instance, mus = _arg(args, kwargs, 0, "instance"), _arg(args, kwargs, 1, "mus")
    counts["problem.q_nodes.node_evals"] += len(mus) * instance.n


def _mix(counts, args, kwargs):
    W, values, phi = (_arg(args, kwargs, 0, "W"), _arg(args, kwargs, 1, "values"),
                      _arg(args, kwargs, 2, "phi"))
    n = W.n
    width = values.size // n
    counts["network.mix.steps"] += phi
    counts["network.mix.messages"] += phi * 2 * W.edge_count
    counts["network.mix.flops_computed"] += phi * 2 * n * n * width
    counts["network.mix.bytes_computed"] += phi * 8 * (n * n + 2 * n * width)


def _project_stack(counts, args, kwargs):
    counts["spectral.project.matrices"] += _arg(args, kwargs, 0, "mats").shape[0]


def _project_one(counts, args, kwargs):
    counts["spectral.project.matrices"] += 1


def _solve(counts, args, kwargs):
    counts["solver.iters"] += _arg(args, kwargs, 2, "config").K


def _step(counts, args, kwargs):
    counts["solver.iters"] += 1


def _central(counts, args, kwargs):
    counts["central.iters"] += _arg(args, kwargs, 2, "K")


def _write(counts, args, kwargs):
    counts["trace.write.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = (
    # the per-row trace metrics and the local oracle
    ("cobadd.solver", "dual_function_values", "problem.q_nodes", _q_nodes),
    ("cobadd.solver", "evaluate_primal", "problem.evaluate_primal", None),
    ("cobadd.central", "evaluate_primal", "problem.evaluate_primal", None),
    ("cobadd.solver", "minimize_node_lagrangians", "problem.oracle", None),
    ("cobadd.central", "oracle_sweep", "problem.oracle", None),
    ("cobadd.solver", "constraint_values", "problem.subgrad", None),
    ("cobadd.central", "constraint_values", "problem.subgrad", None),
    # instance, Slater point and dual sets
    ("cobadd.cli", "build_instance", "problem.setup", None),
    ("cobadd.cli", "make_sample_num_instance", "problem.setup", None),
    ("cobadd.cli", "make_sample_lmi_instance", "problem.setup", None),
    ("cobadd.cli", "instance_from_json", "problem.setup", None),
    ("cobadd.cli", "slater_certificate", "problem.setup", None),
    ("cobadd.cli", "dual_set_threshold", "problem.setup", None),
    ("cobadd.cli", "build_dual_sets", "problem.setup", None),
    # network
    ("cobadd.cli", "random_connected_graph", "network.graph", None),
    ("cobadd.cli", "metropolis_weights", "network.metropolis", None),
    ("cobadd.solver", "metropolis_weights", "network.metropolis", None),
    ("cobadd.cli", "check_consensus_conditions", "network.check", None),
    ("cobadd.solver", "consensus_round", "network.mix", _mix),
    ("cobadd.cli", "consensus_round", "network.mix", _mix),
    # spectral projections
    ("cobadd.solver", "project_psd_ball_stack", "spectral.project", _project_stack),
    ("cobadd.central", "project_G", "spectral.project", _project_one),
    ("cobadd.central", "project_psd", "spectral.project", _project_one),
    ("cobadd.central", "project_mu", "spectral.project", None),
    ("cobadd.cli", "project_G", "spectral.project", _project_one),
    # bounds
    ("cobadd.solver", "compute_c0", "bounds.c0", None),
    ("cobadd.solver", "theoretical_bounds", "bounds.theoretical", None),
    ("cobadd.solver", "default_beta0", "bounds.theoretical", None),
    ("cobadd.solver", "subgradient_bounds", "bounds.theoretical", None),
    ("cobadd.central", "subgradient_bounds", "bounds.theoretical", None),
    # solvers: cmd_run calls them through cli, lmi_d2 through their modules
    ("cobadd.cli", "cobadd_solve", "solver.solve", _solve),
    ("cobadd.solver", "cobadd_solve", "solver.solve", _solve),
    ("cobadd.solver", "cobadd_init", "solver.step", None),
    ("cobadd.solver", "cobadd_step", "solver.step", _step),
    ("cobadd.cli", "central_solve", "central.solve", _central),
    ("cobadd.central", "central_solve", "central.solve", _central),
    # ground truth
    ("cobadd.cli", "ground_truth", "oracles.ground_truth", None),
    ("cobadd.cli", "dual_bisection", "oracles.ground_truth", None),
    ("cobadd.cli", "grid_search_lmi", "oracles.ground_truth", None),
    ("cobadd.cli", "load_cached_result", "oracles.cache", None),
    ("cobadd.cli", "store_cached_result", "oracles.cache", None),
    ("cobadd.cli", "dykstra_project", "oracles.dykstra", None),
    # output
    ("cobadd.trace", "RunTrace.write_csv", "trace.write", _write),
)

TALLIES = (
    ("cobadd.problem", "ScalarFunction.__call__", "problem.scalar_fn.calls", None),
    ("cobadd.oracles", "oracle_sweep", "oracles.ground_truth.sweeps", "oracles.ground_truth"),
    ("cobadd.network", "Graph.is_connected", "network.graph.draws", "network.graph"),
)

# (metric, unit, better); the order is the report order
PER_LAYER = (
    ("problem.q_nodes.calls", "count", "lower"),
    ("problem.q_nodes.self_s", "s", "lower"),
    ("problem.q_nodes.node_evals", "count", "lower"),
    ("problem.evaluate_primal.calls", "count", "lower"),
    ("problem.evaluate_primal.self_s", "s", "lower"),
    ("problem.scalar_fn.calls", "count", "lower"),
    ("problem.oracle.calls", "count", "lower"),
    ("problem.oracle.self_s", "s", "lower"),
    ("problem.subgrad.self_s", "s", "lower"),
    ("problem.setup.self_s", "s", "lower"),
    ("network.graph.self_s", "s", "lower"),
    ("network.graph.draws", "count", "lower"),
    ("network.graph.accept_ratio", "ratio", "higher"),
    ("network.metropolis.self_s", "s", "lower"),
    ("network.mix.calls", "count", "lower"),
    ("network.mix.self_s", "s", "lower"),
    ("network.mix.steps", "count", "lower"),
    ("network.mix.messages", "count", "lower"),
    ("network.mix.flops_computed", "flop", "lower"),
    ("network.mix.bytes_computed", "B", "lower"),
    ("spectral.project.calls", "count", "lower"),
    ("spectral.project.matrices", "count", "lower"),
    ("spectral.project.self_s", "s", "lower"),
    ("bounds.c0.self_s", "s", "lower"),
    ("bounds.theoretical.self_s", "s", "lower"),
    ("solver.solve.self_s", "s", "lower"),
    ("solver.step.self_s", "s", "lower"),
    ("solver.iters", "count", "higher"),
    ("central.solve.self_s", "s", "lower"),
    ("central.iters", "count", "higher"),
    ("oracles.ground_truth.self_s", "s", "lower"),
    ("oracles.ground_truth.sweeps", "count", "lower"),
    ("trace.write.self_s", "s", "lower"),
    ("trace.write.bytes", "B", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


def layer_metrics(stats: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but the overhead,
    which needs the untraced repetitions too)."""
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name in counts:
            out[name] = float(counts[name])
        elif field in ("calls", "self_s"):
            out[name] = float(stats.get(layer, {}).get(field, 0.0))
        elif name.endswith("accept_ratio"):
            draws = counts.get("network.graph.draws", 0.0)
            graphs = stats.get("network.graph", {}).get("calls", 0)
            out[name] = graphs / draws if draws else 0.0
        elif name != "bench.trace_overhead_s":
            out[name] = 0.0
    return out
