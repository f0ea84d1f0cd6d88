"""Experiment driver: deterministic runs and invariant verification.

``cobadd run config.json`` executes every configured run, writes one
trace CSV per run plus a ``summary.json`` with the oracle optimum, final
errors, error floors, message counts at the 1%-relative-error crossing,
and bound-violation counts over every row.  ``cobadd verify config.json``
replays the property suites (consensus-matrix conditions, projection
against the alternating-projection oracle) and checks every configured
run, the master node as the case m = 1: weak duality, the final duals in
their sets and the primal sandwich on every row, then for CoBa-DD the
consensus round and the agreement bound; it exits nonzero on any
failure.  Both check every config value on load; a bad config ends in an
``error:`` line and exit code 2, and a set-up, solve or write that fails
in one and exit code 1.  No plots are drawn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .central import central_solve
from .errors import ConfigurationError
from .network import (ConsensusMatrix, Graph, check_consensus_conditions, consensus_round,
                      metropolis_weights, random_connected_graph)
from .oracles import OracleResult, dual_bisection, dykstra_project, grid_search_lmi
from .problem import (DualPoint, DualSetSpec, ProblemInstance, dual_set_threshold,
                      instance_from_json, make_sample_lmi_instance,
                      make_sample_num_instance, slater_certificate)
from .problem import build_dual_sets  # noqa: F401  (kept in this module's namespace)
from .solver import CobaddConfig, cobadd_solve
from .spectral import project_psd_ball_stack
from .trace import RunTrace


@dataclass
class RunSpec:
    solver: str
    alpha: float
    K: int
    phi: int = 1
    bounded: bool = True
    name: str = ""


@dataclass
class ExperimentConfig:
    instance: dict
    graph: dict
    runs: list[RunSpec]
    output_dir: str
    r: float | None = None
    slater_xbar: list[float] | None = None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration file: unknown fields,
    booleans for numbers, an unknown builtin, an empty output directory, and
    repeated or path-like run names are errors.  The builtin ``num`` section
    comes back with its defaults ``n = 100`` and ``seed = 0`` filled in."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc

    def known(section, where, *fields):
        if not isinstance(section, dict):
            raise ConfigurationError(f"{where} must be an object")
        unknown = sorted(set(section) - set(fields))
        if unknown:
            raise ConfigurationError(f"unknown field {where}.{unknown[0]}")
        return section

    def need(section, key, types, where):
        if key not in section:
            raise ConfigurationError(f"missing field {where}.{key}")
        if not isinstance(section[key], types):
            raise ConfigurationError(f"field {where}.{key} has the wrong type")
        return section[key]

    def finite(value) -> bool:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))

    def number(section, key, where, ok, what):
        value = need(section, key, object, where)
        if not (finite(value) and ok(value)):
            raise ConfigurationError(f"{where}.{key} must be {what}")
        return float(value)

    def integer(section, key, where, minimum, default=None):
        value = need(section, key, object, where) if default is None else section.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigurationError(f"{where}.{key} must be an integer >= {minimum}")
        return value

    known(doc, "config", "instance", "graph", "runs", "output_dir", "r", "slater_xbar", "meta")
    inst = known(need(doc, "instance", dict, "config"), "instance", "builtin", "path", "n", "seed")
    if ("builtin" in inst) == ("path" in inst):
        raise ConfigurationError("instance needs exactly one of 'builtin' and 'path'")
    need(inst, "builtin" if "builtin" in inst else "path", str, "instance")
    if "builtin" in inst and inst["builtin"] not in ("num", "lmi"):
        raise ConfigurationError(f"unknown builtin instance {inst['builtin']!r}")
    extra = sorted({"n", "seed"} & set(inst)) if inst.get("builtin") != "num" else []
    if extra:
        raise ConfigurationError(f"instance.{extra[0]} is read only by the builtin 'num'")
    if inst.get("builtin") == "num":
        inst = {"builtin": "num", "n": integer(inst, "n", "instance", 2, default=100),
                "seed": integer(inst, "seed", "instance", 0, default=0)}
    graph = known(need(doc, "graph", dict, "config"), "graph", "n", "avg_degree", "seed")
    integer(graph, "n", "graph", 2)
    integer(graph, "seed", "graph", 0)
    number(graph, "avg_degree", "graph", lambda v: v > 0, "positive")
    runs_doc = need(doc, "runs", list, "config")
    if not runs_doc:
        raise ConfigurationError("runs must be a nonempty list")
    runs = []
    for i, rd in enumerate(runs_doc):
        where = f"runs[{i}]"
        known(rd, where, "solver", "alpha", "K", "phi", "bounded", "name")
        solver = need(rd, "solver", str, where)
        if solver not in ("cobadd", "centralized"):
            raise ConfigurationError(f"{where}.solver must be 'cobadd' or 'centralized'")
        for key, reader in (("phi", "cobadd"), ("bounded", "centralized")):
            if key in rd and solver != reader:
                raise ConfigurationError(f"{where}.{key} is read only by the solver {reader!r}")
        bounded, name = rd.get("bounded", True), rd.get("name", "")
        if not isinstance(bounded, bool):
            raise ConfigurationError(f"{where}.bounded must be true or false")
        if not isinstance(name, str) or any(c in name for c in "/\\\0"):
            raise ConfigurationError(
                f"{where}.name must be a string without path separators or NUL")
        spec = RunSpec(solver=solver,
                       alpha=number(rd, "alpha", where, lambda v: v > 0, "finite and positive"),
                       K=integer(rd, "K", where, 1), phi=integer(rd, "phi", where, 1, default=1),
                       bounded=bounded)
        spec.name = name or (f"central_alpha{spec.alpha:g}" if solver == "centralized"
                             else f"cobadd_phi{spec.phi}_alpha{spec.alpha:g}")
        if any(spec.name == other.name for other in runs):
            raise ConfigurationError(
                f"{where} is named {spec.name!r} like an earlier run; names must be unique")
        runs.append(spec)
    output_dir = need(doc, "output_dir", str, "config")
    if not output_dir or "\0" in output_dir:
        raise ConfigurationError("config.output_dir must be a nonempty path without NUL")
    r = None if doc.get("r") is None else number(doc, "r", "config", lambda v: v > 0,
                                                 "positive")
    xbar = doc.get("slater_xbar")
    if xbar is not None and not (isinstance(xbar, list) and all(map(finite, xbar))):
        raise ConfigurationError("config.slater_xbar must be a list of finite numbers")
    if "meta" in doc:
        need(doc, "meta", dict, "config")
    return ExperimentConfig(instance=inst, graph=graph, runs=runs,
                            output_dir=output_dir, r=r, slater_xbar=xbar)


def build_instance(spec: dict) -> ProblemInstance:
    """The instance a checked ``instance`` section names: read from its
    file, whose malformed contents are a ConfigurationError, or a builtin."""
    if "path" in spec:
        path = spec["path"]
        with open(path) as fh:
            try:
                return instance_from_json(json.load(fh))
            except (LookupError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed instance file {path}: {type(exc).__name__}: {exc}") from exc
    if spec["builtin"] == "num":
        return make_sample_num_instance(spec["n"], spec["seed"])
    return make_sample_lmi_instance()


def ground_truth(instance: ProblemInstance) -> OracleResult:
    """f* for an instance from the applicable independent oracle."""
    if instance.d == 0:
        return dual_bisection(instance, 1e-10)
    if instance.n <= 3:
        return grid_search_lmi(instance, 1e-3)
    raise ConfigurationError("no oracle covers this instance shape")


@dataclass
class Setup:
    """Everything a config's runs share: instance, network, dual sets, f*."""

    instance: ProblemInstance
    graph: Graph
    W: ConsensusMatrix
    sets: DualSetSpec
    oracle: OracleResult


def build_setup(cfg: ExperimentConfig) -> Setup:
    """Instance, graph, weights, Slater point, dual sets and f* of a config.
    The Slater point is ``slater_xbar``, or the zero vector without one;
    the dual sets' threshold is probed at the zero dual."""
    instance = build_instance(cfg.instance)
    n = cfg.graph["n"]
    if n != instance.n:
        raise ConfigurationError(
            f"graph has {n} nodes but the instance has {instance.n}")
    graph = random_connected_graph(n, float(cfg.graph["avg_degree"]), cfg.graph["seed"])
    W = metropolis_weights(graph)
    xbar = np.zeros(instance.n) if cfg.slater_xbar is None else cfg.slater_xbar
    slater = slater_certificate(instance, xbar)
    probe = DualPoint(0.0, np.zeros((instance.d,) * 2))
    threshold = dual_set_threshold(instance, slater, probe)
    r = cfg.r if cfg.r is not None else (threshold if threshold > 0 else 1.0)
    return Setup(instance, graph, W, DualSetSpec(threshold, r), ground_truth(instance))


def _command(config_path: str, body: Callable[[ExperimentConfig, Setup], int]) -> int:
    """Load a config, build its setup and return ``body(cfg, setup)``.  An
    error ends in an ``error:`` line and exit code 2 for a bad config, or 1
    for a setup, solve or write that fails."""
    try:
        cfg = load_config(config_path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return body(cfg, build_setup(cfg))
    except (ConfigurationError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _solve(spec: RunSpec, setup: Setup) -> RunTrace:
    """One configured run, recording its K rows."""
    if spec.solver == "centralized":
        return central_solve(setup.instance, spec.alpha, spec.K,
                             sets=setup.sets if spec.bounded else None)
    rc = CobaddConfig(alpha=spec.alpha, phi=spec.phi, K=spec.K, sets=setup.sets)
    return cobadd_solve(setup.instance, setup.W, rc)


def _first_crossing(rel_err: np.ndarray) -> int | None:
    hits = np.nonzero(rel_err <= 0.01)[0]
    return int(hits[0]) if hits.size else None


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    """Execute all configured runs; write per-run CSVs and summary.json."""
    return _command(config_path, lambda cfg, setup: _write_runs(
        config_path, cfg, setup, cfg.output_dir if out_override is None else out_override))


def _write_runs(config_path: str, cfg: ExperimentConfig, setup: Setup, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    instance, sets = setup.instance, setup.sets
    f_star = setup.oracle.f_star
    summary_runs = []
    for spec in cfg.runs:
        trace = _solve(spec, setup)
        csv_path = os.path.join(out_dir, spec.name + ".csv")
        trace.write_csv(csv_path)
        err = np.abs(f_star - trace.f_ergodic)
        tail = max(1, spec.K // 10)
        rel = err / abs(f_star) if f_star != 0 else err
        cross = _first_crossing(rel)
        violations = _bound_violations(trace, f_star)
        summary_runs.append({
            "name": spec.name, "solver": spec.solver, "alpha": spec.alpha,
            "phi": spec.phi if spec.solver == "cobadd" else None,
            "K": spec.K, "csv": os.path.basename(csv_path),
            "final_error": float(err[-1]),
            "floor": float(err[-tail:].mean()),
            "rel_error_1pct_k": None if cross is None else int(trace.k[cross]),
            "messages_at_1pct": None if cross is None else int(trace.messages_cum[cross]),
            "viol_ineq_at_1pct": None if cross is None else float(trace.viol_ineq[cross]),
            "bound_violations": violations,
        })

    summary = {
        "config": os.path.basename(config_path),
        "instance": dict(instance.meta),
        "graph": {"n": setup.graph.n, "edges": setup.graph.edge_count,
                  "avg_degree": setup.graph.average_degree, "nu": setup.W.nu,
                  "seed": cfg.graph["seed"]},
        "dual_sets": {"radius": sets.radius, "r": sets.r, "threshold": sets.threshold},
        "f_star": f_star,
        "f_star_oracle": setup.oracle.certificate["method"],
        "runs": summary_runs,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"wrote {len(cfg.runs)} trace(s) and summary.json to {out_dir}")
    return 0


def _bound_violations(trace: RunTrace, f_star: float) -> dict:
    """Count the rows that break weak duality or a primal bound (a bound
    that is not finite is broken), and those that break the agreement
    envelope, which is infinite unless the theorems cover the run
    (``applicable``)."""
    slack, b = 1e-9, trace.bounds
    applicable = b is None or b.agreement_applicable
    env = b.disagreement_envelope(trace.k) if b is not None and applicable else math.inf
    upper = ~np.isfinite(trace.bound_upper) | (trace.f_ergodic > f_star + trace.bound_upper + slack)
    lower = ~np.isfinite(trace.bound_lower) | (trace.f_ergodic < f_star - trace.bound_lower - slack)
    return {"primal_upper": int(np.sum(upper)), "primal_lower": int(np.sum(lower)),
            "disagreement": int(np.sum(trace.mu_disagreement > env + slack)
                                + np.sum(trace.G_disagreement > env + slack)),
            "weak_duality": int(np.sum(trace.q_best_node > f_star + 1e-7)),
            "applicable": applicable}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _inside_sets(trace: RunTrace, radius: float) -> bool:
    """Whether the final duals lie in [0, radius] and {G PSD : ||G||_F <= radius},
    up to 1e-12; an infinite radius leaves mu >= 0 and G PSD."""
    mus, Gs = trace.final_mus, trace.final_Gs
    return bool(np.all((mus >= -1e-12) & (mus <= radius + 1e-12))
                and np.all(np.linalg.eigvalsh(Gs) >= -1e-12)
                and np.all(np.linalg.norm(Gs, axis=(1, 2)) <= radius + 1e-12))


def cmd_verify(config_path: str) -> int:
    """Run the invariant suites and report one PASS/FAIL line each."""
    return _command(config_path, _verify)


def _verify(cfg: ExperimentConfig, setup: Setup) -> int:
    failures = 0

    def report(name: str, ok: bool | None, detail: str = ""):
        nonlocal failures
        if ok is None:
            status = "SKIP (conditional)"
        else:
            status = "PASS" if ok else "FAIL"
            failures += 0 if ok else 1
        print(f"{status:18s} {name}" + (f"  [{detail}]" if detail else ""))

    W, f_star = setup.W, setup.oracle.f_star
    rng = np.random.default_rng(0)

    # consensus-matrix conditions on the config graph and seeds 1..5
    report("consensus conditions (config graph)",
           not check_consensus_conditions(W.W, setup.graph), f"nu={W.nu:.4f}")
    for seed in range(1, 6):
        g = random_connected_graph(30, 4.0, seed)
        report(f"consensus conditions (seed {seed})",
               not check_consensus_conditions(metropolis_weights(g).W, g))

    # projection against the alternating-projection oracle, one stack per d
    draws = []
    for _ in range(40):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d))
        draws.append(((A + A.T) / 2.0, float(rng.uniform(0.2, 3.0))))
    worst = 0.0
    for d in sorted({len(A) for A, _ in draws}):
        mats = np.stack([A for A, _ in draws if len(A) == d])
        gams = np.array([Gam for A, Gam in draws if len(A) == d])
        refs = dykstra_project(mats, gams, 2000)
        for A, Gam, ref in zip(mats, gams, refs):
            worst = max(worst, float(np.linalg.norm(project_psd_ball_stack(A, Gam) - ref)))
    report("projection equals Dykstra oracle", worst < 1e-7, f"max dev {worst:.2e}")

    # every row of every config run; the master node is the case m = 1
    for spec in cfg.runs:
        name = spec.name
        trace = _solve(spec, setup)
        v = _bound_violations(trace, f_star)
        sandwich_ok = v["primal_upper"] == v["primal_lower"] == 0
        radius = setup.sets.radius if spec.bounded else math.inf
        report(f"weak duality ({name})", v["weak_duality"] == 0)
        report(f"dual iterates inside sets ({name})", _inside_sets(trace, radius))
        if spec.solver == "centralized":
            report(f"baseline sandwich ({name})", sandwich_ok)
            continue
        # the round operator this run mixes with, on the config's own W:
        # it keeps each column mean and contracts deviations by nu^phi
        x = rng.normal(size=(W.n, 1 + setup.instance.d ** 2))
        y = consensus_round(W, x, spec.phi)
        mean_ok = np.max(np.abs(y.mean(axis=0) - x.mean(axis=0))) < 1e-10
        dev0 = np.linalg.norm(x - x.mean(axis=0), axis=0)
        dev1 = np.linalg.norm(y - y.mean(axis=0), axis=0)
        contract_ok = np.all(dev1 <= W.nu ** spec.phi * dev0 + 1e-12)
        report(f"consensus round ({name})", bool(mean_ok and contract_ok),
               f"messages={trace.messages_cum[0]}")
        if v["applicable"]:
            report(f"agreement bound ({name})", v["disagreement"] == 0)
            report(f"primal sandwich ({name})", sandwich_ok)
        else:
            report(f"agreement bound ({name})", None,
                   f"phi={spec.phi} < phibar={trace.bounds.phibar:.1f}")
            report(f"primal sandwich ({name})", None, "conditional on phi >= phibar")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cobadd",
        description="Consensus-based dual decomposition experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the runs in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    return cmd_verify(args.config)


if __name__ == "__main__":
    sys.exit(main())
