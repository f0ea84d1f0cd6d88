"""Consensus-based dual decomposition with primal recovery (CoBa-DD).

Every node keeps its own dual pair (mu_i, G_i) inside the compact
projection sets.  One iteration runs, per node: the local Lagrangian
minimization at the node's own duals, the ergodic primal update, then a
dual update in which each node forms the payload

    ( mu_i + alpha g_i(x_i~),  G_i - alpha (A0/n + A_i x_i~) ),

the network mixes the stacked payloads with phi synchronous consensus
steps, and each node projects its mixed payload back onto the sets.  As
in the centralized baseline, the pass at the initial duals only feeds
the first dual update; the ergodic mean starts at the first updated
duals.  Replacing the weights by the exact averaging matrix makes every
node reproduce the centralized bounded iteration with stepsize alpha/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import default_beta0, theoretical_bounds
from .errors import ConfigurationError
from .network import ConsensusMatrix, consensus_round
from .problem import (DualPoint, DualSetSpec, ProblemInstance,
                      constraint_values, dual_function_values, evaluate_primal,
                      minimize_node_lagrangians, project_psd_ball_stack,
                      subgradient_bounds)
from .trace import RunTrace


@dataclass(frozen=True)
class CobaddConfig:
    """Run parameters: stepsize, consensus steps per iteration, budget and
    projection sets.  ``seed`` is accepted and not read."""

    alpha: float
    phi: int
    K: int
    sets: DualSetSpec
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        if self.phi < 1:
            raise ValueError("phi must be at least 1")
        if self.K < 1:
            raise ValueError("K must be at least 1")


@dataclass
class NodeState:
    """One node's view after k recorded iterations."""

    dual: DualPoint
    tilde_x: float
    ergodic_x: float
    tilde_sum: float
    k: int


@dataclass
class SolverState:
    """The dual pairs and the ergodic sum after k recorded iterations.

    ``mus`` (shape (m,)) and ``Gs`` (shape (m, d, d), empty when d = 0)
    hold the dual pairs the *next* iteration samples at: one per node
    for CoBa-DD (m = n), the one master-node pair for the centralized
    baseline (m = 1).  ``x_tilde`` holds the minimizers of the last
    oracle pass and ``tilde_sum`` their sum over the recorded
    iterations, of shape (n,).  R > 1 CoBa-DD runs that
    :func:`cobadd_init` and :func:`cobadd_step` step together hold (R, n)
    and (R, n, d, d) stacks instead, which have no node views (a
    TypeError).  Iterating a one-run state yields one :class:`NodeState`
    view per node, built on read; with m = 1 every node sees the master dual.
    """

    mus: np.ndarray
    Gs: np.ndarray
    x_tilde: np.ndarray
    tilde_sum: np.ndarray
    k: int

    @property
    def ergodic_x(self) -> np.ndarray:
        """tilde_sum / k (NaN before the first recorded iteration)."""
        if self.k < 1:
            return np.full(np.shape(self.tilde_sum), math.nan)
        return self.tilde_sum / self.k

    def __iter__(self):
        erg, shared = self.ergodic_x, len(self.mus) == 1
        for i, x in enumerate(self.x_tilde):
            j = 0 if shared else i
            yield NodeState(DualPoint(self.mus[j], self.Gs[j]), float(x),
                            float(erg[i]), float(self.tilde_sum[i]), self.k)


def _advance(instance: ProblemInstance, W: ConsensusMatrix, configs,
             mus: np.ndarray, Gs: np.ndarray):
    """Oracle pass at the duals ``mus`` and ``Gs``, of shapes (n,) and
    (n, d, d) for one run or (R, n) and (R, n, d, d) for R stacked runs
    of one set pair on an n-node W (a ValueError otherwise), then each
    run's projected update, all runs mixed in one :func:`consensus_round`;
    returns the minimizers and the new duals."""
    if any(c.sets != configs[0].sets for c in configs[1:]):
        raise ValueError("stacked runs must share K and the dual sets")
    R, n, d, radius = len(configs), instance.n, instance.d, configs[0].sets.radius
    for name, size in (("W", W.n), ("the state", mus.shape[-1])):
        if size != n:
            raise ValueError(f"{name} has {size} nodes but the instance has {n}")
    if math.prod(mus.shape[:-1]) != R:
        raise ValueError(f"the state holds {math.prod(mus.shape[:-1])} run(s), given {R} config(s)")
    alpha = np.array([c.alpha for c in configs]).reshape(mus.shape[:-1] + (1,))
    x_tilde, _ = minimize_node_lagrangians(instance, mus, Gs)
    h, Qm = constraint_values(instance, x_tilde)
    payload = np.empty(mus.shape + (1 + d * d,))
    payload[..., 0] = mus + alpha * h
    if d:
        payload[..., 1:] = (Gs + alpha[..., None, None] * Qm).reshape(mus.shape + (-1,))
    runs = payload.reshape(R, n, 1 + d * d)
    # one run passes its int phi: perfbench's _mix adds phi to an int, and CI pins its hooks
    mixed = (consensus_round(W, runs[0], configs[0].phi) if R == 1 else
             consensus_round(W, runs, tuple(c.phi for c in configs))).reshape(payload.shape)
    # minimum(maximum()) is np.clip on finite values, without its wrapper
    mus = np.minimum(np.maximum(mixed[..., 0], 0.0), radius)
    if d:
        Gs = project_psd_ball_stack(mixed[..., 1:].reshape(R * n, d, d), radius).reshape(Gs.shape)
    return x_tilde, mus, Gs


def cobadd_init(instance: ProblemInstance, W: ConsensusMatrix,
                config: CobaddConfig, *more: CobaddConfig) -> SolverState:
    """Bootstrap: sample at the zero initial duals, run the first
    consensus update, and return the state holding the updated duals
    with an empty ergodic sum; R configs start R stacked runs."""
    configs = (config,) + more
    shape = (instance.n,) if not more else (len(configs), instance.n)
    x_tilde, mus, Gs = _advance(instance, W, configs, np.zeros(shape),
                                np.zeros(shape + (instance.d, instance.d)))
    return SolverState(mus, Gs, x_tilde, np.zeros(shape), 0)


def cobadd_step(instance: ProblemInstance, state: SolverState, W: ConsensusMatrix,
                config: CobaddConfig, *more: CobaddConfig) -> SolverState:
    """One recorded iteration: sample at the state's duals, extend the
    ergodic sum, and mix and project the duals; R configs step R runs."""
    x_tilde, mus, Gs = _advance(instance, W, (config,) + more, state.mus, state.Gs)
    return SolverState(mus, Gs, x_tilde, state.tilde_sum + x_tilde, state.k + 1)


# Buffered elements per block of trace rows.  Larger blocks only grow the
# d = 0 breakpoint gather, four (points,) long-double coefficient rows.
_RECORD_ELEMENTS = 4096


def record_run(instance: ProblemInstance, state, step, K: int):
    """Run ``state = step(state)`` K times and record one trace row per step
    and run.  Before each step the loop reads the m dual points per run that
    step samples, ``state.mus`` (shape (R, m), or (m,) for R = 1) and
    ``state.Gs`` (shape (R, m, d, d), or (m, d, d)), and records the max
    and mean of q over them and their largest deviations from their mean;
    after it, the cost and violations of each run's ``state.ergodic_x``.
    CoBa-DD is the case m = n and the master node the case m = 1, R = 1.
    Rows of all runs are evaluated once per block of about
    ``_RECORD_ELEMENTS`` buffered elements, by one call each of
    :func:`dual_function_values` and :func:`evaluate_primal`, bit-identical
    to evaluating each row alone; an ergodic point outside the boxes
    raises at the end of its block.  Returns one dict of columns per run,
    keyed by RunTrace field name, and the final state.
    """
    *lead, m = np.shape(state.mus)
    R, n, d = math.prod(lead), instance.n, instance.d
    cols = {name: np.zeros((K, R)) for name in
            ("f_ergodic", "viol_ineq", "viol_lmi", "q_best_node", "q_mean",
             "disagreement", "mu_disagreement", "G_disagreement")}
    B = max(1, _RECORD_ELEMENTS // (R * max(m, n) * (1 + d * d)))
    mus, Gs, xs = np.empty((B, R, m)), np.empty((B, R, m, d, d)), np.empty((B, R, n))
    for k in range(K):
        j = k % B
        mus[j], Gs[j] = state.mus, state.Gs
        state = step(state)
        xs[j] = state.ergodic_x
        if j + 1 < B and k + 1 < K:
            continue
        r, rows = j + 1, slice(k - j, k + 1)
        q = dual_function_values(instance, mus[:r].reshape(-1),
                                 Gs[:r].reshape(r * R * m, d, d)).reshape(r, R, m)
        dev_mu = np.abs(mus[:r] - mus[:r].mean(axis=2, keepdims=True))
        dev_G = np.linalg.norm(Gs[:r] - Gs[:r].mean(axis=2, keepdims=True), axis=(3, 4))
        cols["q_best_node"][rows], cols["q_mean"][rows] = q.max(axis=2), q.mean(axis=2)
        cols["mu_disagreement"][rows], cols["G_disagreement"][rows] = \
            dev_mu.max(axis=2), dev_G.max(axis=2)
        cols["disagreement"][rows] = (dev_mu + dev_G).max(axis=2)
        cols["f_ergodic"][rows], cols["viol_ineq"][rows], cols["viol_lmi"][rows] = \
            evaluate_primal(instance, xs[:r])
    return [{name: col[:, i] for name, col in cols.items()} for i in range(R)], state


def cobadd_solve(instance: ProblemInstance, W: ConsensusMatrix,
                 config: CobaddConfig, *more: CobaddConfig) -> RunTrace | list[RunTrace]:
    """Full CoBa-DD run over a simulated synchronous network with weights W
    (Metropolis-Hastings weights, or the exact averaging matrix for
    equivalence experiments).  The trace carries one row per
    recorded iteration plus the theoretical bound curves, anchored at
    beta0 = 10 alpha M, which dominates the initial payload disagreement
    c0 on every doubly stochastic W (see :func:`default_beta0`).  Row k
    samples the duals of the k-th consensus round, the bootstrap's being
    the first, and each round sends phi * 2|E| messages; a run whose K
    rounds send more than an int64 holds is a ConfigurationError.  The
    rows are recorded through :func:`cobadd_init` and :func:`cobadd_step`,
    whose rounds mix with the one operator :func:`consensus_round` picks
    from W's graph and phi.  Given ``more`` configs of the same K and sets
    (a ValueError otherwise), the runs step together and a list of one
    RunTrace per config comes back, each bit-identical to that config's
    trace alone.
    """
    configs = (config,) + more
    if any(c.K != config.K for c in more):
        raise ValueError("stacked runs must share K and the dual sets")
    for c in configs:
        if int(c.K) * int(c.phi) * 2 * W.edge_count > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"phi={c.phi}: K * phi * 2|E| messages exceed the int64 range of messages_cum")
    K, M = config.K, subgradient_bounds(instance).M
    bounds = [theoretical_bounds(instance, c.sets, W, c, default_beta0(c.alpha, M))
              for c in configs]

    # the bootstrap's consensus round produces the duals used at row 1
    state = cobadd_init(instance, W, *configs)
    runs, state = record_run(instance, state, lambda s: cobadd_step(instance, s, W, *configs), K)
    # explicit sizes: reshape(-1, ...) cannot size the empty d = 0 stack
    shape = (len(configs), instance.n, instance.d, instance.d)
    final_mus, final_Gs = state.mus.reshape(shape[:2]), state.Gs.reshape(shape)
    ks = np.arange(1, K + 1)
    traces = [RunTrace(k=ks, **cols, messages_cum=ks * (c.phi * 2 * W.edge_count),
                       bound_upper=b.primal_upper_deviation(ks),
                       bound_lower=b.primal_lower_deviation(ks), beta_k=b.beta_k.copy(),
                       bounds=b, final_mus=final_mus[i], final_Gs=final_Gs[i])
              for i, (c, b, cols) in enumerate(zip(configs, bounds, runs))]
    return traces if more else traces[0]
