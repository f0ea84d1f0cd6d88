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
from .network import ConsensusMatrix, consensus_round
from .problem import (DualPoint, DualSetSpec, ProblemInstance,
                      constraint_values, dual_function_values, evaluate_primal,
                      minimize_node_lagrangians, subgradient_bounds)
from .spectral import project_psd_ball_stack
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
    iterations.  Iterating yields one :class:`NodeState` view per node,
    built on read; with m = 1 every node sees the master dual.
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
            return np.full(len(self.tilde_sum), math.nan)
        return self.tilde_sum / self.k

    def __iter__(self):
        erg, shared = self.ergodic_x, len(self.mus) == 1
        for i, x in enumerate(self.x_tilde):
            j = 0 if shared else i
            yield NodeState(DualPoint(self.mus[j], self.Gs[j]), float(x),
                            float(erg[i]), float(self.tilde_sum[i]), self.k)


def _advance(instance: ProblemInstance, W: ConsensusMatrix, config: CobaddConfig,
             mus: np.ndarray, Gs: np.ndarray):
    """Oracle pass at the current duals followed by the projected
    consensus update; returns the minimizers and the new duals."""
    n, d, alpha, radius = instance.n, instance.d, config.alpha, config.sets.radius
    x_tilde, _ = minimize_node_lagrangians(instance, mus, Gs)
    h, Qm = constraint_values(instance, x_tilde)
    payload = np.empty((n, 1 + d * d))
    payload[:, 0] = mus + alpha * h
    if d:
        payload[:, 1:] = (Gs + alpha * Qm).reshape(n, -1)
    mixed = consensus_round(W, payload, config.phi)
    # minimum(maximum()) is np.clip on finite values, without its wrapper
    mus = np.minimum(np.maximum(mixed[:, 0], 0.0), radius)
    Gs = project_psd_ball_stack(mixed[:, 1:].reshape(n, d, d), radius) if d else Gs
    return x_tilde, mus, Gs


def cobadd_init(instance: ProblemInstance, W: ConsensusMatrix,
                config: CobaddConfig) -> SolverState:
    """Bootstrap: sample at the zero initial duals, run the first
    consensus update, and return the state holding the updated duals
    with an empty ergodic sum."""
    n, d = instance.n, instance.d
    x_tilde, mus, Gs = _advance(instance, W, config, np.zeros(n), np.zeros((n, d, d)))
    return SolverState(mus, Gs, x_tilde, np.zeros(n), 0)


def cobadd_step(instance: ProblemInstance, state: SolverState,
                W: ConsensusMatrix, config: CobaddConfig) -> SolverState:
    """One recorded iteration: sample at the state's duals, extend the
    ergodic sum, and mix and project the duals."""
    x_tilde, mus, Gs = _advance(instance, W, config, state.mus, state.Gs)
    return SolverState(mus, Gs, x_tilde, state.tilde_sum + x_tilde, state.k + 1)


# Buffered elements per block of trace rows.  Larger blocks only grow the
# d = 0 breakpoint gather, a (points, 4) long-double table.
_RECORD_ELEMENTS = 4096


def record_run(instance: ProblemInstance, state, step, K: int):
    """Run ``state = step(state)`` K times and record one trace row per step.

    Before each step the loop reads the m dual points that step samples,
    ``state.mus`` (shape (m,)) and ``state.Gs`` (shape (m, d, d)), and
    records the max and mean of q over them and their largest
    deviations from their mean; after it, the cost and violations of
    ``state.ergodic_x``.  CoBa-DD is the case m = n and the master node
    the case m = 1.  Rows are evaluated once per block of about
    ``_RECORD_ELEMENTS`` buffered elements, by one call each of
    :func:`dual_function_values` and :func:`evaluate_primal`, bit-identical
    to evaluating each row alone; an ergodic point outside the boxes
    raises at the end of its block.  Returns the columns, keyed by
    RunTrace field name, and the final state.
    """
    cols = {name: np.zeros(K) for name in
            ("f_ergodic", "viol_ineq", "viol_lmi", "q_best_node", "q_mean",
             "disagreement", "mu_disagreement", "G_disagreement")}
    m, n, d = len(state.mus), instance.n, instance.d
    B = max(1, _RECORD_ELEMENTS // (max(m, n) * (1 + d * d)))
    mus, Gs, xs = np.empty((B, m)), np.empty((B, m, d, d)), np.empty((B, n))
    for k in range(K):
        j = k % B
        mus[j], Gs[j] = state.mus, state.Gs
        state = step(state)
        xs[j] = state.ergodic_x
        if j + 1 < B and k + 1 < K:
            continue
        r, rows = j + 1, slice(k - j, k + 1)
        q = dual_function_values(instance, mus[:r].reshape(-1),
                                 Gs[:r].reshape(r * m, d, d)).reshape(r, m)
        dev_mu = np.abs(mus[:r] - mus[:r].mean(axis=1, keepdims=True))
        dev_G = np.linalg.norm(Gs[:r] - Gs[:r].mean(axis=1, keepdims=True), axis=(2, 3))
        cols["q_best_node"][rows], cols["q_mean"][rows] = q.max(axis=1), q.mean(axis=1)
        cols["mu_disagreement"][rows], cols["G_disagreement"][rows] = \
            dev_mu.max(axis=1), dev_G.max(axis=1)
        cols["disagreement"][rows] = (dev_mu + dev_G).max(axis=1)
        cols["f_ergodic"][rows], cols["viol_ineq"][rows], cols["viol_lmi"][rows] = \
            evaluate_primal(instance, xs[:r])
    return cols, state


def cobadd_solve(instance: ProblemInstance, W: ConsensusMatrix,
                 config: CobaddConfig) -> RunTrace:
    """Full CoBa-DD run over a simulated synchronous network with weights W
    (Metropolis-Hastings weights, or the exact averaging matrix for
    equivalence experiments).  The trace carries one row per
    recorded iteration plus the theoretical bound curves, anchored at
    beta0 = 10 alpha M, which dominates the initial payload disagreement
    c0 on every doubly stochastic W (see :func:`default_beta0`).  Row k
    samples the duals of the k-th consensus round, the bootstrap's being
    the first, and each round sends phi * 2|E| messages.  Every round,
    here and in :func:`cobadd_step`, mixes with the one operator
    :func:`consensus_round` picks from W's graph and phi.
    """
    K = config.K
    beta0 = default_beta0(config.alpha, subgradient_bounds(instance).M)
    bounds = theoretical_bounds(instance, config.sets, W.nu, config, beta0)

    # the bootstrap's consensus round produces the duals used at row 1
    state = cobadd_init(instance, W, config)
    cols, state = record_run(instance, state,
                             lambda s: cobadd_step(instance, s, W, config), K)
    ks = np.arange(1, K + 1)
    return RunTrace(k=ks, **cols,
                    messages_cum=ks * (config.phi * 2 * W.edge_count),
                    bound_upper=bounds.primal_upper_deviation(ks),
                    bound_lower=bounds.primal_lower_deviation(ks),
                    beta_k=bounds.beta_k.copy(), bounds=bounds,
                    final_mus=state.mus, final_Gs=state.Gs)
