"""Centralized dual decomposition with primal recovery (master-node baseline).

One shared dual pair, the m = 1 stack of a :class:`SolverState`, is
updated by projected subgradient ascent with a constant stepsize; the
primal estimate is the running ergodic mean of the local Lagrangian
minimizers.  ``_advance`` samples the oracle at the pair and updates it,
in the bootstrap at the zero initial duals as in every step; that first
pass only feeds the first update, so the ergodic mean starts at the
first *updated* duals.  Projections go onto [0, radius] and
{G PSD : ||G||_F <= radius} (bounded mode), or onto the same sets with
an infinite radius, the nonnegative orthant and the PSD cone (unbounded
mode, ``sets=None``).
"""

from __future__ import annotations

import math

import numpy as np

from .problem import (DualSetSpec, ProblemInstance, constraint_values,
                      minimize_node_lagrangians, project_psd_ball_stack, subgradient_bounds)
from .solver import SolverState, _check_count, record_run
from .trace import RunTrace


def _advance(instance: ProblemInstance, mus: np.ndarray, Gs: np.ndarray,
             alpha: float, sets: DualSetSpec | None):
    """Oracle pass at the master node's (1,) and (1, d, d) duals, then the projected
    subgradient step (unbounded: an infinite radius); returns minimizers and new duals."""
    x_tilde = minimize_node_lagrangians(instance, mus, Gs)
    radius = sets.radius if sets is not None else math.inf
    h, _ = constraint_values(instance, x_tilde)
    mus = np.minimum(np.maximum(mus + alpha * float(h.sum()), 0.0), radius)
    return x_tilde, mus, project_psd_ball_stack(Gs - alpha * instance.lmi_matrix(x_tilde), radius)


def central_init(instance: ProblemInstance, alpha: float,
                 sets: DualSetSpec | None = None) -> SolverState:
    """Bootstrap: sample at the zero initial duals and take the first update."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    n, d = instance.n, instance.d
    x_tilde, mus, Gs = _advance(instance, np.zeros(1), np.zeros((1, d, d)), alpha, sets)
    return SolverState(mus, Gs, x_tilde, np.zeros(n), 0)


def central_step(instance: ProblemInstance, state: SolverState, alpha: float,
                 sets: DualSetSpec | None = None) -> SolverState:
    """One recorded iteration: sample, extend the ergodic sum, update."""
    x_tilde, mus, Gs = _advance(instance, state.mus, state.Gs, alpha, sets)
    return SolverState(mus, Gs, x_tilde, state.tilde_sum + x_tilde, state.k + 1)


def central_solve(instance: ProblemInstance, alpha: float, K: int,
                  sets: DualSetSpec | None = None) -> RunTrace:
    """Run K recorded iterations and assemble the trace.

    The baseline bound columns use the realized maxima of the dual norms
    over the whole run (including the initial pair and the final
    update): bound_upper = (L0^2+G0^2)/(2 alpha k) + alpha n^2 (L^2+Q^2)/2
    and bound_lower = (L0^2+G0^2)/(alpha k), whose first row times alpha
    is L0^2 + G0^2.  A cell beyond the float range reads inf, which every
    check counts as broken.
    """
    _check_count("K", K)
    lam_max = gam_max = 0.0  # realized maxima; the zero initial pair adds nothing

    def observe(s: SolverState) -> SolverState:
        nonlocal lam_max, gam_max
        lam_max = max(lam_max, float(s.mus[0]))
        gam_max = max(gam_max, float(np.linalg.norm(s.Gs)))
        return s

    state = observe(central_init(instance, alpha, sets))
    (cols,), state = record_run(
        instance, state, lambda s: observe(central_step(instance, s, alpha, sets)), K)

    sb = subgradient_bounds(instance)
    ks = np.arange(1, K + 1, dtype=float)
    try:
        radius2 = lam_max**2 + gam_max**2
    except OverflowError:   # a realized norm beyond the square root of the float range
        radius2 = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        bound_upper = radius2 / (2.0 * alpha * ks) + alpha * instance.n**2 * (sb.L**2 + sb.Q**2) / 2.0
        bound_lower = radius2 / (alpha * ks)
    # a cell beyond the float range reads inf, also inf / inf where alpha k overflowed
    bound_upper, bound_lower = (np.where(np.isnan(b), math.inf, b) for b in (bound_upper, bound_lower))
    return RunTrace(k=np.arange(1, K + 1), **cols,
                    messages_cum=np.zeros(K, dtype=int),
                    bound_upper=bound_upper, bound_lower=bound_lower,
                    beta_k=np.full(K, math.nan),
                    final_mus=state.mus, final_Gs=state.Gs)
