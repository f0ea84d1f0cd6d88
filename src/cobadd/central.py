"""Centralized dual decomposition with primal recovery (master-node baseline).

One shared dual pair is updated by projected subgradient ascent with a
constant stepsize; the primal estimate is the running ergodic mean of
the local Lagrangian minimizers.  The very first oracle pass, taken at
the zero initial duals, only feeds the first dual update: the
ergodic mean starts with the sample taken at the first *updated* duals.
Projections go onto the nonnegative orthant / PSD cone (unbounded mode,
``sets=None``) or onto the compact sets [0, Lambda] and
{G PSD : ||G||_F <= Gamma} (bounded mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (DualPoint, DualSetSpec, ProblemInstance,
                      constraint_values, oracle_sweep, subgradient_bounds)
from .solver import record_run
from .spectral import project_G, project_mu, project_psd
from .trace import RunTrace


@dataclass
class CentralState:
    """Master-node state after k recorded iterations.

    ``dual`` is the pair the *next* iteration will sample at;
    ``ergodic_x = tilde_sum / k`` once k >= 1 (NaN before the first
    recorded iteration).  ``mus`` and ``Gs`` view ``dual`` as a stack of
    one point, the m = 1 case of :func:`record_run`.
    """

    dual: DualPoint
    ergodic_x: np.ndarray
    k: int
    tilde_sum: np.ndarray

    @property
    def mus(self) -> np.ndarray:
        return np.array([self.dual.mu])

    @property
    def Gs(self) -> np.ndarray | None:
        return self.dual.G[None] if self.dual.d else None


def _updated_dual(instance: ProblemInstance, dual: DualPoint, x_tilde: np.ndarray,
                  alpha: float, sets: DualSetSpec | None) -> DualPoint:
    h, _ = constraint_values(instance, x_tilde)
    target_mu = dual.mu + alpha * float(h.sum())
    if sets is None:
        new_mu = max(0.0, target_mu)
    else:
        new_mu = project_mu(target_mu, sets.Lambda)
    if instance.d:
        target_G = dual.G - alpha * instance.lmi_matrix(x_tilde)
        new_G = project_psd(target_G) if sets is None else project_G(target_G, sets.Gamma)
    else:
        new_G = dual.G
    return DualPoint(new_mu, new_G)


def central_init(instance: ProblemInstance, alpha: float,
                 sets: DualSetSpec | None = None) -> CentralState:
    """Bootstrap: sample at the zero initial duals and take the first update."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z0 = DualPoint(0.0, np.zeros((instance.d,) * 2))
    _, x0 = oracle_sweep(instance, z0)
    dual = _updated_dual(instance, z0, x0, alpha, sets)
    n = instance.n
    return CentralState(dual, np.full(n, math.nan), 0, np.zeros(n))


def central_step(instance: ProblemInstance, state: CentralState, alpha: float,
                 sets: DualSetSpec | None = None) -> CentralState:
    """One recorded iteration: sample, extend the ergodic mean, update."""
    _, x_tilde = oracle_sweep(instance, state.dual)
    k = state.k + 1
    tilde_sum = state.tilde_sum + x_tilde
    dual = _updated_dual(instance, state.dual, x_tilde, alpha, sets)
    return CentralState(dual, tilde_sum / k, k, tilde_sum)


def central_solve(instance: ProblemInstance, alpha: float, K: int,
                  sets: DualSetSpec | None = None) -> RunTrace:
    """Run K recorded iterations and assemble the trace.

    The baseline bound columns use the realized maxima of the dual norms
    over the whole run (including the initial pair and the final
    update): bound_upper = (L0^2+G0^2)/(2 alpha k) + alpha n^2 (L^2+Q^2)/2
    and bound_lower = (L0^2+G0^2)/(alpha k).
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    n = instance.n
    state = central_init(instance, alpha, sets)
    duals = [state.dual]  # for the realized norms; the zero initial pair adds nothing

    def step(s: CentralState) -> CentralState:
        s = central_step(instance, s, alpha, sets)
        duals.append(s.dual)
        return s

    cols, state = record_run(instance, state, step, K)
    lam_max = max(z.mu for z in duals)
    gam_max = max(float(np.linalg.norm(z.G)) for z in duals)

    sb = subgradient_bounds(instance)
    ks = np.arange(1, K + 1, dtype=float)
    radius2 = lam_max**2 + gam_max**2
    bound_upper = radius2 / (2.0 * alpha * ks) + alpha * n**2 * (sb.L**2 + sb.Q**2) / 2.0
    bound_lower = radius2 / (alpha * ks)

    config = {"solver": "centralized", "alpha": alpha, "K": K,
              "bounded": sets is not None,
              "radius": sets.Lambda if sets is not None else None,
              "instance": dict(instance.meta)}
    return RunTrace(config=config, k=np.arange(1, K + 1), **cols,
                    messages_cum=np.zeros(K, dtype=int),
                    bound_upper=bound_upper, bound_lower=bound_lower,
                    beta_k=np.full(K, math.nan),
                    final_mus=state.mus, final_Gs=state.Gs, lambda_realized=lam_max)
