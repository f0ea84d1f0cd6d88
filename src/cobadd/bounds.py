"""Theoretical convergence-bound calculators for the consensus solver.

Everything here is a closed-form function of the run configuration: the
agreement envelope beta_k, its limit beta_inf, the epsilon-subgradient
slack epsilon_k, the primal error floor e_k, and the dual objective
floor.  The quantities come from three results: a geometric bound on the
per-iteration payload disagreement (ratio p), the observation that the
averaged iterate follows an approximate subgradient method with slack
epsilon_k, and the ergodic primal recovery analysis.  None of this code
runs inside the solver loop; the solver only evaluates the formulas for
trace overlays and the test harness checks them as inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .network import min_consensus_steps
from .problem import DualSetSpec, ProblemInstance, subgradient_bounds


@dataclass(frozen=True)
class TheoreticalBounds:
    """All bound quantities for one (alpha, phi, K) run.

    ``agreement_applicable`` is False when phi < phibar; the agreement
    and dual-floor quantities (p, beta_k, beta_inf, dual_gap_floor) are
    then NaN because the theorems are conditional on phi >= phibar,
    while tau, zeta and e_k remain valid formulas of beta0 alone.
    ``radius`` bounds both dual sets, so the analysis's Lambda^2 + Gamma^2
    and Lambda + Gamma read R^2 + R^2 and R + R.
    """

    n: int
    alpha: float
    phi: int
    K: int
    radius: float
    M: float
    nu: float
    beta0: float
    phibar: float
    agreement_applicable: bool
    delta: int | None
    p: float
    beta_k: np.ndarray
    beta_inf: float
    tau: float
    zeta: float
    epsilon_k: np.ndarray
    e_k: float
    dual_gap_floor: float

    def disagreement_envelope(self, ks: np.ndarray) -> np.ndarray:
        """Bound on each dual component's deviation from the mean at the
        duals used in iteration k (= 2 beta_{k-1}, k >= 1)."""
        ks = np.asarray(ks, dtype=int)
        prev = np.where(ks - 1 == 0, self.beta0, self.beta_k[np.maximum(ks - 2, 0)])
        return 2.0 * prev

    def primal_upper_deviation(self, ks: np.ndarray) -> np.ndarray:
        """f(x^k) - f* is at most this at every k >= 1; a bound beyond the
        float range is infinite, which every check counts as broken."""
        ks = np.asarray(ks, dtype=float)
        with np.errstate(over="ignore"):
            return self.n * (self.radius**2 + self.radius**2) / (2.0 * ks * self.alpha) + self.e_k

    def primal_lower_deviation(self, ks: np.ndarray) -> np.ndarray:
        """f* - f(x^k) is at most this at every k >= 1; infinite as above."""
        ks = np.asarray(ks, dtype=float)
        with np.errstate(over="ignore"):
            return (9.0 * self.n * (self.radius**2 + self.radius**2) / (2.0 * ks * self.alpha)
                    + self.e_k)


def default_beta0(alpha: float, M: float) -> float:
    """10 alpha M: the envelope anchor, which must dominate c0.

    c0 is the largest deviation from the mean of the first mixed payload
    alpha (g_i, -A0/n - A_i x_i) under P = W^phi, scalar part plus
    Frobenius norm of the matrix part.  P is doubly stochastic, so node
    i's mixed scalar sum_j P_ij alpha g_j lies between the smallest and
    largest alpha g_j, and so does their mean; the two differ by at most
    2 alpha L.  Likewise sum_j |P_ij - 1/n| <= 2 bounds the matrix part
    by 2 alpha Q.  Hence c0 <= 2 alpha M < 10 alpha M, whatever the graph
    and phi.  The factor 10 keeps beta0 well above the per-step
    subgradient drift alpha M, so phibar stays within log(1.1)/|log nu|
    of its large-beta0 limit log(1/(4n(1+d^2)))/log(nu).
    """
    return 10.0 * alpha * M


def theoretical_bounds(instance: ProblemInstance, sets: DualSetSpec, nu: float,
                       config, beta0: float) -> TheoreticalBounds:
    """Evaluate every bound formula for a run configuration.

    ``config`` needs attributes ``alpha``, ``phi`` and ``K``.  With
    beta0 = 0 the quantities degenerate to the exact-averaging limit
    (p = 0, beta_inf = 0, e_k = alpha n M^2 / 2).
    """
    n, d = instance.n, instance.d
    alpha, phi, K = config.alpha, config.phi, config.K
    M = subgradient_bounds(instance).M
    R = sets.radius
    phibar = min_consensus_steps(beta0, alpha, M, n, d, nu)
    applicable = phi >= phibar
    ks = np.arange(1, K + 1, dtype=float)

    tau = beta0 / alpha
    zeta = 2.0 * tau * math.sqrt(R**2 + R**2)
    e_k = (alpha * n * (M + tau) ** 2 / 2.0
           + n * tau * (R + R)
           + n * (beta0 * (6.0 * M + 3.0 * tau) + zeta))

    if applicable:
        delta = int(phi - math.ceil(phibar))
        if beta0 == 0.0:
            p = 0.0
        else:
            p = float(nu**delta) * beta0 / (beta0 + alpha * M)
        if p >= 1.0:
            raise ConfigurationError(
                "contraction ratio p >= 1 (alpha*M vanished with delta = 0)")
        pk = p ** (ks - 1.0)
        beta_k = pk * (nu**delta) * beta0 + p * alpha * M * (1.0 - pk) / (1.0 - p)
        beta_inf = p * alpha * M / (1.0 - p)
        eps_prev = np.concatenate(([beta0], beta_k[:-1]))
        epsilon_k = n * (eps_prev * (6.0 * M + 3.0 * tau) + zeta)
        dual_gap_floor = (alpha * n * (M + tau) ** 2 / 2.0
                          + n * (beta_inf * (9.0 * M + 3.0 * tau) + zeta))
    else:
        delta = None
        p = math.nan
        beta_k = np.full(K, math.nan)
        beta_inf = math.nan
        epsilon_k = n * (beta0 * (6.0 * M + 3.0 * tau) + zeta) * np.ones(K)
        dual_gap_floor = math.nan

    return TheoreticalBounds(
        n=n, alpha=alpha, phi=phi, K=K, radius=R, M=M, nu=nu,
        beta0=beta0, phibar=phibar, agreement_applicable=applicable,
        delta=delta, p=p, beta_k=beta_k, beta_inf=beta_inf, tau=tau,
        zeta=zeta, epsilon_k=epsilon_k, e_k=e_k, dual_gap_floor=dual_gap_floor)
