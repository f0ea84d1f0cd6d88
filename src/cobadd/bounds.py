"""Theoretical convergence-bound calculators for the consensus solver.

Everything here is a closed-form function of the run's scalars and,
per row, of the iteration k: the agreement envelope beta_k, its limit
beta_inf, the epsilon-subgradient slack epsilon_k, the primal error
floor e_k, and the dual objective floor.  The quantities come from
three results: a geometric bound on the per-iteration payload
disagreement (ratio p), the observation that the averaged iterate
follows an approximate subgradient method with slack epsilon_k, and
the ergodic primal recovery analysis.  None of this code
runs inside the solver loop; the solver only evaluates the formulas for
trace overlays and the test harness checks them as inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .network import ConsensusMatrix
from .problem import DualSetSpec, ProblemInstance, subgradient_bounds


@dataclass(frozen=True)
class TheoreticalBounds:
    """All bound quantities of one run, per-row ones as functions of k >= 1.

    ``agreement_applicable`` is False when phi < phibar; the agreement
    and dual-floor quantities (contraction, p, beta, beta_inf,
    dual_gap_floor) are then NaN because the theorems are conditional on
    phi >= phibar, while tau, zeta, epsilon and e_k remain valid formulas
    of beta0 alone.  ``radius`` bounds both dual sets, so the analysis's
    Lambda^2 + Gamma^2 and Lambda + Gamma read R^2 + R^2 and R + R.
    """

    n: int
    alpha: float
    phi: int
    radius: float
    M: float
    beta0: float
    phibar: float
    agreement_applicable: bool
    delta: int | None
    contraction: float
    p: float
    beta_inf: float
    tau: float
    zeta: float
    e_k: float
    dual_gap_floor: float

    def beta(self, ks: np.ndarray) -> np.ndarray:
        """The agreement envelope beta_k at rows k >= 1: beta_1 =
        contraction beta0 and beta_{k+1} = p beta_k + p alpha M."""
        pk = self.p ** (np.asarray(ks, dtype=float) - 1.0)
        return (pk * self.contraction * self.beta0
                + self.p * self.alpha * self.M * (1.0 - pk) / (1.0 - self.p))

    def _beta_prev(self, ks: np.ndarray) -> np.ndarray:
        """beta_{k-1} at rows k >= 1, with beta_0 = beta0 (beta is never read at 0)."""
        ks = np.asarray(ks, dtype=float)
        return np.where(ks == 1.0, self.beta0, self.beta(np.maximum(ks - 1.0, 1.0)))

    def epsilon(self, ks: np.ndarray) -> np.ndarray:
        """The epsilon-subgradient slack epsilon_k at rows k >= 1, which
        reads beta0 for beta_{k-1} when the agreement theorem does not apply."""
        prev = (self._beta_prev(ks) if self.agreement_applicable
                else np.full(np.shape(ks), self.beta0))
        return self.n * (prev * (6.0 * self.M + 3.0 * self.tau) + self.zeta)

    def disagreement_envelope(self, ks: np.ndarray) -> np.ndarray:
        """Bound on each dual component's deviation from the mean at the
        duals used in iteration k (= 2 beta_{k-1}, k >= 1)."""
        return 2.0 * self._beta_prev(ks)

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
    and phi; the proof assumes a nonnegative, doubly stochastic P.  The
    factor 10 keeps beta0 well above the per-step subgradient drift
    alpha M, so phibar stays within log(1.1)/|log nu| of its large-beta0
    limit log(1/(4n(1+d^2)))/log(nu).  An alpha whose 10 alpha M leaves
    the float range is a ConfigurationError: the envelope would read NaN
    and pass every check.
    """
    beta0 = 10.0 * alpha * M
    if not math.isfinite(beta0):
        raise ConfigurationError(f"alpha={alpha!r}: beta0 = 10 alpha M is not finite")
    return beta0


def theoretical_bounds(instance: ProblemInstance, sets: DualSetSpec, W: ConsensusMatrix,
                       alpha: float, phi: int, beta0: float) -> TheoreticalBounds:
    """Every scalar of the bound formulas for a run at stepsize alpha with
    phi consensus steps on W, of the instance's n nodes.  With beta0 = 0
    they degenerate to the exact-averaging limit (p = 0, beta_inf = 0,
    e_k = alpha n M^2 / 2)."""
    n, d = instance.n, instance.d
    if W.n != n:
        raise ValueError(f"W has {W.n} nodes but the instance has {n}")
    M, R = subgradient_bounds(instance).M, sets.radius
    phibar = W.phibar(beta0, alpha, M, d)
    applicable = phi >= phibar

    tau = beta0 / alpha
    zeta = 2.0 * tau * math.sqrt(R**2 + R**2)
    e_k = (alpha * n * (M + tau) ** 2 / 2.0
           + n * tau * (R + R)
           + n * (beta0 * (6.0 * M + 3.0 * tau) + zeta))

    delta, contraction = None, math.nan
    p = beta_inf = dual_gap_floor = math.nan
    if applicable:
        # the theorem reads the mixing only through the delta steps' contraction
        delta = int(phi - math.ceil(phibar))
        contraction = W.contraction(delta)
        p = 0.0 if beta0 == 0.0 else contraction * beta0 / (beta0 + alpha * M)
        if p >= 1.0:
            raise ConfigurationError(
                "contraction ratio p >= 1 (alpha*M vanished with delta = 0)")
        beta_inf = p * alpha * M / (1.0 - p)
        dual_gap_floor = (alpha * n * (M + tau) ** 2 / 2.0
                          + n * (beta_inf * (9.0 * M + 3.0 * tau) + zeta))

    return TheoreticalBounds(
        n=n, alpha=alpha, phi=phi, radius=R, M=M, beta0=beta0, phibar=phibar,
        agreement_applicable=applicable, delta=delta, contraction=contraction, p=p,
        beta_inf=beta_inf, tau=tau, zeta=zeta, e_k=e_k, dual_gap_floor=dual_gap_floor)
