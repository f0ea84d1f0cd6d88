"""Bound calculators: c0, agreement envelope, error floors."""

import math

import numpy as np
import pytest

import cobadd as cb

# seeded regression constant: 100-node sample instance, seed-7 graph,
# phi=1, alpha=1, zero initial duals
C0_PIN = 0.31533875413306733


class _Cfg:
    def __init__(self, alpha, phi, K):
        self.alpha, self.phi, self.K = alpha, phi, K


def test_c0_zero_for_identical_nodes_and_duals():
    node = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                       cb.ScalarFunction.affine(1.0, -0.5), np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance((node,) * 4, np.zeros((0, 0)), 0)
    g = cb.random_connected_graph(4, 3.0, 1)
    W = cb.metropolis_weights(g)
    c0 = cb.compute_c0(inst, W, phi=1, alpha=1.0)
    assert c0 < 1e-12


def test_c0_vanishes_for_large_phi(num_instance, fig_graph):
    W = cb.metropolis_weights(fig_graph)
    c_small = cb.compute_c0(num_instance, W, 1, 1.0)
    c_large = cb.compute_c0(num_instance, W, 200, 1.0)
    assert c_large < 1e-4
    assert c_large < c_small


def test_c0_regression_pin(num_instance, fig_graph):
    W = cb.metropolis_weights(fig_graph)
    c0 = cb.compute_c0(num_instance, W, 1, 1.0)
    assert c0 == pytest.approx(C0_PIN, abs=1e-9)


def test_default_beta0():
    assert cb.default_beta0(0.5, 1.0, 2.0) == 20.0
    assert cb.default_beta0(30.0, 1.0, 2.0) == 30.0


def test_bounds_exact_averaging_limit(num_instance, num_sets):
    # beta0 = 0 models infinitely many consensus steps: p = 0,
    # beta_inf = 0, e_k collapses to the constant-stepsize term
    M = cb.subgradient_bounds(num_instance).M
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.5,
                              config=_Cfg(1.0, 3, 50), beta0=0.0)
    assert b.agreement_applicable
    assert b.p == 0.0
    assert b.beta_inf == 0.0
    assert np.all(b.beta_k == 0.0)
    assert b.e_k == pytest.approx(1.0 * num_instance.n * M**2 / 2.0)
    assert b.dual_gap_floor == pytest.approx(1.0 * num_instance.n * M**2 / 2.0)


def test_bounds_formulas_by_hand(num_instance, num_sets):
    alpha, phi, K = 1.0, 60, 30
    M = cb.subgradient_bounds(num_instance).M
    beta0 = 10.0 * alpha * M
    nu = 0.9
    b = cb.theoretical_bounds(num_instance, num_sets, nu, _Cfg(alpha, phi, K), beta0)
    n, d = num_instance.n, num_instance.d
    phibar = (math.log(beta0) - math.log(4 * n * (1 + d * d) * (beta0 + alpha * M))) / math.log(nu)
    assert b.phibar == pytest.approx(phibar)
    assert b.agreement_applicable == (phi >= phibar)
    delta = phi - math.ceil(phibar)
    assert b.delta == delta
    p = nu**delta * beta0 / (beta0 + alpha * M)
    assert b.p == pytest.approx(p)
    # recursion beta_{k+1} = p beta_k + p alpha M with beta_1 = nu^delta beta0
    beta = nu**delta * beta0
    for k in range(1, K + 1):
        assert b.beta_at(k) == pytest.approx(beta, rel=1e-12)
        beta = p * beta + p * alpha * M
    assert b.beta_inf == pytest.approx(p * alpha * M / (1 - p))
    tau = beta0 / alpha
    zeta = 2.0 * tau * math.sqrt(num_sets.Lambda**2 + num_sets.Gamma**2)
    assert b.tau == pytest.approx(tau)
    assert b.zeta == pytest.approx(zeta)
    e_k = (alpha * n * (M + tau)**2 / 2.0 + n * tau * (num_sets.Lambda + num_sets.Gamma)
           + n * (beta0 * (6 * M + 3 * tau) + zeta))
    assert b.e_k == pytest.approx(e_k)
    floor = (alpha * n * (M + tau)**2 / 2.0
             + n * (b.beta_inf * (9 * M + 3 * tau) + zeta))
    assert b.dual_gap_floor == pytest.approx(floor)
    assert b.epsilon_k[0] == pytest.approx(n * (beta0 * (6 * M + 3 * tau) + zeta))


def test_bounds_inapplicable_below_phibar(num_instance, num_sets):
    M = cb.subgradient_bounds(num_instance).M
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.97,
                              config=_Cfg(1.0, 1, 20), beta0=10.0 * M)
    assert not b.agreement_applicable
    assert math.isnan(b.p)
    assert math.isnan(b.beta_inf)
    assert math.isnan(b.dual_gap_floor)
    assert np.all(np.isnan(b.beta_k))
    # delta-independent quantities remain available
    assert math.isfinite(b.e_k)
    assert math.isfinite(b.tau)
    assert math.isfinite(b.zeta)


def test_disagreement_envelope_index_convention(num_instance, num_sets):
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.3,
                              config=_Cfg(1.0, 8, 10), beta0=5.0)
    env = b.disagreement_envelope(np.arange(1, 11))
    assert env[0] == pytest.approx(2.0 * b.beta0)
    assert env[1] == pytest.approx(2.0 * b.beta_at(1))
    assert env[9] == pytest.approx(2.0 * b.beta_at(9))


def test_primal_deviation_curves(num_instance, num_sets):
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.3,
                              config=_Cfg(2.0, 8, 10), beta0=5.0)
    ks = np.array([1, 10])
    n = num_instance.n
    R2 = num_sets.Lambda**2 + num_sets.Gamma**2
    up = b.primal_upper_deviation(ks)
    lo = b.primal_lower_deviation(ks)
    assert up[0] == pytest.approx(n * R2 / (2 * 1 * 2.0) + b.e_k)
    assert lo[1] == pytest.approx(9 * n * R2 / (2 * 10 * 2.0) + b.e_k)
