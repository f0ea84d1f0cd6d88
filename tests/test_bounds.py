"""Bound calculators: the envelope anchor, agreement envelope, error floors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cobadd as cb
from test_network import random_tree_plus_edges


class _Cfg:
    def __init__(self, alpha, phi, K):
        self.alpha, self.phi, self.K = alpha, phi, K


def test_default_beta0():
    assert cb.default_beta0(1.0, 2.0) == 20.0


def initial_disagreement(instance, W, phi, alpha):
    """c0: the largest deviation from the mean of the first mixed payload
    alpha (g_i, -A0/n - A_i x_i) at the zero-dual minimizers, scalar part
    plus Frobenius norm of the matrix part."""
    n, d = instance.n, instance.d
    _, x0 = cb.oracle_sweep(instance, cb.DualPoint(0.0, np.zeros((d, d))))
    h, Qm = cb.constraint_values(instance, x0)
    payload = alpha * np.concatenate([h[:, None], Qm.reshape(n, d * d)], axis=1)
    mixed = cb.consensus_round(W, payload, phi)
    dev = mixed - mixed.mean(axis=0)
    return float(np.max(np.abs(dev[:, 0]) + np.linalg.norm(dev[:, 1:], axis=1)))


@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(1, 30),
       st.floats(1e-3, 10.0), st.sampled_from([0, 2]), st.integers(0, 2**32 - 1))
def test_initial_disagreement_within_twice_alpha_M(n, p, phi, alpha, d, seed):
    # W^phi is doubly stochastic and nonnegative, so the first mixed
    # payload deviates from its mean by at most 2 alpha L + 2 alpha Q,
    # and 10 alpha M = default_beta0 dominates c0 on any graph and phi
    rng = np.random.default_rng(seed)
    W = cb.metropolis_weights(random_tree_plus_edges(n, p, rng))
    instance = cb.make_sample_num_instance(n, seed)
    if d:
        A = rng.normal(size=(n + 1, d, d))
        A = (A + np.swapaxes(A, 1, 2)) / 2.0
        nodes = [cb.NodeSpec(nd.f, nd.g, Ai, nd.box) for nd, Ai in zip(instance.nodes, A[1:])]
        instance = cb.ProblemInstance(nodes, A[0], d)
    M = cb.subgradient_bounds(instance).M
    assert initial_disagreement(instance, W, phi, alpha) <= 2.0 * alpha * M * (1 + 1e-12)


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
        assert b.beta_k[k - 1] == pytest.approx(beta, rel=1e-12)
        beta = p * beta + p * alpha * M
    assert b.beta_inf == pytest.approx(p * alpha * M / (1 - p))
    tau = beta0 / alpha
    zeta = 2.0 * tau * math.sqrt(num_sets.radius**2 + num_sets.radius**2)
    assert b.tau == pytest.approx(tau)
    assert b.zeta == pytest.approx(zeta)
    e_k = (alpha * n * (M + tau)**2 / 2.0 + n * tau * (num_sets.radius + num_sets.radius)
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
    assert env[1] == pytest.approx(2.0 * b.beta_k[0])
    assert env[9] == pytest.approx(2.0 * b.beta_k[8])


def test_primal_deviation_curves(num_instance, num_sets):
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.3,
                              config=_Cfg(2.0, 8, 10), beta0=5.0)
    ks = np.array([1, 10])
    n = num_instance.n
    R2 = num_sets.radius**2 + num_sets.radius**2
    up = b.primal_upper_deviation(ks)
    lo = b.primal_lower_deviation(ks)
    assert up[0] == pytest.approx(n * R2 / (2 * 1 * 2.0) + b.e_k)
    assert lo[1] == pytest.approx(9 * n * R2 / (2 * 10 * 2.0) + b.e_k)


def test_primal_deviation_beyond_the_float_range_is_inf(num_instance, num_sets):
    # n (R^2 + R^2) / (2 k alpha) overflows at alpha = 1e-320: both curves
    # read inf, without a warning
    b = cb.theoretical_bounds(num_instance, num_sets, nu=0.3,
                              config=_Cfg(1e-320, 8, 10), beta0=5.0)
    ks = np.array([1, 10])
    assert np.all(np.isposinf(b.primal_upper_deviation(ks)))
    assert np.all(np.isposinf(b.primal_lower_deviation(ks)))
