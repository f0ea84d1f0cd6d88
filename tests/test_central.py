"""Centralized dual decomposition baseline."""

import math

import numpy as np
import pytest

import cobadd as cb
from cobadd.problem import minimize_node_lagrangians

NUM_SIGMA_SUM_PIN = 48.671845826578874


def scalar_state(mu, n=2):
    """A master-node state that samples at (mu, the empty d = 0 G) next."""
    return cb.SolverState(np.array([mu]), np.zeros((1, 0, 0)), np.full(n, math.nan),
                          np.zeros(n), 0)


def dual_of(state):
    """The state's dual pair as a DualPoint."""
    return cb.DualPoint(state.mus[0], state.Gs[0])


def test_init_single_step_hand_computation(num_instance, num_sets):
    # at mu=0 every local slope is negative, so x~0 = all ones and
    # mu^1 = P[alpha * (sum sigma - 10)]
    s0 = NUM_SIGMA_SUM_PIN - 10.0
    state = cb.central_init(num_instance, alpha=1.0, sets=None)
    assert state.mus[0] == pytest.approx(s0, abs=1e-9)
    state_b = cb.central_init(num_instance, alpha=1.0, sets=num_sets)
    assert state_b.mus[0] == pytest.approx(num_sets.radius)
    assert state_b.k == 0
    assert np.all(np.isnan(state_b.ergodic_x))


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_non_finite_stepsize_is_rejected(alpha):
    # CobaddConfig's rule and message: a NaN stepsize is not blamed on mu,
    # and an infinite one does not run to infinite bounds
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        cb.central_solve(cb.make_sample_num_instance(20, 1), alpha, 5)


def test_centralized_state_yields_one_view_per_node(num_instance):
    # every node sees the master dual; the views used to be indexed by
    # dual pair, one view pairing it with node 0 only
    state = cb.central_step(num_instance, cb.central_init(num_instance, 1.0), 1.0)
    views = list(state)
    assert len(views) == num_instance.n
    assert all(v.dual.mu == state.mus[0] for v in views)
    assert [v.tilde_x for v in views] == state.x_tilde.tolist()
    assert [v.ergodic_x for v in views] == state.ergodic_x.tolist()


def test_step_zero_subgradient_is_fixed_point():
    # both nodes at mu = 2/3: minimizer 0.5 satisfies g(0.5) = 0
    f = cb.ScalarFunction.neg_log(1.0)
    g = cb.ScalarFunction.affine(1.0, -0.5)
    node = cb.NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance((node, node), np.zeros((0, 0)), 0)
    mu = 2.0 / 3.0  # stationary point 1/mu - 1 = 0.5
    out = cb.central_step(inst, scalar_state(mu), alpha=0.7)
    assert out.mus[0] == pytest.approx(mu, abs=1e-12)
    assert np.allclose(out.ergodic_x, [0.5, 0.5])


def test_ergodic_mean_two_steps():
    # node 1 flips its minimizer between iterates, node 2 stays at 1:
    # iterates (0,1) then (1,1) average to (0.5, 1)
    n1 = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                     cb.ScalarFunction.affine(1.0, -0.25), np.zeros((0, 0)), (0.0, 1.0))
    n2 = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                     cb.ScalarFunction.affine(0.0, -0.25), np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance((n1, n2), np.zeros((0, 0)), 0)
    state = cb.central_step(inst, scalar_state(2.0), alpha=4.0)
    assert np.allclose(state.ergodic_x, [0.0, 1.0])
    assert state.mus[0] == 0.0  # 2 + 4*(-0.5) clipped at zero
    state = cb.central_step(inst, state, alpha=4.0)
    assert np.allclose(state.ergodic_x, [0.5, 1.0])
    assert state.k == 2
    assert state.ergodic_x[0] == state.tilde_sum[0] / 2


def test_solve_single_iteration_is_first_sample(num_instance):
    K = 50
    trace = cb.central_solve(num_instance, alpha=1.0, K=K)
    assert len(trace.k) == K
    state = cb.central_init(num_instance, alpha=1.0)
    x1, _ = minimize_node_lagrangians(num_instance, state.mus, state.Gs)
    f1, _, _ = cb.evaluate_primal(num_instance, x1)
    assert trace.f_ergodic[0] == pytest.approx(f1, abs=1e-12)
    # every row is one central_step from the previous state
    for k in range(K):
        q = cb.dual_function_value(num_instance, dual_of(state))
        state = cb.central_step(num_instance, state, alpha=1.0)
        row = (trace.f_ergodic[k], trace.viol_ineq[k], trace.viol_lmi[k])
        assert cb.evaluate_primal(num_instance, state.ergodic_x) == row
        assert trace.q_best_node[k] == trace.q_mean[k]
        assert trace.q_best_node[k] == pytest.approx(q, rel=1e-12, abs=0.0)
    assert np.array_equal(trace.final_mus, state.mus)


def test_solve_records_the_single_dual_point_lmi(lmi_instance, lmi_sets):
    # the master node is the m = 1 case of the shared recording loop:
    # one dual point per row, so the nodes cannot disagree
    K = 60
    trace = cb.central_solve(lmi_instance, 0.5, K, sets=lmi_sets)
    for col in (trace.disagreement, trace.mu_disagreement, trace.G_disagreement):
        assert np.all(col == 0.0)
    assert np.array_equal(trace.q_best_node, trace.q_mean)
    assert np.array_equal(trace.messages_cum, np.zeros(K))
    state = cb.central_init(lmi_instance, 0.5, lmi_sets)
    for k in range(K):
        q = cb.dual_function_value(lmi_instance, dual_of(state))
        assert trace.q_best_node[k] == pytest.approx(q, rel=1e-12, abs=0.0)
        state = cb.central_step(lmi_instance, state, 0.5, lmi_sets)
    assert np.array_equal(trace.final_Gs, state.Gs)


def test_solve_baseline_sandwich_num(num_instance, num_f_star):
    trace = cb.central_solve(num_instance, alpha=1.0, K=500)
    up = num_f_star + trace.bound_upper
    lo = num_f_star - trace.bound_lower
    assert math.sqrt(trace.bound_lower[0] * 1.0) >= 1.0  # realized norms cover mu* = 1
    assert np.all(trace.f_ergodic <= up + 1e-9)
    assert np.all(trace.f_ergodic >= lo - 1e-9)
    assert np.all(trace.q_best_node <= num_f_star + 1e-7)


def test_solve_baseline_sandwich_lmi(lmi_instance, lmi_f_star):
    trace = cb.central_solve(lmi_instance, alpha=0.5, K=300)
    assert np.all(trace.f_ergodic <= lmi_f_star + trace.bound_upper + 1e-9)
    assert np.all(trace.f_ergodic >= lmi_f_star - trace.bound_lower - 1e-9)
    assert np.all(trace.q_best_node <= lmi_f_star + 1e-7)
    assert trace.viol_lmi.max() == 0.0


def test_bounded_mode_keeps_duals_inside_sets(num_instance, num_sets):
    state = cb.central_init(num_instance, alpha=1.0, sets=num_sets)
    for _ in range(40):
        assert 0.0 <= state.mus[0] <= num_sets.radius + 1e-12
        state = cb.central_step(num_instance, state, alpha=1.0, sets=num_sets)


def test_unbounded_lmi_update_projects_onto_psd_cone():
    # without sets the matrix dual moves to the PSD part of
    # G - alpha (A0 + sum A_i x_i), and mu to the nonnegative part of
    # mu + alpha sum g_i, with no radius; the LMI cuts off x = (1, 1)
    c, s = math.cos(0.3), math.sin(0.3)
    Q = np.array([[c, -s], [s, c]])
    f, g = cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.affine(1.0, -0.9)
    inst = cb.ProblemInstance(
        [cb.NodeSpec(f, g, Q @ np.diag(a) @ Q.T, (0.0, 1.0)) for a in ([-1, 0.5], [-1, -0.25])],
        Q @ np.eye(2) @ Q.T, 2)
    alpha = 0.4
    state = cb.central_init(inst, alpha)
    clipped = 0
    for _ in range(40):
        x, _ = minimize_node_lagrangians(inst, np.repeat(state.mus, 2),
                                         np.repeat(state.Gs, 2, axis=0))
        w, U = np.linalg.eigh(state.Gs[0] - alpha * inst.lmi_matrix(x))
        clipped += bool(w[0] < 0.0 < w[1])
        expected_G = (U * np.maximum(w, 0.0)) @ U.T
        h, _ = cb.constraint_values(inst, x)
        expected_mu = max(0.0, state.mus[0] + alpha * h.sum())
        state = cb.central_step(inst, state, alpha)
        assert state.mus[0] == pytest.approx(expected_mu, abs=1e-12)
        assert np.allclose(state.Gs[0], expected_G, atol=1e-12)
    assert clipped  # some updates keep one eigenvalue and clip the other


def test_smaller_alpha_shrinks_floor_term(num_instance, num_f_star):
    # the constant bound term alpha n^2 (L^2+Q^2)/2 scales with alpha,
    # and the measured floor stays below the bound at the horizon
    floors = {}
    for alpha in (0.2, 0.02):
        tr = cb.central_solve(num_instance, alpha=alpha, K=1200)
        err = np.abs(num_f_star - tr.f_ergodic)
        floors[alpha] = err[-120:].mean()
        assert floors[alpha] <= tr.bound_upper[-1] + 1e-9
    sb = cb.subgradient_bounds(num_instance)
    term = lambda a: a * num_instance.n**2 * (sb.L**2 + sb.Q**2) / 2.0
    assert term(0.02) == pytest.approx(0.1 * term(0.2))
    assert floors[0.02] < floors[0.2]


def test_ergodic_iterates_stay_in_box(num_instance):
    trace = cb.central_solve(num_instance, alpha=0.5, K=50)
    # violations are measured on the ergodic point, which must be box-feasible
    assert np.all(trace.viol_lmi == 0.0)
    state = cb.central_init(num_instance, alpha=0.5)
    for _ in range(30):
        state = cb.central_step(num_instance, state, alpha=0.5)
        assert np.all(state.ergodic_x >= 0.0 - 1e-12)
        assert np.all(state.ergodic_x <= 1.0 + 1e-12)


@pytest.mark.parametrize("alpha", [1e200, 1e300])
def test_bound_cells_beyond_the_float_range_read_inf(num_instance, alpha):
    # verify_dense's unbounded baseline at a huge stepsize: the realized
    # dual norms square beyond the float range, which ended the solve in an
    # OverflowError; now every bound cell reads inf, a broken bound
    trace = cb.central_solve(num_instance, alpha, 300)
    assert np.all(np.isinf(trace.bound_upper)) and np.all(np.isinf(trace.bound_lower))
    assert np.all(np.isfinite(trace.f_ergodic))


def test_bound_cell_over_an_overflowing_alpha_k_reads_inf():
    # at alpha = 1e308 both radius2 and 2 alpha k leave the float range;
    # their quotient reads inf, not NaN
    f, g = cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.affine(1.0, -0.25)
    node = cb.NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0))
    trace = cb.central_solve(cb.ProblemInstance((node, node), np.zeros((0, 0)), 0), 1e308, 1)
    assert trace.bound_upper.tolist() == trace.bound_lower.tolist() == [math.inf]


def test_unbounded_lmi_master_node_at_a_huge_stepsize(lmi_instance):
    # verify_lmi's unbounded baseline at alpha = 1e308: G - alpha A(x) holds
    # entries near the float limit, whose projection overflowed in a + c;
    # now the run completes, its duals stay at zero, and its upper bound
    # alpha n^2 (L^2 + Q^2) / 2 reads inf
    trace = cb.central_solve(lmi_instance, 1e308, 5)
    assert np.array_equal(trace.final_Gs, np.zeros((1, 2, 2)))
    assert np.all(np.isinf(trace.bound_upper))
