"""CoBa-DD solver: step semantics, equivalences, set membership."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cobadd as cb
import cobadd.solver as solver_module
from cobadd.problem import minimize_node_lagrangians


def two_node_toy():
    n1 = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                     cb.ScalarFunction.affine(1.0, -0.25), np.zeros((0, 0)), (0.0, 1.0))
    n2 = cb.NodeSpec(cb.ScalarFunction.linear(-0.5),
                     cb.ScalarFunction.affine(1.0, -0.25), np.zeros((0, 0)), (0.0, 1.0))
    return cb.ProblemInstance((n1, n2), np.zeros((0, 0)), 0)


def manual_states(mus, k=0):
    n = len(mus)
    return cb.SolverState(np.array(mus, dtype=float), np.zeros((n, 0, 0)),
                          np.full(n, math.nan), np.zeros(n), k)


def test_step_complete_graph_hand_evaluation():
    # both local slopes negative at these duals, so x~ = (1, 1) and the
    # payloads are mu_i + alpha * 0.75; exact averaging then projects
    # their mean, identically at both nodes
    inst = two_node_toy()
    sets = cb.DualSetSpec(0.0, 5.0)
    cfg = cb.CobaddConfig(alpha=1.0, phi=1, K=10, sets=sets)
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))  # equals exact averaging
    states = manual_states([0.2, 0.4])
    out = cb.cobadd_step(inst, states, W, cfg)
    expected = 0.5 * (0.2 + 0.75) + 0.5 * (0.4 + 0.75)
    assert out.mus[0] == pytest.approx(expected, abs=1e-12)
    assert out.mus[1] == pytest.approx(expected, abs=1e-12)
    assert out.x_tilde[0] == 1.0
    assert out.k == 1
    assert out.ergodic_x[0] == 1.0


def test_step_projects_mixed_payload_onto_sets():
    inst = two_node_toy()
    sets = cb.DualSetSpec(0.0, 0.8)
    cfg = cb.CobaddConfig(alpha=1.0, phi=1, K=10, sets=sets)
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    out = cb.cobadd_step(inst, manual_states([0.2, 0.4]), W, cfg)
    assert out.mus[0] == pytest.approx(0.8)  # clipped at the radius


def test_step_zero_subgradient_fixed_point():
    f = cb.ScalarFunction.neg_log(1.0)
    g = cb.ScalarFunction.affine(1.0, -0.5)
    node = cb.NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance((node, node), np.zeros((0, 0)), 0)
    sets = cb.DualSetSpec(0.0, 5.0)
    cfg = cb.CobaddConfig(alpha=0.9, phi=3, K=10, sets=sets)
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    mu = 2.0 / 3.0
    out = cb.cobadd_step(inst, manual_states([mu, mu]), W, cfg)
    assert out.mus[0] == pytest.approx(mu, abs=1e-12)
    assert out.mus[1] == pytest.approx(mu, abs=1e-12)
    assert out.x_tilde[0] == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["num", "lmi"])
def test_both_solvers_step_one_state_record(name, request):
    # every G stack is an (m, d, d) array, the empty (m, 0, 0) one when
    # d = 0, and both solvers' steps return the same record type
    instance = request.getfixturevalue(f"{name}_instance")
    sets = request.getfixturevalue(f"{name}_sets")
    n, d = instance.n, instance.d
    W = cb.metropolis_weights(cb.random_connected_graph(n, 8.0, 1) if n > 2
                              else cb.Graph(2, ((0, 1),)))
    cfg = cb.CobaddConfig(alpha=0.5, phi=1, K=3, sets=sets)
    first = cb.cobadd_init(instance, W, cfg)
    central = cb.central_init(instance, 0.5 / n, sets)
    for state, m in ((first, n), (cb.cobadd_step(instance, first, W, cfg), n),
                     (central, 1), (cb.central_step(instance, central, 0.5 / n, sets), 1)):
        assert type(state) is cb.SolverState
        assert isinstance(state.Gs, np.ndarray) and state.Gs.shape == (m, d, d)
    assert cb.cobadd_solve(instance, W, cfg).final_Gs.shape == (n, d, d)
    assert cb.central_solve(instance, 0.5 / n, 3).final_Gs.shape == (1, d, d)


def test_state_iterates_node_views(lmi_instance, lmi_sets):
    # per-node views read the state's arrays, k and ergodic point
    cfg = cb.CobaddConfig(alpha=1.0, phi=1, K=3, sets=lmi_sets)
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    state = cb.cobadd_init(lmi_instance, W, cfg)
    assert all(math.isnan(v.ergodic_x) for v in state)
    state = cb.cobadd_step(lmi_instance, state, W, cfg)
    views = list(state)
    assert len(views) == 2 and all(v.k == 1 for v in views)
    for i, v in enumerate(views):
        assert v.dual.mu == state.mus[i] and np.array_equal(v.dual.G, state.Gs[i])
        assert (v.tilde_x, v.ergodic_x) == (state.x_tilde[i], state.ergodic_x[i])
        assert v.tilde_sum == state.tilde_sum[i]


def test_init_does_not_feed_ergodic(num_instance, num_sets, fig_graph):
    cfg = cb.CobaddConfig(alpha=1.0, phi=1, K=5, sets=num_sets)
    W = cb.metropolis_weights(fig_graph)
    states = cb.cobadd_init(num_instance, W, cfg)
    assert states.k == 0
    assert np.all(states.tilde_sum == 0.0)
    assert np.all(np.isnan(states.ergodic_x))
    # the bootstrap evaluated at mu = 0, where every minimizer is 1
    assert np.all(states.x_tilde == 1.0)
    after = cb.cobadd_step(num_instance, states, W, cfg)
    assert after.k == 1
    assert np.array_equal(after.ergodic_x, after.tilde_sum)


def cobadd_states(instance, network, cfg):
    """The state after cobadd_init and after each of cfg.K cobadd_step calls."""
    W = cb.metropolis_weights(network) if isinstance(network, cb.Graph) else network
    state = cb.cobadd_init(instance, W, cfg)
    yield state
    for _ in range(cfg.K):
        state = cb.cobadd_step(instance, state, W, cfg)
        yield state


def exact_averaging_rows(instance, sets, alpha, K):
    """Per-row (CoBa-DD state on exact averaging, centralized state at
    stepsize alpha/n): the duals each samples, then the ergodic point."""
    n = instance.n
    cfg = cb.CobaddConfig(alpha=alpha, phi=1, K=K, sets=sets)
    central = cb.central_init(instance, alpha / n, sets)
    for state in cobadd_states(instance, cb.exact_averaging_matrix(n), cfg):
        yield state, central
        central = cb.central_step(instance, central, alpha / n, sets)


def test_exact_averaging_matches_centralized_bounded(num_instance, num_sets):
    for state, central in exact_averaging_rows(num_instance, num_sets, 1.0, 300):
        assert np.max(np.abs(state.mus - central.mus[0])) <= 1e-9
        # every node holds the same dual when averaging is exact
        assert np.max(np.abs(state.mus - state.mus[0])) == 0.0
        if state.k:
            f_c = cb.evaluate_primal(num_instance, state.ergodic_x)[0]
            f_z = cb.evaluate_primal(num_instance, central.ergodic_x)[0]
            assert abs(f_c - f_z) <= 1e-9


def test_exact_averaging_matches_centralized_bounded_lmi(lmi_instance, lmi_sets):
    for state, central in exact_averaging_rows(lmi_instance, lmi_sets, 0.5, 200):
        assert np.max(np.abs(state.mus - central.mus[0])) <= 1e-9
        assert np.max(np.abs(state.Gs - central.Gs[0])) <= 1e-9


def test_duals_and_ergodic_stay_feasible(num_instance, num_sets, fig_graph):
    cfg = cb.CobaddConfig(alpha=1.0, phi=2, K=150, sets=num_sets)
    for state in cobadd_states(num_instance, fig_graph, cfg):
        assert np.all(state.mus >= 0.0)
        assert np.all(state.mus <= num_sets.radius + 1e-12)
        if state.k:
            assert cb.evaluate_primal(num_instance, state.ergodic_x)[2] == 0.0


def test_lmi_duals_stay_in_sets(lmi_instance, lmi_sets):
    cfg = cb.CobaddConfig(alpha=0.5, phi=1, K=120, sets=lmi_sets)
    for state in cobadd_states(lmi_instance, cb.Graph(2, ((0, 1),)), cfg):
        for Gk in state.Gs:
            assert np.linalg.eigvalsh(Gk)[0] >= -1e-9
            assert np.linalg.norm(Gk) <= lmi_sets.radius * (1.0 + 1e-12)


@pytest.mark.parametrize("exact", [False, True], ids=["fig_graph", "exact_averaging"])
def test_trace_message_accounting(num_instance, num_sets, fig_graph, exact):
    # row k samples the duals of the k-th consensus round, k phi 2|E|
    # messages; exact averaging runs on the complete graph's n(n-1)/2 edges
    net, edges = (cb.exact_averaging_matrix(100), 4950) if exact else (cb.metropolis_weights(fig_graph), 163)
    phi = 3
    cfg = cb.CobaddConfig(alpha=1.0, phi=phi, K=40, sets=num_sets)
    tr = cb.cobadd_solve(num_instance, net, cfg)
    per_round = phi * 2 * edges
    assert np.array_equal(tr.messages_cum, per_round * np.arange(1, 41))
    assert np.all(np.diff(tr.messages_cum) >= 0)


@pytest.mark.parametrize("phi", [2**61, 2**62])
def test_message_count_beyond_int64_is_refused_before_the_solve(lmi_instance, lmi_sets,
                                                                 monkeypatch, phi):
    # on one edge, K = 2 rounds at phi = 2**61 send 2**63 messages:
    # messages_cum wrapped to -2**63 and the run passed; at phi = 2**62 one
    # round's count left int64 and the run ended in an OverflowError
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    cfg = cb.CobaddConfig(alpha=0.5, phi=phi, K=2, sets=lmi_sets)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "cobadd_init", lambda *args: pytest.fail("the solve started"))
        with pytest.raises(cb.ConfigurationError, match=f"^phi={phi}: "):
            cb.cobadd_solve(lmi_instance, W, cfg)
    # the largest count that fits, 2**63 - 2, is written as it is
    last = dataclasses.replace(cfg, phi=2**62 - 1, K=1)
    assert cb.cobadd_solve(lmi_instance, W, last).messages_cum.tolist() == [2**63 - 2]


def test_beta0_beyond_the_float_range_is_refused_before_the_solve(lmi_instance, lmi_sets,
                                                                  monkeypatch):
    # 10 alpha M = inf at alpha = 1e308 made p NaN: the bounds raised a
    # RuntimeWarning under warnings as errors, and without them beta_k read NaN
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    cfg = cb.CobaddConfig(alpha=1e308, phi=1, K=5, sets=lmi_sets)
    monkeypatch.setattr(solver_module, "cobadd_init", lambda *args: pytest.fail("the solve started"))
    with pytest.raises(cb.ConfigurationError, match=r"^alpha=1e\+308: beta0 = 10 alpha M"):
        cb.cobadd_solve(lmi_instance, W, cfg)


def test_alpha_tradeoff_floor_and_decay():
    # smaller stepsize: slower transient decay, lower eventual floor
    inst = cb.make_sample_num_instance(20, 4)
    g = cb.random_connected_graph(20, 4.0, 3)
    sl = cb.slater_certificate(inst, np.zeros(20))
    sets = cb.build_dual_sets(inst, sl, cb.DualPoint(0.0),
                              cb.dual_set_threshold(inst, sl, cb.DualPoint(0.0)))
    f_star = cb.dual_bisection(inst).f_star
    errs = {}
    for alpha in (1.0, 0.1):
        cfg = cb.CobaddConfig(alpha=alpha, phi=1, K=8000, sets=sets)
        tr = cb.cobadd_solve(inst, cb.metropolis_weights(g), cfg)
        errs[alpha] = np.abs(f_star - tr.f_ergodic)
    assert errs[0.1][-800:].mean() < errs[1.0][-800:].mean()
    assert errs[0.1][19] > errs[1.0][19]
    assert errs[0.1][49] > errs[1.0][49]


def test_higher_phi_lowers_floor(num_instance, num_sets, fig_graph, num_f_star):
    floors = {}
    for phi in (1, 4):
        cfg = cb.CobaddConfig(alpha=1.0, phi=phi, K=800, sets=num_sets)
        tr = cb.cobadd_solve(num_instance, cb.metropolis_weights(fig_graph), cfg)
        err = np.abs(num_f_star - tr.f_ergodic)
        floors[phi] = err[-80:].mean()
    assert floors[4] < floors[1]


@pytest.mark.parametrize("name", ["num", "lmi"])
def test_step_and_solve_agree(name, request, monkeypatch):
    # the solve loop and the public step API run the same kernel and pick
    # the same round operator: each row's dual values and disagreement at
    # the duals the step samples, and the ergodic point's cost and
    # violations, agree exactly, at phi = 1 and at phi = 8 alike
    instance = request.getfixturevalue(f"{name}_instance")
    sets = request.getfixturevalue(f"{name}_sets")
    graph = (request.getfixturevalue("fig_graph") if name == "num"
             else cb.Graph(2, ((0, 1),)))
    stacks = []
    stack = cb.ConsensusMatrix.stack
    monkeypatch.setattr(cb.ConsensusMatrix, "stack",
                        lambda W, phis: stacks.append(phis) or stack(W, phis))
    # both graphs are too dense for edge-list steps, so every round is one
    # product by a stack of one W^phi, and W^1 is W itself, with no copy kept
    for phi, K in ((1, 5), (8, 50)):
        W = cb.metropolis_weights(graph)
        cfg = cb.CobaddConfig(alpha=1.0, phi=phi, K=K, sets=sets)
        stacks.clear()
        tr = cb.cobadd_solve(instance, W, cfg)
        assert stacks == [(phi,)] * (K + 1)
        state = cb.cobadd_init(instance, W, cfg)
        for k in range(K):
            q = cb.dual_function_values(instance, state.mus, state.Gs)
            dev = np.abs(state.mus - state.mus.mean()) + \
                np.linalg.norm(state.Gs - state.Gs.mean(axis=0), axis=(1, 2))
            assert (tr.q_best_node[k], tr.q_mean[k]) == (q.max(), q.mean())
            assert tr.disagreement[k] == dev.max()
            state = cb.cobadd_step(instance, state, W, cfg)
            row = (tr.f_ergodic[k], tr.viol_ineq[k], tr.viol_lmi[k])
            assert cb.evaluate_primal(instance, state.ergodic_x) == row
            assert np.array_equal(state.ergodic_x, [s.ergodic_x for s in state])
        assert stacks == [(phi,)] * 2 * (K + 1)
        assert list(W._stacks) == [(phi,)]
        assert np.shares_memory(W._stacks[(phi,)], W.W) == (phi == 1)
        assert state.k == K
        assert np.array_equal(state.mus, tr.final_mus)
        assert np.array_equal(state.Gs, tr.final_Gs)


COLUMNS = ("f_ergodic", "viol_ineq", "viol_lmi", "q_best_node", "q_mean",
           "disagreement", "mu_disagreement", "G_disagreement")


def record_rows_reference(instance, state, step, K):
    """The per-row recording loop: every row's dual values, disagreement
    and ergodic-point metrics evaluated on their own."""
    cols = {name: np.zeros(K) for name in COLUMNS}
    for k in range(K):
        mus, Gs = state.mus, state.Gs
        q = cb.dual_function_values(instance, mus, Gs)
        dev_mu = np.abs(mus - mus.mean())
        dev_G = np.linalg.norm(Gs - Gs.mean(axis=0), axis=(1, 2))
        cols["q_best_node"][k], cols["q_mean"][k] = q.max(), q.mean()
        cols["mu_disagreement"][k], cols["G_disagreement"][k] = dev_mu.max(), dev_G.max()
        cols["disagreement"][k] = (dev_mu + dev_G).max()
        state = step(state)
        cols["f_ergodic"][k], cols["viol_ineq"][k], cols["viol_lmi"][k] = \
            cb.evaluate_primal(instance, state.ergodic_x)
    return cols, state


@pytest.mark.parametrize("offset", ["1", "B-1", "B", "B+1", "2B+3"])
@pytest.mark.parametrize("solver", ["cobadd", "central"])
@pytest.mark.parametrize("name", ["num", "lmi", "lmi200"])
def test_blocked_recorder_matches_per_row_loop(name, solver, offset, request):
    # blocks of rows are evaluated together, yet every column and the
    # final duals equal the per-row loop bit for bit, in full and
    # partial blocks alike
    instance = request.getfixturevalue(f"{name}_instance")
    n = instance.n
    sets = (request.getfixturevalue(f"{name}_sets") if name != "lmi200"
            else cb.DualSetSpec(1.5, 1.5))
    # rows per block as record_run sizes them; max(m, n) = n for m = n and m = 1
    B = max(1, solver_module._RECORD_ELEMENTS // (n * (1 + instance.d ** 2)))
    K = {"1": 1, "B-1": max(1, B - 1), "B": B, "B+1": B + 1, "2B+3": 2 * B + 3}[offset]
    if solver == "cobadd":
        graph = (cb.random_connected_graph(n, 8.0, 1) if n > 2
                 else cb.Graph(2, ((0, 1),)))
        W = cb.metropolis_weights(graph)
        cfg = cb.CobaddConfig(alpha=1.0, phi=2, K=K, sets=sets)
        tr = cb.cobadd_solve(instance, W, cfg)
        ref, state = record_rows_reference(
            instance, cb.cobadd_init(instance, W, cfg),
            lambda s: cb.cobadd_step(instance, s, W, cfg), K)
    else:
        alpha = 1.0 / n
        tr = cb.central_solve(instance, alpha, K, sets=sets)
        ref, state = record_rows_reference(
            instance, cb.central_init(instance, alpha, sets),
            lambda s: cb.central_step(instance, s, alpha, sets), K)
    for col in COLUMNS:
        assert np.array_equal(getattr(tr, col), ref[col]), col
    assert np.array_equal(tr.final_mus, state.mus)
    assert np.array_equal(tr.final_Gs, state.Gs)
    if not instance.d:  # no G to disagree on
        assert not tr.G_disagreement.any()
        assert np.array_equal(tr.disagreement, tr.mu_disagreement)


TRACE_FIELDS = COLUMNS + ("k", "messages_cum", "bound_upper", "bound_lower", "beta_k",
                          "final_mus", "final_Gs")


@pytest.mark.parametrize("name", ["num", "lmi200"])
def test_stacked_runs_equal_their_separate_runs(name, request):
    # runs stepped and recorded together give each run's own trace bit for
    # bit; the three alphas and the phis 1, 3, 1 differ enough that one
    # run's alpha or phi applied to another changes its trace (the 2-node
    # sample LMI instance would not show it: its duals stay at zero)
    instance = request.getfixturevalue(f"{name}_instance")
    if name == "num":
        sets, graph = (request.getfixturevalue("num_sets"),
                       request.getfixturevalue("fig_graph"))
    else:
        sets, graph = cb.DualSetSpec(1.5, 1.5), cb.random_connected_graph(200, 8.0, 1)
    W = cb.metropolis_weights(graph)
    K = 45
    configs = [cb.CobaddConfig(alpha=alpha, phi=phi, K=K, sets=sets)
               for alpha, phi in ((1.0, 1), (0.5, 3), (0.2, 1))]
    stacked = cb.cobadd_solve(instance, W, *configs)
    assert len(stacked) == 3
    for cfg, tr in zip(configs, stacked):
        alone = cb.cobadd_solve(instance, W, cfg)
        for field in TRACE_FIELDS:
            assert np.array_equal(getattr(tr, field), getattr(alone, field),
                                  equal_nan=field == "beta_k"), (cfg, field)
    other = dataclasses.replace(configs[1], K=K + 1)
    with pytest.raises(ValueError):
        cb.cobadd_solve(instance, W, configs[0], other)
    other = dataclasses.replace(configs[1], sets=cb.DualSetSpec(sets.threshold, sets.r + 1.0))
    with pytest.raises(ValueError):
        cb.cobadd_solve(instance, W, configs[0], other)


@pytest.mark.parametrize("name", ["num", "lmi200"])
def test_step_api_steps_stacked_runs_as_the_solve(name, request):
    # cobadd_init and cobadd_step given two configs reach the stacked
    # solve's final duals and last ergodic row bit for bit; runs of
    # different sets are refused at both, and a stacked state has no
    # node views
    instance = request.getfixturevalue(f"{name}_instance")
    if name == "num":
        sets, graph = (request.getfixturevalue("num_sets"),
                       request.getfixturevalue("fig_graph"))
    else:
        sets, graph = cb.DualSetSpec(1.5, 1.5), cb.random_connected_graph(200, 8.0, 1)
    W, K = cb.metropolis_weights(graph), 30
    c1 = cb.CobaddConfig(alpha=1.0, phi=1, K=K, sets=sets)
    c2 = cb.CobaddConfig(alpha=0.5, phi=3, K=K, sets=sets)
    traces = cb.cobadd_solve(instance, W, c1, c2)
    state = cb.cobadd_init(instance, W, c1, c2)
    for _ in range(K):
        state = cb.cobadd_step(instance, state, W, c1, c2)
    assert state.mus.shape == (2, instance.n) and state.k == K
    for r, tr in enumerate(traces):
        assert np.array_equal(state.mus[r], tr.final_mus)
        assert np.array_equal(state.Gs[r], tr.final_Gs)
        row = (tr.f_ergodic[-1], tr.viol_ineq[-1], tr.viol_lmi[-1])
        assert cb.evaluate_primal(instance, state.ergodic_x[r]) == row
    with pytest.raises(TypeError):
        list(state)
    other = dataclasses.replace(c2, sets=cb.DualSetSpec(sets.threshold, sets.r + 1.0))
    with pytest.raises(ValueError, match="stacked runs must share K and the dual sets"):
        cb.cobadd_init(instance, W, c1, other)
    with pytest.raises(ValueError, match="stacked runs must share K and the dual sets"):
        cb.cobadd_step(instance, state, W, c1, other)



def small_num_run():
    """The num instance on 20 nodes, its graph's weights and one config."""
    instance = cb.make_sample_num_instance(20, 4)
    W = cb.metropolis_weights(cb.random_connected_graph(20, 6.0, 3))
    return instance, W, cb.CobaddConfig(alpha=1.0, phi=1, K=5, sets=cb.DualSetSpec(1.5, 1.5))


def test_envelope_bounds_a_run_continued_past_K():
    # the bounds of a K-row solve read at every row of the same run
    # continued through cobadd_step to 2K rows
    instance, W, cfg = small_num_run()
    M = cb.subgradient_bounds(instance).M
    phi = math.ceil(W.phibar(cb.default_beta0(1.0, M), 1.0, M, 0)) + 2
    cfg = dataclasses.replace(cfg, phi=phi, K=20)
    b = cb.cobadd_solve(instance, W, cfg).bounds
    assert b.agreement_applicable
    states = list(cobadd_states(instance, W, dataclasses.replace(cfg, K=40)))[:-1]
    dev = np.array([np.max(np.abs(s.mus - s.mus.mean())) for s in states])
    assert np.all(dev <= b.disagreement_envelope(np.arange(1, 41)) + 1e-9)


def test_state_of_another_run_count_is_refused():
    # a state steps with one config per run it holds: the error names both counts
    instance, W, c1 = small_num_run()
    c2, c3 = dataclasses.replace(c1, alpha=0.5), dataclasses.replace(c1, phi=2)
    one, two = cb.cobadd_init(instance, W, c1), cb.cobadd_init(instance, W, c1, c2)
    for state, configs, held in ((two, (c1,), 2), (one, (c1, c2), 1), (two, (c1, c2, c3), 2)):
        message = f"the state holds {held} run(s), given {len(configs)} config(s)"
        with pytest.raises(ValueError, match=re.escape(message)):
            cb.cobadd_step(instance, state, W, *configs)


def test_state_of_another_node_count_is_refused():
    # a state steps on the instance it was built for: the error names both
    # node counts, for one run and for stacked runs alike
    instance, W, c1 = small_num_run()
    c2 = dataclasses.replace(c1, phi=2)
    big = cb.make_sample_num_instance(30, 4)
    big_W = cb.metropolis_weights(cb.random_connected_graph(30, 6.0, 3))
    for configs in ((c1,), (c1, c2)):
        state = cb.cobadd_init(big, big_W, *configs)
        with pytest.raises(ValueError, match="the state has 30 nodes but the instance has 20"):
            cb.cobadd_step(instance, state, W, *configs)


@pytest.mark.parametrize("m", [10, 30])
def test_weights_of_another_size_are_refused(m):
    # the bounds, the solve and the step API name both node counts
    instance, W, cfg = small_num_run()
    other = cb.metropolis_weights(cb.random_connected_graph(m, 6.0, 3))
    message = re.escape(f"W has {m} nodes but the instance has 20")
    with pytest.raises(ValueError, match=message):
        cb.cobadd_solve(instance, other, cfg)
    with pytest.raises(ValueError, match=message):
        cb.cobadd_init(instance, other, cfg)
    with pytest.raises(ValueError, match=message):
        cb.cobadd_step(instance, cb.cobadd_init(instance, W, cfg), other, cfg)
    with pytest.raises(ValueError, match=message):
        cb.theoretical_bounds(instance, cfg.sets, other, cfg.alpha, cfg.phi, 1.0)

def test_subgradient_bounds_cover_realized_values(lmi_instance, lmi_sets):
    # every subgradient realized along a run stays under the L/Q bounds
    sb = cb.subgradient_bounds(lmi_instance)
    cfg = cb.CobaddConfig(alpha=0.7, phi=1, K=100, sets=lmi_sets)
    states = list(cobadd_states(lmi_instance, cb.Graph(2, ((0, 1),)), cfg))
    for state in states[:-1]:
        x_tilde = minimize_node_lagrangians(lmi_instance, state.mus, state.Gs)
        h, Qm = cb.constraint_values(lmi_instance, x_tilde)
        assert np.all(np.abs(h) <= sb.L + 1e-12)
        assert np.all(np.linalg.norm(Qm, axis=(1, 2)) <= sb.Q + 1e-12)


def test_oracle_optimum_below_feasible_trace_points(
        num_instance, num_sets, fig_graph, num_f_star, lmi_instance,
        lmi_sets, lmi_f_star):
    # f* lower-bounds the cost at every feasible trace point
    tr = cb.central_solve(num_instance, 1.0, 400)
    feasible = (tr.viol_ineq == 0.0) & (tr.viol_lmi == 0.0)
    assert feasible.any()
    assert np.all(tr.f_ergodic[feasible] >= num_f_star - 1e-9)
    cfg = cb.CobaddConfig(alpha=0.5, phi=1, K=200, sets=lmi_sets)
    tr2 = cb.cobadd_solve(lmi_instance, cb.metropolis_weights(cb.Graph(2, ((0, 1),))), cfg)
    feas2 = (tr2.viol_ineq == 0.0) & (tr2.viol_lmi == 0.0)
    assert feas2.any()
    assert np.all(tr2.f_ergodic[feas2] >= lmi_f_star - 1e-9)
    # consensus runs may hover marginally infeasible; the claim still
    # applies to whatever feasible rows they produce
    cfg3 = cb.CobaddConfig(alpha=1.0, phi=4, K=300, sets=num_sets)
    tr3 = cb.cobadd_solve(num_instance, cb.metropolis_weights(fig_graph), cfg3)
    feas3 = (tr3.viol_ineq == 0.0) & (tr3.viol_lmi == 0.0)
    assert np.all(tr3.f_ergodic[feas3] >= num_f_star - 1e-9)


def test_config_validation():
    sets = cb.DualSetSpec(0.0, 1.0)
    for alpha in (0.0, math.nan):
        with pytest.raises(ValueError):
            cb.CobaddConfig(alpha=alpha, phi=1, K=10, sets=sets)
    with pytest.raises(ValueError):
        cb.CobaddConfig(alpha=1.0, phi=0, K=10, sets=sets)
    with pytest.raises(ValueError):
        cb.CobaddConfig(alpha=1.0, phi=1, K=0, sets=sets)


@pytest.mark.parametrize("field, value", [("phi", 1.5), ("phi", 2.0), ("phi", True),
                                          ("K", 2.5), ("K", np.float64(3.0)), ("K", False)])
def test_non_integer_phi_or_K_is_refused_by_name(field, value):
    # phi = 1.5 used to construct and then fail inside numpy's matrix
    # power, K = 2.5 inside np.zeros, and phi = True ran as phi = 1
    kwargs = {"alpha": 1.0, "phi": 1, "K": 10, "sets": cb.DualSetSpec(0.0, 1.0), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        cb.CobaddConfig(**kwargs)


def test_numpy_integer_phi_and_K_are_accepted():
    cfg = cb.CobaddConfig(alpha=1.0, phi=np.int64(2), K=np.int64(3), sets=cb.DualSetSpec(0.0, 1.0))
    instance = cb.make_sample_num_instance(5, 0)
    W = cb.metropolis_weights(cb.random_connected_graph(5, 2.0, 0))
    assert cb.cobadd_solve(instance, W, cfg).k.tolist() == [1, 2, 3]


# a d = 2 run on 200 nodes: its trace rows, like its mixing, go through
# BLAS products, whose bits must not depend on the thread count
BLAS_RUN = """
import numpy as np
import cobadd as cb
base = cb.make_sample_num_instance(200, 3)
A = np.random.default_rng(5).normal(size=(201, 2, 2))
A = (A + np.swapaxes(A, 1, 2)) / 2.0
instance = cb.ProblemInstance(
    [cb.NodeSpec(nd.f, nd.g, Ai, nd.box) for nd, Ai in zip(base.nodes, A[1:])], A[0], 2)
W = cb.metropolis_weights(cb.random_connected_graph(200, 8.0, 1))
cfg = cb.CobaddConfig(alpha=1.0, phi=2, K=12, sets=cb.DualSetSpec(1.5, 1.5))
trace = cb.cobadd_solve(instance, W, cfg)
print(trace.to_csv_text())
for name in ("mu_disagreement", "G_disagreement", "final_mus", "final_Gs"):
    print(name, repr(getattr(trace, name).tolist()))
"""


def test_d2_trace_does_not_depend_on_the_blas_thread_count():
    src = str(Path(cb.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", BLAS_RUN], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        outputs.append(run.stdout.splitlines())
    assert len(outputs[0]) == 12 + 1 + 1 + 4
    for one, two in zip(*outputs):
        assert one == two
