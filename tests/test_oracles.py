"""Ground-truth oracles: bisection, grid search, Dykstra projections."""

import numpy as np
import pytest

import cobadd as cb
from cobadd.errors import ConfigurationError


def toy_instance(budget):
    node = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                       cb.ScalarFunction.affine(1.0, -budget),
                       np.zeros((0, 0)), (0.0, 1.0))
    return cb.ProblemInstance((node,), np.zeros((0, 0)), 0)


# ---------------------------------------------------------------------------
# dual bisection
# ---------------------------------------------------------------------------

def test_bisection_single_node_kkt():
    # minimize -x s.t. x <= 0.5 on [0,1]: x* = 0.5, f* = -0.5, mu* = 1
    res = cb.dual_bisection(toy_instance(0.5))
    assert res.f_star == pytest.approx(-0.5, abs=1e-9)
    assert res.x_star[0] == pytest.approx(0.5, abs=1e-9)
    assert res.mu_star == pytest.approx(1.0, abs=1e-9)
    # verified against a dense grid of feasible points
    xs = np.linspace(0.0, 0.5, 1_000_000)
    assert res.f_star == pytest.approx(float(np.min(-xs)), abs=1e-6)


def test_bisection_slack_budget_returns_unconstrained_solution():
    res = cb.dual_bisection(toy_instance(5.0))
    assert res.mu_star == 0.0
    assert res.x_star[0] == 1.0
    assert res.f_star == pytest.approx(-1.0)


def test_bisection_num_instance(num_instance, num_f_star):
    res = cb.dual_bisection(num_instance)
    sigma = np.array(num_instance.meta["sigma"])
    # budget exhausted at the optimum: sum sigma_i x_i = 10
    assert abs(float(sigma @ res.x_star) - 10.0) < 1e-6
    assert res.mu_star == pytest.approx(1.0, abs=1e-8)
    assert res.certificate["feasibility"] <= 1e-8
    assert res.certificate["complementary_slackness"] <= 1e-6
    # with sum of linear-node sigmas above the budget, every unit of
    # budget earns cost -1, so f* = -10 exactly
    assert num_f_star == pytest.approx(-10.0, abs=1e-9)


def test_bisection_stability_to_tol(num_instance):
    a = cb.dual_bisection(num_instance, tol=1e-8).f_star
    b = cb.dual_bisection(num_instance, tol=1e-10).f_star
    assert abs(a - b) <= 10.0 * 1e-8


def test_bisection_rejects_lmi_instance(lmi_instance):
    with pytest.raises(ValueError):
        cb.dual_bisection(lmi_instance)


def test_bisection_weak_duality_dominates_solver_values(num_instance, num_f_star):
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = cb.dual_function_value(num_instance, cb.DualPoint(float(rng.uniform(0, 10))))
        assert q <= num_f_star + 1e-9


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_search_lmi_instance(lmi_instance, lmi_f_star):
    res = cb.grid_search_lmi(lmi_instance, 1e-3)
    assert res.f_star == lmi_f_star == 0.0
    assert np.allclose(res.x_star, [0.0, 0.0])
    assert res.certificate["points"] == 1001 ** 2


def test_grid_search_refinement(lmi_instance):
    coarse = cb.grid_search_lmi(lmi_instance, 2e-3).f_star
    fine = cb.grid_search_lmi(lmi_instance, 1e-3).f_star
    lipschitz = 2.0  # |f'| = 1 per node
    assert abs(coarse - fine) <= lipschitz * 2e-3


def test_grid_search_active_constraint_region():
    # maximize x (minimize -x) under x <= 0.4: grid optimum within step of 0.4
    node = cb.NodeSpec(cb.ScalarFunction.linear(-1.0),
                       cb.ScalarFunction.affine(1.0, -0.4),
                       np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance((node,), np.zeros((0, 0)), 0)
    res = cb.grid_search_lmi(inst, 1e-3)
    assert res.f_star == pytest.approx(-0.4, abs=1e-3)


def test_grid_search_infeasible_lmi_raises():
    g = cb.ScalarFunction.affine(1.0, -1.0)
    f = cb.ScalarFunction.linear(1.0)
    nodes = (cb.NodeSpec(f, g, np.zeros((2, 2)), (0.0, 1.0)),)
    inst = cb.ProblemInstance(nodes, -np.eye(2), 2)
    with pytest.raises(ConfigurationError):
        cb.grid_search_lmi(inst, 1e-2)


def test_grid_search_rejects_large_problems(num_instance):
    with pytest.raises(ValueError):
        cb.grid_search_lmi(num_instance, 1e-3)


# ---------------------------------------------------------------------------
# Dykstra projections
# ---------------------------------------------------------------------------

def test_dykstra_fixed_point_inside_set():
    V = np.diag([0.3, 0.2])
    out = cb.dykstra_project(V, 1.0, 500)
    assert np.linalg.norm(out - V) < 1e-10


def test_dykstra_matches_closed_form_scaling():
    out = cb.dykstra_project(np.diag([3.0, 4.0]), 2.5, 5_000)
    assert np.allclose(out, np.diag([1.5, 2.0]), atol=1e-7)


def test_dykstra_agrees_with_projection_batch():
    rng = np.random.default_rng(17)
    mats = []
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        mats.append((A + A.T) / 2.0)
    refs = cb.dykstra_project(np.stack(mats), 1.2, 10_000)
    gaps = np.linalg.norm(cb.project_psd_ball_stack(np.stack(mats), 1.2) - refs, axis=(1, 2))
    assert np.all(gaps < 1e-7)
