"""Problem model: oracles, bounds, dual sets, sample instances."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cobadd as cb
from cobadd.errors import ConfigurationError
from cobadd.problem import minimize_node_lagrangians

# regression constants for the seeded 100-node sample instance
NUM_THRESHOLD_PIN = 3.950934757988979
NUM_SIGMA_SUM_PIN = 48.671845826578874


def grid_minimizer(node, mu, G, n, A0, points=10_000):
    """Independent brute-force oracle: dense grid over the box."""
    xs = np.linspace(node.lo, node.hi, points)
    tr_lin = float(np.sum(node.A * G)) if node.A.size else 0.0
    tr_const = float(np.sum(A0 * G)) / n if node.A.size else 0.0
    vals = np.array([float(node.f(x)) + mu * float(node.g(x)) for x in xs])
    vals = vals - tr_lin * xs - tr_const
    i = int(np.argmin(vals))
    return xs[i], vals[i]


# ---------------------------------------------------------------------------
# scalar functions and construction contracts
# ---------------------------------------------------------------------------

def test_scalar_function_kinds():
    f = cb.ScalarFunction.linear(-2.0)
    assert f(3.0) == -6.0
    g = cb.ScalarFunction.neg_log(2.0)
    assert g(0.0) == 0.0
    assert np.isclose(g(1.0), -2.0 * math.log(2.0))
    h = cb.ScalarFunction.affine(1.5, -1.0)
    assert h(2.0) == 2.0


@pytest.mark.parametrize("kind, coefficients", [
    ("linear", {"a": 1.0, "b": 5.0}), ("linear", {"a": 1.0, "c": 1.0}),
    ("neg_log", {"a": 2.0, "c": 1.0}), ("neg_log", {"b": 1.0, "c": 1.0}),
    ("affine", {"a": 1.0, "b": 1.0, "c": 1.0})])
def test_scalar_function_rejects_coefficients_its_kind_drops(kind, coefficients):
    # the JSON form of each kind keeps only its own coefficients, so an
    # extra one would hash like the function without it
    with pytest.raises(ValueError):
        cb.ScalarFunction(kind, **coefficients)


def test_neg_log_requires_nonnegative_coefficient():
    with pytest.raises(ValueError):
        cb.ScalarFunction.neg_log(-1.0)


def test_node_spec_rejects_asymmetric_matrix():
    with pytest.raises(ConfigurationError):
        cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.linear(1.0),
                    np.array([[0.0, 1.0], [0.0, 0.0]]), (0.0, 1.0))


def test_node_spec_rejects_unbounded_or_empty_box():
    f = cb.ScalarFunction.linear(1.0)
    with pytest.raises(ConfigurationError):
        cb.NodeSpec(f, f, np.zeros((0, 0)), (0.0, math.inf))
    with pytest.raises(ConfigurationError):
        cb.NodeSpec(f, f, np.zeros((0, 0)), (1.0, 0.0))


def test_node_spec_rejects_nonfinite_evaluation():
    # -log(1+x) blows up at the lower endpoint -1
    with pytest.raises(ConfigurationError):
        cb.NodeSpec(cb.ScalarFunction.neg_log(1.0), cb.ScalarFunction.linear(1.0),
                    np.zeros((0, 0)), (-1.0, 1.0))


def test_dual_point_contracts():
    with pytest.raises(ValueError):
        cb.DualPoint(-0.5)
    with pytest.raises(ValueError):
        cb.DualPoint(0.0, np.diag([-1.0, 1.0]))
    z = cb.DualPoint(1.0, np.diag([2.0, 0.0]))
    assert z.d == 2
    assert cb.DualPoint(0.0).d == 0


@pytest.mark.parametrize("build, what", [
    (lambda M: cb.DualPoint(0.0, M), "dual matrix G"),
    (lambda M: cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.linear(1.0),
                           M, (0.0, 1.0)), "node matrix A"),
    (lambda M: cb.ProblemInstance((_node(cb.ScalarFunction.linear(1.0),
                                         cb.ScalarFunction.linear(1.0), np.zeros((2, 2))),),
                                  M, 2), "A0"),
], ids=["G", "A", "A0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_matrices_are_rejected_by_name(build, what, bad):
    # a NaN in A - A^T compares False with 1e-12, so NaN and inf used to
    # pass the symmetry check
    with pytest.raises(ConfigurationError, match=f"^{what} has non-finite entries$"):
        build(np.array([[bad, 0.0], [0.0, 1.5]]))


# ---------------------------------------------------------------------------
# local dual oracle
# ---------------------------------------------------------------------------

def _node(f, g, A=None, box=(0.0, 1.0)):
    return cb.NodeSpec(f, g, np.zeros((0, 0)) if A is None else A, box)


def node_oracle(node, dual, A0=None):
    """(q, x) of one node, through the kernel at the dual as a (1,) stack on
    the instance made of it."""
    inst = cb.ProblemInstance((node,), A0, node.A.shape[0])
    x, q = minimize_node_lagrangians(inst, np.array([dual.mu]), dual.G[None])
    return q[0], x[0]


def test_oracle_linear_slope_negative_takes_upper_endpoint():
    node = _node(cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.affine(1.0, -0.1))
    q, x = node_oracle(node, cb.DualPoint(0.5))
    assert x == 1.0
    gx, gq = grid_minimizer(node, 0.5, np.zeros((0, 0)), 1, np.zeros((0, 0)), 1_000_000)
    assert abs(x - gx) < 1e-5
    assert abs(q - gq) < 1e-9


def test_oracle_neg_log_stationary_point_clips_to_zero():
    node = _node(cb.ScalarFunction.neg_log(1.0), cb.ScalarFunction.affine(1.0, -0.1))
    q, x = node_oracle(node, cb.DualPoint(2.0))
    assert x == 0.0
    gx, gq = grid_minimizer(node, 2.0, np.zeros((0, 0)), 1, np.zeros((0, 0)), 1_000_000)
    assert abs(x - gx) < 1e-5
    assert abs(q - gq) < 1e-9


def test_oracle_constant_objective_lower_endpoint_tie_break():
    node = _node(cb.ScalarFunction.linear(0.0), cb.ScalarFunction.affine(1.0, -0.3))
    q, x = node_oracle(node, cb.DualPoint(0.0))
    assert x == 0.0
    assert q == 0.0


def test_oracle_interior_stationary_point():
    node = _node(cb.ScalarFunction.neg_log(1.0), cb.ScalarFunction.affine(1.0, 0.0))
    q, x = node_oracle(node, cb.DualPoint(2.0 / 3.0))
    assert np.isclose(x, 0.5)


def test_oracle_includes_lmi_terms():
    A = np.diag([-1.0, 0.0])
    A0 = np.diag([1.5, 1.5])
    node = cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.affine(1.0, -1.0),
                       A, (0.0, 1.0))
    G = np.diag([2.0, 1.0])
    q, x = node_oracle(node, cb.DualPoint(0.5, G), A0=A0)
    # slope = 1 + 0.5 + tr[diag(1,0) G] = 3.5 > 0 -> x = 0
    assert x == 0.0
    expected_q = 0.0 + 0.5 * (-1.0) - np.sum(A0 * G)
    assert np.isclose(q, expected_q)
    gx, gq = grid_minimizer(node, 0.5, G, 1, A0, 1_000_000)
    assert abs(x - gx) < 1e-5
    assert abs(q - gq) < 1e-9


def test_oracle_matches_grid_on_random_duals(num_instance):
    rng = np.random.default_rng(3)
    A0 = num_instance.A0
    for _ in range(20):
        i = int(rng.integers(0, num_instance.n))
        node = num_instance.nodes[i]
        mu = float(rng.uniform(0.0, 3.0))
        x_all, q_all = minimize_node_lagrangians(num_instance, np.array([mu]))
        q, x = q_all[i], x_all[i]
        gx, gq = grid_minimizer(node, mu, np.zeros((0, 0)), num_instance.n, A0)
        assert abs(x - gx) <= 1e-10 + 1.0 / 9_999
        assert q <= gq + 1e-12


# ---------------------------------------------------------------------------
# subgradients
# ---------------------------------------------------------------------------

def test_node_subgradient_direct_evaluation():
    node = _node(cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.affine(1.0, -0.1))
    inst = cb.ProblemInstance((node,), np.zeros((0, 0)), 0)
    h, Q = cb.constraint_values(inst, np.array([1.0]))
    assert np.isclose(h[0], 0.9)
    assert Q.shape == (1, 0, 0)
    h, _ = cb.constraint_values(inst, np.array([0.0]))
    assert np.isclose(h[0], -0.1)


def test_node_subgradient_matrix_part():
    node = cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.linear(1.0),
                       np.eye(2), (0.0, 1.0))
    inst = cb.ProblemInstance((node, node), np.eye(2), 2)
    _, Q = cb.constraint_values(inst, np.array([0.0, 1.0]))
    assert np.allclose(Q[0], -np.eye(2) / 2.0)
    assert np.allclose(Q[1], -1.5 * np.eye(2))


def test_subgradient_bounds_endpoint_cases():
    node = _node(cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.affine(1.0, -10.0))
    inst = cb.ProblemInstance((node,), np.zeros((0, 0)), 0)
    sb = cb.subgradient_bounds(inst)
    assert sb.L == 10.0
    assert sb.Q == 0.0
    assert sb.M == 10.0


def test_subgradient_bounds_frobenius():
    node = cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.linear(1.0),
                       np.eye(2), (0.0, 1.0))
    inst = cb.ProblemInstance((node,), np.zeros((2, 2)), 2)
    sb = cb.subgradient_bounds(inst)
    assert np.isclose(sb.Q, math.sqrt(2.0))


def test_subgradient_bounds_cover_grid_and_run(num_instance):
    sb = cb.subgradient_bounds(num_instance)
    xs = np.linspace(0.0, 1.0, 100_000)
    worst = max(float(np.max(np.abs(nd.g(xs)))) for nd in num_instance.nodes)
    assert sb.L >= worst - 1e-12
    assert np.isclose(sb.L, worst)
    assert sb.Q == 0.0


# ---------------------------------------------------------------------------
# dual sets and Slater
# ---------------------------------------------------------------------------

def test_slater_certificate_num(num_instance):
    sl = cb.slater_certificate(num_instance, np.zeros(num_instance.n))
    assert abs(sl.gamma - 10.0) < 1e-12
    assert sl.fxbar == 0.0


def test_slater_rejects_infeasible_point(num_instance):
    with pytest.raises(ConfigurationError):
        cb.slater_certificate(num_instance, np.ones(num_instance.n))


def test_slater_point_with_a_nan_entry_leaves_the_boxes(num_instance):
    # NaN fails every comparison, so the box test asks that each entry pass
    xbar = np.zeros(num_instance.n)
    xbar[0] = math.nan
    with pytest.raises(ConfigurationError, match="leaves the boxes"):
        cb.slater_certificate(num_instance, xbar)


def test_slater_lmi_margin(lmi_instance):
    sl = cb.slater_certificate(lmi_instance, np.zeros(2))
    assert np.isclose(sl.gamma, 1.5)


def test_build_dual_sets_threshold_pin(num_instance):
    sl = cb.slater_certificate(num_instance, np.zeros(num_instance.n))
    thr = cb.dual_set_threshold(num_instance, sl, cb.DualPoint(0.0))
    assert abs(thr - NUM_THRESHOLD_PIN) < 1e-9
    sets = cb.build_dual_sets(num_instance, sl, cb.DualPoint(0.0), thr)
    assert np.isclose(sets.radius, 2.0 * thr)


def test_build_dual_sets_rejects_small_r(num_instance):
    sl = cb.slater_certificate(num_instance, np.zeros(num_instance.n))
    thr = cb.dual_set_threshold(num_instance, sl, cb.DualPoint(0.0))
    with pytest.raises(ConfigurationError) as err:
        cb.build_dual_sets(num_instance, sl, cb.DualPoint(0.0), 0.5 * thr)
    assert f"{thr}" in str(err.value)


def test_dual_set_spec_has_one_r_rule():
    # r >= threshold - 1e-12 is the one admissibility rule: a relative
    # proxy on the radius used to reject the first pair and admit the second
    sets = cb.DualSetSpec(1e-15, 1e-16)
    assert sets.radius == 1e-15 + 1e-16
    with pytest.raises(ConfigurationError, match=f"minimum admissible value {1e6}"):
        cb.DualSetSpec(1e6, 1e6 - 1e-9)
    with pytest.raises(ConfigurationError, match="radius must be positive"):
        cb.DualSetSpec(-5.0, 1.0)


@pytest.mark.parametrize("threshold, r, radius", [(math.inf, 1.0, "inf"),
                                                   (0.0, 1e200, "1e+200")])
def test_dual_set_radius_square_must_be_finite(threshold, r, radius):
    # the bounds square the radius: a square that overflows fails there, and
    # every bound check passes against an infinite radius
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"projection radius {radius} is too large: its square "
                                       "is not finite")):
        cb.DualSetSpec(threshold, r)


@pytest.mark.parametrize("mu", [1e200, 1e308], ids=["mu_1e200", "mu_1e308"])
def test_sets_reject_the_threshold_of_a_huge_probe(mu):
    # q at such a probe is huge or, summed, beyond the float range; either
    # comes back without a warning, and the sets reject the radius
    instance = cb.make_sample_num_instance(24, 4)
    sl = cb.slater_certificate(instance, np.zeros(24))
    threshold = cb.dual_set_threshold(instance, sl, cb.DualPoint(mu))
    with pytest.raises(ConfigurationError, match="square is not finite"):
        cb.DualSetSpec(threshold, threshold)


def test_threshold_shrinks_at_better_probe(lmi_instance):
    # probing at the optimal duals (mu=0, G=0 here) gives threshold 0
    sl = cb.slater_certificate(lmi_instance, np.zeros(2))
    thr_opt = cb.dual_set_threshold(lmi_instance, sl, cb.DualPoint(0.0, np.zeros((2, 2))))
    f_star = cb.grid_search_lmi(lmi_instance, 1e-3).f_star
    assert np.isclose(thr_opt, (sl.fxbar - f_star) / sl.gamma)
    thr_worse = cb.dual_set_threshold(lmi_instance, sl,
                                      cb.DualPoint(2.0, np.zeros((2, 2))))
    assert thr_worse >= thr_opt


# ---------------------------------------------------------------------------
# primal evaluation
# ---------------------------------------------------------------------------

def test_evaluate_primal_slater_point(num_instance):
    f, vi, vl = cb.evaluate_primal(num_instance, np.zeros(num_instance.n))
    assert vi == 0.0
    assert vl == 0.0
    assert f == 0.0


def test_evaluate_primal_all_ones_matches_direct_sum(num_instance):
    sigma = np.array(num_instance.meta["sigma"])
    nlin = num_instance.meta["n_linear"]
    f, vi, _ = cb.evaluate_primal(num_instance, np.ones(num_instance.n))
    expected = -sigma[:nlin].sum() - math.log(2.0) * sigma[nlin:].sum()
    assert np.isclose(f, expected)
    assert np.isclose(vi, sigma.sum() - 10.0)


@pytest.mark.parametrize("name", ["num", "lmi200"])
def test_evaluate_primal_stack_matches_single_points(name, request):
    # each row of an (r, n) stack gets the single-point values bit for bit
    instance = request.getfixturevalue(f"{name}_instance")
    lo, hi = instance.boxes
    rng = np.random.default_rng(11)
    X = lo + (hi - lo) * rng.random((7, instance.n))
    X[0] = lo
    f, vi, vl = cb.evaluate_primal(instance, X)
    assert f.shape == vi.shape == vl.shape == (7,)
    for row, x in enumerate(X):
        single = cb.evaluate_primal(instance, x)
        assert all(type(v) is float for v in single)
        assert single == (f[row], vi[row], vl[row])
    assert np.any(vi > 0.0) and np.any(vi == 0.0)
    if instance.d:
        assert np.any(vl > 0.0)


def test_evaluate_primal_stack_rejects_a_row_outside_the_boxes(num_instance):
    lo, hi = num_instance.boxes
    X = np.stack([lo, hi, hi])
    X[2, 5] = hi[5] + 1e-6
    with pytest.raises(ValueError):
        cb.evaluate_primal(num_instance, X)
    cb.evaluate_primal(num_instance, X[:2])


def test_evaluate_primal_lmi_zero_violation():
    node = cb.NodeSpec(cb.ScalarFunction.linear(1.0), cb.ScalarFunction.affine(1.0, -1.0),
                       np.zeros((2, 2)), (0.0, 1.0))
    inst = cb.ProblemInstance((node,), np.eye(2), 2)
    _, _, vl = cb.evaluate_primal(inst, np.array([0.5]))
    assert vl == 0.0


# ---------------------------------------------------------------------------
# sample instances
# ---------------------------------------------------------------------------

def test_num_instance_determinism_and_split():
    a = cb.make_sample_num_instance(100, 42)
    b = cb.make_sample_num_instance(100, 42)
    assert a.meta["sigma"] == b.meta["sigma"]
    assert a.meta["n_linear"] == 33
    assert sum(1 for nd in a.nodes if nd.f.kind == "neg_log") == 67
    assert abs(np.array(a.meta["sigma"]).sum() - NUM_SIGMA_SUM_PIN) < 1e-9
    c = cb.make_sample_num_instance(100, 43)
    assert c.meta["sigma"] != a.meta["sigma"]


def test_num_instance_budget_split(num_instance):
    x = np.full(num_instance.n, 0.7)
    sigma = np.array(num_instance.meta["sigma"])
    total = sum(float(nd.g(v)) for nd, v in zip(num_instance.nodes, x))
    assert np.isclose(total, sigma.sum() * 0.7 - 10.0, atol=1e-10)


def test_lmi_instance_shape(lmi_instance):
    assert lmi_instance.n == 2
    assert lmi_instance.d == 2
    assert np.allclose(lmi_instance.A0, np.diag([1.5, 1.5]))
    # feasible at (1,1): A0 + A1 + A2 = diag(0.5, 0.5)
    M = lmi_instance.lmi_matrix(np.array([1.0, 1.0]))
    assert np.allclose(M, np.diag([0.5, 0.5]))
    assert np.linalg.eigvalsh(M)[0] >= 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_instance_json_round_trip(num_instance):
    doc = cb.instance_to_json(num_instance)
    back = cb.instance_from_json(doc)
    assert back.n == num_instance.n
    assert back.d == num_instance.d
    assert back.meta["seed"] == 42
    z = cb.DualPoint(0.7)
    assert np.isclose(cb.dual_function_value(back, z),
                      cb.dual_function_value(num_instance, z))
    assert cb.instance_to_json(back) == doc


def test_lmi_json_round_trip(lmi_instance):
    back = cb.instance_from_json(cb.instance_to_json(lmi_instance))
    assert np.allclose(back.nodes[0].A, lmi_instance.nodes[0].A)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_dual_lipschitz_bound(seed_a, seed_b):
    inst = cb.make_sample_num_instance(12, 9)
    M = cb.subgradient_bounds(inst).M
    rng_a = np.random.default_rng(seed_a)
    rng_b = np.random.default_rng(seed_b + 77_000)
    mu1 = float(rng_a.uniform(0.0, 5.0))
    mu2 = float(rng_b.uniform(0.0, 5.0))
    _, q1 = minimize_node_lagrangians(inst, np.array([mu1]))
    _, q2 = minimize_node_lagrangians(inst, np.array([mu2]))
    assert np.all(np.abs(q1 - q2) <= M * abs(mu1 - mu2) + 1e-9)


def test_dual_lipschitz_bound_with_matrix_duals(lmi_instance):
    M = cb.subgradient_bounds(lmi_instance).M
    rng = np.random.default_rng(31)
    for _ in range(40):
        z = []
        for _ in range(2):
            B = rng.normal(size=(2, 2))
            z.append(cb.DualPoint(float(rng.uniform(0, 1)), B @ B.T / 4.0))
        dist = math.sqrt((z[0].mu - z[1].mu) ** 2
                         + np.linalg.norm(z[0].G - z[1].G) ** 2)
        q = [minimize_node_lagrangians(lmi_instance, np.array([zz.mu]), zz.G[None])[1]
             for zz in z]
        assert np.all(np.abs(q[0] - q[1]) <= M * dist + 1e-9)


def test_oracle_matches_grid_with_matrix_duals(lmi_instance):
    rng = np.random.default_rng(32)
    for _ in range(10):
        B = rng.normal(size=(2, 2))
        z = cb.DualPoint(float(rng.uniform(0, 1)), B @ B.T / 3.0)
        x_all, q_all = minimize_node_lagrangians(lmi_instance, np.array([z.mu]), z.G[None])
        for node, q, x in zip(lmi_instance.nodes, q_all, x_all):
            gx, gq = grid_minimizer(node, z.mu, z.G, 2, lmi_instance.A0)
            assert abs(x - gx) <= 1e-10 + 1.0 / 9_999
            assert q <= gq + 1e-12


def test_dual_concavity_midpoint(num_instance):
    rng = np.random.default_rng(11)
    for _ in range(25):
        mu1, mu2 = rng.uniform(0.0, 7.9, size=2)
        q1 = cb.dual_function_value(num_instance, cb.DualPoint(mu1))
        q2 = cb.dual_function_value(num_instance, cb.DualPoint(mu2))
        qm = cb.dual_function_value(num_instance, cb.DualPoint((mu1 + mu2) / 2.0))
        assert qm >= 0.5 * (q1 + q2) - 1e-9


def test_dual_concavity_midpoint_lmi(lmi_instance):
    rng = np.random.default_rng(12)
    for _ in range(25):
        z = []
        for _ in range(2):
            B = rng.normal(size=(2, 2))
            z.append(cb.DualPoint(float(rng.uniform(0, 1)), B @ B.T / 4.0))
        zm = cb.DualPoint((z[0].mu + z[1].mu) / 2.0, (z[0].G + z[1].G) / 2.0)
        q1 = cb.dual_function_value(lmi_instance, z[0])
        q2 = cb.dual_function_value(lmi_instance, z[1])
        qm = cb.dual_function_value(lmi_instance, zm)
        assert qm >= 0.5 * (q1 + q2) - 1e-9


def test_weak_duality_random_duals(num_instance, num_f_star):
    rng = np.random.default_rng(13)
    x_feas = np.zeros(num_instance.n)
    f_feas, vi, _ = cb.evaluate_primal(num_instance, x_feas)
    assert vi == 0.0
    for _ in range(30):
        q = cb.dual_function_value(num_instance, cb.DualPoint(float(rng.uniform(0, 8))))
        assert q <= num_f_star + 1e-9
        assert q <= f_feas + 1e-9


def test_batch_oracle_matches_scalar_path(num_instance):
    rng = np.random.default_rng(14)
    mus = rng.uniform(0.0, 4.0, size=num_instance.n)
    x_batch, q_batch = minimize_node_lagrangians(num_instance, mus)
    for i in (0, 7, 40, 99):
        q_i, x_i = node_oracle(num_instance.nodes[i], cb.DualPoint(mus[i]))
        assert q_batch[i] == q_i
        assert x_batch[i] == x_i


def test_dual_function_values_matches_single(lmi_instance, lmi200_instance):
    # a row of the d > 0 path takes tr[A_i G] from one product per block
    # and sums in its own order, so it agrees with the single-point value
    # to the size of the summands, diagonal and full PSD G alike
    rng = np.random.default_rng(15)
    mus = rng.uniform(0.0, 1.0, size=40)
    B = rng.normal(size=(20, 2, 2))
    Gs = np.concatenate([np.stack([np.diag(rng.uniform(0, 1, size=2)) for _ in range(20)]),
                         B @ np.swapaxes(B, 1, 2)])
    for instance in (lmi_instance, lmi200_instance):
        vals = cb.dual_function_values(instance, mus, Gs)
        for i in range(40):
            single = cb.dual_function_value(instance, cb.DualPoint(mus[i], Gs[i]))
            q_i = minimize_node_lagrangians(instance, mus[i:i + 1], Gs[i:i + 1])[1]
            assert abs(vals[i] - single) <= 1e-12 * np.abs(q_i).sum(), (instance.n, i)


def _psd(a, b, c):
    return np.array([[a, b], [b, c]])


# d = 2 nodes at the edges of the value rows, with q at mu = 0, G = 0
# worked out by hand: sum_i min(a_f lo, a_f hi) + sum_i b_f
D2_EDGE_CASES = {
    # c_f = 0 < c_g: at mu = 0, C = 0 and S = a_f takes each sign, so the
    # minimizer is hi (S < 0), lo (S > 0) or anywhere (S = 0)
    "linear_f_neg_log_g": ([(cb.ScalarFunction.linear(a), cb.ScalarFunction.neg_log(1.0),
                             (-0.5, 2.0)) for a in (-1.0, 0.0, 1.0)], -2.5),
    # no log term, so the box may lie below -1
    "affine_box_below_minus_one": ([
        (cb.ScalarFunction.affine(1.0, 2.0), cb.ScalarFunction.affine(-1.0, 0.5), (-3.0, -2.0)),
        (cb.ScalarFunction.affine(-2.0, 0.0), cb.ScalarFunction.linear(1.0), (-5.0, -1.5))], 2.0),
}


@pytest.mark.parametrize("case", sorted(D2_EDGE_CASES))
def test_dual_values_at_d2_edge_nodes(case):
    # at mu = 0 and mu > 0, each with G = 0 and a PSD G: finite values,
    # no warning, and within the rows' bound of the single-point value
    spec, q_zero = D2_EDGE_CASES[case]
    A = (_psd(1.0, 0.5, -1.0), _psd(0.0, 1.0, 0.0), _psd(-2.0, 0.0, 0.5))
    inst = cb.ProblemInstance([cb.NodeSpec(f, g, A[i], box) for i, (f, g, box) in enumerate(spec)],
                              _psd(3.0, 0.0, 3.0), 2)
    mus = np.array([0.0, 0.0, 0.7, 0.7])
    Gs = np.stack([np.zeros((2, 2)), _psd(1.0, 0.5, 2.0)] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = cb.dual_function_values(inst, mus, Gs)
        assert vals[0] == q_zero
        assert np.all(np.isfinite(vals))
        for mu, G, val in zip(mus, Gs, vals):
            q_i = minimize_node_lagrangians(inst, np.array([mu]), G[None])[1]
            single = cb.dual_function_value(inst, cb.DualPoint(mu, G))
            assert abs(val - single) <= 1e-12 * np.abs(q_i).sum(), (mu, G)


def test_node_oracle_rejects_negative_mu():
    # at mu = -1 the Lagrangian -x + log(1 + x) is concave on [0, 1]; the
    # closed form would read C = -1 as affine and return x = 1 with
    # q = -1, below the true minimum log 2 - 1
    node = cb.NodeSpec(cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.neg_log(1.0),
                       np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance([node])
    with pytest.raises(ValueError, match="mu >= 0"):
        minimize_node_lagrangians(inst, np.array([-1.0]))


def test_dual_function_values_rejects_negative_mu(lmi_instance):
    # q is defined for mu >= 0, and the closed-form minimizers assume a
    # convex Lagrangian.  At mu = -1 this node's -x + log(1 + x) is
    # concave (minimum log 2 - 1 at x = 1), so a negative mu is an error
    # at any d, and mu >= 0 reads the breakpoints
    node = cb.NodeSpec(cb.ScalarFunction.linear(-1.0), cb.ScalarFunction.neg_log(1.0),
                       np.zeros((0, 0)), (0.0, 1.0))
    inst = cb.ProblemInstance([node])
    with pytest.raises(ValueError, match="mu >= 0"):
        cb.dual_function_values(inst, np.array([1.0, -1.0]))
    Gs = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="mu >= 0"):
        cb.dual_function_values(lmi_instance, np.array([0.5, -1.0]), Gs)
    mus = np.array([0.0, 0.5, 1.0])
    vals = cb.dual_function_values(inst, mus)
    assert np.allclose(vals, [-1.0, -1.0 - 0.5 * math.log(2.0), -1.0 - math.log(2.0)],
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("d, entry", [(0, "mu"), (2, "mu"), (2, "G")])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("q_function", [minimize_node_lagrangians, cb.dual_function_values],
                         ids=["kernel", "rows"])
def test_non_finite_dual_is_a_configuration_error(q_function, bad, d, entry, lmi_instance):
    # a NaN mu passed the mu >= 0 test and G's entries went unchecked: the
    # rows came back NaN (d = 0 at mu = inf with a RuntimeWarning), and the
    # kernel blamed the box for a non-finite Lagrangian value
    inst = lmi_instance if d else cb.make_sample_num_instance(10, 0)
    mus = np.ones(inst.n)
    Gs = np.zeros((inst.n, d, d))
    if entry == "mu":
        mus[-1] = bad
    else:
        Gs[-1, 0, 1] = bad
    name = q_function.__name__
    with pytest.raises(ConfigurationError, match=f"^{name} needs every mu and G entry finite$"):
        q_function(inst, mus, Gs if d else None)
    # a negative mu keeps its own message
    with pytest.raises(ValueError, match=f"^{name} needs every mu >= 0$"):
        q_function(inst, -np.ones(inst.n), Gs if d else None)


@pytest.mark.parametrize("name, G", [("lmi", None), ("num", np.eye(2))])
def test_dual_point_of_another_dimension_is_named(name, G, request):
    # a d = 0 dual on a d = 2 instance used to fail inside numpy's
    # broadcasting, and a d = 2 dual on a d = 0 instance was dropped
    instance = request.getfixturevalue(f"{name}_instance")
    with pytest.raises(ValueError, match=f"d = {2 - instance.d} on a d = {instance.d} instance"):
        cb.dual_function_value(instance, cb.DualPoint(0.5, G))


@pytest.mark.parametrize("Gs", [None, np.zeros((2, 3, 3)), np.zeros((1, 2, 2))],
                         ids=["missing", "other_d", "other_count"])
def test_missing_or_misshapen_Gs_is_an_error_with_an_lmi(lmi_instance, Gs):
    # a missing Gs used to read as G = 0
    mus = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=r"d = 2 instance; expected shape \(2, 2, 2\)"):
        minimize_node_lagrangians(lmi_instance, mus, Gs)
    with pytest.raises(ValueError, match=r"d = 2 instance; expected shape \(2, 2, 2\)"):
        cb.dual_function_values(lmi_instance, mus, Gs)


@pytest.mark.parametrize("name", ["num", "lmi200"])
def test_shared_dual_sweep_equals_the_per_node_stack(name, request):
    # dual_function_value and the master node's step hand the kernel one
    # shared dual as a (1,) stack, whose broadcast gives every node the
    # bits of n copies; the step passes its projected G on unsymmetrized,
    # which changes nothing because the projection returns it symmetric
    instance = request.getfixturevalue(f"{name}_instance")
    n, d = instance.n, instance.d
    B = np.random.default_rng(21).normal(size=(d, d))
    for mu, M in ((0.0, np.zeros((d, d))), (0.7, B + B.T), (2.5, (B + B.T) / 3.0)):
        G = cb.project_psd_ball_stack(M, 2.0)
        assert mu == 0.0 or d == 0 or np.any(G)
        x_ref, q_ref = minimize_node_lagrangians(instance, np.full(n, mu),
                                                 np.broadcast_to(G, (n, d, d)))
        assert cb.dual_function_value(instance, cb.DualPoint(mu, G)) == q_ref.sum()
        state = cb.SolverState(np.array([mu]), G[None], np.full(n, math.nan), np.zeros(n), 0)
        assert np.array_equal(cb.central_step(instance, state, 1.0).x_tilde, x_ref)


# ---------------------------------------------------------------------------
# the node kernel against a reference written apart from it
# ---------------------------------------------------------------------------

def reference_minimize(C, S, T, lo, hi):
    """Box minimizer and minimum of -C*log(1+x) + S*x + T, written out here
    branch by branch from given C, S and T: the node kernel, which forms
    C, S and T from the instance and the duals itself, must match it bit
    for bit, tie-breaks and rounding included."""
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = C / S - 1.0
    x_convex = np.where(S > 0.0, np.clip(stationary, lo, hi), hi)
    x = np.where(C > 0.0, x_convex, np.where(S < 0.0, hi, lo))
    with np.errstate(invalid="ignore"):
        log_term = np.where(C > 0.0, np.log1p(np.where(C > 0.0, x, 0.0)), 0.0)
    return x, -C * log_term + S * x + T


# the dual at which the constructed nodes hit S == 0 or land C/S - 1 on a
# box endpoint exactly (dyadic data keeps that arithmetic exact)
MU_EXACT = 2.0


def _coef(rng, low, high):
    if rng.random() < 0.5:
        return float(rng.integers(4 * low, 4 * high + 1)) / 4.0
    return float(rng.uniform(low, high))


def _closed_form_node(rng, d):
    lo = float(rng.integers(-3, 4)) / 8.0
    hi = lo + float(rng.integers(0, 9)) / 8.0
    a_g = float(rng.integers(1, 9)) / 4.0
    role = rng.integers(6)
    if role == 0:    # affine Lagrangian with S == 0 at MU_EXACT: lower endpoint
        f = cb.ScalarFunction.affine(-MU_EXACT * a_g, _coef(rng, -2, 2))
        g = cb.ScalarFunction.affine(a_g, _coef(rng, -2, 2))
    elif role == 1:  # log terms only: S == 0 where G = 0, upper endpoint if C > 0
        f = cb.ScalarFunction.neg_log(_coef(rng, 0, 2))
        g = cb.ScalarFunction.neg_log(_coef(rng, 0, 2))
    elif role == 2:  # C/S - 1 lands exactly on lo or hi at MU_EXACT
        end = lo if rng.random() < 0.5 else hi
        f = cb.ScalarFunction.neg_log((end + 1.0) * MU_EXACT * a_g)
        g = cb.ScalarFunction.affine(a_g, _coef(rng, -2, 2))
    else:
        kinds = (lambda: cb.ScalarFunction.linear(_coef(rng, -2, 2)),
                 lambda: cb.ScalarFunction.neg_log(_coef(rng, 0, 2)),
                 lambda: cb.ScalarFunction.affine(_coef(rng, -2, 2), _coef(rng, -2, 2)))
        f = kinds[rng.integers(3)]()
        g = kinds[rng.integers(3)]()
    A = rng.normal(size=(d, d))
    return cb.NodeSpec(f, g, (A + A.T) / 2.0, (lo, hi))


def _psd_duals(rng, count, d):
    B = rng.normal(size=(count, d, d))
    return B @ np.swapaxes(B, 1, 2) / 4.0


# at d > 0, n = 1 to 2000 fit m in one block, 5000 and 16385 split it
# into blocks of 6 and 2 rows, 32769 exceeds the block size: one row per
# block, padded to two for the product
@given(st.sampled_from([1, 3, 60, 2000, 5000, 16385, 32769]), st.integers(1, 13),
       st.sampled_from([0, 2]), st.integers(0, 2**32 - 1))
def test_closed_form_kernel_matches_broadcast_expression(n, m, d, seed):
    rng = np.random.default_rng(seed)
    # nodes drawn from a pool of distinct random nodes keep large n cheap
    pool = [_closed_form_node(rng, d) for _ in range(min(n, 64))]
    A0 = rng.normal(size=(d, d))
    inst = cb.ProblemInstance([pool[j] for j in rng.integers(len(pool), size=n)],
                              A0 + A0.T, d)
    c_f, a_f, b_f, c_g, a_g, b_g = inst._closed
    lo, hi = inst.boxes

    # the oracle, one dual per node: some at 0, some at MU_EXACT with G = 0
    mus_n = rng.uniform(0.0, 3.0, size=n)
    pick = rng.integers(3, size=n)
    mus_n[pick == 0] = 0.0
    mus_n[pick == 1] = MU_EXACT
    Gs_n = _psd_duals(rng, n, d)
    Gs_n[pick == 1] = 0.0
    x, q = minimize_node_lagrangians(inst, mus_n, Gs_n if d else None)
    lin = -np.sum(inst.A_stack * Gs_n, axis=(1, 2)) if d else np.zeros(n)
    const = -np.sum(inst.A0 * Gs_n, axis=(1, 2)) / n if d else np.zeros(n)
    x_ref, q_ref = reference_minimize(
        c_f + mus_n * c_g, a_f + mus_n * a_g + lin,
        b_f + mus_n * b_g + const, lo, hi)
    assert np.array_equal(x, x_ref) and np.array_equal(q, q_ref)

    # dual values at m shared points: the first two at 0 and MU_EXACT, G = 0
    mus = rng.uniform(0.0, 3.0, size=m)
    mus[:2] = (0.0, MU_EXACT)[:m]
    Gs = _psd_duals(rng, m, d)
    Gs[:2] = 0.0
    vals = cb.dual_function_values(inst, mus, Gs if d else None)
    lin = -np.sum(inst.A_stack * Gs[:, None], axis=(2, 3)) if d else 0.0
    const = (-np.sum(inst.A0 * Gs, axis=(1, 2)) / n)[:, None] if d else 0.0
    _, v_ref = reference_minimize(
        c_f + mus[:, None] * c_g, a_f + mus[:, None] * a_g + lin,
        b_f + mus[:, None] * b_g + const, lo, hi)
    # d = 0 reads q off the sorted breakpoints, d > 0 takes one product
    # per block: same value, another summation order, so bounded by the
    # size of the summands
    assert np.all(np.abs(vals - v_ref.sum(axis=1)) <= 1e-12 * np.abs(v_ref).sum(axis=1))
    for i in range(m):
        G_i = np.broadcast_to(Gs[i], (n, d, d)) if d else None
        q_i = minimize_node_lagrangians(inst, np.full(n, mus[i]), G_i)[1]
        if d:
            # the oracle sums tr[A_i G] entry by entry, the batch in a product
            assert vals[i] == pytest.approx(q_i.sum(), rel=1e-12, abs=1e-12)
        else:
            assert abs(vals[i] - q_i.sum()) <= 1e-12 * np.abs(q_i).sum()


# ---------------------------------------------------------------------------
# the sorted-breakpoint dual values (d = 0) against the per-point kernel
# ---------------------------------------------------------------------------

KIND_PAIRS = [(f, g) for f in ("linear", "neg_log", "affine")
              for g in ("linear", "neg_log", "affine")]


def _kind_node(rng, f_kind, g_kind):
    """A node of the given kinds.  The coefficient of g is 0 or a power of
    two (of either sign unless neg_log), and so are 1 + lo and 1 + hi
    when a log term is present, so every breakpoint is dyadic and the
    kernel lands exactly on a box endpoint there.  Without a log term the
    box may reach below -1, where 0 * log(1 + x) must still read as 0."""
    def fun(kind, coef):
        if kind == "neg_log":
            return cb.ScalarFunction.neg_log(abs(coef))
        if kind == "linear":
            return cb.ScalarFunction.linear(coef)
        return cb.ScalarFunction.affine(coef, float(rng.integers(-16, 17)) / 8.0)

    g_coef = 0.0 if rng.random() < 0.125 else float(
        rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-2, 3))
    f = fun(f_kind, float(rng.integers(-8, 9)) / 4.0)
    g = fun(g_kind, g_coef)
    ends = [-0.75, -0.5, 0.0, 1.0] + ([] if f.c or g.c else [-3.0, -1.0])
    lo, hi = sorted(rng.choice(ends, size=2))
    return cb.NodeSpec(f, g, np.zeros((0, 0)), (lo, hi))


@given(st.sampled_from([1, 3, 60, 2000, 5000]), st.integers(0, 2**32 - 1))
# every q_i is exactly 0 on a breakpoint, where the stationary point
# enters (18379) or leaves (588) the box: the endpoint piece must hold
@example(n=3, seed=18379)
@example(n=1, seed=588)
def test_breakpoint_dual_values_match_kernel(n, seed):
    rng = np.random.default_rng(seed)
    start = int(rng.integers(len(KIND_PAIRS)))
    pool = [_kind_node(rng, *KIND_PAIRS[(start + j) % len(KIND_PAIRS)])
            for j in range(min(n, 36))]
    inst = cb.ProblemInstance([pool[j] for j in rng.integers(len(pool), size=n)])
    assert inst._breakpoints is not None
    # where a stationary point meets the box or S changes sign, from the
    # data (some candidates are no breakpoint of their node: more points)
    c_f, a_f, b_f, c_g, a_g, b_g = inst._closed
    lo, hi = inst.boxes
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.concatenate([c_f / (a_g * (1 + lo)), c_f / (a_g * (1 + hi)),
                            a_f * (1 + lo) / c_g, a_f * (1 + hi) / c_g,
                            -a_f / a_g])
    t = t[np.isfinite(t) & (t > 0)]
    beyond = 2.0 * (t.max() if t.size else 1.0)
    mus = [0.0, beyond, *rng.choice(t, size=min(t.size, 8)), *rng.uniform(0.0, beyond, 4)]
    try:    # mu at the radius, when the box midpoint is a Slater point
        slater = cb.slater_certificate(inst, (lo + hi) / 2.0)
        threshold = cb.dual_set_threshold(inst, slater, cb.DualPoint(0.0))
        r = threshold if threshold > 0 else 1.0
        mus.append(cb.build_dual_sets(inst, slater, cb.DualPoint(0.0), r).radius)
    except ConfigurationError:
        pass
    vals = cb.dual_function_values(inst, np.array(mus))
    for mu, v in zip(mus, vals):
        q_i = minimize_node_lagrangians(inst, np.full(n, mu))[1]
        assert abs(v - q_i.sum()) <= 1e-12 * np.abs(q_i).sum()


def test_breakpoint_rows_match_the_row_gather(num_instance):
    # the d = 0 values take each coefficient from its own contiguous row of
    # the table; they equal the gather of whole rows of its (2n + 1, 4)
    # transpose in the same long-double operations, bit for bit, at mu = 0,
    # on and just below each breakpoint, and past the last one
    t, cum = num_instance._breakpoints
    assert cum.shape == (4, 2 * num_instance.n + 1) and cum.flags.c_contiguous
    finite = t[np.isfinite(t)]
    mus = np.concatenate([[0.0], finite, np.nextafter(finite, 0.0),
                          finite.max() * np.array([1.5, 2.0, 1e6])])
    k = cum.T[np.searchsorted(t, mus, side="right")]
    mu = mus.astype(np.longdouble)
    log_mu = np.log(mu, out=np.zeros_like(mu), where=mu > 0)
    rows = (k[:, 0] + mu * (k[:, 1] + k[:, 3] * log_mu) + k[:, 2] * log_mu).astype(float)
    assert np.array_equal(cb.dual_function_values(num_instance, mus), rows)


# two draws the derandomized examples above miss: one node whose f and
# mu g cancel, where the kernel's float64 q_i and the breakpoint sum
# differ by more than the bound (ROADMAP item 5).  They fail until that
# fix, which turns them into plain regression tests
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="q of a node whose terms cancel (ROADMAP item 5)")
@pytest.mark.parametrize("seed", [343645695, 853])
def test_breakpoint_rows_that_cancel(seed):
    test_breakpoint_dual_values_match_kernel.hypothesis.inner_test(n=1, seed=seed)
