import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cobadd as cb

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

NUM_SEED = 42
GRAPH_SEED = 7


@pytest.fixture(scope="session")
def num_instance():
    return cb.make_sample_num_instance(100, NUM_SEED)


@pytest.fixture(scope="session")
def lmi_instance():
    return cb.make_sample_lmi_instance()


@pytest.fixture(scope="session")
def num_sets(num_instance):
    slater = cb.slater_certificate(num_instance, np.zeros(num_instance.n))
    probe = cb.DualPoint(0.0)
    threshold = cb.dual_set_threshold(num_instance, slater, probe)
    return cb.build_dual_sets(num_instance, slater, probe, threshold)


@pytest.fixture(scope="session")
def lmi_sets(lmi_instance):
    slater = cb.slater_certificate(lmi_instance, np.zeros(2))
    probe = cb.DualPoint(0.0, np.zeros((2, 2)))
    return cb.build_dual_sets(lmi_instance, slater, probe, 1.0)


@pytest.fixture(scope="session")
def num_f_star(num_instance):
    return cb.dual_bisection(num_instance, tol=1e-10).f_star


@pytest.fixture(scope="session")
def lmi_f_star(lmi_instance):
    return cb.grid_search_lmi(lmi_instance, 1e-3).f_star


@pytest.fixture(scope="session")
def fig_graph():
    return cb.random_connected_graph(100, 3.12, GRAPH_SEED)


@pytest.fixture(scope="session")
def lmi200_instance():
    """d = 2 on the 200 num nodes with random symmetric LMI blocks: large
    enough that a stacked (GEMM) LMI sum would round differently from
    the per-point one."""
    base = cb.make_sample_num_instance(200, 3)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(201, 2, 2))
    A = (A + np.swapaxes(A, 1, 2)) / 2.0
    nodes = [cb.NodeSpec(nd.f, nd.g, Ai, nd.box) for nd, Ai in zip(base.nodes, A[1:])]
    return cb.ProblemInstance(nodes, A[0], 2)
