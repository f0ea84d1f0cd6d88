"""The dual-set projection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cobadd.oracles import dykstra_project
from cobadd import project_psd_ball_stack as project


def random_symmetric(rng, d, scale=2.0):
    A = rng.normal(size=(d, d)) * scale
    return (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# the G-set projection {G PSD : ||G||_F <= Gamma}, the PSD cone at Gamma = inf
# ---------------------------------------------------------------------------

def test_project_G_pure_psd_clipping():
    out = project(np.diag([2.0, -1.0]), 10.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_G_pure_ball_scaling():
    out = project(np.diag([3.0, 4.0]), 2.5)
    assert np.allclose(out, np.diag([1.5, 2.0]), atol=1e-12)


def test_project_G_matches_dykstra_oracle():
    rng = np.random.default_rng(5)
    mats = np.stack([random_symmetric(rng, 3) for _ in range(25)])
    refs = dykstra_project(mats, 1.0, 10_000)
    worst = float(np.linalg.norm(project(mats, 1.0) - refs, axis=(1, 2)).max())
    assert worst < 1e-7


def test_project_G_empty_dimension():
    out = project(np.zeros((0, 0)), 1.0)
    assert out.shape == (0, 0)


@given(st.integers(0, 3_000))
def test_project_G_feasible_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    Gam = float(rng.uniform(0.5, 3.0))
    P = project(random_symmetric(rng, d), Gam)
    assert np.linalg.eigvalsh(P)[0] >= -1e-9
    assert np.linalg.norm(P) <= Gam * (1.0 + 1e-12)
    again = project(P, Gam)
    assert np.linalg.norm(again - P) <= 1e-9


@given(st.integers(0, 3_000))
def test_project_G_nonexpansive(seed):
    rng = np.random.default_rng(seed + 50_000)
    d = int(rng.integers(2, 5))
    Gam = float(rng.uniform(0.5, 3.0))
    A = random_symmetric(rng, d)
    B = random_symmetric(rng, d)
    dist = np.linalg.norm(project(A, Gam) - project(B, Gam))
    assert dist <= np.linalg.norm(A - B) + 1e-12


def test_project_G_optimality_surrogate():
    # P(V) is no farther from any member of the set than V is
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        Gam = float(rng.uniform(0.5, 2.0))
        V = random_symmetric(rng, d)
        P = project(V, Gam)
        Z = project(random_symmetric(rng, d), Gam)  # arbitrary member
        assert np.linalg.norm(P - Z) <= np.linalg.norm(V - Z) + 1e-9


def test_project_psd_clips_negative_part():
    A = np.diag([1.0, -2.0, 0.5])
    out = project(A, math.inf)
    assert np.allclose(out, np.diag([1.0, 0.0, 0.5]), atol=1e-12)
    # no finite radius: a large matrix keeps its positive part unscaled
    out = project(np.diag([300.0, -2.0]), math.inf)
    assert np.allclose(out, np.diag([300.0, 0.0]), atol=1e-12)


def test_projection_rejects_bad_radius():
    for Gam in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            project(np.eye(2), Gam)


def test_stack_projection_matches_single():
    rng = np.random.default_rng(9)
    mats = np.stack([random_symmetric(rng, 3) for _ in range(6)])
    for Gam in (1.3, math.inf):
        batch = project(mats, Gam)
        for i in range(6):
            assert np.array_equal(batch[i], project(mats[i][None], Gam)[0])
            assert np.allclose(batch[i], project(mats[i], Gam), atol=1e-14)
