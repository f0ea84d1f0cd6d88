"""Dual-set projections."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cobadd as cb
from cobadd.oracles import dykstra_project


def random_symmetric(rng, d, scale=2.0):
    A = rng.normal(size=(d, d)) * scale
    return (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# project_mu
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,Lam,expected", [(-3.0, 5.0, 0.0), (7.0, 5.0, 5.0),
                                            (2.0, 5.0, 2.0)])
def test_project_mu(v, Lam, expected):
    assert cb.project_mu(v, Lam) == expected


def test_project_mu_rejects_bad_radius():
    with pytest.raises(ValueError):
        cb.project_mu(1.0, 0.0)


# ---------------------------------------------------------------------------
# project_G
# ---------------------------------------------------------------------------

def test_project_G_pure_psd_clipping():
    out = cb.project_G(np.diag([2.0, -1.0]), 10.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_G_pure_ball_scaling():
    out = cb.project_G(np.diag([3.0, 4.0]), 2.5)
    assert np.allclose(out, np.diag([1.5, 2.0]), atol=1e-12)


def test_project_G_matches_dykstra_oracle():
    rng = np.random.default_rng(5)
    mats = np.stack([random_symmetric(rng, 3) for _ in range(25)])
    refs = dykstra_project(mats, 1.0, 10_000)
    worst = max(float(np.linalg.norm(cb.project_G(A, 1.0) - ref))
                for A, ref in zip(mats, refs))
    assert worst < 1e-7


def test_project_G_empty_dimension():
    out = cb.project_G(np.zeros((0, 0)), 1.0)
    assert out.shape == (0, 0)


@given(st.integers(0, 3_000))
def test_project_G_feasible_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    Gam = float(rng.uniform(0.5, 3.0))
    P = cb.project_G(random_symmetric(rng, d), Gam)
    assert np.linalg.eigvalsh(P)[0] >= -1e-9
    assert np.linalg.norm(P) <= Gam * (1.0 + 1e-12)
    again = cb.project_G(P, Gam)
    assert np.linalg.norm(again - P) <= 1e-9


@given(st.integers(0, 3_000))
def test_project_G_nonexpansive(seed):
    rng = np.random.default_rng(seed + 50_000)
    d = int(rng.integers(2, 5))
    Gam = float(rng.uniform(0.5, 3.0))
    A = random_symmetric(rng, d)
    B = random_symmetric(rng, d)
    dist = np.linalg.norm(cb.project_G(A, Gam) - cb.project_G(B, Gam))
    assert dist <= np.linalg.norm(A - B) + 1e-12


def test_project_G_optimality_surrogate():
    # P(V) is no farther from any member of the set than V is
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        Gam = float(rng.uniform(0.5, 2.0))
        V = random_symmetric(rng, d)
        P = cb.project_G(V, Gam)
        Z = cb.project_G(random_symmetric(rng, d), Gam)  # arbitrary member
        assert np.linalg.norm(P - Z) <= np.linalg.norm(V - Z) + 1e-9


def test_project_psd_clips_negative_part():
    A = np.diag([1.0, -2.0, 0.5])
    out = cb.project_psd(A)
    assert np.allclose(out, np.diag([1.0, 0.0, 0.5]), atol=1e-12)


def test_stack_projection_matches_single():
    rng = np.random.default_rng(9)
    mats = np.stack([random_symmetric(rng, 3) for _ in range(6)])
    from cobadd.spectral import project_psd_ball_stack
    batch = project_psd_ball_stack(mats, 1.3)
    for i in range(6):
        assert np.allclose(batch[i], cb.project_G(mats[i], 1.3), atol=1e-14)
