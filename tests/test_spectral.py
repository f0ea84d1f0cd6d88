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


# ---------------------------------------------------------------------------
# the d = 2 closed form against eigh and Dykstra
# ---------------------------------------------------------------------------

def eigh_project(mats, radius):
    """Clip-then-scale through np.linalg.eigh, the d >= 3 path."""
    w, V = np.linalg.eigh((mats + np.swapaxes(mats, -1, -2)) / 2.0)
    w = np.maximum(w, 0.0)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    w = w * np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    return np.einsum("...ij,...j,...kj->...ik", V, w, V)


CASES_2x2 = {
    "negative_definite": np.array([[-2.0, 0.5], [0.5, -1.0]]),
    "negative_rank_one": -np.outer([1.0, 2.0], [1.0, 2.0]),
    "multiple_of_I": 1.5 * np.eye(2),
    "negative_multiple_of_I": -0.5 * np.eye(2),
    "zero": np.zeros((2, 2)),
    "rank_one_psd": np.outer([0.6, -0.8], [0.6, -0.8]),
    "psd_inside": np.array([[0.5, 0.2], [0.2, 0.3]]),
    "psd_outside": np.array([[3.0, 1.0], [1.0, 2.0]]),
    "indefinite_inside": np.array([[0.4, 0.3], [0.3, -0.9]]),
    "indefinite_outside": np.array([[5.0, -2.0], [-2.0, -1.0]]),
    "unsymmetric": np.array([[1.0, 3.0], [-1.0, 0.5]]),
}


@pytest.mark.parametrize("radius", [1.0, math.inf])
@pytest.mark.parametrize("name", sorted(CASES_2x2))
def test_2x2_closed_form_matches_eigh(name, radius):
    G = CASES_2x2[name]
    out = project(G, radius)
    assert np.array_equal(out, out.T)
    assert np.all(np.abs(out - eigh_project(G, radius)) <= 1e-14 * np.linalg.norm(G))
    if np.linalg.eigvalsh((G + G.T) / 2.0)[-1] <= 0.0:
        # negative semidefinite: exact zeros, no -0.0
        assert np.array_equal(out, np.zeros((2, 2))) and not np.signbit(out).any()


def test_2x2_closed_form_matches_dykstra():
    names = sorted(CASES_2x2)
    mats = np.stack([CASES_2x2[name] for name in names])
    gaps = np.linalg.norm(project(mats, 1.0) - dykstra_project(mats, 1.0, 10_000), axis=(1, 2))
    assert gaps.max() < 1e-7, dict(zip(names, gaps))


def test_2x2_closed_form_stack_matches_eigh():
    # random stacks over eight orders of magnitude, with near-repeated
    # eigenvalues (b and a - c tiny) and both signs of each
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(4000, 2, 2)) * 10.0 ** rng.uniform(-4, 4, size=(4000, 1, 1))
    mats[:500, 0, 1] *= 1e-9
    mats[:500, 1, 1] = mats[:500, 0, 0] * (1 + 1e-12)
    for radius in (0.3, 50.0, math.inf):
        out = project(mats, radius)
        ref = eigh_project(mats, radius)
        tol = 1e-14 * np.linalg.norm(mats, axis=(1, 2))
        assert np.all(np.abs(out - ref).max(axis=(1, 2)) <= tol)
        assert np.array_equal(out, np.swapaxes(out, 1, 2))


def test_2x2_closed_form_near_the_float_limit():
    # a finite stack whose sums or norms overflow goes through at a quarter
    # of its scale, with no warning: bit for bit the projection at a small
    # scale, times the power of two, and inf only beyond the float range
    names = sorted(CASES_2x2)
    mats = np.stack([CASES_2x2[name] for name in names])
    for radius in (1.0, math.inf):
        assert np.array_equal(project(mats * 2.0**1021, radius * 2.0**1021),
                              project(mats, radius) * 2.0**1021)
    big = 1.5 * 2.0**1023                       # a + c overflowed at this diagonal
    huge = np.array([big * np.eye(2), [[1e308, 0.0], [0.0, -1.7e308]],
                     [[1e300, 1e-20], [1e-20, 1e300]], [[1.7e308, 1.7e308], [1.7e308, -1.7e308]]])
    out = project(huge, math.inf)
    assert np.array_equal(out[:3], [big * np.eye(2), [[1e308, 0.0], [0.0, 0.0]],
                                    huge[2]])
    assert np.isinf(out[3, 0, 0])           # 1.207 * 1.7e308 is beyond the float range
    ref = eigh_project(huge[:3] / 1e300, 2e-300) * 1e300
    assert np.all(np.abs(project(huge[:3], 2.0) - ref) <= 1e-14 * 2.0)
    # radius / ||G|| beyond the float range: G is inside the ball as it is
    tiny = 1e-300 * np.eye(2)[None]
    assert np.array_equal(project(tiny, 1e300), tiny)
