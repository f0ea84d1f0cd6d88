"""Projections onto the dual sets.

The scalar dual lives in [0, Lambda]; the matrix dual in the
intersection of the PSD cone with an origin-centered Frobenius ball of
radius Gamma.  Both sets are spectral, so the matrix projection reduces
to projecting the eigenvalue vector onto orthant-intersect-ball, which
is clip-then-scale.  The Dykstra oracle in :mod:`cobadd.oracles` checks
that order independently.
"""

from __future__ import annotations

import numpy as np


def project_mu(v: float, Lambda: float) -> float:
    """Euclidean projection of a scalar onto [0, Lambda]."""
    if Lambda <= 0:
        raise ValueError("Lambda must be positive")
    return min(max(float(v), 0.0), float(Lambda))


def project_G(V: np.ndarray, Gamma: float) -> np.ndarray:
    """Euclidean projection onto {G PSD : ||G||_F <= Gamma}.

    Eigendecompose, clip negative eigenvalues to zero, then rescale the
    clipped eigenvalue vector onto the radius-Gamma ball if it exceeds
    it.  Because both sets are spectral and the ball is origin-centered,
    clip-then-scale is the exact projection onto the intersection.
    """
    V = np.asarray(V, dtype=float)
    if V.size == 0:
        return V
    return project_psd_ball_stack(V[None, :, :], Gamma)[0]


def project_psd(V: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the PSD cone (negative eigenvalues to 0)."""
    V = np.asarray(V, dtype=float)
    if V.size == 0:
        return V
    w, U = np.linalg.eigh((V + V.T) / 2.0)
    out = (U * np.maximum(w, 0.0)) @ U.T
    return (out + out.T) / 2.0


def project_psd_ball_stack(mats: np.ndarray, Gamma: float) -> np.ndarray:
    """Batched :func:`project_G` over a stack of symmetric matrices."""
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 0:
        return mats
    w, V = np.linalg.eigh((mats + np.swapaxes(mats, -1, -2)) / 2.0)
    w = np.maximum(w, 0.0)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    scale = np.where(norms > Gamma, Gamma / np.where(norms > 0, norms, 1.0), 1.0)
    w = w * scale
    out = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    return (out + np.swapaxes(out, -1, -2)) / 2.0
