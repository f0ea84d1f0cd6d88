"""Projection onto the matrix dual set.

The scalar dual lives in [0, radius] (clipped in the solvers), the
matrix dual in the PSD cone intersected with the origin-centered
Frobenius ball of the same radius; the unbounded master-node baseline
takes an infinite radius.  The Dykstra oracle in :mod:`cobadd.oracles`
checks the clip-then-scale order below independently.
"""

from __future__ import annotations

import numpy as np


def project_psd_ball_stack(mats: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each matrix of a stack (..., d, d) onto
    {G PSD : ||G||_F <= radius}; ``radius = math.inf`` gives the PSD cone.

    Eigendecompose the symmetric part, clip negative eigenvalues to
    zero, then rescale the clipped eigenvalue vector onto the radius
    ball if it exceeds it.  Because both sets are spectral and the ball
    is origin-centered, clip-then-scale is the exact projection onto the
    intersection.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 0:
        return mats
    w, V = np.linalg.eigh((mats + np.swapaxes(mats, -1, -2)) / 2.0)
    w = np.maximum(w, 0.0)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    w = w * scale
    out = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    return (out + np.swapaxes(out, -1, -2)) / 2.0
