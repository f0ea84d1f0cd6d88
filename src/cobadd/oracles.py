"""Reference solvers used as ground truth.

``dual_bisection`` shares one kernel with the iterative solvers: its
minimizers and q, and so its f*, come from ``minimize_node_lagrangians``
at a (1,) stack of duals (one CoBa-DD run passes (n,), R stacked runs
(R, n)), and its certificate uses their ``evaluate_primal``.
Independent of them are the bisection on s(mu), evaluated with
``ScalarFunction.__call__``, the water-filling of degenerate nodes,
``grid_search_lmi`` (exhaustive enumeration with a feasibility filter,
no oracle call) and ``dykstra_project`` (alternating projections that
converge to the exact Euclidean projection onto the intersection of the
PSD cone and the Frobenius ball).  These provide the optimal values and
projection references the test suites compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .problem import ProblemInstance, evaluate_primal, minimize_node_lagrangians

# The largest grid grid_search_lmi enumerates: 50M points take 400 MB per
# float64 array over the grid.
_MAX_GRID_POINTS = 50_000_000


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth optimum with residual diagnostics.

    ``certificate`` carries the residuals that make the result auditable:
    feasibility of x_star, complementary slackness (bisection), grid
    resolution (grid search), and the primal-dual gap.
    """

    f_star: float
    x_star: np.ndarray
    mu_star: float | None = None
    certificate: dict = field(default_factory=dict)


def dual_bisection(instance: ProblemInstance, tol: float = 1e-10) -> OracleResult:
    """Solve a d = 0 instance by bisecting the scalar dual.

    The aggregate constraint value s(mu) = sum_i g_i(x_tilde_i(mu)) is
    nonincreasing in mu, so the optimal multiplier is bracketed by a sign
    change of s.  The primal point is assembled from the local
    minimizers; nodes whose minimizer jumps across the bracket (dual
    degeneracy, e.g. linear costs whose slope vanishes at mu*) are
    water-filled so the aggregate constraint lands exactly on its budget.

    Returns f_star = best dual value in the bracket (equals the optimal
    cost by strong duality), the assembled feasible x_star, and mu_star.
    """
    if instance.d != 0:
        raise ValueError("dual_bisection handles single-scalar-constraint instances only")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def solve_at(mu: float):
        x, q = minimize_node_lagrangians(instance, np.array([mu]))
        s = float(sum(nd.g(v) for nd, v in zip(instance.nodes, x)))
        return float(q.sum()), x, s

    q0, x0, s0 = solve_at(0.0)
    if s0 <= 0.0:
        # constraint inactive at mu = 0: the unconstrained minimizer is optimal
        f, viol, _ = evaluate_primal(instance, x0)
        return OracleResult(q0, x0, 0.0, {
            "method": "dual_bisection", "feasibility": viol,
            "complementary_slackness": 0.0, "gap": abs(f - q0)})

    lo, hi = 0.0, 1.0
    for _ in range(80):
        _, _, s_hi = solve_at(hi)
        if s_hi <= 0.0:
            break
        hi *= 2.0
    else:
        raise ConfigurationError("aggregate constraint never becomes feasible; "
                                 "the instance looks infeasible")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, _, s_mid = solve_at(mid)
        if s_mid > 0.0:
            lo = mid
        else:
            hi = mid

    q_lo, x_lo, _ = solve_at(lo)
    q_hi, x_hi, _ = solve_at(hi)
    f_star = max(q_lo, q_hi)
    mu_star = 0.5 * (lo + hi)
    x_star = _assemble_primal(instance, x_lo, x_hi)
    f, viol, _ = evaluate_primal(instance, x_star)
    sum_g = float(sum(nd.g(v) for nd, v in zip(instance.nodes, x_star)))
    cert = {"method": "dual_bisection", "feasibility": viol,
            "complementary_slackness": abs(mu_star * sum_g),
            "gap": abs(f - f_star), "bracket": hi - lo}
    if viol > 1e-8:
        raise RuntimeError(f"oracle produced an infeasible point (violation {viol})")
    return OracleResult(f_star, x_star, mu_star, cert)


def _assemble_primal(instance: ProblemInstance, x_lo: np.ndarray,
                     x_hi: np.ndarray) -> np.ndarray:
    """Feasible primal point from the two bracket-side minimizer sets.

    x_hi is feasible (the bracket's high side has s <= 0).  Nodes whose
    minimizer jumps across the bracket may absorb the remaining budget:
    each is moved from its x_hi value toward its x_lo value, raising its
    g contribution, until the aggregate constraint reaches zero.
    """
    x = x_hi.copy()
    slack = -float(sum(nd.g(v) for nd, v in zip(instance.nodes, x)))
    jumps = [i for i in range(instance.n) if abs(x_lo[i] - x_hi[i]) > 1e-9]
    for i in jumps:
        if slack <= 1e-15:
            break
        node = instance.nodes[i]
        g_here = float(node.g(x[i]))
        g_there = float(node.g(x_lo[i]))
        gain = g_there - g_here
        if gain <= 0.0:
            continue
        take = min(slack, gain)
        x[i] = _invert_g(node, g_here + take)
        slack -= take
    lo, hi = instance.boxes
    return np.clip(x, lo, hi)


def _invert_g(node, target: float) -> float:
    """Solve g(x) = target for a non-constant g: affine (c == 0, a != 0)
    or negative-log (c != 0, a == 0)."""
    g = node.g
    if g.c == 0.0:
        return (target - g.b) / g.a
    return math.expm1((g.b - target) / g.c)


def grid_search_lmi(instance: ProblemInstance, step: float) -> OracleResult:
    """Exhaustive grid search with a feasibility filter (n <= 3).

    f_star is accurate to (Lipschitz constant of f) * step.  Raises
    ConfigurationError when no grid point is feasible, or when the grid
    has more than ``_MAX_GRID_POINTS`` points.
    """
    if instance.n > 3:
        raise ValueError("grid search is limited to n <= 3")
    if step <= 0:
        raise ValueError("step must be positive")
    axes = []
    for node in instance.nodes:
        lo, hi = node.box
        npts = max(2, int(round((hi - lo) / step)) + 1) if hi > lo else 1
        axes.append(np.linspace(lo, hi, npts))
    total = int(np.prod([len(a) for a in axes]))
    if total > _MAX_GRID_POINTS:
        raise ConfigurationError(f"grid of {total} points is too large; coarsen step")

    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=1)
    shape = tuple(len(a) for a in axes)
    F = np.zeros(shape)
    Gsum = np.zeros(shape)
    for k, node in enumerate(instance.nodes):
        fv = np.array([float(node.f(v)) for v in axes[k]])
        gv = np.array([float(node.g(v)) for v in axes[k]])
        bshape = [1] * instance.n
        bshape[k] = len(axes[k])
        F = F + fv.reshape(bshape)
        Gsum = Gsum + gv.reshape(bshape)
    F = F.reshape(-1)
    Gsum = Gsum.reshape(-1)
    feasible = Gsum <= 1e-12
    if instance.d:
        mats = instance.A0 + np.einsum("pi,ikl->pkl", X, instance.A_stack)
        lam_min = np.linalg.eigvalsh(mats)[:, 0]
        feasible &= lam_min >= -1e-12
    if not np.any(feasible):
        raise ConfigurationError("no feasible grid point; the instance looks infeasible")
    F_masked = np.where(feasible, F, np.inf)
    best = int(np.argmin(F_masked))
    return OracleResult(float(F[best]), X[best].copy(), None, {
        "method": "grid_search_lmi", "step": step, "points": total,
        "feasible_points": int(feasible.sum())})


def dykstra_project(V: np.ndarray, Gamma, iters: int = 10_000) -> np.ndarray:
    """Dykstra alternating projections onto PSD-cone intersect F-ball.

    ``V`` is one symmetric matrix or a stack of shape (..., d, d), and
    ``Gamma`` a radius or one radius per matrix.  Converges to the exact
    Euclidean projection onto the intersection; used as the independent
    reference for the closed-form projection.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    Gamma = np.asarray(Gamma, dtype=float)
    if not np.all(Gamma > 0):
        raise ValueError("Gamma must be positive")
    V = np.asarray(V, dtype=float)
    if V.size == 0:
        return V
    radius = np.broadcast_to(Gamma, V.shape[:-2])[..., None, None]
    x = V.copy()
    p = np.zeros_like(V)
    q = np.zeros_like(V)
    for _ in range(iters):
        y = _psd_clip(x + p)
        p = x + p - y
        x = _ball_clip(y + q, radius)
        q = y + q - x
    return x


def _psd_clip(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((A + np.swapaxes(A, -1, -2)) / 2.0)
    out = (V * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def _ball_clip(A: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(A, axis=(-2, -1), keepdims=True)
    return A * (Gamma / np.maximum(nrm, Gamma))
