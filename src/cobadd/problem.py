"""Decomposable convex instances, their local dual oracles and dual sets.

An instance couples ``n`` scalar decision variables, each confined to a
compact box ``X_i = [lo_i, hi_i]``, through one scalar inequality
``sum_i g_i(x_i) <= 0`` and one linear matrix inequality
``A0 + sum_i A_i x_i >= 0`` (PSD order, dimension ``d``; ``d = 0`` means
the LMI is absent).  The cost ``f(x) = sum_i f_i(x_i)`` is separable, so
for fixed multipliers ``(mu, G)`` the Lagrangian splits into ``n``
independent one-dimensional convex minimizations

    L_i(x, mu, G) = f_i(x) + mu g_i(x) - tr[(A0/n + A_i x) G],

which this module solves in closed form: every node function is linear,
negative-log or affine, so each node Lagrangian reduces to

    value(x) = -C log(1 + x) + S x + T,      C >= 0,

and the box minimizer of that expression is an endpoint (C = 0), the
upper endpoint (C > 0, S <= 0), or the clipped stationary point
``C/S - 1``.  Ties always resolve to the lower endpoint so that runs are
reproducible.

``minimize_node_lagrangians`` is the one kernel for minimizers: the
solvers' oracle and ``dual_function_value`` go through it, so iterates
and dual-set radii keep every bit.  ``dual_function_values``, the trace
rows, needs only the minima, which do not depend on the tie-break.  With
d = 0 it reads q off the instance's sorted breakpoints (each node's
minimum is piecewise in mu); with an LMI, ``tr[A_i G_j]`` couples node
and dual, and one matrix product per block of points gives every node's
S and C at every point.  At every d a row agrees with
``dual_function_value`` to ``1e-12 * sum_i |q_i|``, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

# Numerical tolerance for "positive semidefinite" checks on dual matrices.
PSD_TOL = 1e-9

# the coefficients of -c log(1 + x) + a x + b each kind takes; the others are 0
_KIND_COEFFICIENTS = {"linear": "a", "neg_log": "c", "affine": "ab"}


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """One-dimensional convex function -c log(1 + x) + a x + b of one kind.

    ==========  ===============================  ============
    kind        value(x)                         coefficients
    ==========  ===============================  ============
    linear      a * x                            a
    neg_log     -c * log(1 + x)  with c >= 0     c
    affine      a * x + b                        a, b
    ==========  ===============================  ============

    A nonzero coefficient the kind does not take is rejected: the JSON
    form of the kind would drop it.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_COEFFICIENTS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        for name in "abc":
            if name not in _KIND_COEFFICIENTS[self.kind] and getattr(self, name) != 0.0:
                raise ValueError(f"{self.kind} functions take no coefficient {name}")
        if self.c < 0:
            raise ValueError("neg_log coefficient must be nonnegative for convexity")

    @staticmethod
    def linear(slope: float) -> "ScalarFunction":
        return ScalarFunction("linear", a=float(slope))

    @staticmethod
    def neg_log(coef: float) -> "ScalarFunction":
        """-coef * log(1 + x); requires coef >= 0."""
        return ScalarFunction("neg_log", c=float(coef))

    @staticmethod
    def affine(a: float, b: float) -> "ScalarFunction":
        return ScalarFunction("affine", a=float(a), b=float(b))

    def __call__(self, x):
        if self.c != 0.0:
            return self.a * x + self.b - self.c * np.log1p(x)
        return self.a * x + self.b


# ---------------------------------------------------------------------------
# instance types
# ---------------------------------------------------------------------------

def _as_symmetric(A: np.ndarray, what: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"{what} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ConfigurationError(f"{what} has non-finite entries")
    if A.size and np.max(np.abs(A - A.T)) > 1e-12:
        raise ConfigurationError(f"{what} is not symmetric")
    A = (A + A.T) / 2.0
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class NodeSpec:
    """Per-node data: cost f, constraint g, LMI block A, and box [lo, hi]."""

    f: ScalarFunction
    g: ScalarFunction
    A: np.ndarray
    box: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "A", _as_symmetric(self.A, "node matrix A"))
        lo, hi = float(self.box[0]), float(self.box[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ConfigurationError(f"box [{lo}, {hi}] must be nonempty and bounded")
        object.__setattr__(self, "box", (lo, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            for name, fun in (("f", self.f), ("g", self.g)):
                for x in (lo, (lo + hi) / 2.0, hi):
                    v = fun(x)
                    if not np.isfinite(v):
                        raise ConfigurationError(
                            f"{name} evaluates to {v} at x={x} inside the box")

    @property
    def lo(self) -> float:
        return self.box[0]

    @property
    def hi(self) -> float:
        return self.box[1]


@dataclass(frozen=True)
class DualPoint:
    """A dual pair (mu, G): mu >= 0 scalar, G symmetric PSD matrix.

    ``G`` may be omitted for instances without an LMI (d = 0).
    PSD is enforced numerically: lambda_min(G) >= -PSD_TOL.
    """

    mu: float
    G: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        mu = float(self.mu)
        if not math.isfinite(mu) or mu < 0.0:
            raise ValueError(f"dual scalar mu must be finite and >= 0, got {mu}")
        object.__setattr__(self, "mu", mu)
        G = np.zeros((0, 0)) if self.G is None else self.G
        G = _as_symmetric(G, "dual matrix G")
        if G.size and np.linalg.eigvalsh(G)[0] < -PSD_TOL:
            raise ValueError("dual matrix G is not PSD within tolerance")
        object.__setattr__(self, "G", G)

    @property
    def d(self) -> int:
        return self.G.shape[0]


@dataclass
class ProblemInstance:
    """A decomposable instance: nodes, shared LMI constant A0, dimension d."""

    nodes: tuple[NodeSpec, ...]
    A0: np.ndarray = None  # type: ignore[assignment]
    d: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        if len(self.nodes) < 1:
            raise ConfigurationError("an instance needs at least one node")
        d = int(self.d)
        A0 = np.zeros((d, d)) if self.A0 is None else self.A0
        A0 = _as_symmetric(A0, "A0")
        if A0.shape != (d, d):
            raise ConfigurationError(f"A0 has shape {A0.shape}, expected ({d}, {d})")
        for i, node in enumerate(self.nodes):
            if node.A.shape != (d, d):
                raise ConfigurationError(
                    f"node {i} matrix has shape {node.A.shape}, expected ({d}, {d})")
        self.A0 = A0
        self.d = d

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([nd.lo for nd in self.nodes])
        hi = np.array([nd.hi for nd in self.nodes])
        lo.flags.writeable = False
        hi.flags.writeable = False
        return lo, hi

    @cached_property
    def A_stack(self) -> np.ndarray:
        A = np.stack([nd.A for nd in self.nodes])
        A.flags.writeable = False
        return A

    @cached_property
    def _closed(self) -> tuple[np.ndarray, ...]:
        """``(c_f, a_f, b_f, c_g, a_g, b_g)``, one (n,) array per coefficient."""
        f, g = [nd.f for nd in self.nodes], [nd.g for nd in self.nodes]
        return (np.array([s.c for s in f]), np.array([s.a for s in f]), np.array([s.b for s in f]),
                np.array([s.c for s in g]), np.array([s.a for s in g]), np.array([s.b for s in g]))

    @cached_property
    def _breakpoints(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The sorted-breakpoint form of q for d = 0 (see :func:`_dual_breakpoints`)."""
        if self.d:
            return None
        return _dual_breakpoints(self._closed, *self.boxes)

    @cached_property
    def _value_rows(self) -> "tuple | None":
        """For d > 0, the split of the nodes that :func:`_row_minima` reads:
        ``(n_log, n_plain, M, lo, hi)``.  A product of ``[1, mu, -vec G]``
        by a column ``[u, v, vec B]`` of M is ``u + mu v - tr[B G]``; M's
        columns give, in this order,

        - S of each node with a log term (``[a_f, a_g, vec A_i]``);
        - S lo of each node without one;
        - the constant ``sum b_f + mu sum b_g - tr[A0 G]`` (``[sum b_f,
          sum b_g, vec A0]``);
        - S hi of each node without a log term;
        - C = c_f + mu c_g of each node with one.

        ``lo`` and ``hi`` are the boxes of the nodes with a log term."""
        if not self.d:
            return None
        c_f, a_f, b_f, c_g, a_g, b_g = self._closed
        lo, hi = self.boxes
        has_log = (c_f > 0.0) | (c_g > 0.0)
        cols = np.vstack([a_f, a_g, self.A_stack.reshape(self.n, -1).T])
        log_C = np.zeros((len(cols), np.count_nonzero(has_log)))
        log_C[0], log_C[1] = c_f[has_log], c_g[has_log]
        plain = ~has_log
        M = np.column_stack([cols[:, has_log], cols[:, plain] * lo[plain],
                             np.concatenate([[b_f.sum(), b_g.sum()], self.A0.reshape(-1)]),
                             cols[:, plain] * hi[plain], log_C])
        return log_C.shape[1], self.n - log_C.shape[1], M, lo[has_log], hi[has_log]

    def lmi_matrix(self, x: np.ndarray) -> np.ndarray:
        """A0 + sum_i A_i x_i."""
        if self.d == 0:
            return self.A0
        return self.A0 + np.tensordot(np.asarray(x, dtype=float), self.A_stack, axes=1)


@dataclass(frozen=True)
class SlaterCertificate:
    """A strictly feasible point with its feasibility margin gamma.

    gamma = min{ sum_i -g_i(xbar_i), lambda_min(A0 + sum_i A_i xbar_i) }
    (the first term alone when d = 0); fxbar = f(xbar).
    """

    xbar: np.ndarray
    gamma: float
    fxbar: float


@dataclass(frozen=True)
class DualSetSpec:
    """The dual sets [0, radius] and {G PSD : ||G||_F <= radius}, with
    ``radius = threshold + r`` and ``threshold = (fxbar - q(probe))/gamma``.
    The theory needs ``r >= threshold``; an r below it by more than 1e-12
    is a ConfigurationError naming the minimum admissible value.  So is a
    radius whose square is not finite, since the bounds square it."""

    threshold: float
    r: float

    def __post_init__(self):
        if not (self.r > 0.0):
            raise ConfigurationError("r must be positive")
        if not (self.radius > 0.0):
            raise ConfigurationError("the projection radius must be positive")
        if not math.isfinite(self.radius * self.radius):
            raise ConfigurationError(
                f"the projection radius {self.radius} is too large: its square is not finite")
        if self.r < self.threshold - 1e-12:
            raise ConfigurationError(
                f"r={self.r} below the minimum admissible value {self.threshold}")

    @property
    def radius(self) -> float:
        return self.threshold + self.r


def project_psd_ball_stack(mats: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each matrix of a stack (..., d, d) onto the
    matrix dual set {G PSD : ||G||_F <= radius}; ``radius = math.inf``
    gives the PSD cone of the unbounded master-node baseline.

    Take the eigenvalues of the symmetric part, clip the negative ones to
    zero, then rescale the clipped eigenvalue vector onto the radius ball
    if it exceeds it.  Because both sets are spectral and the ball is
    origin-centered, clip-then-scale is the exact projection onto the
    intersection (``oracles.dykstra_project`` checks it independently).
    At d = 2 the eigenpairs have a closed form (:func:`_project_2x2`);
    from d = 3 on, one ``np.linalg.eigh`` call gives them.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 0:
        return mats
    if mats.shape[-1] == 2:
        return _project_2x2(mats, radius)
    w, V = np.linalg.eigh((mats + np.swapaxes(mats, -1, -2)) / 2.0)
    w = np.maximum(w, 0.0)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    w = w * scale
    out = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def _project_2x2(mats: np.ndarray, radius: float) -> np.ndarray:
    """Clip-then-scale of a (..., 2, 2) stack in closed form.  The symmetric
    part [[a, b], [b, c]] has eigenvalues ``l1, l2 = (a + c)/2 +- h``,
    ``h = hypot((a - c)/2, b)``, and its projection is ``alpha S + beta I``:

    - l2 >= 0: S itself, scaled by ``min(1, radius/hypot(l1, l2))``;
    - l1 > 0 > l2: ``min(l1, radius)`` times l1's eigenprojector
      ``(S - l2 I)/(2h)``;
    - l1 <= 0: exact zeros (``alpha = beta = 0``, and ``+ 0.0`` clears -0.0).
    """
    a, c = mats[..., 0, 0], mats[..., 1, 1]
    b = (mats[..., 0, 1] + mats[..., 1, 0]) / 2.0
    h = np.hypot((a - c) / 2.0, b)
    l1, l2 = (a + c) / 2.0 + h, (a + c) / 2.0 - h
    with np.errstate(divide="ignore"):       # the zero matrix: radius/0 = inf
        scale = np.minimum(radius / np.hypot(l1, l2), 1.0)
    top = np.maximum(np.minimum(l1, radius), 0.0)
    alpha = np.where(l2 >= 0.0, scale, top / np.where(h > 0.0, 2.0 * h, 1.0))
    beta = alpha * np.maximum(-l2, 0.0)
    out = np.empty(mats.shape)
    out[..., 0, 0] = alpha * a + beta
    out[..., 1, 1] = alpha * c + beta
    out[..., 0, 1] = out[..., 1, 0] = alpha * b + 0.0
    return out


@dataclass(frozen=True)
class SubgradientBounds:
    """Uniform subgradient bounds: |g_i| <= L, ||-A0/n - A_i x||_F <= Q."""

    L: float
    Q: float

    @property
    def M(self) -> float:
        return self.L + self.Q


# ---------------------------------------------------------------------------
# local dual oracles
# ---------------------------------------------------------------------------

# Node evaluations per row block of dual_function_values at d > 0: the
# block's product holds about two float64 columns per node, 512 KiB at
# 32k evaluations, so it stays in a core's L2 cache with its scratch.
_BLOCK_ELEMENTS = 32768


def _closed_form_minimize(instance: ProblemInstance, mu, Gs):
    """Box minimizers and minima of -C*log(1+x) + S*x + T for a stack of duals.

    The coefficients are those of the node Lagrangians at the stack's
    dual points,

        C = c_f + mu c_g,   S = a_f + mu a_g + lin,   T = b_f + mu b_g + const,

    with the instance's (n,) coefficient arrays broadcast against ``mu``
    and the LMI terms ``lin, const`` of :func:`_lmi_terms` at ``Gs``: mu
    of shape (n,), (R, n) or (1,) with Gs of shape mu.shape + (d, d).
    C == 0 gives an affine objective whose minimizer
    is an endpoint (the lower one on ties); C > 0 gives a strictly convex
    objective minimized at the clipped stationary point C/S - 1 when
    S > 0 and at the upper endpoint otherwise.

    Everything is evaluated in place, with ``out=`` ufuncs into one float
    scratch block of shape (4,) + block and ``where=`` masks in one bool
    block of shape (2,) + block, allocated here.  Each element gets
    bit-for-bit the minimizer and value of the broadcast expression
    ``x = where(C > 0, where(S > 0, clip(C/S - 1, lo, hi), hi), where(S < 0,
    hi, lo))``, ``value = -C*log1p(x) + S*x + T`` (the log term read as 0
    where C == 0): ``S*x - C*log1p(x)`` rounds as ``-C*log1p(x) + S*x``
    does.  Returns views ``(x, value)`` into the float scratch.
    """
    c_f, a_f, b_f, c_g, a_g, b_g = instance._closed
    lo, hi = instance.boxes
    lin, const = _lmi_terms(instance, Gs)
    shape = np.shape(mu)[:-1] + (instance.n,)
    C, val, x, tmp = np.empty((4,) + shape)
    convex, sel = np.empty((2,) + shape, dtype=bool)
    np.multiply(mu, c_g, out=C)
    np.add(c_f, C, out=C)
    np.multiply(mu, a_g, out=val)               # val holds S until S*x
    np.add(a_f, val, out=val)
    np.add(val, lin, out=val)
    np.greater(C, 0.0, out=convex)
    # affine: upper endpoint where S < 0, else lower; convex: upper endpoint
    np.less(val, 0.0, out=sel)
    np.logical_or(sel, convex, out=sel)
    np.copyto(x, lo)
    np.copyto(x, hi, where=sel)
    # convex with S > 0: the clipped stationary point
    np.greater(val, 0.0, out=sel)
    np.logical_and(sel, convex, out=sel)
    with np.errstate(over="ignore"):        # at tiny duals: inf - 1 clips to hi
        np.divide(C, val, out=x, where=sel)
    np.subtract(x, 1.0, out=x, where=sel)
    np.clip(x, lo, hi, out=x, where=sel)
    np.multiply(val, x, out=val)
    np.log1p(x, out=tmp, where=convex)
    np.multiply(C, tmp, out=tmp, where=convex)
    np.subtract(val, tmp, out=val, where=convex)
    np.multiply(mu, b_g, out=tmp)               # tmp holds T
    np.add(b_f, tmp, out=tmp)
    np.add(tmp, const, out=tmp)
    np.add(val, tmp, out=val)
    return x, val


def _traces(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """tr[A G] of symmetric (..., d*d) flattened stacks, summed in entry order
    with one (...,) scratch: the oracle's LMI term."""
    out = A[..., 0] * G[..., 0]
    for k in range(1, A.shape[-1]):
        out += A[..., k] * G[..., k]
    return out


def _lmi_terms(instance: ProblemInstance, Gs: np.ndarray):
    """Per-node linear and constant Lagrangian contributions of the LMI.

    -tr[(A0/n + A_i x) G_i] = (-tr[A_i G_i]) x + (-tr[A0 G_i]/n); both 0.0 at d = 0.
    ``Gs`` is a (..., d, d) stack whose last batch axis broadcasts against the nodes.
    """
    n = instance.n
    if instance.d == 0:
        return 0.0, 0.0
    lin = -_traces(instance.A_stack.reshape(n, -1), np.reshape(Gs, np.shape(Gs)[:-2] + (-1,)))
    const = -np.sum(instance.A0 * Gs, axis=(-2, -1)) / n
    return lin, const


def _checked_duals(instance: ProblemInstance, mus, Gs, caller: str) -> np.ndarray:
    """``mus`` as floats, each >= 0, and with an LMI one (d, d) matrix in ``Gs``
    per mu (d = 0 ignores ``Gs``); a ValueError naming ``caller`` otherwise."""
    mus = np.asarray(mus, dtype=float)
    if mus.size and mus.min() < 0.0:
        raise ValueError(f"{caller} needs every mu >= 0")
    d = instance.d
    if d and np.shape(Gs) != mus.shape + (d, d):
        got = "no Gs" if Gs is None else f"Gs of shape {np.shape(Gs)}"
        raise ValueError(f"{got} on a d = {d} instance; expected shape {mus.shape + (d, d)}")
    return mus


def minimize_node_lagrangians(instance: ProblemInstance, mus: np.ndarray,
                              Gs: np.ndarray | None = None):
    """Solve every node's Lagrangian minimization at its own dual point.

    Parameters
    ----------
    instance : ProblemInstance
    mus : ndarray, shape (n,), (1,) or (R, n)
        Per-node scalar duals, one shared one, or those of R stacked runs,
        each >= 0 (a negative one raises ``ValueError``: the closed form assumes C >= 0).
    Gs : ndarray, shape mus.shape + (d, d)
        Matrix duals, ignored when d = 0; a ValueError if missing or misshapen.

    Returns
    -------
    x_tilde, q : ndarray, shape (n,), or (R, n) for R stacked runs
        Box minimizers and attained local dual values
        q_i = min_x L_i(x, mu_i, G_i).
    """
    mus = _checked_duals(instance, mus, Gs, "minimize_node_lagrangians")
    x, q = _closed_form_minimize(instance, mus, Gs)
    # the boxes are finite, so a NaN minimizer would make its q NaN too
    if not np.isfinite(q).all():
        raise ConfigurationError("non-finite Lagrangian evaluation inside a box")
    return x, q


def dual_function_value(instance: ProblemInstance, dual: DualPoint) -> float:
    """q(mu, G) = sum_i min_x L_i(x, mu, G); a sum beyond the float range is
    infinite, which the dual sets built on it reject.  The dual goes to the
    kernel as a (1,) and (1, d, d) stack; one of another d than the
    instance's is a ``ValueError``."""
    if dual.d != instance.d:
        raise ValueError(f"a dual point with d = {dual.d} on a d = {instance.d} instance")
    _, q = minimize_node_lagrangians(instance, np.array([dual.mu]), dual.G[None])
    with np.errstate(over="ignore"):
        return float(q.sum())


def _dual_breakpoints(cf: tuple[np.ndarray, ...], lo, hi):
    """q(mu) for d = 0 as sorted breakpoints with cumulative coefficients.

    Node i's minimum has C = c_f + mu c_g and S = a_f + mu a_g.  Every
    function has ``c * a = 0`` and ``c >= 0`` (:class:`ScalarFunction`
    rejects the rest), so the minimum is piecewise in mu on at most three
    intervals, with pieces in
    span{1, mu, log mu, mu log mu}:

    - neg_log f, a_g > 0: x = hi up to c_f/(a_g(1+hi)), then the stationary
      point, worth c_f log mu + c_f (log(a_g/c_f) + 1) + b_f + mu (b_g - a_g),
      then x = lo from c_f/(a_g(1+lo)) on;
    - neg_log g, a_f > 0: x = lo up to a_f(1+lo)/c_g, then -c_g mu log mu
      + mu (c_g (1 - log(c_g/a_f)) + b_g) + b_f - a_f, then x = hi from
      a_f(1+hi)/c_g on;
    - no log term, a_f a_g < 0: one endpoint up to -a_f/a_g, the other beyond;
    - otherwise lo if c_f = 0 and S > 0 just above mu = 0, else hi.

    Endpoint pieces are affine in mu (0 * log(1 + e) read as 0).  The 2n
    breakpoints are sorted once and the jumps between pieces summed in that
    order in ``np.longdouble``, which holds the difference of two float64
    pieces of similar size exactly, so a node's jumps cancel past its last
    breakpoint.  Returns ``(t, cum)``: the 2n sorted breakpoints (inf, with
    a zero jump, where a node has fewer) and q's coefficients on the 2n + 1
    intervals, shape (2n + 1, 4).
    """
    c_f, a_f, b_f, c_g, a_g, b_g = cf
    log_f = (c_f > 0) & (a_g > 0)
    log_g = (c_g > 0) & (a_f > 0)
    flip = (c_f == 0) & (c_g == 0) & (a_f * a_g < 0)
    first_lo = (c_f == 0) & ((a_f > 0) | ((a_f == 0) & (a_g > 0)))   # S > 0 just above 0

    def piece(k0, k1, k2=0.0, k3=0.0):
        return np.stack(np.broadcast_arrays(k0, k1, k2, k3), axis=1)

    with np.errstate(all="ignore"):     # masked-out lanes may be inf or nan
        ends = []
        for e in (lo, hi):
            log1p = np.log1p(e)
            ends.append(piece(np.where(c_f != 0, -c_f * log1p, 0) + a_f * e + b_f,
                              np.where(c_g != 0, -c_g * log1p, 0) + a_g * e + b_g))
        first = np.where(first_lo[:, None], *ends)
        other = np.where(first_lo[:, None], *ends[::-1])
        last = np.where((log_f | log_g | flip)[:, None], other, first)
        mid = np.where(log_f[:, None],
                       piece(c_f * (np.log(a_g / c_f) + 1) + b_f, b_g - a_g, c_f),
                       np.where(log_g[:, None],
                                piece(b_f - a_f, c_g * (1 - np.log(c_g / a_f)) + b_g,
                                      0.0, -c_g), last))
        t1 = np.where(log_f, c_f / (a_g * (1 + hi)),
                      np.where(log_g, a_f * (1 + lo) / c_g,
                               np.where(flip, -a_f / a_g, np.inf)))
        t2 = np.where(log_f, c_f / (a_g * (1 + lo)),
                      np.where(log_g, a_f * (1 + hi) / c_g, np.inf))
    # at t1, as at t2, the stationary point is on the box: a mu exactly on
    # either gets the endpoint piece, as in the kernel (t1 moves up an ulp)
    t1 = np.where(log_f | log_g, np.minimum(np.nextafter(t1, np.inf), t2), t1)
    t = np.concatenate([t1, t2])
    order = np.argsort(t, kind="stable")
    first, mid, last = (p.astype(np.longdouble) for p in (first, mid, last))
    jumps = np.concatenate([mid - first, last - mid])[order]
    return t[order], np.cumsum(np.vstack([first.sum(axis=0), jumps]), axis=0)


def dual_function_values(instance: ProblemInstance, mus: np.ndarray,
                         Gs: np.ndarray | None = None) -> np.ndarray:
    """q evaluated at m dual points at once.

    ``mus`` has shape (m,) and ``Gs`` shape (m, d, d) (ignored when d = 0,
    else checked as in :func:`minimize_node_lagrangians`); every mu must
    be >= 0, the dual domain, and a negative one raises ``ValueError``.
    With d = 0, q is read off the breakpoints of :func:`_dual_breakpoints`:
    one ``searchsorted`` and a four-term sum per point instead of n node
    evaluations.  With d > 0, where ``tr[A_i G_j]`` couples each node with
    each dual, the m points go in blocks of about ``_BLOCK_ELEMENTS`` node
    evaluations through :func:`_row_minima`, one matrix product each.
    Both sum in another order than :func:`dual_function_value`, so the two
    agree to ``1e-12 * sum_i |q_i|``, not bit for bit.  A point's value
    does not depend on the other points of its call.
    """
    mus = _checked_duals(instance, mus, Gs, "dual_function_values")
    m, n = mus.shape[0], instance.n
    table = instance._breakpoints
    if table is not None:
        t, cum = table
        k = cum[np.searchsorted(t, mus, side="right")]
        mu = mus.astype(np.longdouble)
        log_mu = np.log(mu, out=np.zeros_like(mu), where=mu > 0)   # 0 * log 0 read as 0
        return (k[:, 0] + mu * (k[:, 1] + k[:, 3] * log_mu) + k[:, 2] * log_mu).astype(float)
    out = np.empty(m)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        out[block] = _row_minima(instance, mus[block], Gs[block])
    return out


def _row_minima(instance: ProblemInstance, mu: np.ndarray, G: np.ndarray) -> np.ndarray:
    """q at each of the r points ``(mu, G)`` of a block: one product of
    their (r, 2 + d*d) rows ``[1, mu_j, -vec G_j]`` by the matrix of
    :attr:`ProblemInstance._value_rows`, then per node

    - without a log term, ``min(S lo, S hi)``;
    - with one, ``S x - C log1p(x)`` at its box minimizer: the clipped
      stationary point ``C/S - 1`` where S > 0 (lo where C = 0), else hi;

    and the point's constant, summed in one row sum.  A lone point is
    padded with a zero row: a one-row product goes through another BLAS
    kernel, whose rounding would make a point's q depend on its block.
    """
    n_log, n_plain, M, lo, hi = instance._value_rows
    r = len(mu)
    P = np.zeros((max(r, 2), len(M)))
    P[:r, 0], P[:r, 1] = 1.0, mu
    np.negative(G.reshape(r, -1), out=P[:r, 2:])
    S = (P @ M)[:r]
    end = n_log + n_plain + 1          # S, S lo, then the constant: the summed columns
    logs, lower, C = S[:, :n_log], S[:, n_log:end - 1], S[:, end + n_plain:]
    np.minimum(lower, S[:, end:end + n_plain], out=lower)
    x = np.full(logs.shape, np.inf)    # where S <= 0; clipped to hi below
    inside = logs > 0.0
    with np.errstate(over="ignore"):   # C/S at tiny S: inf as well
        np.divide(C, logs, out=x, where=inside)
    np.subtract(x, 1.0, out=x)
    np.minimum(x, hi, out=x)
    np.maximum(x, lo, out=x)
    np.multiply(logs, x, out=logs)
    np.log1p(x, out=x)
    np.multiply(C, x, out=x)
    np.subtract(logs, x, out=logs)
    return S[:, :end].sum(axis=1)


def _values(c, a, b, x) -> np.ndarray:
    """-c log(1 + x) + a x + b per node, the log taken only where c != 0 (x > -1 there)."""
    log1p = np.log1p(x, out=np.zeros(np.shape(x)), where=c != 0.0)
    return -c * log1p + a * x + b


def _node_values(instance: ProblemInstance, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-node cost and constraint values ``(f_i(x_i), g_i(x_i))`` at x of
    shape (n,) or (r, n)."""
    x = np.asarray(x, dtype=float)
    c_f, a_f, b_f, c_g, a_g, b_g = instance._closed
    return _values(c_f, a_f, b_f, x), _values(c_g, a_g, b_g, x)


def constraint_values(instance: ProblemInstance, x_tilde: np.ndarray):
    """Vectorized per-node subgradients at the minimizers.

    Returns ``(h, Qmats)``: h[i] = g_i(x_i) and Qmats[i] = -A0/n - A_i x_i,
    of shapes x.shape and x.shape + (d, d) for x of shape (n,) or (R, n).
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    n, d = instance.n, instance.d
    Qmats = (-instance.A0 / n - instance.A_stack * x_tilde[..., None, None] if d
             else np.empty(x_tilde.shape + (0, 0)))
    return _values(*instance._closed[3:], x_tilde), Qmats   # g's c, a, b


# ---------------------------------------------------------------------------
# bounds, dual sets, primal evaluation
# ---------------------------------------------------------------------------

def subgradient_bounds(instance: ProblemInstance) -> SubgradientBounds:
    """Uniform bounds L and Q on the per-node subgradient components.

    Both |g_i| and the Frobenius norm of the affine matrix path are
    maximized at box endpoints: every g_i is monotone in x, and a norm
    is convex along an affine path.
    """
    L = Q = 0.0
    for end in instance.boxes:
        g, Qmats = constraint_values(instance, end)
        L = max(L, float(np.abs(g).max()))
        # one dot product per matrix: summed as np.linalg.norm sums one
        # matrix, unlike norm(axis=(1, 2)), so M keeps its last bits; at
        # d = 0 the empty stack gives 0.0
        flat = Qmats.reshape(instance.n, 1, -1)
        Q = max(Q, float(np.sqrt(flat @ np.swapaxes(flat, 1, 2)).max()))
    return SubgradientBounds(L, Q)


def slater_certificate(instance: ProblemInstance, xbar) -> SlaterCertificate:
    """Validate a strictly feasible point and compute its margin gamma."""
    xbar = np.asarray(xbar, dtype=float)
    lo, hi = instance.boxes
    if xbar.shape != (instance.n,):
        raise ConfigurationError(f"xbar must have length {instance.n}")
    if not np.all((xbar >= lo - 1e-12) & (xbar <= hi + 1e-12)):
        raise ConfigurationError("Slater vector leaves the boxes")
    f_vals, g_vals = _node_values(instance, xbar)
    # summed in node order: the dual-set radius, and with it every trace
    # column, depends on the last bits of gamma and fxbar
    sum_g = float(sum(g_vals))
    if not sum_g < 0.0:
        raise ConfigurationError(
            f"Slater vector is not strictly feasible: sum g = {sum_g} >= 0")
    if instance.d:
        lam_min = float(np.linalg.eigvalsh(instance.lmi_matrix(xbar))[0])
        if not lam_min > 0.0:
            raise ConfigurationError(
                f"Slater vector is not strictly feasible: lambda_min = {lam_min} <= 0")
        gamma = min(-sum_g, lam_min)
    else:
        gamma = -sum_g
    return SlaterCertificate(xbar, gamma, float(sum(f_vals)))


def build_dual_sets(instance: ProblemInstance, slater: SlaterCertificate,
                    probe: DualPoint, r: float) -> DualSetSpec:
    """Compact dual projection sets from a Slater point and a probe dual:
    :class:`DualSetSpec` on the probe's threshold and r."""
    return DualSetSpec(dual_set_threshold(instance, slater, probe), r)


def dual_set_threshold(instance: ProblemInstance, slater: SlaterCertificate,
                       probe: DualPoint) -> float:
    """(fxbar - q(probe))/gamma, the smallest admissible r."""
    q_probe = dual_function_value(instance, probe)
    return (slater.fxbar - q_probe) / slater.gamma


def evaluate_primal(instance: ProblemInstance, x) -> tuple:
    """Cost and constraint violations at a box-feasible point.

    Returns ``(f, violation_ineq, violation_lmi)`` with
    violation_ineq = max(0, sum g_i(x_i)) and
    violation_lmi = max(0, -lambda_min(A0 + sum A_i x_i)): floats for x of
    shape (n,), (r,) arrays for a stack of shape (r, n), bit for bit the
    values of each row alone (the LMI matrix is summed one row at a time
    before one batched ``eigvalsh``).  Raises ValueError if any row
    leaves the boxes.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = instance.boxes
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        raise ValueError("point leaves the boxes")
    f_vals, g_vals = _node_values(instance, x)
    g_sum = g_vals.sum(axis=-1)
    viol_lmi = np.zeros_like(g_sum)
    if instance.d:
        lmi = np.array([instance.lmi_matrix(row) for row in x.reshape(-1, instance.n)])
        neg_lam = -np.linalg.eigvalsh(lmi)[:, 0].reshape(g_sum.shape)
        viol_lmi = np.where(neg_lam > 0.0, neg_lam, 0.0)
    out = f_vals.sum(axis=-1), np.where(g_sum > 0.0, g_sum, 0.0), viol_lmi
    return tuple(float(v) for v in out) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# sample instances
# ---------------------------------------------------------------------------

def make_sample_num_instance(n: int, seed: int) -> ProblemInstance:
    """Network-utility style instance with one scalar budget constraint.

    The first round(n/3) nodes carry linear costs -sigma_i x, the rest
    -sigma_i log(1 + x), with sigma_i drawn uniformly from [0, 1) by a
    seeded generator.  The shared budget of 10 is split evenly across
    nodes: g_i(x) = sigma_i x - 10/n, so that sum_i g_i(x) reproduces
    sum_i sigma_i x_i - 10.  Boxes are [0, 1] and there is no LMI.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.0, 1.0, size=n)
    n_linear = max(1, round(n / 3))
    nodes = []
    for i in range(n):
        if i < n_linear:
            f = ScalarFunction.linear(-sigma[i])
        else:
            f = ScalarFunction.neg_log(sigma[i])
        g = ScalarFunction.affine(sigma[i], -10.0 / n)
        nodes.append(NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0)))
    meta = {"builtin": "num", "n": n, "seed": int(seed),
            "n_linear": n_linear, "sigma": sigma.tolist()}
    return ProblemInstance(tuple(nodes), np.zeros((0, 0)), 0, meta)


def make_sample_lmi_instance() -> ProblemInstance:
    """Tiny fixed two-node instance exercising the matrix constraint.

    f_i(x) = x, g_i(x) = x - 1, boxes [0, 1],
    A0 = diag(1.5, 1.5), A1 = diag(-1, 0), A2 = diag(0, -1);
    strictly feasible at x = (0, 0).
    """
    g = ScalarFunction.affine(1.0, -1.0)
    f = ScalarFunction.linear(1.0)
    nodes = (
        NodeSpec(f, g, np.diag([-1.0, 0.0]), (0.0, 1.0)),
        NodeSpec(f, g, np.diag([0.0, -1.0]), (0.0, 1.0)),
    )
    return ProblemInstance(nodes, np.diag([1.5, 1.5]), 2, {"builtin": "lmi"})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def instance_to_json(instance: ProblemInstance) -> dict:
    """JSON document for an instance."""
    nodes = []
    for nd in instance.nodes:
        nodes.append({
            "f": _fun_to_json(nd.f),
            "g": _fun_to_json(nd.g),
            "A": nd.A.reshape(-1).tolist(),
            "box": [nd.lo, nd.hi],
        })
    return {
        "d": instance.d,
        "A0": instance.A0.reshape(-1).tolist(),
        "nodes": nodes,
        "meta": instance.meta,
    }


def instance_from_json(doc: dict) -> ProblemInstance:
    """The instance an ``instance_to_json`` document holds.  A key that it
    does not write, a box without exactly two entries, a ``d`` that is not
    an integer >= 0, or a coefficient, box entry or matrix entry that is
    not a JSON number (a bool or a string is none) is a ValueError."""
    _check_keys(doc, "an instance", ("d", "A0", "nodes"), ("meta",))
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be an integer >= 0; got {d!r}")
    A0 = np.array([_number(v, "an A0 entry") for v in doc["A0"]]).reshape(d, d)
    nodes = []
    for nd in doc["nodes"]:
        _check_keys(nd, "a node", ("f", "g", "A", "box"))
        if len(nd["box"]) != 2:
            raise ValueError(f"a box has two entries; got {nd['box']}")
        nodes.append(NodeSpec(
            _fun_from_json(nd["f"]), _fun_from_json(nd["g"]),
            np.array([_number(v, "an A entry") for v in nd["A"]]).reshape(d, d),
            tuple(_number(v, "a box entry") for v in nd["box"])))
    return ProblemInstance(tuple(nodes), A0, d, dict(doc.get("meta", {})))


def _number(value, what: str) -> float:
    """A JSON number as a float; a bool, a string or anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number; got {value!r}")
    return float(value)


def _check_keys(doc: dict, what: str, keys: tuple, optional: tuple = ()) -> None:
    """Raise ValueError unless ``doc`` has every key in ``keys``, any of
    ``optional`` and no other."""
    if not set(keys) <= set(doc) <= {*keys, *optional}:
        allowed = ", ".join(keys) + "".join(f" [, {key}]" for key in optional)
        raise ValueError(f"{what} has keys {allowed}; got {', '.join(sorted(doc))}")


def _fun_to_json(fun: ScalarFunction) -> dict:
    return {"kind": fun.kind, **{name: getattr(fun, name)
                                 for name in _KIND_COEFFICIENTS[fun.kind]}}


def _fun_from_json(doc: dict) -> ScalarFunction:
    """Exactly ``kind`` plus that kind's coefficients; any other key is an error."""
    kind = doc["kind"]
    if kind not in _KIND_COEFFICIENTS:
        raise ValueError(f"unknown function kind {kind!r}")
    names = _KIND_COEFFICIENTS[kind]
    _check_keys(doc, f"a {kind} function", ("kind", *names))
    return ScalarFunction(kind, **{name: _number(doc[name], f"coefficient {name}")
                                   for name in names})
