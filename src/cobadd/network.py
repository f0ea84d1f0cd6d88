"""Communication graphs, consensus matrices, and the simulated exchange.

The network is synchronous, undirected and time-invariant.  A consensus
matrix W must match the graph sparsity, be symmetric and doubly
stochastic, and have spectral radius of W - 11^T/n strictly below one;
Metropolis-Hastings weights satisfy all of that on any connected graph.
One consensus step sends one payload per directed edge, so a round of
``phi`` steps costs ``phi * 2 |E|`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

# Draws random_connected_graph makes before it gives up on a degree.
_MAX_GRAPH_DRAWS = 1000

# Node pairs random_connected_graph draws per rng.random call, so a draw
# holds O(n) memory, not O(n^2).  2^16 kept the n = 1000 set-up peak at
# or below that of one call per draw; 2^18 raised it by about 1 MB.
_PAIR_CHUNK = 2 ** 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes {0, ..., n-1}.

    ``edges`` is read-only, shape (E, 2): each edge once as (i, j) with
    i < j, in lexicographic order, whatever the order and orientation
    it was given in.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        e = np.sort(np.array(self.edges, dtype=np.int64).reshape(-1, 2), axis=1)
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        outside = (e[:, 0] < 0) | (e[:, 1] >= self.n)
        if outside.any():
            raise ValueError(f"edge {e[outside][0].tolist()} out of range")
        edges, counts = np.unique(e, axis=0, return_counts=True)
        if np.any(counts > 1):
            raise ValueError(f"duplicate edge {edges[counts > 1][0].tolist()}")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.edge_count / self.n

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.reshape(-1), minlength=self.n)

    def is_connected(self) -> bool:
        return _connected(self.n, *self.edges.T)


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the edges (i[k], j[k]) connect nodes {0, ..., n-1}.

    A node on no edge settles it.  Otherwise label propagation: each
    node takes the smallest label among itself and its neighbours, and
    follows that label's own label, until nothing changes; connected
    iff every label reaches 0."""
    if n > 1 and np.count_nonzero(np.bincount(np.concatenate((i, j)), minlength=n)) < n:
        return False
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[i], labels[j])
        new = labels.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, labels):
            return bool(np.all(labels == 0))
        labels = new


@dataclass(frozen=True)
class ConsensusMatrix:
    """Symmetric doubly-stochastic weights on a graph, with their gap nu.

    ``W`` is the n x n matrix, read-only.  ``neighbours`` is its nonzero
    pattern in row-major order, built on first use and kept: node i
    mixes the payloads of ``cols[starts[i]:starts[i+1]]``, itself
    included, with ``weights`` from the same slice.

    ``nu`` is the spectral radius of W - 11^T/n (the second largest
    absolute eigenvalue of W), an estimate, not a certified bound (see
    :func:`metropolis_weights`); the package reads it through
    :meth:`contraction` and :meth:`phibar`.  ``edge_count``, counted
    from W, is the number of node pairs {i, j} with a nonzero weight;
    one step costs 2 * edge_count payloads.
    """

    W: np.ndarray
    nu: float
    edge_count: int = field(init=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        problems = _weight_problems(W, W.shape[0])
        if not (0.0 <= self.nu < 1.0):
            problems.append(f"nu={self.nu} must lie in [0, 1)")
        if problems:
            raise ValueError("not a consensus matrix: " + "; ".join(problems))
        pairs = (np.count_nonzero((W != 0) | (W.T != 0)) - np.count_nonzero(np.diagonal(W))) // 2
        W = W.copy()
        W.flags.writeable = False
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "edge_count", int(pairs))

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def contraction(self, steps: int) -> float:
        """Upper bound on the factor by which ``steps`` steps contract each
        deviation from the mean: nu**steps."""
        return self.nu ** steps

    def phibar(self, beta0: float, alpha: float, M: float, d: int) -> float:
        """phibar = [log(beta0) - log(4 n (1+d^2) (beta0 + alpha M))] / log(nu),
        the consensus steps per iteration from which the payload
        disagreement stays within the agreement theorem's geometric
        envelope; 0 at nu = 0 (exact averaging) or beta0 = 0."""
        if any(v < 0 for v in (beta0, alpha, M)) or d < 0:
            raise ValueError("arguments must be nonnegative")
        if beta0 == 0.0 or self.nu == 0.0:
            return 0.0
        denom = 4.0 * self.n * (1 + d * d) * (beta0 + alpha * M)
        return float((np.log(beta0) - np.log(denom)) / np.log(self.nu))

    def power(self, phi: int) -> np.ndarray:
        """W^phi, read-only: W itself at phi = 1, else built by repeated
        squaring on first use and kept."""
        if phi == 1:
            return self.W
        if phi not in self._powers:
            self._powers[phi] = P = np.linalg.matrix_power(self.W, phi)
            P.flags.writeable = False
        return self._powers[phi]

    def stack(self, phis: tuple[int, ...]) -> np.ndarray:
        """The (R, n, n) stack of ``power(phi_r)``, read-only, built on first
        use and kept per tuple: R n^2 floats."""
        if phis not in self._stacks:
            self._stacks[phis] = S = np.stack([self.power(phi) for phi in phis])
            S.flags.writeable = False
        return self._stacks[phis]

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cols, starts, weights)``, read-only: ``np.nonzero(W)`` in
        row-major order, built without an n x n temporary."""
        rows, cols = np.nonzero(self.W)
        form = (cols, np.searchsorted(rows, np.arange(self.n)), self.W[rows, cols])
        for a in form:
            a.flags.writeable = False
        return form


def random_connected_graph(n: int, target_avg_degree: float, seed: int) -> Graph:
    """Erdos-Renyi graph with p = target_avg_degree/(n-1), resampled
    from the same seeded generator until connected.

    A draw keeps each upper-triangle pair, in row-major order, whose
    double is below p, and only the accepted draw becomes a ``Graph``.
    Raises ConfigurationError after ``_MAX_GRAPH_DRAWS`` failed draws,
    suggesting a higher degree.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < target_avg_degree < np.inf:
        raise ValueError("target_avg_degree must be finite and positive")
    p = min(target_avg_degree / (n - 1), 1.0)
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    rows = np.arange(n)
    row_starts = rows * (2 * n - 1 - rows) // 2   # pairs before row i
    for _ in range(_MAX_GRAPH_DRAWS):
        kept = np.concatenate([
            start + np.flatnonzero(rng.random(min(_PAIR_CHUNK, pairs - start)) < p)
            for start in range(0, pairs, _PAIR_CHUNK)])
        i = np.searchsorted(row_starts, kept, side="right") - 1
        j = kept - row_starts[i] + i + 1
        if _connected(n, i, j):
            return Graph(n, np.stack([i, j], axis=1))
    raise ConfigurationError(
        f"no connected graph in {_MAX_GRAPH_DRAWS} draws; "
        f"increase target_avg_degree (currently {target_avg_degree})")


def metropolis_weights(g: Graph) -> ConsensusMatrix:
    """Metropolis-Hastings weights W_ij = 1/(1 + max(deg_i, deg_j)).

    Diagonal entries absorb the slack so rows sum to one.  The gap nu is
    read off ``np.linalg.eigvalsh(W)``: a rounded estimate with no error
    bound, whose last bits can depend on the BLAS thread count.
    """
    if not g.is_connected():
        raise ConfigurationError("graph is disconnected; nu would be 1")
    deg = g.degrees()
    i, j = g.edges.T
    W = np.zeros((g.n, g.n))
    W[i, j] = W[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    eigs = np.linalg.eigvalsh(W)
    nu = float(max(abs(eigs[0]), abs(eigs[-2]))) if g.n > 1 else 0.0
    if nu >= 1.0 - 1e-12:
        raise ConfigurationError(f"consensus matrix has no spectral gap (nu={nu})")
    return ConsensusMatrix(W, nu)


def exact_averaging_matrix(n: int) -> ConsensusMatrix:
    """The idealized matrix 11^T/n (one step reaches the exact mean) on
    the complete graph's n(n-1)/2 edges."""
    return ConsensusMatrix(np.full((n, n), 1.0 / n), 0.0)


# Per entry it touches, an edge-list step (gather, scale, segment sum)
# cost 18 to 40 times what a dense product costs per entry of W, at
# payload widths 1 and 5 on n = 1000 and 3000 (59 to 69 times at width
# 10), on 2 CPUs with numpy on OpenBLAS; c = 32 sits inside that range.
_EDGE_ENTRY_COST = 32


def _edge_steps(W: ConsensusMatrix, flat: np.ndarray, phi: int) -> np.ndarray:
    """``phi`` steps ``v_i <- sum_j W_ij v_j`` over W's nonzero pattern;
    ``flat`` has one row per node."""
    cols, starts, weights = W.neighbours
    weights = weights[:, None]
    for _ in range(phi):
        flat = np.add.reduceat(np.take(flat, cols, axis=0) * weights, starts, axis=0)
    return flat


def consensus_round(W: ConsensusMatrix, values: np.ndarray, phi: int | tuple) -> np.ndarray:
    """Apply ``v <- W v`` ``phi`` times to per-node payloads.

    ``values`` has one row per node (any trailing payload shape); the
    round sends phi * 2|E| messages.  The operator depends on the graph
    alone: when a step over the n + 2|E| nonzeros, charged
    ``_EDGE_ENTRY_COST`` dense entries each, is cheaper than the n^2
    entries of W, the round takes phi steps over ``W.neighbours``;
    otherwise it is one product by ``W.power(phi)``.  Both equal phi
    products by W to rounding, not bit for bit.  Given a tuple of R phis,
    ``values`` stacks R runs on a leading axis, run r taking phi_r steps;
    the dense branch is then one product by ``W.stack(phi)``, which numpy
    makes one BLAS call per run, so each run rounds as in its own round.
    """
    runs = isinstance(phi, tuple)
    if min(phi if runs else (phi,)) < 1:
        raise ValueError("phi must be at least 1")
    out = np.asarray(values, dtype=float)
    flat = out.reshape(out.shape[:1 + runs] + (-1,))
    if _EDGE_ENTRY_COST * (W.n + 2 * W.edge_count) < W.n * W.n:
        flat = (np.stack([_edge_steps(W, f, p) for f, p in zip(flat, phi, strict=True)])
                if runs else _edge_steps(W, flat, phi))
    else:
        flat = (W.stack(phi) if runs else W.power(phi)) @ flat
    return flat.reshape(out.shape)


def _weight_problems(W: np.ndarray, n: int) -> list[str]:
    """Violations of the weight conditions that need no eigensolve: shape
    (n, n), symmetry (1e-12), unit row sums (1e-10), nonnegativity (1e-12).
    The symmetry check holds one n x n temporary."""
    if W.shape != (n, n):
        return [f"shape {W.shape} is not ({n}, {n})"]
    problems = []
    asym = W - W.T
    if np.max(np.abs(asym, out=asym)) > 1e-12:
        problems.append("not symmetric")
    row_err = float(np.max(np.abs(W.sum(axis=1) - 1.0)))
    if row_err > 1e-10:
        problems.append(f"row sums deviate from 1 by {row_err:.3e}")
    if np.min(W) < -1e-12:
        problems.append("negative entries")
    return problems


def check_consensus_conditions(W: np.ndarray, g: Graph) -> list[str]:
    """Violation messages for the consensus-matrix conditions.

    Adds to the checks :class:`ConsensusMatrix` makes the graph sparsity
    and a spectral gap from an independent ``eigvals``; an empty list
    means the matrix is admissible.
    """
    W = np.asarray(W, dtype=float)
    problems = _weight_problems(W, g.n)
    if W.shape != (g.n, g.n):
        return problems
    allowed = np.eye(g.n, dtype=bool)
    i, j = g.edges.T
    allowed[i, j] = allowed[j, i] = True
    if np.any(np.abs(W[~allowed]) > 1e-10):
        problems.append("nonzero weight on a non-edge")
    dev = W - np.full((g.n, g.n), 1.0 / g.n)
    rho = float(np.max(np.abs(np.linalg.eigvals(dev))))
    if rho >= 1.0 - 1e-12:
        problems.append(f"spectral radius of W - avg is {rho} >= 1")
    return problems
