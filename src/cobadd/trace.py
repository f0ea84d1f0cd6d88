"""Per-iteration run records and the fixed CSV schema.

Column semantics (one row per recorded iteration k = 1..K):

=============  ==========================================================
k              iteration index
f_ergodic      cost of the ergodic primal iterate x^k
viol_ineq      max(0, sum_i g_i(x_i^k))
viol_lmi       max(0, -lambda_min(A0 + sum_i A_i x_i^k))
q_best_node    max over nodes of the dual value at that node's duals
q_mean         mean over nodes of the same
disagreement   max_i ( |mu_i - mu_bar| + ||G_i - G_bar||_F )
messages_cum   messages exchanged to produce the state recorded at row k
bound_upper    theoretical bound on f(x^k) - f*
bound_lower    theoretical bound on f* - f(x^k)
beta_k         agreement envelope beta_k (NaN when inapplicable)
=============  ==========================================================

Both solvers fill the per-row columns with one recording loop,
``solver.record_run``, which evaluates them once per block of rows,
bit-identical to evaluating each row alone (an ergodic point outside
the boxes raises at the end of its block).  The centralized baseline
is its m = 1 case: one dual point per row, so q_best_node equals q_mean
and the disagreement is exactly zero.  It writes zeros for messages_cum
and NaN for beta_k; its bound columns carry the master-node analysis
with the realized dual norms.  Floats are rendered with ``repr`` so the
files are byte-stable across identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

TRACE_COLUMNS = ("k", "f_ergodic", "viol_ineq", "viol_lmi", "q_best_node",
                 "q_mean", "disagreement", "messages_cum", "bound_upper",
                 "bound_lower", "beta_k")

_INT_COLUMNS = {"k", "messages_cum"}


@dataclass
class RunTrace:
    """One solver run, as both solvers fill it: the CSV columns, the
    per-row largest mu and G deviations, and the last state's m dual
    pairs ``final_mus`` (m,) and ``final_Gs`` (m, d, d); then CoBa-DD's
    bounds object (None for the baseline)."""

    k: np.ndarray
    f_ergodic: np.ndarray
    viol_ineq: np.ndarray
    viol_lmi: np.ndarray
    q_best_node: np.ndarray
    q_mean: np.ndarray
    disagreement: np.ndarray
    messages_cum: np.ndarray
    bound_upper: np.ndarray
    bound_lower: np.ndarray
    beta_k: np.ndarray
    mu_disagreement: np.ndarray
    G_disagreement: np.ndarray
    final_mus: np.ndarray
    final_Gs: np.ndarray
    bounds: object | None = None

    def __post_init__(self):
        K = len(self.k)
        for name in TRACE_COLUMNS:
            col = getattr(self, name)
            if len(col) != K:
                raise ValueError(f"column {name} has {len(col)} rows, expected {K}")
        col = np.asarray(self.messages_cum)
        if np.any(col[1:] < col[:-1]):   # np.diff would wrap on int64
            raise ValueError("messages_cum must be nondecreasing")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        """The header and one line per row: ``str(int(v))`` for the integer
        columns and ``repr(float(v))`` for the rest, built column by column."""
        cols = [map(str, map(int, np.asarray(getattr(self, name)).tolist()))
                if name in _INT_COLUMNS
                else map(repr, np.asarray(getattr(self, name), dtype=float).tolist())
                for name in TRACE_COLUMNS]
        return "\n".join(map(",".join, chain([TRACE_COLUMNS], zip(*cols)))) + "\n"
