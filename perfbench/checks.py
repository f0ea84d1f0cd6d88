"""Per-operation output checks and the figures read from each output.

An operation is one solver run.  Each check returns "pass", "fail" or
"skip"; a check skips only when its theorem or its data does not apply
to the operation, never to hide a failure.  The relative error is
|f(x^k) - f*| / |f*|, computed here from the trace CSV against an f*
that the benchmark obtains from the independent oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np

from cobadd.problem import evaluate_primal
from cobadd.trace import TRACE_COLUMNS

SLACK = 1e-9         # same slack the package uses for bound inequalities
DUALITY_TOL = 1e-7   # weak duality: q <= f* + 1e-7
STEP_RTOL = 1e-12    # step API against cobadd_solve
LEVEL = 0.01         # the 1% relative-error crossing


def verdict(ok) -> str:
    return "pass" if bool(ok) else "fail"


def read_trace_csv(path: str):
    """(header, column dict, SHA-256 of the file bytes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob.decode().splitlines()
    header = tuple(lines[0].split(","))
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:] if line],
                    dtype=float).reshape(-1, len(header))
    cols = {name: rows[:, j] for j, name in enumerate(header)}
    return header, cols, hashlib.sha256(blob).hexdigest()


def _relative(f, f_star):
    return np.abs(f - f_star) / (abs(f_star) if f_star != 0 else 1.0)


def check_trace(op, f_star: float) -> tuple[dict, dict]:
    """Checks and figures for an operation that wrote a trace CSV."""
    header, cols, digest = read_trace_csv(op.csv)
    checks = {}
    schema_ok = header == TRACE_COLUMNS and len(cols.get("k", ())) == op.K
    checks["schema"] = verdict(schema_ok and np.array_equal(cols["k"], np.arange(1, op.K + 1)))
    if checks["schema"] == "fail":
        return checks, {"digest": digest}

    centralized = op.solver == "centralized"
    applicable = bool(op.applicable) and not centralized
    finite = all(np.all(np.isfinite(cols[name])) for name in TRACE_COLUMNS if name != "beta_k")
    beta = cols["beta_k"]
    beta_ok = np.all(np.isfinite(beta)) if applicable else np.all(np.isnan(beta))
    checks["finite"] = verdict(finite and beta_ok)

    f = cols["f_ergodic"]
    checks["weak_duality"] = verdict(np.all(cols["q_best_node"] <= f_star + DUALITY_TOL))
    if applicable or centralized:
        checks["primal_sandwich"] = verdict(
            np.all(f <= f_star + cols["bound_upper"] + SLACK)
            and np.all(f >= f_star - cols["bound_lower"] - SLACK))
    else:
        checks["primal_sandwich"] = "skip"
    checks["agreement_envelope"] = _agreement(op, cols) if applicable else "skip"

    rel = _relative(f, f_star)
    hits = np.nonzero(rel <= LEVEL)[0]
    figures = {
        "digest": digest,
        "rel_error_final": float(rel[-1]),
        "viol_final": float(cols["viol_ineq"][-1] + cols["viol_lmi"][-1]),
        "first_1pct_k": int(cols["k"][hits[0]]) if hits.size else None,
        "messages_to_1pct": (int(cols["messages_cum"][hits[0]])
                             if hits.size and not centralized else None),
    }
    if op.trace is not None and op.trace.final_Gs is not None:
        figures["G_norm_final"] = float(np.linalg.norm(op.trace.final_Gs, axis=(1, 2)).max())
    return checks, figures


def _agreement(op, cols) -> str:
    """Each dual component stays within the envelope 2 beta_{k-1}.

    With the RunTrace at hand the scalar and matrix deviations are
    checked separately against the bounds object's envelope.  From the
    CSV alone, the ``disagreement`` column (their sum) is checked against
    twice the envelope on rows k >= 2, where beta_{k-1} is in the file.
    """
    trace = op.trace
    if trace is not None and trace.bounds is not None and trace.mu_disagreement is not None:
        env = trace.bounds.disagreement_envelope(trace.k)
        return verdict(np.all(trace.mu_disagreement <= env + SLACK)
                       and np.all(trace.G_disagreement <= env + SLACK))
    env = 2.0 * cols["beta_k"][:-1]
    return verdict(np.all(cols["disagreement"][1:] <= 2.0 * env + SLACK))


def check_step_api(op, solve_trace, instance, f_star: float) -> tuple[dict, dict]:
    """The step API's final duals and ergodic cost against cobadd_solve."""
    mus = np.array([s.dual.mu for s in op.states])
    Gs = np.stack([s.dual.G for s in op.states])
    x = np.array([s.ergodic_x for s in op.states])
    f, viol_ineq, viol_lmi = evaluate_primal(instance, x)
    digest = hashlib.sha256(mus.tobytes() + Gs.tobytes() + x.tobytes()).hexdigest()
    checks = {"finite": verdict(np.all(np.isfinite(mus)) and np.all(np.isfinite(Gs))
                                and np.all(np.isfinite(x)))}
    if solve_trace is None:
        checks["step_api_match"] = "fail"
    else:
        pairs = ((mus, solve_trace.final_mus), (Gs, solve_trace.final_Gs),
                 (np.array([f]), solve_trace.f_ergodic[-1:]))
        checks["step_api_match"] = verdict(all(
            np.linalg.norm(a - b) <= STEP_RTOL * np.linalg.norm(b) for a, b in pairs))
    figures = {"digest": digest, "rel_error_final": float(_relative(f, f_star)),
               "viol_final": float(viol_ineq + viol_lmi)}
    return checks, figures
