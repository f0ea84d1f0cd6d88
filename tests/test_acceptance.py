"""Acceptance gate: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Conditional theorems (anything requiring
phi >= phibar) are exercised on graphs dense enough to make the
condition attainable; the sparse replication graph intentionally leaves
them inapplicable, exactly as flagged in the traces.
"""

import math
import time

import numpy as np
import pytest

import cobadd as cb
from cobadd.cli import cmd_run
from cobadd.oracles import dykstra_project
from test_bounds import initial_disagreement

SLACK = 1e-9


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig_runs(num_instance, num_sets, fig_graph):
    """The alpha=1 replication family on the sparse seeded graph, timed
    together with the ground-truth oracle (criterion 1 budget)."""
    t0 = time.perf_counter()
    f_star = cb.dual_bisection(num_instance, tol=1e-10).f_star
    W = cb.metropolis_weights(fig_graph)
    traces = {}
    for phi in (1, 2, 4, 26):
        cfg = cb.CobaddConfig(alpha=1.0, phi=phi, K=2000, sets=num_sets)
        traces[phi] = cb.cobadd_solve(num_instance, W, cfg)
    elapsed = time.perf_counter() - t0
    return {"traces": traces, "f_star": f_star, "elapsed": elapsed}


@pytest.fixture(scope="module")
def dense_graph():
    return cb.random_connected_graph(100, 40.0, 11)


@pytest.fixture(scope="module")
def crit3_runs(num_instance, num_sets, dense_graph, num_f_star,
               lmi_instance, lmi_sets, lmi_f_star):
    """Runs with phi >= phibar on both sample instances."""
    out = []
    W = cb.metropolis_weights(dense_graph)
    M = cb.subgradient_bounds(num_instance).M
    for alpha in (1.0, 0.1):
        phibar = W.phibar(10 * alpha * M, alpha, M, 0)
        phi = math.ceil(phibar) + 1
        cfg = cb.CobaddConfig(alpha=alpha, phi=phi, K=400, sets=num_sets)
        out.append(("num", alpha, cb.cobadd_solve(num_instance, W, cfg), num_f_star))
    pair_W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    for alpha, phi in ((0.5, 1), (0.1, 2)):
        cfg = cb.CobaddConfig(alpha=alpha, phi=phi, K=400, sets=lmi_sets)
        out.append(("lmi", alpha, cb.cobadd_solve(lmi_instance, pair_W, cfg),
                    lmi_f_star))
    return out


@pytest.fixture(scope="module")
def crit7_run(num_instance, num_sets, dense_graph):
    cfg = cb.CobaddConfig(alpha=0.01, phi=26, K=5000, sets=num_sets)
    return cb.cobadd_solve(num_instance, cb.metropolis_weights(dense_graph), cfg)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_error_decay_and_floors(fig_runs):
    f_star = fig_runs["f_star"]
    floors = {}
    band_ok = True
    decay_ok = True
    for phi, tr in fig_runs["traces"].items():
        err = np.abs(f_star - tr.f_ergodic)
        floors[phi] = float(err[-200:].mean())
        ks = np.arange(10, 201)
        window = err[9:200]
        C = float(np.median(ks * window))
        # band applies before the curve flattens onto its floor
        flat_hits = np.nonzero(window <= 2.0 * floors[phi])[0]
        stop = int(flat_hits[0]) if flat_hits.size else len(ks)
        ref = C / ks[:stop]
        band_ok &= bool(np.all(window[:stop] <= 10.0 * ref)
                        and np.all(window[:stop] >= ref / 10.0))
        decay_ok &= bool(np.median(window[:40]) > floors[phi])
    order_ok = floors[26] <= floors[4] <= floors[1]
    runtime_ok = fig_runs["elapsed"] < 60.0
    _report(1, band_ok and decay_ok and order_ok and runtime_ok,
            f"floors phi26={floors[26]:.4f} <= phi4={floors[4]:.4f} <= "
            f"phi1={floors[1]:.4f}; C/k band within factor 10; "
            f"runtime {fig_runs['elapsed']:.1f}s < 60s")


def test_criterion_2_message_efficiency(fig_runs):
    f_star = fig_runs["f_star"]
    crossings = {}
    for phi in (1, 26):
        tr = fig_runs["traces"][phi]
        rel = np.abs(tr.f_ergodic - f_star) / abs(f_star)
        hits = np.nonzero(rel <= 0.01)[0]
        assert hits.size, f"phi={phi} never reaches 1% relative error"
        crossings[phi] = int(tr.messages_cum[hits[0]])
    ok = crossings[1] < crossings[26]
    _report(2, ok, f"messages to 1% error: phi=1 used {crossings[1]}, "
                   f"phi=26 used {crossings[26]}")


def test_criterion_3_primal_sandwich(crit3_runs):
    worst = 0
    details = []
    for tag, alpha, tr, f_star in crit3_runs:
        b = tr.bounds
        assert b.agreement_applicable, f"{tag} alpha={alpha}: phi below phibar"
        up = f_star + b.primal_upper_deviation(tr.k)
        lo = f_star - b.primal_lower_deviation(tr.k)
        viol = int(np.sum(tr.f_ergodic > up + SLACK)
                   + np.sum(tr.f_ergodic < lo - SLACK))
        worst += viol
        details.append(f"{tag}/a={alpha}/phi={b.phi}:{viol}")
    _report(3, worst == 0, "sandwich violations per run " + ", ".join(details))


def test_criterion_4_dual_agreement():
    instance = cb.make_sample_num_instance(20, 4)
    graph = cb.random_connected_graph(20, 6.0, 3)
    W = cb.metropolis_weights(graph)
    slater = cb.slater_certificate(instance, np.zeros(20))
    sets = cb.build_dual_sets(instance, slater, cb.DualPoint(0.0),
                              cb.dual_set_threshold(instance, slater, cb.DualPoint(0.0)))
    alpha = 1.0
    M = cb.subgradient_bounds(instance).M
    beta0 = cb.default_beta0(alpha, M)
    phibar = W.phibar(beta0, alpha, M, 0)
    phi = math.ceil(phibar) + 2
    cfg = cb.CobaddConfig(alpha=alpha, phi=phi, K=500, sets=sets)
    tr = cb.cobadd_solve(instance, W, cfg)
    b = tr.bounds
    assert b.agreement_applicable and b.delta == 2 and b.beta0 == beta0
    # the envelope anchor must dominate the realized initial disagreement
    assert initial_disagreement(instance, W, phi, alpha) <= beta0
    env = b.disagreement_envelope(tr.k)
    theorem_ok = bool(np.all(tr.mu_disagreement <= env + SLACK)
                      and np.all(tr.G_disagreement <= env + SLACK))
    tail = float(tr.disagreement[-50:].mean())
    corollary = 2.0 * (2.0 * b.p * alpha * b.M / (1.0 - b.p))
    tail_ok = tail <= corollary + SLACK
    _report(4, theorem_ok and tail_ok,
            f"phi={phi} (phibar={phibar:.2f}); envelope holds at every k; "
            f"tail disagreement {tail:.2e} <= corollary {corollary:.2e}")


def test_criterion_5_exact_averaging_equivalence(num_instance, num_sets):
    # CoBa-DD on the exact averaging matrix against the bounded baseline
    # at stepsize alpha/n: the duals each samples, then the ergodic cost
    n = num_instance.n
    W = cb.exact_averaging_matrix(n)
    cfg = cb.CobaddConfig(alpha=1.0, phi=1, K=500, sets=num_sets)
    state = cb.cobadd_init(num_instance, W, cfg)
    central = cb.central_init(num_instance, 1.0 / n, num_sets)
    dev = 0.0
    for _ in range(500):
        dev = max(dev, float(np.max(np.abs(state.mus - central.mus[0]))))
        state = cb.cobadd_step(num_instance, state, W, cfg)
        central = cb.central_step(num_instance, central, 1.0 / n, num_sets)
        f_c = cb.evaluate_primal(num_instance, state.ergodic_x)[0]
        f_z = cb.evaluate_primal(num_instance, central.ergodic_x)[0]
        dev = max(dev, abs(f_c - f_z))
    _report(5, dev <= 1e-9,
            f"max deviation over 500 iterations = {dev:.2e} <= 1e-9")


def test_criterion_6_projection_against_dykstra():
    rng = np.random.default_rng(20)
    draws = []
    for _ in range(200):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d)) * rng.uniform(0.5, 3.0)
        A = (A + A.T) / 2.0
        Gam = float(rng.uniform(0.2, 4.0))
        draws.append((d, A, Gam))
    worst = 0.0
    for d in (2, 3, 4):
        mats = np.stack([A for dd, A, _ in draws if dd == d])
        gams = np.array([Gam for dd, _, Gam in draws if dd == d])
        refs = dykstra_project(mats, gams, 10_000)
        for A, Gam, ref in zip(mats, gams, refs):
            worst = max(worst, float(np.linalg.norm(cb.project_psd_ball_stack(A, Gam) - ref)))
    _report(6, worst <= 1e-7,
            f"200 random matrices d in 2..4: max Frobenius gap {worst:.2e} <= 1e-7")


def test_criterion_7_duality(fig_runs, crit3_runs, crit7_run, num_f_star):
    weak_ok = True
    checked = 0
    for tr in list(fig_runs["traces"].values()) + [crit7_run]:
        weak_ok &= bool(np.all(tr.q_best_node <= num_f_star + 1e-7)
                        and np.all(tr.q_mean <= num_f_star + 1e-7))
        checked += len(tr.k)
    for _, _, tr, f_star in crit3_runs:
        weak_ok &= bool(np.all(tr.q_best_node <= f_star + 1e-7))
        checked += len(tr.k)
    b = crit7_run.bounds
    assert b.agreement_applicable
    best = float(crit7_run.q_best_node.max())
    reach_ok = best >= num_f_star - b.dual_gap_floor
    _report(7, weak_ok and reach_ok,
            f"{checked} recorded rows all satisfy q <= f* + 1e-7; best dual "
            f"{best:.6f} within the floor {b.dual_gap_floor:.1f} of q* = f*")


def test_criterion_8_baseline_bounds(num_instance, num_f_star,
                                     lmi_instance, lmi_f_star):
    cases = [("num", num_instance, num_f_star, 1.0, 500),
             ("num", num_instance, num_f_star, 0.05, 500),
             ("lmi", lmi_instance, lmi_f_star, 0.5, 300)]
    viol = 0
    details = []
    for tag, inst, f_star, alpha, K in cases:
        tr = cb.central_solve(inst, alpha, K)
        mu_star = 1.0 if tag == "num" else 0.0
        # the first lower-bound row times alpha is the realized lam^2 + gam^2
        assert math.sqrt(tr.bound_lower[0] * alpha) >= mu_star  # covers the optimum
        bad = int(np.sum(tr.f_ergodic > f_star + tr.bound_upper + SLACK)
                  + np.sum(tr.f_ergodic < f_star - tr.bound_lower - SLACK))
        viol += bad
        details.append(f"{tag}/a={alpha}:{bad}")
    _report(8, viol == 0, "baseline sandwich violations " + ", ".join(details))


def test_criterion_9_determinism(tmp_path):
    import json
    cfg = {
        "instance": {"builtin": "num", "n": 100, "seed": 42},
        "graph": {"n": 100, "avg_degree": 3.12, "seed": 7},
        "runs": [
            {"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": 250},
            {"solver": "cobadd", "alpha": 1.0, "phi": 4, "K": 250},
            {"solver": "centralized", "alpha": 1.0, "K": 250},
        ],
        "output_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    assert cmd_run(str(path), out_override=str(tmp_path / "r1")) == 0
    assert cmd_run(str(path), out_override=str(tmp_path / "r2")) == 0
    names = ["cobadd_phi1_alpha1.csv", "cobadd_phi4_alpha1.csv",
             "central_alpha1.csv"]
    same = True
    for name in names:
        with open(tmp_path / "r1" / name, "rb") as fh:
            a = fh.read()
        with open(tmp_path / "r2" / name, "rb") as fh:
            b = fh.read()
        same &= a == b
    _report(9, same, f"{len(names)} trace CSVs byte-identical across two runs")
