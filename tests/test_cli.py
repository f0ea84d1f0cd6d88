"""Experiment CLI: config validation, runs, determinism, verification."""

import dataclasses
import hashlib
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

import cobadd as cb
import cobadd.cli as cli
from cobadd.cli import cmd_run, cmd_verify, load_config, main
from cobadd.errors import ConfigurationError
from cobadd.trace import TRACE_COLUMNS


def small_config(tmp_path, out_name="out", runs=None, K=60):
    cfg = {
        "instance": {"builtin": "num", "n": 24, "seed": 4},
        "graph": {"n": 24, "avg_degree": 5.0, "seed": 3},
        "runs": runs or [
            {"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": K},
            {"solver": "cobadd", "alpha": 1.0, "phi": 4, "K": K},
            {"solver": "centralized", "alpha": 1.0, "K": K},
        ],
        "output_dir": str(tmp_path / out_name),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_load_config_field_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"instance": {"builtin": "num"}, "runs": []}))
    with pytest.raises(ConfigurationError) as err:
        load_config(str(path))
    assert "graph" in str(err.value)
    path.write_text(json.dumps({
        "instance": {"builtin": "num"},
        "graph": {"n": 10, "avg_degree": 3, "seed": 1},
        "runs": [{"solver": "nope", "alpha": 1.0, "K": 5}],
        "output_dir": "x"}))
    with pytest.raises(ConfigurationError) as err:
        load_config(str(path))
    assert "runs[0].solver" in str(err.value)
    path.write_text(json.dumps({
        "instance": {"builtin": "num"},
        "graph": {"n": 10, "avg_degree": 3, "seed": 1},
        "runs": [{"solver": "cobadd", "alpha": -1.0, "K": 5}],
        "output_dir": "x"}))
    with pytest.raises(ConfigurationError) as err:
        load_config(str(path))
    assert "alpha" in str(err.value)


def test_cmd_run_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cmd_run(str(path)) == 2


def test_cmd_run_rejects_nan_alpha(tmp_path, capsys):
    runs = [{"solver": "cobadd", "alpha": float("nan"), "phi": 1, "K": 5}]
    path, _ = small_config(tmp_path, runs=runs)
    assert cmd_run(path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runs[0].alpha" in err


@pytest.mark.parametrize("keys, value", [
    (("probe_mu",), -1),
    (("r",), "abc"),
    (("graph", "avg_degree"), 0),
    (("slater_xbar",), ["a"] * 24),
    (("runs", 0, "phi"), "x"),
    (("instance", "n"), "ten"),
    (("instance", "n"), 1),
    (("runs", 2, "bounded"), "false"),
    (("graph", "n"), 24.7),
    (("graph", "seed"), 3.9),
    (("runs", 0, "K"), True),
    (("runs", 0, "phi"), True),
    (("instance", "seed"), True),
    (("instance", "seed"), -1),
    (("runs", 0, "alpha"), True),
    (("probe_mu",), True),
    (("r",), True),
    (("graph", "avg_degree"), True),
    (("slater_xbar",), [False] * 24),
    (("slater_xbar",), [math.nan] + [0.0] * 23),
    (("runs", 0, "phii"), 3),
    (("output_dri",), "x"),
    (("graph", "degree"), 5.0),
    (("meta",), 5),
    (("output_dir",), ""),
    (("runs", 0, "alpha"), 10**400),
    (("r",), 10**400),
    (("graph", "avg_degree"), 10**400),
    (("slater_xbar",), [10**400] + [0.0] * 23),
    (("runs", 0, "K"), 10**400),
    (("runs", 0, "K"), cli.MAX_K + 1),
], ids=["unknown_probe_mu", "r", "avg_degree", "slater_xbar", "phi", "n_text", "n_one",
        "bounded_text", "graph_n_float", "graph_seed_float", "K_bool", "phi_bool",
        "seed_bool", "seed_negative", "alpha_bool", "unknown_probe_mu_bool", "r_bool",
        "avg_degree_bool", "slater_xbar_bool", "slater_xbar_nan", "unknown_run_key",
        "unknown_top_key", "unknown_graph_key", "meta_not_object", "output_dir_empty",
        "alpha_beyond_float", "r_beyond_float", "avg_degree_beyond_float",
        "slater_xbar_beyond_float", "K_beyond_float", "K_above_ceiling"])
def test_malformed_config_value_is_an_error(tmp_path, capsys, monkeypatch, keys, value):
    # a bad config value or a field nothing reads (the instance's n and
    # seed, or a probe_mu) exits 2 before anything is built, under run and
    # verify alike; an integer beyond the float range used to end in an
    # OverflowError traceback, and a K beyond the float range in a
    # ValueError traceback from the bounds
    monkeypatch.setattr(cli, "build_setup", lambda cfg: pytest.fail("the config was accepted"))
    path, cfg = small_config(tmp_path, K=5)
    *parents, last = keys
    section = cfg
    for key in parents:
        section = section[key]
    section[last] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and keys[-1] in err
        if last == "K":
            assert f"runs[0].K must be an integer in [1, {cli.MAX_K}]" in err


@pytest.mark.parametrize("instance, message", [
    ({"path": 5}, "instance.path"),
    ({"path": 0}, "instance.path"),
    ({"builtin": 5}, "instance.builtin"),
    ({"builtin": "lmi", "n": 7, "seed": 3}, "instance.n"),
    ({"builtin": "lmi", "seed": 7}, "instance.seed"),
    ({"builtin": "num", "n": 24, "seed": 4, "path": "instance.json"}, "exactly one"),
    ({"path": "instance.json", "n": 24}, "instance.n"),
    ({"builtin": "nope"}, "unknown builtin instance 'nope'"),
], ids=["path_fd", "path_stdin", "builtin_number", "lmi_n_seed", "lmi_seed", "both",
        "path_n", "unknown_builtin"])
def test_instance_section_is_checked_on_load(tmp_path, capsys, instance, message):
    # an integer path would open that file descriptor, n and seed would be
    # ignored by everything but the builtin num, path would win over
    # builtin, and no instance has an unknown builtin's name: each is a
    # config error that exits 2 before anything is built
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(cb.instance_to_json(cb.make_sample_num_instance(24, 4))))
    path, cfg = small_config(tmp_path, out_name="o", K=5)
    cfg["instance"] = {key: str(inst_path) if value == "instance.json" else value
                       for key, value in instance.items()}
    if instance.get("builtin") == "lmi":
        cfg["graph"] = {"n": 2, "avg_degree": 1.0, "seed": 0}
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(path)
    assert cmd_run(path) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("runs, message", [
    ([{"solver": "centralized", "alpha": 0.5, "K": 5},
      {"solver": "centralized", "alpha": 0.5, "K": 5, "bounded": False}],
     "runs[1] is named 'central_alpha0.5'"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "a"},
      {"solver": "centralized", "alpha": 1.0, "K": 5, "name": "a"}], "runs[1] is named 'a'"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "cobadd_phi1_alpha1"},
      {"solver": "cobadd", "alpha": 1.0, "K": 5}], "runs[1] is named 'cobadd_phi1_alpha1'"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "sub/x"}], "runs[0].name"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "../x"}], "runs[0].name"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "a\\b"}], "runs[0].name"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": 7}], "runs[0].name"),
    ([{"solver": "cobadd", "alpha": 1.0, "K": 5, "name": "a\0b"}], "runs[0].name"),
], ids=["same_default", "same_given", "given_as_default", "separator", "parent_dir",
        "backslash", "not_text", "nul"])
def test_run_names_unique_and_plain(tmp_path, capsys, runs, message):
    # each run writes <name>.csv inside output_dir: a repeated name would
    # overwrite a trace, and a path separator would leave the directory
    path, _ = small_config(tmp_path, out_name="o", runs=runs)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(path)
    assert cmd_run(path) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("run, message", [
    ({"solver": "cobadd", "alpha": 1.0, "K": 5, "bounded": False},
     "runs[0].bounded is read only by the solver 'centralized'"),
    ({"solver": "cobadd", "alpha": 1.0, "K": 5, "bounded": True},
     "runs[0].bounded is read only by the solver 'centralized'"),
    ({"solver": "centralized", "alpha": 1.0, "K": 5, "phi": 9},
     "runs[0].phi is read only by the solver 'cobadd'"),
], ids=["cobadd_unbounded", "cobadd_bounded", "centralized_phi"])
def test_run_field_of_the_other_solver_is_an_error(tmp_path, capsys, run, message):
    # the consensus solver always projects onto the dual sets and the
    # master node runs no consensus steps, so the field would change nothing
    path, _ = small_config(tmp_path, out_name="o", runs=[run])
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(path)
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_unique_run_names_write_one_trace_each(tmp_path):
    runs = [{"solver": "centralized", "alpha": 0.5, "K": 5, "name": "bounded"},
            {"solver": "centralized", "alpha": 0.5, "K": 5, "bounded": False}]
    path, _ = small_config(tmp_path, out_name="o", runs=runs)
    assert [spec.name for spec in load_config(path).runs] == ["bounded", "central_alpha0.5"]
    assert cmd_run(path) == 0
    assert sorted(os.listdir(tmp_path / "o")) == [
        "bounded.csv", "central_alpha0.5.csv", "summary.json"]


@pytest.mark.parametrize("command", [cmd_run, cmd_verify])
def test_graph_size_mismatch_is_a_config_error(tmp_path, capsys, command):
    path, cfg = small_config(tmp_path, K=5)
    cfg["graph"]["n"] = 30
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert command(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "30 nodes" in err


def test_cmd_verify_rejects_infeasible_slater_point(tmp_path, capsys):
    path, cfg = small_config(tmp_path, K=5)
    cfg["slater_xbar"] = [1.0] * 24
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cmd_run(path) == 1
    assert cmd_verify(path) == 1
    err = capsys.readouterr().err
    assert err.count("error: Slater vector is not strictly feasible") == 2


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("key, value", [("r", 1e200), ("probe_mu", 1e200), ("probe_mu", 1e308)],
                         ids=["r_1e200", "probe_mu_1e200", "probe_mu_1e308"])
def test_radius_with_an_overflowing_square_is_a_setup_error(tmp_path, capsys, monkeypatch,
                                                            command, key, value):
    # the bounds square the radius: a square that overflows would end in a
    # traceback, and an infinite radius would pass every bound check and
    # write "radius": Infinity, which is not JSON, into summary.json.  The
    # radius is r, or without one the threshold; the CLI probes that at the
    # zero dual, so the probe cases move its one probe to mu = value, where
    # q is huge (1e200) or sums beyond the float range (1e308)
    path, cfg = small_config(tmp_path, K=5)
    if key == "r":
        cfg["r"] = value
    else:
        threshold = cli.dual_set_threshold
        monkeypatch.setattr(cli, "dual_set_threshold", lambda instance, slater, probe: threshold(
            instance, slater, cb.DualPoint(value, probe.G)))
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the projection radius") and "square is not finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_probe_mu_is_an_unknown_field(tmp_path, capsys, command):
    # the dual sets are probed at the zero dual; the probe is no option
    path, cfg = small_config(tmp_path, K=5)
    cfg["probe_mu"] = 0.5
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, path]) == 2
    assert capsys.readouterr().err == "error: unknown field config.probe_mu\n"
    assert not (tmp_path / "out").exists()


def test_bound_columns_beyond_the_float_range_are_violations(tmp_path):
    # at alpha = 1e-320 every primal bound is beyond the float range: the
    # columns hold inf without a warning, and every row counts as broken.
    # The node kernel's C/S overflows harmlessly at such tiny duals (its
    # minimizer clips to the box), also without a warning
    runs = [{"solver": "cobadd", "alpha": 1e-320, "phi": phi, "K": 60} for phi in (1, 4)]
    path, _ = small_config(tmp_path, runs=runs)
    assert main(["run", path]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for run in summary["runs"]:
        v = run["bound_violations"]
        assert v["primal_upper"] == v["primal_lower"] == 60


@pytest.mark.parametrize("command", ["run", "verify"])
def test_solve_error_is_an_error_line(tmp_path, capsys, monkeypatch, command):
    # an error raised while a run is solved ends in error: and exit 1, not a traceback
    def failing(*args, **kwargs):
        raise ConfigurationError("non-finite Lagrangian evaluation inside a box")

    monkeypatch.setattr(cli, "cobadd_solve", failing)
    path, _ = small_config(tmp_path, K=5)
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite Lagrangian evaluation inside a box\n"
    assert not (tmp_path / "out" / "summary.json").exists()


def _lmi_config(tmp_path, runs):
    """verify_lmi's instance and two-node graph (one edge) with these runs."""
    path = tmp_path / "lmi.json"
    path.write_text(json.dumps({
        "instance": {"builtin": "lmi"}, "graph": {"n": 2, "avg_degree": 1.0, "seed": 0},
        "runs": runs, "output_dir": str(tmp_path / "o")}))
    return str(path)


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("phi", [2**61, 2**62])
def test_message_count_beyond_int64_is_an_error_line(tmp_path, capsys, command, phi):
    # K phi 2|E| = 2**63 messages at phi = 2**61: messages_cum wrapped to
    # -2**63 and the run exited 0; at 2**62 it ended in a traceback
    path = _lmi_config(tmp_path, [{"solver": "cobadd", "alpha": 0.5, "phi": phi, "K": 2}])
    assert main([command, path]) == 1
    assert capsys.readouterr().err == \
        f"error: phi={phi}: K * phi * 2|E| messages exceed the int64 range of messages_cum\n"
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_alpha_whose_beta0_overflows_is_an_error_line(tmp_path, capsys, command):
    # at alpha = 1e308, beta0 = 10 alpha M is inf and p NaN: under warnings
    # as errors the bounds ended in a traceback, and without them run wrote
    # a NaN beta_k column and verify passed the agreement bound against it
    path = _lmi_config(tmp_path, [{"solver": "cobadd", "alpha": 1e308, "phi": 1, "K": 5}])
    assert main([command, path]) == 1
    out, err = capsys.readouterr()
    assert err == "error: alpha=1e+308: beta0 = 10 alpha M is not finite\n"
    assert "agreement bound" not in out
    assert not (tmp_path / "o" / "summary.json").exists()


def _dense_config(tmp_path, runs):
    """verify_dense's instance and graph with these runs."""
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    with open(os.path.join(root, "verify_dense.json")) as fh:
        doc = json.load(fh)
    doc["runs"], doc["output_dir"] = runs, str(tmp_path / "o")
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("config", ["dense", "lmi"])
def test_master_node_at_a_huge_stepsize_fails_its_sandwich(tmp_path, capsys, config):
    # the unbounded baseline's bound cells beyond the float range read inf
    # and break the sandwich: at 1e200 and 1e300 the realized norms'
    # squares ended in an OverflowError traceback, and at 1e308 on the LMI
    # instance the projection's overflow in a + c did under warnings as errors
    pairs = ((1e200, 300), (1e300, 300)) if config == "dense" else ((1e308, 5),)
    runs = [{"solver": "centralized", "bounded": False, "alpha": a, "K": K} for a, K in pairs]
    path = (_dense_config if config == "dense" else _lmi_config)(tmp_path, runs)
    assert main(["run", path]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert all(run["bound_violations"]["primal_upper"] == run["K"] for run in summary["runs"])
    assert main(["verify", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1:3] for line in fails] == [["baseline", "sandwich"]] * len(runs)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_master_dual_is_an_error_line(tmp_path, capsys, command):
    # at alpha = 1e308 the unbounded master node's mu overflows to inf in
    # its first update; under warnings as errors, as CI runs the configs,
    # the next oracle pass ended in a RuntimeWarning traceback from mu * c_g
    path = _dense_config(tmp_path, [{"solver": "centralized", "alpha": 1e308, "K": 5,
                                     "bounded": False}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, path]) == 1
    assert capsys.readouterr().err == \
        "error: minimize_node_lagrangians needs every mu and G entry finite\n"


def test_cmd_run_writes_traces_and_summary(tmp_path):
    path, cfg = small_config(tmp_path)
    assert main(["run", path]) == 0
    out = cfg["output_dir"]
    files = sorted(os.listdir(out))
    assert "summary.json" in files
    assert "cobadd_phi1_alpha1.csv" in files
    assert "central_alpha1.csv" in files
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["f_star_oracle"] == "dual_bisection"
    assert len(summary["runs"]) == 3
    for run in summary["runs"]:
        assert run["bound_violations"]["weak_duality"] == 0
        assert run["bound_violations"]["primal_upper"] == 0
        assert run["bound_violations"]["primal_lower"] == 0
    cols = np.genfromtxt(os.path.join(out, "cobadd_phi1_alpha1.csv"), delimiter=",", names=True)
    assert len(cols["k"]) == 60
    assert np.all(np.diff(cols["messages_cum"]) >= 0)


def test_csv_schema_header_is_stable(tmp_path):
    path, cfg = small_config(tmp_path, K=5)
    assert cmd_run(path) == 0
    csv_path = os.path.join(cfg["output_dir"], "cobadd_phi1_alpha1.csv")
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n")
    assert header == ",".join(TRACE_COLUMNS)
    assert header == ("k,f_ergodic,viol_ineq,viol_lmi,q_best_node,q_mean,"
                      "disagreement,messages_cum,bound_upper,bound_lower,beta_k")


@pytest.mark.parametrize("r", [None, 5.0])
def test_build_setup_evaluates_the_probe_once(tmp_path, monkeypatch, r):
    # the default r and the dual sets' threshold come from one q(probe)
    path, cfg = small_config(tmp_path)
    if r is not None:
        cfg["r"] = r
        with open(path, "w") as fh:
            json.dump(cfg, fh)
    calls = []
    value = cb.problem.dual_function_value
    monkeypatch.setattr(cb.problem, "dual_function_value",
                        lambda *args: calls.append(args) or value(*args))
    setup = cli.build_setup(load_config(path))
    assert len(calls) == 1
    threshold = setup.sets.threshold
    slater = cb.slater_certificate(setup.instance, np.zeros(setup.instance.n))
    q_probe = value(setup.instance, cb.DualPoint(0.0))
    assert threshold == (slater.fxbar - q_probe) / slater.gamma > 0
    assert setup.sets.r == (threshold if r is None else r)


def test_csv_text_matches_per_cell_writer():
    # the column-wise writer renders every cell as the per-cell loop does:
    # str(int(v)) for k and messages_cum, repr(float(v)) for the rest
    K = 7
    big = [1.7976931348623157e308, -5e-324, 2.2250738585072014e-308, 1e16, -0.0,
           0.1, 123456789.0]
    tr = cb.RunTrace(k=np.arange(1, K + 1), f_ergodic=np.array(big),
                     viol_ineq=np.zeros(K), viol_lmi=np.full(K, -0.0),
                     q_best_node=-np.array(big), q_mean=np.linspace(-1.0, 1.0, K),
                     disagreement=np.array(big[::-1]),
                     messages_cum=np.arange(K, dtype=np.int64) * 2**40,
                     bound_upper=np.full(K, np.inf), bound_lower=np.array(big) / 3.0,
                     beta_k=np.array([np.nan, 1.0, np.nan, -0.0, 3e-300, np.nan, 2.5]),
                     mu_disagreement=np.zeros(K), G_disagreement=np.zeros(K),
                     final_mus=np.zeros(1), final_Gs=np.zeros((1, 0, 0)))
    lines = [",".join(TRACE_COLUMNS)]
    for row in range(K):
        lines.append(",".join(
            str(int(getattr(tr, name)[row])) if name in ("k", "messages_cum")
            else repr(float(getattr(tr, name)[row])) for name in TRACE_COLUMNS))
    assert tr.to_csv_text() == "\n".join(lines) + "\n"
    assert ",nan\n" in tr.to_csv_text() and ",-0.0," in tr.to_csv_text()


def test_wrapped_messages_cum_is_refused():
    # np.diff wraps on int64, so [2**62, -2**63] read as an increase of 2**62
    cols = dict.fromkeys(TRACE_COLUMNS + ("mu_disagreement", "G_disagreement"), np.zeros(2))
    cols.update(k=np.arange(1, 3), messages_cum=np.array([2**62, -2**63]))
    with pytest.raises(ValueError, match="messages_cum must be nondecreasing"):
        cb.RunTrace(**cols, final_mus=np.zeros(1), final_Gs=np.zeros((1, 0, 0)))


def test_cmd_run_deterministic_outputs(tmp_path):
    path, cfg = small_config(tmp_path, K=40)
    assert cmd_run(path, out_override=str(tmp_path / "a")) == 0
    assert cmd_run(path, out_override=str(tmp_path / "b")) == 0
    for name in ("cobadd_phi1_alpha1.csv", "cobadd_phi4_alpha1.csv",
                 "central_alpha1.csv", "summary.json"):
        with open(tmp_path / "a" / name, "rb") as fh:
            blob_a = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, name


def test_output_dir_naming_a_file_is_an_error(tmp_path, capsys):
    # os.makedirs raises FileExistsError, which ends in error:, not a traceback
    path, _ = small_config(tmp_path, K=5)
    (tmp_path / "out").write_text("")
    assert cmd_run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "File exists" in err


def test_empty_out_flag_is_an_error(tmp_path, capsys):
    # an explicit --out "" names no directory; it does not fall back to
    # the config's output_dir
    path, _ = small_config(tmp_path, K=5)
    assert main(["run", path, "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_run_name_too_long_for_a_file_is_an_error(tmp_path, capsys):
    path, _ = small_config(tmp_path, runs=[{"solver": "cobadd", "alpha": 1.0, "K": 5,
                                            "name": "x" * 300}])
    assert cmd_run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "File name too long" in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_one_node_graph_is_a_config_error(tmp_path, capsys, command):
    # a one-node instance file matches graph.n = 1, which no connected
    # graph sampler or consensus matrix serves
    f, g = cb.ScalarFunction.affine(1.0, 0.0), cb.ScalarFunction.affine(1.0, -0.5)
    node = cb.NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0))
    inst_path = tmp_path / "one.json"
    inst_path.write_text(json.dumps(cb.instance_to_json(cb.ProblemInstance((node,)))))
    path = tmp_path / "one_cfg.json"
    path.write_text(json.dumps({
        "instance": {"path": str(inst_path)}, "graph": {"n": 1, "avg_degree": 1.0, "seed": 0},
        "runs": [{"solver": "cobadd", "alpha": 0.5, "K": 5}],
        "output_dir": str(tmp_path / "o"), "slater_xbar": [0.0]}))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "graph.n must be an integer >= 2" in err


def zero_f_star_config(tmp_path, K):
    """Two nodes with f = x - 1/2 and g = 1/2 - x on [0, 1]: f* = 0, and the
    first oracle pass, at mu = 0, costs -1."""
    f, g = cb.ScalarFunction.affine(1.0, -0.5), cb.ScalarFunction.affine(-1.0, 0.5)
    node = cb.NodeSpec(f, g, np.zeros((0, 0)), (0.0, 1.0))
    inst_path = tmp_path / "zero.json"
    inst_path.write_text(json.dumps(cb.instance_to_json(cb.ProblemInstance((node, node)))))
    cfg = {"instance": {"path": str(inst_path)},
           "graph": {"n": 2, "avg_degree": 1.0, "seed": 0},
           "runs": [{"solver": "cobadd", "alpha": 0.5, "phi": 1, "K": K},
                    {"solver": "centralized", "alpha": 0.5, "K": K}],
           "output_dir": str(tmp_path / "zero_out"), "slater_xbar": [0.75, 0.75]}
    path = tmp_path / "zero_cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_zero_f_star_crossing_reads_the_absolute_error(tmp_path):
    # at f* = 0 the relative error is undefined and the 1% crossing is
    # read off the absolute error, not off zeros that put it at row 1
    assert cmd_run(zero_f_star_config(tmp_path, 400)) == 0
    summary = json.loads((tmp_path / "zero_out" / "summary.json").read_text())
    assert summary["f_star"] == 0.0
    for run in summary["runs"]:
        f = np.genfromtxt(tmp_path / "zero_out" / run["csv"], delimiter=",",
                          names=True)["f_ergodic"]
        assert abs(f[0]) > 0.01
        hits = np.nonzero(np.abs(f) <= 0.01)[0]
        assert hits.size and run["rel_error_1pct_k"] == hits[0] + 1, run["name"]


@pytest.mark.parametrize("corrupt, what", [
    (lambda doc: doc.update(A0=[math.nan, 0.0, 0.0, 1.5]), "A0"),
    (lambda doc: doc["nodes"][1].update(A=[0.0, 0.0, 0.0, math.inf]), "node matrix A"),
], ids=["A0_nan", "A_inf"])
def test_non_finite_instance_matrix_is_named(tmp_path, capsys, corrupt, what):
    # a NaN A0 used to end in "Slater vector is not strictly feasible"
    doc = cb.instance_to_json(cb.make_sample_lmi_instance())
    corrupt(doc)
    inst_path = tmp_path / "lmi.json"
    inst_path.write_text(json.dumps(doc))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "instance": {"path": str(inst_path)}, "graph": {"n": 2, "avg_degree": 1.0, "seed": 0},
        "runs": [{"solver": "cobadd", "alpha": 0.5, "phi": 1, "K": 5}],
        "output_dir": str(tmp_path / "o"), "slater_xbar": [0.0, 0.0]}))
    assert cmd_run(str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed instance file") and \
        f"{what} has non-finite entries" in err


def test_cmd_run_lmi_instance(tmp_path):
    cfg = {
        "instance": {"builtin": "lmi"},
        "graph": {"n": 2, "avg_degree": 1.0, "seed": 0},
        "runs": [{"solver": "cobadd", "alpha": 0.5, "phi": 1, "K": 50}],
        "output_dir": str(tmp_path / "lmi_out"),
    }
    path = tmp_path / "lmi.json"
    path.write_text(json.dumps(cfg))
    assert cmd_run(str(path)) == 0
    with open(tmp_path / "lmi_out" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["f_star_oracle"] == "grid_search_lmi"
    assert summary["f_star"] == 0.0
    assert summary["runs"][0]["final_error"] <= 1e-9


@pytest.mark.parametrize("command", [cmd_run, cmd_verify], ids=["run", "verify"])
def test_grid_too_large_for_ground_truth_is_an_error(tmp_path, capsys, command):
    # three lmi nodes on unit boxes make the grid oracle 1001^3 points at
    # step 1e-3; its refusal used to end in a traceback
    lmi = cb.make_sample_lmi_instance()
    doc = cb.instance_to_json(cb.ProblemInstance(lmi.nodes + lmi.nodes[:1], lmi.A0, 2))
    inst_path = tmp_path / "lmi3.json"
    inst_path.write_text(json.dumps(doc))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "instance": {"path": str(inst_path)}, "graph": {"n": 3, "avg_degree": 2.0, "seed": 0},
        "runs": [{"solver": "cobadd", "alpha": 0.5, "phi": 1, "K": 5}],
        "output_dir": str(tmp_path / "o")}))
    assert command(str(path)) == 1
    assert capsys.readouterr().err == \
        "error: grid of 1003003001 points is too large; coarsen step\n"


def _path_and_builtin_summaries(tmp_path, doc):
    """Run small_config's runs on the instance file ``doc`` and on the builtin
    num instance (n = 24, seed 3); assert their traces are equal, and
    return both summaries without their config names."""
    inst_path = tmp_path / "num24.json"
    inst_path.write_text(json.dumps(doc))
    summaries = {}
    for name, spec in (("path", {"path": str(inst_path)}),
                       ("builtin", {"builtin": "num", "n": 24, "seed": 3})):
        _, cfg = small_config(tmp_path, out_name=name, K=30)
        cfg["instance"] = spec
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cmd_run(str(cfg_path)) == 0
        with open(tmp_path / name / "summary.json") as fh:
            summaries[name] = json.load(fh)
    for name in ("cobadd_phi1_alpha1.csv", "cobadd_phi4_alpha1.csv", "central_alpha1.csv"):
        assert (tmp_path / "path" / name).read_bytes() == \
            (tmp_path / "builtin" / name).read_bytes(), name
    assert summaries["path"].pop("config") == "path.json"
    assert summaries["builtin"].pop("config") == "builtin.json"
    return summaries["path"], summaries["builtin"]


def test_path_instance_runs_like_its_builtin(tmp_path):
    # an instance read back from its JSON file gives the builtin's runs
    doc = cb.instance_to_json(cb.make_sample_num_instance(24, 3))
    from_path, from_builtin = _path_and_builtin_summaries(tmp_path, doc)
    assert from_path == from_builtin


def test_path_instance_without_meta_takes_the_zero_slater_point(tmp_path):
    # the Slater point defaults to zero whatever the instance file's meta says
    doc = cb.instance_to_json(cb.make_sample_num_instance(24, 3))
    doc["meta"] = {}
    from_path, from_builtin = _path_and_builtin_summaries(tmp_path, doc)
    assert from_path.pop("instance") == {}
    assert from_builtin.pop("instance")["builtin"] == "num"
    assert from_path == from_builtin


def _break_box(doc):
    doc["nodes"][0]["box"] = [1.0, 0.0]


def _drop_slope(doc):
    doc["nodes"][0]["f"] = {"kind": "linear"}


def _unknown_kind(doc):
    doc["nodes"][0]["g"]["kind"] = "quad"


# coefficients a kind does not take, and unknown keys, used to load
# silently as the kind's own function
def _linear_with_b(doc):
    doc["nodes"][0]["f"] = {"kind": "linear", "a": 1, "b": 5}


def _neg_log_with_a(doc):
    doc["nodes"][0]["f"] = {"kind": "neg_log", "c": 1, "a": 2}


def _unknown_key(doc):
    doc["nodes"][0]["f"] = {"kind": "linear", "a": 1, "slope": 9}


# keys and box entries instance_to_json never writes are errors, not
# dropped without a word
def _three_entry_box(doc):
    doc["nodes"][0]["box"] = [0.0, 1.0, 5.0]


def _unknown_node_key(doc):
    doc["nodes"][0]["extra"] = 1


def _unknown_top_key(doc):
    doc["bogus"] = 1


# numbers instance_to_json never writes used to load as other numbers: a
# fractional d rounded down, a string parsed, a bool read as 0 or 1
def _fractional_d(doc):
    doc["d"] = 0.5


def _string_coefficient(doc):
    doc["nodes"][0]["f"]["a"] = str(doc["nodes"][0]["f"]["a"])


def _bool_in_box(doc):
    doc["nodes"][0]["box"] = [False, 1.0]


def _string_in_A0(doc):
    doc.update(d=1, A0=["1.5"])
    for nd in doc["nodes"]:
        nd["A"] = [0.0]


def _integer_beyond_floats(doc):
    doc["nodes"][0]["f"]["a"] = 10**400


@pytest.mark.parametrize("command", [cmd_run, cmd_verify])
@pytest.mark.parametrize("corrupt", [_break_box, _drop_slope, _unknown_kind, None,
                                     _linear_with_b, _neg_log_with_a, _unknown_key,
                                     _three_entry_box, _unknown_node_key, _unknown_top_key,
                                     _fractional_d, _string_coefficient, _bool_in_box,
                                     _string_in_A0, _integer_beyond_floats],
                         ids=["empty_box", "missing_a", "unknown_kind", "not_json",
                              "linear_with_b", "neg_log_with_a", "unknown_key",
                              "three_entry_box", "unknown_node_key", "unknown_top_key",
                              "fractional_d", "string_coefficient", "bool_in_box",
                              "string_in_A0", "integer_beyond_floats"])
def test_malformed_instance_file_is_a_config_error(tmp_path, capsys, command, corrupt):
    doc = cb.instance_to_json(cb.make_sample_num_instance(24, 4))
    inst_path = tmp_path / "instance.json"
    if corrupt is None:
        inst_path.write_text(json.dumps(doc)[:-1])
    else:
        corrupt(doc)
        inst_path.write_text(json.dumps(doc))
    path, cfg = small_config(tmp_path, K=5)
    cfg["instance"] = {"path": str(inst_path)}
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert command(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed instance file") and str(inst_path) in err


def test_planted_oracle_cache_is_not_read(tmp_path):
    # f* comes from the oracle on every run: an oracle_cache.json in the
    # output directory, keyed as earlier versions keyed their cache, is
    # neither read nor rewritten
    path, _ = small_config(tmp_path, K=5)
    instance = cb.make_sample_num_instance(24, 4)
    doc = cb.instance_to_json(instance)
    del doc["meta"]
    key = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    out = tmp_path / "planted"
    out.mkdir()
    planted = out / "oracle_cache.json"
    planted.write_text(json.dumps({key.hexdigest() + ":dual_bisection:1e-10": {
        "f_star": 123.0, "x_star": [0.0] * 24, "mu_star": None, "certificate": {}}}))
    before = planted.read_bytes()
    assert cmd_run(path, out_override=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["f_star"] == cb.dual_bisection(instance, 1e-10).f_star
    assert summary["f_star_oracle"] == "dual_bisection"
    assert planted.read_bytes() == before
    assert sorted(os.listdir(out)) == sorted(
        ["oracle_cache.json", "summary.json", "cobadd_phi1_alpha1.csv",
         "cobadd_phi4_alpha1.csv", "central_alpha1.csv"])


def test_first_crossing_uses_absolute_relative_error(tmp_path):
    # f* = -10 and the early ergodic iterates are infeasible with f < f*,
    # which a signed (f* - f)/f* counts as crossing 1% at k = 1
    cfg = {
        "instance": {"builtin": "num", "n": 100, "seed": 42},
        "graph": {"n": 100, "avg_degree": 3.12, "seed": 7},
        "runs": [{"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": 200}],
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cmd_run(str(path)) == 0
    with open(tmp_path / "o" / "summary.json") as fh:
        run = json.load(fh)["runs"][0]
    assert run["rel_error_1pct_k"] == 169
    assert run["messages_at_1pct"] == 55094
    cols = np.genfromtxt(tmp_path / "o" / "cobadd_phi1_alpha1.csv", delimiter=",", names=True)
    assert run["viol_ineq_at_1pct"] == cols["viol_ineq"][168]


def test_verify_dense_config_applies_every_theorem(capsys):
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    assert cmd_verify(os.path.join(root, "verify_dense.json")) == 0
    out = capsys.readouterr().out
    assert "SKIP" not in out
    assert out.count("PASS               agreement bound") == 2
    assert out.count("PASS               primal sandwich") == 2


def test_verify_lmi_config_passes_every_check(capsys):
    # the d = 2 config reaches every projection on the matrix path and
    # keeps phi >= phibar, so no check is skipped
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    assert cmd_verify(os.path.join(root, "verify_lmi.json")) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "SKIP" not in out
    assert out.count("PASS               agreement bound") == 2
    assert out.count("PASS               baseline sandwich") == 2


def test_cmd_verify_passes_on_good_config(tmp_path, capsys):
    path, _ = small_config(tmp_path, K=30)
    assert cmd_verify(path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_cmd_verify_reports_conditional_skips(tmp_path, capsys):
    # a sparse graph keeps phi=1 far below phibar: agreement checks skip
    cfg = {
        "instance": {"builtin": "num", "n": 100, "seed": 42},
        "graph": {"n": 100, "avg_degree": 3.12, "seed": 7},
        "runs": [{"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": 30}],
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cmd_verify(str(path)) == 0
    out = capsys.readouterr().out
    assert "SKIP (conditional)" in out


def _outside_ball(trace, sets):
    return dataclasses.replace(trace, final_Gs=trace.final_Gs + 2.0 * sets.radius * np.eye(2))


def _not_psd(trace, sets):
    m = len(trace.final_mus)
    return dataclasses.replace(trace, final_Gs=np.stack([np.diag([0.1, -1e-6])] * m))


def _mu_negative(trace, sets):
    return dataclasses.replace(trace, final_mus=np.r_[-1e-6, np.zeros(len(trace.final_mus) - 1)])


@pytest.mark.parametrize("corrupt", [_outside_ball, _not_psd, _mu_negative])
def test_cmd_verify_fails_on_duals_outside_the_sets(tmp_path, capsys, monkeypatch, corrupt):
    # the set-membership check reads mu >= 0, PSD and ||G_i||_F <= radius,
    # not only mu <= radius, for CoBa-DD's m = 2 stacks and for the
    # master node's m = 1 stacks alike
    cfg = {
        "instance": {"builtin": "lmi"},
        "graph": {"n": 2, "avg_degree": 1.0, "seed": 0},
        "runs": [{"solver": "cobadd", "alpha": 0.5, "phi": 1, "K": 20, "name": "cobadd"},
                 {"solver": "centralized", "alpha": 0.5, "K": 20, "name": "central"}],
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "lmi.json"
    path.write_text(json.dumps(cfg))
    solve = cli._solve_runs
    monkeypatch.setattr(cli, "_solve_runs", lambda runs, setup:
                        [corrupt(trace, setup.sets) for trace in solve(runs, setup)])
    assert cmd_verify(str(path)) == 1
    out = capsys.readouterr().out
    assert "FAIL               dual iterates inside sets (cobadd)" in out
    assert "FAIL               dual iterates inside sets (central)" in out
    assert out.count("FAIL") == 2


def test_cmd_verify_fails_on_a_baseline_above_weak_duality(tmp_path, capsys, monkeypatch):
    # weak duality is checked on the master node's rows as on CoBa-DD's
    solve = cli._solve_runs

    def planted(runs, setup):
        (trace,) = solve(runs, setup)
        q = trace.q_best_node.copy()
        q[-1] = setup.oracle.f_star + 2e-7
        return [dataclasses.replace(trace, q_best_node=q)]

    monkeypatch.setattr(cli, "_solve_runs", planted)
    path, _ = small_config(tmp_path, runs=[{"solver": "centralized", "alpha": 1.0, "K": 30}])
    assert cmd_verify(path) == 1
    out = capsys.readouterr().out
    assert "FAIL               weak duality (central_alpha1)" in out
    assert out.count("FAIL") == 1


def test_infinite_bounds_fail_the_primal_sandwich(tmp_path, capsys):
    # at r = 1e153 the radius squares to a finite value, but the CoBa-DD
    # bounds overflow to inf, which no row can break; such a bound counts
    # as broken on every row, so verify fails and run reports the rows
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    with open(os.path.join(root, "verify_dense.json")) as fh:
        cfg = json.load(fh)
    cfg.update(r=1e153, output_dir=str(tmp_path / "o"))
    path = tmp_path / "dense_r.json"
    path.write_text(json.dumps(cfg))
    assert cmd_verify(str(path)) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL               primal sandwich") == 2
    assert out.count("FAIL") == 2
    assert cmd_run(str(path)) == 0
    with open(tmp_path / "o" / "summary.json") as fh:
        runs = json.load(fh)["runs"]
    for run in runs:
        v = run["bound_violations"]
        rows = 300 if run["solver"] == "cobadd" else 0
        assert (v["primal_upper"], v["primal_lower"]) == (rows, rows), run["name"]


def test_bound_violations_counts_rows_of_a_run_the_theorems_do_not_cover(tmp_path):
    # phi = 1 on the sparse 24-node graph is below phibar: the primal
    # rows are still counted, and the agreement envelope is not
    cfg = load_config(small_config(tmp_path, runs=[
        {"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": 40}])[0])
    setup = cli.build_setup(cfg)
    (trace,) = cli._solve_runs(cfg.runs, setup)
    assert not trace.bounds.agreement_applicable
    f_star = setup.oracle.f_star
    v = cli._bound_violations(trace, f_star)
    assert (v["primal_upper"], v["primal_lower"], v["applicable"]) == (0, 0, False)
    f = trace.f_ergodic.copy()
    f[7] = f_star + trace.bound_upper[7] + 1e-6
    f[9] = f_star - trace.bound_lower[9] - 1e-6
    v = cli._bound_violations(dataclasses.replace(trace, f_ergodic=f), f_star)
    assert (v["primal_upper"], v["primal_lower"], v["disagreement"]) == (1, 1, 0)


NEIGHBOURS = cb.ConsensusMatrix.neighbours.func


def _perturbed_neighbours(W):
    cols, starts, weights = NEIGHBOURS(W)
    weights = weights.copy()
    weights[1] += 1e-3
    return cols, starts, weights


def sparse_config(tmp_path, K):
    """One phi = 3 run on a 300-node graph of average degree 6, where
    n^2 / (n + 2|E|) is about 43, so every round takes edge-list steps."""
    cfg = {
        "instance": {"builtin": "num", "n": 300, "seed": 1},
        "graph": {"n": 300, "avg_degree": 6.0, "seed": 2},
        "runs": [{"solver": "cobadd", "alpha": 1.0, "phi": 3, "K": K}],
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cmd_verify_fails_on_a_perturbed_neighbour_weight(tmp_path, capsys, monkeypatch):
    # the run mixes over W's neighbours; verify checks that operator, not
    # a product by W^phi
    path = sparse_config(tmp_path, 20)
    assert cmd_verify(path) == 0
    assert "PASS               consensus round (cobadd_phi3_alpha1)" in capsys.readouterr().out
    monkeypatch.setattr(cb.ConsensusMatrix, "neighbours", property(_perturbed_neighbours))
    assert cmd_verify(path) == 1
    assert "FAIL               consensus round (cobadd_phi3_alpha1)" in capsys.readouterr().out


def test_cmd_verify_checks_the_operator_its_run_mixes_with(tmp_path, capsys, monkeypatch):
    # both the K = 500 run and the consensus-round check take edge-list
    # steps and build no W^phi
    monkeypatch.setattr(cb.ConsensusMatrix, "power", lambda W, phi: pytest.fail("W^phi"))
    assert cmd_verify(sparse_config(tmp_path, 500)) == 0
    assert "PASS               consensus round (cobadd_phi3_alpha1)" in capsys.readouterr().out


def test_cmd_verify_solves_each_run_at_its_configured_K(tmp_path, monkeypatch):
    # verify checks the rows run records, not a prefix of them
    recorded = []

    def recording(solve):
        def wrapped(*args, **kwargs):
            trace = solve(*args, **kwargs)
            recorded.append(len(trace.k))
            return trace
        return wrapped

    for name in ("cobadd_solve", "central_solve"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    path, _ = small_config(tmp_path, runs=[{"solver": "cobadd", "alpha": 1.0, "K": 310},
                                           {"solver": "centralized", "alpha": 1.0, "K": 310}])
    assert cmd_verify(path) == 0
    assert recorded == [310, 310]


@pytest.mark.parametrize("command", [cmd_run, cmd_verify], ids=["run", "verify"])
def test_cobadd_runs_of_one_K_are_one_solve_call(tmp_path, monkeypatch, command):
    # the CoBa-DD runs of one K go to a single cobadd_solve call, with
    # every stepped and recorded row inside it, and the baseline is
    # solved on its own; each run still gets its own trace
    calls = []
    solve = cli.cobadd_solve

    def counting(*args, **kwargs):
        calls.append(args[2:])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "cobadd_solve", counting)
    runs = [{"solver": "cobadd", "alpha": 1.0, "phi": 1, "K": 40},
            {"solver": "centralized", "alpha": 1.0, "K": 40},
            {"solver": "cobadd", "alpha": 0.5, "phi": 4, "K": 40},
            {"solver": "cobadd", "alpha": 0.2, "phi": 1, "K": 40}]
    path, _ = small_config(tmp_path, runs=runs)
    assert command(path) == 0
    assert len(calls) == 1
    assert [(c.alpha, c.phi, c.K) for c in calls[0]] == [(1.0, 1, 40), (0.5, 4, 40),
                                                          (0.2, 1, 40)]


def test_bundled_fig_configs_parse_to_figure_curve_set():
    # the bundled config reproduces the five-curve replication family
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = load_config(os.path.join(root, "fig1.json"))
    assert cfg.instance == {"builtin": "num", "n": 100, "seed": 42}
    assert cfg.graph == {"n": 100, "avg_degree": 3.12, "seed": 7}
    combos = {(r.alpha, r.phi) for r in cfg.runs}
    assert combos == {(1.0, 1), (1.0, 2), (1.0, 4), (1.0, 26), (0.1, 1)}
    assert all(r.K == 2000 and r.solver == "cobadd" for r in cfg.runs)
    assert sorted(os.listdir(root)) == ["fig1.json", "scale_n1000.json", "verify_dense.json",
                                        "verify_lmi.json"]


def test_bundled_scale_config_takes_edge_list_steps(monkeypatch):
    # the n = 1000 config holds the n1000 benchmark workload's seed-0
    # inputs, and its run mixes over W's neighbours, building no W^phi
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = load_config(os.path.join(root, "scale_n1000.json"))
    assert cfg.instance == {"builtin": "num", "n": 1000, "seed": 42}
    assert cfg.graph == {"n": 1000, "avg_degree": 8.0, "seed": 7}
    [run] = cfg.runs
    assert (run.solver, run.alpha, run.phi, run.K) == ("cobadd", 1.0, 4, 100)
    graph = cb.random_connected_graph(1000, 8.0, 7)
    assert graph.edge_count == 3947
    W = cb.metropolis_weights(graph)
    monkeypatch.setattr(cb.ConsensusMatrix, "power", lambda W, phi: pytest.fail("W^phi"))
    cb.consensus_round(W, np.ones((1000, 1)), run.phi)
    assert "neighbours" in vars(W)


def test_corrupted_weights_fail_conditions_check(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    bad = W.W.copy()
    bad[0, 0] += 0.1
    problems = cb.check_consensus_conditions(bad, fig_graph)
    assert problems  # negative control: the verify suite would report FAIL
