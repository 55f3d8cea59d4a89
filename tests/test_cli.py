import csv
import hashlib
import json

import numpy as np
import pytest

from infomarkets import (Belief, InformationModel, LatencyFamily, ReportVector,
                         ScoreSequence, ScoringRule, StrategyProfile, TimeValue, TimedReport,
                         fpm_run, mvp_equilibrium, mvp_run, mvp_welfare, simulate,
                         truthful_report)
from infomarkets import cli, experiments
from infomarkets.cli import main
from infomarkets.errors import NumericalError
from infomarkets.fpm import BatchOutcomeReport


#: sha256 of each default figure table: any change to a figure's bytes shows here
FIGURE_SHA256 = {
    "fig_original": "bdbd1e7f508bd7e163bd9db5073ce441d3fcb313591882c5c563e20340208031",
    "fig_late": "0976cabad09b55e013553afa41e5fcb2cf51695ac1112938c5e75fe28a22c788",
    "fig_eas": "84681410f9e28be329fecebd6cd0df1c41aa6ec9127bb1ffcc20847b0dbbb32e",
    "fig_noise": "2477cee7ebc0bccc9756a6d5b51a1ad56ac637e2f8c5bb25540d3494916db838",
    "fig_subst": "0d2083083d410344a62b039e66e6d841223f2ef27fd03010940d6fda2bebf1bd",
    "fig_welfare_heatmap": "ac4ea2ba9ef9a78137eface3662b67c23f62099bb2feee7564b01c9047d45eb2",
}


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestFigure:
    def test_fig_eas_reference_rows(self, tmp_path):
        assert main(["figure", "fig_eas", "--out", str(tmp_path)]) == 0
        rows = {float(r["lambda"]): r for r in read_csv(tmp_path / "fig_eas.csv")}
        assert float(rows[1.0]["mvp_effort"]) == pytest.approx(0.290773, abs=1e-5)
        assert float(rows[15.0]["mvp_effort"]) == pytest.approx(0.229687, abs=1e-5)
        assert all(float(r["pm_effort"]) == 0.25 for r in rows.values())
        assert (tmp_path / "fig_eas_manifest.json").exists()

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_rerun_is_byte_identical(self, tmp_path, name):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            assert main(["figure", name, "--out", str(out)]) == 0
        table = (a_dir / f"{name}.csv").read_bytes()
        assert table == (b_dir / f"{name}.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == FIGURE_SHA256[name]

    def test_fig_late_reference_rows(self, tmp_path):
        assert main(["figure", "fig_late", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fig_late.csv")
        scores = [float(r["expected_score"]) for r in rows]
        assert scores[:3] == pytest.approx([0.9608, 0.962456, 0.96656], abs=1e-5)
        rewards = [float(r["marginal_reward"]) for r in rows]
        assert int(np.argmax(rewards)) == 3

    def test_residual_columns_certify_solutions(self, tmp_path):
        assert main(["figure", "fig_subst", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fig_subst.csv")
        residual_cols = [c for c in rows[0] if "residual" in c]
        assert residual_cols
        for row in rows:
            for col in residual_cols:
                assert float(row[col]) <= 1e-8

    def test_fig_subst_reference_rows(self, tmp_path):
        assert main(["figure", "fig_subst", "--out", str(tmp_path)]) == 0
        rows = {float(r["v1"]): r for r in read_csv(tmp_path / "fig_subst.csv")}
        assert float(rows[1.0]["mvp_effort_lam_1"]) == 0.0
        assert float(rows[2.0]["mvp_effort_lam_1"]) == pytest.approx(
            0.207107, abs=1e-5)

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "fig_everything"]) == 2
        capsys.readouterr()

    def test_figure_requires_a_name_or_config(self, capsys):
        assert main(["figure"]) == 2
        capsys.readouterr()

    def test_config_file_drives_fig_eas(self, tmp_path):
        cfg = {"experiment": "fig_eas",
               "parameters": {"v": [0.0, 2.0, 3.0], "n": 2,
                              "lambda_grid": [1.0, 2.0]},
               "output_path": str(tmp_path)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["figure", "--config", str(cfg_path)]) == 0
        rows = read_csv(tmp_path / "fig_eas.csv")
        assert float(rows[0]["mvp_effort"]) == pytest.approx(0.290773, abs=1e-5)
        v, h = ScoreSequence(np.array([0.0, 2.0, 3.0])), TimeValue.exponential(1.0)
        for row, lam in zip(rows, (1.0, 2.0), strict=True):
            latency = LatencyFamily.exponential(lam)
            effort = mvp_equilibrium(latency, h, v, 2).effort
            assert row["mvp_welfare"] == experiments.format_number(
                mvp_welfare(latency, h, v, 2, effort))

    @pytest.mark.parametrize("parameters, needle", [
        ({"lamda_grid": [1.0]}, "lamda_grid"),
        ([{"lambda_grid": [1.0]}], "must be an object"),
    ], ids=["misspelled", "not_an_object"])
    def test_unknown_parameter_is_usage_error(self, tmp_path, capsys,
                                              parameters, needle):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "fig_eas",
                                        "parameters": parameters,
                                        "output_path": str(out)}))
        assert main(["figure", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and needle in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters, needle", [
        ("fig_eas", {"n": 1}, "n=1"),
        ("fig_noise", {"beta_grid": [0.6]}, "beta=0.6"),
        ("fig_original", {"n_grid": [1]}, "n=1, lambda=3.0: n must be an integer"),
        ("fig_noise", {"n": 1}, "beta=0.0: n must be an integer of at least 2, got 1"),
    ], ids=["fig_eas_n", "fig_noise_beta", "fig_original_n", "fig_noise_n"])
    def test_bad_parameter_value_is_named(self, tmp_path, capsys, experiment,
                                          parameters, needle):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": experiment,
                                        "parameters": parameters}))
        assert main(["figure", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {experiment} ") and needle in err[0]

    def test_manifest_records_the_resolved_parameters(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "fig_eas",
                                        "parameters": {"lambda_grid": [1.0]}}))
        assert main(["figure", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig_eas_manifest.json").read_text())
        _, defaults = experiments._TABLE["fig_eas"]
        assert manifest["parameters"] == {**defaults, "lambda_grid": [1.0]}
        assert set(manifest["versions"]) == {"infomarkets", "python", "numpy"}

    @pytest.mark.parametrize("name", experiments.EXPERIMENTS)
    def test_runner_reads_every_default(self, name):
        runner, defaults = experiments._TABLE[name]
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        runner(Recording(defaults))
        assert read == set(defaults)

    def test_numerical_failure_exits_one(self, monkeypatch, tmp_path, capsys):
        import infomarkets.experiments as experiments

        def explode(*args, **kwargs):
            raise NumericalError("no bracket")

        monkeypatch.setattr(experiments, "mvp_equilibrium", explode)
        assert main(["figure", "fig_eas", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "lambda=0.5" in err  # the failing grid point is named


class TestSolve:
    def test_mvp_solution_json(self, capsys):
        assert main(["solve", "--setting", "mvp", "--lam", "2",
                     "--v", "0,2,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["effort"] == pytest.approx(0.364519, abs=1e-5)
        assert abs(payload["residual"]) <= 1e-8
        assert payload["corner"] is False
        eq = mvp_equilibrium(LatencyFamily.exponential(2.0), TimeValue.exponential(1.0),
                             ScoreSequence(np.array([0.0, 2.0, 3.0])), 2)
        assert payload["evaluations"] == eq.evaluations > 2

    def test_race_solution(self, capsys):
        assert main(["solve", "--setting", "pm_race", "--v", "0,2,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["effort"] == pytest.approx(0.25, abs=1e-10)

    def test_batch_solution(self, capsys):
        assert main(["solve", "--setting", "batch", "--access", "linear",
                     "--lam", "3", "--v", "0,1,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["effort"] == pytest.approx(2 / 9, abs=1e-9)

    def test_pm_batch_solution(self, capsys):
        assert main(["solve", "--setting", "pm_batch", "--access",
                     "exponential", "--lam", "3", "--n", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["welfare"] == pytest.approx(0.19814, abs=1e-4)

    @pytest.mark.parametrize("argv, message", [
        (["--setting", "mvp", "--n", "0"], "n must be an integer of at least 1, got 0"),
        (["--setting", "batch", "--n", "-1"], "n must be an integer of at least 1, got -1"),
        (["--setting", "pm_batch", "--n", "0"], "n must be an integer of at least 2, got 0"),
        (["--setting", "mvp", "--v", "0,x"], "--v: could not convert string to float: 'x'"),
        (["--setting", "pm_race", "--v", "1,2"], "--v: v_0 must be exactly 0, got 1.0"),
    ], ids=["mvp-n", "batch-n", "pm_batch-n", "v-entry", "v-start"])
    def test_bad_argument_is_named(self, capsys, argv, message):
        assert main(["solve", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulate:
    def test_config_driven_run(self, tmp_path, capsys):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "fpm",
               "rule": {"rule": "quadratic", "scale": 20},
               "access": {"kind": "exponential", "lambda": 3.0},
               "profile": {"efforts": [0.3, 0.3]},
               "trials": 2000, "seed": 11}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 2000
        assert payload["seed"] == 11
        assert len(payload["reward_mean"]) == 2

    def test_cli_overrides_trials_and_seed(self, tmp_path, capsys):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "mvp",
               "rule": {"rule": "quadratic"},
               "latency": {"lambda": 1.0}, "h": {"eta": 1.0},
               "profile": {"efforts": [0.3, 0.3],
                           "policies": [{"kind": "truthful"},
                                        {"kind": "delayed", "delay": 0.2}]},
               "trials": 50}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--trials", "700",
                     "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 700
        assert payload["seed"] == 4

    def test_per_trial_dump_closes_the_books(self, tmp_path, capsys):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "fpm",
               "rule": {"rule": "quadratic"},
               "access": {"kind": "exponential", "lambda": 3.0},
               "profile": {"efforts": [0.2, 0.4]},
               "trials": 60, "seed": 2}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        dump = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(path),
                     "--per-trial-csv", str(dump)]) == 0
        capsys.readouterr()
        rows = read_csv(dump)
        assert len(rows) == 60
        for row in rows[:10]:
            total = (float(row["principal_utility"])
                     + float(row["utility_0"]) + float(row["utility_1"]))
            assert float(row["welfare"]) == pytest.approx(total, abs=1e-8)

    def test_unknown_policy_key_is_usage_error(self, tmp_path, capsys):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "mvp",
               "rule": {"rule": "quadratic"},
               "latency": {"lambda": 1.0},
               "profile": {"efforts": [0.3, 0.3],
                           "policies": [{"kind": "truthful"},
                                        {"kind": "delayed", "delay_s": 0.5}]},
               "trials": 50}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "delay_s" in err[0]

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg.update(time_value=2.0), "time_value"),
        (lambda cfg: cfg["profile"].update(effort=0.3), "effort"),
        (lambda cfg: cfg["latency"].update(rate=2.0), "rate"),
        (lambda cfg: cfg.update(access={"kind": "linear", "lambda": 3.0,
                                        "lamda": 2.0}), "lamda"),
    ], ids=["top_level", "profile", "latency", "access"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, edit, key):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "mvp",
               "rule": {"rule": "quadratic"},
               "latency": {"lambda": 1.0},
               "profile": {"efforts": [0.3, 0.3]},
               "trials": 50}
        edit(cfg)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and key in err[0]

    def test_per_trial_dump_leaves_the_stats_unchanged(self, tmp_path):
        cfg = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
               "mechanism": "mvp",
               "rule": {"rule": "quadratic", "scale": 20},
               "latency": {"lambda": 1.0},
               "profile": {"efforts": [0.3, 0.5]},
               "trials": 3000, "seed": 6}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
        assert main(["simulate", "--config", str(path), "--out", str(plain)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(dumped),
                     "--per-trial-csv", str(tmp_path / "trials.csv")]) == 0
        assert plain.read_bytes() == dumped.read_bytes()
        stats = simulate(InformationModel.binary_noisy(0.1, 0.05), "mvp",
                         StrategyProfile((0.3, 0.5)), 3000, 6,
                         rule=ScoringRule("quadratic", 20.0),
                         latency=LatencyFamily.exponential(1.0))
        assert json.loads(plain.read_text()) == {**stats.to_json(), "seed": 6}


SIM_CFG = {"model": {"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05},
           "mechanism": "fpm",
           "rule": {"rule": "quadratic"},
           "access": {"kind": "exponential", "lambda": 3.0},
           "profile": {"efforts": [0.3, 0.3]},
           "trials": 50}


@pytest.mark.parametrize("command, cfg, message", [
    ("figure", {"parameters": {"n": 2}}, "figure config: missing key 'experiment'"),
    ("simulate", {k: v for k, v in SIM_CFG.items() if k != "model"},
     "simulate config: missing key 'model'"),
    ("simulate", {**SIM_CFG, "model": {"kind": "binary_noisy", "alpha": 0.1}},
     "binary_noisy model: missing key 'beta'"),
    ("simulate", {**SIM_CFG, "access": {"kind": "exponential"}},
     "access function: missing key 'lambda'"),
], ids=["figure_experiment", "simulate_model", "model_beta", "access_lambda"])
def test_missing_config_key_is_named(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), *(["--out", str(tmp_path)]
                                                  if command == "figure" else [])]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_one_outcome_model_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SIM_CFG, "model": {"kind": "table", "prior": [1.0],
                                                     "likelihood": [[0.5, 0.5]]}}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: prior must list at least 2 probabilities, got [1.]"]


@pytest.mark.parametrize("command, cfg, needle", [
    ("simulate", {**SIM_CFG, "h": "fast"}, "time value h"),
    ("simulate", {**SIM_CFG, "h": [1, 2]}, "time value h"),
    ("simulate", {**SIM_CFG, "h": True}, "time value h"),
    ("simulate", {**SIM_CFG, "profile": {"efforts": 5}}, "'efforts'"),
    ("simulate", {**SIM_CFG, "profile": {"efforts": [0.3], "policies": 5}},
     "'policies'"),
    ("figure", {"experiment": "fig_original", "parameters": {"n_grid": 5}}, "'n_grid'"),
    ("figure", {"experiment": "fig_noise", "parameters": {"lambdas": 3}}, "'lambdas'"),
    ("figure", {"experiment": "fig_eas", "parameters": {"eta": [1.0]}}, "'eta'"),
    ("simulate", {**SIM_CFG, "profile": {"efforts": [True, None]}}, "profile: 'efforts'"),
    ("simulate", {**SIM_CFG, "latency": {"lambda": [1]}}, "latency: 'lambda'"),
    ("simulate", {**SIM_CFG, "h": {"kind": "table", "times": 5, "values": 3}},
     "table time value: 'times'"),
    ("simulate", {**SIM_CFG, "rule": {"rule": ["quadratic"]}}, "scoring rule: 'rule'"),
    ("simulate", {**SIM_CFG, "trials": [50]}, "simulate config: 'trials'"),
    ("simulate", {**SIM_CFG, "h": {"eta": True}}, "exponential time value: 'eta'"),
    ("simulate", {**SIM_CFG, "trials": 2.7}, "simulate config: 'trials'"),
    ("figure", {"experiment": "fig_noise", "parameters": {"lambdas": ["a"]}},
     "fig_noise parameters: 'lambdas'"),
    ("figure", {"experiment": ["fig_eas"]}, "figure config: 'experiment'"),
    ("figure", {"experiment": "fig_eas", "parameters": {"n": "2"}},
     "fig_eas parameters: 'n'"),
    ("figure", {"experiment": "fig_late", "parameters": {"k_max": 3.7}},
     "fig_late parameters: 'k_max'"),
    ("simulate", {**SIM_CFG, "profile": {"efforts": [0.3], "policies": [
        {"kind": "perturbed", "epsilon": True}]}}, "report policy: 'epsilon'"),
    ("simulate", {**SIM_CFG, "model": {"kind": "table", "prior": [True, False],
                                       "likelihood": [[0.9, 0.1], [0.1, 0.9]]}},
     "table model: 'prior'"),
    ("simulate", {**SIM_CFG, "model": {"kind": "table", "prior": [0.5, 0.5],
                                       "likelihood": [[0.9, 0.1], [0.1]]}},
     "likelihood must be a d x m table"),
    ("simulate", {**SIM_CFG, "profile": {"efforts": [0.3], "policies": [
        {"kind": "truthful", "delay": 0.5}]}}, "the truthful policy takes no delay"),
], ids=["h_string", "h_list", "h_bool", "efforts", "policies", "n_grid", "lambdas",
        "eta_list", "effort_entries", "latency_lambda", "table_times", "rule_name",
        "trials_list", "eta_bool", "trials_fraction", "lambdas_entries",
        "experiment_list", "n_string", "k_max_fraction", "epsilon_bool", "prior_bools",
        "likelihood_ragged", "truthful_delay"])
def test_config_value_of_the_wrong_type_is_named(tmp_path, capsys, command, cfg, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and needle in err[0]
    assert not (tmp_path / "out").exists()


MVP_CFG = {**SIM_CFG, "mechanism": "mvp", "latency": {"lambda": 1.0},
           "h": {"kind": "exponential", "eta": 1.0}}

#: (reader, command, a valid config, the path to the reader's entry in it,
#: the config type of each key the reader declares, "value" entries aside)
READERS = [
    ("simulate config", "simulate", SIM_CFG, (),
     {"mechanism": "string", "trials": "integer", "seed": "integer"}),
    ("model config", "simulate", SIM_CFG, ("model",), {"kind": "string"}),
    ("binary_noisy model", "simulate", SIM_CFG, ("model",),
     {"alpha": "number", "beta": "number", "num_agents": "integer"}),
    ("table model", "simulate",
     {**SIM_CFG, "model": {"kind": "table", "prior": [0.5, 0.5],
                           "likelihood": [[0.9, 0.1], [0.1, 0.9]]}}, ("model",),
     {"prior": "list", "likelihood": "list", "num_agents": "integer"}),
    ("scoring rule", "simulate", SIM_CFG, ("rule",), {"rule": "string", "scale": "number"}),
    ("access function", "simulate", SIM_CFG, ("access",),
     {"kind": "string", "lambda": "number"}),
    ("latency", "simulate", MVP_CFG, ("latency",), {"lambda": "number"}),
    ("time value h", "simulate", MVP_CFG, ("h",), {"kind": "string"}),
    ("exponential time value", "simulate", MVP_CFG, ("h",), {"eta": "number"}),
    ("table time value", "simulate",
     {**MVP_CFG, "h": {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 1.0]}},
     ("h",), {"times": "list", "values": "list"}),
    ("report policy", "simulate",
     {**SIM_CFG, "profile": {"efforts": [0.3], "policies": [{"kind": "truthful"}]}},
     ("profile", "policies", 0), {"kind": "string", "epsilon": "number", "delay": "number"}),
    ("profile", "simulate", SIM_CFG, ("profile",), {"efforts": "list", "policies": "list"}),
    ("figure config", "figure", {"experiment": "fig_late"}, (),
     {"experiment": "string", "output_path": "string"}),
    *[(f"{name} parameters", "figure", {"experiment": name, "parameters": {}},
       ("parameters",), {key: "list" if isinstance(default, list) else "number"
                         for key, default in defaults.items()})
      for name, (_, defaults) in experiments._TABLE.items()],
    ("batch file", "settle-fpm", {"reports": [[0.8], [0.5]], "outcome": 1}, (),
     {"reports": "list", "outcome": "integer"}),
]
DECLARED = [(what, command, cfg, path, key, kind) for what, command, cfg, path, keys
            in READERS for key, kind in keys.items()]


@pytest.mark.parametrize("what, command, cfg, path, key, kind", DECLARED,
                         ids=[f"{what}-{key}" for what, _, _, _, key, _ in DECLARED])
def test_every_declared_key_is_typed(tmp_path, capsys, what, command, cfg, path, key, kind):
    """A true for a number or an integer, a number for anything else: each
    exits 2 naming the reader and the key, and writes nothing."""
    cfg = json.loads(json.dumps(cfg))
    entry = cfg
    for step in path:
        entry = entry[step]
    entry[key] = True if kind in ("number", "integer") else 5
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    argv = {"simulate": ["simulate", "--config", str(cfg_path), "--out", str(out)],
            "figure": ["figure", "--config", str(cfg_path), "--out", str(out)],
            "settle-fpm": ["settle-fpm", "--alpha", "0.02", "--beta", "0.2",
                           "--batch", str(cfg_path), "--out", str(out)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {what}: {key!r} must be ")
    assert not out.exists()


def test_figure_output_path_of_the_wrong_type_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "fig_eas",
                                                   "output_path": 5}))
    assert main(["figure", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: figure config: 'output_path' must be a string, got 5"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("record, message", [
    ({"reports": 5, "outcome": 1}, "'reports' must be a list of lists of numbers, got 5"),
    ({"reports": [[0.8], [[0.5]]], "outcome": 1},
     "'reports' must be a list of lists of numbers, got [[0.8], [[0.5]]]"),
    ({"reports": [[0.8], [0.5]], "outcome": 1.9}, "'outcome' must be an integer, got 1.9"),
    ({"reports": [[0.8], [0.5]], "outcome": 1, "outcme": 0},
     "unknown key(s) ['outcme']; accepted: ['outcome', 'reports']"),
    ({"reports": [[0.8], [0.5]]}, "missing key 'outcome'"),
], ids=["reports_number", "report_nested", "outcome_fraction", "unknown_key",
        "missing_outcome"])
def test_batch_file_entry_of_the_wrong_type_is_named(tmp_path, capsys, record, message):
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(record))
    out = tmp_path / "settled.json"
    assert main(["settle-fpm", "--alpha", "0.02", "--beta", "0.2",
                 "--batch", str(batch_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: batch file: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("reports, message", [
    ([[1.5]], "report 0: report entry 1.5 is not strictly inside (0, 1)"),
    ([[0.5, 0.5], [-0.1, 0.3]], "report 1: likelihood column entries must be nonnegative"),
    ([[0.5, 0.5], [np.inf, 0.3]],
     "report 1: likelihood column entries must be finite, got [inf, 0.3]"),
    ([[0.5, 0.5], [1e308, 1e308]],
     "report 1: likelihood column entries must sum to a finite number, "
     "got [1e+308, 1e+308]"),
], ids=["entry_range", "column_negative", "column_infinite", "column_sum_overflow"])
def test_batch_report_error_names_its_slot(tmp_path, capsys, reports, message):
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps({"reports": reports, "outcome": 0}))
    out = tmp_path / "settled.json"
    assert main(["settle-fpm", "--alpha", "0.02", "--beta", "0.2",
                 "--batch", str(batch_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("x, 0.5, 0.8", "invalid literal for int() with base 10: 'x'"),
    ("0, abc, 0.8", "could not convert string to float: 'abc'"),
    ("0, 0.5, zz", "could not convert string to float: 'zz'"),
    ("-1, 0.5, 0.8", "agent must be an integer of at least 0, got -1"),
    ("0, nan, 0.8", "time must be a finite nonnegative number, got nan"),
    ("0, 0.5, 1.5", "report entry 1.5 is not strictly inside (0, 1)"),
    ("0, 0.5, nan, 0.3", "likelihood column entries must be finite, got [nan, 0.3]"),
    ("0, 0.5, 1e308, 1e308",
     "likelihood column entries must sum to a finite number, got [1e+308, 1e+308]"),
], ids=["agent", "time", "entry", "agent_negative", "time_nan", "entry_range",
        "column_nan", "column_sum_overflow"])
def test_stream_record_error_names_its_line(tmp_path, capsys, line, message):
    stream = tmp_path / "reports.txt"
    stream.write_text(f"# agent, time, entries\n1, 0.2, 0.8\n{line}\n")
    rewards_path, trace_path = tmp_path / "rewards.csv", tmp_path / "trace.csv"
    assert main(["settle-mvp", "--alpha", "0.02", "--beta", "0.2", "--outcome", "1",
                 "--reports", str(stream), "--out-rewards", str(rewards_path),
                 "--out-trace", str(trace_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: line 3: {message}"]
    assert not rewards_path.exists() and not trace_path.exists()


class TestSettlement:
    def test_settle_fpm_round_trip(self, tmp_path, capsys):
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps({"reports": [[0.8], [0.5]],
                                          "outcome": 1}))
        assert main(["settle-fpm", "--alpha", "0.02", "--beta", "0.2",
                     "--batch", str(batch_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = fpm_run(Belief(np.array([0.98, 0.02])),
                           BatchOutcomeReport((ReportVector((0.8,)),
                                               ReportVector((0.5,))), 1),
                           ScoringRule("quadratic"))
        np.testing.assert_allclose(payload["rewards"], expected.rewards, atol=1e-12)
        np.testing.assert_allclose(payload["aggregated"],
                                   expected.aggregated.probs, atol=1e-12)

    def test_settle_fpm_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(
            {"kind": "table", "prior": [0.5, 0.3, 0.2],
             "likelihood": [[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]}))
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps(
            {"reports": [[0.8, 0.5, 0.1]], "outcome": 0}))
        assert main(["settle-fpm", "--model", str(model_path),
                     "--batch", str(batch_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["aggregated"]) == 3

    def test_settle_mvp_outputs(self, tmp_path, capsys):
        stream = tmp_path / "reports.txt"
        stream.write_text("0, 1.0, 0.8\n1, 2.5, 0.2\n")
        rewards_path = tmp_path / "rewards.csv"
        trace_path = tmp_path / "trace.csv"
        assert main(["settle-mvp", "--alpha", "0.02", "--beta", "0.2",
                     "--outcome", "1", "--eta", "1.0",
                     "--reports", str(stream),
                     "--out-rewards", str(rewards_path),
                     "--out-trace", str(trace_path)]) == 0
        capsys.readouterr()
        m = InformationModel.binary_noisy(0.02, 0.2)
        _, expected = mvp_run(m.prior_belief(),
                              [TimedReport(0, 1.0, truthful_report(m, 1)),
                               TimedReport(1, 2.5, truthful_report(m, 0))],
                              1, ScoringRule("quadratic"),
                              TimeValue.exponential(1.0))
        rows = read_csv(rewards_path)
        got = [float(r["reward"]) for r in rows]
        np.testing.assert_allclose(got, expected, atol=1e-9)
        trace_rows = read_csv(trace_path)
        assert trace_rows[0]["time"] == "0"
        assert float(trace_rows[1]["p_1"]) == pytest.approx(4 / 53, abs=1e-9)

    def test_settle_fpm_needs_a_model(self, tmp_path, capsys):
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps({"reports": [[0.8]], "outcome": 0}))
        assert main(["settle-fpm", "--batch", str(batch_path)]) == 2
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["settle-fpm", "--alpha", "0.1", "--beta", "0.1",
                     "--batch", "/nonexistent/batch.json"]) == 2
        capsys.readouterr()


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_a_failed_parse_leaves_the_parser_usable(self, capsys, monkeypatch):
        """The parser is built once per process: a parse that exits 2 is
        followed by a good command, and neither builds another parser."""
        main(["solve", "--setting", "pm_race"])
        capsys.readouterr()

        def rebuilt():
            raise AssertionError("main built a second parser")
        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(["solve", "--setting", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert main(["solve", "--setting", "pm_race", "--v", "0,2,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["effort"] == pytest.approx(0.25, abs=1e-10)
        assert payload["evaluations"] == 0  # a closed form

    @staticmethod
    def _run_module(tmp_path, argv):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        return subprocess.run([sys.executable, "-m", "infomarkets", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(src)))

    def test_module_entry_point(self, tmp_path):
        proc = self._run_module(tmp_path, ["solve", "--setting", "pm_race",
                                           "--v", "0,2,3"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["effort"] == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--setting", "mvp", "--lam", "2", "--eta", "1", "--v", "0,2,3",
          "--n", "2"], 0),
        (["simulate", "--config", "missing.json"], 2),
    ], ids=["mvp", "usage_error"])
    def test_module_entry_point_other_commands(self, tmp_path, argv, code):
        proc = self._run_module(tmp_path, argv)
        assert proc.returncode == code
        if argv[2] == "mvp":
            expected = mvp_equilibrium(LatencyFamily.exponential(2.0),
                                       TimeValue.exponential(1.0),
                                       ScoreSequence(np.array([0.0, 2.0, 3.0])), 2)
            assert json.loads(proc.stdout)["effort"] == expected.effort
        else:
            err = proc.stderr.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert "missing.json" in err[0]
