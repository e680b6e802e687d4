import csv
import dataclasses
import json
import multiprocessing
import re
from importlib import resources

import numpy as np
import pytest

from latscale import cli, krr, scaler, tft
from latscale.cli import RunConfig, UsageError, load_run_config, main
from latscale.simulator import (
    RESOURCE_FIELDS, Scenario, ServiceConfig, apply_plan, load_scenario, scenario_from_dict,
    scenario_to_dict,
)

TINY_SCENARIO = {
    "seed": 5,
    "duration_steps": 150,
    "noise_sigma": 0.05,
    "services": {
        "front-end": {"base_service_ms": 5.0, "per_pod_rate": 30.0, "pods": 6},
        "shipping": {"base_service_ms": 7.0, "per_pod_rate": 20.0, "pods": 2},
        "cart": {"base_service_ms": 10.0, "per_pod_rate": 18.0, "pods": 3,
                 "pods_walk": {"period": 10, "low": 0.7, "high": 1.5}},
        "cart-db": {"base_service_ms": 8.0, "per_pod_rate": 25.0, "pods": 3},
        "catalogue": {"base_service_ms": 8.0, "per_pod_rate": 25.0, "pods": 3},
        "catalogue-db": {"base_service_ms": 6.0, "per_pod_rate": 25.0, "pods": 3},
        "user": {"base_service_ms": 6.0, "per_pod_rate": 20.0, "pods": 3},
        "user-db": {"base_service_ms": 5.0, "per_pod_rate": 25.0, "pods": 3},
        "payment": {"base_service_ms": 8.0, "per_pod_rate": 15.0, "pods": 2}
    },
    "workloads": {
        "green": {"base": 22.0, "amplitude": 6.0, "period": 40.0, "noise_sigma": 0.3},
        "purple": {"base": 10.0, "amplitude": 2.0, "period": 50.0, "noise_sigma": 0.2},
        "blue": {"base": 12.0, "amplitude": 3.0, "period": 45.0, "noise_sigma": 0.2},
        "red": {"base": 8.0, "amplitude": 2.0, "period": 55.0, "noise_sigma": 0.2},
        "black": {"base": 6.0, "amplitude": 1.0, "period": 60.0, "noise_sigma": 0.2}
    },
}

TINY_INI = """
[run]
trace = green
resources = horizontal
features = cps.green, pods.cart

[tft]
encoder_length = 16
decoder_length = 4
max_epochs = 2
early_stopping_patience = 1
seed = 9

[boxes]
pods = 2.0, 4.0
cps = 0.25, 1.0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(TINY_SCENARIO))
    ini = root / "config.ini"
    ini.write_text(TINY_INI)
    out = root / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--quiet"]) == 0
    assert main([
        "train", "--config", str(ini), "--dataset", str(out / "dataset.csv"),
        "--out", str(out), "--quiet",
    ]) == 0
    return {"root": root, "scenario": scenario, "ini": ini, "out": out}


class TestSimulate:
    def test_deterministic_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--scenario", str(workspace["scenario"]),
                         "--out", str(out), "--quiet"]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()

    def test_zero_duration_is_usage_error(self, workspace, tmp_path):
        rc = main(["simulate", "--scenario", str(workspace["scenario"]),
                   "--duration", "0", "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("source, named", [
        ("flag", "--duration 0: duration must be positive"),
        ("config", "[run] duration: duration must be positive"),
    ])
    def test_zero_duration_names_its_source(self, workspace, tmp_path, capsys, source, named):
        args = ["simulate", "--scenario", str(workspace["scenario"])]
        if source == "flag":
            args += ["--duration", "0"]
        else:
            (tmp_path / "run.ini").write_text("[run]\nduration = 0\n")
            args += ["--config", str(tmp_path / "run.ini")]
        assert main([*args, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_burst_past_a_shorter_duration_names_the_scenario(self, tmp_path, capsys):
        doc = {**TINY_SCENARIO, "workloads": {**TINY_SCENARIO["workloads"], "green": {
            **TINY_SCENARIO["workloads"]["green"], "bursts": [[100, 20, 2.0]]}}}
        path = tmp_path / "burst.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--duration", "110",
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario {path}: workload 'green': burst at step 100 ends at step 120, "
            f"past duration_steps 110\n")
        assert not (tmp_path / "out").exists()

    def test_bundled_scenario_has_all_five_traces(self, tmp_path):
        assert main(["simulate", "--scenario", "sla_demo", "--duration", "30",
                     "--out", str(tmp_path), "--quiet"]) == 0
        header = (tmp_path / "dataset.csv").read_text().splitlines()[0]
        for color in ("purple", "green", "blue", "red", "black"):
            assert f"cps.{color}" in header
            assert f"latency_p95.{color}" in header

    def test_unknown_scenario_name(self, tmp_path):
        rc = main(["simulate", "--scenario", "no-such-thing", "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "e2e"])
    @pytest.mark.parametrize("edit, says", [
        (lambda d: d["workloads"]["green"].update(base=float("nan")),
         "workload 'green' base: nan is not a finite number"),
        (lambda d: d.update(graph={"paths": []}), "top level graph: call graph has no paths"),
        (lambda d: d["workloads"]["green"].update(seed=1.5),
         "workload 'green' seed: expected an integer, got 1.5"),
        (lambda d: d["workloads"]["green"].update(bursts=[[True, True, 5.0]]),
         "workload 'green' bursts 0 0: expected an integer, got true"),
    ], ids=["non-finite", "empty-graph", "seed-fraction", "burst-bool"])
    def test_bad_scenario_exits_2_at_load(self, tmp_path, capsys, command, edit, says):
        doc = json.loads(bundled("scenarios", "sla_demo.json").read_text())
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))  # a nan is written as NaN
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: scenario {path}: bad scenario document: {says}\n"
        assert not (tmp_path / "out").exists()  # so no dataset.csv either


class TestTrain:
    def test_report_echoes_model_settings(self, workspace):
        report = json.loads((workspace["out"] / "training_report.json").read_text())
        assert report["config"]["hidden_size"] == 8
        assert report["config"]["attention_heads"] == 1
        assert report["config"]["dropout"] == 0.1

    def test_missing_dataset_is_usage_error(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace["ini"]),
                   "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    def test_epochs_flag_overrides(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace["ini"]),
                   "--dataset", str(workspace["out"] / "dataset.csv"),
                   "--epochs", "1", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "training_report.json").read_text())
        assert len(report["train_loss"]) == 1

    def test_dataset_too_short_is_validation_error(self, workspace, tmp_path):
        assert main(["simulate", "--scenario", str(workspace["scenario"]),
                     "--duration", "10", "--out", str(tmp_path), "--quiet"]) == 0
        rc = main(["train", "--config", str(workspace["ini"]),
                   "--dataset", str(tmp_path / "dataset.csv"), "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    def test_dataset_too_short_names_the_dataset_and_the_lengths(self, workspace, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(workspace["scenario"]),
                     "--duration", "10", "--out", str(tmp_path), "--quiet"]) == 0
        dataset = tmp_path / "dataset.csv"
        assert main(["train", "--config", str(workspace["ini"]), "--dataset", str(dataset),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset {dataset}: [tft] encoder_length and decoder_length: "
            f"need at least 20 steps for encoder 16 + decoder 4, have 10\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_trace_names_the_dataset_only(self, workspace, tmp_path, capsys):
        dataset = workspace["out"] / "dataset.csv"
        assert main(["train", "--config", str(workspace["ini"]), "--dataset", str(dataset),
                     "--trace", "orange", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset {dataset}: \"no target series for trace 'orange'\"\n")
        assert not (tmp_path / "out").exists()


class TestPredictInterpret:
    def test_forecast_shape_and_determinism(self, workspace, tmp_path):
        args = ["predict", "--config", str(workspace["ini"]),
                "--dataset", str(workspace["out"] / "dataset.csv"),
                "--checkpoint", str(workspace["out"] / "checkpoint.json"), "--quiet"]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(args + ["--out", str(out)]) == 0
        lines = (a / "forecast.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 3  # header + decoder steps x quantiles
        assert lines[0] == "step,quantile,value_ms"
        assert (a / "forecast.csv").read_bytes() == (b / "forecast.csv").read_bytes()

    def test_importance_rows_sum_to_one(self, workspace, tmp_path):
        assert main(["interpret", "--config", str(workspace["ini"]),
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        from latscale.cli import read_importance_csv

        for name in ("importance.csv", "importance_encoder.csv"):
            _, matrix = read_importance_csv(tmp_path / name)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-6)

    def test_checkpoint_feature_mismatch(self, workspace, tmp_path):
        assert main(["simulate", "--scenario", "sla_demo", "--duration", "40",
                     "--out", str(tmp_path), "--quiet"]) == 0
        with open(tmp_path / "dataset.csv") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0]) if name != "pods.cart"]
        with open(tmp_path / "trimmed.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([row[i] for i in keep])
        rc = main(["predict", "--dataset", str(tmp_path / "trimmed.csv"),
                   "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["predict", "interpret", "evaluate"])
    @pytest.mark.parametrize("checkpoint", ["absent", "nonexistent", "truncated", "format-99",
                                            "extra-param", "scaling-gap"])
    def test_missing_checkpoint(self, workspace, tmp_path, command, checkpoint):
        args = [command, "--dataset", str(workspace["out"] / "dataset.csv"),
                "--out", str(tmp_path / "out"), "--quiet"]
        text = (workspace["out"] / "checkpoint.json").read_text()
        doc = json.loads(text)
        if checkpoint == "truncated":
            text = text[:-1]
        elif checkpoint == "format-99":
            doc["format_version"] = 99
        elif checkpoint == "extra-param":
            doc["params"]["surplus.w"] = {"shape": [1], "values": [0.0]}
        elif checkpoint == "scaling-gap":
            del doc["feature_scaling"]["pods.cart"]
        path = tmp_path / "ckpt.json"
        path.write_text(text if checkpoint == "truncated" else json.dumps(doc))
        if checkpoint == "nonexistent":
            args += ["--checkpoint", str(tmp_path / "none.json")]
        elif checkpoint != "absent":
            args += ["--checkpoint", str(path)]
        assert main(args) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, says", [
        (lambda d: d["params"]["head.q0.w"]["values"].__setitem__(0, float("nan")),
         "params 'head.q0.w' values 0: nan is not a finite number"),
        (lambda d: d.update(feature_scaling=None), "feature_scaling is null"),
        (lambda d: d.update(params=[1]), "params: expected an object, got [1]"),
        (lambda d: d["config"].update(hidden_size="8"),
         "config hidden_size: expected an integer, got \"8\""),
        (lambda d: d["config"].update(batch_size=True),
         "config batch_size: expected an integer, got true"),
        (lambda d: d.update(format_version=True),
         "format_version: expected an integer, got true"),
    ], ids=["nan-weight", "null-scaling", "params-list", "string-int", "boolean-int",
            "boolean-version"])
    def test_bad_checkpoint_value_names_file_and_key(self, workspace, tmp_path, capsys, edit, says):
        doc = json.loads((workspace["out"] / "checkpoint.json").read_text())
        edit(doc)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))  # a nan is written as NaN
        assert main(["predict", "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--checkpoint", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: checkpoint {path}: {says}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, written", [
        ("predict", "forecast.csv"), ("interpret", "importance.csv"), ("evaluate", "metrics.json")])
    def test_trace_comes_from_the_checkpoint(self, workspace, tmp_path, command, written):
        # the green checkpoint forecasts green whatever trace the config names
        runs = {}
        for trace in ("green", "blue"):
            ini = tmp_path / f"{trace}.ini"
            ini.write_text(TINY_INI.replace("trace = green", f"trace = {trace}"))
            out = tmp_path / trace
            assert main([command, "--config", str(ini),
                         "--dataset", str(workspace["out"] / "dataset.csv"),
                         "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                         "--out", str(out), "--quiet"]) == 0
            runs[trace] = (out / written).read_bytes()
        assert runs["blue"] == runs["green"]

    def test_checkpoint_target_must_be_a_latency(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace["out"] / "checkpoint.json").read_text())
        doc["encoder_features"][-1] = "cps.blue"
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--checkpoint", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "encoder_features" in capsys.readouterr().err


class TestNegativeSeeds:
    """A negative seed, which numpy refuses, exits 2 before any stage runs."""

    def test_simulate_flag(self, workspace, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(workspace["scenario"]), "--seed", "-1",
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: --seed -1: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_train_flag(self, workspace, tmp_path, capsys):
        assert main(["train", "--config", str(workspace["ini"]), "--seed", "-1",
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: --seed -1: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_tft_section(self, workspace, tmp_path, capsys):
        ini = tmp_path / "seed.ini"
        ini.write_text(TINY_INI.replace("seed = 9", "seed = -1"))
        assert main(["train", "--config", str(ini), "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: [tft] seed: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, says", [
        (lambda d: d.update(seed=-1), "top level: seed must be >= 0, got -1"),
        (lambda d: d["workloads"]["green"].update(seed=-1),
         "workload 'green': seed must be >= 0, got -1"),
    ], ids=["scenario", "workload"])
    def test_scenario_file(self, tmp_path, capsys, edit, says):
        doc = json.loads(json.dumps(TINY_SCENARIO))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: scenario {path}: bad scenario document: {says}\n"
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_metrics_include_baseline(self, workspace, tmp_path):
        assert main(["evaluate", "--config", str(workspace["ini"]),
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert {"model", "persistence", "band_coverage", "n_windows"} <= set(metrics)
        assert "rmse" in metrics["model"] and "r2" in metrics["model"]


class TestHeldOutForecast:
    """A command forecasts the held-out windows once and scores that
    forecast for every metric."""

    @staticmethod
    def count_windows(monkeypatch):
        sizes = []
        original = tft.predict_many

        def counted(model, windows):
            sizes.append(len(windows))
            return original(model, windows)

        monkeypatch.setattr(tft, "predict_many", counted)
        return sizes

    def test_evaluate(self, workspace, tmp_path, monkeypatch):
        sizes = self.count_windows(monkeypatch)
        assert main(["evaluate", "--config", str(workspace["ini"]),
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert sizes == [json.loads((tmp_path / "metrics.json").read_text())["n_windows"]]

    def test_e2e(self, workspace, tmp_path, monkeypatch):
        sizes = self.count_windows(monkeypatch)
        assert main(["e2e", "--config", str(workspace["ini"]),
                     "--scenario", str(workspace["scenario"]),
                     "--sla-ms", "1000000", "--out", str(tmp_path), "--quiet"]) == 0
        held_out = json.loads((tmp_path / "training_report.json").read_text())["n_val_windows"]
        assert sorted(sizes) == [1, held_out]  # the forecast window, then the held-out ones


def fail(*args, **kwargs):
    raise RuntimeError("injected")


# (edit, file it edits, what the error says)
PLAN_INPUT_EDITS = [
    ("unknown-feature", "importance.csv",
     "feature 'pods.carts' is not in {dataset} (row 3, column 'feature')"),
    ("no-weight-column", "importance.csv", "missing column (row 1, column 'weight')"),
    ("no-value-column", "forecast.csv", "missing column (row 1, column 'value_ms')"),
    ("nan-weight", "importance.csv", "non-finite cell 'nan' (row 4, column 'weight')"),
    ("negative-weight", "importance.csv", "negative cell '-0.5' (row 4, column 'weight')"),
    ("inf-value", "forecast.csv", "non-finite cell 'inf' (row 3, column 'value_ms')"),
    ("negative-value", "forecast.csv", "negative cell '-5' (row 3, column 'value_ms')"),
    ("word-step", "importance.csv", "cannot read 'one' as int (row 2, column 'step')"),
    ("ragged-row", "importance.csv", "ragged row: expected 3 cells (row 5)"),
    ("repeated-row", "importance.csv", "repeated feature 'cps.green' in one step (row 3"),
    ("lacking-row", "importance.csv", "step 1 lacks feature 'cps.green'"),
    ("no-median", "forecast.csv", "no 0.5 quantile"),
    ("step-mismatch", "importance.csv", "has 3 steps but"),
    ("latency-feature", "importance.csv",
     "feature 'latency_p95.blue': kind 'latency_p95' is not one of cps, pods, cpu, mem "
     "(row 3, column 'feature')"),
]


class TestPlan:
    def prime(self, workspace, out):
        for cmd in ("predict", "interpret"):
            assert main([cmd, "--config", str(workspace["ini"]),
                         "--dataset", str(workspace["out"] / "dataset.csv"),
                         "--checkpoint", str(workspace["out"] / "checkpoint.json"),
                         "--out", str(out), "--quiet"]) == 0

    def test_noop_when_sla_generous(self, workspace, tmp_path):
        self.prime(workspace, tmp_path)
        assert main(["plan", "--config", str(workspace["ini"]),
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--sla-ms", "1000000", "--out", str(tmp_path), "--quiet"]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["violation_fraction"] == 0.0
        assert plan["actions"] == []

    def test_violation_produces_pod_action(self, workspace, tmp_path):
        self.prime(workspace, tmp_path)
        assert main(["plan", "--config", str(workspace["ini"]),
                     "--dataset", str(workspace["out"] / "dataset.csv"),
                     "--sla-ms", "10", "--out", str(tmp_path), "--quiet"]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["violation_fraction"] > 0
        assert any(a["resource"] == "pods" for a in plan["actions"])
        assert set(plan) == {"trace", "sla_ms", "violation_fraction", "theta",
                             "converged", "objective_value", "actions", "advisories"}

    def test_plan_requires_forecast_inputs(self, workspace, tmp_path):
        rc = main(["plan", "--dataset", str(workspace["out"] / "dataset.csv"),
                   "--sla-ms", "10", "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("edit, name, says", PLAN_INPUT_EDITS,
                             ids=[edit for edit, _, _ in PLAN_INPUT_EDITS])
    def test_rejects_malformed_input_before_any_work(self, workspace, tmp_path, capsys,
                                                     edit, name, says):
        self.prime(workspace, tmp_path)
        path = tmp_path / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if edit == "unknown-feature":
            rows = [[c.replace("pods.cart", "pods.carts") for c in row] for row in rows]
        elif edit == "latency-feature":
            rows = [[c.replace("pods.cart", "latency_p95.blue") for c in row] for row in rows]
        elif edit.startswith("no-") and edit.endswith("-column"):
            rows = [row[:2] for row in rows]
        elif edit == "nan-weight":
            rows[3][2] = "nan"
        elif edit == "negative-weight":
            rows[3][2] = "-0.5"
        elif edit == "inf-value":
            rows[2][2] = "inf"
        elif edit == "negative-value":
            rows[2][2] = "-5"  # step 1's median
        elif edit == "word-step":
            rows[1][0] = "one"
        elif edit == "ragged-row":
            rows[4].append("0.5")
        elif edit == "repeated-row":
            rows.insert(2, rows[1])
        elif edit == "lacking-row":
            del rows[1]
        elif edit == "no-median":
            rows = [row for row in rows if row[1] != "0.5"]
        elif edit == "step-mismatch":
            rows = [row for row in rows if row[0] != "4"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        dataset = workspace["out"] / "dataset.csv"
        rc = main(["plan", "--config", str(workspace["ini"]), "--dataset", str(dataset),
                   "--sla-ms", "10", "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert says.format(dataset=dataset) in err
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("command", ["train", "plan"])
    def test_malformed_dataset_is_usage_error(self, workspace, tmp_path, capsys, command):
        self.prime(workspace, tmp_path)
        with open(workspace["out"] / "dataset.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][1] = "abc"
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        sla = ["--sla-ms", "10"] if command == "plan" else []
        rc = main([command, "--config", str(workspace["ini"]), "--dataset", str(path), *sla,
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: dataset {path}: non-numeric cell")

    def test_failing_fit_is_stage_error(self, workspace, tmp_path, capsys, monkeypatch):
        self.prime(workspace, tmp_path)
        monkeypatch.setattr(krr, "fit_per_feature", fail)
        rc = main(["plan", "--config", str(workspace["ini"]),
                   "--dataset", str(workspace["out"] / "dataset.csv"),
                   "--sla-ms", "10", "--out", str(tmp_path), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: stage plan: injected")


def plan_at(factors, catalog, bounds):
    """``make_plan`` of the catalog with the given factor per feature."""
    return scaler.make_plan(np.array([0.0, *factors]), catalog, bounds)


class TestResourceBounds:
    @pytest.mark.parametrize("known", [True, False], ids=["sla_demo", "no-scenario"])
    def test_extreme_factors_plan_the_catalog_bounds(self, known):
        """A plan's ``recommended`` is clamped into the box the catalog
        gives each resource, and ``apply_plan`` configures exactly it."""
        scenario = cli.resolve_scenario("sla_demo")
        dataset = scenario.run()
        catalog, bounds = cli._build_catalog(dataset.feature_names("both"), dataset,
                                             scenario if known else None)
        configs = scenario.configs if known else {
            name: ServiceConfig(name, base_service_ms=1.0, per_pod_rate=1.0)
            for name in scenario.configs
        }
        assert {spec.resource for spec in catalog if spec.actionable} == set(RESOURCE_FIELDS)
        for end, factor in enumerate((1e-12, 1e12)):
            plan = plan_at([factor] * len(catalog), catalog, bounds)
            after = apply_plan(configs, plan)
            assert len(plan.actions) == len(bounds)
            for spec, action in zip([s for s in catalog if s.actionable], plan.actions):
                assert action.recommended == bounds[spec.name][end], spec.name
                configured = getattr(after[action.service], RESOURCE_FIELDS[action.resource])
                assert configured == action.recommended, spec.name

    def test_sla_demo_resimulates_at_the_plan(self):
        """Without walks, every step of a re-simulated resource runs at
        the level the plan recommends."""
        scenario = dataclasses.replace(cli.resolve_scenario("sla_demo"), duration_steps=60)
        dataset = scenario.run()
        features = dataset.feature_names("both")
        catalog, bounds = cli._build_catalog(features, dataset, scenario)
        factors = [2.0 if name.startswith("pods.") else 0.5 for name in features]
        plan = plan_at(factors, catalog, bounds)
        after = dataclasses.replace(scenario, configs=apply_plan(scenario.configs, plan)).run()
        assert {a.resource for a in plan.actions} == set(RESOURCE_FIELDS)
        for action in plan.actions:
            values = after.get(f"{action.resource}.{action.service}").values
            assert np.all(values == action.recommended), (action, values)

    def test_cart_importance_configures_the_recommended_pods(self):
        """Cart walks around its configured 4 pods and runs 5 at the last
        step; a factor of 2 recommends, and configures, 10."""
        scenario = cli.resolve_scenario("cart_importance")
        dataset = scenario.run()
        catalog, bounds = cli._build_catalog(["pods.cart"], dataset, scenario)
        plan = plan_at([2.0], catalog, bounds)
        (action,) = plan.actions
        assert (scenario.configs["cart"].pods, action.current, action.recommended) == (4, 5.0, 10.0)
        configured = apply_plan(scenario.configs, plan)["cart"].pods
        assert configured == 10 and isinstance(configured, int)


# (stage, owner of a call the stage makes, name of that call)
STAGE_FAULTS = [
    ("simulate", Scenario, "run"),
    ("sla", cli, "p95"),
    ("train", tft, "train_with_restarts"),
    ("predict", tft, "predict"),
    ("evaluate", tft, "persistence_metrics"),
    ("interpret", tft, "interpret"),
    ("plan", krr, "fit_per_feature"),
    ("resimulate", cli, "apply_plan"),
    ("summarize", cli, "asdict"),
]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    def test_undefined_pooled_r2_is_written_as_null(self, tmp_path):
        rng = np.random.default_rng(0)
        fit = krr.fit_per_feature(rng.uniform(0, 1, (16, 2)), np.full(16, 80.0))
        assert np.isnan(fit.pooled_r2)
        cli.write_krr_fit(fit, ["a", "b"], tmp_path)
        cli.write_json({"krr": cli._fit_scores(fit)}, tmp_path / "summary.json")
        models = json.loads((tmp_path / "krr_models.json").read_text(),
                            parse_constant=reject_constant)
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert models["pooled_r2"] is None and summary["krr"]["pooled_r2"] is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_is_refused(self, tmp_path, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli.write_json({"a": 1.0, "x": value}, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()  # no partial file is left behind

    def test_bytes_are_those_of_json_dump(self, tmp_path):
        doc = {"b": [1.5, None, {"z": 0.1, "a": True}], "a": "x"}
        cli.write_json(doc, tmp_path / "x.json")
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


class TestE2e:
    def test_no_violation_leaves_everything_unchanged(self, workspace, tmp_path):
        rc = main(["e2e", "--config", str(workspace["ini"]),
                   "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "1000000", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["violated"]
        assert summary["after_p95_ms"] == summary["before_p95_ms"]
        assert (tmp_path / "dataset.csv").read_bytes() == (tmp_path / "dataset_after.csv").read_bytes()

    def test_met_sla_prints_nothing_when_quiet(self, workspace, tmp_path, capsys):
        assert main(["e2e", "--config", str(workspace["ini"]),
                     "--scenario", str(workspace["scenario"]),
                     "--sla-ms", "1000000", "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_missed_sla_warns_even_when_quiet(self, workspace, tmp_path, capsys):
        rc = main(["e2e", "--config", str(workspace["ini"]),
                   "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "1", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not summary["sla_met_within_5pct"]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: after p95 ")
        assert "misses the SLA of 1.0 ms" in lines[0]

    def test_violation_loop_scales_up(self, workspace, tmp_path):
        rc = main(["e2e", "--config", str(workspace["ini"]),
                   "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "30", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["violated"]
        assert summary["after_p95_ms"] < summary["before_p95_ms"]
        assert (tmp_path / "plan.json").exists()
        assert (tmp_path / "krr_models.json").exists()

    def test_quantile_set_without_outer_deciles(self, workspace, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text(TINY_INI.replace("[tft]\n", "[tft]\nquantiles = 0.2, 0.5, 0.8\n"))
        rc = main(["e2e", "--config", str(ini), "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "30", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        with open(tmp_path / "forecast.csv", newline="") as fh:
            assert {row["quantile"] for row in csv.DictReader(fh)} == {"0.2", "0.5", "0.8"}
        assert 0 <= json.loads((tmp_path / "summary.json").read_text())["tft"]["band_coverage"] <= 1

    @pytest.mark.parametrize("stage, owner, name", STAGE_FAULTS,
                             ids=[stage for stage, _, _ in STAGE_FAULTS])
    def test_failure_names_its_stage(self, workspace, tmp_path, capsys, monkeypatch,
                                     stage, owner, name):
        monkeypatch.setattr(owner, name, fail)
        rc = main(["e2e", "--config", str(workspace["ini"]),
                   "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "30", "--out", str(tmp_path), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: stage {stage}: injected")

    def test_interrupt_in_a_stage_propagates(self, workspace, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Scenario, "run", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--scenario", str(workspace["scenario"]),
                  "--out", str(tmp_path), "--quiet"])

    def test_duration_too_short_names_the_scenario_and_the_duration(self, workspace, tmp_path,
                                                                     capsys):
        path = tmp_path / "short.ini"
        path.write_text(TINY_INI.replace("[run]", "[run]\nduration = 10"))
        assert main(["e2e", "--scenario", str(workspace["scenario"]), "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario {workspace['scenario']}, [run] duration: "
            f"[tft] encoder_length and decoder_length: "
            f"need at least 20 steps for encoder 16 + decoder 4, have 10\n")

    def test_repeated_feature_is_rejected_before_simulating(self, workspace, tmp_path, capsys):
        ini = tmp_path / "repeated.ini"
        ini.write_text(TINY_INI.replace("features = cps.green,", "features = cps.green, cps.green,"))
        rc = main(["e2e", "--config", str(ini), "--scenario", str(workspace["scenario"]),
                   "--sla-ms", "30", "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == "error: [run] features: feature 'cps.green' listed twice\n"
        assert not (tmp_path / "out").exists()

    def test_scout_failing_in_a_worker_names_the_train_stage(self, workspace, tmp_path, capsys,
                                                             monkeypatch):
        real = tft.train

        def fail_second_scout(model, *args, **kwargs):
            if model.config.seed == 9 + 101:
                raise RuntimeError("injected")
            return real(model, *args, **kwargs)

        monkeypatch.setattr(tft, "train", fail_second_scout)
        monkeypatch.setattr(tft, "_scout_processes", lambda restarts: 2)
        rc = main(["e2e", "--config", str(workspace["ini"]),
                   "--scenario", str(workspace["scenario"]), "--restarts", "2",
                   "--sla-ms", "30", "--out", str(tmp_path), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: stage train: restart scout of seed 110 failed: RuntimeError: injected")
        assert multiprocessing.active_children() == []

    def test_scout_race_writes_the_same_bytes_on_one_and_two_processes(self, workspace, tmp_path,
                                                                       monkeypatch):
        runs = {}
        for processes in (1, 2):
            monkeypatch.setattr(tft, "_scout_processes", lambda restarts: min(restarts, processes))
            out = tmp_path / f"on{processes}"
            assert main(["e2e", "--config", str(workspace["ini"]),
                         "--scenario", str(workspace["scenario"]), "--restarts", "3",
                         "--sla-ms", "30", "--out", str(out), "--quiet"]) == 0
            runs[processes] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert json.loads(runs[1]["training_report.json"])["restart_scout_losses"]
        assert runs[1] == runs[2]


# Every file both e2e and the separate commands write.
CHAIN_FILES = ("dataset.csv", "scenario_echo.json", "checkpoint.json", "training_report.json",
               "forecast.csv", "importance.csv", "importance_encoder.csv", "attention.csv",
               "plan.json", "krr_models.json", "krr_cv.csv")


class TestChain:
    """e2e is simulate, train, predict, interpret and plan run in sequence."""

    @pytest.mark.parametrize("run_settings", ["", "duration = 120\nwindow_start = 30\n"],
                             ids=["defaults", "duration-and-window"])
    def test_commands_reproduce_e2e(self, workspace, tmp_path, run_settings):
        ini = tmp_path / "config.ini"
        # an SLA low enough that the loop plans
        ini.write_text(TINY_INI.replace("[run]\n", "[run]\nsla_factor = 0.05\n" + run_settings))
        scenario = ["--scenario", str(workspace["scenario"])]
        loop, chain = tmp_path / "e2e", tmp_path / "chain"
        common = ["--config", str(ini), "--quiet"]
        assert main(["e2e", *scenario, "--out", str(loop), *common]) == 0
        summary = json.loads((loop / "summary.json").read_text())
        assert summary["violated"]

        dataset = ["--dataset", str(chain / "dataset.csv")]
        checkpoint = ["--checkpoint", str(chain / "checkpoint.json")]
        for args in (["simulate", *scenario],
                     ["train", *dataset],
                     ["predict", *dataset, *checkpoint],
                     ["interpret", *dataset, *checkpoint],
                     ["plan", *scenario, *dataset, "--sla-ms", repr(summary["sla_ms"])]):
            assert main([*args, "--out", str(chain), *common]) == 0
        for name in CHAIN_FILES:
            assert (chain / name).read_bytes() == (loop / name).read_bytes(), name
        steps = len((loop / "dataset.csv").read_text().splitlines()) - 1
        assert steps == (120 if run_settings else TINY_SCENARIO["duration_steps"])


def bundled(kind, name):
    return resources.files("latscale") / kind / name


class TestConfigFile:
    @pytest.mark.parametrize("text, named", [
        ("[run]\nsla_facter = 0.5\n", "[run] sla_facter"),
        ("[tft]\nmax_epoch = 5\n", "[tft] max_epoch"),
        ("[grid]\nalphas = 1, 10\n", "[grid] alphas"),
        ("[boxes]\npod = 2, 4\n", "[boxes] pod"),
        ("[model]\nhidden_size = 8\n", "[model]"),
        ("[tft]\nmax_epochs = five\n", "[tft] max_epochs"),
        ("[tft]\nquantiles = 0.9, 0.1\n", "[tft] quantiles"),
        ("[boxes]\npods = 2\n", "[boxes] pods"),
        ("[boxes]\ncps = 0.25, 0.5, 1\n", "[boxes] cps"),
        ("[boxes]\npods = 4, 2\n", "[boxes] pods"),
        ("[DEFAULT]\nseed = 3\n[run]\n", "[DEFAULT]"),
        ("[tft]\nquantiles = 0.2, 0.8\n", "[tft] quantiles: quantiles must include the median"),
        ("[tft]\nlearning_rate = nan\n",
         "[tft] learning_rate: learning_rate must be finite and positive"),
        ("[tft]\nlearning_rate = 0\n",
         "[tft] learning_rate: learning_rate must be finite and positive"),
        ("[tft]\nearly_stopping_patience = -1\n",
         "[tft] early_stopping_patience: early_stopping_patience must be >= 0"),
        ("[run]\nsteady_window = 0\n", "[run] steady_window: steady_window must be positive"),
        ("[run]\nrestarts = 0\n", "[run] restarts: restarts must be positive"),
        ("[run]\nsla_factor = 0\n", "[run] sla_factor: sla_factor must be positive"),
        ("[run]\nsla_ms = -5\n", "[run] sla_ms: sla_ms must be positive"),
        ("[run]\nduration = -5\n", "[run] duration: duration must be positive"),
        ("[run]\nsla_ms = nan\n", "[run] sla_ms: sla_ms must be finite"),
        ("[run]\nsla_ms = inf\n", "[run] sla_ms: sla_ms must be finite"),
        ("[run]\nsla_factor = nan\n", "[run] sla_factor: sla_factor must be finite"),
        ("[run]\nsla_factor = inf\n", "[run] sla_factor: sla_factor must be finite"),
        ("[grid]\nalpha_grid = 1, nan\n",
         "[grid] alpha_grid: grid values must be positive and finite"),
        ("[grid]\nbeta_grid = inf\n", "[grid] beta_grid: grid values must be positive and finite"),
        ("[boxes]\npods = nan, 2\n", "[boxes] pods: a bound is not a number"),
        ("[boxes]\nintercept = -inf, nan\n", "[boxes] intercept: a bound is not a number"),
        ("[run]\nresources = diagonal\n", "[run] resources: unknown resource mode"),
        ("[run]\nfeatures = cps.green, pods.cart, cps.green\n",
         "[run] features: feature 'cps.green' listed twice"),
        ("[run]\nfeatures = cps.green, latency_p95.blue\n",
         "[run] features: feature 'latency_p95.blue': kind 'latency_p95' is not one of "
         "cps, pods, cpu, mem"),
    ], ids=["run-key", "tft-key", "grid-key", "boxes-key", "section", "int",
            "quantiles", "box-of-one", "box-of-three", "box-reversed", "default-section",
            "no-median", "learning-rate-nan", "learning-rate-zero", "patience", "steady-window",
            "restarts", "sla-factor", "sla-ms", "duration", "sla-ms-nan", "sla-ms-inf", "sla-factor-nan",
            "sla-factor-inf", "alpha-nan", "beta-inf", "box-nan", "intercept-nan", "resources",
            "repeated-feature", "latency-feature"])
    def test_rejects_with_section_and_key(self, tmp_path, text, named):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(UsageError, match=re.escape(named)):
            load_run_config(str(path))

    def test_box_bound_may_be_infinite(self, tmp_path):
        path = tmp_path / "boxes.ini"
        path.write_text("[boxes]\nintercept = -inf, inf\ncps = 0.5, inf\n")
        cfg = load_run_config(str(path))
        assert cfg.intercept_box == (-np.inf, np.inf) and cfg.factor_boxes["cps"] == (0.5, np.inf)

    def test_latency_feature_exits_2_before_simulating(self, tmp_path, capsys):
        path = tmp_path / "latency.ini"
        path.write_text(TINY_INI.replace("features = cps.green,", "features = latency_p95.blue,"))
        rc = main(["e2e", "--scenario", "sla_demo", "--config", str(path),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: [run] features: feature 'latency_p95.blue': kind 'latency_p95' is not one of "
            "cps, pods, cpu, mem\n")
        assert not (tmp_path / "out").exists()

    def test_cli_exits_2_on_unknown_key(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_INI.replace("[tft]", "[tft]\nmax_epoch = 5"))
        rc = main(["train", "--config", str(path), "--dataset", str(workspace["out"] / "dataset.csv"),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert "error: [tft] max_epoch: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["e2e", "--restarts", "0"], "--restarts 0: restarts must be positive"),
        (["e2e", "--sla-factor", "-1"], "--sla-factor -1.0: sla_factor must be positive"),
        (["e2e", "--sla-ms", "0"], "--sla-ms 0.0: sla_ms must be positive"),
        (["e2e", "--scenario", "sla_demo", "--sla-ms", "nan"],
         "--sla-ms nan: sla_ms must be finite, got nan"),
        (["e2e", "--scenario", "sla_demo", "--sla-ms", "inf"],
         "--sla-ms inf: sla_ms must be finite, got inf"),
        (["e2e", "--scenario", "sla_demo", "--sla-factor", "nan"],
         "--sla-factor nan: sla_factor must be finite, got nan"),
        (["train", "--epochs", "0"], "--epochs 0: max_epochs must be positive, got 0"),
        (["simulate", "--duration", "-5"], "--duration -5: duration must be positive"),
    ], ids=["restarts", "sla-factor", "sla-ms", "sla-ms-nan", "sla-ms-inf", "sla-factor-nan",
            "epochs", "duration"])
    def test_flags_get_the_same_checks(self, tmp_path, capsys, args, named):
        assert main([*args, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_every_flag_names_a_setting(self):
        # flags are applied by name, so another dest would escape as a TypeError
        for flag, (dest, _) in cli.FLAGS.items():
            section, _, name = dest.rpartition(".")
            settings = getattr(RunConfig(), section) if section else RunConfig()
            assert name in {f.name for f in dataclasses.fields(settings)}, flag

    def test_only_given_flags_override_the_config(self):
        cfg = RunConfig(trace="blue", out="runs/a", seed=4)
        args = cli.build_parser().parse_args(["train", "--epochs", "3", "--quiet", "--seed", "5"])
        assert cli.apply_cli_overrides(cfg, args) == dataclasses.replace(
            cfg, seed=5, quiet=True, tft=dataclasses.replace(cfg.tft, max_epochs=3))

    def test_run_section_sets_every_scalar_field(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nscenario = sla_demo\nfeatures = cps.green, pods.cart\n"
                        "seed = 4\nduration = 30\nsla_ms = 12.5\nwindow_start = 7\n"
                        "out = runs/a\nquiet = yes\nrestarts =\n")
        cfg = load_run_config(str(path))
        assert (cfg.scenario, cfg.features, cfg.seed, cfg.duration, cfg.sla_ms) == (
            "sla_demo", ["cps.green", "pods.cart"], 4, 30, 12.5)
        assert (cfg.window_start, cfg.out, cfg.quiet) == (7, "runs/a", True)
        assert cfg.restarts == RunConfig().restarts  # an empty value keeps the default

    def test_shipped_config_loads(self):
        with resources.as_file(bundled("configs", "demo.ini")) as path:
            cfg = load_run_config(str(path))
        assert cfg.restarts == 3 and cfg.tft.encoder_length == 64 and cfg.grid.folds == 3
        assert cfg.factor_boxes["pods"] == (2.0, 4.0) and cfg.intercept_box == (-10000.0, 10000.0)

    @pytest.mark.parametrize("name", ["cart_importance", "robotshop_green", "sla_demo"])
    def test_bundled_scenario_is_a_fixed_point(self, name):
        with resources.as_file(bundled("scenarios", f"{name}.json")) as path:
            doc = scenario_to_dict(load_scenario(path))
        assert scenario_to_dict(scenario_from_dict(doc)) == doc


class TestInvalidScenario:
    @pytest.mark.parametrize("command", ["simulate", "e2e"])
    @pytest.mark.parametrize("edit", ["bad-json", "unknown-key", "missing-field", "zero-pods",
                                      "no-workload", "no-service", "zero-period",
                                      "negative-noise", "negative-workload-noise",
                                      "pods-above-max", "cpu-below-min", "empty-pods-box",
                                      "fractional-int", "boolean-int", "boolean-float"])
    def test_usage_error(self, tmp_path, capsys, command, edit):
        doc = json.loads(json.dumps(TINY_SCENARIO))
        says = ""
        if edit == "unknown-key":
            doc["services"]["cart"]["pod"] = 4
        elif edit == "missing-field":
            del doc["workloads"]["green"]["base"]
        elif edit == "zero-pods":
            doc["services"]["cart"]["pods"] = 0
        elif edit == "no-workload":
            del doc["workloads"]["green"]
            says = "no workload profile for trace 'green'"
        elif edit == "no-service":
            del doc["services"]["cart"]
            says = "service 'cart' on trace 'purple' has no configuration"
        elif edit == "zero-period":
            doc["workloads"]["green"]["period"] = 0
            says = "workload 'green': period must be > 0"
        elif edit == "negative-noise":
            doc["noise_sigma"] = -0.1
            says = "top level: noise_sigma must be >= 0"
        elif edit == "negative-workload-noise":
            doc["workloads"]["green"]["noise_sigma"] = -0.1
            says = "workload 'green': noise_sigma must be >= 0"
        elif edit == "pods-above-max":
            doc["services"]["cart"]["pods"] = 20
            says = "service 'cart': pods 20 is outside its box [1, 16]"
        elif edit == "cpu-below-min":
            doc["services"]["cart"]["cpu_cores"] = 0.01
            says = "service 'cart': cpu_cores 0.01 is outside its box [0.05, 32]"
        elif edit == "empty-pods-box":
            doc["services"]["cart"]["pods_max"] = 0
            says = "service 'cart': pods 3 is outside its box [1, 0]"
        elif edit == "fractional-int":
            doc["duration_steps"] = 150.7
            says = "top level duration_steps: expected an integer, got 150.7"
        elif edit == "boolean-int":
            doc["services"]["cart"]["pods"] = True
            says = "service 'cart' pods: expected an integer, got true"
        elif edit == "boolean-float":
            doc["services"]["cart"]["cpu_cores"] = True
            says = "service 'cart' cpu_cores: expected a number, got true"
        text = json.dumps(doc)
        path = tmp_path / "scenario.json"
        path.write_text(text[:-1] if edit == "bad-json" else text)
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario {path}: ")
        assert says in err
        if says:
            assert "missing key" not in err


def parser_flags(command):
    """The flags the parser of ``command`` offers, besides ``--help``."""
    parser = cli.build_parser()._subparsers._group_actions[0].choices[command]
    return {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}


class TestArgparse:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_offers_exactly_its_flags(self, command):
        _, _, flags = cli.COMMANDS[command]
        assert parser_flags(command) == {"--config", "--out", "--quiet", *flags}

    def test_flag_pairs(self):
        assert sum(len(parser_flags(command)) for command in cli.COMMANDS) == 48

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--trace"), ("simulate", "--resources"), ("simulate", "--sla-ms"),
        ("train", "--sla-ms"),
        ("predict", "--seed"), ("predict", "--trace"), ("predict", "--resources"),
        ("predict", "--sla-ms"),
        ("interpret", "--seed"), ("interpret", "--trace"), ("interpret", "--resources"),
        ("interpret", "--sla-ms"),
        ("evaluate", "--seed"), ("evaluate", "--trace"), ("evaluate", "--resources"),
        ("evaluate", "--sla-ms"), ("evaluate", "--window-start"),
        ("plan", "--seed"), ("plan", "--resources"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        value = "both" if flag == "--resources" else "3"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
