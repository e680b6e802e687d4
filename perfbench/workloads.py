"""The benchmark's workloads.

Each workload is closed-loop with one client: the runner calls ``op``
again only after the previous call has returned.  ``setup`` is run
several times and the last run's state is kept.  ``check`` looks at
one operation's outputs after its clock has stopped and returns the
problems it found; it also collects the quality figures the runner
reports.

* ``closed_loop``: ``latscale e2e --scenario sla_demo`` in-process via
  ``cli.main``; one full loop per operation.
* ``train_long``: ``tft.train`` at the paper's window shape (encoder
  400, decoder 50) on ``robotshop_green``; one fixed-length training
  run per operation.
* ``react``: the online control path on a trained model; one
  forecast -> plan -> re-simulation request per operation.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import shutil
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import lsq_linear

# The loop runs the bundled demo config with training cut to one epoch
# per run and two restart scouts, so a loop takes seconds instead of
# minutes.  Early stopping cannot end an epoch count this short, so the
# work per loop does not depend on the seed.
LOOP_RESTARTS = 2
LOOP_EPOCHS = 1
REACT_SETUP_EPOCHS = 1
REACT_WINDOWS = 100  # requests cycle through the last windows of the dataset
LONG_ENCODER, LONG_DECODER = 400, 50
LONG_BLOCK = 160  # windows per training run: 128 train, 32 validation
LONG_EPOCHS = 1
SLA_SLACK = 1.05  # a plan is right when the re-simulated p95 is within 5% of the SLA
SUM_TOLERANCE = 1e-9


def write_bench_config(path: Path):
    parser = configparser.ConfigParser()
    demo = resources.files("latscale") / "configs" / "demo.ini"
    parser.read_string(demo.read_text())
    parser["run"]["restarts"] = str(LOOP_RESTARTS)
    parser["tft"]["max_epochs"] = str(LOOP_EPOCHS)
    parser["tft"]["early_stopping_patience"] = str(LOOP_EPOCHS)
    with open(path, "w") as fh:
        parser.write(fh)


def theta_boxes(cfg, features):
    """(intercept box, one box per feature), as the config defines them."""
    kinds = ("pods", "cpu", "mem", "cps")
    return (tuple(cfg.intercept_box),
            [tuple(cfg.factor_boxes[f.partition(".")[0] if f.partition(".")[0] in kinds else "cps"])
             for f in features])


def theta_problems(theta, intercept_box, factor_boxes):
    boxes = [intercept_box] + list(factor_boxes)
    if len(theta) != len(boxes):
        return [f"theta has {len(theta)} components for {len(boxes)} boxes"]
    return [f"theta[{i}]={v!r} outside [{lo}, {hi}]"
            for i, (v, (lo, hi)) in enumerate(zip(theta, boxes)) if not lo <= v <= hi]


def theta_excess(scaler, models, importance, target, intercept_box, factor_boxes, objective):
    """Relative gap between the solver's objective and the BVLS optimum.

    G = [1 | F] is close to singular, so BVLS runs on G as given and on
    G with unit-norm columns; the better of the two is the optimum.  The
    gap is absolute when the optimum is an exact fit.
    """
    fun, design = scaler.least_squares_objective(models, importance, target)
    t = np.asarray(target, dtype=np.float64)
    boxes = [intercept_box] + list(factor_boxes)
    lo = np.array([b[0] for b in boxes], dtype=np.float64)
    hi = np.array([b[1] for b in boxes], dtype=np.float64)
    raw = lsq_linear(design, t, bounds=(lo, hi), method="bvls").x
    scale = 1.0 / np.maximum(np.linalg.norm(design, axis=0), 1e-300)
    scaled = lsq_linear(design * scale, t, bounds=(lo / scale, hi / scale), method="bvls").x
    best = min(fun(raw)[0], fun(np.clip(scaled * scale, lo, hi))[0])
    return (objective - best) / best if best > 0 else objective


def forecast_problems(values):
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        return ["forecast has non-finite values"]
    if np.any(np.diff(values, axis=1) < 0):
        return ["forecast quantiles cross"]
    return []


def row_sum_problems(label, matrix):
    worst = float(np.max(np.abs(np.asarray(matrix).sum(axis=1) - 1.0)))
    return [] if worst <= SUM_TOLERANCE else [f"{label} rows sum to 1 +- {worst:.3g}"]


class Workload:
    name = ""

    def __init__(self, ls, work: Path, seed: int):
        self.ls = ls
        self.work = work
        self.seed = seed
        self.val_losses: list[float] = []
        self.sla_ratios: list[float] = []
        self.theta: list[tuple[float, bool]] = []  # (excess over BVLS, solver said converged)
        self.config_path = work / "bench.ini"
        write_bench_config(self.config_path)
        self.cfg = ls.cli.load_run_config(str(self.config_path))

    def scenario(self, name):
        scenario = self.ls.cli.resolve_scenario(name)
        scenario.seed = self.seed
        return scenario

    def steady_p95(self, dataset):
        return self.ls.p95(dataset.target(self.cfg.trace).values[-self.cfg.steady_window:])


class ClosedLoop(Workload):
    """``latscale e2e --scenario sla_demo`` once per operation.

    Set-up simulates the scenario on the benchmark side to know the
    steady-state p95 and SLA the loop must report.
    """

    name = "closed_loop"
    summary = None  # bytes of the first loop's summary.json

    def setup(self):
        dataset = self.scenario("sla_demo").run()
        self.before_p95 = self.steady_p95(dataset)
        self.sla_ms = self.cfg.sla_factor * self.before_p95

    def op(self, i):
        out = self.work / f"loop-{i}"
        code = self.ls.cli.main(["e2e", "--scenario", "sla_demo", "--config", str(self.config_path),
                                 "--seed", str(self.seed), "--out", str(out), "--quiet"])
        return code, out

    def check(self, i, result):
        code, out = result
        try:
            return [f"exit code {code}"] if code != 0 else self._check_artifacts(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_artifacts(self, out: Path):
        ls = self.ls
        problems = []
        summary_bytes = (out / "summary.json").read_bytes()
        if self.summary is None:
            self.summary = summary_bytes
        elif summary_bytes != self.summary:
            problems.append("summary.json differs from the first loop with the same seed")
        summary = json.loads(summary_bytes)
        if not summary["violated"]:
            return problems + ["no violation forecast on sla_demo, so no plan to check"]
        if not summary["sla_met_within_5pct"]:
            problems.append("sla_met_within_5pct is false")
        if summary["before_p95_ms"] != self.before_p95 or summary["sla_ms"] != self.sla_ms:
            problems.append("steady-state p95 or SLA differs from the benchmark's simulation")
        self.sla_ratios.append(summary["after_p95_ms"] / summary["sla_ms"])
        report = json.loads((out / "training_report.json").read_text())
        self.val_losses.append(min(report["val_loss"]))

        plan_text = (out / "plan.json").read_text().rstrip("\n")
        plan = ls.scaler.ScalingPlan.from_json(plan_text)
        if plan.to_json() != plan_text:
            problems.append("plan.json does not round-trip")
        features, importance = ls.cli.read_importance_csv(out / "importance.csv")
        intercept_box, factor_boxes = theta_boxes(self.cfg, features)
        problems += theta_problems(plan.theta, intercept_box, factor_boxes)
        problems += row_sum_problems("importance", importance)
        with open(out / "forecast.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_q = len({r["quantile"] for r in rows})
        problems += forecast_problems(np.array([float(r["value_ms"]) for r in rows]).reshape(-1, n_q))

        forecast = ls.cli.read_forecast_csv(out / "forecast.csv")
        violation = ls.scaler.detect_violation(forecast, ls.scaler.SlaSpec(summary["sla_ms"]))
        target = ls.scaler.desired_latency(forecast, violation)
        models_doc = json.loads((out / "krr_models.json").read_text())
        models = [ls.krr.KrrModel.from_json(json.dumps(m)) for m in models_doc["models"]]
        self.theta.append((theta_excess(ls.scaler, models, importance, target, intercept_box,
                                        factor_boxes, plan.objective_value), plan.converged))
        return problems


class TrainLong(Workload):
    """``tft.train`` at encoder 400 / decoder 50 for a fixed epoch count.

    Set-up simulates ``robotshop_green``, round-trips the dataset through
    its CSV form and cuts 1,551 windows.  Operation i trains a fresh
    model on block i of ``LONG_BLOCK`` consecutive windows, starting at a
    seed-chosen block, so the work per operation is the same while the
    data moves through the series.
    """

    name = "train_long"

    def setup(self):
        ls = self.ls
        dataset = self.scenario("robotshop_green").run()
        path = self.work / "robotshop_green.csv"
        ls.trace_data.save_dataset(dataset, path)
        loaded = ls.load_dataset(path)
        for series in dataset.series:
            if not np.array_equal(loaded.get(series.name).values, series.values):
                raise RuntimeError(f"dataset CSV does not round-trip column {series.name}")
        features = self.cfg.features
        self.windows = ls.make_windows(loaded, ls.WindowSpec(LONG_ENCODER, LONG_DECODER),
                                       self.cfg.trace, features)
        self.encoder_features = features + [loaded.target(self.cfg.trace).name]
        self.blocks = len(self.windows) // LONG_BLOCK
        self.first_block = int(np.random.default_rng(self.seed).integers(self.blocks))
        self.config = ls.TftConfig(encoder_length=LONG_ENCODER, decoder_length=LONG_DECODER,
                                   max_epochs=LONG_EPOCHS, early_stopping_patience=LONG_EPOCHS,
                                   seed=self.seed)

    def op(self, i):
        start = (self.first_block + i) % self.blocks * LONG_BLOCK
        model = self.ls.TemporalFusionTransformer(self.config, self.encoder_features,
                                                  self.cfg.features)
        return self.ls.tft.train(model, self.windows[start:start + LONG_BLOCK])

    def check(self, i, report):
        problems = []
        losses = report.train_loss + report.val_loss
        if len(report.train_loss) != LONG_EPOCHS:
            problems.append(f"trained {len(report.train_loss)} epochs, expected {LONG_EPOCHS}")
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss")
        else:
            self.val_losses.append(min(report.val_loss))
        return problems


class React(Workload):
    """Re-planning on a trained model, one window per request.

    Set-up simulates ``sla_demo`` and trains a model for a fixed short
    epoch count.  Request i takes window i of the last ``REACT_WINDOWS``
    windows through predict, violation check, interpretation, KRR fit,
    theta solve and plan, then applies the plan and re-simulates to see
    whether it meets the SLA.
    """

    name = "react"

    def setup(self):
        ls = self.ls
        cfg = self.cfg
        self.scen = self.scenario("sla_demo")
        dataset = self.scen.run()
        self.features = list(cfg.features)
        windows = ls.make_windows(dataset, ls.WindowSpec(cfg.tft.encoder_length,
                                                         cfg.tft.decoder_length),
                                  cfg.trace, self.features)
        config = replace(cfg.tft, seed=self.seed, max_epochs=REACT_SETUP_EPOCHS,
                         early_stopping_patience=REACT_SETUP_EPOCHS)
        self.model = ls.TemporalFusionTransformer(
            config, self.features + [dataset.target(cfg.trace).name], self.features)
        report = ls.tft.train(self.model, windows)
        self.val_losses.append(min(report.val_loss))
        self.windows = windows[-REACT_WINDOWS:]
        self.sla_ms = cfg.sla_factor * self.steady_p95(dataset)
        self.boxes = theta_boxes(cfg, self.features)
        self.catalog, self.resource_bounds = [], {}
        for name in self.features:
            resource, _, service = name.partition(".")
            actionable = resource in ls.scaler.ACTIONABLE_RESOURCES
            self.catalog.append(ls.scaler.FeatureSpec(
                name=name, actionable=actionable, microservice=service if actionable else None,
                resource=resource if actionable else None,
                current=float(dataset.get(name).values[-1])))
            if resource == "pods":
                self.resource_bounds[name] = (1.0, float(self.scen.configs[service].pods_max))

    def op(self, i):
        ls = self.ls
        window = self.windows[i % len(self.windows)]
        forecast = ls.tft.predict(self.model, window)
        violation = ls.scaler.detect_violation(forecast, ls.scaler.SlaSpec(self.sla_ms))
        if not violation.violated:
            return {"forecast": forecast}
        importance = ls.tft.interpret(self.model, window)
        matrix = importance.decoder_variable_importance
        target = ls.scaler.desired_latency(forecast, violation)
        fit = ls.krr.fit_per_feature(matrix, target, self.cfg.grid, feature_names=self.features)
        intercept_box, factor_boxes = self.boxes
        theta, result = ls.scaler.solve_theta(fit.models, matrix, target,
                                              factor_bounds=factor_boxes,
                                              intercept_bounds=intercept_box)
        plan = ls.scaler.make_plan(theta, self.catalog, self.resource_bounds, trace=self.cfg.trace,
                                   sla_ms=self.sla_ms,
                                   violation_fraction=violation.violation_fraction,
                                   converged=result.converged,
                                   objective_value=result.objective_value)
        after = replace(self.scen, configs=ls.simulator.apply_plan(self.scen.configs, plan)).run()
        return {"forecast": forecast, "importance": importance, "fit": fit, "target": target,
                "plan": plan, "after_p95": self.steady_p95(after)}

    def check(self, i, request):
        ls = self.ls
        problems = forecast_problems(request["forecast"].values)
        if "plan" not in request:
            return problems
        importance, plan = request["importance"], request["plan"]
        problems += row_sum_problems("decoder importance", importance.decoder_variable_importance)
        problems += row_sum_problems("encoder importance", importance.encoder_variable_importance)
        problems += row_sum_problems("attention", importance.attention_profile)
        problems += theta_problems(plan.theta, *self.boxes)
        if ls.scaler.ScalingPlan.from_json(plan.to_json()) != plan:
            problems.append("plan JSON does not round-trip")
        ratio = request["after_p95"] / self.sla_ms
        if ratio > SLA_SLACK:
            problems.append(f"re-simulated p95 is {ratio:.3f} x the SLA")
        self.sla_ratios.append(ratio)
        self.theta.append((theta_excess(ls.scaler, request["fit"].models,
                                        importance.decoder_variable_importance, request["target"],
                                        *self.boxes, plan.objective_value), plan.converged))
        return problems


WORKLOADS = {w.name: w for w in (ClosedLoop, TrainLong, React)}
