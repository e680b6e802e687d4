"""Command-line entry point: simulate | train | predict | interpret |
plan | e2e | evaluate.

Every command is deterministic for a fixed (config, seed) pair and
writes plain CSV/JSON artifacts.  Exit codes: 0 success, 2 usage or
validation error, 3 runtime failure labeled with the failing stage.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import math
import shutil
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from . import krr, scaler, tft
from .reader import type_hints
from .simulator import Scenario, apply_plan, load_scenario, resource_bounds, scenario_to_dict
from .trace_data import (
    KINDS, RESOURCE_MODES, DataFormatError, DatasetTooShortError, WindowSpec, load_dataset,
    make_windows, p95, save_dataset,
)

# A factor box for each kind a feature can be, by its column's prefix:
# front-end calls and resources, never a latency
DEFAULT_FACTOR_BOXES = {kind: scaler.DEFAULT_FACTOR_BOX for kind in KINDS if kind != "latency_p95"}


def _not_a_feature(name: str) -> str | None:
    """Why the column ``name`` cannot be a feature, or None if it can."""
    kind = name.partition(".")[0]
    return None if kind in DEFAULT_FACTOR_BOXES else (
        f"feature {name!r}: kind {kind!r} is not one of {', '.join(DEFAULT_FACTOR_BOXES)}")


class UsageError(Exception):
    """Bad flags, missing files, or invalid configuration."""


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


@dataclass
class RunConfig:
    scenario: str | None = None
    dataset: str | None = None
    checkpoint: str | None = None
    trace: str = "green"
    resources: str = "both"
    features: list[str] | None = None
    seed: int | None = None
    duration: int | None = None
    sla_ms: float | None = None
    sla_factor: float = 0.8
    steady_window: int = 400
    restarts: int = 1
    window_start: int | None = None
    out: str = "."
    quiet: bool = False
    tft: tft.TftConfig = field(default_factory=tft.TftConfig)
    grid: krr.GridSearchSpec = field(default_factory=krr.GridSearchSpec)
    intercept_box: tuple[float, float] = scaler.DEFAULT_INTERCEPT_BOX
    factor_boxes: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_FACTOR_BOXES)
    )

    def __post_init__(self):
        if self.resources not in RESOURCE_MODES:
            raise ValueError(f"unknown resource mode {self.resources!r}")
        repeated = [f for i, f in enumerate(self.features or ()) if f in self.features[:i]]
        if repeated:
            raise ValueError(f"feature {repeated[0]!r} listed twice")
        for name in self.features or ():
            if reason := _not_a_feature(name):
                raise ValueError(reason)
        for name in ("steady_window", "restarts", "sla_factor", "sla_ms", "duration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _parse_pair(text: str) -> tuple[float, float]:
    parts = _parse_list(text)
    if len(parts) != 2:
        raise ValueError(f"expected 'lo, hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"a bound is not a number in {text!r}")
    if lo > hi:
        raise ValueError(f"expected lo <= hi, got {text!r}")
    return lo, hi


def _parse_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


# How an INI value is parsed, by the type of the field it sets; a field
# of any other type cannot be set from its section.
_PARSERS = {
    str: str,
    int: int,
    float: float,
    bool: _parse_bool,
    list[str]: _parse_list,
    tuple[float, ...]: lambda text: tuple(float(v) for v in _parse_list(text)),
}


def _read_section(name: str, section, settings):
    """``settings`` (a dataclass) with the section's values applied, one
    field at a time so an error names its key.  An empty value leaves
    the field's default."""
    hints = type_hints(type(settings))
    for key, text in section.items():
        hint = hints.get(key)
        if type(None) in typing.get_args(hint):
            (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
        if hint not in _PARSERS:
            raise UsageError(f"[{name}] {key}: unknown key")
        if not text:
            continue
        with _usage(f"[{name}] {key}"):
            settings = replace(settings, **{key: _PARSERS[hint](text)})
    return settings


def _read_boxes(section, cfg: RunConfig):
    for key, text in section.items():
        if key != "intercept" and key not in cfg.factor_boxes:
            raise UsageError(f"[boxes] {key}: unknown key")
        if not text:
            continue
        with _usage(f"[boxes] {key}"):
            box = _parse_pair(text)
        if key == "intercept":
            cfg.intercept_box = box
        else:
            cfg.factor_boxes[key] = box


def load_run_config(path: str | None) -> RunConfig:
    """Read an INI config; an unknown section or key, or a value that
    does not parse or that its settings reject, raises UsageError."""
    cfg = RunConfig()
    if path is None:
        return cfg
    if not Path(path).exists():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    with _usage(f"config file {path}", configparser.Error):
        parser.read(path)
    if parser.defaults():
        raise UsageError("[DEFAULT]: unknown section")
    for name in parser.sections():
        if name == "run":
            cfg = _read_section(name, parser[name], cfg)
        elif name in ("tft", "grid"):
            setattr(cfg, name, _read_section(name, parser[name], getattr(cfg, name)))
        elif name == "boxes":
            _read_boxes(parser[name], cfg)
        else:
            raise UsageError(f"[{name}]: unknown section")
    return cfg


def bundled_names() -> list[str]:
    root = importlib_resources.files("latscale") / "scenarios"
    return sorted(p.name.rsplit(".", 1)[0] for p in root.iterdir())


def resolve_scenario(name_or_path: str) -> Scenario:
    """Load a scenario file or a bundled scenario by name; a missing or
    invalid scenario raises UsageError."""
    path = Path(name_or_path)
    if not path.exists():
        path = importlib_resources.files("latscale") / "scenarios" / f"{name_or_path}.json"
        if not path.is_file():
            raise UsageError(
                f"scenario {name_or_path!r} is neither a file nor a bundled name "
                f"(bundled: {', '.join(bundled_names())})"
            )
    with _usage(f"scenario {name_or_path}", (OSError, ValueError)), \
            importlib_resources.as_file(path) as real:
        return load_scenario(real)


def _say(cfg: RunConfig, message: str):
    if not cfg.quiet:
        print(message, file=sys.stderr)


@contextlib.contextmanager
def _usage(where: str | None, errors=ValueError):
    """Report an ``errors`` exception inside the block as a usage error
    (exit 2), its message prefixed by ``where`` when one is given."""
    try:
        yield
    except errors as exc:
        raise UsageError(f"{where}: {exc}" if where else str(exc)) from exc


@contextlib.contextmanager
def _stage(name: str):
    """Report a failure inside the block as stage ``name``'s; an interrupt passes through."""
    try:
        yield
    except (UsageError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# Artifact writers and readers


def write_forecast_csv(forecast: tft.QuantileForecast, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "quantile", "value_ms"])
        for step in range(forecast.horizon):
            for qi, q in enumerate(forecast.quantiles):
                writer.writerow([step + 1, repr(float(q)), repr(float(forecast.values[step, qi]))])


def read_forecast_csv(path) -> tft.QuantileForecast:
    quantiles, values = _read_steps(path, "quantile", "value_ms", float)
    if 0.5 not in quantiles:
        raise DataFormatError("no 0.5 quantile, the median a plan reads", column="quantile")
    order = np.argsort(quantiles)
    return tft.QuantileForecast(quantiles=tuple(quantiles[i] for i in order), values=values[:, order])


def write_importance_csv(features, matrix, path, column: str = "feature"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", column, "weight"])
        for step in range(matrix.shape[0]):
            for name, value in zip(features, matrix[step]):
                writer.writerow([step + 1, name, repr(float(value))])


def read_importance_csv(path) -> tuple[list[str], np.ndarray]:
    return _read_steps(path, "feature", "weight", str)


def _csv_rows(path, columns):
    """(line number, row) for each data row of a CSV file whose header
    has ``columns``; a missing column or a ragged row raises
    DataFormatError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in columns:
            if name not in (reader.fieldnames or ()):
                raise DataFormatError("missing column", row=1, column=name)
        for row in reader:
            if None in row or None in row.values():
                raise DataFormatError(f"ragged row: expected {len(reader.fieldnames)} cells",
                                      row=reader.line_num)
            yield reader.line_num, row


def _cell(row_no: int, row, column: str, parse):
    try:
        value = parse(row[column])
    except ValueError:
        raise DataFormatError(f"cannot read {row[column]!r} as {parse.__name__}",
                              row=row_no, column=column) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise DataFormatError(f"non-finite cell {row[column]!r}", row=row_no, column=column)
    return value


def _read_steps(path, key_column: str, value_column: str, key_type):
    """A ``step,<key>,<value>`` CSV as its keys in first-seen order and a
    (steps, keys) matrix.  A non-numeric or non-finite number, a negative
    value (latencies and weights are never below zero), a repeated
    (step, key) pair or a step without every key raises DataFormatError."""
    per_step: dict[int, dict] = {}
    keys: dict = {}  # insertion-ordered set
    for row_no, row in _csv_rows(path, ("step", key_column, value_column)):
        step_values = per_step.setdefault(_cell(row_no, row, "step", int), {})
        key = _cell(row_no, row, key_column, key_type)
        keys.setdefault(key)
        if key in step_values:
            raise DataFormatError(f"repeated {key_column} {key!r} in one step",
                                  row=row_no, column=key_column)
        step_values[key] = _cell(row_no, row, value_column, float)
        if step_values[key] < 0:
            raise DataFormatError(f"negative cell {row[value_column]!r}",
                                  row=row_no, column=value_column)
    if not per_step:
        raise DataFormatError("no data rows")
    for step, step_values in per_step.items():
        if len(step_values) != len(keys):
            lacking = [k for k in keys if k not in step_values]
            raise DataFormatError(f"step {step} lacks {key_column} {lacking[0]!r}", column="step")
    return list(keys), np.array([[per_step[s][k] for k in keys] for s in sorted(per_step)])


def write_json(doc, path):
    """Write ``doc`` as strict JSON: a nan or inf raises ValueError, and
    then no file is written."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _fit_scores(fit: krr.PerFeatureFit) -> dict:
    """The fit's scores; ``pooled_r2`` is null where a constant target leaves it undefined."""
    r2 = None if math.isnan(fit.pooled_r2) else fit.pooled_r2
    return {"cv_mse": fit.cv_mse, "pooled_rmse": fit.pooled_rmse, "pooled_r2": r2}


def write_krr_fit(fit: krr.PerFeatureFit, features, out: Path):
    """The fitted models with their scores (krr_models.json) and every
    feature's grid-search table (krr_cv.csv)."""
    models = [json.loads(m.to_json()) for m in fit.models]
    write_json({"models": models, **_fit_scores(fit)}, out / "krr_models.json")
    with open(out / "krr_cv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "alpha", "beta", "cv_mse"])
        for name, search in zip(features, fit.searches):
            for i, alpha in enumerate(search.alpha_grid):
                for j, beta in enumerate(search.beta_grid):
                    writer.writerow([name, repr(alpha), repr(beta), repr(float(search.table[i, j]))])


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _load_dataset_or_fail(cfg: RunConfig):
    if not cfg.dataset:
        raise UsageError("--dataset (or the config's dataset entry) is required")
    if not Path(cfg.dataset).exists():
        raise UsageError(f"dataset file not found: {cfg.dataset}")
    with _usage(f"dataset {cfg.dataset}"):
        return load_dataset(cfg.dataset)


def _checkpoint_inputs(cfg: RunConfig):
    """The model, its windows of the dataset (the target is the model's,
    its last encoder feature) and the created output directory of a command
    that reads a checkpoint; a checkpoint or dataset they cannot come from
    raises UsageError."""
    if not cfg.checkpoint:
        raise UsageError("--checkpoint is required")
    with _usage(f"checkpoint {cfg.checkpoint}", (OSError, ValueError)):
        model = tft.load_checkpoint(cfg.checkpoint)
    kind, _, trace = model.encoder_features[-1].partition(".")
    if kind != "latency_p95" or model.encoder_features[:-1] != model.decoder_features:
        raise UsageError(f"checkpoint {cfg.checkpoint}: encoder_features are not the "
                         f"decoder_features and then a latency_p95 target")
    if model.feature_scaling is None:
        raise UsageError(f"checkpoint {cfg.checkpoint}: feature_scaling is null (an untrained model)")
    dataset = _load_dataset_or_fail(cfg)
    missing = [f for f in model.decoder_features if not _has_series(dataset, f)]
    if missing:
        raise UsageError(f"checkpoint/feature mismatch: dataset lacks {', '.join(missing)}")
    windows = _dataset_windows(dataset, trace, model.decoder_features, model.config,
                               f"checkpoint {cfg.checkpoint}, dataset {cfg.dataset}",
                               "config encoder_length and decoder_length")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return model, windows, out


def _select_features(cfg: RunConfig, dataset) -> list[str]:
    if cfg.features:
        missing = [f for f in cfg.features if not _has_series(dataset, f)]
        if missing:
            raise UsageError(f"features not in dataset: {', '.join(missing)}")
        return list(cfg.features)
    return dataset.feature_names(cfg.resources)


def _has_series(dataset, name: str) -> bool:
    try:
        dataset.get(name)
        return True
    except KeyError:
        return False


def _dataset_windows(dataset, trace: str, features, tft_config, source: str, lengths: str):
    """The windows; an error names ``source``, and a dataset too short for
    them names ``lengths`` too, the settings of the window lengths."""
    spec = WindowSpec(tft_config.encoder_length, tft_config.decoder_length)
    with _usage(source, Exception), _usage(lengths, DatasetTooShortError):
        return make_windows(dataset, spec, trace, features)


def _pick_window(cfg: RunConfig, windows):
    """The window at ``cfg.window_start`` (window i starts at step i), or the last one."""
    if cfg.window_start is None:
        return windows[-1]
    if not 0 <= cfg.window_start < len(windows):
        raise UsageError(f"no window starts at step {cfg.window_start}")
    return windows[cfg.window_start]


def _build_catalog(features, dataset, scenario: Scenario | None):
    catalog = []
    bounds = {}
    for name in features:
        series = dataset.get(name)
        actionable = series.kind in scaler.ACTIONABLE_RESOURCES
        catalog.append(
            scaler.FeatureSpec(
                name=name,
                actionable=actionable,
                microservice=series.microservice,
                resource=series.kind if actionable else None,
                current=float(series.values[-1]),
            )
        )
        if actionable:
            svc = scenario.configs.get(series.microservice) if scenario else None
            bounds[name] = resource_bounds(svc)[series.kind]
    return catalog, bounds


def _theta_boxes(cfg: RunConfig, features):
    """The intercept box and each feature's factor box, by its kind."""
    boxes = [tuple(cfg.factor_boxes[name.partition(".")[0]]) for name in features]
    return tuple(cfg.intercept_box), boxes


# ---------------------------------------------------------------------------
# Stages of the loop.  Each runs under its own stage label and writes its
# own artifacts; its command and e2e both call it.


def _simulate(cfg: RunConfig, out: Path):
    """Run the configured scenario with the run's duration and seed;
    writes dataset.csv and scenario_echo.json."""
    if not cfg.scenario:
        raise UsageError("--scenario is required")
    scenario = resolve_scenario(cfg.scenario)
    if cfg.duration is not None:
        with _usage(f"scenario {cfg.scenario}"):  # a burst may end past a shorter duration
            scenario = replace(scenario, duration_steps=cfg.duration)
    if cfg.seed is not None:
        scenario.seed = cfg.seed
    out.mkdir(parents=True, exist_ok=True)
    with _stage("simulate"):
        dataset = scenario.run()
        save_dataset(dataset, out / "dataset.csv")
        write_json(scenario_to_dict(scenario), out / "scenario_echo.json")
    return scenario, dataset


def _train_model(cfg: RunConfig, dataset, source: str, out_dir: Path):
    """Train with restarts on the dataset from ``source``; writes
    checkpoint.json and training_report.json."""
    features = _select_features(cfg, dataset)
    tft_config = cfg.tft if cfg.seed is None else replace(cfg.tft, seed=cfg.seed)
    windows = _dataset_windows(dataset, cfg.trace, features, tft_config, source,
                               "[tft] encoder_length and decoder_length")
    epoch_log = None if cfg.quiet else (
        lambda e, tr, vl: print(f"epoch {e}: train {tr:.4f} val {vl:.4f}", file=sys.stderr)
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("train"):
        enc_features = list(features) + [dataset.target(cfg.trace).name]
        model, report = tft.train_with_restarts(
            tft_config, enc_features, features, windows,
            restarts=cfg.restarts, on_epoch=epoch_log,
        )
        tft.save_checkpoint(model, out_dir / "checkpoint.json")
        (out_dir / "training_report.json").write_text(report.to_json() + "\n")
    return model, report, windows


def _forecast(cfg: RunConfig, model, windows, out: Path) -> tft.QuantileForecast:
    """Forecast the picked window; writes forecast.csv."""
    window = _pick_window(cfg, windows)
    with _stage("predict"):
        forecast = tft.predict(model, window)
        write_forecast_csv(forecast, out / "forecast.csv")
    return forecast


def _interpret(cfg: RunConfig, model, windows, out: Path) -> tft.ImportanceSeries:
    """Importances of the picked window; writes importance.csv,
    importance_encoder.csv and attention.csv."""
    window = _pick_window(cfg, windows)
    with _stage("interpret"):
        imp = tft.interpret(model, window)
        write_importance_csv(imp.decoder_features, imp.decoder_variable_importance,
                             out / "importance.csv")
        write_importance_csv(imp.encoder_features, imp.encoder_variable_importance,
                             out / "importance_encoder.csv")
        positions = [str(i + 1) for i in range(imp.attention_profile.shape[1])]
        write_importance_csv(positions, imp.attention_profile,
                             out / "attention.csv", column="position")
    return imp


def _held_out_metrics(model, windows) -> tuple[dict, int]:
    """Forecast the held-out windows once; score that forecast and
    persistence.  Returns the scores and the number of held-out windows."""
    with _stage("evaluate"):
        _, held_out = tft.split_windows(windows, model.config.validation_fraction)
        forecasts = tft.predict_many(model, held_out)
        return {
            "model": tft.pooled_forecast_metrics(forecasts, held_out),
            "persistence": tft.persistence_metrics(held_out),
            "band_coverage": tft.band_coverage(forecasts, held_out),
        }, len(held_out)


def _plan(cfg: RunConfig, forecast, features, importance, dataset, scenario,
          sla_ms: float, out: Path):
    """Check ``forecast`` against ``sla_ms``; on a violation fit the KRR
    models (krr_models.json, krr_cv.csv) and solve theta.  Writes
    plan.json, a no-op plan when there is no violation.  Returns the
    violation report, the plan and the KRR fit (None without a violation)."""
    with _stage("plan"):
        report = scaler.detect_violation(forecast, scaler.SlaSpec(sla_ms))
        fit = None
        if not report.violated:
            plan = scaler.ScalingPlan(
                trace=cfg.trace, sla_ms=sla_ms, violation_fraction=0.0, theta=[],
                converged=True, objective_value=0.0, actions=[], advisories=[],
            )
        else:
            desired = scaler.desired_latency(forecast, report)
            fit = krr.fit_per_feature(importance, desired, cfg.grid, feature_names=features)
            write_krr_fit(fit, features, out)
            intercept_box, factor_boxes = _theta_boxes(cfg, features)
            theta, result = scaler.solve_theta(
                fit.models, importance, desired,
                factor_bounds=factor_boxes, intercept_bounds=intercept_box,
            )
            catalog, resource_bounds = _build_catalog(features, dataset, scenario)
            plan = scaler.make_plan(
                theta, catalog, resource_bounds,
                trace=cfg.trace,
                sla_ms=sla_ms,
                violation_fraction=report.violation_fraction,
                converged=result.converged,
                objective_value=result.objective_value,
            )
        (out / "plan.json").write_text(plan.to_json() + "\n")
    return report, plan, fit


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    _, dataset = _simulate(cfg, out)
    _say(cfg, f"wrote {out / 'dataset.csv'} ({dataset.n_steps} steps)")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _, report, _ = _train_model(cfg, _load_dataset_or_fail(cfg), f"dataset {cfg.dataset}", Path(cfg.out))
    _say(cfg, f"stopped at epoch {report.stopped_epoch}, best {report.best_epoch}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model, windows, out = _checkpoint_inputs(cfg)
    _forecast(cfg, model, windows, out)
    _say(cfg, f"wrote {out / 'forecast.csv'}")
    return 0


def cmd_interpret(cfg: RunConfig) -> int:
    model, windows, out = _checkpoint_inputs(cfg)
    _interpret(cfg, model, windows, out)
    _say(cfg, f"wrote {out / 'importance.csv'}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    model, windows, out = _checkpoint_inputs(cfg)
    metrics, n_windows = _held_out_metrics(model, windows)
    with _stage("evaluate"):
        write_json({**metrics, "n_windows": n_windows}, out / "metrics.json")
    _say(cfg, f"wrote {out / 'metrics.json'}")
    return 0


def cmd_plan(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    forecast_path = out / "forecast.csv"
    importance_path = out / "importance.csv"
    for required in (forecast_path, importance_path):
        if not required.exists():
            raise UsageError(f"missing input {required}; run predict/interpret first")
    if cfg.sla_ms is None:
        raise UsageError("--sla-ms is required")
    dataset = _load_dataset_or_fail(cfg)
    scenario = resolve_scenario(cfg.scenario) if cfg.scenario else None
    with _usage(str(forecast_path)):
        forecast = read_forecast_csv(forecast_path)
    with _usage(str(importance_path)):
        features, importance = read_importance_csv(importance_path)
    for row_no, row in _csv_rows(importance_path, ()):
        if not _has_series(dataset, row["feature"]):
            raise UsageError(f"{importance_path}: feature {row['feature']!r} is not in "
                             f"{cfg.dataset} (row {row_no}, column 'feature')")
        if reason := _not_a_feature(row["feature"]):
            raise UsageError(f"{importance_path}: {reason} (row {row_no}, column 'feature')")
    if len(importance) != forecast.horizon:
        raise UsageError(f"{importance_path} has {len(importance)} steps but "
                         f"{forecast_path} has {forecast.horizon}")
    report, _, _ = _plan(cfg, forecast, features, importance, dataset, scenario, cfg.sla_ms, out)
    _say(cfg, f"wrote {out / 'plan.json'} (violated={report.violated})")
    return 0


def cmd_e2e(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    scenario, dataset = _simulate(cfg, out)
    with _stage("sla"):
        before_p95 = p95(dataset.target(cfg.trace).values[-cfg.steady_window :])
        sla_ms = cfg.sla_ms if cfg.sla_ms is not None else cfg.sla_factor * before_p95
    _say(cfg, f"steady-state p95 {before_p95:.1f} ms, SLA {sla_ms:.1f} ms")

    model, train_report, windows = _train_model(
        cfg, dataset, f"scenario {cfg.scenario}, [run] duration", out)
    forecast = _forecast(cfg, model, windows, out)
    tft_metrics, _ = _held_out_metrics(model, windows)
    imp = _interpret(cfg, model, windows, out)
    violation, plan, fit = _plan(cfg, forecast, list(imp.decoder_features),
                                 imp.decoder_variable_importance, dataset, scenario, sla_ms, out)
    _say(cfg, f"violation fraction {violation.violation_fraction:.3f}")

    if not violation.violated:
        shutil.copyfile(out / "dataset.csv", out / "dataset_after.csv")
        after_p95 = before_p95
    else:
        with _stage("resimulate"):
            rescaled = apply_plan(scenario.configs, plan)
            after = replace(scenario, configs=rescaled).run()
            save_dataset(after, out / "dataset_after.csv")
            after_p95 = p95(after.target(cfg.trace).values[-cfg.steady_window :])

    with _stage("summarize"):
        summary = {
            "trace": cfg.trace,
            "sla_ms": sla_ms,
            "violated": violation.violated,
            "violation_fraction": violation.violation_fraction,
            "before_p95_ms": before_p95,
            "after_p95_ms": after_p95,
            "sla_met_within_5pct": bool(after_p95 <= 1.05 * sla_ms),
            "plan_converged": plan.converged,
            "theta": plan.theta,
            "actions": [asdict(a) for a in plan.actions],
            "tft": tft_metrics,
            "krr": None if fit is None else _fit_scores(fit),
            "train": {"stopped_epoch": train_report.stopped_epoch,
                      "best_epoch": train_report.best_epoch},
        }
        write_json(summary, out / "summary.json")
    _say(cfg, f"before {before_p95:.1f} ms -> after {after_p95:.1f} ms (SLA {sla_ms:.1f} ms)")
    if not summary["sla_met_within_5pct"]:
        print(f"warning: after p95 {after_p95:.1f} ms misses the SLA of {sla_ms:.1f} ms "
              f"by more than 5%", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


# Each flag: the RunConfig field it sets (a dotted name sets a field of
# that section) and its argparse settings
FLAGS = {
    "--out": ("out", dict(help="output directory (default '.')")),
    "--quiet": ("quiet", dict(action="store_true", help="suppress progress output")),
    "--scenario": ("scenario", dict(help="scenario file or bundled name")),
    "--dataset": ("dataset", dict(help="dataset CSV")),
    "--checkpoint": ("checkpoint", dict(help="model checkpoint JSON")),
    "--seed": ("seed", dict(type=int, help="override the run seed")),
    "--trace": ("trace", dict(help="target trace color")),
    "--resources": ("resources", dict(choices=RESOURCE_MODES, help="resource series the model reads")),
    "--sla-ms": ("sla_ms", dict(type=float, help="SLA bound on p95 latency")),
    "--sla-factor": ("sla_factor", dict(type=float, help="SLA = factor * steady-state p95")),
    "--duration": ("duration", dict(type=int, help="override scenario duration")),
    "--epochs": ("tft.max_epochs", dict(type=int, metavar="EPOCHS", help="override max epochs")),
    "--restarts": ("restarts", dict(type=int, help="training restarts raced by validation loss")),
    "--window-start": ("window_start", dict(type=int, help="window start step (default: last)")),
}

# Each command: its code, its help and the flags it reads besides
# --config, --out and --quiet
COMMANDS = {
    "simulate": (cmd_simulate, "run a scenario and write its dataset",
                 ("--scenario", "--seed", "--duration")),
    "train": (cmd_train, "fit the forecaster on a dataset",
              ("--dataset", "--seed", "--trace", "--resources", "--epochs")),
    "predict": (cmd_predict, "forecast one window",
                ("--dataset", "--checkpoint", "--window-start")),
    "interpret": (cmd_interpret, "export importance weights",
                  ("--dataset", "--checkpoint", "--window-start")),
    "evaluate": (cmd_evaluate, "score held-out windows", ("--dataset", "--checkpoint")),
    "plan": (cmd_plan, "turn forecast + importance into a scaling plan",
             ("--dataset", "--scenario", "--trace", "--sla-ms")),
    "e2e": (cmd_e2e, "full loop: simulate, train, plan, re-simulate",
            ("--scenario", "--seed", "--trace", "--resources", "--sla-ms", "--sla-factor",
             "--restarts")),
}


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command, with the flags its ``COMMANDS`` entry
    lists; a flag left out stays unset, so the config's value stands."""
    parser = argparse.ArgumentParser(
        prog="latscale",
        description="Interpretable latency forecasting and autoscaling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=desc, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="INI config file")
        for flag in ("--out", "--quiet", *flags):
            dest, settings = FLAGS[flag]
            p.add_argument(flag, dest=dest, **settings)
    return parser


def apply_cli_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """``cfg`` with each flag given applied to its field, one at a time
    so an error names its flag; a value the settings reject raises
    UsageError."""
    given = vars(args)
    for flag, (dest, _) in FLAGS.items():
        if dest not in given:
            continue
        section, _, name = dest.rpartition(".")
        value = given[dest]
        with _usage(f"{flag} {value}"):
            if section:
                name, value = section, replace(getattr(cfg, section), **{name: value})
            cfg = replace(cfg, **{name: value})
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(getattr(args, "config", None))
        cfg = apply_cli_overrides(cfg, args)
        return COMMANDS[args.command][0](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
