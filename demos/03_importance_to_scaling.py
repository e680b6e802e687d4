"""From a violated forecast to a scaling plan, step by step at the
library level: detect the violation, build the corrected latency
target, fit one kernel regressor per importance feature, solve for
the combination weights under boxes, and materialize the plan."""
from dataclasses import replace

import numpy as np

from latscale import SlaSpec, TftConfig, WindowSpec, make_windows
from latscale.cli import resolve_scenario
from latscale.krr import fit_per_feature
from latscale.scaler import (
    FeatureSpec,
    desired_latency,
    detect_violation,
    make_plan,
    solve_theta,
)
from latscale.simulator import apply_plan
from latscale.tft import interpret, predict, train_with_restarts
from latscale.trace_data import p95

FEATURES = ["cps.green", "cps.blue", "cps.purple", "cps.red", "pods.cart", "pods.catalogue"]

scenario = resolve_scenario("sla_demo")
scenario.duration_steps = 700
dataset = scenario.run()
steady_p95 = p95(dataset.target("green").values[-300:])
sla = SlaSpec(0.8 * steady_p95)
print(f"steady-state p95 {steady_p95:.0f} ms, SLA injected at {sla.threshold_ms:.0f} ms")

windows = make_windows(dataset, WindowSpec(64, 16), "green", FEATURES)
config = TftConfig(encoder_length=64, decoder_length=16, max_epochs=8,
                   early_stopping_patience=4, seed=7)
model, _ = train_with_restarts(config, FEATURES + ["latency_p95.green"], FEATURES,
                               windows, restarts=2)

window = windows[-1]
forecast = predict(model, window)
report = detect_violation(forecast, sla)
print(f"\nviolation: {report.violated}, fraction {report.violation_fraction:.3f} "
      f"(worst step {report.worst_step}, {report.predicted_ms:.0f} ms)")

desired = desired_latency(forecast, report)
print(f"corrected latency target: {desired.min():.0f}..{desired.max():.0f} ms")

importance = interpret(model, window)
fit = fit_per_feature(importance.decoder_variable_importance, desired,
                      feature_names=FEATURES)
print("\nper-feature kernel regressors (alpha, beta, CV MSE):")
for m, mse in zip(fit.models, fit.cv_mse):
    print(f"  {m.feature:16s} alpha={m.alpha:<5g} beta={m.beta:<5g} cv_mse={mse:.3g}")

# policy boxes: pods may only scale up, calls may only be shaped down
boxes = [(0.25, 1.0)] * 4 + [(2.0, 4.0)] * 2
theta, result = solve_theta(fit.models, importance.decoder_variable_importance,
                            desired, factor_bounds=boxes)
print(f"\ntheta: {np.round(theta, 3)} (converged={result.converged})")

catalog = [FeatureSpec(n, actionable=n.startswith("pods"),
                       microservice=n.split(".")[1] if n.startswith("pods") else None,
                       resource="pods" if n.startswith("pods") else None,
                       current=float(dataset.get(n).values[-1]))
           for n in FEATURES]
plan = make_plan(theta, catalog, {"pods.cart": (1, 16), "pods.catalogue": (1, 12)},
                 trace="green", sla_ms=sla.threshold_ms,
                 violation_fraction=report.violation_fraction,
                 converged=result.converged, objective_value=result.objective_value)
print("\nplan actions:")
for action in plan.actions:
    print(f"  {action.service}: {action.resource} {action.current:.0f} "
          f"-> {action.recommended:.0f} (factor {action.factor:.2f})")

rescaled = apply_plan(scenario.configs, plan)
after = replace(scenario, configs=rescaled).run()
after_p95 = p95(after.target("green").values[-300:])
print(f"\nclosed loop: p95 {steady_p95:.0f} ms -> {after_p95:.0f} ms "
      f"(SLA {sla.threshold_ms:.0f} ms, met={after_p95 <= 1.05 * sla.threshold_ms})")
