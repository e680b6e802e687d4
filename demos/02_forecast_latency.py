"""Train the quantile forecaster on simulated green-trace data and
compare its held-out accuracy against a persistence baseline.

Takes a few minutes on a laptop CPU; the run is deterministic, so the
printed numbers match the acceptance suite's forecasting criterion.
"""
import numpy as np

from latscale import TftConfig, WindowSpec, make_windows
from latscale.cli import resolve_scenario
from latscale.tft import (
    band_coverage,
    persistence_metrics,
    pooled_forecast_metrics,
    predict,
    predict_many,
    train_with_restarts,
)

FEATURES = ["cps.green", "cps.blue", "cps.purple", "cps.red", "pods.cart", "pods.catalogue"]

scenario = resolve_scenario("robotshop_green")
dataset = scenario.run()
windows = make_windows(dataset, WindowSpec(64, 16), "green", FEATURES)
print(f"{len(windows)} windows of 64 encoder + 16 decoder steps")

config = TftConfig(encoder_length=64, decoder_length=16, max_epochs=40,
                   early_stopping_patience=10, seed=42)
model, report = train_with_restarts(
    config, FEATURES + ["latency_p95.green"], FEATURES, windows, restarts=3,
    on_epoch=lambda e, tr, vl: print(f"  epoch {e:2d}  train {tr:7.4f}  val {vl:7.4f}"),
)
print(f"stopped at epoch {report.stopped_epoch}, best epoch {report.best_epoch}")

held_out = windows[report.n_train_windows:]
forecasts = predict_many(model, held_out)
model_metrics = pooled_forecast_metrics(forecasts, held_out)
baseline = persistence_metrics(held_out)
print(f"\nheld-out windows: {len(held_out)}")
print(f"model        R2 {model_metrics['r2']:.3f}   RMSE {model_metrics['rmse']:.1f} ms")
print(f"persistence  R2 {baseline['r2']:.3f}   RMSE {baseline['rmse']:.1f} ms")
print(f"[0.1, 0.9] band coverage: {band_coverage(forecasts, held_out):.2f}")

forecast = predict(model, windows[-1])
actual = windows[-1].future_target
print("\nlast window, first 8 horizon steps (ms):")
print("  actual :", np.round(actual[:8], 1))
print("  median :", np.round(forecast.median[:8], 1))
lo, hi = forecast.band(0.1, 0.9)
print("  band   :", [f"{a:.0f}..{b:.0f}" for a, b in zip(lo[:8], hi[:8])])
