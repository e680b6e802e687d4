"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).
The two long-running criteria (the forecasting analog and the closed
loop) share module-scoped fixtures.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from latscale import cli, krr, scaler, tft
from latscale.nn import (
    GateAddNorm,
    Grn,
    InterpretableAttention,
    LstmCell,
    ParamStore,
    Tensor,
    autodiff as ad,
    causal_mask,
)
from latscale.simulator import ServiceConfig, WorkloadProfile, build_robotshop_graph, simulate
from latscale.trace_data import WindowSpec, make_windows, p95
from oracles import batch_loss_node, grad_check, mean

GREEN_FEATURES = ["cps.green", "cps.blue", "cps.purple", "cps.red", "pods.cart", "pods.catalogue"]


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def bundled_scenario(name: str):
    return cli.resolve_scenario(name)


# -----------------------------------------------------------------------
# 1. Gradient correctness


class TestCriterion1Gradients:
    def test_blocks_and_assembled_model(self):
        start = time.time()
        rng = np.random.default_rng(0)
        worst_block = 0.0

        store = ParamStore(seed=1)
        gate = GateAddNorm(store, "gate", 4)
        x = Tensor(rng.normal(0, 1, (5, 4)))
        residual = Tensor(rng.normal(0, 1, (5, 4)))
        probe = rng.normal(0, 1, (5, 4))
        worst_block = max(worst_block, grad_check(
            lambda: mean(ad.mul(gate(x, residual), probe)),
            list(store.tensors().values()) + [x, residual]))

        store = ParamStore(seed=2)
        grn = Grn(store, "grn", 5, 4)
        xg = Tensor(rng.normal(0, 1, (6, 5)))
        probe = rng.normal(0, 1, (6, 4))
        worst_block = max(worst_block, grad_check(
            lambda: mean(ad.mul(grn(xg), probe)), list(store.tensors().values()) + [xg]))

        store = ParamStore(seed=3)
        cell = LstmCell(store, "lstm", 3, 4)
        xs = [Tensor(rng.normal(0, 1, (4, 3))) for _ in range(3)]

        def lstm_loss():
            h, c = Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4)))
            for xt in xs:
                h, c = cell.step(xt, h, c)
            return mean(ad.mul(h, 1.7))

        worst_block = max(worst_block, grad_check(lstm_loss, list(store.tensors().values()) + xs))

        store = ParamStore(seed=4)
        attn = InterpretableAttention(store, "attn", 4, heads=2)
        xa = Tensor(rng.normal(0, 1, (2, 5, 4)))
        probe = rng.normal(0, 1, (2, 5, 4))
        worst_block = max(worst_block, grad_check(
            lambda: mean(ad.mul(attn(xa, xa, mask=causal_mask(5, 5))[0], probe)),
            list(store.tensors().values()) + [xa]))

        config = tft.TftConfig(hidden_size=4, attention_heads=1, encoder_length=8,
                               decoder_length=4, dropout=0.0, seed=5)
        model = tft.TemporalFusionTransformer(config, ["a", "b", "target"], ["a", "b"])
        enc = rng.uniform(0.01, 1.01, (2, 8, 3))
        dec = rng.uniform(0.01, 1.01, (2, 4, 2))
        labels = rng.uniform(0.01, 1.01, (2, 4))

        def model_loss():
            out = model.forward(enc, dec, training=False)
            return batch_loss_node(config.quantiles, out["quantiles"], labels)

        full_err = grad_check(model_loss, model.store.tensors().values(),
                              max_coords_per_tensor=6, rng=np.random.default_rng(9))
        elapsed = time.time() - start
        ok = worst_block < 1e-4 and full_err < 1e-3 and elapsed < 120
        assert verdict(
            "1-gradient-correctness", ok,
            f"blocks max rel err {worst_block:.2e} < 1e-4, "
            f"assembled model {full_err:.2e} < 1e-3, {elapsed:.0f}s < 120s",
        )


# -----------------------------------------------------------------------
# 2. Forecasting analog on the bundled scenario


@pytest.fixture(scope="module")
def analog_run():
    start = time.time()
    scenario = bundled_scenario("robotshop_green")
    dataset = scenario.run()
    windows = make_windows(dataset, WindowSpec(64, 16), "green", GREEN_FEATURES)
    config = tft.TftConfig(encoder_length=64, decoder_length=16, max_epochs=40,
                           early_stopping_patience=10, seed=42)
    model, report = tft.train_with_restarts(
        config, GREEN_FEATURES + ["latency_p95.green"], GREEN_FEATURES, windows, restarts=3,
    )
    held_out = windows[report.n_train_windows:]
    forecasts = tft.predict_many(model, held_out)
    return {
        "model": model,
        "held_out": held_out,
        "metrics": tft.pooled_forecast_metrics(forecasts, held_out),
        "persistence": tft.persistence_metrics(held_out),
        "coverage": tft.band_coverage(forecasts, held_out),
        "elapsed": time.time() - start,
    }


class TestCriterion2ForecastAnalog:
    def test_r2_and_baseline(self, analog_run):
        r2 = analog_run["metrics"]["r2"]
        base = analog_run["persistence"]["r2"]
        elapsed = analog_run["elapsed"]
        ok = r2 >= 0.8 and r2 > base and elapsed < 600
        assert verdict(
            "2-forecast-analog", ok,
            f"R2 {r2:.3f} >= 0.8 and beats persistence {base:.3f}, {elapsed:.0f}s < 600s",
        )

    def test_quantile_band_coverage(self, analog_run):
        cov = analog_run["coverage"]
        ok = 0.6 <= cov <= 0.98
        assert verdict("2b-band-coverage", ok, f"[0.1, 0.9] band coverage {cov:.3f} in [0.6, 0.98]")


# -----------------------------------------------------------------------
# 3. Interpretability analog


class TestCriterion3Interpretability:
    def test_cart_pods_rank_first_across_seeds(self):
        scenario = bundled_scenario("cart_importance")
        dataset = scenario.run()
        windows = make_windows(dataset, WindowSpec(32, 8), "green", GREEN_FEATURES)
        rankings = []
        for seed in (1, 2, 3):
            config = tft.TftConfig(encoder_length=32, decoder_length=8, max_epochs=20,
                                   early_stopping_patience=8, seed=seed)
            model = tft.TemporalFusionTransformer(
                config, GREEN_FEATURES + ["latency_p95.green"], GREEN_FEATURES)
            tft.train(model, windows)
            means: dict[str, float] = {}
            for w in windows[-24:]:
                imp = tft.interpret(model, w)
                mean_weights = imp.decoder_variable_importance.mean(axis=0)
                for name, v in zip(imp.decoder_features, mean_weights):
                    means[name] = means.get(name, 0.0) + float(v) / 24
            top = max(means, key=means.get)
            rankings.append((seed, top, means["pods.cart"]))
        ok = all(top == "pods.cart" for _, top, _ in rankings)
        detail = "; ".join(f"seed {s}: top={t} (pods.cart {v:.2f})" for s, t, v in rankings)
        assert verdict("3-interpretability", ok, detail)


# -----------------------------------------------------------------------
# 4. Kernel regression oracle equivalence


class TestCriterion4KrrOracle:
    def test_dual_solution_and_psd(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(1, 6))
            x = rng.normal(0, 2, n)
            y = rng.normal(0, 5, n)
            alpha = float(rng.uniform(0.01, 10))
            beta = float(rng.uniform(0.01, 10))
            model = krr.fit(x, y, alpha, beta)
            gram = np.exp(-beta * (x[:, None] - x[None, :]) ** 2)
            oracle = np.linalg.inv(gram + alpha * np.eye(n)) @ (y - y.mean())
            worst = max(worst, float(np.max(np.abs(model.dual_coefficients - oracle))))
            q = rng.normal(0, 2, 7)
            direct = y.mean() + np.exp(-beta * (x[None, :] - q[:, None]) ** 2) @ oracle
            worst = max(worst, float(np.max(np.abs(krr.predict(model, q) - direct))))

        min_eig = np.inf
        for _ in range(25):
            n = int(rng.integers(2, 51))
            x = rng.normal(0, 3, n)
            beta = float(rng.uniform(0.01, 10))
            gram = np.exp(-beta * (x[:, None] - x[None, :]) ** 2)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
        ok = worst < 1e-8 and min_eig >= -1e-9
        assert verdict(
            "4-krr-oracle", ok,
            f"max dual/prediction error {worst:.2e} < 1e-8, min kernel eigenvalue {min_eig:.2e} >= -1e-9",
        )


# -----------------------------------------------------------------------
# 5. Grid search exactness


class TestCriterion5GridSearch:
    @staticmethod
    def oracle_table(x, y, spec):
        folds = np.array_split(np.arange(x.size), spec.folds)
        table = np.empty((len(spec.alpha_grid), len(spec.beta_grid)))
        for i, alpha in enumerate(spec.alpha_grid):
            for j, beta in enumerate(spec.beta_grid):
                errs = []
                for val_idx in folds:
                    mask = np.ones(x.size, dtype=bool)
                    mask[val_idx] = False
                    xt, yt = x[mask], y[mask]
                    center = yt.mean()
                    gram = np.exp(-beta * (xt[:, None] - xt[None, :]) ** 2)
                    coefs = np.linalg.solve(gram + alpha * np.eye(xt.size), yt - center)
                    cross = np.exp(-beta * (x[val_idx][:, None] - xt[None, :]) ** 2)
                    pred = center + cross @ coefs
                    errs.append(np.mean((pred - y[val_idx]) ** 2))
                table[i, j] = np.mean(errs)
        return table

    def test_hundred_random_datasets(self):
        rng = np.random.default_rng(5)
        spec = krr.GridSearchSpec()
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(9, 40))
            x = rng.uniform(-2, 2, n)
            y = np.sin(rng.uniform(0.5, 4) * x) * rng.uniform(1, 10) + rng.normal(0, 0.3, n)
            result = krr.grid_search(x, y, spec)
            oracle = self.oracle_table(x, y, spec)
            floor = oracle.min()
            candidates = [
                (spec.alpha_grid[i], spec.beta_grid[j])
                for i in range(4) for j in range(4)
                if oracle[i, j] <= floor + 1e-10 * max(1.0, abs(floor))
            ]
            expected = sorted(candidates, key=lambda ab: (-ab[0], ab[1]))[0]
            if (result.best_alpha, result.best_beta) != expected:
                mismatches += 1
        ok = mismatches == 0
        assert verdict("5-grid-search", ok, f"{mismatches}/100 selections differ from the exhaustive oracle")


# -----------------------------------------------------------------------
# 6. Box-constrained optimizer


class TestCriterion6Optimizer:
    def test_rosenbrock_quadratics_and_linear_objective(self):
        def rosenbrock(v):
            f = (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2
            g = np.array([
                -2 * (1 - v[0]) - 400 * v[0] * (v[1] - v[0] ** 2),
                200 * (v[1] - v[0] ** 2),
            ])
            return f, g

        res = scaler.lbfgsb_minimize(rosenbrock, [-1.5, 1.5], [(-2.0, 2.0), (-2.0, 2.0)])
        rosen_ok = res.objective_value < 1e-10 and np.allclose(res.theta, [1, 1], atol=1e-4)

        rng = np.random.default_rng(6)
        quad_worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            curvature = rng.uniform(0.5, 5.0, n)
            center = rng.uniform(-4, 4, n)
            lo = rng.uniform(-3, 0, n)
            hi = lo + rng.uniform(0.5, 4, n)

            def quad(v):
                return float(np.sum(curvature * (v - center) ** 2)), 2 * curvature * (v - center)

            out = scaler.lbfgsb_minimize(quad, (lo + hi) / 2, list(zip(lo, hi)))
            quad_worst = max(quad_worst, float(np.max(np.abs(out.theta - np.clip(center, lo, hi)))))

        linear_worst = 0.0
        for trial in range(20):
            models = [
                krr.fit(np.linspace(0, 1, 10),
                        40 * np.sin(np.linspace(0, 6, 10) + k + trial) + rng.normal(0, 1, 10),
                        alpha=0.01, beta=5.0)
                for k in range(3)
            ]
            imp = rng.uniform(0, 1, size=(15, 3))
            target = rng.uniform(40, 120, 15)
            fun, design = scaler.least_squares_objective(models, imp, target)
            expected, *_ = np.linalg.lstsq(design, target, rcond=None)
            out = scaler.lbfgsb_minimize(fun, np.zeros(4), [(-1e4, 1e4)] * 4)
            linear_worst = max(linear_worst, float(np.max(np.abs(out.theta - expected))))

        ok = rosen_ok and quad_worst < 1e-8 and linear_worst < 1e-6
        assert verdict(
            "6-optimizer", ok,
            f"rosenbrock f*={res.objective_value:.1e} < 1e-10, quadratic projection err "
            f"{quad_worst:.1e} < 1e-8, linear-objective err {linear_worst:.1e} < 1e-6",
        )


# -----------------------------------------------------------------------
# 7. Closed loop


@pytest.fixture(scope="module")
def closed_loop(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    start = time.time()
    from importlib import resources as importlib_resources

    config = importlib_resources.files("latscale") / "configs" / "demo.ini"
    with importlib_resources.as_file(config) as cfg_path:
        rc = cli.main(["e2e", "--scenario", "sla_demo", "--config", str(cfg_path),
                       "--out", str(out), "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    return {"rc": rc, "summary": summary, "elapsed": time.time() - start, "out": out}


class TestCriterion7ClosedLoop:
    def test_replan_brings_p95_under_sla(self, closed_loop):
        s = closed_loop["summary"]
        elapsed = closed_loop["elapsed"]
        ok = (
            closed_loop["rc"] == 0
            and s["violated"]
            and s["plan_converged"]
            and s["after_p95_ms"] <= 1.05 * s["sla_ms"]
            and elapsed < 900
        )
        assert verdict(
            "7-closed-loop", ok,
            f"violation {s['violation_fraction']:.3f}, converged={s['plan_converged']}, "
            f"p95 {s['before_p95_ms']:.0f} -> {s['after_p95_ms']:.0f} ms vs SLA {s['sla_ms']:.0f} "
            f"(x1.05 = {1.05 * s['sla_ms']:.0f}), {elapsed:.0f}s < 900s",
        )


# -----------------------------------------------------------------------
# 8. Fuzzed invariant suites


class TestCriterion8Invariants:
    def test_importance_normalization_and_quantile_ordering(self):
        rng = np.random.default_rng(8)
        config = tft.TftConfig(hidden_size=4, encoder_length=8, decoder_length=4,
                               dropout=0.0, seed=11)
        model = tft.TemporalFusionTransformer(config, ["a", "b", "target"], ["a", "b"])
        weight_rows = 0
        forecast_rows = 0
        worst_sum = 0.0
        crossings = 0
        for _ in range(12):
            enc = rng.uniform(0.01, 1.01, (8, 8, 3))
            dec = rng.uniform(0.01, 1.01, (8, 4, 2))
            out = model.forward(enc, dec, training=False)
            for key, steps in (("encoder_weights", 8), ("decoder_weights", 4), ("attention", 4)):
                w = out[key].values
                worst_sum = max(worst_sum, float(np.max(np.abs(w.sum(axis=-1) - 1.0))))
                weight_rows += w.shape[0] * steps
            sorted_q = np.sort(out["quantiles"].values, axis=2)
            crossings += int(np.sum(np.diff(sorted_q, axis=2) < 0))
            forecast_rows += sorted_q.shape[0] * sorted_q.shape[1]
        ok = weight_rows >= 1000 and forecast_rows >= 300 and worst_sum < 1e-6 and crossings == 0
        assert verdict(
            "8a-weight-and-quantile-invariants", ok,
            f"{weight_rows} weight rows (max |sum-1| {worst_sum:.1e} < 1e-6), "
            f"{forecast_rows} forecast steps with 0 crossings",
        )

    def test_p95_against_sort_oracle(self):
        rng = np.random.default_rng(88)
        failures = 0
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            samples = rng.exponential(50, n)
            expected = np.sort(samples)[int(np.ceil(0.95 * n)) - 1]
            if p95(samples) != expected:
                failures += 1
        big = rng.exponential(50, 10_000)
        big_ok = p95(big) == np.sort(big)[int(np.ceil(0.95 * 10_000)) - 1]
        ok = failures == 0 and big_ok
        assert verdict("8b-p95-oracle", ok, f"{failures}/1000 mismatches; 10k-sample case ok={big_ok}")

    def test_simulator_determinism_and_monotonicity(self):
        graph = build_robotshop_graph()
        workloads = {
            color: WorkloadProfile(base=10.0 + i, amplitude=3.0, period=40.0, noise_sigma=0.3)
            for i, color in enumerate(graph.colors)
        }

        def configs(cart_pods):
            return {
                name: ServiceConfig(name, base_service_ms=6.0, per_pod_rate=20.0, pods=4)
                for name in graph.nodes
            } | {"cart": ServiceConfig("cart", base_service_ms=10.0, per_pod_rate=10.0,
                                       pods=cart_pods)}

        determinism_cases = 0
        for seed in (1, 2, 3):
            a = simulate(graph, workloads, configs(2), 60, seed)
            b = simulate(graph, workloads, configs(2), 60, seed)
            for sa, sb in zip(a.series, b.series):
                assert np.array_equal(sa.values, sb.values)
                determinism_cases += len(sa.values)

        monotonic_cases = 0
        violations = 0
        for seed in (1, 2, 3, 4):
            for pods in (1, 2, 4, 8):
                lo = simulate(graph, workloads, configs(pods), 30, seed, noise_sigma=0.0)
                hi = simulate(graph, workloads, configs(pods + 1), 30, seed, noise_sigma=0.0)
                for color in graph.colors:
                    delta = hi.target(color).values - lo.target(color).values
                    violations += int(np.sum(delta > 1e-12))
                    monotonic_cases += delta.size
        ok = determinism_cases >= 1000 and monotonic_cases >= 1000 and violations == 0
        assert verdict(
            "8c-simulator-invariants", ok,
            f"{determinism_cases} determinism checks, {monotonic_cases} monotonicity checks, "
            f"{violations} violations",
        )
