import json
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from latscale.krr import fit as krr_fit, fit_per_feature, predict as krr_predict
from latscale.scaler import (
    Advisory,
    FeatureSpec,
    PlanAction,
    ScalingPlan,
    SlaSpec,
    ThetaVector,
    desired_latency,
    detect_violation,
    lbfgsb_minimize,
    least_squares_objective,
    make_plan,
    solve_theta,
)



def combined_predict(theta, models, importance_row) -> float:
    """theta_0 + sum_k theta_k * f_k(importance_row[k]), one row at a time:
    the oracle for the tabulated design of ``least_squares_objective``."""
    th = np.asarray(theta, dtype=np.float64)
    row = np.asarray(importance_row, dtype=np.float64)
    if th.size != len(models) + 1 or row.size != len(models):
        raise ValueError(
            f"arity mismatch: {th.size} parameters, {len(models)} models, {row.size} scores"
        )
    acc = th[0]
    for k, model in enumerate(models):
        acc += th[k + 1] * krr_predict(model, float(row[k]))
    return float(acc)


def objective(theta, models, importance_matrix, target) -> float:
    """Sum of squared differences between the oracle's combined
    predictions and the target."""
    rows = [combined_predict(theta, models, row) for row in importance_matrix]
    return float(np.sum((np.asarray(rows) - np.asarray(target)) ** 2))


@dataclass
class FakeForecast:
    median: np.ndarray


def make_models(k, seed=0):
    rng = np.random.default_rng(seed)
    return [
        krr_fit(rng.uniform(0, 1, 10), rng.uniform(20, 120, 10), alpha=0.1, beta=1.0)
        for _ in range(k)
    ]


class TestViolation:
    def test_twenty_percent_overshoot(self):
        forecast = FakeForecast(np.array([90.0, 125.0, 110.0]))
        report = detect_violation(forecast, SlaSpec(100.0))
        assert report.violated
        assert report.violation_fraction == pytest.approx(0.2)
        assert report.worst_step == 1
        assert report.predicted_ms == 125.0

    def test_all_below_threshold(self):
        report = detect_violation(FakeForecast(np.array([50.0, 80.0])), SlaSpec(100.0))
        assert not report.violated
        assert report.violation_fraction == 0.0

    def test_exactly_at_threshold(self):
        report = detect_violation(FakeForecast(np.array([100.0])), SlaSpec(100.0))
        assert report.violation_fraction == 0.0
        assert not report.violated

    @pytest.mark.parametrize("median, violated", [([0.0, 0.0], False), ([0.0, 125.0, 0.0], True)])
    def test_zero_median_is_never_divided_by(self, median, violated):
        """``predict`` clips forecasts at 0 ms, so a median can be 0."""
        with np.errstate(all="raise"):
            report = detect_violation(FakeForecast(np.array(median)), SlaSpec(100.0))
        assert report.violated == violated
        assert report.violation_fraction == (0.2 if violated else 0.0)
        assert report.worst_step == (1 if violated else 0)


class TestDesiredLatency:
    def test_worst_step_lands_on_threshold(self):
        forecast = FakeForecast(np.array([125.0]))
        report = detect_violation(forecast, SlaSpec(100.0))
        np.testing.assert_allclose(desired_latency(forecast, report), [100.0], atol=1e-9)

    def test_identity_when_no_violation(self):
        forecast = FakeForecast(np.array([40.0, 70.0]))
        report = detect_violation(forecast, SlaSpec(100.0))
        np.testing.assert_array_equal(desired_latency(forecast, report), forecast.median)

    def test_per_step_scaling(self):
        forecast = FakeForecast(np.array([125.0, 100.0]))
        report = detect_violation(forecast, SlaSpec(100.0))
        np.testing.assert_allclose(desired_latency(forecast, report), [100.0, 80.0])

    def test_never_exceeds_forecast(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            median = rng.uniform(10, 300, 12)
            forecast = FakeForecast(median)
            report = detect_violation(forecast, SlaSpec(float(rng.uniform(20, 200))))
            desired = desired_latency(forecast, report)
            assert np.all(desired <= median + 1e-12)
            if report.violated:
                assert desired[report.worst_step] == pytest.approx(
                    min(report.predicted_ms, forecast.median[report.worst_step]) * (1 - report.violation_fraction)
                )


class TestCombinedPredict:
    def test_zero_theta(self):
        models = make_models(3)
        assert combined_predict([0, 0, 0, 0], models, [0.1, 0.2, 0.3]) == 0.0

    def test_intercept_only(self):
        models = make_models(2)
        assert combined_predict([5.0, 0, 0], models, [0.4, 0.6]) == 5.0

    def test_selector(self):
        from latscale.krr import predict

        models = make_models(3)
        value = combined_predict([0, 1, 0, 0], models, [0.4, 0.6, 0.2])
        assert value == pytest.approx(predict(models[0], 0.4))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            combined_predict([0, 0], make_models(2), [0.1, 0.2])


class TestObjective:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.models = make_models(3, seed=8)
        self.imp = rng.uniform(0, 1, size=(12, 3))
        self.target = rng.uniform(40, 130, 12)

    def test_matches_normal_equations_sse(self):
        fun_and_grad, design = least_squares_objective(self.models, self.imp, self.target)
        theta_star, *_ = np.linalg.lstsq(design, self.target, rcond=None)
        sse_oracle = float(np.sum((design @ theta_star - self.target) ** 2))
        assert objective(theta_star, self.models, self.imp, self.target) == pytest.approx(
            sse_oracle, abs=1e-8
        )

    def test_perfect_fit_is_zero(self):
        theta = np.array([2.0, 0.5, -0.3, 1.2])
        _, design = least_squares_objective(self.models, self.imp, self.target)
        synthetic = design @ theta
        assert objective(theta, self.models, self.imp, synthetic) == pytest.approx(0.0, abs=1e-18)

    def test_fun_is_the_oracle_objective(self):
        fun_and_grad, design = least_squares_objective(self.models, self.imp, self.target)
        theta = np.array([3.0, 0.8, -1.1, 0.4])
        rows = [combined_predict(theta, self.models, row) for row in self.imp]
        np.testing.assert_allclose(design @ theta, rows, rtol=1e-12)
        assert fun_and_grad(theta)[0] == pytest.approx(
            objective(theta, self.models, self.imp, self.target), rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        fun_and_grad, _ = least_squares_objective(self.models, self.imp, self.target)
        theta = np.array([1.0, 0.2, 0.7, -0.4])
        _, grad = fun_and_grad(theta)
        step = 1e-6
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += step
            down[i] -= step
            fd = (fun_and_grad(up)[0] - fun_and_grad(down)[0]) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


class TestLbfgsb:
    def test_clamped_quadratic(self):
        result = lbfgsb_minimize(lambda x: ((x[0] - 2) ** 2, np.array([2 * (x[0] - 2)])),
                                 [0.5], [(0.0, 1.0)])
        assert result.theta[0] == pytest.approx(1.0, abs=1e-12)
        assert result.converged

    def test_rosenbrock_in_box(self):
        result = lbfgsb_minimize(rosenbrock, [-1.5, 1.5], [(-2.0, 2.0), (-2.0, 2.0)])
        assert result.objective_value < 1e-10
        np.testing.assert_allclose(result.theta, [1.0, 1.0], atol=1e-5)
        assert result.converged

    def test_diagonal_quadratics_match_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            curvature = rng.uniform(0.5, 5.0, n)
            center = rng.uniform(-4, 4, n)
            lo = rng.uniform(-3, 0, n)
            hi = lo + rng.uniform(0.5, 4, n)

            def quad(x):
                return float(np.sum(curvature * (x - center) ** 2)), 2 * curvature * (x - center)

            result = lbfgsb_minimize(quad, (lo + hi) / 2, list(zip(lo, hi)))
            expected = np.clip(center, lo, hi)
            np.testing.assert_allclose(result.theta, expected, atol=1e-8)

    def test_start_point_independence(self):
        rng = np.random.default_rng(13)
        # distinct, strongly varying regressors keep the design well
        # conditioned so theta is uniquely determined
        models = [
            krr_fit(np.linspace(0, 1, 10), 50 * np.sin(6 * np.linspace(0, 1, 10) + k),
                    alpha=0.01, beta=5.0)
            for k in range(2)
        ]
        imp = rng.uniform(0, 1, size=(10, 2))
        target = rng.uniform(30, 90, 10)
        fun_and_grad, _ = least_squares_objective(models, imp, target)
        bounds = [(-100.0, 100.0), (0.25, 4.0), (0.25, 4.0)]
        solutions = []
        for _ in range(10):
            start = [rng.uniform(lo, hi) for lo, hi in bounds]
            solutions.append(lbfgsb_minimize(fun_and_grad, start, bounds).theta)
        for sol in solutions[1:]:
            np.testing.assert_allclose(sol, solutions[0], atol=1e-6)

    def test_inactive_bounds_match_normal_equations(self):
        rng = np.random.default_rng(17)
        models = make_models(3, seed=17)
        imp = rng.uniform(0, 1, size=(15, 3))
        target = rng.uniform(40, 120, 15)
        fun_and_grad, design = least_squares_objective(models, imp, target)
        theta_star, *_ = np.linalg.lstsq(design, target, rcond=None)
        wide = [(-1e4, 1e4)] * 4
        result = lbfgsb_minimize(fun_and_grad, np.zeros(4), wide)
        np.testing.assert_allclose(result.theta, theta_star, atol=1e-6)

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError, match="non-finite"):
            lbfgsb_minimize(lambda x: (float("nan"), np.array([0.0])), [0.0], [(-1.0, 1.0)])

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            lbfgsb_minimize(lambda x: (0.0, np.zeros(1)), [0.0], [(1.0, -1.0)])


class TestSolveTheta:
    def test_result_respects_boxes(self):
        rng = np.random.default_rng(19)
        models = make_models(4, seed=19)
        imp = rng.uniform(0, 1, size=(16, 4))
        target = rng.uniform(30, 150, 16)
        theta, result = solve_theta(models, imp, target)
        assert theta.values.size == 5
        for v, (lo, hi) in zip(theta.values, theta.bounds):
            assert lo - 1e-9 <= v <= hi + 1e-9

    def test_theta_vector_validates_box(self):
        with pytest.raises(ValueError, match="outside its box"):
            ThetaVector(np.array([5.0]), [(0.0, 1.0)])


def bvls_optimum(design, target, lo, hi):
    """Exact box-constrained least-squares objective, as the better of
    BVLS on G and on G with unit-norm columns (G is close to singular)."""
    def sse(theta):
        return float(np.sum((design @ theta - target) ** 2))

    raw = lsq_linear(design, target, bounds=(lo, hi), method="bvls").x
    scale = 1.0 / np.linalg.norm(design, axis=0)
    scaled = lsq_linear(design * scale, target, bounds=(lo / scale, hi / scale), method="bvls").x
    return min(sse(raw), sse(np.clip(scaled * scale, lo, hi)))


class TestBvlsOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_objective_matches_bvls(self, seed):
        # the demo's shape: 16 horizon steps, 6 features, importance
        # rows on the simplex, grid-searched KRR models, default boxes
        rng = np.random.default_rng(seed)
        imp = rng.dirichlet(np.ones(6), size=16)
        target = rng.uniform(40, 120, 16)
        models = fit_per_feature(imp, target).models
        theta, result = solve_theta(models, imp, target)
        _, design = least_squares_objective(models, imp, target)
        lo, hi = np.array(theta.bounds).T
        best = bvls_optimum(design, target, lo, hi)
        gap = (result.objective_value - best) / best
        assert gap <= (1e-4 if result.converged else 1e-2)


class TestMakePlan:
    def catalog(self):
        return [
            FeatureSpec("cps.green", actionable=False),
            FeatureSpec("pods.cart", actionable=True, microservice="cart", resource="pods", current=2),
        ]

    def theta(self, values, k):
        bounds = [(-1e4, 1e4)] + [(0.1, 8.0)] * k
        return ThetaVector(np.asarray(values, float), bounds)

    def test_doubling_factor(self):
        plan = make_plan(
            self.theta([0.0, 0.9, 2.0], 2),
            self.catalog(),
            resource_bounds={"pods.cart": (1, 8)},
        )
        assert plan.actions == [PlanAction("cart", "pods", 2, 2.0, 4)]
        assert len(plan.advisories) == 1

    def test_identity_is_noop(self):
        plan = make_plan(self.theta([0.0, 1.0, 1.0], 2), self.catalog(),
                         resource_bounds={"pods.cart": (1, 8)})
        assert plan.actions[0].recommended == plan.actions[0].current

    def test_clamp_at_pods_max(self):
        catalog = [
            FeatureSpec("pods.cart", actionable=True, microservice="cart", resource="pods", current=3),
        ]
        plan = make_plan(self.theta([0.0, 3.5], 1), catalog, resource_bounds={"pods.cart": (1, 8)})
        assert plan.actions[0].recommended == 8  # round(10.5) clamped

    def test_catalog_arity_checked(self):
        with pytest.raises(ValueError, match="catalog covers"):
            make_plan(self.theta([0.0, 1.0], 1), self.catalog())

    def test_json_roundtrip_and_schema(self):
        plan = make_plan(
            self.theta([1.5, 0.8, 2.0], 2),
            self.catalog(),
            resource_bounds={"pods.cart": (1, 8)},
            trace="green",
            sla_ms=100.0,
            violation_fraction=0.2,
            converged=True,
            objective_value=12.5,
        )
        doc = json.loads(plan.to_json())
        assert set(doc) == {
            "trace", "sla_ms", "violation_fraction", "theta", "converged",
            "objective_value", "actions", "advisories",
        }
        back = ScalingPlan.from_json(plan.to_json())
        assert back == plan
        with pytest.raises(ValueError, match="unknown key.*'notes'"):
            ScalingPlan.from_json(json.dumps({**doc, "notes": "x"}))
