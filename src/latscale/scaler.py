"""SLA violation handling: corrected latency target, box-constrained
least squares over the combined kernel regressors, and scaling plans.

The learned coefficient vector theta weights the per-feature kernel
regressors; components attached to actionable resources are read as
multiplicative scaling factors, bounded by the optimizer boxes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from . import simulator
from .krr import KrrModel, predict as krr_predict
from .reader import read
from .trace_data import RESOURCE_MODES

if TYPE_CHECKING:
    from .tft import QuantileForecast

ACTIONABLE_RESOURCES = RESOURCE_MODES["both"]
DEFAULT_FACTOR_BOX = (0.25, 4.0)
DEFAULT_INTERCEPT_BOX = (-1e4, 1e4)
MAX_ITER = 500  # L-BFGS-B iteration cap for the theta solve
PG_TOL = 1e-8  # projected-gradient infinity norm that counts as converged


@dataclass(frozen=True)
class SlaSpec:
    """Upper bound on the p95 end-to-end latency, in milliseconds."""

    threshold_ms: float

    def __post_init__(self):
        if not 0 < self.threshold_ms < math.inf:
            raise ValueError(f"SLA threshold must be positive and finite, got {self.threshold_ms}")


@dataclass(frozen=True)
class ViolationReport:
    violated: bool
    violation_fraction: float
    worst_step: int
    predicted_ms: float


def detect_violation(forecast: "QuantileForecast", sla: SlaSpec) -> ViolationReport:
    """Check the median forecast against the SLA bound.

    The violation fraction is the worst relative overshoot
    (yhat - threshold) / yhat over the steps above the threshold, and 0
    without one, so subtracting it from the prediction lands the worst
    step on the threshold.  The threshold is positive, so a median
    clipped to 0 ms is never divided by.
    """
    median = np.asarray(forecast.median, dtype=np.float64)
    if median.size == 0:
        raise ValueError("empty forecast")
    overshoot = np.zeros_like(median)
    np.divide(median - sla.threshold_ms, median, out=overshoot, where=median > sla.threshold_ms)
    worst = int(np.argmax(overshoot))
    fraction = float(overshoot[worst])
    return ViolationReport(
        violated=fraction > 0.0,
        violation_fraction=fraction,
        worst_step=worst,
        predicted_ms=float(median[worst]),
    )


def desired_latency(forecast: "QuantileForecast", report: ViolationReport) -> np.ndarray:
    """Scale the median forecast down by the violation fraction."""
    median = np.asarray(forecast.median, dtype=np.float64)
    return median * (1.0 - report.violation_fraction)


def tabulate_model_outputs(models: Sequence[KrrModel], importance_matrix: np.ndarray) -> np.ndarray:
    """F[t, k] = f_k(importance_matrix[t, k])."""
    imp = np.asarray(importance_matrix, dtype=np.float64)
    if imp.ndim != 2 or imp.shape[1] != len(models):
        raise ValueError(f"importance matrix {imp.shape} does not match {len(models)} models")
    return np.column_stack([krr_predict(m, imp[:, k]) for k, m in enumerate(models)])


def least_squares_objective(models: Sequence[KrrModel], importance_matrix: np.ndarray,
                            target: Sequence[float]) -> tuple[Callable, np.ndarray]:
    """Build the objective/gradient callable for the theta solve.

    The combined model is linear in theta once the per-feature outputs
    are tabulated, so the gradient is closed-form: 2 G^T (G theta - y)
    with G = [1 | F].
    """
    t = np.asarray(target, dtype=np.float64)
    outputs = tabulate_model_outputs(models, importance_matrix)
    if outputs.shape[0] != t.size:
        raise ValueError(f"{outputs.shape[0]} rows vs {t.size} target values")
    design = np.column_stack([np.ones(t.size), outputs])
    return _squared_residual(design, t), design


def _squared_residual(design: np.ndarray, t: np.ndarray) -> Callable:
    """theta -> (||design theta - t||^2, its gradient 2 design^T (design theta - t))."""

    def fun_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        resid = design @ theta - t
        return float(resid @ resid), 2.0 * (design.T @ resid)

    return fun_and_grad


@dataclass
class LbfgsbResult:
    theta: np.ndarray
    objective_value: float
    iterations: int
    converged: bool


def lbfgsb_minimize(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta_init: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> LbfgsbResult:
    """Box-constrained minimization with scipy's L-BFGS-B.

    ``fun_and_grad`` returns the objective and its gradient.  The start
    is clipped into the box.  ``converged`` means the projected-gradient
    infinity norm at the returned point is below ``PG_TOL``.
    """
    lo = np.asarray([b[0] for b in bounds], dtype=np.float64)
    hi = np.asarray([b[1] for b in bounds], dtype=np.float64)
    if np.any(lo > hi):
        raise ValueError("each bound must satisfy lo <= hi")
    x0 = np.clip(np.asarray(theta_init, dtype=np.float64), lo, hi)
    f, g = fun_and_grad(x0)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("non-finite objective or gradient at the starting point")

    found = minimize(fun_and_grad, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
                     options={"maxiter": MAX_ITER, "gtol": PG_TOL, "ftol": 0.0})
    x = np.clip(found.x, lo, hi)
    f, g = fun_and_grad(x)
    projected_grad = x - np.clip(x - g, lo, hi)
    return LbfgsbResult(theta=x, objective_value=float(f), iterations=int(found.nit),
                        converged=bool(np.max(np.abs(projected_grad)) < PG_TOL))


def solve_theta(
    models: Sequence[KrrModel],
    importance_matrix: np.ndarray,
    target: Sequence[float],
    factor_bounds: Sequence[tuple[float, float]] | None = None,
    intercept_bounds: tuple[float, float] = DEFAULT_INTERCEPT_BOX,
) -> tuple[np.ndarray, LbfgsbResult]:
    """Fit theta (the intercept, then one factor per model, each in its
    box) on the combined-regressor least squares problem, starting from
    the no-change point (all factors one, intercept at the target mean)."""
    k = len(models)
    if factor_bounds is None:
        factor_bounds = [DEFAULT_FACTOR_BOX] * k
    bounds = [tuple(intercept_bounds)] + [tuple(b) for b in factor_bounds]
    t = np.asarray(target, dtype=np.float64)
    fun_and_grad, design = least_squares_objective(models, importance_matrix, t)
    # Solve in row-scaled units: theta* is unchanged, but gradients land
    # in a range where the absolute projected-gradient tolerance is
    # attainable in double precision even for millisecond-scale targets.
    scale = float(max(1.0, np.max(np.abs(t)), np.max(np.abs(design))))
    scaled_fun = _squared_residual(design / scale, t / scale)
    result = lbfgsb_minimize(scaled_fun, np.concatenate([[t.mean()], np.ones(k)]), bounds)
    result.objective_value = fun_and_grad(result.theta)[0]
    return result.theta, result


@dataclass(frozen=True)
class FeatureSpec:
    """Catalog entry tying one importance feature to a concrete knob."""

    name: str
    actionable: bool
    microservice: str | None = None
    resource: str | None = None  # pods | cpu | mem for actionable features
    current: float = 0.0


@dataclass(frozen=True)
class PlanAction:
    service: str
    resource: str
    current: float
    factor: float
    recommended: float


@dataclass(frozen=True)
class Advisory:
    feature: str
    factor: float
    note: str


@dataclass
class ScalingPlan:
    trace: str
    sla_ms: float
    violation_fraction: float
    theta: list[float]
    converged: bool
    objective_value: float
    actions: list[PlanAction]
    advisories: list[Advisory]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScalingPlan":
        return read(cls, json.loads(text))


def make_plan(
    theta: Sequence[float],
    feature_catalog: Sequence[FeatureSpec],
    resource_bounds: Mapping[str, tuple[float, float]] | None = None,
    trace: str = "",
    sla_ms: float = 0.0,
    violation_fraction: float = 0.0,
    converged: bool = True,
    objective_value: float = 0.0,
) -> ScalingPlan:
    """Turn theta (the intercept, then one factor per feature) into
    per-resource recommendations.

    An actionable feature's ``recommended`` is the
    ``simulator.resource_level`` of theta_k times its current value in
    the box looked up by feature name, else the simulator's default box
    for the resource; ``simulator.apply_plan`` configures exactly that
    level.  Calls-per-second features become advisory notes only.
    """
    factors = np.asarray(theta, dtype=np.float64)[1:]
    if len(feature_catalog) != factors.size:
        raise ValueError(
            f"catalog covers {len(feature_catalog)} features, theta has {factors.size}"
        )
    resource_bounds = dict(resource_bounds or {})
    actions, advisories = [], []
    for spec, factor in zip(feature_catalog, factors):
        factor = float(factor)
        if spec.actionable:
            if spec.resource not in ACTIONABLE_RESOURCES:
                raise ValueError(f"feature {spec.name!r}: unknown resource {spec.resource!r}")
            lo, hi = resource_bounds.get(spec.name, simulator.resource_bounds()[spec.resource])
            level = simulator.resource_level(spec.resource, factor * spec.current, lo, hi)
            actions.append(PlanAction(service=spec.microservice or "", resource=spec.resource,
                                      current=spec.current, factor=factor, recommended=float(level)))
        else:
            verb = "reduce" if factor < 1.0 else "shape"
            note = f"{verb} front-end calls for {spec.name} by factor {factor:.3f} (not enforced)"
            advisories.append(Advisory(feature=spec.name, factor=factor, note=note))
    return ScalingPlan(
        trace=trace,
        sla_ms=sla_ms,
        violation_fraction=violation_fraction,
        theta=[float(v) for v in theta],
        converged=converged,
        objective_value=objective_value,
        actions=actions,
        advisories=advisories,
    )
