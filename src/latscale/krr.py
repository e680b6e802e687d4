"""RBF kernel ridge regression, one univariate model per importance feature.

Each regressor maps one feature-importance score onto the corrected
latency target.  Hyperparameters come from a small decade grid searched
with chronological 3-fold cross-validation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

DEFAULT_GRID = (0.01, 0.1, 1.0, 10.0)


def _kernel_matrix(x: np.ndarray, y: np.ndarray, beta) -> np.ndarray:
    """The RBF kernel exp(-beta * (x_i - y_j)^2) over the last axis of
    ``x`` and ``y``; an array ``beta`` of shape (B, 1, 1) gives B
    stacked matrices, and leading axes of ``x`` and ``y`` stack too."""
    d2 = (x[..., :, None] - y[..., None, :]) ** 2
    return np.exp(-beta * d2)


def _training_arrays(feature_values, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(feature_values, dtype=np.float64)
    t = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or t.shape != x.shape:
        raise ValueError("feature_values and y must be 1-D sequences of equal length")
    if x.size < 1:
        raise ValueError("need at least one training point")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite training inputs")
    return x, t


_NOT_POSITIVE_DEFINITE = "kernel system not positive definite (alpha={} too small for conditioning)"


@dataclass
class KrrModel:
    """Fitted dual-form ridge regressor over one scalar feature, with
    the RBF kernel exp(-beta * (x - x')^2)."""

    alpha: float
    beta: float
    support_inputs: np.ndarray
    dual_coefficients: np.ndarray
    target_center: float
    feature: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "beta": self.beta,
                "center": self.target_center,
                "support_inputs": self.support_inputs.tolist(),
                "dual_coefficients": self.dual_coefficients.tolist(),
                "feature": self.feature,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "KrrModel":
        doc = json.loads(text)
        return cls(
            alpha=doc["alpha"],
            beta=doc["beta"],
            support_inputs=np.asarray(doc["support_inputs"], dtype=np.float64),
            dual_coefficients=np.asarray(doc["dual_coefficients"], dtype=np.float64),
            target_center=doc["center"],
            feature=doc.get("feature"),
        )


def fit(feature_values: Sequence[float], y: Sequence[float], alpha: float, beta: float,
        feature: str | None = None) -> KrrModel:
    """Solve (K + alpha*I) a = y - mean(y) and keep the dual coefficients."""
    x, t = _training_arrays(feature_values, y)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if beta <= 0:
        raise ValueError("kernel parameter beta must be positive")
    center = float(t.mean())
    gram = _kernel_matrix(x, x, beta)
    gram.flat[:: x.size + 1] += alpha  # the diagonal
    factor, info = dpotrf(gram, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(_NOT_POSITIVE_DEFINITE.format(alpha))
    coefs, _ = dpotrs(factor, t - center, lower=1)
    return KrrModel(
        alpha=float(alpha),
        beta=float(beta),
        support_inputs=x.copy(),
        dual_coefficients=coefs,
        target_center=center,
        feature=feature,
    )


def predict(model: KrrModel, x) -> float | np.ndarray:
    """center + sum_i a_i * k(support_i, x); vectorized over query points."""
    queries = np.atleast_1d(np.asarray(x, dtype=np.float64))
    k = _kernel_matrix(queries, model.support_inputs, model.beta)
    out = model.target_center + k @ model.dual_coefficients
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class GridSearchSpec:
    alpha_grid: tuple[float, ...] = DEFAULT_GRID
    beta_grid: tuple[float, ...] = DEFAULT_GRID
    folds: int = 3

    def __post_init__(self):
        if not self.alpha_grid or not self.beta_grid:
            raise ValueError("grids must be non-empty")
        if not all(0 < v < math.inf for v in (*self.alpha_grid, *self.beta_grid)):
            raise ValueError("grid values must be positive and finite")
        if self.folds < 2:
            raise ValueError("need at least two folds")


@dataclass
class GridSearchResult:
    best_alpha: float
    best_beta: float
    table: np.ndarray  # mean CV MSE, rows follow alpha_grid, columns beta_grid
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]

    def cell(self, alpha: float, beta: float) -> float:
        return float(self.table[self.alpha_grid.index(alpha), self.beta_grid.index(beta)])


def grid_search(feature_values: Sequence[float], y: Sequence[float],
                spec: GridSearchSpec = GridSearchSpec()) -> GridSearchResult:
    """Exhaustive (alpha, beta) search with contiguous chronological
    folds: the one-column case of ``_grid_searches``."""
    x, t = _training_arrays(feature_values, y)
    return next(_grid_searches(x[:, None], t, spec))


def _grid_searches(imp: np.ndarray, t: np.ndarray, spec: GridSearchSpec):
    """Yield the search of each column of ``imp`` (n, F) against the
    target ``t``, in column order.

    Every column is searched in one batch.  Each fold takes one
    eigendecomposition K = V diag(lam) V^T of the (F, B, m, m) stack of
    kernels and solves every alpha from it, since
    (K + alpha*I)^-1 = V diag(1 / (lam + alpha)) V^T (Rifkin & Lippert,
    2007).  Ties are broken toward the larger alpha, then the smaller
    beta, so the smoother model wins.  A column whose search fails
    raises when its turn comes, with the error its own search gives:
    bad inputs, else the first alpha of its first fold that is not
    positive definite.  Each column's validation predictions are a
    contraction of fresh arrays, as a one-column search makes them,
    because einsum's sums can round differently on views into a stack.
    """
    n, n_cols = imp.shape
    finite = np.isfinite(imp).all(axis=0) & np.isfinite(t).all()
    ready = n_cols if finite.all() else int(np.argmin(finite))  # columns before a non-finite one
    xs = imp[:, :ready].T[:, None]  # (F, 1, n)
    alphas = np.asarray(spec.alpha_grid, dtype=np.float64)[:, None, None]
    betas = np.asarray(spec.beta_grid, dtype=np.float64)[:, None, None]

    table = np.zeros((ready, alphas.size, betas.size))
    failed = np.full(ready, -1)  # per column, the alpha index that fails its first failing fold
    folds = np.array_split(np.arange(n), spec.folds) if n >= spec.folds and ready else []
    for val_idx in folds:
        train_mask = np.ones(n, dtype=bool)
        train_mask[val_idx] = False
        x_tr, t_tr = xs[..., train_mask], t[train_mask]
        center = t_tr.mean()
        lam, vecs = np.linalg.eigh(_kernel_matrix(x_tr, x_tr, betas))  # (F, B, m), (F, B, m, m)
        shifted = lam[:, None] + alphas  # (F, A, B, m)
        bad = np.any(shifted <= 0, axis=(2, 3))
        first = (failed < 0) & bad.any(axis=1)
        failed[first] = bad[first].argmax(axis=1)
        projected = np.einsum("fbji,j->fbi", vecs, t_tr - center)
        pred = np.empty((ready, alphas.size, betas.size, val_idx.size))
        with np.errstate(all="ignore"):  # a failed column's table is never read
            coefs = np.einsum("fbij,fabj->fabi", vecs, projected[:, None] / shifted)
            for k in range(ready):
                k_val = _kernel_matrix(xs[k, 0, val_idx], x_tr[k, 0], betas)
                pred[k] = np.einsum("bvj,abj->abv", k_val, coefs[k].copy())
            table += np.mean((center + pred - t[val_idx]) ** 2, axis=3)
    table /= spec.folds

    # the cells in tie-break order: larger alpha first, then smaller beta
    cells = sorted(np.ndindex(table.shape[1:]),
                   key=lambda ij: (-spec.alpha_grid[ij[0]], spec.beta_grid[ij[1]]))
    rows, cols = np.array(cells).T
    for k in range(n_cols):
        if k in (0, ready):
            _training_arrays(imp[:, k], t)  # raises on no points or a non-finite value
            if n < spec.folds:
                raise ValueError(f"need at least {spec.folds} points for {spec.folds}-fold CV, have {n}")
        if failed[k] >= 0:
            raise np.linalg.LinAlgError(_NOT_POSITIVE_DEFINITE.format(spec.alpha_grid[failed[k]]))
        best = cells[int(np.argmin(table[k, rows, cols]))]
        yield GridSearchResult(
            best_alpha=spec.alpha_grid[best[0]],
            best_beta=spec.beta_grid[best[1]],
            table=table[k],
            alpha_grid=tuple(spec.alpha_grid),
            beta_grid=tuple(spec.beta_grid),
        )


@dataclass
class PerFeatureFit:
    models: list[KrrModel]
    searches: list[GridSearchResult]
    cv_mse: list[float]
    pooled_rmse: float
    pooled_r2: float


def fit_per_feature(importances: np.ndarray, desired: Sequence[float],
                    spec: GridSearchSpec = GridSearchSpec(),
                    feature_names: Sequence[str] | None = None) -> PerFeatureFit:
    """Fit one grid-searched regressor per importance column.

    ``importances`` is (steps, features); every column is matched
    against the same corrected-latency target.  The pooled metrics
    score the equal-weight average of all per-feature predictions, as
    a fit diagnostic.
    """
    imp = np.asarray(importances, dtype=np.float64)
    t = np.asarray(desired, dtype=np.float64)
    if imp.ndim != 2 or imp.shape[0] != t.size:
        raise ValueError(f"importance matrix {imp.shape} does not match {t.size} target rows")
    if imp.shape[1] < 1:
        raise ValueError("need at least one feature column")
    if feature_names is not None and len(feature_names) != imp.shape[1]:
        raise ValueError("feature_names length must match importance columns")

    models, searches, cv_mse = [], [], []
    for k, search in enumerate(_grid_searches(imp, t, spec)):
        name = feature_names[k] if feature_names is not None else None
        models.append(fit(imp[:, k], t, search.best_alpha, search.best_beta, feature=name))
        searches.append(search)
        cv_mse.append(search.cell(search.best_alpha, search.best_beta))

    combo = np.mean([predict(m, imp[:, k]) for k, m in enumerate(models)], axis=0)
    resid = combo - t
    pooled_rmse = float(np.sqrt(np.mean(resid**2)))
    sst = float(np.sum((t - t.mean()) ** 2))
    pooled_r2 = float(1.0 - np.sum(resid**2) / sst) if sst > 0 else float("nan")
    return PerFeatureFit(models, searches, cv_mse, pooled_rmse, pooled_r2)
