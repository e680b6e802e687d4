import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from latscale.krr import (
    GridSearchSpec,
    KrrModel,
    fit,
    fit_per_feature,
    grid_search,
    predict,
)


def rbf(x, x_other, beta: float) -> float:
    """Scalar RBF kernel between two points (scalars or vectors)."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = np.atleast_1d(np.asarray(x_other, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.exp(-beta * np.sum((a - b) ** 2)))


def oracle_fit(x, y, alpha, beta):
    """Explicit matrix-inverse solve, independent of the fit path."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    center = y.mean()
    gram = np.exp(-beta * (x[:, None] - x[None, :]) ** 2)
    coefs = np.linalg.inv(gram + alpha * np.eye(x.size)) @ (y - center)
    return coefs, center


def cho_reference_coefs(x, y, alpha, beta):
    """The dual coefficients through scipy's ``cho_factor``/``cho_solve``
    wrappers, on the same kernel system ``fit`` builds."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    gram = np.exp(-beta * (x[:, None] - x[None, :]) ** 2)
    gram[np.diag_indices_from(gram)] += alpha
    return cho_solve(cho_factor(gram, lower=True), y - y.mean())


def oracle_predict(x_train, coefs, center, beta, query):
    return center + sum(a * rbf(xi, query, beta) for a, xi in zip(coefs, x_train))


def oracle_grid_search(x, y, spec=GridSearchSpec()):
    """The per-cell search: one Cholesky ``fit`` per (alpha, beta, fold).
    Returns the table and the chosen (alpha, beta)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    folds = np.array_split(np.arange(x.size), spec.folds)
    table = np.empty((len(spec.alpha_grid), len(spec.beta_grid)))
    for i, alpha in enumerate(spec.alpha_grid):
        for j, beta in enumerate(spec.beta_grid):
            errs = []
            for val_idx in folds:
                train_mask = np.ones(x.size, dtype=bool)
                train_mask[val_idx] = False
                model = fit(x[train_mask], y[train_mask], alpha, beta)
                errs.append(float(np.mean((predict(model, x[val_idx]) - y[val_idx]) ** 2)))
            table[i, j] = np.mean(errs)
    i, j = min(
        np.ndindex(table.shape),
        key=lambda ij: (table[ij], -spec.alpha_grid[ij[0]], spec.beta_grid[ij[1]]),
    )
    return table, (spec.alpha_grid[i], spec.beta_grid[j])


class TestRbf:
    def test_zero_distance(self):
        assert rbf([1.0, 2.0], [1.0, 2.0], beta=3.0) == 1.0

    def test_unit_distance(self):
        assert rbf(0.0, 1.0, beta=1.0) == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            rbf([1.0], [1.0, 2.0], beta=1.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=5),
        st.lists(st.floats(-50, 50), min_size=1, max_size=5),
        st.floats(0.01, 10),
    )
    def test_symmetry(self, a, b, beta):
        n = min(len(a), len(b))
        assert rbf(a[:n], b[:n], beta) == rbf(b[:n], a[:n], beta)

    def test_beta_must_be_positive(self):
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be positive"):
                fit([0.0, 1.0], [2.0, 3.0], alpha=0.1, beta=beta)


class TestFit:
    def test_single_point_reproduces_target(self):
        for alpha in (0.01, 1.0, 10.0):
            model = fit([2.0], [7.0], alpha=alpha, beta=1.0)
            # centering makes the single-point fit exact for any alpha:
            # y1/(1+a) plus the center correction a*y1/(1+a).
            assert predict(model, 2.0) == pytest.approx(7.0, rel=1e-12)
            assert model.dual_coefficients[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_point_dual_matches_inverse_oracle(self):
        x = [0.0, 1.0, 2.5]
        y = [3.0, -1.0, 4.0]
        model = fit(x, y, alpha=0.1, beta=0.7)
        coefs, center = oracle_fit(x, y, 0.1, 0.7)
        np.testing.assert_allclose(model.dual_coefficients, coefs, atol=1e-10)
        assert model.target_center == center

    def test_huge_alpha_shrinks_to_mean(self):
        x = np.linspace(0, 1, 8)
        y = np.sin(x * 5) * 10 + 3
        model = fit(x, y, alpha=1e6, beta=1.0)
        preds = predict(model, np.linspace(-1, 2, 20))
        np.testing.assert_allclose(preds, y.mean(), atol=1e-4 * np.abs(y).max())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit([0.0, np.nan], [1.0, 2.0], alpha=0.1, beta=1.0)

    def test_interpolation_limit(self):
        x = np.array([0.0, 1.0, 2.0, 3.5])
        y = np.array([1.0, -2.0, 0.5, 3.0])
        model = fit(x, y, alpha=1e-10, beta=1.0)
        np.testing.assert_allclose(predict(model, x), y, atol=1e-4)

    def test_json_roundtrip(self):
        model = fit([0.0, 1.0], [2.0, 3.0], alpha=0.1, beta=2.0, feature="pods.cart")
        back = KrrModel.from_json(model.to_json())
        assert back.feature == "pods.cart"
        assert back.beta == model.beta == 2.0
        assert back.to_json() == model.to_json()
        assert predict(back, 0.4) == predict(model, 0.4)


class TestPredict:
    def test_far_from_support_returns_center(self):
        model = fit([0.0, 1.0], [5.0, 9.0], alpha=0.1, beta=1.0)
        assert predict(model, 100.0) == pytest.approx(model.target_center, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_summation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 12)
        x = rng.normal(0, 2, n)
        y = rng.normal(0, 3, n)
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 5.0))
        model = fit(x, y, alpha, beta)
        query = float(rng.normal(0, 2))
        expected = oracle_predict(model.support_inputs, model.dual_coefficients,
                                  model.target_center, beta, query)
        assert predict(model, query) == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestGridSearch:
    def test_table_has_sixteen_cells(self):
        rng = np.random.default_rng(0)
        result = grid_search(rng.normal(size=20), rng.normal(size=20))
        assert result.table.shape == (4, 4)

    def test_constant_target_tie_break(self):
        x = np.linspace(0, 1, 12)
        result = grid_search(x, np.full(12, 3.0))
        np.testing.assert_allclose(result.table, 0.0, atol=1e-20)
        assert (result.best_alpha, result.best_beta) == (10.0, 0.01)

    def test_selected_cell_is_table_minimum(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, 30)
        base = fit(np.linspace(0, 1, 10), rng.normal(size=10), alpha=0.1, beta=1.0)
        y = predict(base, x)  # noiseless draw from an on-grid model
        result = grid_search(x, y)
        best = result.cell(result.best_alpha, result.best_beta)
        assert best <= result.table.min() + 1e-8

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            grid_search([1.0, 2.0], [1.0, 2.0])

    def test_scaling_invariance_of_table(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 24)
        y = np.sin(6 * x) + rng.normal(0, 0.1, 24)
        scale = 3.0
        spec = GridSearchSpec()
        scaled_spec = GridSearchSpec(beta_grid=tuple(b / scale**2 for b in spec.beta_grid))
        base = grid_search(x, y, spec)
        scaled = grid_search(x * scale, y, scaled_spec)
        np.testing.assert_allclose(scaled.table, base.table, rtol=0, atol=1e-9)


class TestGridSearchOracle:
    """``grid_search`` solves every alpha from one eigendecomposition per
    fold; the per-cell Cholesky search is the reference."""

    def test_dirichlet_searches_match(self):
        searches = 0
        for seed in range(171):
            rng = np.random.default_rng(seed)
            imp = rng.dirichlet(np.full(6, rng.uniform(0.3, 3.0)), size=16)
            y = rng.uniform(40, 120) + rng.normal(0, rng.uniform(0.1, 20), 16)
            for column in imp.T:
                table, choice = oracle_grid_search(column, y)
                result = grid_search(column, y)
                assert (result.best_alpha, result.best_beta) == choice
                np.testing.assert_allclose(result.table, table, rtol=1e-12, atol=0)
                searches += 1
        assert searches >= 1000

    def test_constant_feature_ties_every_beta(self):
        rng = np.random.default_rng(5)
        x = np.full(16, 0.25)
        y = rng.normal(80, 5, 16)
        result = grid_search(x, y)
        for j in range(1, result.table.shape[1]):
            np.testing.assert_array_equal(result.table[:, j], result.table[:, 0])
        assert result.best_beta == min(result.beta_grid)
        table, choice = oracle_grid_search(x, y)
        assert (result.best_alpha, result.best_beta) == choice
        np.testing.assert_allclose(result.table, table, rtol=1e-12, atol=0)

    def test_indefinite_system_reports_alpha(self):
        # nine duplicate inputs leave K singular, with rounding-level
        # negative eigenvalues that a vanishing ridge cannot lift
        x = np.array([1.0] * 9 + [2.0] * 3)
        y = np.arange(12.0)
        spec = GridSearchSpec(alpha_grid=(1.0, 1e-300))
        with pytest.raises(np.linalg.LinAlgError, match="alpha=1e-300"):
            grid_search(x, y, spec)

    @pytest.mark.parametrize("x4, y4", [(np.inf, 2.5), (0.5, np.nan)])
    def test_rejects_non_finite(self, x4, y4):
        x = np.linspace(0, 1, 9)
        y = np.linspace(2, 3, 9)
        x[4], y[4] = x4, y4
        with pytest.raises(ValueError, match="non-finite"):
            grid_search(x, y)


class TestKernelMatrixProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        x = rng.normal(0, 3, n)
        beta = float(rng.uniform(0.01, 10))
        gram = np.exp(-beta * (x[:, None] - x[None, :]) ** 2)
        assert np.max(np.abs(gram - gram.T)) < 1e-12
        assert np.linalg.eigvalsh(gram).min() >= -1e-9


class TestFitPerFeature:
    def test_six_features_six_models(self):
        rng = np.random.default_rng(1)
        imp = rng.uniform(0, 1, size=(18, 6))
        desired = rng.uniform(50, 100, 18)
        names = ["cps.green", "cps.blue", "cps.purple", "cps.red", "pods.cart", "pods.catalogue"]
        out = fit_per_feature(imp, desired, feature_names=names)
        assert len(out.models) == 6
        assert [m.feature for m in out.models] == names

    def test_single_feature_degenerates_to_fit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 12)
        y = 2 * x + 1
        out = fit_per_feature(x.reshape(-1, 1), y)
        assert len(out.models) == 1
        search = grid_search(x, y)
        direct = fit(x, y, search.best_alpha, search.best_beta)
        np.testing.assert_allclose(out.models[0].dual_coefficients, direct.dual_coefficients)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            fit_per_feature(np.zeros((5, 2)), np.zeros(6))

    def test_pooled_metrics_reported(self):
        rng = np.random.default_rng(3)
        imp = rng.uniform(0, 1, size=(15, 2))
        desired = 40 + 20 * imp[:, 0] + rng.normal(0, 0.5, 15)
        out = fit_per_feature(imp, desired)
        assert out.pooled_rmse >= 0
        assert out.pooled_r2 <= 1.0
        assert len(out.cv_mse) == 2


class TestBatchedSearch:
    """``fit_per_feature`` searches every column in one batch; each
    column's search must be bit for bit its own ``grid_search``."""

    @staticmethod
    def problems():
        """Tables of 3-40 steps and 1-8 columns: Dirichlet shares and
        uniform columns of several widths, against a noisy target or a
        target that is constant up to rounding-level noise."""
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, n_cols = int(rng.integers(3, 41)), int(rng.integers(1, 9))
            if seed % 2:
                imp = rng.dirichlet(np.full(n_cols, rng.uniform(0.3, 3.0)), size=n)
            else:
                imp = rng.uniform(0, rng.uniform(0.01, 5.0), size=(n, n_cols))
            scale = 1e-9 if seed % 5 == 0 else rng.uniform(0.1, 20)
            yield imp, rng.uniform(40, 120) + rng.normal(0, scale, n)

    def test_tables_and_choices_equal_per_column_search(self):
        columns = 0
        for imp, y in self.problems():
            out = fit_per_feature(imp, y)
            for k, (search, model) in enumerate(zip(out.searches, out.models)):
                alone = grid_search(imp[:, k], y)
                assert np.array_equal(search.table, alone.table)
                assert (search.best_alpha, search.best_beta) == (alone.best_alpha, alone.best_beta)
                assert (model.alpha, model.beta) == (alone.best_alpha, alone.best_beta)
                columns += 1
        assert columns >= 1000

    def test_fit_equals_cho_reference(self):
        cases = 0
        for imp, y in self.problems():
            for column in imp.T:
                for alpha in (0.01, 1.0):
                    for beta in (0.1, 10.0):
                        model = fit(column, y, alpha, beta)
                        reference = cho_reference_coefs(column, y, alpha, beta)
                        assert np.array_equal(model.dual_coefficients, reference)
                        cases += 1
        assert cases >= 4000

    def test_error_names_the_first_failing_columns_alpha(self):
        # the spread columns factor at every alpha; nine duplicate inputs
        # leave K singular, so a vanishing ridge fails on that column only
        spec = GridSearchSpec(alpha_grid=(1.0, 1e-300, 1e-301), beta_grid=(10.0, 1.0))
        spread = np.arange(12.0)
        dup = np.array([1.0] * 9 + [2.0] * 3)
        y = np.arange(12.0)
        for column in (spread, spread[::-1]):
            grid_search(column, y, spec)
        with pytest.raises(np.linalg.LinAlgError) as alone:
            grid_search(dup, y, spec)
        assert "alpha=1e-300" in str(alone.value)
        imp = np.column_stack([spread, spread[::-1], dup, dup + 1.0])
        with pytest.raises(np.linalg.LinAlgError) as batched:
            fit_per_feature(imp, y, spec)
        assert str(batched.value) == str(alone.value)

    def test_non_finite_column_is_refused(self):
        imp = np.random.default_rng(4).uniform(size=(12, 3))
        imp[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite training inputs"):
            fit_per_feature(imp, np.linspace(50, 60, 12))

    def test_one_eigendecomposition_per_fold(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(6)
        spec = GridSearchSpec()
        fit_per_feature(rng.dirichlet(np.ones(6), size=16), rng.uniform(40, 120, 16), spec)
        assert 1 <= len(calls) <= spec.folds


class TestConditioning:
    def test_singular_system_reports_alpha(self):
        # duplicate support points with a vanishing ridge make the
        # system numerically singular
        x = np.array([1.0, 1.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(np.linalg.LinAlgError, match="alpha"):
            fit(x, y, alpha=1e-300, beta=1.0)

    def test_grid_alphas_always_factor(self):
        x = np.array([0.5] * 10)  # fully degenerate inputs
        y = np.linspace(0, 1, 10)
        for alpha in (0.01, 0.1, 1.0, 10.0):
            fit(x, y, alpha=alpha, beta=1.0)
