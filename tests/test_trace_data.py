import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscale.tft import (
    EPSILON, RANGE_FLOOR, TftConfig, denormalize_target, fit_feature_scaling, prepare_batch,
)
from latscale.trace_data import (
    Block,
    DataFormatError,
    DatasetTooShortError,
    MetricSeries,
    SeriesKind,
    TraceDataset,
    Window,
    WindowSpec,
    load_dataset,
    make_windows,
    p95,
    save_dataset,
)


def write_csv(path, text):
    path.write_text(text)
    return path


def small_dataset(n=500):
    t = np.arange(n)
    return TraceDataset(
        time_index=t,
        series=(
            MetricSeries("cps.green", SeriesKind.FRONT_END_CALLS, np.linspace(1, 50, n)),
            MetricSeries("pods.cart", SeriesKind.HORIZONTAL_RESOURCE, np.full(n, 3.0), "cart"),
            MetricSeries("latency_p95.green", SeriesKind.TARGET_LATENCY, np.linspace(10, 90, n)),
        ),
    )


class TestLoadDataset:
    def test_schema_identity(self, tmp_path):
        lines = ["t,cps.green,pods.cart,latency_p95.green"]
        for i in range(500):
            lines.append(f"{i},{1.0 + i % 7},{2 + i % 3},{50.0 + i % 11}")
        path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
        ds = load_dataset(path)
        assert ds.n_steps == 500
        assert ds.time_index[-1] == 499
        assert ds.traces == ["green"]
        horizontal = [s for s in ds.series if s.kind is SeriesKind.HORIZONTAL_RESOURCE]
        assert len(horizontal) == 1
        assert horizontal[0].microservice == "cart"

    def test_empty_file_is_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataFormatError, match="missing column"):
            load_dataset(path)

    def test_duplicated_time_index(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            "t,latency_p95.green\n0,1\n1,2\n1,3\n2,4\n",
        )
        with pytest.raises(DataFormatError, match="duplicated time index") as exc:
            load_dataset(path)
        assert exc.value.row == 4  # header is row 1, so t=1 repeats on file row 4

    def test_out_of_order_rows_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "t,latency_p95.green\n0,1\n2,2\n1,3\n")
        with pytest.raises(DataFormatError, match="out of order"):
            load_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "t,latency_p95.green\n0,1\n1\n")
        with pytest.raises(DataFormatError, match="ragged row"):
            load_dataset(path)

    def test_non_numeric_cell_location(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "t,latency_p95.green\n0,1\n1,oops\n")
        with pytest.raises(DataFormatError, match="non-numeric") as exc:
            load_dataset(path)
        assert exc.value.row == 3
        assert exc.value.column == "latency_p95.green"

    @pytest.mark.parametrize("column,cell,row", [
        ("latency_p95.green", "nan", 3),
        ("cps.green", "inf", 2),
        ("cps.green", "-Infinity", 3),
        ("t", "inf", 3),
    ])
    def test_non_finite_cell_location(self, tmp_path, column, cell, row):
        rows = [["0", "5", "1"], ["1", "6", "2"]]
        header = ["t", "cps.green", "latency_p95.green"]
        rows[row - 2][header.index(column)] = cell
        text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DataFormatError, match="non-finite") as exc:
            load_dataset(path)
        assert exc.value.row == row
        assert exc.value.column == column

    def test_unknown_column_name(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "t,wat.green\n0,1\n")
        with pytest.raises(DataFormatError, match="cannot classify"):
            load_dataset(path)

    def test_every_prefix_sets_kind_and_owner(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            "t,cps.x,pods.cart,cpu.cart,mem.db,latency_p95.x\n0,1,2,3,4,5\n1,2,2,3,4,6\n",
        )
        ds = load_dataset(path)
        got = [(s.name, s.kind, s.microservice) for s in ds.series]
        assert got == [
            ("cps.x", SeriesKind.FRONT_END_CALLS, None),
            ("pods.cart", SeriesKind.HORIZONTAL_RESOURCE, "cart"),
            ("cpu.cart", SeriesKind.VERTICAL_RESOURCE, "cart"),
            ("mem.db", SeriesKind.VERTICAL_RESOURCE, "db"),
            ("latency_p95.x", SeriesKind.TARGET_LATENCY, None),
        ]
        assert ds.traces == ["x"]

    @pytest.mark.parametrize("text,message", [
        ("time,latency_p95.green\n0,1\n", "first column must be the time index"),
        ("t\n0\n1\n", "no data columns"),
        ("t,latency_p95.green\n", "no data rows"),
        ("t,latency_p95.green\n0,1\n1.5,2\n", "must be integer"),
    ])
    def test_malformed_layout(self, tmp_path, text, message):
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DataFormatError, match=message):
            load_dataset(path)

    def test_roundtrip_exact(self, tmp_path):
        ds = small_dataset(40)
        save_dataset(ds, tmp_path / "d.csv")
        back = load_dataset(tmp_path / "d.csv")
        for a, b in zip(ds.series, back.series):
            assert a.name == b.name and a.kind == b.kind
            np.testing.assert_array_equal(a.values, b.values)

    def test_rows_are_the_csv_writers_bytes(self, tmp_path):
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, -1.5e308, 0.1, 3.0]
        values = np.resize(specials, 23)
        ds = TraceDataset(time_index=np.arange(100, 123), series=(
            MetricSeries('cps."odd, name"', SeriesKind.FRONT_END_CALLS, values),
            MetricSeries("cps.green", SeriesKind.FRONT_END_CALLS, values[::-1]),
        ))
        save_dataset(ds, tmp_path / "d.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [s.name for s in ds.series])
            for i, t in enumerate(ds.time_index):
                writer.writerow([int(t)] + [repr(float(s.values[i])) for s in ds.series])
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestP95:
    def test_paper_style_boundary(self):
        # 95 responses at or under 100 ms, 5 slower: p95 is 100 ms.
        samples = [100.0] * 95 + [250.0] * 5
        assert p95(samples) == 100.0

    def test_constant(self):
        assert p95([7.5] * 13) == 7.5

    def test_nearest_rank_1_to_20(self):
        assert p95(list(range(1, 21))) == 19

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            p95([])

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=400))
    def test_matches_sort_oracle(self, samples):
        arr = sorted(samples)
        rank = int(np.ceil(0.95 * len(arr)))
        assert p95(samples) == arr[rank - 1]


class TestWindows:
    def test_single_window_boundary(self):
        ds = small_dataset(450)
        windows = make_windows(ds, WindowSpec(400, 50), "green")
        assert len(windows) == 1

    def test_eleven_windows(self):
        ds = small_dataset(460)
        windows = make_windows(ds, WindowSpec(400, 50), "green")
        assert len(windows) == 11

    def test_too_short(self):
        ds = small_dataset(100)
        with pytest.raises(DatasetTooShortError):
            make_windows(ds, WindowSpec(400, 50), "green")

    def test_target_cannot_be_a_feature(self):
        ds = small_dataset(200)
        with pytest.raises(ValueError, match="among the features"):
            make_windows(ds, WindowSpec(64, 16), "green",
                         ["cps.green", "latency_p95.green"])

    def test_feature_cannot_repeat(self):
        ds = small_dataset(200)
        with pytest.raises(ValueError, match="feature 'cps.green' listed twice"):
            make_windows(ds, WindowSpec(64, 16), "green", ["cps.green", "cps.green"])

    def test_no_target_leakage_in_any_decoder(self):
        ds = small_dataset(480)
        for w in make_windows(ds, WindowSpec(400, 50), "green"):
            assert "latency_p95.green" not in w.decoder.feature_names
            assert w.encoder.feature_names[-1] == "latency_p95.green"

    def test_blocks_align_with_source(self):
        ds = small_dataset(200)
        w = make_windows(ds, WindowSpec(64, 16), "green")[5]
        assert w.start == 5
        np.testing.assert_array_equal(w.encoder.values[:, 0], ds.get("cps.green").values[5:69])
        np.testing.assert_array_equal(w.future_target, ds.target("green").values[69:85])

    def test_windows_are_read_only_views_of_one_matrix(self):
        ds = small_dataset(200)
        a, b = make_windows(ds, WindowSpec(64, 16), "green")[:2]
        pairs = [(a.encoder.values, b.encoder.values), (a.decoder.values, b.decoder.values),
                 (a.future_target, b.future_target)]
        for x, y in pairs:
            assert np.shares_memory(x, y)
            assert not x.flags.writeable and not y.flags.writeable

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(0, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, k, tau, extra):
        n = k + tau + extra
        ds = small_dataset(n)
        windows = make_windows(ds, WindowSpec(k, tau), "green")
        assert len(windows) == n - k - tau + 1


def prepare_target(values):
    """Scale one encoder target history the way the forecaster does."""
    values = np.asarray(values, dtype=np.float64)
    window = Window(
        start=0,
        encoder=Block(("cps.green", "latency_p95.green"),
                      np.column_stack([np.ones(values.size), values])),
        decoder=Block(("cps.green",), np.ones((1, 1))),
        future_target=np.zeros(1),
    )
    batch = prepare_batch([window], TftConfig(encoder_length=values.size, decoder_length=1),
                          fit_feature_scaling([window]))
    return batch.enc[0, :, -1], batch.target_lo[0], batch.target_range[0]


class TestNormalization:
    def test_constant_series(self):
        scaled, lo, rng = prepare_target([5.0, 5.0, 5.0])
        np.testing.assert_allclose(scaled, [EPSILON] * 3)
        assert lo == 5.0
        assert rng == RANGE_FLOOR

    def test_zero_to_ten(self):
        scaled, _, _ = prepare_target([0.0, 10.0])
        np.testing.assert_allclose(scaled, [0.01, 1.01], atol=1e-9)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50),
    )
    @settings(max_examples=1000, deadline=None)
    def test_roundtrip_and_positivity(self, values):
        scaled, lo, rng = prepare_target(values)
        assert np.all(scaled > 0)
        back = denormalize_target(scaled, lo, rng)
        scale = max(1.0, float(np.max(np.abs(values))))
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-9 * scale)


class TestInvariants:
    def test_uniform_step_enforced(self):
        with pytest.raises(ValueError, match="uniform step"):
            TraceDataset(
                time_index=np.array([0, 1, 3]),
                series=(MetricSeries("latency_p95.g", SeriesKind.TARGET_LATENCY, np.ones(3)),),
            )

    def test_one_target_per_trace(self):
        with pytest.raises(ValueError, match="more than one target"):
            TraceDataset(
                time_index=np.arange(3),
                series=(
                    MetricSeries("latency_p95.g", SeriesKind.TARGET_LATENCY, np.ones(3)),
                    MetricSeries("lat_alt.g", SeriesKind.TARGET_LATENCY, np.ones(3)),
                ),
            )

    def test_resource_series_needs_microservice(self):
        with pytest.raises(ValueError, match="microservice"):
            MetricSeries("pods.cart", SeriesKind.HORIZONTAL_RESOURCE, np.ones(3))

    def test_pod_counts_must_be_positive_integers(self):
        with pytest.raises(ValueError, match="positive integers"):
            MetricSeries("pods.cart", SeriesKind.HORIZONTAL_RESOURCE, np.array([1.0, 2.5, 3.0]), "cart")
        with pytest.raises(ValueError, match="positive integers"):
            MetricSeries("pods.cart", SeriesKind.HORIZONTAL_RESOURCE, np.array([0.0, 1.0, 2.0]), "cart")
