import gc
import json
import multiprocessing
import os
import re
import threading
import time
import types
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from latscale import nn, tft
from latscale.nn import autodiff as ad
from latscale.tft import (
    ImportanceSeries,
    QuantileForecast,
    TemporalFusionTransformer,
    TftConfig,
    band_coverage,
    evaluate,
    evaluate_loss,
    fit_feature_scaling,
    interpret,
    load_checkpoint,
    persistence_metrics,
    pooled_forecast_metrics,
    predict,
    predict_many,
    prepare_batch,
    save_checkpoint,
    split_windows,
    train,
    train_with_restarts,
)
from latscale.trace_data import (
    MetricSeries,
    TraceDataset,
    WindowSpec,
    make_windows,
)
from oracles import chain_batch_loss, total

SMALL = TftConfig(encoder_length=64, decoder_length=16, hidden_size=8,
                  attention_heads=1, max_epochs=15, seed=3)


def sine_dataset(n=600, seed=0, noise=0.0):
    """Latency follows two observable drivers, so future covariates are
    informative for the decoder."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    calls = 30 + 12 * np.sin(2 * np.pi * t / 96)
    pods = 2 + (t // 80) % 3
    latency = 40 + 2.2 * calls + 25 / pods
    if noise:
        latency = latency * rng.lognormal(0, noise, n)
    return TraceDataset(
        time_index=t,
        series=(
            MetricSeries("cps.green", calls),
            MetricSeries("pods.cart", pods.astype(float)),
            MetricSeries("latency_p95.green", latency),
        ),
    )


def sine_windows(n=600, **kwargs):
    ds = sine_dataset(n, **kwargs)
    return make_windows(ds, WindowSpec(SMALL.encoder_length, SMALL.decoder_length), "green")


def small_model(config=SMALL, n_features=2):
    names = ["cps.green", "pods.cart"][:n_features]
    return TemporalFusionTransformer(config, names + ["latency_p95.green"], names)


class TestConfig:
    def test_quantiles_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TftConfig(quantiles=(0.5, 0.5, 0.9))
        with pytest.raises(ValueError, match="strictly increasing"):
            TftConfig(quantiles=(0.1, 1.0))

    def test_quantiles_must_include_median(self):
        with pytest.raises(ValueError, match="median 0.5"):
            TftConfig(quantiles=(0.2, 0.8))

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            TftConfig(hidden_size=0)

    def test_defaults_follow_training_setup(self):
        cfg = TftConfig()
        assert (cfg.hidden_size, cfg.attention_heads, cfg.dropout) == (8, 1, 0.1)
        assert (cfg.learning_rate, cfg.batch_size, cfg.max_epochs) == (0.03, 32, 20)
        assert (cfg.encoder_length, cfg.decoder_length) == (400, 50)


def expected_parameter_count(cfg: TftConfig, n_enc: int, n_dec: int) -> int:
    """Independent layer-shape bookkeeping for the assembled model."""
    h = cfg.hidden_size
    d = h // cfg.attention_heads

    def grn(n_in, n_out, hidden):
        total = n_in * hidden + hidden          # dense in
        total += hidden * n_out + n_out         # dense out
        total += 2 * (n_out * n_out + n_out)    # glu
        if n_in != n_out:
            total += n_in * n_out + n_out       # skip projection
        return total + 2 * n_out                # layer norm affine

    def gate_add_norm(width):
        return 2 * (width * width + width) + 2 * width

    total = (n_enc + n_dec) * (h + h)                       # per-feature embeddings
    total += grn(n_enc * h, n_enc, h) + grn(n_dec * h, n_dec, h)  # selection networks
    total += (n_enc + n_dec) * grn(h, h, h)                 # per-feature GRNs
    total += 2 * (h * 4 * h + h * 4 * h + 4 * h)            # LSTM encoder + decoder
    total += gate_add_norm(h)                               # post-LSTM gate
    total += grn(h, h, h)                                   # enrichment
    total += cfg.attention_heads * (h * d + d)              # query projections
    total += cfg.attention_heads * (h * d)                  # key projections (no bias)
    total += h * d + d                                      # shared value projection
    total += d * h + h                                      # attention output
    total += gate_add_norm(h)                               # post-attention gate
    total += grn(h, h, h)                                   # final GRN
    total += len(cfg.quantiles) * (h + 1)                   # quantile heads
    return total


def named_model(cfg, n_enc, n_dec):
    return TemporalFusionTransformer(cfg, [f"enc_{i}" for i in range(n_enc)],
                                     [f"dec_{i}" for i in range(n_dec)])


class TestBuildModel:
    def test_parameter_count_matches_bookkeeping(self):
        cfg = TftConfig(hidden_size=8, attention_heads=1)
        model = named_model(cfg, 7, 6)
        assert model.parameter_count() == expected_parameter_count(cfg, 7, 6)

    def test_parameter_count_two_heads(self):
        cfg = TftConfig(hidden_size=8, attention_heads=2)
        model = named_model(cfg, 4, 3)
        assert model.parameter_count() == expected_parameter_count(cfg, 4, 3)

    def test_selection_weights_shape(self):
        model = small_model()
        windows = sine_windows()[:3]
        batch = prepare_batch(windows, SMALL, fit_feature_scaling(windows))
        out = model.forward(batch.enc, batch.dec)
        assert out["encoder_weights"].values.shape == (3, 64, 3)
        assert out["decoder_weights"].values.shape == (3, 16, 2)

    def test_attention_rows_sum_to_one(self):
        model = small_model()
        windows = sine_windows()[:2]
        batch = prepare_batch(windows, SMALL, fit_feature_scaling(windows))
        out = model.forward(batch.enc, batch.dec)
        np.testing.assert_allclose(out["attention"].values.sum(axis=-1), 1.0, atol=1e-6)

    def test_invalid_feature_count(self):
        with pytest.raises(ValueError):
            named_model(TftConfig(), 0, 2)


@pytest.fixture(scope="module")
def trained_sine():
    windows = sine_windows()
    model = small_model()
    report = train(model, windows)
    return model, report, windows


class TestTrain:
    def test_loss_drops_order_of_magnitude(self, trained_sine):
        _, report, _ = trained_sine
        assert report.train_loss[-1] <= 0.10 * report.train_loss[0]

    def test_single_epoch_when_configured(self):
        cfg = TftConfig(encoder_length=64, decoder_length=16, max_epochs=1,
                        early_stopping_patience=0, seed=1)
        model = small_model(cfg)
        report = train(model, sine_windows())
        assert report.stopped_epoch == 1
        assert len(report.train_loss) == 1

    def test_deterministic_given_seed(self):
        windows = sine_windows(n=220)
        cfg = TftConfig(encoder_length=64, decoder_length=16, max_epochs=2, seed=7)
        first = train(small_model(cfg), windows)
        second = train(small_model(cfg), windows)
        assert first.train_loss == second.train_loss
        assert first.val_loss == second.val_loss

    def test_empty_window_set(self):
        with pytest.raises(ValueError, match="empty window set"):
            train(small_model(), [])

    def test_best_weights_restored(self, trained_sine):
        model, report, windows = trained_sine
        _, val = windows[: report.n_train_windows], windows[report.n_train_windows :]
        from latscale.tft import evaluate_loss

        current = evaluate_loss(model, val)
        assert current == pytest.approx(min(report.val_loss), rel=1e-9)


def retrain_with_restarts(config, encoder_features, decoder_features, windows,
                          restarts=3, scout_epochs=5, on_epoch=None):
    """Oracle: the restart race that trains the winning seed again from
    scratch instead of continuing its scout."""
    if restarts <= 1:
        model = TemporalFusionTransformer(config, encoder_features, decoder_features)
        return model, train(model, windows, on_epoch=on_epoch)
    scout_losses = []
    candidates = [replace(config, seed=config.seed + 101 * r) for r in range(restarts)]
    for candidate in candidates:
        scout_cfg = replace(candidate, max_epochs=min(scout_epochs, candidate.max_epochs))
        scout = TemporalFusionTransformer(scout_cfg, encoder_features, decoder_features)
        scout_report = train(scout, windows)
        scout_losses.append(min(scout_report.val_loss))
    winner = candidates[int(np.argmin(scout_losses))]
    model = TemporalFusionTransformer(winner, encoder_features, decoder_features)
    report = train(model, windows, on_epoch=on_epoch)
    report.restart_scout_losses = [float(v) for v in scout_losses]
    return model, report


FEATURES = (["cps.green", "pods.cart", "latency_p95.green"], ["cps.green", "pods.cart"])


def run_restarts(race, config, windows, tmp_path, name, **kwargs):
    epochs = []
    model, report = race(config, *FEATURES, windows, restarts=2,
                         on_epoch=lambda *args: epochs.append(args), **kwargs)
    save_checkpoint(model, tmp_path / f"{name}.json")
    return model, report, (tmp_path / f"{name}.json").read_bytes(), epochs


def race_on(monkeypatch, processes):
    """Make ``train_with_restarts`` race its scouts on ``processes``
    processes, whatever the machine's CPU count."""
    monkeypatch.setattr(tft, "_scout_processes", lambda restarts: min(restarts, processes))


class TestRestarts:
    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("max_epochs, patience, scout_epochs, case", [
        (2, 5, 5, "max_epochs_within_scout"),
        (8, 2, 3, "lr_cut_after_scout_ended_off_its_best"),
        (10, 1, 5, "scout_stops_early"),
    ])
    def test_continued_winner_equals_retrained(self, tmp_path, monkeypatch, max_epochs, patience,
                                                scout_epochs, case, processes):
        race_on(monkeypatch, processes)
        monkeypatch.setattr(tft, "SCOUT_EPOCHS", scout_epochs)
        windows = sine_windows(n=160)
        config = replace(SMALL, max_epochs=max_epochs, early_stopping_patience=patience)
        model, report, checkpoint, epochs = run_restarts(
            train_with_restarts, config, windows, tmp_path, "continued")
        _, oracle_report, oracle_checkpoint, oracle_epochs = run_restarts(
            retrain_with_restarts, config, windows, tmp_path, "retrained",
            scout_epochs=scout_epochs)
        assert checkpoint == oracle_checkpoint
        assert report.to_json() == oracle_report.to_json()
        assert epochs == oracle_epochs
        run = model._run  # the case this parameter set is meant to cover
        assert {
            "max_epochs_within_scout": max_epochs <= scout_epochs,
            "lr_cut_after_scout_ended_off_its_best": (
                run.last_reduction > scout_epochs
                and np.argmin(report.val_loss[:scout_epochs]) + 1 < scout_epochs),
            "scout_stops_early": run.stopped_early and report.stopped_epoch < scout_epochs,
        }[case]

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_one_train_call_per_scout(self, monkeypatch, restarts):
        calls = []
        real = tft.train

        def counted(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(tft, "train", counted)
        race_on(monkeypatch, 1)  # the calls are counted in this process
        monkeypatch.setattr(tft, "SCOUT_EPOCHS", 1)
        config = replace(SMALL, max_epochs=2, seed=5)
        model, _ = train_with_restarts(config, *FEATURES, sine_windows(n=120), restarts=restarts)
        assert len(calls) == restarts
        assert model in calls

    def test_single_restart_is_plain_train(self, tmp_path):
        windows = sine_windows(n=120)
        config = replace(SMALL, max_epochs=2, seed=5)
        got_epochs, want_epochs = [], []
        model, report = train_with_restarts(config, *FEATURES, windows, restarts=1,
                                            on_epoch=lambda *a: got_epochs.append(a))
        plain = TemporalFusionTransformer(config, *FEATURES)
        plain_report = train(plain, windows, on_epoch=lambda *a: want_epochs.append(a))
        save_checkpoint(model, tmp_path / "single.json")
        save_checkpoint(plain, tmp_path / "plain.json")
        assert (tmp_path / "single.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert report.to_json() == plain_report.to_json()
        assert got_epochs == want_epochs

    def test_second_train_starts_a_fresh_run(self, tmp_path):
        """A model trained before, including one whose run stopped early,
        trains again exactly like a fresh model holding the same weights."""
        windows = sine_windows(n=160)
        config = replace(SMALL, max_epochs=6, early_stopping_patience=1)
        model = small_model(config)
        first = train(model, windows)
        assert model._run.stopped_early and first.stopped_epoch < config.max_epochs
        fresh = small_model(config)
        fresh.store.load_state_dict(model.store.state_dict())
        again, fresh_report = train(model, windows), train(fresh, windows)
        save_checkpoint(model, tmp_path / "again.json")
        save_checkpoint(fresh, tmp_path / "fresh.json")
        assert again.to_json() == fresh_report.to_json()
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_training_leaves_nothing_heavy(self, monkeypatch, restarts):
        """Without the cycle collector, every prepared batch is freed when
        training returns and the trained model is freed once dropped."""
        batch_refs = []
        real = tft.prepare_batch

        def recording(*args, **kwargs):
            batch = real(*args, **kwargs)
            batch_refs.extend(weakref.ref(a) for a in (batch.enc, batch.dec, batch.labels))
            return batch

        monkeypatch.setattr(tft, "prepare_batch", recording)
        race_on(monkeypatch, 1)  # the batches are recorded in this process
        monkeypatch.setattr(tft, "SCOUT_EPOCHS", 1)
        config = replace(SMALL, max_epochs=2, seed=5)
        windows = sine_windows(n=120)
        gc.collect()
        gc.disable()
        try:
            model, report = train_with_restarts(config, *FEATURES, windows, restarts=restarts)
            epochs = restarts + 1  # one per scout, then on to max_epochs
            train_part, val_part = split_windows(windows, config.validation_fraction)
            batches = -(-len(train_part) // config.batch_size)
            val_batches = -(-len(val_part) // config.batch_size)
            # once per training batch and once per validation slice, every epoch
            assert len(batch_refs) == 3 * epochs * (batches + val_batches)
            assert all(ref() is None for ref in batch_refs)
            model_ref = weakref.ref(model)
            del model
            assert model_ref() is None
            assert report.stopped_epoch == 2
        finally:
            gc.enable()


def quick_scout(model, windows, on_epoch=None):
    return SimpleNamespace(val_loss=[1.0])


def die(model, windows, on_epoch=None):
    os._exit(7)


def hang(model, windows, on_epoch=None):
    time.sleep(600)


def fail(model, windows, on_epoch=None):
    raise ValueError(f"injected at seed {model.config.seed}")


def race_two(monkeypatch, train_by_seed, on_epoch=None):
    """The race on two processes: the scout of seed 5 trains in this
    process and the scout of seed 106 in a forked worker, each with
    ``train_by_seed``'s stand-in for ``tft.train`` where it has one."""
    real = tft.train

    def patched(model, windows, on_epoch=None):
        return train_by_seed.get(model.config.seed, real)(model, windows, on_epoch)

    monkeypatch.setattr(tft, "train", patched)
    race_on(monkeypatch, 2)
    monkeypatch.setattr(tft, "SCOUT_EPOCHS", 1)
    config = replace(SMALL, max_epochs=2, seed=5)
    return train_with_restarts(config, *FEATURES, sine_windows(n=120),
                               restarts=2, on_epoch=on_epoch)


class TestScoutWorkers:
    def test_worker_scout_trains_in_another_process(self, monkeypatch, tmp_path):
        real = tft.train

        def record_pid(model, windows, on_epoch=None):
            (tmp_path / str(model.config.seed)).write_text(str(os.getpid()))
            return real(model, windows, on_epoch)

        model, report = race_two(monkeypatch, {5: record_pid, 106: record_pid})
        assert (tmp_path / "5").read_text() == str(os.getpid())
        assert (tmp_path / "106").read_text() != str(os.getpid())
        assert len(report.restart_scout_losses) == 2 and report.stopped_epoch == 2
        assert multiprocessing.active_children() == []

    def test_failure_here_terminates_the_worker(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="injected at seed 5"):
            race_two(monkeypatch, {5: fail, 106: hang})
        assert time.perf_counter() - start < 60
        assert multiprocessing.active_children() == []

    def test_failure_in_a_worker_is_raised_with_its_seed(self, monkeypatch):
        with pytest.raises(RuntimeError, match="restart scout of seed 106 failed: "
                                               "ValueError: injected at seed 106") as info:
            race_two(monkeypatch, {5: quick_scout, 106: fail})
        assert isinstance(info.value.__cause__, ValueError)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_a_result(self, monkeypatch):
        with pytest.raises(RuntimeError, match=r"seeds \[106\] exited with code 7 and no result"):
            race_two(monkeypatch, {5: quick_scout, 106: die})
        assert multiprocessing.active_children() == []


class TestScoutProcesses:
    @pytest.fixture
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(tft, "_blas_threads", lambda: ("get", "set"))  # a pin is found
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def test_one_per_usable_cpu_and_at_most_one_per_scout(self, four_cpus):
        assert [tft._scout_processes(r) for r in (2, 4, 9)] == [2, 4, 4]

    @pytest.mark.parametrize("owner, name, value", [
        (tft, "_blas_threads", lambda: None),
        (multiprocessing, "get_all_start_methods", lambda: ["spawn"]),
        (multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True)),
    ], ids=["no_blas_pin", "no_fork", "daemonic"])
    def test_one_process_when(self, four_cpus, monkeypatch, owner, name, value):
        monkeypatch.setattr(owner, name, value)
        assert tft._scout_processes(3) == 1

    def test_one_process_beside_another_thread(self, four_cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert tft._scout_processes(3) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestBlasPin:
    @pytest.fixture
    def threads(self):
        """The OpenBLAS thread count reader, with the count set to 2."""
        found = tft._blas_threads()
        if found is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, set_threads = found
        before = get()
        set_threads(2)
        yield get
        set_threads(before)

    def test_raced_scouts_run_on_one_thread(self, threads, monkeypatch, tmp_path):
        """Each scout reads one thread, in this process and in the worker;
        the winner goes on at the caller's count."""
        real = tft.train

        def record(model, windows, on_epoch=None):
            (tmp_path / str(model.config.seed)).write_text(str(threads()))
            return real(model, windows, on_epoch)

        seen = []
        race_two(monkeypatch, {5: record, 106: record}, on_epoch=lambda *a: seen.append(threads()))
        assert [(tmp_path / seed).read_text() for seed in ("5", "106")] == ["1", "1"]
        assert seen == [2, 2]
        assert threads() == 2

    def test_plain_training_runs_on_the_callers_count(self, threads):
        seen = []
        train(small_model(replace(SMALL, max_epochs=2)), sine_windows(n=120),
              on_epoch=lambda *args: seen.append(threads()))
        assert seen == [2, 2]

    def test_count_is_restored_when_a_raced_scout_raises(self, threads, monkeypatch):
        seen = []

        def stop(model, windows, on_epoch=None):
            seen.append(threads())
            raise ValueError("stop")

        with pytest.raises(ValueError, match="stop"):
            race_two(monkeypatch, {5: stop, 106: quick_scout})
        assert seen == [1]
        assert threads() == 2


def assert_trains_like_the_chain(monkeypatch, tmp_path, owner, name, composed, seed):
    """Train 2 epochs as the code stands, then with ``composed`` patched in
    as ``owner.name``: the checkpoints must be the same bytes, so the
    fused code keeps the chain's order of gradient accumulations across
    the whole graph."""
    config = replace(SMALL, max_epochs=2, seed=seed)
    windows = sine_windows(n=200)
    fused = small_model(config)
    train(fused, windows)
    save_checkpoint(fused, tmp_path / "fused.json")
    monkeypatch.setattr(owner, name, composed)
    chain = small_model(config)
    train(chain, windows)
    save_checkpoint(chain, tmp_path / "chain.json")
    assert (tmp_path / "fused.json").read_bytes() == (tmp_path / "chain.json").read_bytes()


def test_fused_grn_trains_like_the_composed_chain(monkeypatch, tmp_path):
    from test_nn import composed_grn

    assert_trains_like_the_chain(monkeypatch, tmp_path, nn.Grn, "__call__", composed_grn, seed=4)


def test_fused_gate_add_norm_trains_like_the_composed_chain(monkeypatch, tmp_path):
    from test_nn import composed_gate_add_norm

    assert_trains_like_the_chain(monkeypatch, tmp_path, nn.GateAddNorm, "__call__",
                                 composed_gate_add_norm, seed=5)


def chain_vsn(model, flat, embeds, select, feature_grns, training, rng):
    """``TemporalFusionTransformer._vsn`` with the combine as the chain of
    a softmax node and per-feature narrow, mul and add nodes."""
    from test_nn import chain_select_combine

    embedded = [embed(flat[:, i : i + 1]) for i, embed in enumerate(embeds)]
    logits = select(ad.concat(embedded, axis=1), training=training, rng=rng)
    outputs = [grn(x, training=training, rng=rng) for grn, x in zip(feature_grns, embedded)]
    return chain_select_combine(logits, outputs)


def test_fused_selection_trains_like_the_chain(monkeypatch, tmp_path):
    assert_trains_like_the_chain(monkeypatch, tmp_path, TemporalFusionTransformer, "_vsn",
                                 chain_vsn, seed=7)


class TestVariableSelection:
    @staticmethod
    def build(seed, rows, n_features, h=8):
        from test_nn import perturb

        rng = np.random.default_rng(seed)
        store = nn.ParamStore(seed=seed)
        embeds = [nn.Linear(store, f"embed.{i}", 1, h) for i in range(n_features)]
        select = nn.Grn(store, "select", n_features * h, n_features, hidden=h, dropout=0.3)
        grns = [nn.Grn(store, f"feat.{i}", h, h, dropout=0.3) for i in range(n_features)]
        perturb(store, rng)
        flat = rng.normal(0, 1, (rows, n_features))
        probe = rng.normal(0, 1, (rows, h))
        return store, embeds, select, grns, flat, probe

    @pytest.mark.parametrize("rows", [7, 512, 12_800])
    @pytest.mark.parametrize("n_features", [1, 7, 8, 9])  # 8 and 9: either side of _sum_rows' gate
    def test_matches_the_chain(self, rows, n_features):
        store, embeds, select, grns, flat, probe = self.build(n_features, rows, n_features)
        wrt = list(store.tensors().values())
        results = []
        for run in (TemporalFusionTransformer._vsn, chain_vsn):
            for t in wrt:
                t.zero_grad()
            draws = np.random.default_rng(rows)
            out, weights = run(None, flat, embeds, select, grns, True, draws)
            total(ad.mul(out, probe)).backward()
            results.append((out.values, weights, [t.grad for t in wrt], draws.random(4)))
        (fused, fused_w, fused_grads, fused_next), (ref, ref_w, ref_grads, ref_next) = results
        assert fused.tobytes() == ref.tobytes()
        assert fused_w.tobytes() == ref_w.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(fused_next, ref_next)  # same random stream after the call

    def test_is_one_node_over_the_parameters(self):
        store, embeds, select, grns, flat, _ = self.build(20, 16, 3)
        out, weights = ad.variable_selection(flat, embeds, select, grns, np.random.default_rng(0),
                                             training=True)
        assert weights.shape == (16, 3) and out.values.shape == (16, 8)
        assert all(parent._backward is None for parent in out._parents)
        assert [id(t) for t in out._parents] == [id(t) for t in store.tensors().values()]

    def test_feature_grns_read_views_of_the_selector_input(self, monkeypatch):
        store, embeds, select, grns, flat, _ = self.build(21, 16, 3)
        inputs = []
        body = ad._gated_residual

        def record(xv, *args):
            inputs.append(xv)
            return body(xv, *args)

        monkeypatch.setattr(ad, "_gated_residual", record)
        ad.variable_selection(flat, embeds, select, grns)
        selector_input, *feature_inputs = inputs
        assert selector_input.shape == (16, 24)
        assert len(feature_inputs) == 3
        for i, x in enumerate(feature_inputs):
            assert x.shape == (16, 8) and np.shares_memory(x, selector_input)
            np.testing.assert_array_equal(x, selector_input[:, 8 * i : 8 * (i + 1)])


@pytest.mark.parametrize("encoder_length,decoder_length", [(64, 16), (400, 50)])
def test_batch_graph_census(encoder_length, decoder_length):
    """A training batch of the demo's 6 covariates builds 265 graph nodes,
    parameters included, at either window shape: each variable selection
    is one node, and so is the LSTM."""
    config = replace(SMALL, encoder_length=encoder_length, decoder_length=decoder_length)
    covariates = [f"c{i}" for i in range(6)]
    model = TemporalFusionTransformer(config, covariates + ["target"], covariates)
    rng = np.random.default_rng(0)
    out = model.forward(rng.random((2, encoder_length, 7)), rng.random((2, decoder_length, 6)),
                        training=True, rng=rng)
    seen, stack = {}, [out["quantiles"]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    assert len(seen) == 265
    leaves = [node for node in seen.values() if node._backward is None]
    assert len(leaves) == len(model.store.tensors())


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_training_batch_gives_every_parameter_a_gradient(heads, dropout):
    """``nn.Adam`` steps every parameter, so one training batch's
    backward pass must reach each of them."""
    config = replace(SMALL, attention_heads=heads, dropout=dropout)
    model = small_model(config)
    windows = sine_windows(n=200)
    model.feature_scaling = fit_feature_scaling(windows)
    batch = prepare_batch(windows[: config.batch_size], config, model.feature_scaling)
    model.store.zero_grad()
    out = model.forward(batch.enc, batch.dec, training=True, rng=np.random.default_rng(0))
    _, grad = tft._batch_loss(config.quantiles, out["quantiles"].values, batch.labels)
    out["quantiles"].backward(grad)
    assert [name for name, t in model.store.tensors().items() if t.grad is None] == []


def test_fused_attention_trains_like_the_chain(monkeypatch, tmp_path):
    from test_nn import composed_attention

    assert_trains_like_the_chain(monkeypatch, tmp_path, nn.InterpretableAttention, "__call__",
                                 composed_attention, seed=8)


def chain_loss(quantiles, pred, labels):
    """``tft._batch_loss`` as the chain of per-op nodes, on a leaf that
    stands for the quantile output: the gradient is what the chain
    delivers to that output."""
    leaf = nn.Tensor(pred)
    loss = chain_batch_loss(quantiles, leaf, labels)
    loss.backward()
    return float(loss.values), leaf.grad


@pytest.mark.parametrize("quantiles", [(0.5,), (0.1, 0.5, 0.9), (0.05, 0.25, 0.5, 0.75, 0.95)])
def test_batch_loss_equals_the_chain_bit_for_bit(quantiles):
    rng = np.random.default_rng(len(quantiles))
    pred = rng.normal(0, 1, (6, 8, len(quantiles)))
    labels = rng.normal(0, 1, (6, 8))
    for qi in range(len(quantiles)):
        labels[:, qi] = pred[:, qi, qi]  # err == 0, where both branches of the max tie
    value, grad = tft._batch_loss(quantiles, pred, labels)
    want_value, want_grad = chain_loss(quantiles, pred, labels)
    assert value == want_value
    assert grad.tobytes() == want_grad.tobytes()


def test_numpy_loss_trains_like_the_chain(monkeypatch, tmp_path):
    assert_trains_like_the_chain(monkeypatch, tmp_path, tft, "_batch_loss", chain_loss, seed=6)


def concatenated_scaling(windows):
    """The reference for ``fit_feature_scaling``: min and max over one copy
    of every window's feature values."""
    names = windows[0].decoder.feature_names
    stacked = np.concatenate(
        [np.concatenate([w.encoder.values[:, : len(names)], w.decoder.values]) for w in windows]
    )
    lo = stacked.min(axis=0)
    rng = stacked.max(axis=0) - lo + tft.RANGE_FLOOR
    return {n: (float(l), float(r)) for n, l, r in zip(names, lo, rng)}


@pytest.mark.parametrize("pick", ["contiguous", "shuffled"])
def test_scaling_fit_per_window_equals_the_concatenation(pick):
    rng = np.random.default_rng(17)
    n = 300
    ds = TraceDataset(time_index=np.arange(n), series=(
        MetricSeries("cps.green", rng.normal(30, 5, n)),
        MetricSeries("cpu.cart", rng.uniform(0.5, 2.0, n)),
        MetricSeries("latency_p95.green", rng.uniform(40, 90, n)),
    ))
    windows = make_windows(ds, WindowSpec(SMALL.encoder_length, SMALL.decoder_length), "green")
    if pick == "contiguous":
        chosen = windows[40:170]
    else:
        chosen = [windows[i] for i in rng.permutation(len(windows))[:50]]
    assert fit_feature_scaling(chosen) == concatenated_scaling(chosen)


def test_batch_prepared_alone_equals_rows_of_the_whole_set():
    windows = sine_windows(n=300)
    scaling = fit_feature_scaling(windows)
    whole = prepare_batch(windows, SMALL, scaling)
    idx = np.random.default_rng(0).permutation(len(windows))[:SMALL.batch_size]
    part = prepare_batch([windows[i] for i in idx], SMALL, scaling)
    for name in ("enc", "dec", "labels", "target_lo", "target_range"):
        np.testing.assert_array_equal(getattr(part, name), getattr(whole, name)[idx])


class TestPredict:
    def test_constant_series_roundtrip(self):
        n = 200
        t = np.arange(n)
        ds = TraceDataset(
            time_index=t,
            series=(
                MetricSeries("cps.green", 10 + np.sin(t / 9.0)),
                MetricSeries("latency_p95.green", np.full(n, 75.0)),
            ),
        )
        cfg = TftConfig(encoder_length=64, decoder_length=16, max_epochs=2, seed=2)
        model = TemporalFusionTransformer(cfg, ["cps.green", "latency_p95.green"], ["cps.green"])
        windows = make_windows(ds, WindowSpec(64, 16), "green")
        train(model, windows)
        forecast = predict(model, windows[-1])
        np.testing.assert_allclose(forecast.median, 75.0, rtol=0.05)

    def test_quantiles_sorted_per_step(self, trained_sine):
        model, _, windows = trained_sine
        for f in predict_many(model, windows[-20:]):
            assert np.all(np.diff(f.values, axis=1) >= 0)

    def test_window_length_mismatch(self, trained_sine):
        model, _, _ = trained_sine
        bad = make_windows(sine_dataset(300), WindowSpec(32, 8), "green")
        with pytest.raises(ValueError, match="do not match"):
            predict(model, bad[0])

    @pytest.mark.parametrize("features", [["pods.cart", "cps.green"], ["cps.green"]],
                             ids=["reordered", "fewer"])
    def test_windows_cut_for_other_features(self, trained_sine, features):
        model, _, _ = trained_sine
        other = make_windows(sine_dataset(200), WindowSpec(64, 16), "green", features)
        named = (f"encoder and decoder features {(*features, 'latency_p95.green'), tuple(features)}, "
                 f"but the model reads {model.encoder_features, model.decoder_features}")
        for run in (train, evaluate_loss, predict_many):
            with pytest.raises(ValueError, match=re.escape(named)):
                run(model, other)
        for run in (predict, interpret):
            with pytest.raises(ValueError, match=re.escape(named)):
                run(model, other[0])

    def test_forecast_type_validates(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            QuantileForecast((0.1, 0.5, 0.9), np.array([[3.0, 2.0, 1.0]]))


class TestInterpret:
    def test_weights_are_distributions(self, trained_sine):
        model, _, windows = trained_sine
        imp = interpret(model, windows[-1])
        np.testing.assert_allclose(imp.encoder_variable_importance.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(imp.decoder_variable_importance.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(imp.attention_profile.sum(axis=1), 1.0, atol=1e-6)

    def test_single_feature_gets_all_weight(self):
        n = 160
        t = np.arange(n)
        ds = TraceDataset(
            time_index=t,
            series=(
                MetricSeries("cps.green", 5 + np.cos(t / 7.0)),
                MetricSeries("latency_p95.green", 50 + 10 * np.sin(t / 11.0)),
            ),
        )
        cfg = TftConfig(encoder_length=64, decoder_length=16, max_epochs=1, seed=4)
        model = TemporalFusionTransformer(cfg, ["cps.green", "latency_p95.green"], ["cps.green"])
        windows = make_windows(ds, WindowSpec(64, 16), "green")
        train(model, windows)
        imp = interpret(model, windows[0])
        np.testing.assert_allclose(imp.decoder_variable_importance, 1.0, atol=1e-12)
        assert imp.decoder_variable_importance.mean(axis=0).tolist() == [1.0]

    def test_importance_series_validates(self):
        with pytest.raises(ValueError, match="sum to one"):
            ImportanceSeries(
                ("a",), ("a",),
                encoder_variable_importance=np.array([[0.5]]),
                decoder_variable_importance=np.array([[1.0]]),
                attention_profile=np.array([[1.0]]),
            )


class TestInferenceMemo:
    """``interpret`` after ``predict`` on the same window reuses the one
    forward pass, keyed by the bytes of the inputs and of every weight."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """A scaled, untrained model, its windows and its forward-call count."""
        windows = sine_windows(200)
        model = small_model()
        model.feature_scaling = fit_feature_scaling(windows)
        calls = []
        forward = TemporalFusionTransformer.forward

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TemporalFusionTransformer, "forward", counting)
        return model, windows, calls

    @staticmethod
    def cold(model, window):
        """``predict`` and ``interpret`` with no memo, as bytes."""
        model._last_inference = None
        values = predict(model, window).values.tobytes()
        model._last_inference = None
        return values, importance_bytes(interpret(model, window))

    def test_interpret_after_predict_runs_one_forward(self, counted):
        model, windows, calls = counted
        forecast = predict(model, windows[-1])
        imp = interpret(model, windows[-1])
        assert calls == [1]
        assert (forecast.values.tobytes(), importance_bytes(imp)) == self.cold(model, windows[-1])

    def test_batches_of_several_windows_are_not_kept(self, counted):
        model, windows, calls = counted
        predict_many(model, windows[:3])
        assert model._last_inference is None
        predict_many(model, windows[:3])
        assert calls == [3, 3]

    def test_weight_write_other_inputs_and_scaling_each_recompute(self, counted):
        model, windows, calls = counted
        window = windows[-1]
        before = importance_bytes(interpret(model, window))
        model.store.tensors()["vsn.dec.select.skip.w"].values[0, 0] += 0.5  # in place
        after = importance_bytes(interpret(model, window))
        assert len(calls) == 2 and after != before
        assert after == self.cold(model, window)[1]

        history = replace(window, encoder=replace(window.encoder,
                                                  values=window.encoder.values[::-1]))
        future = replace(window, decoder=replace(window.decoder,
                                                 values=window.decoder.values[::-1]))
        for other in (windows[-2], history, future):  # each differs in the encoder, decoder or both
            calls.clear()
            forecast = predict(model, other)
            assert calls == [1] and forecast.values.tobytes() == self.cold(model, other)[0]

        calls.clear()
        predict(model, window)
        model.feature_scaling = {name: (lo - 1.0, span)
                                 for name, (lo, span) in model.feature_scaling.items()}
        rescaled = interpret(model, window)
        assert calls == [1, 1]
        assert importance_bytes(rescaled) == self.cold(model, window)[1]

    def test_writing_into_results_changes_no_later_result(self, counted):
        model, windows, _ = counted
        window = windows[-1]
        forecast, imp = predict(model, window), interpret(model, window)
        want = (forecast.values.tobytes(), importance_bytes(imp))
        forecast.values[:] = -1.0
        for array in (imp.encoder_variable_importance, imp.decoder_variable_importance,
                      imp.attention_profile):
            array[:] = -1.0
        assert (predict(model, window).values.tobytes(),
                importance_bytes(interpret(model, window))) == want

    def test_memo_holds_plain_arrays_and_no_graph(self, counted):
        model, windows, _ = counted
        predict(model, windows[-1])
        key, outputs = model._last_inference
        assert isinstance(key, bytes)
        assert set(outputs) == {"quantiles", "encoder_weights", "decoder_weights", "attention"}
        assert not any(values.flags.writeable for values in outputs.values())
        seen, stack = set(), [model._last_inference]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (ad.Tensor, types.FunctionType)), type(obj)
            if isinstance(obj, np.ndarray) and obj.base is not None:
                stack.append(obj.base)
            stack.extend(gc.get_referents(obj))


def importance_bytes(imp: ImportanceSeries) -> bytes:
    return b"".join(a.tobytes() for a in (imp.encoder_variable_importance,
                                          imp.decoder_variable_importance, imp.attention_profile))


class TestEvaluate:
    def test_perfect_fit(self):
        out = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out == {"rmse": 0.0, "r2": 1.0}

    def test_mean_forecast_scores_zero(self):
        out = evaluate([1.0, 1.0], [0.0, 2.0])
        assert out["rmse"] == pytest.approx(1.0)
        assert out["r2"] == pytest.approx(0.0)

    def test_constant_forecast_off_mean(self):
        out = evaluate([2.0, 2.0], [0.0, 2.0])
        assert out["rmse"] == pytest.approx(np.sqrt(2.0))
        assert out["r2"] == pytest.approx(-1.0)

    def test_zero_variance_actuals(self):
        with pytest.raises(ValueError, match="zero variance"):
            evaluate([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("quantiles", [(0.1, 0.5, 0.9), (0.2, 0.5, 0.8), (0.25, 0.5)])
    def test_band_coverage_spans_outer_quantiles(self, quantiles):
        inner = [15.0] * (len(quantiles) - 2)
        values = np.array([[10.0, *inner, 20.0]] * 3)  # the band is [10, 20] at every step
        window = SimpleNamespace(future_target=np.array([9.0, 15.0, 20.0]))
        forecast = QuantileForecast(quantiles, values)
        assert band_coverage([forecast, forecast], [window, window]) == pytest.approx(2 / 3)


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, trained_sine, tmp_path):
        model, _, windows = trained_sine
        save_checkpoint(model, tmp_path / "model.json")
        restored = load_checkpoint(tmp_path / "model.json")
        a = predict(model, windows[-1])
        b = predict(restored, windows[-1])
        np.testing.assert_array_equal(a.values, b.values)
        assert restored.encoder_features == model.encoder_features

    def test_checkpoint_is_versioned(self, trained_sine, tmp_path):
        model, _, _ = trained_sine
        save_checkpoint(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["format_version"] == tft.FORMAT_VERSION == 2
        assert all(set(entry) == {"shape", "values"} for entry in doc["params"].values())

    def test_bytes_are_those_of_the_json_round_trip(self, trained_sine, tmp_path):
        model, _, _ = trained_sine
        save_checkpoint(model, tmp_path / "model.json")
        doc = {
            "format_version": tft.FORMAT_VERSION,
            "config": json.loads(json.dumps(asdict(model.config))),
            "encoder_features": list(model.encoder_features),
            "decoder_features": list(model.decoder_features),
            "feature_scaling": model.feature_scaling,
            "params": json.loads(model.store.to_json()),
        }
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(doc, fh)
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @staticmethod
    def load_edited(model, tmp_path, edit):
        save_checkpoint(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        edit(doc)
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        return load_checkpoint(tmp_path / "edited.json")

    def test_inner_format_version_checked(self, trained_sine, tmp_path):
        """A version inside ``params``, where format 1 kept its second copy,
        is not a parameter."""
        with pytest.raises(ValueError, match="^params 'format_version': expected an object, got 2$"):
            self.load_edited(trained_sine[0], tmp_path,
                             lambda d: d["params"].update(format_version=2))

    def test_format_1_is_refused_by_its_version(self, trained_sine, tmp_path):
        """A checkpoint in format 1's layout: the version is read first."""
        def to_format_1(doc):
            doc.update(format_version=1, params={"format_version": 1, "params": doc["params"]})
            doc["config"]["include_relative_time"] = False

        with pytest.raises(ValueError, match="^format_version: unsupported checkpoint format 1$"):
            self.load_edited(trained_sine[0], tmp_path, to_format_1)

    def test_older_checkpoint_relative_time_key(self, trained_sine, tmp_path):
        """Format 1's removed ``include_relative_time`` setting is an unknown key."""
        for value in (False, True):
            with pytest.raises(ValueError, match="^config: unknown key.s. 'include_relative_time'$"):
                self.load_edited(trained_sine[0], tmp_path,
                                 lambda d: d["config"].update(include_relative_time=value))

    def test_params_read_what_save_writes(self, trained_sine, tmp_path):
        model, _, _ = trained_sine
        restored = self.load_edited(model, tmp_path, lambda d: None)
        for name, t in model.store.tensors().items():
            assert restored.store.tensors()[name].values.tobytes() == t.values.tobytes()
        assert restored.feature_scaling == model.feature_scaling
        with pytest.raises(ValueError, match=re.escape("params: parameter 'head.q0.w': shape (4, 1)")):
            self.load_edited(model, tmp_path, lambda d: d["params"].update(
                {"head.q0.w": {"shape": [4, 1], "values": [0.0] * 4}}))

    @pytest.mark.parametrize("edit, says", [
        (lambda d: d["params"]["head.q0.w"]["values"].__setitem__(2, float("inf")),
         "params 'head.q0.w' values 2: inf is not a finite number"),
        (lambda d: d["params"]["head.q0.w"]["values"].__setitem__(2, "0.5"),
         "params 'head.q0.w' values 2: expected a number, got \"0.5\""),
        (lambda d: d["params"]["head.q0.w"]["values"].__setitem__(2, True),
         "params 'head.q0.w' values 2: expected a number, got true"),
        (lambda d: d["params"]["head.q0.w"].pop("shape"), "params 'head.q0.w': missing key(s) 'shape'"),
        (lambda d: d["params"]["head.q0.w"]["values"].pop(),
         "params 'head.q0.w': shape [8, 1] does not hold 7 values"),
        (lambda d: d["params"]["head.q0.w"].update(shape=[-8, -1]),
         "params 'head.q0.w': shape [-8, -1] does not hold 8 values"),
        (lambda d: d.update(params=[]), "params: expected an object, got []"),
        (lambda d: d.pop("params"), "missing key(s) 'params'"),
        (lambda d: d["params"].pop("head.q0.w"), "params: missing parameters in state dict"),
        (lambda d: d.update(format_version=True), "format_version: expected an integer, got true"),
    ], ids=["inf", "string", "boolean", "no-shape", "short", "negative-shape", "not-an-object",
            "no-params", "missing-parameter", "boolean-version"])
    def test_params_refuse_malformed_values(self, trained_sine, tmp_path, edit, says):
        with pytest.raises(ValueError) as exc:
            self.load_edited(trained_sine[0], tmp_path, edit)
        assert str(exc.value).startswith(says)


class TestDecoderUsage:
    def test_zeroing_decoder_inputs_changes_predictions(self, trained_sine):
        model, _, windows = trained_sine
        from latscale.tft import prepare_batch

        batch = prepare_batch(windows[-2:], model.config, model.feature_scaling)
        normal = model.forward(batch.enc, batch.dec)["quantiles"].values
        blanked = model.forward(batch.enc, np.zeros_like(batch.dec))["quantiles"].values
        assert np.max(np.abs(normal - blanked)) > 1e-6


class TestBaselines:
    def test_model_beats_persistence_on_covariate_driven_series(self, trained_sine):
        model, report, windows = trained_sine
        held_out = windows[report.n_train_windows :]
        model_r2 = pooled_forecast_metrics(predict_many(model, held_out), held_out)["r2"]
        persistence_r2 = persistence_metrics(held_out)["r2"]
        assert model_r2 > persistence_r2
        assert model_r2 > 0.8
