"""Temporal fusion forecaster for per-trace p95 latency.

Pipeline: per-feature embeddings -> variable selection -> LSTM
encoder/decoder -> gated skip -> enrichment GRN -> interpretable
attention over all positions (causal) -> final GRN -> one linear head
per quantile.  Encoder sequences are min-max scaled per window and
predictions are mapped back to milliseconds with the recorded state.
The variable-selection softmax weights and the head-averaged attention
weights are exported as importance scores.
"""
from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
import hashlib
import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import nn
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .trace_data import Window

# Normalization constants.  EPSILON shifts normalized values away from
# zero; RANGE_FLOOR guards constant series against division by zero.
EPSILON = 0.01
RANGE_FLOOR = 1e-8


@dataclass(frozen=True)
class TftConfig:
    hidden_size: int = 8
    attention_heads: int = 1
    dropout: float = 0.1
    learning_rate: float = 0.03
    batch_size: int = 32
    max_epochs: int = 20
    encoder_length: int = 400
    decoder_length: int = 50
    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9)
    early_stopping_patience: int = 5
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.hidden_size,
            self.attention_heads,
            self.batch_size,
            self.max_epochs,
            self.encoder_length,
            self.decoder_length,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all size and count settings must be positive")
        qs = tuple(self.quantiles)
        if not qs or any(not 0 < q < 1 for q in qs) or any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError("quantiles must be strictly increasing within (0, 1)")
        if 0.5 not in qs:
            raise ValueError("quantiles must include the median 0.5, which violation checks read")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning rate must be finite and positive")
        if self.early_stopping_patience < 0:
            raise ValueError("early stopping patience must be >= 0")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation fraction must be in (0, 1)")


@dataclass
class QuantileForecast:
    """Latency forecast per horizon step and quantile, in milliseconds."""

    quantiles: tuple[float, ...]
    values: np.ndarray  # (horizon, len(quantiles)), non-decreasing per row
    window_start: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.quantiles):
            raise ValueError("forecast values must be (horizon, n_quantiles)")
        if np.any(np.diff(self.values, axis=1) < -1e-9):
            raise ValueError("quantile values must be non-decreasing per step")

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    @property
    def median(self) -> np.ndarray:
        idx = int(np.argmin(np.abs(np.asarray(self.quantiles) - 0.5)))
        return self.values[:, idx]

    def band(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
        qs = list(self.quantiles)
        return self.values[:, qs.index(low)], self.values[:, qs.index(high)]


@dataclass
class ImportanceSeries:
    """Per-step feature weights from variable selection plus the
    head-averaged attention profile of the decoder."""

    encoder_features: tuple[str, ...]
    decoder_features: tuple[str, ...]
    encoder_variable_importance: np.ndarray  # (encoder_steps, n_enc)
    decoder_variable_importance: np.ndarray  # (decoder_steps, n_dec)
    attention_profile: np.ndarray  # (decoder_steps, encoder_steps + decoder_steps)

    def __post_init__(self):
        for name, arr in (
            ("encoder", self.encoder_variable_importance),
            ("decoder", self.decoder_variable_importance),
            ("attention", self.attention_profile),
        ):
            if np.any(arr < -1e-12):
                raise ValueError(f"{name} weights must be non-negative")
            if np.max(np.abs(arr.sum(axis=1) - 1.0)) > 1e-6:
                raise ValueError(f"{name} weight rows must sum to one")


class TemporalFusionTransformer:
    """The assembled model; one instance forecasts one target trace."""

    def __init__(self, config: TftConfig, encoder_features: Sequence[str],
                 decoder_features: Sequence[str]):
        if len(encoder_features) < 1 or len(decoder_features) < 1:
            raise ValueError("need at least one encoder and one decoder feature")
        self.config = config
        self.encoder_features = tuple(encoder_features)  # includes the target, last
        self.decoder_features = tuple(decoder_features)
        h = config.hidden_size
        n_enc, n_dec = len(self.encoder_features), len(self.decoder_features)
        store = nn.ParamStore(seed=config.seed)
        self.store = store

        self.enc_embed = [nn.Linear(store, f"embed.enc.{i}", 1, h) for i in range(n_enc)]
        self.dec_embed = [nn.Linear(store, f"embed.dec.{i}", 1, h) for i in range(n_dec)]
        self.enc_select = nn.Grn(store, "vsn.enc.select", n_enc * h, n_enc,
                                 hidden=h, dropout=config.dropout)
        self.dec_select = nn.Grn(store, "vsn.dec.select", n_dec * h, n_dec,
                                 hidden=h, dropout=config.dropout)
        self.enc_feature_grns = [
            nn.Grn(store, f"vsn.enc.feat.{i}", h, h, dropout=config.dropout) for i in range(n_enc)
        ]
        self.dec_feature_grns = [
            nn.Grn(store, f"vsn.dec.feat.{i}", h, h, dropout=config.dropout) for i in range(n_dec)
        ]
        self.lstm_encoder = nn.LstmCell(store, "lstm.encoder", h, h)
        self.lstm_decoder = nn.LstmCell(store, "lstm.decoder", h, h)
        self.post_lstm = nn.GateAddNorm(store, "post_lstm", h, dropout=config.dropout)
        self.enrichment = nn.Grn(store, "enrichment", h, h, dropout=config.dropout)
        self.attention = nn.InterpretableAttention(
            store, "attention", h, config.attention_heads, dropout=config.dropout
        )
        self.post_attention = nn.GateAddNorm(store, "post_attention", h, dropout=config.dropout)
        self.final_grn = nn.Grn(store, "final", h, h, dropout=config.dropout)
        self.heads = [
            nn.Linear(store, f"head.q{i}", h, 1) for i in range(len(config.quantiles))
        ]
        self.feature_scaling: "FeatureScaling | None" = None  # set by train()
        self._run: "_Run | None" = None  # the last training run's end state, set by train()
        # (digest, outputs) of the last one-window inference, set by _infer()
        self._last_inference: "tuple[bytes, dict[str, np.ndarray]] | None" = None

    def parameter_count(self) -> int:
        return self.store.parameter_count()

    def _vsn(self, flat: np.ndarray, embeds, select, feature_grns, training, rng):
        return ad.variable_selection(flat, embeds, select, feature_grns, rng, training)

    def forward(self, enc: np.ndarray, dec: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> dict[str, Tensor]:
        """enc is (batch, k, n_enc) and dec is (batch, tau, n_dec), both
        already normalized; returns quantile outputs plus the
        interpretation weights."""
        cfg = self.config
        b, k, n_enc = enc.shape
        _, tau, n_dec = dec.shape
        if n_enc != len(self.encoder_features) or n_dec != len(self.decoder_features):
            raise ValueError("feature dimensions do not match the model")
        h = cfg.hidden_size

        enc_vsn, enc_w = self._vsn(
            enc.reshape(b * k, n_enc), self.enc_embed, self.enc_select,
            self.enc_feature_grns, training, rng,
        )
        dec_vsn, dec_w = self._vsn(
            dec.reshape(b * tau, n_dec), self.dec_embed, self.dec_select,
            self.dec_feature_grns, training, rng,
        )
        vsn_seq = ad.concat(
            [ad.reshape(enc_vsn, (b, k, h)), ad.reshape(dec_vsn, (b, tau, h))], axis=1
        )
        lstm_seq = ad.lstm_sequence(vsn_seq, [
            (self.lstm_encoder.wx, self.lstm_encoder.wh, self.lstm_encoder.b, k),
            (self.lstm_decoder.wx, self.lstm_decoder.wh, self.lstm_decoder.b, tau),
        ])
        lstm_flat = ad.reshape(lstm_seq, (b * (k + tau), h))
        vsn_flat = ad.reshape(vsn_seq, (b * (k + tau), h))

        skip = self.post_lstm(lstm_flat, vsn_flat, training=training, rng=rng)
        enriched = self.enrichment(skip, training=training, rng=rng)
        enriched_seq = ad.reshape(enriched, (b, k + tau, h))
        queries = ad.narrow(enriched_seq, 1, k, tau)
        attended, attn_w = self.attention(
            queries, enriched_seq, mask=nn.causal_mask(tau, k + tau, offset=k),
            training=training, rng=rng,
        )
        gated = self.post_attention(
            ad.reshape(attended, (b * tau, h)), ad.reshape(queries, (b * tau, h)),
            training=training, rng=rng,
        )
        final = self.final_grn(gated, training=training, rng=rng)
        outputs = ad.concat([head(final) for head in self.heads], axis=1)
        return {
            "quantiles": ad.reshape(outputs, (b, tau, len(cfg.quantiles))),
            "encoder_weights": Tensor(enc_w.reshape(b, k, n_enc)),
            "decoder_weights": Tensor(dec_w.reshape(b, tau, n_dec)),
            "attention": attn_w,
        }


# ---------------------------------------------------------------------------
# Window batching and normalization


@dataclass
class FeatureScaling:
    """Dataset-level min-max parameters for the covariate columns.

    The target is scaled per encoder window (so predictions invert
    exactly), but covariates need one consistent scale across windows:
    a series that happens to be flat inside one encoder window would
    otherwise blow up its future values by 1/range_floor.
    """

    params: dict[str, tuple[float, float]]  # name -> (lo, range)

    def transform(self, values: np.ndarray, names: Sequence[str]) -> np.ndarray:
        lo = np.array([self.params[n][0] for n in names])
        rng = np.array([self.params[n][1] for n in names])
        return (values - lo) / rng + EPSILON

    def to_dict(self) -> dict:
        return {name: [lo, rng] for name, (lo, rng) in self.params.items()}

    @classmethod
    def from_dict(cls, doc: dict, names: Sequence[str]) -> "FeatureScaling":
        """Read ``to_dict`` output, which must cover exactly ``names``
        with finite lo and finite range > 0."""
        if set(doc) != set(names):
            raise ValueError(
                f"feature scaling covers {sorted(doc)}, expected the features {sorted(names)}"
            )
        params = {name: (float(lo), float(rng)) for name, (lo, rng) in doc.items()}
        for name, (lo, rng) in params.items():
            if not (np.isfinite(lo) and np.isfinite(rng) and rng > 0):
                raise ValueError(f"feature scaling of {name!r}: need finite lo and range > 0")
        return cls(params=params)


def fit_feature_scaling(windows: Sequence[Window]) -> FeatureScaling:
    """Per-feature min-max over all encoder and decoder values of the
    given (training) windows, taken per window in place: the windows
    are views, and min and max are exact, so no copy of them is needed."""
    names = windows[0].decoder.feature_names
    width = len(names)
    lo = np.min([np.minimum(w.encoder.values[:, :width].min(axis=0), w.decoder.values.min(axis=0))
                 for w in windows], axis=0)
    hi = np.max([np.maximum(w.encoder.values[:, :width].max(axis=0), w.decoder.values.max(axis=0))
                 for w in windows], axis=0)
    rng = hi - lo + RANGE_FLOOR
    return FeatureScaling(params={n: (float(l), float(r)) for n, l, r in zip(names, lo, rng)})


@dataclass
class PreparedBatch:
    enc: np.ndarray  # normalized (B, k, n_enc)
    dec: np.ndarray  # normalized (B, tau, n_dec)
    labels: np.ndarray  # normalized future target (B, tau)
    target_lo: np.ndarray  # (B,)
    target_range: np.ndarray  # (B,)
    starts: list[int]


def prepare_batch(windows: Sequence[Window], config: TftConfig,
                  scaling: FeatureScaling) -> PreparedBatch:
    """Stack windows into model inputs.

    Covariates are scaled with the dataset-level parameters; the target
    column and the labels are scaled per window by the encoder's
    statistics, which are kept for exact inversion of predictions.
    """
    k, tau = config.encoder_length, config.decoder_length
    enc_raw = np.stack([w.encoder.values for w in windows])
    dec_raw = np.stack([w.decoder.values for w in windows])
    labels_raw = np.stack([w.future_target for w in windows])
    if enc_raw.shape[1] != k or dec_raw.shape[1] != tau:
        raise ValueError(
            f"window lengths ({enc_raw.shape[1]}, {dec_raw.shape[1]}) do not match "
            f"the configured ({k}, {tau})"
        )
    names = windows[0].decoder.feature_names

    target_raw = enc_raw[:, :, -1]
    target_lo = target_raw.min(axis=1)
    target_range = target_raw.max(axis=1) - target_lo + RANGE_FLOOR
    target = (target_raw - target_lo[:, None]) / target_range[:, None] + EPSILON
    labels = (labels_raw - target_lo[:, None]) / target_range[:, None] + EPSILON

    enc_features = scaling.transform(enc_raw[:, :, :-1], names)
    dec = scaling.transform(dec_raw, names)
    enc = np.concatenate([enc_features, target[:, :, None]], axis=2)
    return PreparedBatch(
        enc=enc, dec=dec, labels=labels,
        target_lo=target_lo, target_range=target_range,
        starts=[w.start for w in windows],
    )


def denormalize_target(values: np.ndarray, lo: float | np.ndarray, rng: float | np.ndarray) -> np.ndarray:
    return (values - EPSILON) * rng + lo


def _batch_loss(quantiles: Sequence[float], pred: np.ndarray,
                labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over windows of the pinball loss summed over quantiles and
    horizon steps, and its gradient with respect to ``pred`` (B, tau, Q).

    The pinball loss of a residual e = y - yhat is max(q e, (q - 1) e).
    """
    scale = 1.0 / pred.shape[0]
    loss = 0.0
    grad = np.empty_like(pred)
    for qi, q in enumerate(quantiles):
        err = labels - pred[:, :, qi]
        over, under = err * q, err * (q - 1.0)
        loss = loss + np.maximum(over, under).sum()
        grad[:, :, qi] = -np.where(over >= under, scale * q, scale * (q - 1.0))
    return float(loss * scale), grad


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainingReport:
    train_loss: list[float]
    val_loss: list[float]
    stopped_epoch: int
    best_epoch: int
    n_train_windows: int
    n_val_windows: int
    config: dict = field(default_factory=dict)
    restart_scout_losses: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def split_windows(windows: Sequence[Window], validation_fraction: float) -> tuple[list, list]:
    """Chronological split with the validation share at the end."""
    n = len(windows)
    n_val = max(1, int(round(validation_fraction * n)))
    n_train = n - n_val
    if n_train < 1:
        raise ValueError(f"{n} windows leave no training data at {validation_fraction} validation")
    return list(windows[:n_train]), list(windows[n_train:])


@dataclass
class _Run:
    """A training run between epochs: everything its next epoch reads,
    so the run can go on exactly where it stopped.  It holds no batches
    and no reference to the model."""

    optimizer: nn.Adam  # moments, step count and learning rate
    rng: np.random.Generator  # batch order and dropout
    best_state: dict[str, np.ndarray]
    best_val: float = np.inf
    best_epoch: int = 0
    last_reduction: int = 0
    stopped_early: bool = False
    last_state: dict[str, np.ndarray] | None = None  # weights after the last epoch run
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)


def train(
    model: TemporalFusionTransformer,
    windows: Sequence[Window],
    on_epoch: Callable[[int, float, float], None] | None = None,
) -> TrainingReport:
    """Minimize the summed pinball loss with Adam and early stopping.

    Windows are split chronologically (validation last); the weights
    giving the best validation loss are restored at the end.  Fully
    deterministic for a fixed config seed.  Every call starts a fresh
    run; its end state stays on the model so that
    ``train_with_restarts`` can continue it.
    """
    config = model.config
    if not windows:
        raise ValueError("empty window set")
    _check_features(model, windows)
    train_windows, val_windows = split_windows(windows, config.validation_fraction)
    model.feature_scaling = fit_feature_scaling(train_windows)
    model._run = _Run(
        optimizer=nn.Adam(model.store, lr=config.learning_rate, clip_norm=1.0),
        rng=np.random.default_rng(config.seed),
        best_state=model.store.state_dict(),
    )
    return _run_epochs(model, train_windows, val_windows, on_epoch)


def _keep_freed_heap():
    """Keep the heap memory a freed batch graph leaves for the next batch.

    glibc returns the freed top of the heap to the system whenever nothing
    happens to be allocated above it, and the next batch's graph, as large,
    faults every page in again: ~150 k faults and ~0.4 s of a ~1.2 s 400/50
    training run.  A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    The wheel's ``numpy.libs/libscipy_openblas*`` is looked up first,
    then a system ``libopenblas``; any other BLAS gives None.
    """
    wheel = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    candidates = [(str(path), "scipy_openblas_", "64_") for path in wheel]
    if not candidates and (system := ctypes.util.find_library("openblas")):
        candidates.append((system, "openblas_", ""))
    for path, prefix, suffix in candidates:
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore its count after.

    Raced scouts need it: at OpenBLAS's default of one thread per CPU,
    two scouts racing on 2 CPUs oversubscribe them, and an ``e2e`` loop
    with two one-epoch scouts took ~4.2 s, against ~2.4 s pinned.
    """
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_threads = threads
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _run_epochs(model: TemporalFusionTransformer, train_windows: Sequence[Window],
                val_windows: Sequence[Window], on_epoch) -> TrainingReport:
    """Take ``model._run`` on to ``max_epochs`` or an early stop, then
    load its best weights.

    The epochs the run already has are replayed to ``on_epoch`` first,
    so a continued run makes the same calls as one run in one go.
    """
    config = model.config
    run = model._run
    if on_epoch is not None:
        for epoch, (train_loss, val_loss) in enumerate(zip(run.train_losses, run.val_losses), 1):
            on_epoch(epoch, train_loss, val_loss)
    if not run.stopped_early and len(run.train_losses) < config.max_epochs:
        if run.last_state is not None:
            model.store.load_state_dict(run.last_state)
        _keep_freed_heap()
        optimizer = run.optimizer
        # halve the learning rate when validation stalls; cheap insurance
        # against the configured rate being too hot for a small model
        lr_patience = max(1, config.early_stopping_patience // 2)
        n_train = len(train_windows)
        for epoch in range(len(run.train_losses) + 1, config.max_epochs + 1):
            order = run.rng.permutation(n_train)
            epoch_loss = 0.0
            for lo_idx in range(0, n_train, config.batch_size):
                idx = order[lo_idx : lo_idx + config.batch_size]
                # prepared per batch: the scaling is elementwise and per window
                batch = prepare_batch([train_windows[i] for i in idx], config, model.feature_scaling)
                model.store.zero_grad()
                out = model.forward(batch.enc, batch.dec, training=True, rng=run.rng)
                loss, grad = _batch_loss(config.quantiles, out["quantiles"].values, batch.labels)
                out["quantiles"].backward(grad)
                optimizer.step()
                epoch_loss += loss * len(idx)
                del batch, out, grad  # free this batch before the next one is built
            epoch_loss /= n_train

            val_loss = evaluate_loss(model, val_windows)
            run.train_losses.append(epoch_loss)
            run.val_losses.append(val_loss)
            if on_epoch is not None:
                on_epoch(epoch, epoch_loss, val_loss)
            if val_loss < run.best_val - 1e-12:
                run.best_val = val_loss
                run.best_epoch = epoch
                run.best_state = model.store.state_dict()
            elif epoch - run.best_epoch >= config.early_stopping_patience:
                run.stopped_early = True
                break
            elif epoch - max(run.best_epoch, run.last_reduction) >= lr_patience and optimizer.lr > 1e-4:
                optimizer.lr = max(optimizer.lr * 0.5, 1e-4)
                run.last_reduction = epoch
        run.last_state = model.store.state_dict()
        model.store.load_state_dict(run.best_state)
    return TrainingReport(
        train_loss=list(run.train_losses),
        val_loss=list(run.val_losses),
        stopped_epoch=len(run.train_losses),
        best_epoch=run.best_epoch,
        n_train_windows=len(train_windows),
        n_val_windows=len(val_windows),
        config=asdict(config),
    )


def train_with_restarts(
    config: TftConfig,
    encoder_features: Sequence[str],
    decoder_features: Sequence[str],
    windows: Sequence[Window],
    restarts: int = 3,
    scout_epochs: int = 5,
    on_epoch: Callable[[int, float, float], None] | None = None,
) -> tuple[TemporalFusionTransformer, TrainingReport]:
    """Race several fresh initializations for a few epochs, then train
    the one with the best validation loss on to ``config.max_epochs``.

    Small models under an aggressive learning rate occasionally start
    in a poor basin; the short scouting phase screens those out using
    validation loss only.  A scout's epochs are the first epochs of its
    full run, so the winner is continued from where its scout stopped
    (weights, Adam state, random stream, early-stopping counters) and
    the result is identical to retraining it from scratch.
    Deterministic: candidate seeds derive from the configured seed.

    The scouts race on the usable CPUs: they are dealt round-robin to
    this process and to forked workers, one process per CPU and at most
    one per scout.  While more than one process races, OpenBLAS is
    pinned to one thread, so the processes do not compete for CPUs; the
    winner goes on at the caller's thread count.  A scout depends on its
    own seed only, so the bytes are the same as with one process.
    """
    if restarts <= 1:
        model = TemporalFusionTransformer(config, encoder_features, decoder_features)
        return model, train(model, windows, on_epoch=on_epoch)
    candidates = [replace(config, seed=config.seed + 101 * r) for r in range(restarts)]

    def scout(candidate: TftConfig):
        scout_cfg = replace(candidate, max_epochs=min(scout_epochs, candidate.max_epochs))
        model = TemporalFusionTransformer(scout_cfg, encoder_features, decoder_features)
        return model, min(train(model, windows).val_loss)

    processes = _scout_processes(restarts)
    # pinned before the race forks, so its workers start on one thread as well
    with _one_blas_thread() if processes > 1 else contextlib.nullcontext():
        scouts = _race(scout, candidates, processes)
    scout_losses = [loss for _, loss in scouts]
    best = int(np.argmin(scout_losses))
    model = scouts[best][0]
    model.config = candidates[best]  # differs from its scout's only in max_epochs
    report = _run_epochs(model, *split_windows(windows, model.config.validation_fraction), on_epoch)
    report.restart_scout_losses = [float(v) for v in scout_losses]
    return model, report


def _scout_processes(restarts: int) -> int:
    """How many processes race the scouts: one per usable CPU, at most
    one per scout.  One when OpenBLAS cannot be pinned (unpinned BLAS
    threads would compete with the workers), when ``fork`` is missing,
    in a daemonic process, which may not start children, or beside
    other Python threads, whose locks a forked child could inherit held."""
    if (_blas_threads() is None or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(restarts, cpus or 1)


def _race(scout: Callable, candidates: Sequence[TftConfig], processes: int) -> list:
    """``scout(candidate)`` for every candidate, in candidate order.

    Candidates are dealt round-robin over ``processes``: this process
    runs every ``processes``-th one, starting with the first, and each
    of the others is a forked worker that sends its results back
    through a one-way pipe.  Workers are terminated if this process
    raises, and joined in every case.
    """
    results = [None] * len(candidates)
    workers = []
    try:
        for p in range(1, processes):
            fork = multiprocessing.get_context("fork")
            receiver, sender = fork.Pipe(duplex=False)
            worker = fork.Process(
                target=_scout_worker, args=(sender, scout, candidates[p::processes]), daemon=True)
            worker.start()
            workers.append((worker, receiver))
            sender.close()  # the worker holds the only write end: its exit is EOF here
        for i in range(0, len(candidates), processes):
            results[i] = scout(candidates[i])
        for p, (worker, receiver) in enumerate(workers, 1):
            try:
                message = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"restart scout worker of seeds {[c.seed for c in candidates[p::processes]]} "
                    f"exited with code {worker.exitcode} and no result") from None
            if isinstance(message, tuple):
                seed, exc = message
                raise RuntimeError(
                    f"restart scout of seed {seed} failed: {type(exc).__name__}: {exc}") from exc
            results[p::processes] = message
        return results
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()


def _scout_worker(sender, scout: Callable, share: Sequence[TftConfig]):
    """Run in a forked worker: send the list of ``scout`` results over
    ``share``, or (seed, exception) of the first scout that raised."""
    results = []
    for candidate in share:
        try:
            results.append(scout(candidate))
        except Exception as exc:
            sender.send((candidate.seed, exc))
            return
    sender.send(results)


def _check_features(model: TemporalFusionTransformer, windows: Sequence[Window]):
    """Raise ValueError unless every window carries the model's encoder and
    decoder features, by name and in order: an embedding reads its column
    by position.  Windows cut by one ``make_windows`` call share their names."""
    expected = (model.encoder_features, model.decoder_features)
    for names in {(w.encoder.feature_names, w.decoder.feature_names) for w in windows}:
        if names != expected:
            raise ValueError(f"windows carry encoder and decoder features {names}, "
                             f"but the model reads {expected}")


def _slices(model: TemporalFusionTransformer, windows: Sequence[Window]):
    """Each ``batch_size`` slice of ``windows``, prepared on its own, as
    training batches are: the scaling is elementwise and per window, so a
    slice equals those rows of the whole set."""
    _check_features(model, windows)
    scaling = _require_scaling(model)
    bs = model.config.batch_size
    for lo in range(0, len(windows), bs):
        yield prepare_batch(windows[lo : lo + bs], model.config, scaling)


def evaluate_loss(model: TemporalFusionTransformer, windows: Sequence[Window]) -> float:
    """Mean loss per window, at inference."""
    total_loss = 0.0
    for batch in _slices(model, windows):
        out = model.forward(batch.enc, batch.dec, training=False)
        loss, _ = _batch_loss(model.config.quantiles, out["quantiles"].values, batch.labels)
        total_loss += loss * len(batch.starts)
        del batch, out
    return total_loss / len(windows)


# ---------------------------------------------------------------------------
# Prediction and interpretation


def predict(model: TemporalFusionTransformer, window: Window) -> QuantileForecast:
    """Forecast one window, de-normalized to milliseconds and sorted per
    step so quantiles never cross."""
    return predict_many(model, [window])[0]


def predict_many(model: TemporalFusionTransformer, windows: Sequence[Window]) -> list[QuantileForecast]:
    forecasts = []
    for batch in _slices(model, windows):
        raw = np.sort(_infer(model, batch)["quantiles"], axis=2)  # quantile non-crossing
        for values, lo, span, start in zip(raw, batch.target_lo, batch.target_range, batch.starts):
            forecasts.append(
                QuantileForecast(
                    quantiles=tuple(model.config.quantiles),
                    values=np.maximum(denormalize_target(values, lo, span), 0.0),
                    window_start=start,
                )
            )
    return forecasts


def _require_scaling(model: TemporalFusionTransformer) -> FeatureScaling:
    if model.feature_scaling is None:
        raise ValueError("model has no feature scaling; train it or load a checkpoint first")
    return model.feature_scaling


def _infer(model: TemporalFusionTransformer, batch: PreparedBatch) -> dict[str, np.ndarray]:
    """The inference outputs of ``model`` on ``batch`` (quantiles, encoder
    and decoder weights, attention), as plain read-only arrays.

    The last one-window inference stays on the model, keyed by a digest of
    the exact bytes of its prepared inputs and of every parameter, so
    interpreting the window just forecast costs no second forward pass.
    An equal key means an equal computation, hence equal bits; a weight
    write, another window or another feature scaling changes the key."""
    key = None
    if len(batch.starts) == 1:
        arrays = (batch.enc, batch.dec, *(t.values for t in model.store.tensors().values()))
        key = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).digest()
        if model._last_inference is not None and model._last_inference[0] == key:
            return model._last_inference[1]
    out = {name: t.values for name, t in model.forward(batch.enc, batch.dec, training=False).items()}
    for values in out.values():
        values.flags.writeable = False
    if key is not None:
        model._last_inference = (key, out)
    return out


def interpret(model: TemporalFusionTransformer, window: Window) -> ImportanceSeries:
    """Export the variable-selection weights and attention profile for
    one window."""
    out = _infer(model, next(_slices(model, [window])))
    return ImportanceSeries(
        encoder_features=model.encoder_features,
        decoder_features=model.decoder_features,
        encoder_variable_importance=out["encoder_weights"][0].copy(),
        decoder_variable_importance=out["decoder_weights"][0].copy(),
        attention_profile=out["attention"][0].copy(),
    )


def evaluate(forecast_median: Sequence[float], actual: Sequence[float]) -> dict[str, float]:
    """RMSE and R^2 of a point forecast against the realized values."""
    pred = np.asarray(forecast_median, dtype=np.float64)
    act = np.asarray(actual, dtype=np.float64)
    if pred.shape != act.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {act.shape}")
    if pred.size < 2:
        raise ValueError("need at least two points")
    sse = float(np.sum((pred - act) ** 2))
    sst = float(np.sum((act - act.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("actuals have zero variance; R^2 is undefined")
    return {"rmse": float(np.sqrt(sse / act.size)), "r2": 1.0 - sse / sst}


def pooled_forecast_metrics(forecasts: Sequence[QuantileForecast],
                            windows: Sequence[Window]) -> dict[str, float]:
    """Median forecasts (``predict_many`` output) pooled into one RMSE/R^2."""
    pred = np.concatenate([f.median for f in forecasts])
    actual = np.concatenate([w.future_target for w in windows])
    return evaluate(pred, actual)


def persistence_metrics(windows: Sequence[Window]) -> dict[str, float]:
    """Baseline that repeats the last observed target over the horizon."""
    pred = np.concatenate([np.full_like(w.future_target, w.encoder.values[-1, -1]) for w in windows])
    actual = np.concatenate([w.future_target for w in windows])
    return evaluate(pred, actual)


def band_coverage(forecasts: Sequence[QuantileForecast], windows: Sequence[Window]) -> float:
    """Fraction of realized values inside the band between the lowest and
    highest quantile of ``forecasts``."""
    inside = 0
    count = 0
    for w, f in zip(windows, forecasts):
        lo_band, hi_band = f.values[:, 0], f.values[:, -1]
        inside += int(np.sum((w.future_target >= lo_band) & (w.future_target <= hi_band)))
        count += w.future_target.size
    return inside / count


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(model: TemporalFusionTransformer, path) -> None:
    doc = {
        "format_version": nn.layers.CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "encoder_features": list(model.encoder_features),
        "decoder_features": list(model.decoder_features),
        "feature_scaling": model.feature_scaling.to_dict() if model.feature_scaling else None,
        "params": model.store.to_dict(),
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> TemporalFusionTransformer:
    """Rebuild a saved model.  A checkpoint of another format version,
    with parameters the model does not have, or with a feature scaling
    that does not fit its decoder features raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != nn.layers.CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {doc.get('format_version')!r}")
    cfg_doc = dict(doc["config"])
    # older checkpoints carry this removed setting; no model could be trained with it on
    if cfg_doc.pop("include_relative_time", False):
        raise ValueError("checkpoint uses include_relative_time, which is not supported")
    cfg_doc["quantiles"] = tuple(cfg_doc["quantiles"])
    config = TftConfig(**cfg_doc)
    model = TemporalFusionTransformer(config, doc["encoder_features"], doc["decoder_features"])
    model.store.load_dict(doc["params"])
    if doc["feature_scaling"] is not None:
        model.feature_scaling = FeatureScaling.from_dict(doc["feature_scaling"],
                                                         model.decoder_features)
    return model
