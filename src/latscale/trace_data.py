"""Time-indexed metric series for microservice traces.

Holds aligned series of front-end calls, per-service resources, and
per-trace p95 latency; provides CSV ingestion and sliding
encoder/decoder windows.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A column is named "<kind>.<owner>", e.g. "cps.green", "pods.cart",
# "latency_p95.green": a trace's front-end calls or p95 latency, or one
# resource of a service.  A resource mode names the resources it feeds
# the model.
RESOURCE_MODES = {"horizontal": ("pods",), "vertical": ("cpu", "mem")}
RESOURCE_MODES["both"] = RESOURCE_MODES["horizontal"] + RESOURCE_MODES["vertical"]
KINDS = ("cps", *RESOURCE_MODES["both"], "latency_p95")


class DataFormatError(ValueError):
    """Malformed input data, with the offending row/column when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        super().__init__(message + (f" ({', '.join(loc)})" if loc else ""))
        self.row = row
        self.column = column


class DatasetTooShortError(ValueError):
    """Dataset has fewer steps than one encoder+decoder window."""


@dataclass(frozen=True)
class MetricSeries:
    """One series named ``<kind>.<owner>``, one value per time step.

    The name is the only record of what a series is: its prefix is the
    kind, one of ``KINDS``, and a resource series' owner is its
    microservice.  Units by kind: calls/s for ``cps``, pod count
    (stored as float) for ``pods``, cores for ``cpu``, bytes for
    ``mem``, milliseconds for ``latency_p95``.
    """

    name: str
    values: np.ndarray

    def __post_init__(self):
        prefix, _, owner = self.name.partition(".")
        if not owner or prefix not in KINDS:
            raise DataFormatError(
                f"cannot classify column {self.name!r}; expected '<kind>.<owner>' with kind in "
                f"{sorted(KINDS)}",
                column=self.name,
            )
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError(f"series {self.name!r}: values must be 1-D")
        if self.kind == "latency_p95" and np.any(self.values < 0):
            raise ValueError(f"series {self.name!r}: latencies must be >= 0")
        if self.kind == "pods" and (
            np.any(self.values < 1) or np.any(self.values != np.round(self.values))
        ):
            raise ValueError(f"series {self.name!r}: pod counts must be positive integers")

    @property
    def kind(self) -> str:
        return self.name.partition(".")[0]

    @property
    def owner(self) -> str:
        return self.name.partition(".")[2]

    @property
    def microservice(self) -> str | None:
        """The service a resource series measures; None for other kinds."""
        return self.owner if self.kind in RESOURCE_MODES["both"] else None


@dataclass(frozen=True)
class TraceDataset:
    """Aligned collection of metric series over a shared time index.

    Treated as immutable after construction; windowing never mutates
    it.
    """

    time_index: np.ndarray
    series: tuple[MetricSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "time_index", np.asarray(self.time_index, dtype=np.int64))
        object.__setattr__(self, "series", tuple(self.series))
        n = len(self.time_index)
        if n == 0:
            raise ValueError("empty time index")
        steps = np.diff(self.time_index)
        if np.any(steps <= 0) or (n > 1 and np.any(steps != steps[0])):
            raise ValueError("time index must be strictly increasing with a uniform step")
        for s in self.series:
            if len(s.values) != n:
                raise ValueError(f"series {s.name!r} has {len(s.values)} values, expected {n}")
        names = [s.name for s in self.series]
        if len(set(names)) != len(names):
            raise ValueError("duplicate series names")

    @property
    def n_steps(self) -> int:
        return len(self.time_index)

    @property
    def traces(self) -> list[str]:
        return [s.owner for s in self.series if s.kind == "latency_p95"]

    def get(self, name: str) -> MetricSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def target(self, trace: str) -> MetricSeries:
        for s in self.series:
            if s.kind == "latency_p95" and s.owner == trace:
                return s
        raise KeyError(f"no target series for trace {trace!r}")

    def feature_names(self, resource_mode: str = "both") -> list[str]:
        """The ``cps`` columns and the resource columns of ``resource_mode``
        (a key of ``RESOURCE_MODES``), in column order."""
        if resource_mode not in RESOURCE_MODES:
            raise ValueError(f"unknown resource mode {resource_mode!r}")
        kinds = ("cps", *RESOURCE_MODES[resource_mode])
        return [s.name for s in self.series if s.kind in kinds]


def load_dataset(path) -> TraceDataset:
    """Load a TraceDataset from CSV.

    First column must be the integer time index ``t``; remaining
    columns follow the ``<kind>.<owner>`` naming convention.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("missing column header: file is empty") from None
        if not header or header[0] != "t":
            raise DataFormatError("first column must be the time index 't'", column="t")
        if len(header) < 2:
            raise DataFormatError("no data columns beside the time index")

        columns: list[list[float]] = [[] for _ in header]
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"ragged row: {len(row)} cells, expected {len(header)}", row=row_no
                )
            for col_name, cell, bucket in zip(header, row, columns):
                try:
                    bucket.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"non-numeric cell {cell!r}", row=row_no, column=col_name
                    ) from None

    if not columns[0]:
        raise DataFormatError("no data rows")
    data = np.array(columns)  # one row per CSV column
    bad = np.argwhere(~np.isfinite(data.T))  # in file order
    if len(bad):
        row, col = bad[0]
        raise DataFormatError(
            f"non-finite cell {float(data[col, row])!r}", row=int(row) + 2, column=header[col]
        )
    t = data[0]
    if np.any(t != np.round(t)):
        raise DataFormatError("time index must be integer", column="t")
    t = t.astype(np.int64)
    for i in range(1, len(t)):
        if t[i] == t[i - 1]:
            raise DataFormatError(f"duplicated time index {t[i]}", row=i + 2, column="t")
        if t[i] < t[i - 1]:
            raise DataFormatError(f"time index out of order at {t[i]}", row=i + 2, column="t")

    series = tuple(MetricSeries(name, values) for name, values in zip(header[1:], data[1:]))
    return TraceDataset(time_index=t, series=series)


def save_dataset(dataset: TraceDataset, path) -> None:
    """Write a dataset back to the CSV schema accepted by load_dataset."""
    columns = [dataset.time_index.tolist()] + [s.values.tolist() for s in dataset.series]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t"] + [s.name for s in dataset.series])
        # an int or a float's repr never needs quoting, so each row is one
        # join, ended with the csv module's "\r\n"
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*columns))


def p95(samples: Sequence[float] | np.ndarray) -> float:
    """95th percentile by the nearest-rank method.

    Returns the smallest sample value v such that at least 95% of the
    samples are <= v.
    """
    arr = np.asarray(samples, dtype=np.float64)
    rank = nearest_rank(95.0, arr.size)
    return float(np.partition(arr, rank - 1)[rank - 1])


def nearest_rank(pct: float, n: int) -> int:
    """The 1-based order statistic, ceil(pct/100 * n), that the
    nearest-rank ``pct``-th percentile of ``n`` samples picks."""
    if n < 1:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return math.ceil(pct / 100.0 * n)


@dataclass(frozen=True)
class WindowSpec:
    """Encoder/decoder lengths for sliding windows."""

    encoder_length: int = 400
    decoder_length: int = 50

    def __post_init__(self):
        if self.encoder_length < 1 or self.decoder_length < 1:
            raise ValueError("encoder and decoder lengths must be >= 1")


@dataclass(frozen=True)
class Block:
    """A contiguous slab of feature columns: values[time, feature]."""

    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise ValueError("block values must be (steps, len(feature_names))")


@dataclass(frozen=True)
class Window:
    """One training/prediction window.

    The encoder block carries the features plus the target history; the
    decoder block carries future features only.  ``future_target`` is
    the supervision label for the decoder steps and is never part of
    the decoder inputs.
    """

    start: int
    encoder: Block
    decoder: Block
    future_target: np.ndarray


def make_windows(
    dataset: TraceDataset,
    spec: WindowSpec,
    target_trace: str,
    feature_names: Sequence[str] | None = None,
) -> list[Window]:
    """Slide (encoder, decoder) windows over the dataset with stride 1.

    Yields ``n_steps - encoder_length - decoder_length + 1`` windows;
    window i starts at step i.  The target series appears only in the
    encoder block and in the label array, never in the decoder block.
    Every window's arrays are read-only views into one (steps x
    (features + 1)) matrix, so no window data is copied.
    """
    if feature_names is None:
        feature_names = dataset.feature_names()
    feature_names = list(feature_names)
    target = dataset.target(target_trace)
    if target.name in feature_names:
        raise ValueError(f"target series {target.name!r} listed among the features")
    repeated = [name for i, name in enumerate(feature_names) if name in feature_names[:i]]
    if repeated:
        raise ValueError(f"feature {repeated[0]!r} listed twice")
    k, tau = spec.encoder_length, spec.decoder_length
    n = dataset.n_steps
    if n < k + tau:
        raise DatasetTooShortError(
            f"need at least {k + tau} steps for encoder {k} + decoder {tau}, have {n}"
        )
    matrix = np.column_stack([dataset.get(name).values for name in feature_names] + [target.values])
    # (windows, k + tau, features + 1), read-only
    views = np.lib.stride_tricks.sliding_window_view(matrix, (k + tau, matrix.shape[1]))[:, 0]
    enc_names = tuple(feature_names) + (target.name,)
    dec_names = tuple(feature_names)
    return [
        Window(
            start=start,
            encoder=Block(enc_names, view[:k]),
            decoder=Block(dec_names, view[k:, :-1]),
            future_target=view[k:, -1],
        )
        for start, view in enumerate(views)
    ]
