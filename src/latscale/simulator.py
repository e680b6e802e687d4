"""Deterministic workload-and-latency simulator for the Robot Shop call graph.

Each service is modeled as a queueing station whose per-request latency
grows as 1/(1 - utilization) on top of a base service time, so pod
count, CPU, and memory causally drive end-to-end latency.  One
simulation step aggregates one interval of wall time (nominally one
second) and records the p95 latency per trace.
"""
from __future__ import annotations

import functools
import graphlib
import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .nn.autodiff import row_sum
from .trace_data import MetricSeries, SeriesKind, TraceDataset, nearest_rank

if TYPE_CHECKING:  # avoid a runtime cycle; apply_plan duck-types the plan
    from .scaler import ScalingPlan

# Queueing constants.  Utilization is capped below 1 so latency stays
# finite; the floor on (1 - rho) bounds worst-case amplification.
RHO_CAP = 0.98
UTIL_FLOOR = 0.02
MEM_PENALTY = 2.0  # base-latency multiplier when memory is below the floor
CPU_MIN_CORES = 0.05
MEM_MIN_BYTES = 2**24  # 16 MiB
PODS_MAX = 16  # the default maxima of a ServiceConfig
CPU_MAX_CORES = 32.0
MEM_MAX_BYTES = 64e9


class UnconfiguredServiceError(ValueError):
    """A path references a service with no ServiceConfig."""


class UnknownServiceError(ValueError):
    """A scaling plan references a service not present in the configs."""


@dataclass(frozen=True)
class TracePath:
    """One request chain, identified by the trace color it belongs to."""

    color: str
    hops: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) < 2:
            raise ValueError(f"path {self.color!r} needs at least two hops")


@dataclass(frozen=True)
class CallGraph:
    """The call graph the trace paths walk.  A graph is its paths: the
    services and calls are those the paths use, in first-seen order."""

    paths: tuple[TracePath, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        sorter = graphlib.TopologicalSorter()
        for parent, child in self.edges:
            sorter.add(child, parent)
        try:
            sorter.prepare()
        except graphlib.CycleError:
            raise ValueError("call graph contains a cycle") from None

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple({hop: None for p in self.paths for hop in p.hops})

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple({pair: None for p in self.paths for pair in zip(p.hops, p.hops[1:])})

    @property
    def colors(self) -> list[str]:
        return list({p.color: None for p in self.paths})

    def services_for(self, color: str) -> list[str]:
        """Services a request of this trace touches, in first-visit order.

        A color may own several chains (the green trace fans out from
        cart to catalogue); shared hops are counted once.
        """
        seen = {hop: None for p in self.paths if p.color == color for hop in p.hops}
        if not seen:
            raise KeyError(f"no path with color {color!r}")
        return list(seen)


def build_robotshop_graph() -> CallGraph:
    """The Robot Shop topology with its five colored trace paths."""
    return CallGraph((
        TracePath("purple", ("front-end", "shipping", "cart", "cart-db")),
        TracePath("green", ("front-end", "cart", "cart-db")),
        TracePath("green", ("cart", "catalogue", "catalogue-db")),
        TracePath("blue", ("front-end", "catalogue", "catalogue-db")),
        TracePath("red", ("front-end", "user", "user-db")),
        TracePath("black", ("front-end", "payment", "user", "user-db")),
    ))


@dataclass(frozen=True)
class Walk:
    """Piecewise-constant multiplicative variation of a resource.

    Every ``period`` steps a new factor is drawn uniformly from
    [low, high]; the resource value is the configured base scaled by
    the current factor.
    """

    period: int
    low: float
    high: float

    def __post_init__(self):
        if self.period < 1 or self.low <= 0 or self.high < self.low:
            raise ValueError("walk needs period >= 1 and 0 < low <= high")

    def factors(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        n_segments = -(-steps // self.period)
        draws = rng.uniform(self.low, self.high, size=n_segments)
        return np.repeat(draws, self.period)[:steps]


@dataclass
class ServiceConfig:
    """Capacity and resource settings for one microservice.

    ``per_pod_rate`` is the request rate one pod sustains at 1.0 CPU
    core; effective capacity scales linearly with cores.
    """

    name: str
    base_service_ms: float
    per_pod_rate: float
    pods: int = 1
    cpu_cores: float = 1.0
    mem_bytes: float = 512e6
    pods_max: int = PODS_MAX
    cpu_max_cores: float = CPU_MAX_CORES
    mem_max_bytes: float = MEM_MAX_BYTES
    mem_floor_bytes: float = 0.0
    pods_walk: Walk | None = None
    cpu_walk: Walk | None = None
    mem_walk: Walk | None = None

    def __post_init__(self):
        if self.base_service_ms <= 0 or self.per_pod_rate <= 0:
            raise ValueError(f"service {self.name!r}: base time and rate must be positive")
        if self.pods < 1 or int(self.pods) != self.pods:
            raise ValueError(f"service {self.name!r}: pods must be a positive integer")
        if self.cpu_cores <= 0 or self.mem_bytes <= 0:
            raise ValueError(f"service {self.name!r}: cpu and memory must be positive")


@dataclass
class WorkloadProfile:
    """Calls-per-second generator for one trace.

    rate(t) = base + amplitude * sin(2*pi*t/period + phase) + N(0, sigma)
    plus any scheduled bursts, clamped at zero.
    """

    base: float
    amplitude: float = 0.0
    period: float = 300.0
    phase: float = 0.0
    noise_sigma: float = 0.0
    bursts: tuple[tuple[int, int, float], ...] = ()  # (start, duration, magnitude)
    seed: int | None = None

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        self.bursts = tuple(tuple(b) for b in self.bursts)
        for start, duration, _ in self.bursts:
            if start != int(start) or duration != int(duration) or start < 0 or duration < 1:
                raise ValueError(
                    f"burst at step {start}: start must be an integer >= 0 "
                    f"and duration an integer >= 1"
                )

    def rates(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        t = np.arange(steps)
        rate = self.base + self.amplitude * np.sin(2 * np.pi * t / self.period + self.phase)
        if self.noise_sigma > 0:
            rate = rate + rng.normal(0.0, self.noise_sigma, size=steps)
        for start, duration, magnitude in self.bursts:
            rate[start : start + duration] += magnitude
        return np.maximum(rate, 0.0)


def utilization(arrival_rate, pods, per_pod_rate, cpu_cores):
    """Offered load over capacity, elementwise; capacity scales with pods and cores."""
    return arrival_rate / (pods * per_pod_rate * cpu_cores)


def service_latency_ms(base_ms, rho, mem_low=False):
    """Per-request latency at utilization rho, before noise, elementwise."""
    latency = base_ms / np.maximum(UTIL_FLOOR, 1.0 - np.minimum(rho, RHO_CAP))
    return np.where(mem_low, latency * MEM_PENALTY, latency)


def _resource_timeline(base: float, walk: Walk | None, steps: int, rng: np.random.Generator) -> np.ndarray:
    if walk is None:
        return np.full(steps, float(base))
    return base * walk.factors(steps, rng)


def resource_bounds(cfg: ServiceConfig | None = None) -> dict[str, tuple[float, float]]:
    """The (lo, hi) box ``simulate`` and ``apply_plan`` clamp each resource
    of ``cfg`` into; without ``cfg``, the box of a service with the
    default maxima."""
    pods_max, cpu_max, mem_max = (PODS_MAX, CPU_MAX_CORES, MEM_MAX_BYTES) if cfg is None else (
        cfg.pods_max, cfg.cpu_max_cores, cfg.mem_max_bytes)
    return {"pods": (1.0, float(pods_max)), "cpu": (CPU_MIN_CORES, float(cpu_max)),
            "mem": (float(MEM_MIN_BYTES), float(mem_max))}


def check_references(graph: CallGraph, workload: Mapping[str, WorkloadProfile],
                     configs: Mapping[str, ServiceConfig]) -> None:
    """Every trace in the graph needs a workload profile (else ValueError)
    and every service on its paths a configuration (else
    UnconfiguredServiceError)."""
    for color in graph.colors:
        if color not in workload:
            raise ValueError(f"no workload profile for trace {color!r}")
        for svc in graph.services_for(color):
            if svc not in configs:
                raise UnconfiguredServiceError(
                    f"service {svc!r} on trace {color!r} has no configuration"
                )


@functools.lru_cache(maxsize=1)
def _request_noise(seed: int, noise_sigma: float, counts: bytes,
                   widths: tuple[int, ...]) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """Lognormal noise for every hop of every simulated request, per trace
    as (steps, block) pairs, one per request count n: ``block`` is the
    (steps x n x hops) noise of the steps whose trace sends n requests.

    ``counts`` holds the (steps x traces) request counts as int64 bytes,
    traces in sorted order.  The noise is drawn step by step, traces in
    order within a step, one (requests x hops) block each; one draw of
    the total size gives the same stream as a draw per block.  Only the
    seed, sigma and this layout decide the noise, so the layout last
    drawn is kept and a plan that changes pods, CPU or memory reuses
    it.  The arrays are read-only.
    """
    n_req = np.frombuffer(counts, dtype=np.int64).reshape(-1, len(widths))
    sizes = n_req * np.array(widths)  # (steps, traces), in draw order
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    noise = np.random.default_rng([seed, 3]).lognormal(0.0, noise_sigma, size=int(sizes.sum()))
    per_trace = []
    for k, width in enumerate(widths):
        blocks = []
        for n in np.unique(n_req[:, k]):
            steps = np.flatnonzero(n_req[:, k] == n)
            block = noise[starts[steps, k, None] + np.arange(n * width)].reshape(steps.size, n, width)
            steps.flags.writeable = block.flags.writeable = False
            blocks.append((steps, block))
        per_trace.append(tuple(blocks))
    return tuple(per_trace)


def _noisy_p95(hops: Mapping[str, np.ndarray], cps: Mapping[str, np.ndarray],
               seed: int, noise_sigma: float) -> dict[str, np.ndarray]:
    """Per-trace p95 over each step's max(1, round(rate)) requests, every
    hop latency of every request scaled by its own lognormal noise.

    The noise comes from ``_request_noise``; steps of a trace with the
    same request count are one matrix, so memory stays that of the
    noise even when a burst makes one step large.  A request's latency
    is the sum over its hops; up to 8 hops ``row_sum`` adds whole
    per-hop columns in numpy's order of that sum, which is faster than
    reducing numpy's short last axis, and wider traces keep numpy's sum.
    """
    order = sorted(hops)
    n_req = np.stack([np.maximum(1, np.round(cps[c])).astype(np.int64) for c in order], axis=1)
    noise = _request_noise(seed, noise_sigma, n_req.tobytes(), tuple(hops[c].shape[1] for c in order))
    latency = {}
    for color, blocks in zip(order, noise):
        latency[color] = np.empty(len(n_req))
        for steps, block in blocks:
            h = hops[color][steps]
            if block.shape[2] > 8:
                requests = (h[:, None] * block).sum(axis=2)
            else:
                requests = row_sum([h[:, j, None] * block[:, :, j] for j in range(block.shape[2])])
            rank = nearest_rank(95.0, block.shape[1])
            latency[color][steps] = np.partition(requests, rank - 1, axis=1)[:, rank - 1]
    return latency


def simulate(
    graph: CallGraph,
    workload: Mapping[str, WorkloadProfile],
    configs: Mapping[str, ServiceConfig],
    duration_steps: int,
    seed: int,
    noise_sigma: float = 0.1,
) -> TraceDataset:
    """Run the workload through the graph and record one TraceDataset.

    Per step and service: arrival rate is the sum of calls-per-second
    of every trace touching it, utilization follows from the pod/CPU
    capacity, and per-request latency is the base service time
    amplified by 1/(1 - rho) and multiplied by lognormal noise.  The
    per-trace target is the p95 over that step's simulated requests.
    Identical seeds give bit-identical datasets.  The request noise
    depends only on the seed, sigma and the request counts, so a re-run
    of the same seed and workload under other pods, CPU or memory (a
    re-simulation under a plan) reuses the noise drawn last.
    """
    if duration_steps < 1:
        raise ValueError("duration_steps must be >= 1")
    check_references(graph, workload, configs)
    colors = graph.colors
    trace_services = {color: graph.services_for(color) for color in colors}
    services = sorted({svc for svcs in trace_services.values() for svc in svcs})

    # Independent, deterministically derived random streams.
    cps = {}
    for idx, color in enumerate(sorted(colors)):
        profile = workload[color]
        stream = (
            np.random.default_rng(profile.seed)
            if profile.seed is not None
            else np.random.default_rng([seed, 1, idx])
        )
        cps[color] = profile.rates(duration_steps, stream)
    pods_t, cpu_t, mem_t, det = {}, {}, {}, {}
    for idx, svc in enumerate(services):
        cfg = configs[svc]
        walk_rng = np.random.default_rng([seed, 2, idx])
        bounds = resource_bounds(cfg)
        raw_pods = _resource_timeline(cfg.pods, cfg.pods_walk, duration_steps, walk_rng)
        pods_t[svc] = np.clip(np.round(raw_pods), *bounds["pods"])
        raw_cpu = _resource_timeline(cfg.cpu_cores, cfg.cpu_walk, duration_steps, walk_rng)
        cpu_t[svc] = np.clip(raw_cpu, *bounds["cpu"])
        raw_mem = _resource_timeline(cfg.mem_bytes, cfg.mem_walk, duration_steps, walk_rng)
        mem_t[svc] = np.clip(raw_mem, *bounds["mem"])
        rate = np.zeros(duration_steps)
        for color in colors:
            if svc in trace_services[color]:
                rate = rate + cps[color]
        rho = utilization(rate, pods_t[svc], cfg.per_pod_rate, cpu_t[svc])
        det[svc] = service_latency_ms(cfg.base_service_ms, rho, mem_t[svc] < cfg.mem_floor_bytes)

    # noise-free per-hop latency, (steps, hops) per trace
    hops = {color: np.column_stack([det[svc] for svc in trace_services[color]]) for color in colors}
    if noise_sigma > 0:
        latency = _noisy_p95(hops, cps, seed, noise_sigma)
    else:
        latency = {color: hops[color].sum(axis=1) for color in colors}

    series: list[MetricSeries] = []
    for color in colors:
        series.append(MetricSeries(f"cps.{color}", SeriesKind.FRONT_END_CALLS, cps[color]))
    for svc in services:
        series.append(MetricSeries(f"pods.{svc}", SeriesKind.HORIZONTAL_RESOURCE, pods_t[svc], svc))
        series.append(MetricSeries(f"cpu.{svc}", SeriesKind.VERTICAL_RESOURCE, cpu_t[svc], svc))
        series.append(MetricSeries(f"mem.{svc}", SeriesKind.VERTICAL_RESOURCE, mem_t[svc], svc))
    for color in colors:
        series.append(MetricSeries(f"latency_p95.{color}", SeriesKind.TARGET_LATENCY, latency[color]))
    return TraceDataset(time_index=np.arange(duration_steps), series=tuple(series))


def apply_plan(configs: Mapping[str, ServiceConfig], plan: "ScalingPlan") -> dict[str, ServiceConfig]:
    """Return new service configs with the plan's scaling factors applied.

    Pod counts are rounded; every resource is clamped into its
    ``resource_bounds``.  Advisory (calls-per-second) entries are left
    untouched.
    """
    out = {name: replace(cfg) for name, cfg in configs.items()}
    for action in plan.actions:
        if action.service not in out:
            raise UnknownServiceError(f"plan references unknown service {action.service!r}")
        cfg = out[action.service]
        bounds = resource_bounds(cfg)
        if action.resource not in bounds:
            raise ValueError(f"unknown resource {action.resource!r} in plan")
        lo, hi = bounds[action.resource]
        if action.resource == "pods":
            cfg.pods = int(np.clip(round(action.factor * cfg.pods), lo, hi))
        elif action.resource == "cpu":
            cfg.cpu_cores = float(np.clip(action.factor * cfg.cpu_cores, lo, hi))
        else:
            cfg.mem_bytes = float(np.clip(action.factor * cfg.mem_bytes, lo, hi))
    return out


# ---------------------------------------------------------------------------
# Scenario files


@dataclass
class Scenario:
    """Complete description of one simulation run.

    ``step_seconds`` documents the aggregation interval one simulation
    step represents; the p95 target is computed per interval.
    """

    configs: dict[str, ServiceConfig]
    workloads: dict[str, WorkloadProfile]
    duration_steps: int
    seed: int = 0
    noise_sigma: float = 0.1
    step_seconds: float = 1.0
    graph: CallGraph = field(default_factory=build_robotshop_graph)

    def __post_init__(self):
        if self.duration_steps < 1:
            raise ValueError("duration_steps must be >= 1")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        check_references(self.graph, self.workloads, self.configs)
        for color, profile in self.workloads.items():
            for start, duration, _ in profile.bursts:
                if start + duration > self.duration_steps:
                    raise ValueError(
                        f"workload {color!r}: burst at step {start} ends at step "
                        f"{start + duration}, past duration_steps {self.duration_steps}"
                    )

    def run(self) -> TraceDataset:
        return simulate(self.graph, self.workloads, self.configs, self.duration_steps, self.seed,
                        noise_sigma=self.noise_sigma)


def _from_doc(cls, doc, where: str, **given):
    """Build the dataclass ``cls`` from the JSON object ``doc``.

    Every key must name a field of ``cls`` that ``given`` does not
    supply.  Values of int and float fields are coerced (a JSON 5 in a
    float field reads as 5.0), and an object in a dataclass-typed field
    is built the same way.  Errors name ``where``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    unknown = [key for key in doc if key not in hints or key in given]
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    kwargs = dict(given)
    for key, value in doc.items():
        hint = hints[key]
        nested = [t for t in typing.get_args(hint) if is_dataclass(t)]
        if nested and value is not None:
            value = _from_doc(nested[0], value, f"{where} {key}")
        elif hint in (int, float):
            try:
                value = hint(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where} {key}: {exc}") from exc
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if str(exc).startswith(where):  # the class already named itself
            raise
        raise ValueError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    """Read a scenario document; unknown keys and bad values raise ValueError."""
    try:
        doc = dict(doc)
        given = {
            "configs": {
                name: _from_doc(ServiceConfig, svc, f"service {name!r}", name=name)
                for name, svc in doc.pop("services").items()
            },
            "workloads": {
                color: _from_doc(WorkloadProfile, profile, f"workload {color!r}")
                for color, profile in doc.pop("workloads").items()
            },
        }
        if "graph" in doc:
            graph = dict(doc.pop("graph"))
            paths = graph.pop("paths")
            if graph:
                raise ValueError(f"graph: unknown key(s) {', '.join(map(repr, graph))}")
            given["graph"] = CallGraph(
                _from_doc(TracePath, p, f"graph path {i}") for i, p in enumerate(paths)
            )
        return _from_doc(Scenario, doc, "top level", **given)
    except KeyError as exc:
        raise ValueError(f"bad scenario document: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad scenario document: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = asdict(scenario)
    doc["services"] = doc.pop("configs")
    for service in doc["services"].values():
        del service["name"]  # the service's key in the document
    return doc


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
