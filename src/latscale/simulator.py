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
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .nn.autodiff import row_sum
from .reader import read
from .trace_data import MetricSeries, TraceDataset, nearest_rank

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
        if len(self.hops) < 2:
            raise ValueError(f"path {self.color!r} needs at least two hops")


@dataclass(frozen=True)
class CallGraph:
    """The call graph the trace paths walk.  A graph is its paths: the
    services and calls are those the paths use, in first-seen order."""

    paths: tuple[TracePath, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ValueError("call graph has no paths")
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
    core; effective capacity scales linearly with cores.  Each configured
    level must lie in its box from ``resource_bounds``, so a box whose
    maximum is below its minimum is refused.
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
            raise ValueError(f"service {self.name!r}: base_service_ms and per_pod_rate must be positive")
        if int(self.pods) != self.pods:
            raise ValueError(f"service {self.name!r}: pods must be a positive integer")
        for resource, (lo, hi) in resource_bounds(self).items():
            level = getattr(self, RESOURCE_FIELDS[resource])
            if not lo <= level <= hi:
                raise ValueError(f"service {self.name!r}: {RESOURCE_FIELDS[resource]} {level} "
                                 f"is outside its box [{lo:g}, {hi:g}] (its maximum is "
                                 f"{MAX_FIELDS[resource]})")


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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for start, duration, _ in self.bursts:
            if start < 0 or duration < 1:
                raise ValueError(f"burst at step {start}: start must be an integer >= 0 "
                                 f"and duration an integer >= 1")

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


# The ServiceConfig fields that hold each resource's configured level and
# the maximum of its box; a resource's walk is the field ``<resource>_walk``.
RESOURCE_FIELDS = {"pods": "pods", "cpu": "cpu_cores", "mem": "mem_bytes"}
MAX_FIELDS = {"pods": "pods_max", "cpu": "cpu_max_cores", "mem": "mem_max_bytes"}


def resource_level(resource: str, value, lo: float, hi: float):
    """The level a resource runs at for the raw ``value``, elementwise:
    pods rounded to whole pods, then clamped into the box [lo, hi]."""
    return np.clip(np.round(value) if resource == "pods" else value, lo, hi)


def resource_bounds(cfg: ServiceConfig | None = None) -> dict[str, tuple[float, float]]:
    """The (lo, hi) box each resource of ``cfg`` runs in, its maximum the
    ``MAX_FIELDS`` field; without ``cfg``, the box of a service with the
    default maxima."""
    pods_max, cpu_max, mem_max = (PODS_MAX, CPU_MAX_CORES, MEM_MAX_BYTES) if cfg is None else (
        getattr(cfg, field_name) for field_name in MAX_FIELDS.values())
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
        stream = np.random.default_rng([seed, 1, idx] if profile.seed is None else profile.seed)
        cps[color] = profile.rates(duration_steps, stream)
    levels, det = {}, {}  # levels[svc][resource] is a timeline
    for idx, svc in enumerate(services):
        cfg = configs[svc]
        walk_rng = None  # the service's walk stream, seeded at its first walk
        level = levels[svc] = {}
        for resource, (lo, hi) in resource_bounds(cfg).items():
            base = getattr(cfg, RESOURCE_FIELDS[resource])
            walk = getattr(cfg, f"{resource}_walk")
            if walk is None:
                raw = np.full(duration_steps, float(base))
            else:
                walk_rng = walk_rng or np.random.default_rng([seed, 2, idx])
                raw = base * walk.factors(duration_steps, walk_rng)
            level[resource] = resource_level(resource, raw, lo, hi)
        rate = np.zeros(duration_steps)
        for color in colors:
            if svc in trace_services[color]:
                rate = rate + cps[color]
        rho = utilization(rate, level["pods"], cfg.per_pod_rate, level["cpu"])
        det[svc] = service_latency_ms(cfg.base_service_ms, rho, level["mem"] < cfg.mem_floor_bytes)

    # noise-free per-hop latency, (steps, hops) per trace
    hops = {color: np.column_stack([det[svc] for svc in trace_services[color]]) for color in colors}
    if noise_sigma > 0:
        latency = _noisy_p95(hops, cps, seed, noise_sigma)
    else:
        latency = {color: hops[color].sum(axis=1) for color in colors}

    series = [MetricSeries(f"cps.{color}", cps[color]) for color in colors]
    series += [MetricSeries(f"{resource}.{svc}", timeline) for svc in services
               for resource, timeline in levels[svc].items()]
    series += [MetricSeries(f"latency_p95.{color}", latency[color]) for color in colors]
    return TraceDataset(time_index=np.arange(duration_steps), series=tuple(series))


def apply_plan(configs: Mapping[str, ServiceConfig], plan: "ScalingPlan") -> dict[str, ServiceConfig]:
    """Return new service configs with each action's resource configured
    at the action's ``recommended`` level, which ``make_plan`` rounded
    and clamped; a walk still moves the resource around that level.  A
    pod count that is not whole raises ValueError.  Advisory
    (calls-per-second) entries are left untouched.
    """
    out = {name: replace(cfg) for name, cfg in configs.items()}
    for action in plan.actions:
        if action.service not in out:
            raise UnknownServiceError(f"plan references unknown service {action.service!r}")
        if action.resource not in RESOURCE_FIELDS:
            raise ValueError(f"unknown resource {action.resource!r} in plan")
        level = action.recommended
        if action.resource == "pods" and float(level).is_integer():
            level = int(level)  # ServiceConfig refuses a count that is not whole
        out[action.service] = replace(out[action.service], **{RESOURCE_FIELDS[action.resource]: level})
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        check_references(self.graph, self.workloads, self.configs)
        for color, profile in self.workloads.items():
            for start, duration, _ in profile.bursts:
                if start + duration > self.duration_steps:
                    raise ValueError(f"workload {color!r}: burst at step {start} ends at step "
                                     f"{start + duration}, past duration_steps {self.duration_steps}")

    def run(self) -> TraceDataset:
        return simulate(self.graph, self.workloads, self.configs, self.duration_steps, self.seed,
                        noise_sigma=self.noise_sigma)


def scenario_from_dict(doc: dict) -> Scenario:
    """Read a scenario document with ``reader``; a missing, unknown or
    bad value raises ValueError naming where it is."""
    try:
        doc = dict(read(dict, doc, "top level"))
        configs = {name: read(ServiceConfig, svc, f"service {name!r}", name=name)
                   for name, svc in read(dict[str, dict], doc.pop("services"), "service").items()}
        workloads = read(dict[str, WorkloadProfile], doc.pop("workloads"), "workload")
        return read(Scenario, doc, "top level", configs=configs, workloads=workloads)
    except KeyError as exc:
        raise ValueError(f"bad scenario document: missing key {exc}") from exc
    except ValueError as exc:
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
