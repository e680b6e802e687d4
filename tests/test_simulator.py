import hashlib
import io
import json
import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from latscale import simulator
from latscale.simulator import (
    MEM_PENALTY,
    RHO_CAP,
    UTIL_FLOOR,
    CallGraph,
    Scenario,
    ServiceConfig,
    TracePath,
    UnconfiguredServiceError,
    UnknownServiceError,
    Walk,
    WorkloadProfile,
    _request_noise,
    apply_plan,
    build_robotshop_graph,
    load_scenario,
    resource_bounds,
    resource_level,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    utilization,
)
from latscale.cli import write_json
from latscale.scaler import PlanAction, ScalingPlan
from latscale.trace_data import RESOURCE_MODES, nearest_rank, p95, save_dataset


def tiny_graph():
    return CallGraph((TracePath("green", ("front-end", "cart")),))


def tiny_configs(pods_cart=1, rate_cart=10.0):
    return {
        "front-end": ServiceConfig("front-end", base_service_ms=5.0, per_pod_rate=1000.0, pods=4),
        "cart": ServiceConfig("cart", base_service_ms=20.0, per_pod_rate=rate_cart, pods=pods_cart),
    }


class TestRobotshopGraph:
    def test_purple_path(self):
        graph = build_robotshop_graph()
        purple = [p for p in graph.paths if p.color == "purple"]
        assert purple[0].hops == ("front-end", "shipping", "cart", "cart-db")

    def test_black_path(self):
        graph = build_robotshop_graph()
        black = [p for p in graph.paths if p.color == "black"]
        assert black[0].hops == ("front-end", "payment", "user", "user-db")

    def test_green_has_catalogue_subpath(self):
        graph = build_robotshop_graph()
        green = [p.hops for p in graph.paths if p.color == "green"]
        assert ("front-end", "cart", "cart-db") in green
        assert ("cart", "catalogue", "catalogue-db") in green
        assert graph.services_for("green") == [
            "front-end",
            "cart",
            "cart-db",
            "catalogue",
            "catalogue-db",
        ]

    def test_five_colors(self):
        assert build_robotshop_graph().colors == ["purple", "green", "blue", "red", "black"]

    def test_acyclic(self):
        build_robotshop_graph()  # construction runs the topological check
        with pytest.raises(ValueError, match="cycle"):
            CallGraph((TracePath("x", ("a", "b")), TracePath("y", ("b", "a"))))

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            CallGraph((TracePath("x", ("a", "b", "b")),))

    def test_nodes_and_edges_in_first_seen_order(self):
        graph = build_robotshop_graph()
        assert graph.nodes == ("front-end", "shipping", "cart", "cart-db", "catalogue",
                               "catalogue-db", "user", "user-db", "payment")
        assert graph.edges == (
            ("front-end", "shipping"), ("shipping", "cart"), ("cart", "cart-db"),
            ("front-end", "cart"), ("cart", "catalogue"), ("catalogue", "catalogue-db"),
            ("front-end", "catalogue"), ("front-end", "user"), ("user", "user-db"),
            ("front-end", "payment"), ("payment", "user"),
        )

    def test_a_graph_is_its_paths(self):
        paths = (TracePath("x", ("a", "b")), TracePath("y", ("a", "b")))
        graph = CallGraph(iter(paths))
        assert graph.paths == paths and graph == CallGraph(paths)
        assert graph.edges == (("a", "b"),)


class TestSimulate:
    def test_zero_workload_gives_base_sum(self):
        ds = simulate(
            tiny_graph(),
            {"green": WorkloadProfile(base=0.0)},
            tiny_configs(),
            duration_steps=5,
            seed=1,
            noise_sigma=0.0,
        )
        np.testing.assert_allclose(ds.target("green").values, 25.0)

    def test_latency_formula_at_80_percent_util(self):
        # lambda=8, one pod serving 10/s -> rho=0.8 -> 20/(1-0.8) = 100 ms at cart.
        ds = simulate(
            tiny_graph(),
            {"green": WorkloadProfile(base=8.0)},
            tiny_configs(),
            duration_steps=3,
            seed=1,
            noise_sigma=0.0,
        )
        fe = 5.0 / (1 - 8.0 / 4000.0)
        np.testing.assert_allclose(ds.target("green").values, fe + 100.0)

    def test_doubling_pods_halves_utilization(self):
        assert utilization(8.0, 2, 10.0, 1.0) == pytest.approx(utilization(8.0, 1, 10.0, 1.0) / 2)

    def test_unconfigured_service(self):
        with pytest.raises(UnconfiguredServiceError) as exc:
            simulate(
                tiny_graph(),
                {"green": WorkloadProfile(base=1.0)},
                {"front-end": tiny_configs()["front-end"]},
                duration_steps=2,
                seed=0,
            )
        assert isinstance(exc.value, ValueError)

    def test_determinism_hash_equal(self):
        scenario = demo_scenario()
        first, second = scenario.run(), scenario.run()
        digests = []
        for ds in (first, second):
            buf = io.StringIO()
            buf.write(",".join(s.name for s in ds.series) + "\n")
            for s in ds.series:
                buf.write(",".join(repr(v) for v in s.values) + "\n")
            digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        assert digests[0] == digests[1]

    def test_seed_changes_output(self):
        scenario = demo_scenario()
        a = replace(scenario, seed=1).run().target("green").values
        b = replace(scenario, seed=2).run().target("green").values
        assert not np.array_equal(a, b)

    def test_pod_monotonicity_noise_off(self):
        for pods in (1, 2, 3):
            lo = simulate(
                tiny_graph(),
                {"green": WorkloadProfile(base=8.0, amplitude=1.0)},
                tiny_configs(pods_cart=pods),
                duration_steps=50,
                seed=3,
                noise_sigma=0.0,
            )
            hi = simulate(
                tiny_graph(),
                {"green": WorkloadProfile(base=8.0, amplitude=1.0)},
                tiny_configs(pods_cart=pods + 1),
                duration_steps=50,
                seed=3,
                noise_sigma=0.0,
            )
            assert np.all(hi.target("green").values <= lo.target("green").values + 1e-12)

    def test_saturation_bounded_by_util_floor(self):
        ds = simulate(
            tiny_graph(),
            {"green": WorkloadProfile(base=1000.0)},  # rho far beyond the cap
            tiny_configs(),
            duration_steps=2,
            seed=0,
            noise_sigma=0.0,
        )
        cart_worst = 20.0 / 0.02
        assert np.all(ds.target("green").values <= cart_worst + 5.0 / 0.02)
        assert ds.target("green").values[0] >= cart_worst

    def test_walks_stay_within_resource_bounds(self):
        configs = tiny_configs()
        configs["cart"].pods = 4
        configs["cart"].pods_max = 6
        configs["cart"].pods_walk = Walk(period=3, low=0.1, high=3.0)
        ds = simulate(
            tiny_graph(),
            {"green": WorkloadProfile(base=5.0)},
            configs,
            duration_steps=40,
            seed=9,
        )
        pods = ds.get("pods.cart").values
        assert pods.min() >= 1 and pods.max() <= 6
        assert np.all(pods == np.round(pods))

    def test_walk_streams_follow_the_service_index(self):
        # each walking service draws from the stream seeded with its index
        # among the sorted services, resources in pods, cpu, mem order,
        # however many services before it walk
        s = TestReferenceLoop.bundled()
        configs = dict(s.configs)
        configs["cart"] = replace(configs["cart"], pods_walk=Walk(period=7, low=0.5, high=1.5),
                                  cpu_walk=Walk(period=11, low=0.8, high=2.0))
        configs["user"] = replace(configs["user"], cpu_walk=Walk(period=5, low=0.6, high=1.2))
        ds = simulate(s.graph, s.workloads, configs, 60, 4)
        for idx, svc in enumerate(sorted(s.graph.nodes)):
            cfg = configs[svc]
            rng = np.random.default_rng([4, 2, idx])
            for resource, (lo, hi) in resource_bounds(cfg).items():
                base = getattr(cfg, simulator.RESOURCE_FIELDS[resource])
                walk = getattr(cfg, f"{resource}_walk")
                raw = np.full(60, float(base)) if walk is None else base * walk.factors(60, rng)
                expected = resource_level(resource, raw, lo, hi)
                assert ds.get(f"{resource}.{svc}").values.tobytes() == expected.tobytes()
        assert len(set(ds.get("cpu.cart").values)) > 1 and len(set(ds.get("pods.cart").values)) > 1

    def test_dataset_satisfies_invariants(self):
        ds = demo_scenario().run()
        assert ds.traces == sorted(["purple", "green", "blue", "red", "black"], key=ds.traces.index)
        assert len({s.microservice for s in ds.series} - {None}) == 9


def reference_latency(graph, workload, configs, duration_steps, seed, noise_sigma):
    """``simulate``'s dataset plus its per-trace p95 series recomputed one
    step at a time with scalar queueing formulas, the reference that
    ``simulate`` must match bit for bit."""
    ds = simulate(graph, workload, configs, duration_steps, seed, noise_sigma)
    colors = graph.colors
    trace_services = {color: graph.services_for(color) for color in colors}
    services = sorted({svc for svcs in trace_services.values() for svc in svcs})
    noise_rng = np.random.default_rng([seed, 3])
    latency = {color: np.zeros(duration_steps) for color in colors}
    for t in range(duration_steps):
        rate_at = {svc: 0.0 for svc in services}
        for color in colors:
            for svc in trace_services[color]:
                rate_at[svc] += ds.get(f"cps.{color}").values[t]
        det = {}
        for svc in services:
            cfg = configs[svc]
            pods = ds.get(f"pods.{svc}").values[t]
            cpu = ds.get(f"cpu.{svc}").values[t]
            rho = rate_at[svc] / (pods * cfg.per_pod_rate * cpu)
            det[svc] = cfg.base_service_ms / max(UTIL_FLOOR, 1.0 - min(rho, RHO_CAP))
            if ds.get(f"mem.{svc}").values[t] < cfg.mem_floor_bytes:
                det[svc] *= MEM_PENALTY
        for color in sorted(colors):
            hops = np.array([det[svc] for svc in trace_services[color]])
            n_req = max(1, int(round(ds.get(f"cps.{color}").values[t])))
            if noise_sigma > 0:
                noise = noise_rng.lognormal(0.0, noise_sigma, size=(n_req, len(hops)))
                requests = (hops[None, :] * noise).sum(axis=1)
            else:
                requests = np.full(n_req, hops.sum())
            latency[color][t] = p95(requests)
    return ds, latency


def chain_scenario(length):
    """Two traces over a chain of ``length`` services, the longer trace
    through all of them: a custom graph wider than the bundled ones."""
    names = tuple(f"svc{i}" for i in range(length))
    graph = CallGraph((TracePath("green", names),
                       TracePath("blue", names[: max(2, length // 2)])))
    configs = {name: ServiceConfig(name, base_service_ms=2.0 + i, per_pod_rate=40.0, pods=2)
               for i, name in enumerate(names)}
    workload = {"green": WorkloadProfile(base=20.0, amplitude=8.0, period=13.0),
                "blue": WorkloadProfile(base=9.0, noise_sigma=2.0)}
    return graph, workload, configs


class TestReferenceLoop:
    """``simulate`` computes whole arrays at once; the per-step loop
    above is the reference it must reproduce exactly."""

    @staticmethod
    def bundled(name="sla_demo"):
        with resources.as_file(resources.files("latscale") / "scenarios" / f"{name}.json") as p:
            return load_scenario(p)

    @staticmethod
    def assert_matches(ds, latency):
        for color, values in latency.items():
            np.testing.assert_array_equal(ds.target(color).values, values)

    @pytest.mark.parametrize("noise_sigma", [0.05, 0.0])
    def test_sla_demo(self, noise_sigma):
        s = self.bundled()
        self.assert_matches(*reference_latency(s.graph, s.workloads, s.configs, 80, 3, noise_sigma))

    @pytest.mark.parametrize("noise_sigma", [0.05, 0.3])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["sla_demo", "robotshop_green", "cart_importance"])
    def test_bundled_scenario(self, name, seed, noise_sigma):
        s = self.bundled(name)
        self.assert_matches(*reference_latency(s.graph, s.workloads, s.configs, 80, seed, noise_sigma))

    @pytest.mark.parametrize("length", range(2, 13))
    def test_custom_graph_chain(self, length):
        graph, workload, configs = chain_scenario(length)
        self.assert_matches(*reference_latency(graph, workload, configs, 60, 5, 0.2))

    def test_rate_rounding_to_zero_sends_one_request(self):
        workload = {"green": WorkloadProfile(base=0.2, amplitude=0.3, period=7.0)}
        ds, latency = reference_latency(tiny_graph(), workload, tiny_configs(), 40, 1, 0.3)
        assert np.all(np.round(ds.get("cps.green").values) == 0)
        self.assert_matches(ds, latency)

    def test_burst(self):
        s = self.bundled()
        workloads = dict(s.workloads)
        workloads["green"] = replace(workloads["green"], bursts=((30, 10, 400.0),))
        ds, latency = reference_latency(s.graph, workloads, s.configs, 80, 3, 0.05)
        assert ds.get("cps.green").values[30:40].min() > 400.0
        self.assert_matches(ds, latency)

    def test_memory_floor_penalty(self):
        s = self.bundled()
        configs = dict(s.configs)
        cart = configs["cart"]
        configs["cart"] = replace(cart, mem_floor_bytes=cart.mem_bytes,
                                  mem_walk=Walk(period=10, low=0.5, high=1.5))
        ds, latency = reference_latency(s.graph, s.workloads, configs, 80, 3, 0.05)
        mem = ds.get("mem.cart").values
        assert np.any(mem < cart.mem_bytes) and np.any(mem >= cart.mem_bytes)
        self.assert_matches(ds, latency)


def numpy_noisy_p95(hops, cps, noise):
    """The per-trace p95 with every request summed by numpy over the short
    last axis of the (steps x requests x hops) product, the form
    ``_noisy_p95`` must equal; ``noise`` is ``_request_noise``'s output."""
    order = sorted(hops)
    latency = {}
    for color, blocks in zip(order, noise):
        latency[color] = np.empty(len(cps[color]))
        for steps, block in blocks:
            requests = (hops[color][steps, None] * block).sum(axis=2)
            rank = nearest_rank(95.0, block.shape[1])
            latency[color][steps] = np.partition(requests, rank - 1, axis=1)[:, rank - 1]
    return latency


class TestNoisyP95:
    """``_noisy_p95`` adds whole per-hop columns in numpy's order up to 8
    hops and keeps numpy's sum beyond; either way it equals numpy's sum
    over the hops to the last bit, inf and nan noise included."""

    @staticmethod
    def spiked(noise, rng, special):
        """``noise`` with about 10% of its entries set to ``special``."""
        out = []
        for blocks in noise:
            spiked_blocks = []
            for steps, block in blocks:
                block = block.copy()
                block[rng.random(block.shape) < 0.1] = special
                spiked_blocks.append((steps, block))
            out.append(tuple(spiked_blocks))
        return tuple(out)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_equals_numpy_sum_over_hops(self, width, monkeypatch):
        rng = np.random.default_rng(width)
        steps = 80
        hops = {"a": rng.uniform(1.0, 50.0, (steps, width)),
                "b": rng.uniform(1.0, 50.0, (steps, width))}
        cps = {"a": rng.uniform(0.0, 30.0, steps), "b": rng.uniform(0.0, 12.0, steps)}
        counts = np.stack([np.maximum(1, np.round(cps[c])).astype(np.int64) for c in "ab"], axis=1)
        for special, check in ((np.inf, np.isinf), (np.nan, np.isnan)):
            noise = self.spiked(_request_noise(7, 0.2, counts.tobytes(), (width, width)), rng, special)
            monkeypatch.setattr(simulator, "_request_noise", lambda *args: noise)
            got = simulator._noisy_p95(hops, cps, 7, 0.2)
            want = numpy_noisy_p95(hops, cps, noise)
            assert all(got[c].tobytes() == want[c].tobytes() for c in "ab")
            assert any(check(got[c]).any() for c in "ab")


def dataset_bytes(ds):
    return b"".join(s.name.encode() + s.values.tobytes() for s in ds.series)


class TestNoiseCache:
    """``simulate`` keeps the request noise of the layout it drew last;
    a run that reuses it must equal one that draws it afresh."""

    bundled = staticmethod(TestReferenceLoop.bundled)

    @staticmethod
    def run(s, seed, noise_sigma, configs=None, workloads=None):
        return simulate(s.graph, workloads or s.workloads, configs or s.configs,
                        s.duration_steps, seed, noise_sigma)

    @pytest.mark.parametrize("cold_first", [True, False])
    @pytest.mark.parametrize("noise_sigma", [0.05, 0.3])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("name", ["sla_demo", "robotshop_green", "cart_importance"])
    def test_cold_and_warm_runs_are_byte_identical(self, name, seed, noise_sigma, cold_first):
        s = self.bundled(name)
        other = self.bundled("cart_importance" if name == "sla_demo" else "sla_demo")

        def cold():
            _request_noise.cache_clear()
            return dataset_bytes(self.run(s, seed, noise_sigma))

        def warm():
            self.run(other, seed + 1, noise_sigma)  # another layout in between
            self.run(s, seed, noise_sigma)
            hits = _request_noise.cache_info().hits
            out = dataset_bytes(self.run(s, seed, noise_sigma))
            assert _request_noise.cache_info().hits == hits + 1
            return out

        first, second = (cold(), warm()) if cold_first else (warm(), cold())
        assert first == second

    def test_resimulation_under_a_pods_plan_equals_a_cold_run(self):
        s = self.bundled()
        self.run(s, 1, s.noise_sigma)
        plan = TestApplyPlan.make_plan([PlanAction("cart", "pods", 2, 2.0, 4)])
        configs = apply_plan(s.configs, plan)
        hits = _request_noise.cache_info().hits
        warm = self.run(s, 1, s.noise_sigma, configs=configs)
        assert _request_noise.cache_info().hits == hits + 1
        _request_noise.cache_clear()
        cold = self.run(s, 1, s.noise_sigma, configs=configs)
        assert dataset_bytes(warm) == dataset_bytes(cold)
        assert not np.array_equal(warm.target("green").values,
                                  self.run(s, 1, s.noise_sigma).target("green").values)

    def test_cached_blocks_are_read_only(self):
        counts = np.array([[2, 3], [2, 1]], dtype=np.int64).tobytes()
        noise = _request_noise(0, 0.1, counts, (2, 3))
        assert _request_noise(0, 0.1, counts, (2, 3)) is noise
        steps, block = noise[0][0]
        assert block.shape == (2, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            steps[0] = 1

    def test_sigma_seed_or_one_request_count_misses(self):
        s = self.bundled()
        burst = dict(s.workloads)
        burst["green"] = replace(burst["green"], bursts=((30, 1, 5.0),))
        self.run(s, 1, 0.1)
        for seed, noise_sigma, workloads in ((1, 0.2, None), (2, 0.1, None), (1, 0.1, burst)):
            misses = _request_noise.cache_info().misses
            self.run(s, seed, noise_sigma, workloads=workloads)
            assert _request_noise.cache_info().misses == misses + 1
            self.run(s, 1, 0.1)


class TestApplyPlan:
    @staticmethod
    def make_plan(actions):
        return ScalingPlan(
            trace="green",
            sla_ms=100.0,
            violation_fraction=0.2,
            theta=[1.0] * (len(actions) + 1),
            converged=True,
            objective_value=0.0,
            actions=actions,
            advisories=[],
        )

    def test_factor_two_doubles_pods(self):
        configs = tiny_configs(pods_cart=2)
        plan = self.make_plan([PlanAction("cart", "pods", 2, 2.0, 4)])
        out = apply_plan(configs, plan)
        assert out["cart"].pods == 4
        assert configs["cart"].pods == 2  # input untouched

    def test_clamp_to_minimum_one_pod(self):
        configs = tiny_configs(pods_cart=1)
        plan = self.make_plan([PlanAction("cart", "pods", 1, 0.1, 1)])
        assert apply_plan(configs, plan)["cart"].pods == 1

    def test_identity_factor(self):
        configs = tiny_configs(pods_cart=3)
        plan = self.make_plan([PlanAction("cart", "pods", 3, 1.0, 3)])
        assert apply_plan(configs, plan)["cart"].pods == 3

    def test_unknown_service(self):
        with pytest.raises(UnknownServiceError):
            apply_plan(tiny_configs(), self.make_plan([PlanAction("nope", "pods", 1, 2.0, 2)]))

    def test_pods_must_be_whole(self):
        plan = self.make_plan([PlanAction("cart", "pods", 2, 2.25, 4.5)])
        with pytest.raises(ValueError, match="pods must be a positive integer"):
            apply_plan(tiny_configs(pods_cart=2), plan)

    def test_unknown_resource(self):
        with pytest.raises(ValueError, match="unknown resource 'disk'"):
            apply_plan(tiny_configs(), self.make_plan([PlanAction("cart", "disk", 1, 2.0, 2)]))

    def test_vertical_scaling_clamped(self):
        configs = tiny_configs()
        configs["cart"].cpu_cores = 2.0
        configs["cart"].cpu_max_cores = 3.0
        plan = self.make_plan([PlanAction("cart", "cpu", 2.0, 4.0, 3.0)])
        assert apply_plan(configs, plan)["cart"].cpu_cores == 3.0


def demo_scenario(duration=120, seed=11):
    graph = build_robotshop_graph()
    configs = {
        name: ServiceConfig(name, base_service_ms=6.0, per_pod_rate=40.0, pods=4)
        for name in graph.nodes
    }
    configs["cart"] = ServiceConfig("cart", base_service_ms=10.0, per_pod_rate=15.0, pods=3,
                                    pods_walk=Walk(period=20, low=0.6, high=1.6))
    workloads = {
        color: WorkloadProfile(base=12.0, amplitude=5.0, period=60.0, noise_sigma=0.5)
        for color in graph.colors
    }
    return Scenario(configs=configs, workloads=workloads, duration_steps=duration, seed=seed)


class TestScenarioFiles:
    def test_roundtrip(self, tmp_path):
        scenario = demo_scenario()
        write_json(scenario_to_dict(scenario), tmp_path / "s.json")
        back = load_scenario(tmp_path / "s.json")
        assert scenario_to_dict(back) == scenario_to_dict(scenario)
        a = scenario.run().target("green").values
        b = back.run().target("green").values
        np.testing.assert_array_equal(a, b)

    def test_bad_scenario_raises(self):
        with pytest.raises(ValueError, match="bad scenario"):
            scenario_from_dict({"workloads": {}})

    def test_json_int_in_float_field_reads_as_float(self):
        doc = scenario_to_dict(demo_scenario())
        doc["services"]["cart"]["cpu_cores"] = 2
        back = scenario_to_dict(scenario_from_dict(doc))["services"]["cart"]["cpu_cores"]
        assert back == 2.0 and isinstance(back, float)

    @pytest.mark.parametrize("level", ["top", "service", "walk", "workload", "graph", "graph-path"])
    def test_unknown_key_raises(self, level):
        doc = scenario_to_dict(demo_scenario())
        target = {
            "top": doc,
            "service": doc["services"]["cart"],
            "walk": doc["services"]["cart"]["pods_walk"],
            "workload": doc["workloads"]["green"],
            "graph": doc["graph"],
            "graph-path": doc["graph"]["paths"][0],
        }[level]
        target["surplus"] = 1
        with pytest.raises(ValueError, match="unknown key.*'surplus'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("graph, says", [
        (None, "top level graph: expected an object, got null"),
        ({"paths": {"color": "green"}}, "top level graph paths: expected a list"),
        ({"paths": [{"color": "green", "hops": ["a", "b"]}, {"color": "red", "hops": ["a"]}]},
         "top level graph paths 1: path 'red' needs at least two hops"),
        ({"paths": [{"color": "g", "hops": ["a", "b"]}, {"color": "g", "hops": ["b", "a"]}]},
         "top level graph: call graph contains a cycle"),
        ({"paths": []}, "top level graph: call graph has no paths"),
    ], ids=["null", "not-a-list", "short-path", "cycle", "no-paths"])
    def test_graph_errors_name_where(self, graph, says):
        doc = scenario_to_dict(demo_scenario())
        doc["graph"] = graph
        with pytest.raises(ValueError, match=re.escape(f"bad scenario document: {says}")):
            scenario_from_dict(doc)

    def test_missing_seed_reads_as_zero(self):
        doc = scenario_to_dict(demo_scenario())
        del doc["seed"]
        assert scenario_from_dict(doc).seed == 0

    def test_output_is_loadable_dataset(self, tmp_path):
        ds = demo_scenario(duration=30).run()
        save_dataset(ds, tmp_path / "d.csv")
        from latscale.trace_data import load_dataset

        back = load_dataset(tmp_path / "d.csv")
        np.testing.assert_array_equal(back.target("green").values, ds.target("green").values)

    @pytest.mark.parametrize("name", ["cart_importance", "robotshop_green", "sla_demo"])
    def test_bundled_dataset_round_trips(self, tmp_path, name):
        from latscale.trace_data import load_dataset

        ds = TestReferenceLoop.bundled(name).run()
        save_dataset(ds, tmp_path / "d.csv")
        back = load_dataset(tmp_path / "d.csv")
        describe = lambda d: [(s.name, s.kind, s.microservice) for s in d.series]  # noqa: E731
        assert describe(back) == describe(ds)
        np.testing.assert_array_equal(back.time_index, ds.time_index)
        for a, b in zip(ds.series, back.series):
            assert a.values.tobytes() == b.values.tobytes(), a.name


class TestScenarioChecks:
    """Scenario values the simulator cannot honour are rejected when the
    scenario is built, which is when a scenario file is loaded."""

    def load(self, duration_steps=120, bursts=(), edit=None):
        doc = scenario_to_dict(demo_scenario())
        doc["duration_steps"] = duration_steps
        doc["workloads"]["green"]["bursts"] = [list(b) for b in bursts]
        if edit is not None:
            edit(doc)
        return scenario_from_dict(doc)

    def test_zero_duration(self):
        with pytest.raises(ValueError, match="duration_steps must be >= 1"):
            self.load(duration_steps=0)

    def test_negative_burst_start(self):
        with pytest.raises(ValueError, match="workload 'green': burst at step -1"):
            self.load(bursts=[(-1, 3, 5.0)])

    def test_empty_burst(self):
        with pytest.raises(ValueError, match="duration an integer >= 1"):
            self.load(bursts=[(10, 0, 5.0)])

    def test_burst_past_horizon(self):
        with pytest.raises(ValueError, match="ends at step 125, past duration_steps 120"):
            self.load(bursts=[(115, 10, 5.0)])

    def test_burst_ending_at_horizon_is_kept(self):
        bursts = self.load(bursts=[(110, 10, 5.0)]).workloads["green"].bursts
        assert bursts == ((110, 10, 5.0),)

    def test_burst_numbers_are_coerced(self):
        # a JSON 10.0 start would otherwise reach simulate as a slice index
        (burst,) = self.load(bursts=[(10.0, 3.0, 5)]).workloads["green"].bursts
        assert burst == (10, 3, 5.0) and list(map(type, burst)) == [int, int, float]

    def test_integral_numbers_load_as_ints(self):
        scenario = self.load(duration_steps=120.0,
                             edit=lambda doc: doc["services"]["cart"].update(pods=3.0))
        assert (scenario.duration_steps, scenario.configs["cart"].pods) == (120, 3)
        assert type(scenario.duration_steps) is int and type(scenario.configs["cart"].pods) is int

    @pytest.mark.parametrize("period", [0.0, -60.0])
    def test_non_positive_period(self, period):
        with pytest.raises(ValueError, match="workload 'green': period must be > 0"):
            self.load(edit=lambda doc: doc["workloads"]["green"].update(period=period))

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="top level: noise_sigma must be >= 0"):
            self.load(edit=lambda doc: doc.update(noise_sigma=-0.1))
        with pytest.raises(ValueError, match="workload 'green': noise_sigma must be >= 0"):
            self.load(edit=lambda doc: doc["workloads"]["green"].update(noise_sigma=-0.1))

    def test_trace_without_workload(self):
        with pytest.raises(ValueError, match="no workload profile for trace 'green'"):
            self.load(edit=lambda doc: doc["workloads"].pop("green"))

    def test_service_without_configuration(self):
        with pytest.raises(ValueError) as exc:
            self.load(edit=lambda doc: doc["services"].pop("cart"))
        assert "service 'cart' on trace 'purple' has no configuration" in str(exc.value)
        assert "missing key" not in str(exc.value)

    @pytest.mark.parametrize("edit, says", [
        (lambda d: d["workloads"]["green"].update(bursts=[[100, 50, math.nan]]),
         "workload 'green' bursts 0 2: nan is not a finite number"),
        (lambda d: d["services"]["cart"].update(pods_walk={"period": 20, "low": math.nan,
                                                           "high": 1.5}),
         "service 'cart' pods_walk low: nan is not a finite number"),
        (lambda d: d["workloads"]["green"].update(base=math.nan),
         "workload 'green' base: nan is not a finite number"),
        (lambda d: d.update(noise_sigma=math.inf), "top level noise_sigma: inf is not a finite number"),
        (lambda d: d["services"]["cart"].update(cpu_cores=math.nan),
         "service 'cart' cpu_cores: nan is not a finite number"),
        (lambda d: d["services"]["cart"].update(mem_bytes=math.inf),
         "service 'cart' mem_bytes: inf is not a finite number"),
        (lambda d: d["services"]["cart"].update(pods=-math.inf),
         "service 'cart' pods: -inf is not a finite number"),
    ], ids=["burst", "walk", "base", "noise", "cpu", "mem", "pods"])
    def test_non_finite_numbers_rejected_at_load(self, edit, says):
        doc = json.loads((resources.files("latscale") / "scenarios" / "sla_demo.json").read_text())
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(f"bad scenario document: {says}")):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("edit, says", [
        (lambda d: d["workloads"]["green"].update(seed=1.5),
         "workload 'green' seed: expected an integer, got 1.5"),
        (lambda d: d["workloads"]["green"].update(seed="x"),
         "workload 'green' seed: expected an integer, got \"x\""),
        (lambda d: d["workloads"]["green"].update(seed=True),
         "workload 'green' seed: expected an integer, got true"),
        (lambda d: d["workloads"]["green"].update(bursts=[[True, True, 5.0]]),
         "workload 'green' bursts 0 0: expected an integer, got true"),
        (lambda d: d["workloads"]["green"].update(bursts=[[10, 5.0]]),
         "workload 'green' bursts 0: expected a list of 3, got [10, 5.0]"),
    ], ids=["seed-fraction", "seed-string", "seed-bool", "burst-bool", "burst-pair"])
    def test_optional_and_tuple_numbers_checked_at_load(self, edit, says):
        doc = json.loads((resources.files("latscale") / "scenarios" / "sla_demo.json").read_text())
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(f"bad scenario document: {says}")):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("seed, reads", [(None, None), (7, 7), (7.0, 7)])
    def test_optional_seed_reads_as_int_or_none(self, seed, reads):
        green = self.load(edit=lambda d: d["workloads"]["green"].update(seed=seed)).workloads["green"]
        assert green.seed == reads and type(green.seed) is type(reads)

    def test_graph_needs_a_path(self):
        with pytest.raises(ValueError, match="call graph has no paths"):
            CallGraph(())

    def test_unconfigured_service_is_a_value_error(self):
        scenario = demo_scenario()
        del scenario.configs["cart"]
        with pytest.raises(UnconfiguredServiceError) as exc:
            Scenario(scenario.configs, scenario.workloads, scenario.duration_steps)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "service 'cart' on trace 'purple' has no configuration"


class TestWorkloadShapes:
    def test_bursts_add_to_rate(self):
        profile = WorkloadProfile(base=10.0, bursts=((5, 3, 20.0),))
        rates = profile.rates(12, np.random.default_rng(0))
        np.testing.assert_allclose(rates[:5], 10.0)
        np.testing.assert_allclose(rates[5:8], 30.0)
        np.testing.assert_allclose(rates[8:], 10.0)

    def test_rates_never_negative(self):
        profile = WorkloadProfile(base=1.0, amplitude=5.0, period=20.0, noise_sigma=3.0)
        rates = profile.rates(500, np.random.default_rng(1))
        assert rates.min() >= 0.0


class TestVerticalResources:
    def test_cpu_scales_capacity_linearly(self):
        # doubling cores halves utilization at fixed load
        assert utilization(8.0, 1, 10.0, 2.0) == pytest.approx(utilization(8.0, 1, 10.0, 1.0) / 2)

    def test_memory_floor_doubles_latency(self):
        configs = tiny_configs()
        configs["cart"].mem_floor_bytes = 1e9
        configs["cart"].mem_bytes = 0.5e9  # below the floor
        starved = simulate(tiny_graph(), {"green": WorkloadProfile(base=0.0)}, configs,
                           duration_steps=3, seed=0, noise_sigma=0.0)
        healthy = simulate(tiny_graph(), {"green": WorkloadProfile(base=0.0)}, tiny_configs(),
                           duration_steps=3, seed=0, noise_sigma=0.0)
        delta = starved.target("green").values - healthy.target("green").values
        np.testing.assert_allclose(delta, 20.0)  # cart base 20 ms doubled

    def test_step_seconds_roundtrips(self, tmp_path):
        scenario = demo_scenario()
        scenario.step_seconds = 5.0
        write_json(scenario_to_dict(scenario), tmp_path / "s.json")
        assert load_scenario(tmp_path / "s.json").step_seconds == 5.0


def test_resource_kinds_are_trace_datas():
    written = {s.kind: None for s in demo_scenario(duration=5).run().series if s.microservice}
    assert tuple(resource_bounds()) == tuple(written) == RESOURCE_MODES["both"]
    assert tuple(simulator.RESOURCE_FIELDS) == RESOURCE_MODES["both"]
