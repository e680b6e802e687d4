"""Span tracing of latscale from outside the package.

A ``Tracer`` replaces the public entry points of each latscale module
(``simulator``, ``trace_data``, ``nn``, ``tft``, ``krr``, ``scaler``,
``cli``) with wrappers that record one span per call: name, start, end,
parent span and request id.  Module-level functions are re-bound in
every latscale namespace that holds them, so names imported with
``from ... import`` (``cli.make_windows``, ``cli.apply_plan``,
``cli.save_dataset``, ``scaler.krr_predict``, ...) are traced as well.
Methods are patched on their class.

Inner-loop helpers (``trace_data.p95``, ``simulator.utilization``, the
autodiff ops) are deliberately not wrapped: they run thousands of times
per call of their caller and a span each would distort the caller's
time.  Autodiff ops are counted instead by walking the graph from the
loss once per request.

Spans stay in memory and are written once, by ``write``.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  The module name is the layer.
TRACED = [
    ("simulator", "simulate", "simulator.simulate"),
    ("simulator", "apply_plan", "simulator.apply_plan"),
    ("simulator", "Scenario.run", "simulator.Scenario.run"),
    ("simulator", "load_scenario", "simulator.load_scenario"),
    ("simulator", "scenario_from_dict", "simulator.scenario_from_dict"),
    ("simulator", "scenario_to_dict", "simulator.scenario_to_dict"),
    ("trace_data", "make_windows", "trace_data.make_windows"),
    ("trace_data", "load_dataset", "trace_data.load_dataset"),
    ("trace_data", "save_dataset", "trace_data.save_dataset"),
    ("nn.autodiff", "Tensor.backward", "nn.backward"),
    ("nn.layers", "Adam.step", "nn.adam_step"),
    ("nn.layers", "Linear.__call__", "nn.Linear"),
    ("nn.layers", "Grn.__call__", "nn.Grn"),
    ("nn.layers", "GateAddNorm.__call__", "nn.GateAddNorm"),
    ("nn.layers", "LstmCell.step", "nn.LstmCell.step"),
    ("nn.layers", "InterpretableAttention.__call__", "nn.InterpretableAttention"),
    ("nn.layers", "ParamStore.state_dict", "nn.ParamStore.state_dict"),
    ("nn.layers", "ParamStore.load_state_dict", "nn.ParamStore.load_state_dict"),
    ("nn.layers", "ParamStore.to_json", "nn.ParamStore.to_json"),
    ("tft", "TemporalFusionTransformer.__init__", "tft.build"),
    ("tft", "TemporalFusionTransformer.forward", "tft.forward"),
    ("tft", "train", "tft.train"),
    ("tft", "train_with_restarts", "tft.train_with_restarts"),
    ("tft", "evaluate_loss", "tft.evaluate_loss"),
    ("tft", "prepare_batch", "tft.prepare_batch"),
    ("tft", "fit_feature_scaling", "tft.fit_feature_scaling"),
    ("tft", "predict", "tft.predict"),
    ("tft", "predict_many", "tft.predict_many"),
    ("tft", "interpret", "tft.interpret"),
    ("tft", "pooled_forecast_metrics", "tft.pooled_forecast_metrics"),
    ("tft", "persistence_metrics", "tft.persistence_metrics"),
    ("tft", "band_coverage", "tft.band_coverage"),
    ("tft", "save_checkpoint", "tft.save_checkpoint"),
    ("tft", "load_checkpoint", "tft.load_checkpoint"),
    ("krr", "fit_per_feature", "krr.fit_per_feature"),
    ("krr", "grid_search", "krr.grid_search"),
    ("krr", "fit", "krr.fit"),
    ("krr", "predict", "krr.predict"),
    ("scaler", "detect_violation", "scaler.detect_violation"),
    ("scaler", "desired_latency", "scaler.desired_latency"),
    ("scaler", "solve_theta", "scaler.solve_theta"),
    ("scaler", "lbfgsb_minimize", "scaler.lbfgsb_minimize"),
    ("scaler", "least_squares_objective", "scaler.least_squares_objective"),
    ("scaler", "tabulate_model_outputs", "scaler.tabulate_model_outputs"),
    ("scaler", "make_plan", "scaler.make_plan"),
    ("scaler", "ScalingPlan.to_json", "scaler.ScalingPlan.to_json"),
    ("cli", "main", "cli.main"),
    ("cli", "load_run_config", "cli.load_run_config"),
    ("cli", "resolve_scenario", "cli.resolve_scenario"),
    ("cli", "write_json", "cli.write_json"),
    ("cli", "write_forecast_csv", "cli.write_forecast_csv"),
    ("cli", "write_importance_csv", "cli.write_importance_csv"),
]

# Every autodiff op that creates a graph node; anything else lands in "other".
AUTODIFF_OPS = ("add", "sub", "neg", "mul", "matmul", "sigmoid", "tanh", "elu", "softmax",
                "layer_norm", "concat", "narrow", "reshape", "swap_last", "total", "mean",
                "maximum")
LAYERS = ("nn", "tft", "trace_data", "simulator", "krr", "scaler", "cli")
HOOK = "bench.hook"  # benchmark work done inside a traced call, kept out of layer time
THETA_SUBOPTIMAL = 1e-4  # relative gap to the BVLS optimum that counts as not optimal


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _share(flags) -> float:
    flags = [bool(f) for f in flags]
    return sum(flags) / len(flags) if flags else 0.0


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Replaces latscale callables and restores them on ``undo``."""

    def __init__(self):
        self._undo = []

    def replace(self, module, path, make):
        """Swap the callable at ``module.path`` for ``make(original)``.

        A module-level function is re-bound in every loaded latscale
        namespace that holds the same object; a method is set on its class.
        """
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        replacement = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, replacement)
            return
        for name, mod in list(sys.modules.items()):
            if name == "latscale" or name.startswith("latscale."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class TrainProbe:
    """Times every ``tft.train`` call; installed in traced and untraced runs.

    One clock read pair per training run is negligible next to the
    training itself, and it is the only way to see training throughput
    inside ``cli.main``.
    """

    def __init__(self, latscale):
        self.runs = []  # (seconds, windows trained)
        self._patches = Patches()
        self._patches.replace(latscale.tft, "train", self._wrap)

    def _wrap(self, original):
        @functools.wraps(original)
        def train(*args, **kwargs):
            start = time.perf_counter()
            report = original(*args, **kwargs)
            seconds = time.perf_counter() - start
            self.runs.append((seconds, report.n_train_windows * len(report.train_loss)))
            return report
        return train

    def windows_per_s(self) -> float:
        """Median over training runs, so one slow first run does not move it."""
        rates = [windows / seconds for seconds, windows in self.runs]
        return statistics.median(rates) if rates else 0.0

    def close(self):
        self._patches.undo()


class Tracer:
    """Records spans while installed; ``request`` tags the spans of one operation."""

    def __init__(self, latscale):
        self.latscale = latscale
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index or -1, request)
        self._stack: list[int] = []
        self._patches = Patches()
        self.request = None
        # facts gathered by hooks, each tagged with the request
        self.graphs: list = []  # (request, node count, Counter of op name -> nodes)
        self.trainings: list = []  # (request, span index, epochs, best epoch)
        self.solves: list = []  # (request, iterations, objective evaluations, converged)
        self.sim_steps: list = []  # (span index, steps)
        self.window_bytes = 0
        self.parameters = 0

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {
            "nn.backward": self._walk_graph,
            "tft.train": self._record_training,
            "simulator.simulate": self._record_simulation,
            "trace_data.make_windows": self._record_windows,
            "tft.build": self._record_model,
        }
        for module_name, path, span_name in TRACED:
            module = self.latscale
            for part in module_name.split("."):
                module = getattr(module, part)
            if span_name == "scaler.lbfgsb_minimize":
                self._patches.replace(module, path,
                                      lambda f, n=span_name: self._wrap(n, self._count_evals(f)))
            else:
                self._patches.replace(module, path,
                                      lambda f, n=span_name: self._wrap(n, f, hooks.get(n)))

    def uninstall(self):
        self._patches.undo()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, hook=None):
        name_id = self._intern(name)
        hook_id = self._intern(HOOK)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name_id, start, end, parent, self.request)
            if hook is not None:
                hook_start = time.perf_counter_ns()
                hook(index, args, kwargs, result)
                self.spans.append((hook_id, hook_start, time.perf_counter_ns(), parent, self.request))
            return result

        return traced

    def _count_evals(self, lbfgsb_minimize):
        @functools.wraps(lbfgsb_minimize)
        def counted(fun_and_grad, *args, **kwargs):
            evals = 0

            def fun(theta):
                nonlocal evals
                evals += 1
                return fun_and_grad(theta)

            result = lbfgsb_minimize(fun, *args, **kwargs)
            self.solves.append((self.request, result.iterations, evals, bool(result.converged)))
            return result

        return counted

    # -- hooks --------------------------------------------------------------

    def _walk_graph(self, index, args, kwargs, result):
        """Count the nodes reachable from the loss, once per request."""
        if any(g[0] == self.request for g in self.graphs):
            return
        loss = args[0]
        seen: set[int] = set()
        stack = [loss]
        ops: Counter = Counter()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                op = node._backward.__qualname__.split(".")[0]
                ops[op if op in AUTODIFF_OPS else "other"] += 1
            stack.extend(node._parents)
        self.graphs.append((self.request, len(seen), ops))

    def _record_training(self, index, args, kwargs, report):
        self.trainings.append((self.request, index, len(report.train_loss), report.best_epoch))

    def _record_simulation(self, index, args, kwargs, result):
        self.sim_steps.append((index, result.n_steps))

    def _record_model(self, index, args, kwargs, result):
        self.parameters = args[0].parameter_count()

    def _record_windows(self, index, args, kwargs, windows):
        total = sum(w.encoder.values.nbytes + w.decoder.values.nbytes + w.future_target.nbytes
                    for w in windows)
        self.window_bytes = max(self.window_bytes, total)

    # -- analysis -----------------------------------------------------------

    def _durations(self):
        """Inclusive and self nanoseconds per span index."""
        inclusive = [s[2] - s[1] for s in self.spans]
        child = [0] * len(self.spans)
        for s, dur in zip(self.spans, inclusive):
            if s[3] >= 0:
                child[s[3]] += dur
        return inclusive, [d - c for d, c in zip(inclusive, child)]

    def metrics(self, ops, src_lines: int, outcome: dict) -> dict:
        """Per-layer metrics; ``ops`` lists (request, seconds, traced)."""
        inclusive, self_ns = self._durations()
        traced_ops = [o for o in ops if o[2]]
        untraced_ops = [o for o in ops if not o[2]]
        op_ids = {o[0] for o in traced_ops}
        n_ops = max(1, len(traced_ops))
        by_name = defaultdict(list)
        calls = Counter()
        layer_self = Counter()
        root_ns = 0
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            if name == HOOK:
                continue
            by_name[name].append(inclusive[i])
            if s[4] in op_ids:
                calls[name] += 1
                layer_self[name.split(".")[0]] += self_ns[i]
                if s[3] < 0:
                    root_ns += inclusive[i]

        def median_ms(name, scale=1e-6):
            return _median(by_name.get(name, ())) * scale

        m = {}
        graph = self.graphs[0] if self.graphs else (None, 0, Counter())
        m["nn.graph_nodes"] = graph[1]
        for op in AUTODIFF_OPS + ("other",):
            m[f"nn.op.{op}.calls"] = graph[2].get(op, 0)
        m["nn.backward.ms"] = median_ms("nn.backward")
        m["nn.adam_step.ms"] = median_ms("nn.adam_step")
        for block in ("Grn", "LstmCell.step", "InterpretableAttention", "GateAddNorm", "Linear"):
            m[f"nn.{block}.ms"] = median_ms(f"nn.{block}")
            m[f"nn.{block}.calls"] = calls[f"nn.{block}"] / n_ops
        m["nn.parameters"] = self.parameters

        m["tft.epoch_s"] = _median(inclusive[i] * 1e-9 / epochs
                                   for _, i, epochs, _ in self.trainings if epochs)
        for name in ("forward", "prepare_batch", "evaluate_loss", "predict", "interpret",
                     "save_checkpoint"):
            m[f"tft.{name}.ms"] = median_ms(f"tft.{name}")
        m["tft.forward.calls"] = calls["tft.forward"] / n_ops
        m["tft.val_pinball"] = _median(outcome["val_pinball"])
        m["tft.epochs"] = sum(t[2] for t in self.trainings if t[0] in op_ids) / n_ops
        # useful epochs: the best epoch of the last training in each request
        last_best = {}
        for request, _, _, best in self.trainings:
            last_best[request] = best
        all_epochs = sum(t[2] for t in self.trainings)
        m["tft.useful_epoch_share"] = sum(last_best.values()) / all_epochs if all_epochs else 0.0

        m["trace_data.make_windows.ms"] = median_ms("trace_data.make_windows")
        m["trace_data.window_bytes"] = self.window_bytes
        m["trace_data.load_dataset.ms"] = median_ms("trace_data.load_dataset")
        m["trace_data.save_dataset.ms"] = median_ms("trace_data.save_dataset")

        m["simulator.simulate.ms"] = median_ms("simulator.simulate")
        m["simulator.simulate.calls"] = calls["simulator.simulate"] / n_ops
        sim_ns = sum(inclusive[i] for i, _ in self.sim_steps)
        m["simulator.steps_per_s"] = (sum(st for _, st in self.sim_steps) / (sim_ns * 1e-9)
                                      if sim_ns else 0.0)
        m["simulator.apply_plan.ms"] = median_ms("simulator.apply_plan")

        m["krr.fit_per_feature.ms"] = median_ms("krr.fit_per_feature")
        m["krr.grid_search.ms"] = median_ms("krr.grid_search")
        m["krr.fit.calls"] = calls["krr.fit"] / n_ops
        m["krr.fit.us"] = median_ms("krr.fit", 1e-3)

        m["scaler.solve_theta.ms"] = median_ms("scaler.solve_theta")
        m["scaler.lbfgsb.iterations"] = _median(s[1] for s in self.solves)
        m["scaler.lbfgsb.fun_evals"] = _median(s[2] for s in self.solves)
        m["scaler.lbfgsb.converged_share"] = _share(s[3] for s in self.solves)
        excess = outcome["theta"]  # (relative excess, converged) per solve, all operations
        m["scaler.converged_suboptimal"] = _share(c and e > THETA_SUBOPTIMAL for e, c in excess)
        m["scaler.theta_excess"] = _median(e for e, _ in excess)

        for name in ("write_json", "write_forecast_csv", "write_importance_csv"):
            m[f"cli.{name}.ms"] = median_ms(f"cli.{name}")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = layer_self[layer] * 1e-6 / n_ops

        m["outcome.sla_ratio_after"] = _median(outcome["sla_ratio_after"])
        m["outcome.failed_share"] = outcome["failed_share"]

        traced_s = _median(o[1] for o in traced_ops)
        untraced_s = _median(o[1] for o in untraced_ops)
        m["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
        m["trace.spans_per_op"] = sum(calls.values()) / n_ops
        op_ns = sum(o[1] for o in traced_ops) * 1e9
        m["trace.unaccounted_ms"] = (op_ns - root_ns) * 1e-6 / n_ops
        m["src.lines"] = src_lines
        return m

    def write(self, path, ops, facts):
        doc = {
            "facts": facts,
            "ops": [{"request": r, "seconds": s, "traced": t} for r, s, t in ops],
            "names": self.names,
            "span_columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
