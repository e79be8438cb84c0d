"""Per-layer metrics from one traced pass of a workload.

A traced pass runs each op of the workload's op set twice, untraced and
traced, in alternating order: the untraced run is the reference for the
exact counts and for the tracing overhead; the traced one puts an
:class:`~repro.obs.Observation` on every governor and timing wrappers
around the public entry points that have no span of their own.  The
wrappers are installed for the traced run only and removed afterwards.
(The ``cold_cli`` pass launches its CLIs with ``--trace FILE`` and
``-X importtime`` instead.)

Units: ``*_ms`` span self times are per op of the workload (a corpus
scenario, an adom_scan round, a cold_cli ``--workers 1`` launch);
``*_ms``/``*_us`` of wrapped calls are per call; counts are totals over
the pass.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import Counter
from typing import Any, Callable, Iterable
from unittest import mock

from repro.analysis import cost
from repro.core.rcdp import decide_rcdp
from repro.engine.context import EvaluationContext
from repro.io import json_io
from repro.obs import Observation, ledger
from repro.relational import backends
from repro.relational.backends.columnar import ColumnarStorage
from repro.relational.backends.python_rows import PythonRowStorage
from repro.relational.backends.sqlite import SQLiteStorage
from repro.runtime import Budget, ExecutionGovernor

import workloads

STORAGE_CLASSES = (PythonRowStorage, ColumnarStorage, SQLiteStorage)
STORAGE_METHODS = ("plan_violates", "derive", "plan_rows_extended")
#: Launches per bare-interpreter and import-only measurement.
FLOOR_LAUNCHES = 5


def public_calls() -> list[tuple[Any, str, Callable[[tuple], str]]]:
    """The wrapped entry points: (owner, attribute, key of one call)."""
    calls: list[tuple[Any, str, Callable[[tuple], str]]] = [
        (json_io, "load_bundle", lambda args: "io.load_bundle"),
        (backends, "create_storage",
         lambda args: f"backends.{backends.resolve_backend_name(args[0])}"
                      f".storage_build"),
        (ledger, "append_record", lambda args: "obs.ledger_append"),
        (cost, "estimate_decision", lambda args: "analysis.estimate"),
    ]
    for cls in STORAGE_CLASSES:
        for method in STORAGE_METHODS:
            key = f"backends.{cls.kind}.{method}"
            calls.append((cls, method, lambda args, key=key: key))
    return calls


class Probe:
    """Call counts and inclusive seconds per wrapped entry point, plus
    every :class:`EvaluationContext` created while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.contexts: list[EvaluationContext] = []

    def install(self, stack: contextlib.ExitStack) -> None:
        """Wrap the entry points until *stack* closes."""
        for owner, name, key_of in public_calls():
            stack.enter_context(mock.patch.object(
                owner, name, self._timed(getattr(owner, name), key_of)))
        stack.enter_context(mock.patch.object(
            EvaluationContext, "__init__",
            self._registering(EvaluationContext.__init__)))

    def _timed(self, original: Callable,
               key_of: Callable[[tuple], str]) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                key = key_of(args)
                self.calls[key] += 1
                self.seconds[key] += time.perf_counter() - started
        return wrapper

    def _registering(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(context: EvaluationContext, *args: Any,
                    **kwargs: Any) -> None:
            original(context, *args, **kwargs)
            self.contexts.append(context)
        return wrapper

    def per_call(self, key: str, scale: float) -> float:
        calls = self.calls[key]
        return self.seconds[key] / calls * scale if calls else 0.0

    def cache_hit_ratio(self) -> float:
        hits = sum(c.statistics.cache_hits for c in self.contexts)
        misses = sum(c.statistics.cache_misses for c in self.contexts)
        return hits / (hits + misses) if hits + misses else 0.0


def observed_governor(limit: int | None) -> ExecutionGovernor:
    governor = ExecutionGovernor(budget=Budget(limit=limit))
    Observation.attach(governor)
    return governor


def self_times(spans: Iterable[dict]) -> Counter:
    """Seconds per span name, minus the time the span's children cover."""
    spans = list(spans)
    children: dict[Any, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals: Counter = Counter()
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            start = max(child["start"], reach, span["start"])
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[span["name"]] += max(0.0, span["end"] - span["start"]
                                    - covered)
    return totals


class LayerTally:
    """Accumulates one traced pass into the per-layer metric names."""

    def __init__(self) -> None:
        self.stats: Counter = Counter()
        self.ticks: Counter = Counter()
        self.spans: list[dict] = []

    def add(self, results: Iterable[Any], governors: Iterable[Any],
            rename: dict[str, str] | None = None) -> None:
        """Fold in decision results and the spans and ticks of their
        observed governors."""
        for result in results:
            for name in workloads.SEMANTIC + workloads.PHYSICAL:
                self.stats[name] += getattr(result.statistics, name)
        for governor in governors:
            if governor is not None:
                self.ticks.update(governor.budget.snapshot())
                self.add_spans(governor.obs.tracer.to_records(), rename)

    def add_spans(self, spans: list[dict],
                  rename: dict[str, str] | None = None) -> None:
        """Fold in one tracer's span records (ids restart per tracer, so
        they are made distinct here)."""
        tracer = len(self.spans)
        rename = rename or {}
        self.spans += [{**s, "name": rename.get(s["name"], s["name"]),
                        "id": (tracer, s["id"]),
                        "parent": (tracer, s["parent"])
                        if s["parent"] is not None else None}
                       for s in spans]

    def metrics(self, ops: int) -> dict[str, float]:
        own = self_times(self.spans)

        def per_op_ms(name: str) -> float:
            return own[name] / ops * 1e3

        valuations = self.stats["valuations_examined"]
        checks = self.stats["constraint_checks"]
        metrics = {
            "analysis.analyze_ms": per_op_ms("analyze"),
            "engine.compile_plans_ms": per_op_ms("compile_plans"),
            "engine.evaluate_Q_ms": per_op_ms("evaluate_Q"),
            "engine.plans_compiled": self.stats["plans_compiled"],
            "engine.index_builds": self.stats["index_builds"],
            "engine.cache_hits": self.stats["engine_cache_hits"],
            "core.valuations": valuations,
            "core.constraint_checks": checks,
            "core.check_ratio": checks / valuations if valuations else 0.0,
            "core.enumerate_valuations_ms": per_op_ms(
                "enumerate_valuations"),
            "core.rcqp.candidate_sets": self.stats["candidate_sets_examined"],
            "core.rcqp.enumerate_units_ms": per_op_ms("enumerate_units"),
            "core.rcqp.enumerate_candidate_sets_ms": per_op_ms(
                "enumerate_candidate_sets"),
            "incomplete.enumerate_extensions_ms": per_op_ms(
                "enumerate_extensions"),
        }
        for kind, amount in self.ticks.items():
            metrics[f"runtime.ticks.{kind}"] = amount
        return metrics


def probe_metrics(probe: Probe) -> dict[str, float]:
    metrics = {
        "io.load_bundle_ms": probe.per_call("io.load_bundle", 1e3),
        "analysis.estimate_ms": probe.per_call("analysis.estimate", 1e3),
        "obs.ledger_append_us": probe.per_call("obs.ledger_append", 1e6),
        "engine.cache_hit_ratio": probe.cache_hit_ratio(),
    }
    for cls in STORAGE_CLASSES:
        prefix = f"backends.{cls.kind}"
        metrics[f"{prefix}.storage_build_ms"] = probe.per_call(
            f"{prefix}.storage_build", 1e3)
        for method in ("plan_violates", "derive"):
            metrics[f"{prefix}.{method}_calls"] = probe.calls[
                f"{prefix}.{method}"]
        for method in STORAGE_METHODS:
            metrics[f"{prefix}.{method}_us"] = probe.per_call(
                f"{prefix}.{method}", 1e6)
    return metrics


# ---------------------------------------------------------------------------
# Traced passes
# ---------------------------------------------------------------------------


def _paired(untraced_op: Callable[[Any], Any],
            traced_op: Callable[[Any], Any], items: list,
            probe: Probe) -> float:
    """Run each item untraced and traced (with *probe* installed), in
    alternating order, and return the traced wall time over the
    untraced one: the tracing overhead, measured in pairs so that both
    sides see the same host speed."""
    seconds = Counter()
    for index, item in enumerate(items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            started = time.perf_counter()
            if traced:
                with contextlib.ExitStack() as stack:
                    probe.install(stack)
                    traced_op(item)
            else:
                untraced_op(item)
            seconds[traced] += time.perf_counter() - started
    return seconds[True] / seconds[False]


def _corpus(bench: workloads.CorpusWorkload) -> dict[str, float]:
    entries = bench.scenarios
    decide = Counter()

    def untraced(entry: dict) -> None:
        op = bench.decide(entry, workloads.untraced_governor)
        decide["seconds"] += op["parts"]["rcdp"] + op["parts"]["rcqp"]
        decide["valuations"] += op["valuations"]

    def traced(entry: dict) -> None:
        op = bench.decide(entry, observed_governor)
        tally.add(op["results"], op["governors"])

    probe, tally = Probe(), LayerTally()
    overhead = _paired(untraced, traced, entries, probe)

    metrics = {**tally.metrics(len(entries)), **probe_metrics(probe)}
    metrics["backends.python.us_per_valuation"] = (
        decide["seconds"] * 1e6 / decide["valuations"])
    metrics["obs.trace_overhead"] = overhead
    metrics["corpus.generate_s"] = statistics.median(bench.generate_times)
    return metrics


def _adom_scan(bench: workloads.AdomScanWorkload) -> dict[str, float]:
    seconds, valuations = Counter(), Counter()

    def untraced(backend: str) -> None:
        for step in bench.scans(backend, workloads.untraced_governor):
            seconds[backend] += step["seconds"]
            valuations[backend] += step["valuations"]

    def traced(backend: str) -> None:
        for step in bench.scans(backend, observed_governor):
            # The count scan's enumeration loop is the incomplete layer's.
            rename = {"enumerate_valuations": "enumerate_extensions"} if (
                step["scan"] == "count") else None
            tally.add([step["result"]], [step["governor"]], rename=rename)
            scans[step["scan"]].add([step["result"]], [step["governor"]])

    probe, tally = Probe(), LayerTally()
    scans = {"missing": LayerTally(), "count": LayerTally()}
    overhead = _paired(untraced, traced, list(workloads.BACKENDS), probe)

    ops = 1  # the pass is one round
    metrics = {**tally.metrics(ops), **probe_metrics(probe)}
    for backend in workloads.BACKENDS:
        metrics[f"backends.{backend}.us_per_valuation"] = (
            seconds[backend] * 1e6 / valuations[backend])
    metrics["obs.trace_overhead"] = overhead
    for scan, scan_tally in scans.items():
        ratio = scan_tally.metrics(ops)["core.check_ratio"]
        bench.detail[f"{scan}_check_ratio"] = (ratio, "ratio")
    return metrics


def _importtime_ms(stderr: str) -> float:
    """Cumulative top-level ``repro`` import time from ``-X importtime``."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2][1:]
        if not name.startswith(" ") and name.split(".")[0] == "repro":
            total += int(parts[1])
    return total / 1e3


def _cold_cli(bench: workloads.ColdCliWorkload) -> dict[str, float]:
    root = bench.root
    floor = [workloads.launch(["-c", "pass"], root)[0]
             for _ in range(FLOOR_LAUNCHES)]
    imports = [workloads.launch(["-c", "import repro.cli"], root)[0]
               for _ in range(FLOOR_LAUNCHES)]
    import_ms = statistics.median(imports) * 1e3
    paths = sorted(bench.paths)
    plan = [(path, workers) for path in paths for workers in (1, 2)]

    # In process, untraced: load + decide at each worker count.
    in_process = {}
    for path in paths:
        started = time.perf_counter()
        bundle = json_io.load_bundle(str(path))
        loaded = time.perf_counter()
        args = (bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"])
        decide_rcdp(*args, workers=1)
        serial = time.perf_counter()
        decide_rcdp(*args, workers=2)
        parallel = time.perf_counter()
        in_process[path, 1] = serial - started
        in_process[path, 2] = (loaded - started) + (parallel - serial)
    overhead = [in_process[path, 2] - in_process[path, 1] for path in paths]

    # Each launch untraced and with --trace FILE, in alternating order.
    untraced, traced = {}, {}
    tally = LayerTally()
    supervision: Counter = Counter()
    for index, (path, workers) in enumerate(plan):
        trace_file = os.path.join(bench.tmp, f"{path.stem}.w{workers}.jsonl")
        for with_trace in ((False, True) if index % 2 == 0
                           else (True, False)):
            if with_trace:
                traced[path, workers] = bench.decide(
                    path, workers, extra=("--trace", trace_file))[0]
            else:
                untraced[path, workers] = bench.decide(path, workers)[0]
        with open(trace_file, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        for record in records:
            if record["type"] == "metrics":
                counters = record.get("counters", {})
                for event in ("crash", "retry", "quarantine"):
                    supervision[event] += counters.get(f"parallel.{event}", 0)
        if workers != 1:
            continue
        spans = [r for r in records if r["type"] == "span"]
        statistics_record = next(r for r in records
                                 if r["type"] == "statistics")
        tally.stats.update({k: v for k, v in
                            statistics_record["fields"].items()
                            if k in workloads.SEMANTIC + workloads.PHYSICAL})
        tally.ticks.update(statistics_record["ticks"])
        tally.add_spans(spans)

    residual = [untraced[key] - in_process[key] for key in plan]
    importtime = [_importtime_ms(bench.decide(
        path, 1, python_flags=("-X", "importtime"))[2].stderr)
        for path in paths]

    probe = Probe()
    with contextlib.ExitStack() as stack:
        probe.install(stack)
        for path in paths:
            bundle = json_io.load_bundle(str(path))
            args = (bundle["query"], bundle["database"], bundle["master"],
                    bundle["constraints"])
            cost.estimate_decision("rcdp", *args)
            decide_rcdp(*args, workers=1)

    metrics = {**tally.metrics(len(paths)), **probe_metrics(probe)}
    untraced_ms = statistics.median(untraced.values()) * 1e3
    metrics.update({
        "cli.interpreter_ms": statistics.median(floor) * 1e3,
        "cli.import_ms": import_ms,
        "cli.importtime_ms": statistics.median(importtime),
        "cli.residual_ms": statistics.median(residual) * 1e3 - import_ms,
        "parallel.overhead_ms": statistics.median(overhead) * 1e3,
        "parallel.crash": supervision["crash"],
        "parallel.retry": supervision["retry"],
        "parallel.quarantine": supervision["quarantine"],
        "obs.trace_overhead": (statistics.median(traced.values()) * 1e3
                               / untraced_ms),
    })
    bench.detail["cli_p50_ms"] = (untraced_ms, "ms")
    return metrics


def traced_pass(bench: workloads.Workload) -> dict[str, float]:
    """The per-layer metrics of one traced pass over *bench*'s op set."""
    return {"corpus": _corpus, "adom_scan": _adom_scan,
            "cold_cli": _cold_cli}[bench.name](bench)
