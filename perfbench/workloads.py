"""The three workloads: set-up, the closed measuring loop, and the checks.

Each workload is one client in a closed loop: the next op starts when
the previous one has finished and been checked.  The loop runs whole
cycles (every op of the workload's op set once, in order), so every run
weighs the op kinds alike.  Every op is checked for correctness, and its
exact counters (valuations, constraint checks, candidate sets, per-kind
governor ticks, engine counters) must repeat exactly each time the same
op runs again; any difference is a failed op.

Timings are reported at a reference speed: each step of an op and each
set-up is scaled by the calibration loop that a helper process runs
before and after it (see ``calibrator``).  The raw op latency is kept
on a summary line, so a gap between the two shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus, RCQPStatus
from repro.corpus import GENERATOR_VERSION, generate_corpus
from repro.engine.keys import decision_key
from repro.incomplete.counting import (count_completing_extensions,
                                       count_missing_answers)
from repro.io import json_io
from repro.mdm.scenario import CRMScenario, CustomerRecord
from repro.obs import ledger
from repro.runtime import Budget, ExecutionGovernor

from calibrator import REFERENCE_S

BACKENDS = ("python", "columnar", "sqlite")
#: Counters that must agree across backends and worker counts.
SEMANTIC = ("valuations_examined", "constraint_checks",
            "candidate_sets_examined", "units_examined")
#: Backend-specific counters: compared per backend, never across.
PHYSICAL = ("plans_compiled", "index_builds", "engine_cache_hits",
            "delta_evaluations", "full_evaluations")

CORPUS_PER_FAMILY = 25
#: decide_rcqp's governor tick budget in the corpus workload.  RCQP is
#: NEXPTIME-complete, so a deadline would make outcomes depend on speed;
#: a tick budget keeps every outcome, and so every check, deterministic.
RCQP_TICKS = 2000

#: A governor factory: given a tick limit (None: unlimited), return the
#: governor a decision runs under, or None for no governor.
GovernorFactory = Callable[[int | None], "ExecutionGovernor | None"]


def untraced_governor(limit: int | None) -> ExecutionGovernor | None:
    return None if limit is None else ExecutionGovernor(
        budget=Budget(limit=limit))


def counters(stats: Any, names: tuple[str, ...]) -> dict[str, int]:
    return {name: getattr(stats, name) for name in names}


def input_digest(bundle: dict) -> str:
    """Content digest of one decision input, via ``repro.engine.keys``."""
    key = decision_key("input", bundle["query"], bundle["database"],
                       bundle["master"], *bundle["constraints"])
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def quantile(values: list[float], fraction: float) -> float:
    """Linear-interpolated quantile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Checks:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._reference: dict[Any, Any] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)
            del self.messages[20:]

    def exact(self, key: Any, value: Any) -> list[str]:
        """The first value seen for *key* is the reference; any later
        different value is drift."""
        reference = self._reference.setdefault(key, value)
        return [] if reference == value else [
            f"exact counts drifted for {key}: {reference} != {value}"]


class Workload:
    """Shared bookkeeping: the calibrated loop, checks and summary.

    A subclass sets up its inputs in :meth:`setup_once`, runs op number
    *index* of its cycle in :meth:`run_op`, and names the summary lines
    in :meth:`finish`.  An op is one or more steps; the loop calibrates
    between steps, so a long op is calibrated piecewise.
    """

    name = ""
    #: Set-up runs this many times per run; ``setup_s`` is the median.
    setup_reps = 7

    def __init__(self, *, seed: int, tmp: str, root: Path,
                 calibrate: Callable[[], float]) -> None:
        self.seed = seed
        self.tmp = tmp
        self.root = root
        #: Seconds of one calibration loop run now, in the helper.
        self.calibrate = calibrate
        self.checks = Checks()
        self.setup_times: list[float] = []
        #: Per op, at the reference speed: seconds and parts.
        self.op_seconds: list[float] = []
        #: Per op, as measured.
        self.raw_op_seconds: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.valuations = 0
        self.loop_seconds = 0.0
        self.digests: list[str] = []
        #: Per-op-kind breakdown for the summary: name -> (value, unit).
        self.detail: dict[str, tuple[float, str]] = {}

    # -- to implement ------------------------------------------------------

    def setup_once(self) -> None:
        raise NotImplementedError

    def input_paths(self) -> list[str]:
        """The bundle files the workload decides (for the fingerprint)."""
        raise NotImplementedError

    def cycle(self) -> int:
        """Ops in one pass over the workload's op set."""
        raise NotImplementedError

    def run_op(self, index: int) -> Iterator[dict]:
        """Run op number *index*, yielding each step's ``seconds``, the
        ``parts`` of those seconds by kind, and the ``valuations`` it
        examined."""
        raise NotImplementedError

    def finish(self) -> None:
        """Fill :attr:`detail` after the loop."""

    # -- shared --------------------------------------------------------------

    def setup(self) -> None:
        for _ in range(self.setup_reps):
            before = self.calibrate()
            started = time.perf_counter()
            self.setup_once()
            seconds = time.perf_counter() - started
            self.setup_times.append(seconds * REFERENCE_S
                                    / ((before + self.calibrate()) / 2))
        self.digests = [input_digest(json_io.load_bundle(path))
                        for path in self.input_paths()]

    def measure(self, seconds: float) -> None:
        """Whole cycles of ops until *seconds* have passed."""
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        before = self.calibrate()
        while index % self.cycle() or time.perf_counter() < deadline:
            op_seconds = raw_seconds = 0.0
            for step in self.run_op(index):
                after = self.calibrate()
                scale = REFERENCE_S / ((before + after) / 2)
                before = after
                raw_seconds += step["seconds"]
                op_seconds += step["seconds"] * scale
                for part, part_seconds in step["parts"].items():
                    self.parts.setdefault(part, []).append(
                        part_seconds * scale)
                self.valuations += step["valuations"]
            self.op_seconds.append(op_seconds)
            self.raw_op_seconds.append(raw_seconds)
            index += 1
        self.loop_seconds = time.perf_counter() - started
        self.finish()

    def peak_rss_mb(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_maxrss / 1024.0

    def end_to_end(self) -> dict[str, float]:
        ops = self.op_seconds
        return {
            "setup_s": statistics.median(self.setup_times),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p90_ms": quantile(ops, 0.9) * 1e3,
            "ops_per_s": len(ops) / sum(ops),
            "valuations_per_s": self.valuations_per_s(),
            "ok_frac": 1.0 - self.checks.failed / self.checks.attempted,
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def valuations_per_s(self) -> float:
        """Valuations examined per second of op time."""
        return self.valuations / sum(self.op_seconds)

    def percentiles(self, name: str, values: list[float]) -> None:
        self.detail[f"{name}_p50_ms"] = (statistics.median(values) * 1e3,
                                         "ms")
        self.detail[f"{name}_p90_ms"] = (quantile(values, 0.9) * 1e3, "ms")

    def fingerprint(self) -> dict:
        combined = hashlib.sha256("".join(self.digests).encode()).hexdigest()
        return {"workload": self.name, "seed": self.seed,
                "generator_version": GENERATOR_VERSION,
                "inputs": len(self.digests), "digest": combined[:16]}

    def summary_lines(self) -> list[str]:
        lines = [f"fingerprint: {json.dumps(self.fingerprint())}",
                 f"setup: {len(self.setup_times)} reps, median "
                 f"{statistics.median(self.setup_times):.3f} s"]
        if self.op_seconds:
            lines.append(f"ops: {len(self.op_seconds)} in "
                         f"{self.loop_seconds:.2f} s wall; raw op_p50_ms = "
                         f"{statistics.median(self.raw_op_seconds) * 1e3:.6g}"
                         f" (not calibrated)")
        lines += [f"{name} = {value:.6g} {unit}"
                  for name, (value, unit) in self.detail.items()]
        lines.append(f"checks: {self.checks.attempted} ops, "
                     f"{self.checks.failed} failed")
        lines += [f"FAILED {message}" for message in self.checks.messages]
        return lines


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


class CorpusWorkload(Workload):
    """A seeded ``generate_corpus`` sweep; per scenario: load_bundle ->
    decide_rcdp -> decide_rcqp (tick budget) -> ledger append, on the
    default backend with one worker."""

    name = "corpus"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.generate_times: list[float] = []

    def setup_once(self) -> None:
        directory = os.path.join(self.tmp, f"corpus-{len(self.setup_times)}")
        started = time.perf_counter()
        manifest = generate_corpus(directory, seed=self.seed,
                                   per_family=CORPUS_PER_FAMILY)
        self.generate_times.append(time.perf_counter() - started)
        self.directory = directory
        self.ledger_path = os.path.join(directory, "ledger.jsonl")
        self.scenarios = manifest["scenarios"]
        self.expected = {}
        for entry in self.scenarios:
            with open(os.path.join(directory, entry["file"]),
                      encoding="utf-8") as handle:
                self.expected[entry["file"]] = json.load(handle)["expected"]
        # Warm-up: the first scenario of each family.
        seen: set[str] = set()
        for entry in self.scenarios:
            if entry["family"] not in seen:
                seen.add(entry["family"])
                self.decide(entry, untraced_governor)

    def input_paths(self) -> list[str]:
        return [os.path.join(self.directory, entry["file"])
                for entry in self.scenarios]

    def cycle(self) -> int:
        return len(self.scenarios)

    def decide(self, entry: dict, governor_for: GovernorFactory) -> dict:
        """One scenario, timed per phase and checked."""
        name = entry["file"][:-len(".json")]
        started = time.perf_counter()
        bundle = json_io.load_bundle(os.path.join(self.directory,
                                                  entry["file"]))
        loaded = time.perf_counter()
        rcdp_governor = governor_for(None)
        rcdp = decide_rcdp(bundle["query"], bundle["database"],
                           bundle["master"], bundle["constraints"],
                           governor=rcdp_governor, workers=1)
        decided = time.perf_counter()
        rcqp_governor = governor_for(RCQP_TICKS)
        rcqp = decide_rcqp(bundle["query"], bundle["master"],
                           bundle["constraints"], bundle["schema"],
                           governor=rcqp_governor, on_exhausted="partial",
                           workers=1)
        answered = time.perf_counter()
        ticks = dict(rcqp_governor.budget.snapshot())
        ledger.append_record(self.ledger_path, ledger.RunRecord(
            procedure="rcdp", label=name,
            key=ledger.run_key("rcdp", bundle["query"], bundle["database"],
                               bundle["master"], bundle["constraints"]),
            verdict=rcdp.status.value, backend="python", workers=1,
            wall_s=answered - started, ticks=ticks,
            statistics=ledger.statistics_fields(rcdp.statistics),
            extra={"rcqp": rcqp.status.value}))
        finished = time.perf_counter()

        expected = self.expected[entry["file"]]
        problems = []
        verdict = rcdp.status.value
        if verdict != entry["verdict"] or verdict != expected["rcdp"]:
            problems.append(f"RCDP {verdict!r}, manifest "
                            f"{entry['verdict']!r}, expected "
                            f"{expected['rcdp']!r}")
        if (entry["missing_answers"] == 0) != rcdp.is_complete:
            problems.append(f"{entry['missing_answers']} missing answers "
                            f"but RCDP says {verdict!r}")
        if "new_answer" in expected and (
                rcdp.certificate is None or list(
                    rcdp.certificate.new_answer) != expected["new_answer"]):
            problems.append("RCDP witness differs from the expected block")
        if rcdp.is_complete and rcqp.status is RCQPStatus.EMPTY:
            problems.append("RCQP EMPTY although D is a complete witness")
        problems += self.checks.exact(
            ("rcdp", name), counters(rcdp.statistics, SEMANTIC + PHYSICAL))
        problems += self.checks.exact(
            ("rcqp", name), (rcqp.status.value, ticks,
                             counters(rcqp.statistics, SEMANTIC + PHYSICAL)))
        self.checks.record(name, problems)
        return {"seconds": finished - started,
                "parts": {"load": loaded - started,
                          "rcdp": decided - loaded,
                          "rcqp": answered - decided,
                          "ledger": finished - answered},
                "valuations": (rcdp.statistics.valuations_examined
                               + rcqp.statistics.valuations_examined),
                "results": (rcdp, rcqp),
                "governors": (rcdp_governor, rcqp_governor)}

    def run_op(self, index: int) -> Iterator[dict]:
        yield self.decide(self.scenarios[index % len(self.scenarios)],
                          untraced_governor)

    def valuations_per_s(self) -> float:
        """Per second of decide time: a slower load or ledger append
        moves the op latency but not this."""
        return self.valuations / (sum(self.parts["rcdp"])
                                  + sum(self.parts["rcqp"]))

    def finish(self) -> None:
        self.percentiles("rcdp", self.parts["rcdp"])
        self.percentiles("rcqp", self.parts["rcqp"])
        self.detail["scenarios_per_s"] = (
            len(self.op_seconds) / sum(self.op_seconds), "1/s")
        for part in ("load", "ledger"):
            self.detail[f"{part}_p50_ms"] = (
                statistics.median(self.parts[part]) * 1e3, "ms")


# ---------------------------------------------------------------------------
# adom_scan
# ---------------------------------------------------------------------------


def adom_scenario(seed: int) -> CRMScenario:
    """A CRM scenario shaped like ``crm_q0_area_code`` with exactly 8
    constants (one customer, also registered abroad under the same name
    and phone), so Q0's four-variable tableau has 9**4 = 6,561 valid
    valuations whatever the seed; the seed picks the values.  The size
    keeps a round short enough that a 30-second run holds about 30."""
    rng = random.Random(f"adom_scan:{seed}")

    def token(prefix: str) -> str:
        return f"{prefix}{rng.randrange(10 ** 6):06d}"

    name, phone = token("n"), token("555-")
    domestic = CustomerRecord(token("c"), name, "908", phone)
    international = CustomerRecord(
        token("i"), name, f"+{rng.randrange(30, 99)}-"
        f"{rng.randrange(10, 99)}", phone)
    return CRMScenario(domestic=[domestic], international=[international],
                       support=set(), manage_master=set(), manage=set())


class AdomScanWorkload(Workload):
    """Two scans of one large active domain on each backend: the
    enumeration-bound ``missing_answers_report`` and the check-bound
    ``count_completing_extensions``.  One op loads the bundle onto one
    backend (fresh storage, so no step inherits another's indexes) and
    runs both scans, once per backend."""

    name = "adom_scan"
    #: A set-up takes about 50 ms, so more repeats steady the median.
    setup_reps = 15

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.scan_valuations = {"missing": 0, "count": 0}
        self.backend_valuations = {b: 0 for b in BACKENDS}

    def setup_once(self) -> None:
        scenario = adom_scenario(self.seed)
        path = os.path.join(self.tmp, "adom_scan.json")
        json_io.dump_bundle(
            path, schema=scenario.schema,
            master_schema=scenario.master_schema,
            database=scenario.database(), master=scenario.master(),
            query=scenario.q0_customers_with_area_code(),
            constraints=scenario.default_constraints())
        self.path = path
        oracle = json_io.load_bundle(path)
        args = (oracle["query"], oracle["database"], oracle["master"],
                oracle["constraints"])
        self.verdict = decide_rcdp(*args, workers=1).status
        self.missing_count = count_missing_answers(
            *args, backend="python").count
        for backend in BACKENDS[1:]:
            bundle = json_io.load_bundle(path, backend=backend)
            status = decide_rcdp(bundle["query"], bundle["database"],
                                 bundle["master"], bundle["constraints"],
                                 backend=backend, workers=1).status
            self.checks.record(f"{backend} decide_rcdp", [] if (
                status is self.verdict) else [
                f"says {status.value}, python says {self.verdict.value}"])

    def input_paths(self) -> list[str]:
        return [self.path]

    def cycle(self) -> int:
        return 1

    def scans(self, backend: str,
              governor_for: GovernorFactory) -> Iterator[dict]:
        """Load the bundle onto *backend* and run both scans, one step
        each; the loading counts in the first step."""
        started = time.perf_counter()
        bundle = json_io.load_bundle(self.path, backend=backend)
        args = (bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"])
        missing_governor = governor_for(None)
        missing = missing_answers_report(*args, backend=backend,
                                         governor=missing_governor)
        seconds = time.perf_counter() - started
        yield {"seconds": seconds,
               "parts": {"missing": seconds, backend: seconds},
               "valuations": missing.statistics.valuations_examined,
               "scan": "missing", "result": missing,
               "governor": missing_governor}

        started = time.perf_counter()
        count_governor = governor_for(None)
        count = count_completing_extensions(*args, backend=backend,
                                            governor=count_governor)
        seconds = time.perf_counter() - started
        problems = []
        if not missing.exhaustive or len(missing.answers) != (
                self.missing_count):
            problems.append(f"missing_answers_report found "
                            f"{len(missing.answers)} answers "
                            f"(exhaustive={missing.exhaustive}), oracle "
                            f"counted {self.missing_count}")
        complete = self.verdict is RCDPStatus.COMPLETE
        if not count.exhaustive or (count.count == 0) != complete:
            problems.append(f"{count.count} completing extensions "
                            f"(exhaustive={count.exhaustive}) but RCDP "
                            f"says {self.verdict.value}")
        problems += self.checks.exact("missing.answers",
                                      sorted(missing.answers, key=repr))
        problems += self.checks.exact("count.count", count.count)
        for op, result in (("missing", missing), ("count", count)):
            problems += self.checks.exact(
                (op, "semantic"), counters(result.statistics, SEMANTIC))
            problems += self.checks.exact(
                (op, backend), counters(result.statistics, PHYSICAL))
        self.checks.record(f"{backend} scans", problems)
        yield {"seconds": seconds,
               "parts": {"count": seconds, backend: seconds},
               "valuations": count.statistics.valuations_examined,
               "scan": "count", "result": count, "governor": count_governor}

    def run_op(self, index: int) -> Iterator[dict]:
        for backend in BACKENDS:
            for step in self.scans(backend, untraced_governor):
                self.scan_valuations[step["scan"]] += step["valuations"]
                self.backend_valuations[backend] += step["valuations"]
                yield step

    def valuations_per_s(self) -> float:
        """The check-bound count scan's rate: a change to constraint
        checking moves it much more than the op latency, and the
        enumeration-bound missing scan (on a summary line) stays flat."""
        return self.scan_valuations["count"] / sum(self.parts["count"])

    def finish(self) -> None:
        for scan in ("missing", "count"):
            self.detail[f"{scan}_valuations_per_s"] = (
                self.scan_valuations[scan] / sum(self.parts[scan]), "1/s")
        for backend in BACKENDS:
            self.detail[f"{backend}_us_per_valuation"] = (
                sum(self.parts[backend]) * 1e6
                / self.backend_valuations[backend], "us")


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------


def launch(args: list[str], root: Path, *,
           python_flags: tuple[str, ...] = ()) -> tuple[float, Any]:
    """Run one fresh interpreter to completion; (seconds, completed)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, *python_flags, *args]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=root, env=env,
                               capture_output=True, text=True, timeout=120)
    return time.perf_counter() - started, completed


def parse_decide_output(stdout: str) -> dict:
    """Verdict, witness answer and ``--stats`` counters of ``decide``."""
    parsed: dict[str, Any] = {"stats": {}}
    in_stats = False
    for line in stdout.splitlines():
        if line.startswith("RCDP: "):
            parsed["verdict"] = line[len("RCDP: "):].strip()
        elif line.startswith("new answer: "):
            parsed["new_answer"] = line[len("new answer: "):].strip()
        elif line == "statistics:":
            in_stats = True
        elif in_stats and line.startswith("  ") and ":" in line:
            key, value = line.strip().split(":", 1)
            parsed["stats"][key] = int(value)
        else:
            in_stats = False
    return parsed


class ColdCliWorkload(Workload):
    """Fresh ``python -m repro decide BUNDLE --stats`` processes, one at
    a time, over the shipped example bundles.  One op is one launch; the
    ops decide each bundle with ``--workers 1`` and then ``--workers 2``,
    so launches alternate and at most two workers ever run."""

    name = "cold_cli"
    #: A set-up is one launch, so more repeats steady the median.
    setup_reps = 15

    def setup_once(self) -> None:
        directory = self.root / "examples" / "bundles"
        paths = sorted(directory.glob("*.json"))
        if not paths:
            raise SystemExit(f"perfbench: no bundles in {directory}")
        self.expected = {}
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                self.expected[path] = json.load(handle)["expected"]
        # The warm launch decides the same bundle whatever the seed.
        self.decide(paths[0], 1)
        random.Random(f"cold_cli:{self.seed}").shuffle(paths)
        self.paths = paths

    def input_paths(self) -> list[str]:
        return [str(path) for path in sorted(self.paths)]

    def cycle(self) -> int:
        return 2 * len(self.paths)

    def command(self, path: Path, workers: int) -> list[str]:
        return ["-m", "repro", "decide", str(path.relative_to(self.root)),
                "--workers", str(workers), "--stats"]

    def check_output(self, path: Path, workers: int, code: int,
                     stdout: str) -> tuple[list[str], dict]:
        expected = self.expected[path]
        parsed = parse_decide_output(stdout)
        problems = []
        want = 0 if expected["rcdp"] == "complete" else 1
        if code != want:
            problems.append(f"exit code {code}, expected {want}")
        if parsed.get("verdict") != expected["rcdp"]:
            problems.append(f"verdict {parsed.get('verdict')!r}, expected "
                            f"{expected['rcdp']!r}")
        if "new_answer" in expected and parsed.get("new_answer") != repr(
                tuple(expected["new_answer"])):
            problems.append(f"new answer {parsed.get('new_answer')}, "
                            f"expected {tuple(expected['new_answer'])!r}")
        stats = parsed["stats"]
        if not stats:
            problems.append("no --stats block in the output")
        # Semantic counters agree across worker counts for a COMPLETE
        # verdict (a full enumeration); an INCOMPLETE parallel search
        # stops wherever its shards see the witness, so only its serial
        # counters repeat exactly.
        if workers == 1:
            problems += self.checks.exact((path.name, 1), stats)
        if expected["rcdp"] == "complete":
            problems += self.checks.exact(
                (path.name, "semantic"),
                {k: stats.get(k) for k in SEMANTIC})
        return problems, stats

    def decide(self, path: Path, workers: int, *,
               extra: tuple[str, ...] = (),
               python_flags: tuple[str, ...] = ()) -> tuple[float, dict, Any]:
        """One checked CLI launch; (seconds, ``--stats`` counters, the
        completed process)."""
        seconds, completed = launch(self.command(path, workers) + list(extra),
                                    self.root, python_flags=python_flags)
        problems, stats = self.check_output(path, workers,
                                            completed.returncode,
                                            completed.stdout)
        if problems and completed.stderr:
            problems.append("stderr: " + completed.stderr.strip()[-300:])
        self.checks.record(f"{path.name} --workers {workers}", problems)
        return seconds, stats, completed

    def run_op(self, index: int) -> Iterator[dict]:
        path = self.paths[index // 2 % len(self.paths)]
        workers = 1 + index % 2
        seconds, stats, _ = self.decide(path, workers)
        yield {"seconds": seconds, "parts": {f"workers{workers}": seconds},
               "valuations": stats.get("valuations_examined", 0)}

    def peak_rss_mb(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_maxrss / 1024.0

    def finish(self) -> None:
        self.percentiles("cli", self.parts["workers1"]
                         + self.parts["workers2"])
        for part in ("workers1", "workers2"):
            self.detail[f"cli_{part}_p50_ms"] = (
                statistics.median(self.parts[part]) * 1e3, "ms")


_WORKLOADS = {cls.name: cls for cls in (CorpusWorkload, AdomScanWorkload,
                                        ColdCliWorkload)}


def make(name: str, **kwargs: Any) -> Workload:
    return _WORKLOADS[name](**kwargs)
