"""The repository benchmark: one command per workload, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--workload`` is ``corpus``, ``adom_scan`` or ``cold_cli`` (see
``BENCHMARK.json`` for why each exists).  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
runs one traced pass of the workload and reports the per-layer metrics
instead.  Every op is checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
lines before it are a human-readable summary (sample counts, the
per-op-kind breakdown and the input fingerprint).

The benchmark only calls public functions of ``src/repro``, the CLI,
and the program's own spans; it never writes under ``src/``.  Bytecode
policy: compiled modules are cached under ``.bench_build/pycache``
(``sys.pycache_prefix`` / ``PYTHONPYCACHEPREFIX``) for this process and
every CLI it launches, whatever ``PYTHONDONTWRITEBYTECODE`` says, so a
launched CLI pays what an installed package pays: import, not compile.
Temporary files live under ``.bench_build`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
TMP = BUILD / "tmp"

#: Settings that would change which backend, ledger or start method the
#: program uses; the benchmark always measures the defaults.
_PROGRAM_ENV = ("REPRO_BACKEND", "REPRO_LEDGER",
                "REPRO_PARALLEL_START_METHOD")


def bootstrap() -> None:
    """Point imports and launched CLIs at this checkout's ``src``.

    Exits with an error when the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; run "
                         f"from the root of a repository checkout")
    PYCACHE.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and its children (sqlite spills,
    # multiprocessing) stay inside the checkout too.
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = None
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC / 'repro'}")


def declared() -> dict:
    """``BENCHMARK.json``: the workloads and metrics to report."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (the last line)."""
    import layers
    import workloads
    from calibrator import Calibrator

    with tempfile.TemporaryDirectory(prefix="run-") as tmp, \
            Calibrator() as calibrate:
        bench = workloads.make(workload, seed=seed, tmp=tmp, root=ROOT,
                               calibrate=calibrate)
        bench.setup()
        if trace:
            values = layers.traced_pass(bench)
            kind = "per_layer"
        else:
            bench.measure(seconds)
            values = bench.end_to_end()
            kind = "end_to_end"
    for line in bench.summary_lines():
        print(line)
    units = {m["name"]: m["unit"] for m in declared()[kind]}
    if trace:
        # A layer the workload does not exercise reads 0.
        values = {**dict.fromkeys(units, 0.0), **values}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SystemExit(f"perfbench: {workload} metrics disagree with "
                         f"BENCHMARK.json: missing {missing}, extra {extra}")
    checks = bench.checks
    return {"correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bootstrap()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
