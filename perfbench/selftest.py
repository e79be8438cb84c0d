"""Slowdown self-test: the benchmark must see a slowdown where it should.

Each case injects a fixed delay (a busy wait) before every call of one
public entry point, using the benchmark's own wrappers, with no edit to
``src/``.  It then runs the workload that exercises the call and one
that bypasses it, with and without the delay, over a few seeds, and
requires that

* the per-layer metric of the delayed call worsens by more than the
  bound of the end-to-end metric it is predicted to move,
* that end-to-end metric worsens by more than its bound on the
  exercising workload, while the end-to-end metrics of that workload
  that leave the call out stay within theirs, and
* every end-to-end metric of the bypassing workload, except
  ``setup_s``, stays within its bound.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selftest.py

Exits 0 when every prediction holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import time
from typing import Any, Callable
from unittest import mock

import run

#: Seconds per benchmark run, and the seeds whose medians are compared.
SECONDS = 5.0
SEEDS = (1, 2, 3)


def cases() -> tuple:
    """(name, delay in seconds, wrapped attributes, exercising workload,
    per-layer metric, predicted end-to-end metric, end-to-end metrics of
    the exercising workload that leave the call out, bypassing
    workload)."""
    from repro.io import json_io
    from repro.relational.backends.columnar import ColumnarStorage
    from repro.relational.backends.sqlite import SQLiteStorage

    return (
        ("load_bundle +15 ms", 15e-3, ((json_io, "load_bundle"),),
         "corpus", "io.load_bundle_ms", "op_p50_ms", ("valuations_per_s",),
         "adom_scan"),
        ("StorageBackend.plan_violates +30 us", 30e-6,
         ((ColumnarStorage, "plan_violates"),
          (SQLiteStorage, "plan_violates")),
         "adom_scan", "backends.columnar.plan_violates_us",
         "valuations_per_s", (), "corpus"),
    )


def delayed(original: Callable, seconds: float) -> Callable:
    """*original*, after a busy wait of *seconds* on every call."""
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return original(*args, **kwargs)
    return wrapper


def metrics(workload: str, seed: int, trace: bool,
            delay: tuple | None) -> dict[str, float]:
    """One benchmark run in this process, optionally with *delay*."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if delay is not None:
            amount, targets = delay
            for owner, attribute in targets:
                stack.enter_context(mock.patch.object(
                    owner, attribute,
                    delayed(getattr(owner, attribute), amount)))
        result = run.measure(workload, seed, SECONDS, trace)
    if not result["correct"]:
        raise SystemExit(f"selftest: {workload} seed {seed} failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worsening(name: str, base: float, changed: float, better: dict) -> float:
    """How much worse *changed* is than *base*, as a share of *base*."""
    sign = 1.0 if better[name] == "lower" else -1.0
    return sign * (changed - base) / base


def main() -> int:
    run.bootstrap()
    spec = run.declared()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    cache: dict[tuple, dict[str, float]] = {}

    def median_run(workload: str, trace: bool,
                   delay: tuple | None) -> dict[str, float]:
        runs = []
        for seed in SEEDS:
            key = (workload, trace, seed, delay)
            if key not in cache:
                cache[key] = metrics(workload, seed, trace, delay)
            runs.append(cache[key])
        return {name: statistics.median(r[name] for r in runs)
                for name in runs[0]}

    ok = True
    for (name, amount, targets, exercised, layer, predicted, steady,
         bypass) in cases():
        delay = (amount, targets)
        print(f"== {name}")
        # (workload, metric, before, after, bound, must it be crossed)
        checks = []
        bound = bounds[predicted]
        base = median_run(exercised, True, None)
        slow = median_run(exercised, True, delay)
        checks.append((exercised, layer, base[layer], slow[layer], bound,
                       True))
        base = median_run(exercised, False, None)
        slow = median_run(exercised, False, delay)
        checks.append((exercised, predicted, base[predicted],
                       slow[predicted], bound, True))
        checks += [(exercised, metric, base[metric], slow[metric],
                    bounds[metric], False) for metric in steady]
        base = median_run(bypass, False, None)
        slow = median_run(bypass, False, delay)
        checks += [(bypass, metric, base[metric], slow[metric], limit, False)
                   for metric, limit in bounds.items() if metric != "setup_s"]
        for workload, metric, before, after, limit, cross in checks:
            change = worsening(metric, before, after, better)
            held = change > limit if cross else change <= limit
            ok &= held
            want = f"{'>' if cross else '<='} {limit:.0%}"
            print(f"  {'ok  ' if held else 'FAIL'} {workload} {metric}: "
                  f"{before:.5g} -> {after:.5g} ({change:+.1%} worse; "
                  f"want {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
