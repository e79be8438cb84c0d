"""Parallel execution of the exact search procedures.

The deciders in :mod:`repro.core` enumerate deterministic,
``Adom``-bounded search spaces — candidate valuations, extension sets,
candidate databases, valuation-unit sets.  This package shards those
enumerations across a ``multiprocessing`` worker pool without changing
any verdict:

* :mod:`~repro.parallel.partition` — deterministic shard ownership,
  governor splitting, and parallel checkpoint state;
* :mod:`~repro.parallel.beacon` — the shared early-exit signal that
  carries the best witness rank found so far;
* :mod:`~repro.parallel.worker` — shard-local images of the serial
  search loops;
* :mod:`~repro.parallel.supervise` — the fault-tolerant supervisor:
  heartbeat liveness, checkpoint-based retry, poison-shard quarantine;
* :mod:`~repro.parallel.pool` — the fan-out/fan-in process driver;
* :mod:`~repro.parallel.api` — the parent-side front-ends the serial
  deciders delegate to when ``workers > 1``.

Users normally never import this package: every decider and the CLI
expose a ``workers=`` / ``--workers`` knob (1 = serial, 0 = all cores).
See ``docs/PARALLEL.md`` for the sharding model and its determinism
proof obligations.
"""

import os

from repro._lazy import lazy_exports
from repro.errors import ReproError

__getattr__, __dir__, _LAZY_NAMES = lazy_exports(__name__, {
    "repro.parallel.api": (
        "brute_force_rcdp_parallel", "brute_force_rcqp_parallel",
        "decide_rcdp_parallel", "decide_rcqp_parallel",
        "decide_rcqp_with_inds_parallel", "missing_answers_parallel"),
    "repro.parallel.beacon": ("WitnessBeacon",),
    "repro.parallel.partition": (
        "EventCancellation", "GovernorSpec", "ShardSpec",
        "materialize_governor", "split_governor", "suggest_workers"),
    "repro.parallel.pool": ("merged_ticks", "run_shards"),
    "repro.parallel.supervise": ("ShardSupervisor",),
    "repro.parallel.worker": ("ShardOutcome", "ShardTask"),
})

__all__ = ["resolve_workers", *_LAZY_NAMES]


def resolve_workers(workers: int | None) -> int:
    """Normalize the deciders' ``workers=`` knob to a positive count.

    ``None`` and ``1`` select the serial path; ``0`` means "all cores"
    (:func:`os.cpu_count`); negative counts are rejected.  Defined here,
    not in :mod:`~repro.parallel.partition`, so the serial path of every
    decider asks this question without importing any parallel module.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ReproError(
            f"workers must be nonnegative (0 = all cores), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)
