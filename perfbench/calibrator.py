"""A calibration loop in a helper process, for timing at a reference speed.

A shared host's speed can drift by a quarter or more within minutes (a
fixed pure-Python loop took 6.0 ms to 9.1 ms over two minutes on a
shared 2-core container, CPython 3.11.7), which no run length averages
out.  So the benchmark asks a helper process for one calibration before
and after every step it times, and scales the step by ``REFERENCE_S``
over the mean of the two: a slower program reads slower, a slower host
does not.

The loop runs in its own process, started with ``-I`` and importing
nothing of the program, so nothing the program does in the measured
process (a thread it leaves running, a trace or profile hook, a larger
heap for the garbage collector) can slow the calibration and be divided
out.  While the loop runs, the measured process waits on the pipe and
uses no CPU.

Run as a script, this file is the helper: it answers each line on
standard input with the duration of one calibration, until end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Iterations of one calibration loop, and its duration at the
#: reference speed (about the fastest it ran where it was sized).
LOOP = 5000
REFERENCE_S = 0.0008


def loop_seconds() -> float:
    """Seconds one calibration loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        table = {}
        for i in range(LOOP):
            total += (i * i) % 7
            table[i & 255] = (i, total)
        best = min(best, time.perf_counter() - started)
    return best


class Calibrator:
    """The helper process, started on entry and stopped on exit; calling
    it returns the seconds of one calibration loop run now."""

    def __enter__(self) -> "Calibrator":
        self._process = subprocess.Popen(
            [sys.executable, "-I", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        return self

    def __call__(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the calibration helper exited "
                               f"with code {self._process.wait()}")
        return float(line)

    def __exit__(self, *exc: object) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def serve() -> None:
    for _ in sys.stdin:
        print(repr(loop_seconds()), flush=True)


if __name__ == "__main__":
    serve()
