"""Wall-clock timing scaled to a nominal machine speed.

On a shared host the same work runs at speeds that drift by up to 1.8x, in
spells of about ten seconds, and CPU time drifts with wall time.  So every
timed chunk is followed by a short calibration: fixed work of the same kind
as the chunk, using no code of the package.  A chunk's wall time is
multiplied by

    NOMINAL_S[kind] / (median of the calibrations around it)

which gives its duration at a nominal machine speed.  One calibration is as
noisy as a short chunk, so the median takes the `WINDOW` calibrations of the
same series on either side; read the scaled times only after the last chunk
of the run.  A change to the package moves scaled time exactly as it moves
wall time.

There are two kinds of calibration.  In-process work is calibrated by a
`loop` of small-Fraction arithmetic; CLI subprocesses by the `start` of a
bare interpreter, since process start-up follows the host's speed less
closely than arithmetic does.  A core also runs faster while the others
idle, so a chunk that keeps several cores busy is calibrated under the same
load, from the loop times of all those cores, and keeps a series of its own.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median calibration times on the reference host: 2 cores, Python 3.11.7.
NOMINAL_S = {"loop": 0.0115, "start": 0.060}
LOOPS = 2500
WINDOW = 3


def _loop() -> None:
    table = {}
    for i in range(1, LOOPS):
        value = Fraction(i % 13 - 6, i % 7 + 1) + Fraction(1, i % 5 + 1)
        table[i % 64] = value.numerator * 2 + value.denominator


def calibration_s() -> float:
    """Wall time of a fixed loop of small-Fraction arithmetic and dict stores."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def _helper() -> None:
    """For each line on stdin, time the loop and run it once more to cover the caller's; stop at its end."""
    for _ in sys.stdin.buffer:
        elapsed = calibration_s()
        _loop()
        sys.stdout.buffer.write(f"{elapsed!r}\n".encode())
        sys.stdout.buffer.flush()


class Clock:
    """Times chunks; use as a context manager, which stops the helper processes.

    `env` is the environment of the bare interpreters that `start`
    calibrations run.
    """

    def __init__(self, env: dict):
        self.env = env
        self.series: dict[tuple[str, int], list[float]] = {}
        self.tickets: list[tuple[tuple[str, int], int, float]] = []  # (series, calibration index, raw seconds)
        self._helpers: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()

    def _calibrate(self, kind: str, cores: int) -> float:
        if kind == "start":
            start = time.perf_counter()
            procs = [subprocess.Popen([sys.executable, "-c", "pass"], env=self.env) for _ in range(cores)]
            for proc in procs:
                proc.wait()
            return time.perf_counter() - start
        while len(self._helpers) < cores - 1:
            self._helpers.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE, stdout=subprocess.PIPE
            ))
        busy = self._helpers[: cores - 1]
        for helper in busy:
            helper.stdin.write(b"1\n")
            helper.stdin.flush()
        elapsed = [calibration_s()]
        for helper in busy:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("calibration helper stopped")
            elapsed.append(float(line))
        # A pool's throughput is the sum of its cores' speeds.
        return len(elapsed) / sum(1 / s for s in elapsed)

    def time(self, fn, *args, cores: int = 1, kind: str = "loop"):
        """Run `fn(*args)` on `cores` busy cores; return its result and a ticket."""
        key = (kind, cores)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = [self._calibrate(kind, cores)]
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        self.tickets.append((key, len(series) - 1, raw))
        series.append(self._calibrate(kind, cores))
        return result, len(self.tickets) - 1

    def factor(self, ticket: int) -> float:
        key, index, _ = self.tickets[ticket]
        around = self.series[key][max(0, index + 1 - WINDOW): index + 1 + WINDOW]
        return NOMINAL_S[key[0]] / statistics.median(around)

    def scaled_s(self, ticket: int) -> float:
        return self.tickets[ticket][2] * self.factor(ticket)

    def wall_over_scaled(self) -> float:
        """Raw over scaled time of the whole run: above 1, the host ran slower than nominal."""
        return sum(raw for *_, raw in self.tickets) / sum(self.scaled_s(t) for t in range(len(self.tickets)))


if __name__ == "__main__":
    _helper()
