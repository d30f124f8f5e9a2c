"""Host-speed calibration: a fixed slice of work, timed all through a round.

The benchmark runs on virtual CPUs of a shared host. How fast a virtual CPU
runs depends on whether another guest is busy on the same physical core, and
that changes every few hundred milliseconds by up to 1.7 times. It moves
every timing of a run and is larger than any bound a run-to-run comparison
could use. A fixed slice of work, timed often enough, measures that speed;
scaling a job's latency by it gives the job's time at the reference speed
(one slice in ``REF_S``), which stays put while the host speeds up or slows
down but still moves with the program, which the slice does not run.

:class:`Sampler` times slices right before and after each job and, from a
``SIGALRM`` handler, every ``PERIOD_S`` during it; the time spent in those
in-job slices is subtracted from the job's latency.

The slice mixes what the program's layers spend their time on: the
interpreter (a Python loop, float formatting and parsing, as in the text
readers and writers) and a numpy element-wise kernel.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# length of one slice at the reference speed (about its median on the
# 2-vCPU host the bounds were set on); scaled times read as seconds on a
# host that runs one slice in exactly this long
REF_S = 0.0003
PERIOD_S = 0.02
EDGE_SLICES = 3  # slices timed right before and right after each job

_VALUES = [0.001 + 0.01 * k for k in range(300)]
_ARRAY = np.linspace(0.0, 10.0, 12_000)


def _slice() -> float:
    text = ",".join(repr(v) for v in _VALUES)
    total = 0.0
    for item in text.split(","):
        v = float(item)
        total += v / (1.0 + v)
    return total + float(np.exp(-0.5 * _ARRAY).sum())


class Sampler:
    """Times slices around and, on a timer, inside each job."""

    def __init__(self) -> None:
        self._durations: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _time_slice() -> float:
        t0 = time.perf_counter()
        _slice()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._durations.append(self._time_slice())

    def edge(self) -> list[float]:
        """Time EDGE_SLICES slices now; return their durations."""
        return [self._time_slice() for _ in range(EDGE_SLICES)]

    def start(self) -> None:
        self._durations.clear()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[float]:
        """Stop the timer; return the durations of the slices timed since
        :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        inside = list(self._durations)
        self._durations.clear()
        return inside


def scaled(latency: float, inside: list[float], around: list[float]) -> float:
    """A job's latency at the reference speed: its latency less the slices
    timed inside it, times the reference slice length over the mean length
    of all slices timed inside and around it."""
    durations = inside + around
    return (latency - sum(inside)) * REF_S * len(durations) / sum(durations)
