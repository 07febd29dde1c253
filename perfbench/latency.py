"""Emulated device latency as a ``measurer -> MeasureExecutor`` factory.

Real boards take milliseconds to seconds per configuration; the
simulator answers in microseconds.  :class:`LatencyExecutor` sleeps a
fixed time per configuration and forwards everything else to the
default serial executor, so records are byte-identical with and
without it (``run.py --selfcheck`` shows this on a short compile).
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.hardware.executor import MeasureExecutor, SerialExecutor


class LatencyExecutor(MeasureExecutor):
    """A serial executor that also waits ``latency_s`` per config.

    ``marks`` holds its construction time (a tuner builds it just
    before its run) and then every batch's return, so consecutive
    marks bound one tuning step: proposal plus measurement.
    """

    def __init__(self, measurer, latency_s: float):
        self._inner = SerialExecutor(measurer)
        self.latency_s = float(latency_s)
        self.marks = [time.perf_counter()]

    @property
    def measurer(self):
        return self._inner.measurer

    @property
    def num_measurements(self) -> int:
        return self._inner.num_measurements

    def sync_ordinal(self, ordinal: int) -> None:
        self._inner.sync_ordinal(ordinal)

    def drain_fault_outcomes(self) -> List:
        return self._inner.drain_fault_outcomes()

    def close(self) -> None:
        self._inner.close()

    def measure_batch(self, config_indices: Sequence[int]) -> List:
        """Measure, then hold the caller for the emulated device time."""
        results = self._inner.measure_batch(config_indices)
        time.sleep(self.latency_s * len(config_indices))
        self.marks.append(time.perf_counter())
        return results

    def steps(self) -> List[float]:
        """Seconds of every tuning step this executor served."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def latency_factory(latency_s: float, built: list):
    """The ``executor=`` argument that emulates ``latency_s`` per config.

    Every executor it builds is appended to ``built``.
    """

    def factory(measurer) -> LatencyExecutor:
        executor = LatencyExecutor(measurer, latency_s)
        built.append(executor)
        return executor

    return factory
