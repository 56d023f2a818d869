"""Fixed units of host work that take the machine's speed out of the timings.

The reference box is a 2-vCPU VM on a shared host.  Its speed wanders by
5–25 % with what the neighbours do, in spells that last longer than one
benchmark run, so no statistic over the samples of one run can average the
spells out: ten runs of the same commit spread (interquartile ÷ median) by
4–20 % in raw wall seconds.

So every timed iteration is bracketed by one call of :meth:`Calibrator.seconds`
— a fixed unit of work of the same kind as the workload — and the iteration's
CPU seconds are multiplied by ``nominal_s / (mean of the two bracketing
calibrations)``.  (CPU seconds, not wall: the box's virtual disk swings 5× in
latency, and waiting for it is no property of the code — see the README.)  A spell that slows the core slows both sides alike and
cancels.  Two units exist because a busy neighbour slows interpreted
bytecode more than streaming array code:

``array``        NumPy gather / scatter-add / mask over 10⁵ elements, what the
                 vectorised kernels are made of;
``interpreter``  a pure-Python loop of arithmetic, dict stores, list appends
                 and calls, what the agent engine and the per-run fixed costs
                 are made of.

Measured on ten same-commit runs, the matching unit brings the spread of
``run_s_p50`` down to 1–2 % on the five compute workloads (``agent_lossy``:
8.5 % raw, 4.9 % against the array unit, 0.9 % against the interpreter unit).  The units belong to the
benchmark and touch nothing under ``src/``, so the factor is independent of
the code under test: a program that gets 10 % slower reads 10 % slower.

The calibrated metrics are therefore in *CPU seconds on the reference box at
its nominal speed*.  The raw wall-clock medians are stored beside them.
"""

from __future__ import annotations

import time

import numpy as np

#: Median CPU seconds of :meth:`Calibrator.seconds` between iterations on the
#: reference box in its usual state.  Constants, so that calibrated seconds compare
#: across runs.
NOMINAL_S = {"array": 0.0084, "interpreter": 0.0078}

_ARRAY_SIZE = 100_000
_ARRAY_PASSES = 5
_INTERPRETER_STEPS = 80_000


class Calibrator:
    """One calibration unit; :meth:`seconds` does the same work every call."""

    def __init__(self, unit: str) -> None:
        self.nominal_s = NOMINAL_S[unit]
        self._run = {"array": self._array, "interpreter": self._interpreter}[unit]
        rng = np.random.default_rng(0)
        self._values = rng.random(_ARRAY_SIZE)
        self._index = rng.integers(0, _ARRAY_SIZE, _ARRAY_SIZE)
        self._sink = np.zeros(_ARRAY_SIZE)

    def _array_pass(self) -> None:
        sink = self._sink
        np.add.at(sink, self._index, self._values[self._index] * 0.5)
        crowded = sink > 1.0
        sink[crowded] *= 0.5
        np.nonzero(crowded)

    def _array(self) -> float:
        # One untimed pass pulls the arrays back into cache, so the reading
        # does not depend on the footprint of whatever ran before.
        self._sink[:] = 0.0
        self._array_pass()
        started = time.process_time()
        for _ in range(_ARRAY_PASSES):
            self._array_pass()
        return time.process_time() - started

    def _interpreter(self) -> float:
        started = time.process_time()
        total, slots, trail = 0.0, {}, []
        for step in range(_INTERPRETER_STEPS):
            total += step * 0.5
            slots[step & 255] = total
            if not step & 7:
                trail.append(abs(total - step))
        return time.process_time() - started

    def seconds(self) -> float:
        """Process CPU seconds of one run of the calibration unit."""
        return self._run()

    def factor(self, *calibrations: float) -> float:
        """Multiplier that turns measured CPU seconds into nominal-speed seconds."""
        return self.nominal_s * len(calibrations) / sum(calibrations)
