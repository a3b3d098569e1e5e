"""Host-speed correction of the benchmark's times.

The benchmark runs on a shared VM whose CPU speed drifts: the time of a
fixed probe varies by up to a factor of two, switching within seconds and
drifting over minutes, and process CPU time moves with wall time, so the
drift is not steal that a CPU clock could remove.  Raw pass times of runs
minutes apart then differ by more than any change worth gating (quartile
spread over ten runs of one workload: 0.13-0.37 of the median raw, 0.03-0.05
corrected, on a 2 vCPU Intel Xeon VM).

HostSpeed times a fixed probe (a pure-Python loop, a small FFT, a small
matmul and an elementwise exp, all plain numpy; no worldlineqm code) every
PERIOD_S of wall time from a SIGALRM handler, so samples are taken during
the work they correct.  The handler runs between Python bytecodes, so no
sample falls inside one long C call; the samples on either side of it bound
it.  The corrected time of a window is

    sum over the gaps between probes of  gap * REF_PROBE_S / probe speed

where the probe speed of a gap is the mean of the running medians (over
SMOOTH samples) at its two ends.  Probe time itself is excluded, so the
corrected time is the window's own work, in seconds at the reference host
speed.  A program change moves it as it moves the raw time; a host slowdown
moves the probe with it and cancels.  The probe runs on the main thread
between bytecodes, when the library's own threads are normally idle; a
change that keeps threads busy behind the main thread would slow the probe
too and read as a slower host, so compare such a change on raw times too
(run.py prints them).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
SMOOTH = 5
# median probe time on the reference host (2 vCPU Intel Xeon VM, numpy 2.4):
# corrected times read as seconds on that host at its typical speed
REF_PROBE_S = 1.25e-3


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._field = rng.standard_normal((16, 16, 16))
        self._matrix = rng.standard_normal((64, 64))
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None
        self._probe()  # first call pays one-time costs; not a sample

    def _probe(self):
        total = 0
        for i in range(10000):
            total += i * i % 7
        for _ in range(2):
            np.fft.fftn(self._field)
            self._matrix @ self._matrix
            np.exp(self._matrix)
        return total

    def sample(self, *_):
        t0 = perf_counter()
        self._probe()
        self.samples.append((t0, perf_counter() - t0))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, a: float, b: float) -> tuple[float, float]:
        """(raw, corrected) seconds of work in [a, b], probe time excluded."""
        samples = list(self.samples)  # the handler may append while this runs
        if not samples:
            raise RuntimeError("no host-speed samples")
        durations = [d for _, d in samples]
        half = SMOOTH // 2
        speed = [statistics.median(durations[max(0, i - half):i + half + 1])
                 for i in range(len(durations))]
        ends = [s + d for s, d in samples]
        # gaps: before the first probe, between probes, after the last one
        gaps = [(-np.inf, samples[0][0], speed[0])]
        gaps += [(ends[i], samples[i + 1][0], (speed[i] + speed[i + 1]) / 2)
                 for i in range(len(samples) - 1)]
        gaps.append((ends[-1], np.inf, speed[-1]))
        raw = corrected = 0.0
        for lo, hi, probe_s in gaps:
            part = min(hi, b) - max(lo, a)
            if part > 0:
                raw += part
                corrected += part * REF_PROBE_S / probe_s
        return raw, corrected

    def median_probe_s(self, a: float, b: float) -> float:
        inside = [d for s, d in self.samples if a <= s <= b]
        return statistics.median(inside) if inside else float("nan")
