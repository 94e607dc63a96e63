"""Machine-speed probe: scales measured times to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more within a minute, which swamps any change worth detecting.
A fixed, kernelkit-independent piece of pure-Python work (`probe`) is
timed every `INTERVAL_S` while the workload runs, by a SIGALRM handler in
the same process.  A time measured over an interval is reported as

    raw seconds, minus the probes' own time, * REFERENCE_S / (mean probe time)

so it reads as seconds on a machine where one probe takes `REFERENCE_S`.
A faster kernelkit lowers the raw time and leaves the probe unchanged,
so gains show in full; a slower machine lengthens both and cancels out.
The raw times are kept next to the scaled ones in the results file.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median probe time on a 2-vCPU Xeon VM (2.0 GHz) under Python 3.11.7.
REFERENCE_S = 0.0025
INTERVAL_S = 0.05
# probes taken this long before an interval still describe its speed
LOOKBACK_S = 0.5

# the circulant graph on 16 vertices with offsets 1 and 5, as adjacency masks
_GRAPH = [(1 << (v + 1) % 16) | (1 << (v - 1) % 16) | (1 << (v + 5) % 16) | (1 << (v - 5) % 16) for v in range(16)]


def probe() -> float:
    """Seconds to enumerate the maximal independent sets of a fixed graph
    with an explicit stack, tallying them in a dict: the bit masks, small
    tuples and dict traffic that kernelkit's inner loops are made of."""
    start = time.perf_counter()
    n = len(_GRAPH)
    full = (1 << n) - 1
    tally: dict[int, int] = {}
    stack = [(0, 0, 0)]
    while stack:
        v, chosen, excluded = stack.pop()
        if v == n:
            if all(_GRAPH[u] & chosen for u in range(n) if (excluded >> u) & 1):
                tally[chosen] = tally.get(chosen, 0) + 1
            continue
        if _GRAPH[v] & chosen:
            stack.append((v + 1, chosen, excluded | (1 << v)))
            continue
        stack.append((v + 1, chosen, excluded | (1 << v)))
        stack.append((v + 1, chosen | (1 << v), excluded))
    if not tally or any(m & ~full for m in tally):
        raise AssertionError("speed probe found no independent sets")
    return time.perf_counter() - start


class SpeedSampler:
    """Takes a probe every `INTERVAL_S` between `start` and `stop`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self.spent = 0.0
        # set while a process pool works, where a probe would compete with it
        self.paused = False
        self._previous = None

    def _sample(self, *_):
        if self.paused:
            return
        taken = time.perf_counter()
        seconds = probe()
        self.samples.append((taken, seconds))
        self.spent += time.perf_counter() - taken

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, begin: float, end: float) -> float:
        """REFERENCE_S over the mean probe time around [begin, end]."""
        window = [s for t, s in self.samples if begin - LOOKBACK_S <= t <= end]
        if not window:
            window = [s for t, s in self.samples if t <= end][-1:]
        return REFERENCE_S / statistics.fmean(window)
