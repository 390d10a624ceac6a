"""Clock helpers: a fixed calibration probe and speed-normalised durations.

The CPU this benchmark runs on is shared, and its speed drifts by up to half
on a scale of seconds (measured: a fixed pure-Python loop moved between 98 and
153 us within one minute, with no steal time).  Raw wall times of two runs then
differ by more than any useful regression bound.  So every op (a train step or
an eval item) is preceded by a short probe kernel that uses no entlm code.
Each op's wall time is scaled by the probe's nominal time over the local
probe time, which reads as "ms at the probe's nominal speed".  A change to
entlm moves the op time and not the probe, so gains and regressions show
unchanged.  Raw wall figures are reported next to the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe times on the machine the bounds were set on, in a fast phase
# (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31 pinned to one thread).  They only set
# the scale of the normalised figures; they need not match other hosts.
PROBE_NOMINAL_MS = 0.12
STREAM_NOMINAL_MS = 0.6

# Probe samples on each side of an op that form its local speed estimate.
PROBE_HALF_WINDOW = 2

STREAM_BYTES = 2 << 20  # exceeds the 2 MiB per-core L2 cache

_rng = np.random.default_rng(12345)
_PROBE_X = _rng.random((8, 6, 32))
_PROBE_W = _rng.random((32, 32)) / 32


def _probe_kernel():
    # small-array numpy plus interpreter work, the mix entlm ops run on
    x = _PROBE_X
    for _ in range(6):
        y = x @ _PROBE_W
        y = np.exp(-y) + x
        x = y / y.sum(axis=-1, keepdims=True)
    s = 0
    for i in range(400):
        s += i
    return s


class Probe:
    """The probe kernel, optionally followed by a stream through last-level cache.

    Memory-bound workloads slow down under neighbours' cache and memory
    traffic more than the compute kernel does, so their probe adds the
    stream; compute-bound workloads keep their caches warm without it.
    """

    def __init__(self, stream=False):
        self.nominal_ms = PROBE_NOMINAL_MS + (STREAM_NOMINAL_MS if stream else 0.0)
        n = STREAM_BYTES // 8
        self._src = np.random.default_rng(1).random(n) if stream else None
        self._dst = np.empty(n) if stream else None

    def __call__(self):
        """Run the probe once; returns (start, end) perf_counter stamps."""
        a = time.perf_counter()
        _probe_kernel()
        if self._src is not None:
            np.multiply(self._src, 1.0, out=self._dst)
            np.add(self._dst, self._src, out=self._dst)
        return a, time.perf_counter()

    def mean_ms(self, n):
        """Mean time of n probes in ms."""
        total = 0.0
        for _ in range(n):
            a, b = self()
            total += b - a
        return total * 1000.0 / n


def local_scale(probe_durations_ms, nominal_ms, half_window=PROBE_HALF_WINDOW):
    """Per-sample speed factor nominal_ms / (centred rolling mean of probes)."""
    c = np.asarray(probe_durations_ms, dtype=np.float64)
    n = c.size
    cs = np.concatenate([[0.0], np.cumsum(c)])
    idx = np.arange(n)
    lo = np.clip(idx - half_window, 0, n)
    hi = np.clip(idx + half_window + 1, 0, n)
    return nominal_ms * (hi - lo) / (cs[hi] - cs[lo])


class OpClock:
    """Times a sequence of ops, each preceded by a probe.

    `mark()` is called at the start of every op (after the previous op ended,
    if ops are back to back).  Op k's raw duration runs from the end of probe k
    to the start of probe k+1, so probe time is never counted.  `close()` ends
    the last op.  `gap()` separates runs of ops (between repeats), so the time
    between them is not counted as an op.
    """

    def __init__(self, probe):
        self.probe = probe
        self.probe_ms = []  # one per op
        self.raw_ms = []  # one per op
        self.windows = []  # (start, end) perf_counter stamps of each op
        self._open_end = None  # end stamp of the probe that opened the current op

    def _end_op(self, end):
        self.raw_ms.append((end - self._open_end) * 1000.0)
        self.windows.append((self._open_end, end))

    def mark(self):
        a, b = self.probe()
        if self._open_end is not None:
            self._end_op(a)
        self.probe_ms.append((b - a) * 1000.0)
        self._open_end = b

    def close(self):
        if self._open_end is not None:
            self._end_op(time.perf_counter())
            self._open_end = None

    def gap(self):
        """Drop the open op: the time since the last mark is not an op."""
        if self._open_end is not None:
            self.probe_ms.pop()
            self._open_end = None

    def scales(self):
        """Speed factor of each op."""
        return local_scale(self.probe_ms[: len(self.raw_ms)], self.probe.nominal_ms)

    def normalised_ms(self):
        return np.asarray(self.raw_ms) * self.scales()


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
