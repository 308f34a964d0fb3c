"""Machine-speed probes, so that timings taken while the machine's speed
drifts can be compared.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds, and a run's median time moves with it.  A probe times
a small fixed kernel, independent of the package, from a SIGALRM handler
every INTERVAL seconds while the timed work runs.  An interval's time is
then rescaled to nominal speed:

    nominal = (wall - time spent in probes) * REFERENCE_S / median probe

At nominal speed the rescaled time equals the wall time; on a machine
running at half speed it is half the wall time.  The raw wall time is always
reported next to the nominal one.

A fresh import runs in a child process whose speed these probes do not see,
so `import_seconds` rescales it by reference imports timed in the same
child right after it.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL = 0.25

_rng = np.random.default_rng(12345)
_THETA = _rng.random((50, 2))
_K = _rng.integers(-64, 65, size=(2, 400)).astype(float)
_C = _rng.random(400) + 1j * _rng.random(400)


def kernel():
    """One-row vector fields: many numpy calls on small arrays."""
    total = 0.0
    for row in range(50):
        x = np.atleast_2d(_THETA[row])
        E = np.exp(2j * np.pi * (x @ _K))
        total += float((E @ _C).real[0])
    return total


# The kernel's median time as a probe during runs of the benchmark on the
# machine it was defined on (x86_64, 2 cores, Python 3.11, numpy 2.4, one
# BLAS thread), so that there nominal and wall times are close.
REFERENCE_S = 0.0019

# Standard-library modules the package does not import.  A child imports
# them REFERENCE_REPS times right after the package, dropping them from
# sys.modules in between; REFERENCE_IMPORT_S is the median time on the
# defining machine.  One import alone is too short to be a steady reference.
REFERENCE_IMPORTS = (
    "asyncio", "email.mime.multipart", "xml.dom.minidom", "http.client", "logging.handlers",
    "sqlite3", "multiprocessing.pool", "urllib.request", "tarfile", "smtplib", "imaplib",
    "mailbox", "configparser", "xml.etree.ElementTree",
)
REFERENCE_REPS = 5
REFERENCE_IMPORT_S = 0.060

_IMPORT_CHILD = f"""
import importlib, sys, time
t = time.perf_counter()
import torusstab
package = time.perf_counter() - t
loaded = set(sys.modules)
reference = []
for _ in range({REFERENCE_REPS}):
    for name in set(sys.modules) - loaded:
        del sys.modules[name]
    t = time.perf_counter()
    for name in {REFERENCE_IMPORTS!r}:
        importlib.import_module(name)
    reference.append(time.perf_counter() - t)
print(package, sorted(reference)[len(reference) // 2])
"""


def import_seconds(src, cwd):
    """(nominal, raw) time of a fresh `import torusstab` from `src`, in a child process.

    The raw time is rescaled by REFERENCE_IMPORT_S over the median time of
    the reference imports in the same child.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD], env=env, cwd=cwd, capture_output=True, text=True,
        check=True, timeout=60,
    )
    package, reference = map(float, out.stdout.split()[-2:])
    return package * REFERENCE_IMPORT_S / reference, package


class SpeedProbe:
    """Times the kernel every INTERVAL seconds inside a `with` block.

    Only usable from the main thread; the previous SIGALRM handler and timer
    are put back on exit.
    """

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.clock = time.perf_counter
        self.starts = []
        self.durations = []

    def _probe(self, signum, frame):
        t0 = self.clock()
        kernel()
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _range(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def scale(self, start, end):
        """Speed scale for an interval timed inside the block.

        REFERENCE_S over the median probe inside the interval, or over the
        last probe before it when the interval is shorter than the probe
        spacing (entering the block probes once, so there is one).
        """
        lo, hi = self._range(start, end)
        probe = statistics.median(self.durations[lo:hi]) if hi > lo else self.durations[lo - 1]
        return REFERENCE_S / probe

    def probe_seconds(self, start, end):
        """Time the probes took inside the interval."""
        lo, hi = self._range(start, end)
        return sum(self.durations[lo:hi])

    def nominal(self, start, end, scale=None):
        """Interval's time less its probes, at nominal speed (`scale` defaults to its own)."""
        if scale is None:
            scale = self.scale(start, end)
        return (end - start - self.probe_seconds(start, end)) * scale
