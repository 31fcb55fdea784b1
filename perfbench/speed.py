"""Calibration probes that put every timing at one reference speed.

On a shared host the same item, on the same input, takes anywhere between
1x and 1.5x its fastest time, depending on what the neighbours do; the
speed switches within seconds and lasts for seconds to minutes.  So every
timed section is bracketed by a probe of the same kind of work:

* ``probe`` -- interpreter work and small LAPACK calls, what kfsslab does
  in-process;
* ``spawn_probe`` -- starting an interpreter that imports numpy, what a
  set-up sample begins with.  Start-up loads files, forks and execs, and on
  a shared host its slowdowns were measured not to follow the in-process
  probe's.

A duration is reported as ``raw * reference / probe``, where ``probe`` is
the mean of the probe times just before and just after it.  The probes run
outside every timed section and never touch kfsslab, so a change to kfsslab
moves the reported time exactly as it moves the raw time; only the host's
speed is divided out.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# probe times that define the reference speed (about the probes' times on
# an idle reference machine, so scaled times read close to raw ones)
REFERENCE_S = 0.015
SPAWN_REFERENCE_S = 0.15
_PY_STEPS = 60_000
_EIGH_STEPS = 600
_M = np.eye(8) + 0.1 * np.arange(64.0).reshape(8, 8) / 64.0
_M = _M @ _M.T


def probe() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PY_STEPS):
        acc += i * i
    for _ in range(_EIGH_STEPS):
        np.linalg.eigh(_M)
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Seconds to start an interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Clock:
    """Times sections back to back, each bracketed by probes.

    ``raw`` and ``scaled`` accumulate the sections' seconds, as measured and
    at the reference speed; ``scale`` is the factor of the last section.
    """

    def __init__(self, probe_fn=probe, reference: float = REFERENCE_S):
        self.probe, self.reference = probe_fn, reference
        self.last_probe = probe_fn()
        self.probes = [self.last_probe]
        self.raw = self.scaled = self.scale = 0.0

    def time(self, fn):
        """Run ``fn`` as one timed section and return its result."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            raw = time.perf_counter() - t0
            before, self.last_probe = self.last_probe, self.probe()
            self.probes.append(self.last_probe)
            self.scale = self.reference / (0.5 * (before + self.last_probe))
            self.raw += raw
            self.scaled += raw * self.scale
