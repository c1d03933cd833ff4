"""Host speed, sampled inside the measured process while it works.

The reference host (a 2-core virtual machine) changes speed by up to 1.8x
for stretches of one to twenty seconds, and its two cores do so
independently, so neither a probe on the other core nor a calibration run
before or after a measurement sees the speed the measurement ran at.
Instead a SIGALRM timer interrupts the measured process every INTERVAL_S
and times a fixed probe there, on the same core and in the same stretch as
the work around it.  The probe is stdlib `Fraction` and big-integer
arithmetic, the same kind of work as permfact's: on the reference host its
time grew with the slow stretches about as much as the workloads' did,
while a plain integer loop grew less and random reads over a large table
grew more.

A measured interval is reported as its length minus the probes that ran
inside it, times REFERENCE_S over the mean probe time in it: the time the
work would have taken at the speed at which the probe takes REFERENCE_S.
A change to permfact moves the work and not the probe, so it shows in
full; a change of host speed moves both and cancels.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 75e-6  # the probe's time inside a child in the reference host's fast stretches
_MODULUS = 7 ** 300

_samples = []  # (perf_counter at the probe's end, probe seconds)


def probe():
    f = Fraction(1, 3)
    for i in range(1, 12):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    x = 3 ** 400
    for _ in range(20):
        x = x * 12345678901 % _MODULUS



def _sample(signum, frame):
    t0 = time.perf_counter()
    probe()
    t1 = time.perf_counter()
    _samples.append((t1, t1 - t0))


def start():
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)


def scaled(begin, end, extra=0.0):
    """(scaled seconds, speed factor) of the perf_counter interval [begin, end].

    `extra` is time outside the interval that ran unsampled at the same
    speed (interpreter start, before sampling began); it is scaled with it.
    """
    inside = [d for t, d in _samples if begin <= t <= end]
    probes = inside or [d for _, d in _samples]
    factor = REFERENCE_S * len(probes) / sum(probes) if probes else 1.0
    return (end - begin - sum(inside) + extra) * factor, factor
