"""Host-speed probe: a fixed kernel, independent of qmkdv, timed with the program.

The benchmark host is a few virtual CPUs of a shared machine.  Its speed
changes by up to a factor of about 1.7 within fractions of a second, and the
mix of fast and slow spells drifts over minutes as other tenants' load comes
and goes; process CPU time changes with it, so it is no way out.  So while a
repetition's study calls run, ``Sampler`` interrupts them every ``INTERVAL_S``
of wall time (``SIGALRM``) and times one short slice of a fixed kernel.  The
samples are uniform in time, so the mean of ``NOMINAL_S / slice time`` is the
mean host speed over the study, relative to the speed at which a slice takes
``NOMINAL_S``; ``run.py`` reports the study's wall time, less the slices,
times that factor as ``wall_norm_s``.  Set-up is too short to sample well
(about 0.25 s, much of it before numpy is imported), so ``slices`` times
``interp`` slices right after it instead, and ``run.py`` scales the set-up
time by their factor (``setup_s``).  A kernel is matched to what bounds its
workload, so that the speed it sees is the speed the study sees:

* ``interp``: interpreter-bound loop of small (n=256) FFTs and array glue,
  like the ``simulate`` integrator and the desk studies;
* ``fft``: an n=16384 complex FFT round trip, like the ``decay`` integrator;
* ``gemm``: complex matrix product with a 4 MB result and its absolute sum,
  like the ``s_infty_separable`` contraction of the resonance study (it uses
  the same OpenBLAS threads).

The kernels call numpy only, never qmkdv, so a change to the package moves
the study's time and not the slices'.  ``NOMINAL_S`` is each kernel's typical
slice time on an Intel Xeon 2-vCPU host with numpy 2.4.6 (OpenBLAS 0.3.31,
2 threads); it only fixes the scale of ``wall_norm_s``.
"""

from __future__ import annotations

import functools
import signal
import time

import numpy as np

# Bound at import, before a traced run wraps numpy.fft, so that probe slices
# never enter the traced FFT counts.
_FFT = np.fft.fft
_IFFT = np.fft.ifft

INTERVAL_S = 0.05


@functools.cache
def _inputs(*shape) -> np.ndarray:
    # fixed deterministic data; numpy.random is not imported, so that the
    # probe adds next to nothing to a study's peak memory
    k = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
    return np.cos(0.37 * k) + 1j * np.sin(0.11 * k * k)


def _interp() -> float:
    x = _inputs(256)
    s = 0.0
    for i in range(25):
        y = _IFFT(_FFT(x) * 0.5) + 1e-3 * x
        s += float(y[i].real) + i * 0.5
    return s


def _fft() -> float:
    return float(_IFFT(_FFT(_inputs(16384)) * 0.999)[0].real)


def _gemm() -> float:
    return float(np.sum(np.abs((0.01 * _inputs(64, 24)) @ _inputs(24, 4096))))


KERNELS = {"interp": _interp, "fft": _fft, "gemm": _gemm}
NOMINAL_S = {"interp": 0.00095, "fft": 0.0015, "gemm": 0.0025}


def speed_factor(kernel: str, times: list) -> float:
    """Mean host speed over slice times relative to nominal: below 1 when slow."""
    return sum(NOMINAL_S[kernel] / t for t in times) / len(times)


def slices(kernel: str, count: int) -> list:
    """Times of ``count`` back-to-back slices, after one untimed slice."""
    fn = KERNELS[kernel]
    fn()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


class Sampler:
    """Times one kernel slice every ``INTERVAL_S`` of wall time while active."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.fn = KERNELS[kernel]
        self.slices: list = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.fn()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        self.fn()  # warm-up: inputs built, FFT plans cached
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            # a study shorter than one interval: one slice right after it,
            # outside the timed calls, so not in handler_s
            t0 = time.perf_counter()
            self.fn()
            self.slices.append(time.perf_counter() - t0)

    def speed_factor(self) -> float:
        return speed_factor(self.kernel, self.slices)
