"""A fixed reference load that measures how fast this machine runs right now.

The benchmark's host is a few virtual CPUs of a shared machine whose speed
swings by about 1.7x, in phases that last from under a second to minutes.
run.py times ``reference()`` in its own process before each of the
workload's iterations and after the last, and rescales every measured time
to the speed at which the reference takes ``NOMINAL_S``. A run that falls
in a slow phase sees its iterations and the reference slow down together,
and the ratio keeps what the program itself changed.

The reference does not touch the package under test, so no change to the
program moves it. Each part mirrors a kind of work the workloads do:

- interpreted Python calling small methods and formatting floats with repr
  (per-step overhead and CSV writing in horizon and reproduce);
- numpy calls on 1-element arrays (per-step dispatch in horizon and coupled);
- element-wise arithmetic on 10^4-element arrays (ensemble stepping);
- 2 x 10^6 normal draws (the ensemble's noise pre-draw);
- a dense 512 x 512 matrix-vector product (coupled);
- random reads from a 16 MB array (memory latency);
- streaming arithmetic over 32 MB arrays (memory bandwidth, as in the
  ensemble's 80 MB noise and state arrays);
- filling newly mapped memory (page faults, which every fresh child pays
  for each large array it allocates);
- formatting coordinate text (SVG rendering).
"""

import time

import numpy as np

# Seconds one reference() call takes on the machine the baseline was
# measured on (2-vCPU x86_64, Python 3.11, numpy 2.4, OpenBLAS on one
# thread); the scale of every rescaled time.
NOMINAL_S = 0.12

_RNG = np.random.default_rng(20250525)
_MATRIX = _RNG.standard_normal((512, 512))
_VECTOR = _RNG.standard_normal(512)
_WIDE_A = _RNG.standard_normal(10_000)
_WIDE_B = _RNG.standard_normal(10_000)
_BIG = _RNG.standard_normal(2_000_000)
_INDEX = _RNG.integers(0, _BIG.size, 200_000)
_STREAM = np.ones(4_000_000)
_STREAM_OUT = np.empty_like(_STREAM)
_ONE = np.ones(1)
_EYE = np.eye(1)
_XS = np.linspace(0.0, 1.0, 6000).tolist()


class _Oscillator:
    def __init__(self, k: float, h: float):
        self.k, self.h = k, h

    def gradient(self, w: float) -> float:
        return self.k * w

    def step(self, w: float, v: float) -> tuple:
        v = v - self.h * self.gradient(w)
        return w + self.h * v, v


def _interpreted(n: int = 4000) -> int:
    osc, w, v = _Oscillator(1.3, 0.01), 0.4, 0.2
    lines = []
    for k in range(n):
        w, v = osc.step(w, v)
        lines.append(",".join((repr(k * 0.01), repr(w), repr(v), repr(0.5 * v * v + 0.65 * w * w))))
    return len("\n".join(lines))


def _tiny(n: int = 800) -> float:
    w, v = _ONE.copy(), 0.5 * _ONE
    energy = 0.0
    for _ in range(n):
        g = _EYE @ w
        v = v - 0.01 * g
        w = w + 0.01 * v
        energy = float(0.5 * v @ v + 0.5 * w @ g)
    return energy


def _wide(n: int = 200) -> float:
    u, z = _WIDE_A.copy(), _WIDE_B.copy()
    for _ in range(n):
        z = z - 0.01 * u + 0.001 * _WIDE_B
        u = u + 0.01 * z
    return float(u.sum())


def _draws() -> float:
    return float(np.random.default_rng(7).standard_normal(2_000_000).sum())


def _matvec(n: int = 120) -> float:
    y = _VECTOR
    for _ in range(n):
        y = _MATRIX @ _VECTOR
    return float(y[0])


def _gather(n: int = 3) -> float:
    total = 0.0
    for _ in range(n):
        total += float(_BIG[_INDEX].sum())
    return total


def _stream() -> float:
    np.multiply(_STREAM, 0.5, out=_STREAM_OUT)
    np.add(_STREAM_OUT, _STREAM, out=_STREAM_OUT)
    return float(_STREAM_OUT[0])


def _fresh() -> float:
    # 48 MB is above glibc's largest mmap threshold (32 MB), so every call
    # maps, faults in and zeroes new pages, as a fresh child's arrays do.
    return float(np.ones(6_000_000)[::4096].sum())


def _text() -> int:
    return len(" ".join(f"{x * 640:.2f},{(1 - x * x) * 480:.2f}" for x in _XS))


PARTS = (_interpreted, _tiny, _wide, _draws, _matvec, _gather, _stream, _fresh, _text)


def reference() -> float:
    """Seconds one pass of the reference load takes now."""
    start = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - start


def warm_up():
    reference()
