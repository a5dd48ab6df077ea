"""Reference kernels that track the host's speed.

The 2-vCPU virtual machines this benchmark was built on change speed
under the guest, in spells of seconds to a minute, and different kinds of
work slow by different amounts: Python formatting and parsing can run
1.5-1.9x slower while dense linear algebra keeps its pace.  Unscaled job
times spread from run to run by more than the metrics' bounds allow
(NOTES.md gives the measured spreads).  So the benchmark times a kernel
made of the kinds of work a workload's jobs do just before every job, and
once in every set-up process, and scales each job's time, and each set-up
time, by the kernel's time on the reference machine over its time there.
The kernels are the benchmark's own code, so no change to the program
moves them.

Two parts make up the kernels:

- ``text``: vectorized numpy on a cache-resident array, and per-row
  Python float formatting and parsing, as CSV I/O and the interpreter-bound
  parts of the CLI do;
- ``linalg``: a small complex SVD and QR, as dense and compute-bound
  numeric work does (the Z_N duality suites, transcendental rendering).
"""

from __future__ import annotations

import time

import numpy as np

_X = np.exp(2j * np.pi * np.arange(2 ** 15) / 7.0)
_M = np.exp(2j * np.pi * np.outer(np.arange(160), np.arange(160)) / 163.0) + np.eye(160)


def _text() -> None:
    np.fft.fft(np.cumsum(_X))
    text = "".join(f"{i},{float(v.real)!r},{float(v.imag)!r}\n"
                   for i, v in enumerate(_X[:1500]))
    [float(line.split(",")[1]) for line in text.splitlines()]


def _linalg() -> None:
    np.linalg.svd(_M, compute_uv=False)
    np.linalg.qr(_M)


#: Each part, and its time in seconds on the machine the scaled metrics
#: refer to (about the median on the build machine, a 2-vCPU Xeon VM at
#: 2.1 GHz).
PARTS = {"text": (_text, 0.007), "linalg": (_linalg, 0.008)}

#: The kernel of each workload: the kinds of work its jobs do.  ``files``
#: jobs spend their time in CSV text; ``scan`` renders with vectorized
#: transcendentals and sweeps arrays; ``duality`` runs SVDs and QRs.
WORKLOAD_KERNELS = {"scan": ("text", "linalg"), "files": ("text",),
                    "duality": ("text", "linalg")}


def ref_s(parts=("text",)) -> float:
    """Seconds the kernel made of ``parts`` takes on the reference machine."""
    return sum(PARTS[p][1] for p in parts)


def kernel_s(parts=("text",)) -> float:
    """Seconds taken by one run of the kernel made of ``parts``."""
    t0 = time.perf_counter()
    for p in parts:
        PARTS[p][0]()
    return time.perf_counter() - t0
