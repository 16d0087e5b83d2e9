"""A fixed reference task that measures how fast the host runs right now.

The 2-vCPU VMs this benchmark was written on change speed by up to 2x over
tens of seconds to minutes (other tenants), in user CPU time, so the raw op
times of runs made minutes apart are not comparable.  A run of the benchmark
times this task before every set-up sample and every op, and scales its
times by ``NOMINAL_S / median(reference times of the run)``: a figure then
reads as seconds on a host where the task takes ``NOMINAL_S``.

The task uses only sympy and numpy, never leafwise, so no change to leafwise
changes it.  It mixes the two kinds of work the ops do: symbolic
differentiation with ``lambdify``, and ``einsum`` over arrays well beyond L2.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import sympy as sp

NOMINAL_S = 0.35  # about the task's median time on the VMs above


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((131072, 4, 4))
        self.b = rng.random((131072, 4, 4))
        self.t = sp.symbols("t1:4")
        self.calls = itertools.count(1)

    def __call__(self) -> float:
        """Run the task once and return its wall time in seconds."""
        t1, t2, t3 = self.t
        # a new coefficient each call, so sympy's cache cannot serve the task
        c = 0.02 + 1e-7 * next(self.calls)
        start = time.perf_counter()
        r = 2 + (1 + c * sp.sin(t3)) * sp.cos(t1 + c * t2)
        immersion = (r * sp.cos(t2), r * sp.sin(t2), (1 + c * sp.cos(t3)) * sp.sin(t1),
                     c * sp.sin(t1 + t2 + t3))
        for x in immersion:
            for a in self.t:
                d = sp.diff(x, a)
                sp.lambdify(self.t, d, "numpy")
                for b in self.t:
                    sp.lambdify(self.t, sp.diff(d, b), "numpy")
        for _ in range(2):
            prod = np.einsum("nij,njk->nik", self.a, self.b)
            np.einsum("nii->n", np.sqrt(prod * prod + 1.0))
        return time.perf_counter() - start
