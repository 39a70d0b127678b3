"""Reference kernels that track the speed of the machine.

The shared machine the benchmark runs on changes speed by tens of percent in
phases that last from a second to minutes, as long as a run or longer.  A
worker therefore runs one unit of fixed numpy work after every inference
solve and at every optimizer step, outside the timed spans, and ``run.py``
divides each phase's timings by that phase's slowdown: the median unit time
over the unit's nominal time.  A timing then reads what it would have at the
machine's nominal speed.

The units touch no fpx code, so a change to fpx cannot move them, and each
imitates the kernels of the workloads it serves:

- ``conv``: an im2col copy into a freshly allocated buffer and a GEMM, of
  the size of one denoise convolution (32 channels, 64x64).
- ``small``: a loop of (10x100) numpy ops like a toybox solve, whose time is
  dominated by per-call overhead, and building and sorting a dict of small
  Python objects like the graph bookkeeping of an fpx op.  With the Python
  part the ratio of a toybox_gd solve to the unit varied 4-5% over 2 s
  windows, against 6% without it and 11-12% for the solve alone.
"""

from __future__ import annotations

import time

# median time of one unit on the 2-core machine described in perfbench/README.md
NOMINAL_S = {"conv": 5.6e-3, "small": 0.82e-3}


class Reference:
    def __init__(self, np, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.np = np
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        if kind == "conv":
            self.image = rng.standard_normal((32, 66, 66))
            self.kernel = rng.standard_normal((32, 288))
        else:
            self.small = rng.standard_normal((10, 100))
            self.weight = 0.1 * rng.standard_normal((32, 10))
        self.times: list[float] = []

    def _conv(self):
        np = self.np
        cols = np.empty((32, 3, 3, 64, 64))
        for u in range(3):
            for v in range(3):
                cols[:, u, v] = self.image[:, u:u + 64, v:v + 64]
        return np.tanh(self.kernel @ cols.reshape(288, -1))

    def _small(self):
        np = self.np
        a = self.small
        for _ in range(20):
            h = np.tanh(self.weight @ a)
            a = a - 0.01 * (self.weight.T @ h)
            if not np.all(np.isfinite(a)):
                raise FloatingPointError("reference kernel diverged")
        nodes = {(i, "node"): [i, 0.5 * i, str(i)] for i in range(300)}
        return a, sorted(nodes.items(), key=lambda kv: -kv[1][1])

    def unit(self) -> float:
        """Run one unit; append its wall time in seconds to ``times``."""
        work = self._conv if self.kind == "conv" else self._small
        start = time.perf_counter()
        work()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]
