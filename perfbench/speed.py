"""Machine speed, measured next to every timed call.

The CPU of a shared host changes speed by up to 2x, for seconds to minutes
at a time, because of load that is not the benchmark's.  A fastest-repeat
or a median over one run cannot remove a slow phase that lasts the whole run.
So every timed request and every timed import is bracketed by runs of a
fixed calibration task, and its wall time is scaled to a reference speed,
at which that task takes its nominal time:

    reference seconds = wall seconds * nominal seconds / calibration seconds

where the calibration time is the mean of the runs just before and just
after the call.  The scaling follows the machine, not the program: a change
that makes the program faster lowers its reference seconds by the same share
as its wall seconds.

Slow phases do not slow all work alike.  On a 2-vCPU Intel Xeon VM, the
slowest third of five minutes of calibrations against the fastest third
slowed the ``interpreter`` task 1.40x and the ``dense`` task 1.23x.  Over
the same time, recover, iso, norms and paths requests slowed 1.34-1.56x;
scaled by the interpreter task they kept 0.94-1.01 of their speed.  verify
requests, which spend most of their time in dense SVDs, slowed 1.06-1.37x;
scaled by the dense task they kept 0.86-1.09 (0.74-0.94 by the interpreter
task).  Each kind of request is scaled by the task listed for it in
``workloads.CALIBRATION``.  A fresh ``import quiveralg`` slowed 1.13x and
is scaled by the dense task (0.84; 0.73 by the interpreter task).
"""

import itertools
import statistics
import time

import numpy as np

_N = 7
_MATRIX = [[(3 * i + 7 * j) % 3 for j in range(_N)] for i in range(_N)]
_COMPLEX = np.random.default_rng(0).standard_normal((160, 320)).view(complex)


def interpreter_s() -> float:
    """Wall time of 800 vertex permutations of a 7 x 7 matrix, each built as
    nested tuples and counted in a dict: interpreted Python."""
    start = time.perf_counter()
    seen = {}
    for p in itertools.islice(itertools.permutations(range(_N)), 800):
        key = tuple(tuple(_MATRIX[p[i]][p[j]] for j in range(_N)) for i in range(_N))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def dense_s() -> float:
    """Wall time of the singular values of a fixed complex 160 x 160 matrix:
    dense linear algebra (LAPACK, one thread)."""
    start = time.perf_counter()
    np.linalg.svd(_COMPLEX, compute_uv=False)
    return time.perf_counter() - start


#: calibration task -> (its function, its time at the reference speed).  The
#: nominal times are the two tasks' typical times measured side by side.
TASKS = {"interpreter": (interpreter_s, 0.010), "dense": (dense_s, 0.005)}


class Clock:
    """Scales the wall time of successive calls to the reference speed."""

    def __init__(self) -> None:
        self.samples = {task: [] for task in TASKS}
        self.last = None  # the task that ran the latest calibration

    def _calibrate(self, task: str) -> None:
        self.samples[task].append(TASKS[task][0]())
        self.last = task

    def start(self, task: str) -> None:
        """Call right before a timed call of the kind ``task`` calibrates."""
        if self.last != task:
            self._calibrate(task)

    def scale(self, wall_s: float) -> float:
        """Reference seconds of the call since ``start``, which took
        ``wall_s``; call it right after the call ends."""
        task = self.last
        self._calibrate(task)
        runs = self.samples[task]
        return wall_s * 2 * TASKS[task][1] / (runs[-2] + runs[-1])

    def summary(self) -> dict:
        """Calibration times of the run in ms, per task: how fast the machine was."""
        out = {}
        for task, runs in self.samples.items():
            if len(runs) > 1:
                q = statistics.quantiles(runs, n=4)
                out[task] = {"runs": len(runs), "min_ms": 1e3 * min(runs), "q1_ms": 1e3 * q[0],
                             "median_ms": 1e3 * q[1], "q3_ms": 1e3 * q[2]}
        return out
