"""Time one cold set-up of a workload and print it in seconds.

Set-up is what a user pays before the first iteration: importing bwvi
(through ``bwvi.cli``, as the ``bwvi`` command does) and building the
workload's target, schedule and initial state.  ``run.py`` starts this
script in a fresh interpreter several times and reports the median.

    python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print(repr(time.perf_counter() - start))
