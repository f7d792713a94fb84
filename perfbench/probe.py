"""Set-up probe: `import voa`, then build every input of one workload.

    python3 perfbench/probe.py <workload> <seed> [--smoke]

Runs in a fresh interpreter (run.py starts it) and prints the seconds that
the import and the input building took, at reference machine speed (see
reference.py).  Making the task list itself, with its known answers, is
not part of the set-up and is not timed.
"""

import sys
import time
from pathlib import Path

from reference import SpeedProbe

# set-up lasts a tenth of a second, so the probe samples more often
probe = SpeedProbe(period_s=0.01, rounds=250)
with probe:
    excluded = probe.excluded
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import voa  # noqa: E402,F401
    seconds = time.perf_counter() - t0 - (probe.excluded - excluded)

    import workloads  # noqa: E402

    tasks = workloads.tasks_for(sys.argv[1], int(sys.argv[2]),
                                smoke="--smoke" in sys.argv[3:])
    excluded = probe.excluded
    t0 = time.perf_counter()
    for task in tasks:
        task.build()
    seconds += time.perf_counter() - t0 - (probe.excluded - excluded)
print(seconds / probe.slowdown())
