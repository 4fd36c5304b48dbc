"""Host speed: fixed probes of the host, timed beside the workload.

The benchmark's reference host is a shared 2-core VM whose speed drifts by
10-40% over minutes, alike for every workload (see STEADINESS.md): two
sets of runs of the same code, some minutes apart, differed by up to a
third in every time and rate.  So every untraced run also times fixed
probes of the host in short samples spread over its set-ups and its
timed loop:

``compute``
    :func:`reference_work`, pure Python in the program's style, timed in
    wall and CPU time.
``fsync``
    appending a small record to a file in the run's scratch directory and
    fsyncing it, timed in wall time.

The probes use only the standard library, so no change to the program
moves them.  A probe's *scale* is its median time over the run divided by
its time on the reference host (:data:`REFERENCE_S`).  A workload's
end-to-end times and rates are divided and multiplied by the product of
``scale ** exponent`` over the probes it names
(``Workload.wall_exponents``, ``Workload.cpu_exponents``): they read as
they would on the reference host.  The exponents are fitted per workload
(STEADINESS.md); they are below 1 because the probes follow the host's
speed more closely than the program does.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional

#: Median seconds of one probe call on the reference host (2-core x86-64
#: VM, Python 3.11.7, ext4): one :func:`reference_work` call, wall and
#: CPU alike, and one record appended and fsynced.
REFERENCE_S = {"compute": 0.0049, "fsync": 0.000089}
#: Calls per sample of each probe; a sample takes about 35 ms, so a run
#: spends about 3.5% of its timed loop on calibration.
CALLS_PER_SAMPLE = {"compute": 6, "fsync": 30}
#: The record the ``fsync`` probe appends: about one WAL record's size.
_RECORD = b"\0" * 120


def reference_work() -> int:
    """Fixed work in the program's style: tuples, hash joins, sets, sorts."""
    rows = [(i, i % 7, (i * 31) % 50, (i * 17) % 20) for i in range(2000)]
    index = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    pairs = set()
    for left in rows[:300]:
        for right in index[(left[1] + 1) % 7][:20]:
            if left[2] + right[2] <= 60:
                pairs.add(frozenset((left[0], right[0])))
    return len(pairs) + len(sorted(rows, key=lambda row: (row[2], row[3])))


class HostSpeed:
    """Calibration samples of one run, and the scale they give its times.

    The ``compute`` probe is always sampled.  The ``fsync`` probe is
    sampled when ``fsync_directory`` is given: it writes
    ``calibration.bin`` there, and :meth:`close` removes it.
    """

    def __init__(self, fsync_directory: Optional[Path] = None) -> None:
        self.wall: Dict[str, List[float]] = {"compute": []}
        self.cpu: List[float] = []
        self.path = None
        if fsync_directory is not None:
            self.wall["fsync"] = []
            self.path = Path(fsync_directory) / "calibration.bin"

    def sample(self) -> None:
        for _ in range(CALLS_PER_SAMPLE["compute"]):
            cpu_start, start = time.process_time(), time.perf_counter()
            reference_work()
            self.wall["compute"].append(time.perf_counter() - start)
            self.cpu.append(time.process_time() - cpu_start)
        if self.path is not None:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            try:
                for _ in range(CALLS_PER_SAMPLE["fsync"]):
                    start = time.perf_counter()
                    os.write(fd, _RECORD)
                    os.fsync(fd)
                    self.wall["fsync"].append(time.perf_counter() - start)
            finally:
                os.close(fd)

    def scales(self) -> Dict[str, float]:
        """Each probe's median over the run as a multiple of the reference host's."""
        scales = {probe: statistics.median(times) / REFERENCE_S[probe] for probe, times in self.wall.items()}
        scales["compute_cpu"] = statistics.median(self.cpu) / REFERENCE_S["compute"]
        return scales

    def factor(self, exponents: Mapping[str, float]) -> float:
        """How much slower than the reference host the run's host was, for
        a workload whose times follow each probe ``probe`` (``compute_cpu``
        for the compute probe's CPU time) as ``scale ** exponents[probe]``."""
        scales = self.scales()
        result = 1.0
        for probe, exponent in exponents.items():
            result *= scales[probe] ** exponent
        return result

    def close(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)
