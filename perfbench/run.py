"""The repository's benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Workloads: ``serve_mixed``, ``solve_qc``, ``ingest_durable`` (see
:mod:`perfbench.workloads`).  ``--trace 0`` measures the end-to-end metrics
with tracing off, their times and rates scaled to a reference host speed
(:mod:`perfbench.calibration`); ``--trace 1`` runs the traced phase and reports the
per-layer metrics (see :mod:`perfbench.harness`).  The program is imported
from ``src/`` next to this directory.  The run prints the host fingerprint
and a table of every measurement, then, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files (the durability directory, the Chrome trace of a traced
run) go under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def _git_head(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> Optional[str]:
    """The filesystem type of the mount holding ``path``."""
    path = path.resolve()
    best, kind = "", None
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) >= 3 and (path == Path(fields[1]) or Path(fields[1]) in path.parents):
                    if len(fields[1]) >= len(best):
                        best, kind = fields[1], fields[2]
    except OSError:
        return None
    return kind


def host_fingerprint() -> Dict[str, object]:
    """Platform, interpreter, NumPy, cores, commit and the durability filesystem."""
    numpy = sys.modules.get("numpy")
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_head": _git_head(ROOT),
        "durability_fs": _filesystem(WORK_DIR),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import END_TO_END, PER_LAYER, end_to_end, per_layer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir=WORK_DIR)

    extras: Dict[str, float] = {}
    if args.trace:
        trace_path = WORK_DIR / f"{args.workload}-trace.json"
        metrics, run = per_layer(workload, args.seconds, trace_path=trace_path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, run, extras = end_to_end(workload, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    rows = [(name, metrics[name], unit) for name, unit in units.items()]
    rows.append(("error_rate", run.failed / max(1, run.attempted), "fraction"))
    rows += [(name, extras[name], "s") for name in ("op_p90_s", "recovery_s") if name in extras]
    rows += [(name, value, "1/s" if name == "ops_per_s_unscaled" else "ratio")
             for name, value in extras.items() if name == "ops_per_s_unscaled" or name.startswith("scale.")]
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for key, reason in list(run.failures.items())[:10]:
        print(f"  FAILED {key}: {reason}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
