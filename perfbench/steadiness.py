"""Steadiness record: interleaved repeat runs, their quartiles, and the bounds.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --sets 2 --output perfbench/STEADINESS.md

Each set runs every workload ``--runs`` times, interleaved (run ``i`` of
every workload before run ``i + 1`` of any), each run with its own seed
and tracing off.  For every end-to-end metric the record gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread — the
interquartile distance as a share of the median — and, with two sets, how
far the second set's median moved toward worse.  The suggested bound of a
metric is three times its largest spread or twice its largest move, at
least 0.05 and at most 0.25, rounded up to a hundredth.

The record also gives, per workload, the range of each host probe's scale
over the runs (:mod:`perfbench.calibration`) and the exponents that best
fit the unscaled op time to the scales of the probes the workload names
(least squares in logs): the values for ``Workload.wall_exponents``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import END_TO_END  # noqa: E402
from perfbench.workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402

WORKLOADS = tuple(WORKLOAD_CLASSES)
LOWER_IS_BETTER = {name: better == "lower" for name, _, better in END_TO_END}
#: Printed rows of a run that the record keeps beside its metrics.
HOST_ROWS = ("scale.compute", "scale.fsync", "ops_per_s_unscaled")


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{completed.stdout}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] in HOST_ROWS:
            values[fields[0]] = float(fields[1])
    return values


def fitted_exponents(scales: Dict[str, List[float]], rates: List[float]) -> Dict[str, float]:
    """Coefficients of log(1 / rate) on each log(scale), by least squares."""
    names = list(scales)
    xs = {name: [math.log(v) for v in values] for name, values in scales.items()}
    ys = [-math.log(rate) for rate in rates]
    centred = {name: [v - statistics.mean(x) for v in x] for name, x in xs.items()}
    my = statistics.mean(ys)
    # Normal equations, solved by Gaussian elimination.
    a = [[sum(p * q for p, q in zip(centred[i], centred[j])) for j in names] for i in names]
    b = [sum(p * (y - my) for p, y in zip(centred[i], ys)) for i in names]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            f = a[j][i] / a[i][i]
            a[j] = [u - f * v for u, v in zip(a[j], a[i])]
            b[j] -= f * b[i]
    coefficients = [0.0] * len(names)
    for i in reversed(range(len(names))):
        rest = sum(a[i][j] * coefficients[j] for j in range(i + 1, len(names)))
        coefficients[i] = (b[i] - rest) / a[i][i]
    return dict(zip(names, coefficients))


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, lower_is_better: bool) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if lower_is_better else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: Dict[int, Dict[str, Dict[str, List[float]]]] = {}
    started = time.time()
    for set_index in range(args.sets):
        per_workload = values.setdefault(set_index, {w: {} for w in args.workloads})
        for run in range(args.runs):
            for workload in args.workloads:
                seed = args.seed_base + set_index * args.runs + run
                for name, value in one_run(workload, seed, seconds).items():
                    per_workload[workload].setdefault(name, []).append(value)
            print(f"set {set_index + 1} run {run + 1}/{args.runs} done at {time.time() - started:.0f}s", file=sys.stderr)

    lines = [
        "# Steadiness record",
        "",
        f"{args.sets} set(s) of {args.runs} interleaved runs per workload, "
        f"{seconds} s each, tracing off, seeds from {args.seed_base}. "
        "Spread = (q3 - q1) / median; move = how much worse set 2's median is than set 1's.",
        "",
        "| workload | metric | median | q1 | q3 | spread | move |",
        "|---|---|---|---|---|---|---|",
    ]
    worst: Dict[str, float] = {name: 0.0 for name, _, _ in END_TO_END}
    for workload in args.workloads:
        for name, _, _ in END_TO_END:
            stats = [summary(values[s][workload][name]) for s in range(args.sets)]
            move = (
                worse_by(stats[0]["median"], stats[1]["median"], LOWER_IS_BETTER[name])
                if args.sets > 1 else float("nan")
            )
            for s, st in enumerate(stats):
                lines.append(
                    f"| {workload} (set {s + 1}) | {name} | {st['median']:.6g} | {st['q1']:.6g} | "
                    f"{st['q3']:.6g} | {st['spread']:.3f} | {'' if s == 0 or math.isnan(move) else f'{move:+.3f}'} |"
                )
            worst[name] = max(worst[name], 3 * max(st["spread"] for st in stats))
            if not math.isnan(move):
                worst[name] = max(worst[name], 2 * move)
    lines += ["", "Host speed (all sets):", ""]
    for workload in args.workloads:
        def every(name: str) -> List[float]:
            return [v for s in range(args.sets) for v in values[s][workload].get(name, [])]

        probes = {probe: every(f"scale.{probe}") for probe in WORKLOAD_CLASSES[workload].wall_exponents}
        ranges = "; ".join(
            f"scale.{probe} {min(v):.3f}-{max(v):.3f}" for probe in ("compute", "fsync") if (v := every(f"scale.{probe}"))
        )
        fit = fitted_exponents(probes, every("ops_per_s_unscaled"))
        lines.append(f"- `{workload}`: {ranges}; fitted wall_exponents " + ", ".join(f"{k} {v:.2f}" for k, v in fit.items()))
    lines += ["", "Suggested bounds (3 × largest spread, 2 × largest move):", ""]
    for name, value in worst.items():
        bound = min(0.25, max(0.05, math.ceil(value * 100) / 100))
        lines.append(f"- `{name}`: {bound:.2f}")
    lines += ["", "Raw values:", "", "```json", json.dumps(values, sort_keys=True), "```", ""]
    text = "\n".join(lines)
    if args.output:
        args.output.write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
