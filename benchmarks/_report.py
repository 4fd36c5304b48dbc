"""What every ``BENCH_*.json`` report writer shares.

A report writer is a ``benchmarks/bench_*.py`` module that declares its
target as ``RESULTS_PATH = REPO_ROOT / "BENCH_<name>.json"`` (the line
``benchmarks/conftest.py`` discovers writers by), assembles its report in
``run_sweep()``, writes it from its ``bench_full`` gate with
:func:`write_report` and ends with::

    if __name__ == "__main__":
        run_cli(run_sweep, RESULTS_PATH, __doc__)

so that ``PYTHONPATH=src python benchmarks/bench_<name>.py [--json]`` runs
the sweep, prints its rows and, with ``--json``, writes the report.  Timed
regions go through :func:`repro.bench.harness.time_callable`.  The module
name does not match ``bench_*.py`` or ``test_*.py``, so pytest does not
collect it.
"""

import argparse
import contextlib
import json
import pathlib
import sys
from dataclasses import replace

from repro.queries.bindings import enumerate_bindings
from repro.queries.plan import plan_conjunction

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))  # perfbench/ sits next to src/
from perfbench.run import host_fingerprint


# ---------------------------------------------------------------------------
# The report and its command line
# ---------------------------------------------------------------------------
def write_report(report, path):
    """Write ``report`` to ``path`` as JSON, stamped with the host fingerprint."""
    stamped = dict(report, host=host_fingerprint())
    path.write_text(json.dumps(stamped, indent=2) + "\n")
    return path


def _fields(row):
    """``name=value`` for every field of a result row but nested lists."""
    return "  ".join(
        f"{name}={json.dumps(value) if isinstance(value, dict) else value}"
        for name, value in row.items()
        if not isinstance(value, list)
    )


def print_report(report):
    """Every result row on a line of its own, then the report's scalar fields."""
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for row in value:
                print(f"{key}: {_fields(row)}")
    for key, value in report.items():
        if not isinstance(value, (list, dict)):
            print(f"{key}: {value}")


def run_cli(run_sweep, results_path, doc):
    """The writers' one command line: run the sweep, print it, ``--json`` writes it."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--json",
        action="store_true",
        help=f"write the machine-readable sweep report to {results_path.name}",
    )
    args = parser.parse_args()
    report = run_sweep()
    print_report(report)
    if args.json:
        print(f"wrote {write_report(report, results_path)}")


# ---------------------------------------------------------------------------
# Shared measurement pieces
# ---------------------------------------------------------------------------
def bindings(database, atoms, comparisons=(), plan=None, evaluate=enumerate_bindings):
    """The answer multiset of a conjunction, sorted so two paths compare equal.

    ``evaluate`` is :func:`~repro.queries.bindings.enumerate_bindings` (with
    ``plan``, ``None`` for the planner's own) or a reference evaluator.
    """
    options = {} if plan is None else {"plan": plan}
    return sorted(
        tuple(sorted(binding.items()))
        for binding in evaluate(database, atoms, comparisons, **options)
    )


def relation_statistics(database, atoms):
    """The maintained statistics of every relation the atoms read."""
    return {
        atom.relation: database.relation(atom.relation).statistics() for atom in atoms
    }


def baseline_plan(atoms, comparisons=(), statistics=None, strip=(), **verdicts):
    """The planner's plan with compiled step sections stripped and verdicts forced.

    ``strip`` names step fields to empty (``"range_probe"``,
    ``"columnar_pushdowns"``); ``verdicts`` set plan fields such as
    ``run_columnar=False``.  Pass the result as ``plan=``.
    """
    plan = plan_conjunction(atoms, comparisons, statistics=statistics)
    if strip:
        empty = {"range_probe": None, "columnar_pushdowns": ()}
        steps = tuple(
            replace(step, **{name: empty[name] for name in strip}) for step in plan.steps
        )
        plan = replace(plan, steps=steps)
    return replace(plan, **verdicts)


def replay(server, trace, round_scope=contextlib.nullcontext):
    """Replay a serving trace: commit each round's delta, then serve its batch.

    Each batch is served inside ``round_scope()`` (a chaos schedule, say);
    deltas commit outside it.
    """
    results = []
    for delta, requests in trace.rounds:
        if delta:
            server.apply(list(delta))
        with round_scope():
            results.extend(server.serve_batch(requests))
    return results
