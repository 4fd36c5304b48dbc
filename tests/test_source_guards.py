"""Source-level guards: properties of the codebase itself, not of one module.

PR 4 swept every hot-path ``key=repr`` sort into the typed total order of
:mod:`repro.relational.ordering` (``value_sort_key`` / ``row_sort_key``);
PR 10 removed the last straggler in ``relaxation/relax.py``.  The guard here
keeps the sweep finished: no ``sorted(..., key=repr)`` / ``.sort(key=repr)``
may reappear anywhere under ``src/repro/``.

The check walks the *AST*, not the text — a docstring or comment mentioning
``key=repr`` (the ordering module's own documentation does) must not trip it.

A second guard keeps the lattice search folded: every search mode of
:class:`~repro.core.enumeration.PackageSearchEngine` consumes one recursive
traversal, so :mod:`repro.core.enumeration` may hold exactly one recursive
function outside the retained reference enumerator, and it must live in the
engine.

A third guard keeps the plan the executor's only switch: the evaluator entry
points and the planner take no ``use_*`` or ``compile_*`` parameter, so an
access path is chosen by a verdict on the compiled plan and nowhere else.

A fourth guard keeps one verdict entry point: the lattice walk reaches
compatibility only through ``oracle.is_satisfied`` (plus the oracle's walk
bracket, which only accounts), never through the constraint, the memo or the
witness index directly.

A fifth guard keeps the benchmark report plumbing in one place: no
``benchmarks/bench_*.py`` module defines ``write_report`` or ``main`` or
imports ``argparse``; the report writers share ``benchmarks/_report.py``.

A sixth guard keeps one ``Qc`` probe: a package's probe is one evaluation of
``Qc``, so ``core/compatibility.py`` never calls a query's early-exit
``is_satisfiable_on``, and no function under ``src/repro/`` takes a
``stats_key`` that would let a caller key the plan cache without the
statistics the plan is costed with.  Nor does the plan cache key on an epoch:
``cached_plan`` and ``resolve_plan`` take no ``epoch`` parameter and nothing
under ``src/repro/`` names a ``plan_epoch``, so the live database and every
snapshot of it share one plan per conjunction and statistics bucket.

A seventh guard keeps bindings in slots: the executor behind
``enumerate_bindings`` matches rows through the plan's slot program, so the
dict-building row matcher ``_match_atom_against_row`` is referenced only by
the naive reference ``enumerate_bindings_naive``, anywhere under
``src/repro/``, and ``queries/bindings.py`` copies no binding with
``dict(binding)`` outside that reference.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _repr_key_offences(tree: ast.AST):
    """Every call in ``tree`` passing ``key=repr`` (as the bare builtin)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "repr"
            ):
                yield node.lineno


def test_no_key_repr_sorts_under_src():
    offences = []
    sources = sorted(SRC_ROOT.rglob("*.py"))
    assert sources, f"no sources found under {SRC_ROOT}"
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno in _repr_key_offences(tree):
            offences.append(f"{path.relative_to(SRC_ROOT.parent)}:{lineno}")
    assert not offences, (
        "key=repr ordering reappeared (use value_sort_key/row_sort_key from "
        "repro.relational.ordering instead): " + ", ".join(offences)
    )


def test_the_guard_itself_detects_an_offence():
    """The guard must actually fire on the pattern it polices."""
    offending = ast.parse("combos.sort(key=repr)\nsorted(xs, key=repr)")
    assert len(list(_repr_key_offences(offending))) == 2
    clean = ast.parse(
        '"""docstring mentioning key=repr is fine"""\n'
        "xs.sort(key=lambda pair: pair[0])\n"
    )
    assert not list(_repr_key_offences(clean))


ENUMERATION = SRC_ROOT / "core" / "enumeration.py"

#: The retained reference enumerator is the spec a traversal is checked
#: against, not a second traversal of the engine.
REFERENCE_EXEMPT = frozenset({"enumerate_valid_packages_reference"})


def _recursive_functions(tree: ast.AST):
    """Qualified names of the functions in ``tree`` that call themselves.

    A call counts as recursive when it names the enclosing function directly
    (``dfs(...)``) or through ``self`` (``self._walk(...)``).  Functions
    nested in :data:`REFERENCE_EXEMPT` are skipped.
    """
    found = []

    def calls_itself(function) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == function.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == function.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                return True
        return False

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in REFERENCE_EXEMPT:
                    continue
                name = prefix + child.name
                if calls_itself(child):
                    found.append(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_the_engine_has_exactly_one_lattice_traversal():
    tree = ast.parse(ENUMERATION.read_text(encoding="utf-8"), filename=str(ENUMERATION))
    recursive = _recursive_functions(tree)
    assert len(recursive) == 1, (
        "every PackageSearchEngine search mode must consume the one lattice "
        "walk instead of a recursive loop of its own: " + ", ".join(recursive)
    )
    assert recursive[0].startswith("PackageSearchEngine."), recursive


def test_the_traversal_guard_itself_detects_a_second_loop():
    """The guard must fire on an engine with two recursive loops."""
    two_loops = ast.parse(
        "class PackageSearchEngine:\n"
        "    def _walk(self):\n"
        "        def dfs(start):\n"
        "            yield from dfs(start + 1)\n"
        "        yield from dfs(0)\n"
        "    def count_valid(self, start=0):\n"
        "        return self.count_valid(start + 1)\n"
        "def enumerate_valid_packages_reference():\n"
        "    def dfs(start):\n"
        "        yield from dfs(start + 1)\n"
    )
    assert _recursive_functions(two_loops) == [
        "PackageSearchEngine._walk.dfs",
        "PackageSearchEngine.count_valid",
    ]
    one_loop = ast.parse(
        "class PackageSearchEngine:\n"
        "    def _walk(self):\n"
        "        def dfs(start):\n"
        "            yield from dfs(start + 1)\n"
        "        yield from dfs(0)\n"
        "    def count_valid(self):\n"
        "        return sum(1 for _ in self._walk())\n"
    )
    assert _recursive_functions(one_loop) == ["PackageSearchEngine._walk.dfs"]


#: The functions that resolve or run a plan, by the module defining them.
PLAN_SWITCH_FUNCTIONS = {
    SRC_ROOT / "queries" / "bindings.py": ("enumerate_bindings", "project_bindings"),
    SRC_ROOT / "queries" / "plan.py": ("plan_conjunction", "cached_plan"),
    SRC_ROOT / "observability" / "explain.py": ("explain_analyze",),
}


def _switch_parameters(tree: ast.AST, names):
    """``function.parameter`` for every ``use_*``/``compile_*`` parameter of ``names``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            arguments = node.args
            for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                if argument.arg.startswith(("use_", "compile_")):
                    found.append(f"{node.name}.{argument.arg}")
    return found


def test_the_plan_is_the_executors_only_switch():
    offences = []
    for path, names in PLAN_SWITCH_FUNCTIONS.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert set(names) <= defined, f"{path.name} no longer defines {names}"
        offences.extend(_switch_parameters(tree, names))
    assert not offences, (
        "an access path must be chosen by a verdict on the plan, not by an "
        "executor or planner switch: " + ", ".join(offences)
    )


def test_the_switch_guard_itself_detects_a_knob():
    """The guard must fire on a use_* or compile_* parameter, and only there."""
    knobs = ast.parse(
        "def enumerate_bindings(database, plan=None, *, use_semijoin=None):\n"
        "    pass\n"
        "def plan_conjunction(atoms, compile_ranges=True):\n"
        "    pass\n"
        "def helper(use_cache=True):\n"
        "    pass\n"
    )
    assert _switch_parameters(knobs, ("enumerate_bindings", "plan_conjunction")) == [
        "enumerate_bindings.use_semijoin",
        "plan_conjunction.compile_ranges",
    ]
    clean = ast.parse(
        "def enumerate_bindings(database, plan=None, *, step_profile=None):\n    pass\n"
    )
    assert _switch_parameters(clean, ("enumerate_bindings",)) == []


#: What ``PackageSearchEngine._walk`` may use of the oracle: the verdict
#: entry point and the accounting bracket (the walk's tally) around the walk.
WALK_ORACLE_SURFACE = frozenset({"is_satisfied", "walk_started", "walk_finished"})

#: Attributes through which a verdict could bypass the oracle's entry point.
VERDICT_BYPASSES = frozenset({"compatibility", "constraint", "compatibility_oracle"})


def _walk_verdict_bypasses(tree: ast.AST):
    """Attribute uses in ``PackageSearchEngine._walk`` that reach compatibility
    other than through ``oracle.is_satisfied``."""
    walks = [
        function
        for engine in ast.walk(tree)
        if isinstance(engine, ast.ClassDef) and engine.name == "PackageSearchEngine"
        for function in engine.body
        if isinstance(function, ast.FunctionDef) and function.name == "_walk"
    ]
    assert len(walks) == 1, "PackageSearchEngine._walk not found"
    found = []
    for node in ast.walk(walks[0]):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        on_oracle = (isinstance(base, ast.Name) and base.id == "oracle") or (
            isinstance(base, ast.Attribute) and base.attr == "oracle"
        )
        if on_oracle and node.attr not in WALK_ORACLE_SURFACE:
            found.append((node.lineno, f"oracle.{node.attr}"))
        elif node.attr in VERDICT_BYPASSES or node.attr.startswith("_witness"):
            found.append((node.lineno, node.attr))
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_the_walk_has_one_verdict_entry_point():
    tree = ast.parse(ENUMERATION.read_text(encoding="utf-8"), filename=str(ENUMERATION))
    offences = _walk_verdict_bypasses(tree)
    assert not offences, (
        "PackageSearchEngine._walk must ask for verdicts through "
        "oracle.is_satisfied only: " + ", ".join(offences)
    )


def test_the_verdict_guard_itself_detects_a_bypass():
    """The guard must fire on a walk reading the witness index or the constraint."""
    bypassing = ast.parse(
        "class PackageSearchEngine:\n"
        "    def _walk(self):\n"
        "        oracle = self.oracle\n"
        "        oracle.walk_started()\n"
        "        def dfs(package):\n"
        "            if oracle._witness.compatible(package.items):\n"
        "                yield package\n"
        "            if self.problem.compatibility.is_satisfied(package, None):\n"
        "                yield package\n"
        "            if self.oracle._cache.get(package.items):\n"
        "                yield package\n"
        "        yield from dfs(None)\n"
    )
    assert _walk_verdict_bypasses(bypassing) == [
        "6:oracle._witness",
        "8:compatibility",
        "10:oracle._cache",
    ]
    clean = ast.parse(
        "class PackageSearchEngine:\n"
        "    def _walk(self):\n"
        "        oracle = self.oracle\n"
        "        tally = oracle.walk_started()\n"
        "        try:\n"
        "            if oracle.is_satisfied(None, tally):\n"
        "                yield None\n"
        "        finally:\n"
        "            oracle.walk_finished(tally)\n"
        "    def helper(self):\n"
        "        return self.oracle._witness\n"
    )
    assert _walk_verdict_bypasses(clean) == []


BENCH_ROOT = SRC_ROOT.parent.parent / "benchmarks"

#: What a report writer takes from ``benchmarks/_report.py`` instead of
#: defining it again.
REPORT_PLUMBING = frozenset({"write_report", "main"})


def _report_plumbing(tree: ast.AST):
    """``line:what`` for each ``write_report``/``main`` definition and ``argparse`` import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in REPORT_PLUMBING:
                found.append(f"{node.lineno}:def {node.name}")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "argparse" for alias in node.names):
                found.append(f"{node.lineno}:import argparse")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "argparse":
                found.append(f"{node.lineno}:import argparse")
    return found


def test_bench_modules_share_one_report_helper():
    offences = []
    modules = sorted(BENCH_ROOT.glob("bench_*.py"))
    assert modules, f"no benchmark modules found under {BENCH_ROOT}"
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(f"{path.name}:{offence}" for offence in _report_plumbing(tree))
    assert not offences, (
        "benchmark modules must write reports and parse their command line "
        "through benchmarks/_report.py (write_report, run_cli): " + ", ".join(offences)
    )


def test_the_report_guard_itself_detects_copied_plumbing():
    """The guard must fire on a module carrying its own CLI and report writer."""
    copied = ast.parse(
        "import argparse\n"
        "from argparse import ArgumentParser\n"
        "def write_report(report, path):\n"
        "    path.write_text(str(report))\n"
        "def main():\n"
        "    argparse.ArgumentParser().parse_args()\n"
    )
    assert _report_plumbing(copied) == [
        "1:import argparse",
        "2:import argparse",
        "3:def write_report",
        "5:def main",
    ]
    clean = ast.parse(
        "from _report import REPO_ROOT, run_cli, write_report\n"
        "def run_sweep():\n"
        "    return {}\n"
        "if __name__ == '__main__':\n"
        "    run_cli(run_sweep, REPO_ROOT / 'BENCH_x.json', __doc__)\n"
    )
    assert _report_plumbing(clean) == []


COMPATIBILITY = SRC_ROOT / "core" / "compatibility.py"


#: The plan-cache entry points, which must not key on an epoch.
PLAN_RESOLVERS = frozenset({"cached_plan", "resolve_plan"})


def _probe_bypasses(tree: ast.AST, *, compatibility: bool):
    """``line:what`` for each ``stats_key`` parameter, each ``epoch``
    parameter of a plan resolver, each ``plan_epoch`` identifier and, in the
    compatibility module, each reference to ``is_satisfiable_on``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for argument in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            ):
                if argument.arg == "stats_key":
                    found.append(f"{node.lineno}:stats_key")
                elif argument.arg == "epoch" and getattr(node, "name", None) in PLAN_RESOLVERS:
                    found.append(f"{node.lineno}:{node.name}(epoch)")
        elif compatibility and (
            (isinstance(node, ast.Attribute) and node.attr == "is_satisfiable_on")
            or (isinstance(node, ast.Name) and node.id == "is_satisfiable_on")
            or (isinstance(node, ast.Constant) and node.value == "is_satisfiable_on")
        ):
            found.append(f"{node.lineno}:is_satisfiable_on")
        if (
            (isinstance(node, ast.FunctionDef) and node.name == "plan_epoch")
            or (isinstance(node, ast.Attribute) and node.attr == "plan_epoch")
            or (isinstance(node, ast.Name) and node.id == "plan_epoch")
            or (isinstance(node, ast.Constant) and node.value == "plan_epoch")
        ):
            found.append(f"{node.lineno}:plan_epoch")
    return sorted(set(found), key=lambda entry: int(entry.split(":")[0]))


def test_a_qc_probe_is_one_evaluation():
    offences = []
    sources = sorted(SRC_ROOT.rglob("*.py"))
    assert COMPATIBILITY in sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}"
            for offence in _probe_bypasses(tree, compatibility=path == COMPATIBILITY)
        )
    assert not offences, (
        "the Qc probe must evaluate Qc once, planned with the statistics it "
        "is keyed on (no early exit, no stats_key, no epoch key): " + ", ".join(offences)
    )


def test_the_probe_guard_itself_detects_an_early_exit():
    """The guard must fire on a stats_key parameter and an early-exit probe."""
    early_exit = ast.parse(
        "def cached_plan(atoms, statistics=None, stats_key=None):\n"
        "    pass\n"
        "def violated(query, database, *, stats_key):\n"
        "    if getattr(query, 'is_satisfiable_on', None):\n"
        "        return query.is_satisfiable_on(database)\n"
    )
    assert _probe_bypasses(early_exit, compatibility=True) == [
        "1:stats_key",
        "3:stats_key",
        "4:is_satisfiable_on",
        "5:is_satisfiable_on",
    ]
    # Outside the compatibility module only the parameter is an offence.
    assert _probe_bypasses(early_exit, compatibility=False) == ["1:stats_key", "3:stats_key"]
    clean = ast.parse(
        '"""is_satisfiable_on and stats_key in a docstring are fine"""\n'
        "def is_satisfied(package, database):\n"
        "    return len(query.evaluate(database, extra_relations={})) == 0\n"
    )
    assert _probe_bypasses(clean, compatibility=True) == []


def test_the_probe_guard_itself_detects_an_epoch_key():
    """The guard must fire on a resolver's epoch parameter and on plan_epoch."""
    epoch_keyed = ast.parse(
        "def cached_plan(atoms, statistics=None, epoch=None):\n"
        "    pass\n"
        "def resolve_plan(database, atoms, *, epoch):\n"
        "    return cached_plan(atoms, epoch=getattr(database, 'plan_epoch', None))\n"
        "class DatabaseSnapshot:\n"
        "    def plan_epoch(self):\n"
        "        return self.plan_epoch\n"
    )
    assert _probe_bypasses(epoch_keyed, compatibility=False) == [
        "1:cached_plan(epoch)",
        "3:resolve_plan(epoch)",
        "4:plan_epoch",
        "6:plan_epoch",
        "7:plan_epoch",
    ]
    clean = ast.parse(
        '"""plan_epoch in a docstring is fine"""\n'
        "def pinned(problem, epoch):\n"
        "    return problem.at(epoch)\n"
        "def cached_plan(atoms, statistics=None):\n"
        "    return plan_epoch_free(atoms)\n"
    )
    assert _probe_bypasses(clean, compatibility=False) == []


BINDINGS = SRC_ROOT / "queries" / "bindings.py"

#: The naive reference and its row matcher: the spec, not the executor.
NAIVE_REFERENCE = frozenset({"enumerate_bindings_naive", "_match_atom_against_row"})


def _dict_bindings(tree: ast.AST, *, executor: bool):
    """``line:what`` for each use of the naive row matcher outside the naive
    reference and, in the executor module, each ``dict(name)`` copy there."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name in NAIVE_REFERENCE
            ):
                continue
            if isinstance(child, ast.Name) and child.id == "_match_atom_against_row":
                found.append(f"{child.lineno}:_match_atom_against_row")
            elif isinstance(child, ast.Attribute) and child.attr == "_match_atom_against_row":
                found.append(f"{child.lineno}:_match_atom_against_row")
            elif isinstance(child, ast.ImportFrom) and any(
                alias.name == "_match_atom_against_row" for alias in child.names
            ):
                found.append(f"{child.lineno}:import _match_atom_against_row")
            elif (
                executor
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "dict"
                and len(child.args) == 1
                and isinstance(child.args[0], ast.Name)
            ):
                found.append(f"{child.lineno}:dict({child.args[0].id})")
            visit(child)

    visit(tree)
    return found


def test_the_executor_keeps_bindings_in_slots():
    offences = []
    sources = sorted(SRC_ROOT.rglob("*.py"))
    assert BINDINGS in sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}"
            for offence in _dict_bindings(tree, executor=path == BINDINGS)
        )
    assert not offences, (
        "enumerate_bindings' executor binds rows into the plan's slots; only the "
        "naive reference matches rows into dicts: " + ", ".join(offences)
    )


def test_the_slot_guard_itself_detects_a_dict_binding():
    """The guard must fire on the dict matcher or a binding copy outside the reference."""
    dict_executor = ast.parse(
        "from repro.queries.bindings import _match_atom_against_row\n"
        "def enumerate_bindings(atoms, binding):\n"
        "    extended = _match_atom_against_row(atoms[0], (), binding)\n"
        "    yield dict(extended)\n"
        "def helper(bindings):\n"
        "    return bindings._match_atom_against_row\n"
    )
    assert _dict_bindings(dict_executor, executor=True) == [
        "1:import _match_atom_against_row",
        "3:_match_atom_against_row",
        "4:dict(extended)",
        "6:_match_atom_against_row",
    ]
    # Outside the executor module a dict copy is no offence.
    assert _dict_bindings(dict_executor, executor=False) == [
        "1:import _match_atom_against_row",
        "3:_match_atom_against_row",
        "6:_match_atom_against_row",
    ]
    clean = ast.parse(
        "def _match_atom_against_row(atom, row, binding):\n"
        "    return dict(binding)\n"
        "def enumerate_bindings_naive(atoms, binding):\n"
        "    yield dict(binding)\n"
        "    _match_atom_against_row(atoms[0], (), binding)\n"
        "def enumerate_bindings(names, slots):\n"
        "    yield dict(zip(names, slots))\n"
    )
    assert _dict_bindings(clean, executor=True) == []
