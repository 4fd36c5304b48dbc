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

An eighth guard keeps one primitive for validated row writes: under
``src/repro/`` a row set is changed point-wise (``_rows.add`` /
``_rows.remove`` / ``_rows.discard``) and a version counter is bumped
(``_version +=``, or any augmented assignment) only inside
``Relation._insert_row`` / ``Relation._remove_row``, apart from the bulk
``Relation._mutated``; the commit, its unwind, ``add``/``discard`` and view
maintenance all go through the pair.

A ninth guard keeps a maintained delta one commit: ``incremental/views.py``
never calls ``_apply_validated`` inside a loop or comprehension, so no
per-modification commit loop can come back.

A tenth guard keeps the oracle's one verdict path: ``CompatibilityOracle``
is built from ``constraint`` and ``database`` alone, ``RecommendationProblem``
declares no ``cache_*`` field, and neither ``core/compatibility.py`` nor
``core/model.py`` touches an ``.enabled`` attribute, so no switch can route
verdicts around the witness index and the memo again.

An eleventh guard keeps one ``Q(D)`` per problem epoch: under
``src/repro/core/`` a problem's selection query is evaluated
(``<expr>.query.evaluate(...)``) only in
``RecommendationProblem.candidate_pool`` and the two reference enumerators,
which are the spec and so never read the pool.  ``QueryConstraint`` is
exempt: its ``query`` is ``Qc``, not ``Q``.

A twelfth guard keeps one witness representation, the masks in the
candidate pool's index space: ``core/compatibility.py`` names no row-keyed
partner sets (``by_item``, ``partners``) and no per-walk mask compile or
its memo (``masks``, ``_masks``, ``_masks_for``), and its witness index,
build and walk tally call no ``frozenset``.  Under ``src/repro/core/`` a
row → position dict (a dict comprehension over ``enumerate``) is built only
by ``CandidatePool``; the walk and the oracle read the pool's.

A thirteenth guard keeps one entry point into the witness index: under
``src/repro/`` only ``CompatibilityOracle`` calls ``_witness_index_over``,
so every index is built or carried under the oracle's build lock,
deadline, span and counters.  The same guard keeps that maker the only
one: a fresh build is the carry from the empty index, so
``core/compatibility.py`` names no ``_build_witness_index`` or
``_carry_witness_index`` (a definition, call or attribute), and calls
``project_bindings``, the witness joins, only inside
``_witness_index_over``.

A fourteenth guard keeps one search budget, the ambient
:class:`~repro.resilience.deadline.Deadline`: nothing under ``src/repro/``
defines a ``StepCounter`` class, and no function there takes a parameter
named ``counter`` or ``max_candidates``, so no caller-supplied step counter
or node cap can bound a search beside it.
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


#: The point primitives (and the bulk ``_mutated``) that may write a row set
#: or a version counter directly.
ROW_WRITE_PRIMITIVES = frozenset(
    {"Relation._insert_row", "Relation._remove_row", "Relation._mutated"}
)


def _raw_row_writes(tree: ast.AST):
    """``line:function:what`` for each point write of a ``_rows`` set and each
    augmented assignment to a ``_version`` outside :data:`ROW_WRITE_PRIMITIVES`."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + child.name)
                continue
            if scope not in ROW_WRITE_PRIMITIVES:
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("add", "remove", "discard")
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "_rows"
                ):
                    found.append(f"{child.lineno}:{scope}:_rows.{child.func.attr}")
                elif (
                    isinstance(child, ast.AugAssign)
                    and isinstance(child.target, ast.Attribute)
                    and child.target.attr == "_version"
                ):
                    found.append(f"{child.lineno}:{scope}:_version")
            visit(child, scope)

    visit(tree, "")
    return found


def test_validated_row_writes_go_through_one_primitive():
    offences = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}" for offence in _raw_row_writes(tree)
        )
    assert not offences, (
        "a validated row is inserted or removed through Relation._insert_row / "
        "_remove_row (row set, version and every cache at once): " + ", ".join(offences)
    )


def test_the_row_write_guard_itself_detects_an_inline_write():
    """The guard must fire on inline row-set and version writes outside the pair."""
    inline = ast.parse(
        "class Database:\n"
        "    def _apply_validated(self, relation, row):\n"
        "        relation._rows.add(row)\n"
        "        relation._version += 1\n"
        "        relation._rows.remove(row)\n"
        "        relation._version -= 1\n"
        "def answers(view, row):\n"
        "    view._answers._rows.discard(row)\n"
    )
    assert _raw_row_writes(inline) == [
        "3:Database._apply_validated:_rows.add",
        "4:Database._apply_validated:_version",
        "5:Database._apply_validated:_rows.remove",
        "6:Database._apply_validated:_version",
        "8:answers:_rows.discard",
    ]
    clean = ast.parse(
        "class Relation:\n"
        "    def _insert_row(self, row, step=1):\n"
        "        self._rows.add(row)\n"
        "        self._version += step\n"
        "    def _remove_row(self, row, step=1):\n"
        "        self._rows.remove(row)\n"
        "        self._version += step\n"
        "    def _mutated(self):\n"
        "        self._version += 1\n"
        "    def clear(self):\n"
        "        self._rows.clear()\n"
        "def elsewhere(seen, row):\n"
        "    seen.add(row)\n"
    )
    assert _raw_row_writes(clean) == []


VIEWS = SRC_ROOT / "incremental" / "views.py"

LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _commits_in_loops(tree: ast.AST):
    """Lines of the ``_apply_validated`` calls nested inside a loop."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "_apply_validated")
                or (isinstance(node.func, ast.Name) and node.func.id == "_apply_validated")
            ):
                found.add(node.lineno)
    return sorted(found)


def test_a_maintained_delta_is_one_commit():
    tree = ast.parse(VIEWS.read_text(encoding="utf-8"), filename=str(VIEWS))
    offences = _commits_in_loops(tree)
    assert not offences, (
        "apply_maintained and its undo commit a delta once, with the views "
        "notified inside the commit; a commit inside a loop at line(s) "
        + ", ".join(map(str, offences))
    )


def test_the_commit_guard_itself_detects_a_commit_loop():
    """The guard must fire on a per-modification commit, in a loop or comprehension."""
    looping = ast.parse(
        "def apply_maintained(database, validated, views):\n"
        "    for modification in validated:\n"
        "        token = database._apply_validated((modification,))\n"
        "    while validated:\n"
        "        _apply_validated(validated.pop())\n"
        "    return [database._apply_validated((m,)) for m in validated]\n"
    )
    assert _commits_in_loops(looping) == [3, 5, 6]
    clean = ast.parse(
        "def apply_maintained(database, validated, views):\n"
        "    for view in views:\n"
        "        view._sync()\n"
        "    return database._apply_validated(validated, observer)\n"
    )
    assert _commits_in_loops(clean) == []


MODEL = SRC_ROOT / "core" / "model.py"


def _verdict_switches(tree: ast.AST):
    """``line:what`` for each ``CompatibilityOracle.__init__`` parameter besides
    ``constraint`` and ``database``, each ``cache_*`` field of
    ``RecommendationProblem`` and each ``.enabled`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CompatibilityOracle":
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    arguments = member.args
                    names = [a.arg for a in arguments.posonlyargs + arguments.args][1:]
                    names += [a.arg for a in arguments.kwonlyargs]
                    names += [a.arg for a in (arguments.vararg, arguments.kwarg) if a]
                    found.extend(
                        f"{member.lineno}:__init__({name})"
                        for name in names
                        if name not in ("constraint", "database")
                    )
        elif isinstance(node, ast.ClassDef) and node.name == "RecommendationProblem":
            for member in node.body:
                if (
                    isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and member.target.id.startswith("cache_")
                ):
                    found.append(f"{member.lineno}:{member.target.id}")
        elif isinstance(node, ast.Attribute) and node.attr == "enabled":
            found.append(f"{node.lineno}:.enabled")
    return sorted(set(found), key=lambda entry: int(entry.split(":")[0]))


def test_the_oracle_has_one_verdict_path():
    offences = []
    for path in (COMPATIBILITY, MODEL):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}"
            for offence in _verdict_switches(tree)
        )
    assert not offences, (
        "the compatibility oracle answers every verdict one way (witness index, "
        "then memo plus probe); tests force the probe with scenarios.probe_path, "
        "not a switch: " + ", ".join(offences)
    )


def test_the_verdict_path_guard_itself_detects_a_switch():
    """The guard must fire on a re-added ``enabled`` switch and its field."""
    switched = ast.parse(
        "class CompatibilityOracle:\n"
        "    def __init__(self, constraint, database, enabled: bool = True):\n"
        "        self.enabled = enabled\n"
        "    def is_satisfied(self, package):\n"
        "        if not self.enabled:\n"
        "            return self.constraint.is_satisfied(package, self.database)\n"
        "class RecommendationProblem:\n"
        "    budget: float\n"
        "    cache_verdicts: bool = True\n"
    )
    assert _verdict_switches(switched) == [
        "2:__init__(enabled)",
        "3:.enabled",
        "5:.enabled",
        "9:cache_verdicts",
    ]
    clean = ast.parse(
        '"""enabled and cache_verdicts in a docstring are fine"""\n'
        "class CompatibilityOracle:\n"
        "    def __init__(self, constraint, database):\n"
        "        self.constraint = constraint\n"
        "class RecommendationProblem:\n"
        "    monotone_val: bool = False\n"
        "    def compatibility_oracle(self):\n"
        "        return CompatibilityOracle(self.compatibility, self.database)\n"
    )
    assert _verdict_switches(clean) == []


CORE = SRC_ROOT / "core"

#: Where ``Q(D)`` may be evaluated under ``core/`` (qualified names; a class
#: covers its methods).
Q_OF_D_EVALUATORS = frozenset(
    {
        "RecommendationProblem.candidate_pool",
        "enumerate_valid_packages_reference",
        "best_valid_packages_reference",
        "QueryConstraint",
    }
)


def _q_of_d_evaluations(tree: ast.AST):
    """``line:scope`` for each ``<expr>.query.evaluate(...)`` call outside
    :data:`Q_OF_D_EVALUATORS`."""
    found = []

    def allowed(scope) -> bool:
        return any(
            ".".join(scope[:depth]) in Q_OF_D_EVALUATORS for depth in range(1, len(scope) + 1)
        )

    def visit(node: ast.AST, scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "evaluate"
                and isinstance(child.func.value, ast.Attribute)
                and child.func.value.attr == "query"
                and not allowed(scope)
            ):
                found.append(f"{child.lineno}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_q_of_d_is_evaluated_once_per_epoch():
    offences = []
    sources = sorted(CORE.rglob("*.py"))
    assert MODEL in sources and ENUMERATION in sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}"
            for offence in _q_of_d_evaluations(tree)
        )
    assert not offences, (
        "solvers read Q(D) from the problem's candidate pool "
        "(RecommendationProblem.candidate_pool / candidate_items), evaluated "
        "once per epoch; only the pool and the reference enumerators evaluate "
        "it: " + ", ".join(offences)
    )


def test_the_pool_guard_itself_detects_a_second_evaluation():
    """The guard must fire on Q(D) evaluated outside the pool and the references."""
    offending = ast.parse(
        "class RecommendationProblem:\n"
        "    def candidate_pool(self):\n"
        "        return self.query.evaluate(self.database)\n"
        "    def candidate_items(self):\n"
        "        return self.query.evaluate(self.database)\n"
        "def solve(problem, databases):\n"
        "    answers = problem.query.evaluate(problem.database)\n"
        "    return [problem.query.evaluate(database) for database in databases]\n"
        "def enumerate_valid_packages_reference(problem):\n"
        "    return problem.query.evaluate(problem.database)\n"
        "class QueryConstraint:\n"
        "    def is_satisfied(self, package, database):\n"
        "        return self.query.evaluate(database)\n"
    )
    assert _q_of_d_evaluations(offending) == [
        "5:RecommendationProblem.candidate_items",
        "7:solve",
        "8:solve",
    ]
    clean = ast.parse(
        '"""problem.query.evaluate(problem.database) in a docstring is fine"""\n'
        "def count_items_above(database, query, utility, bound):\n"
        "    return sum(1 for row in query.evaluate(database).rows())\n"
        "def solve(problem):\n"
        "    return problem.candidate_items()\n"
    )
    assert _q_of_d_evaluations(clean) == []


#: Names that would bring back the row-space witness index or its per-walk
#: compile into bitmasks.
ROW_SPACE_WITNESS_NAMES = frozenset({"by_item", "partners", "masks", "_masks", "_masks_for"})

#: Where ``core/compatibility.py`` keeps the witness index; none of it may
#: build a row ``frozenset``.
WITNESS_SCOPES = frozenset(
    {"_WitnessIndex", "_witness_index_over", "_seeded_joins", "_fold", "_Tally"}
)

#: The one builder of a row → position dict under ``core/``.
POSITION_BUILDERS = frozenset({"CandidatePool"})


def _node_name(node) -> "str | None":
    """The name ``node`` defines or uses: a definition, attribute, name,
    parameter or string constant (such as a ``__slots__`` entry)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _row_space_witnesses(tree: ast.AST):
    """``line:what`` for each use of :data:`ROW_SPACE_WITNESS_NAMES` (see
    :func:`_node_name`) and each ``frozenset(...)`` call inside
    :data:`WITNESS_SCOPES`."""
    found = []

    def visit(node: ast.AST, witness_scope: bool) -> None:
        for child in ast.iter_child_nodes(node):
            name = _node_name(child)
            if name in ROW_SPACE_WITNESS_NAMES:
                found.append(f"{child.lineno}:{name}")
            if (
                witness_scope
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "frozenset"
            ):
                found.append(f"{child.lineno}:frozenset")
            inside = witness_scope or (
                isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name in WITNESS_SCOPES
            )
            visit(child, inside)

    visit(tree, False)
    return found


def _position_dicts(tree: ast.AST):
    """``line:scope`` for each dict comprehension over ``enumerate(...)``
    outside :data:`POSITION_BUILDERS`."""
    found = []

    def visit(node: ast.AST, scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.DictComp)
                and any(
                    isinstance(generator.iter, ast.Call)
                    and isinstance(generator.iter.func, ast.Name)
                    and generator.iter.func.id == "enumerate"
                    for generator in child.generators
                )
                and not POSITION_BUILDERS & set(scope)
            ):
                found.append(f"{child.lineno}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_witness_representation_in_the_pools_index_space():
    tree = ast.parse(COMPATIBILITY.read_text(encoding="utf-8"), filename=str(COMPATIBILITY))
    offences = [f"core/compatibility.py:{offence}" for offence in _row_space_witnesses(tree)]
    for path in sorted(CORE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}" for offence in _position_dicts(tree)
        )
    assert not offences, (
        "the witness index is built straight into the candidate pool's index "
        "space, and the walk takes its masks as they are; no row-keyed partner "
        "sets, per-walk mask compile or second row -> position map: "
        + ", ".join(offences)
    )


def test_the_witness_guard_itself_detects_row_space_sets():
    """The guard must fire on the row-space index, its compile and its memo."""
    row_space = ast.parse(
        "class _WitnessIndex:\n"
        "    by_item: dict\n"
        "    def masks(self, items):\n"
        "        position = {item: i for i, item in enumerate(items)}\n"
        "        return position\n"
        "def _witness_index_over(bindings):\n"
        "    return {frozenset(binding) for binding in bindings}\n"
        "class CompatibilityOracle:\n"
        '    __slots__ = ("_masks",)\n'
        "    def walk_started(self, items):\n"
        "        return self._masks_for(self._witness, items)\n"
    )
    assert _row_space_witnesses(row_space) == [
        "2:by_item",
        "3:masks",
        "7:frozenset",
        "9:_masks",
        "11:_masks_for",
    ]
    assert _position_dicts(row_space) == ["4:_WitnessIndex.masks"]
    clean = ast.parse(
        '"""by_item and masks() in a docstring are fine"""\n'
        "class CandidatePool:\n"
        "    def __init__(self, items):\n"
        "        self.position = {row: i for i, row in enumerate(items)}\n"
        "def _witness_index_over(pool, bindings):\n"
        "    return [pool.position[row] for row in bindings]\n"
        "def elsewhere(package):\n"
        "    return frozenset(package)\n"
    )
    assert _row_space_witnesses(clean) == []
    assert _position_dicts(clean) == []


#: The function that makes a witness index, and the one class that may call it.
INDEX_MAKERS = frozenset({"_witness_index_over"})
INDEX_CALLER = "CompatibilityOracle"

#: The build and the carry that :data:`INDEX_MAKERS` replaced: a fresh
#: build is the carry from the empty index, so neither may come back.
RETIRED_INDEX_MAKERS = frozenset({"_build_witness_index", "_carry_witness_index"})


def _index_calls(tree: ast.AST):
    """``line:scope`` for each call of :data:`INDEX_MAKERS` outside
    :data:`INDEX_CALLER` (by name or as a module attribute)."""
    found = []

    def visit(node: ast.AST, scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in INDEX_MAKERS and INDEX_CALLER not in scope:
                    found.append(f"{child.lineno}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_oracle_builds_or_carries_a_witness_index():
    offences = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}" for offence in _index_calls(tree)
        )
    assert not offences, (
        "a witness index is built or carried only by CompatibilityOracle, under "
        "its build lock, deadline and counters: " + ", ".join(offences)
    )


def test_the_index_guard_itself_detects_a_second_entry_point():
    """The guard must fire on the maker called outside the oracle."""
    outside = ast.parse(
        "import repro.core.compatibility as compatibility\n"
        "def warm(pool, disjuncts, database):\n"
        "    return _witness_index_over(disjuncts, 'RQ', database, pool)\n"
        "class _EpochContext:\n"
        "    def __init__(self, previous, pool):\n"
        "        self.index = compatibility._witness_index_over(\n"
        "            (), 'RQ', None, pool, previous)\n"
        "INDEX = _witness_index_over((), 'RQ', None, None)\n"
    )
    assert _index_calls(outside) == ["3:warm", "6:_EpochContext.__init__", "8:<module>"]
    clean = ast.parse(
        '"""_witness_index_over in a docstring is fine"""\n'
        "def _witness_index_over(disjuncts, answer, database, pool, predecessor=None):\n"
        "    return predecessor, predecessor is not None\n"
        "class CompatibilityOracle:\n"
        "    def _build_index(self, pool, predecessor):\n"
        "        return _witness_index_over((), 'RQ', self.database, pool, predecessor)\n"
    )
    assert _index_calls(clean) == []


def _second_index_makers(tree: ast.AST):
    """``line:what`` for each use of :data:`RETIRED_INDEX_MAKERS` (as the
    twelfth guard finds a row-space name) and each ``project_bindings``
    call outside :data:`INDEX_MAKERS`."""
    found = []

    def visit(node: ast.AST, scope) -> None:
        for child in ast.iter_child_nodes(node):
            name = _node_name(child)
            if name in RETIRED_INDEX_MAKERS:
                found.append(f"{child.lineno}:{name}")
            if (
                isinstance(child, ast.Call)
                and _node_name(child.func) == "project_bindings"
                and not INDEX_MAKERS & set(scope)
            ):
                found.append(f"{child.lineno}:project_bindings")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def test_the_witness_index_has_one_maker():
    tree = ast.parse(COMPATIBILITY.read_text(encoding="utf-8"), filename=str(COMPATIBILITY))
    offences = [f"core/compatibility.py:{offence}" for offence in _second_index_makers(tree)]
    assert not offences, (
        "one maker, _witness_index_over, makes every witness index from a "
        "predecessor or from the empty index; no second build or carry, and "
        "no witness join outside it: " + ", ".join(offences)
    )


def test_the_maker_guard_itself_detects_a_second_maker():
    """The guard must fire on the retired build and carry and on a join
    run outside the one maker."""
    second = ast.parse(
        "def _build_witness_index(disjuncts, answer, database, pool):\n"
        "    return _witness_index_over(disjuncts, answer, database, pool)\n"
        "def _fresh_masks(database, cq, head):\n"
        "    return list(project_bindings(database, cq.atoms, cq.comparisons, head))\n"
        "class CompatibilityOracle:\n"
        "    def _build_index(self, pool, predecessor):\n"
        "        return compatibility._carry_witness_index(pool, predecessor)\n"
    )
    assert _second_index_makers(second) == [
        "1:_build_witness_index",
        "4:project_bindings",
        "7:_carry_witness_index",
    ]
    clean = ast.parse(
        '"""_build_witness_index in a docstring is fine"""\n'
        "from repro.queries.bindings import project_bindings\n"
        "def _witness_index_over(disjuncts, answer, database, pool, predecessor=None):\n"
        "    return project_bindings(database, (), (), ())\n"
    )
    assert _second_index_makers(clean) == []


#: Parameters that would bound a search beside the ambient deadline.
RETIRED_BUDGET_PARAMETERS = frozenset({"counter", "max_candidates"})


def _second_budgets(tree: ast.AST):
    """``line:what`` for each ``StepCounter`` class and each function
    parameter in :data:`RETIRED_BUDGET_PARAMETERS`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "StepCounter":
            found.append(f"{node.lineno}:class StepCounter")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for argument in (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if argument is not None and argument.arg in RETIRED_BUDGET_PARAMETERS:
                    found.append(f"{node.lineno}:{argument.arg}")
    return found


def test_the_deadline_is_the_one_search_budget():
    offences = []
    sources = sorted(SRC_ROOT.rglob("*.py"))
    assert sources, f"no sources found under {SRC_ROOT}"
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(
            f"{path.relative_to(SRC_ROOT.parent)}:{offence}" for offence in _second_budgets(tree)
        )
    assert not offences, (
        "the ambient Deadline bounds every search; no StepCounter, counter= "
        "or max_candidates= beside it: " + ", ".join(offences)
    )


def test_the_budget_guard_itself_detects_a_second_budget():
    """The guard must fire on a StepCounter class and on a counter or
    max_candidates parameter, and nowhere else."""
    second = ast.parse(
        "class StepCounter:\n"
        "    def tick(self, amount=1):\n"
        "        pass\n"
        "def evaluate(database, counter=None, extra_relations=None):\n"
        "    pass\n"
        "class Engine:\n"
        "    def count_valid(self, rating_bound=None, *, max_candidates=None):\n"
        "        pass\n"
    )
    assert _second_budgets(second) == ["1:class StepCounter", "4:counter", "7:max_candidates"]
    clean = ast.parse(
        '"""A StepCounter in a docstring is fine; so is counter=None."""\n'
        "from repro.resilience.deadline import current_deadline\n"
        "def evaluate(database, extra_relations=None):\n"
        "    counter = 0\n"
        "    deadline = current_deadline()\n"
        "    return counter, deadline\n"
    )
    assert _second_budgets(clean) == []
