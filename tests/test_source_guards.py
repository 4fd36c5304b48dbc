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
    SRC_ROOT / "queries" / "bindings.py": ("enumerate_bindings",),
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
