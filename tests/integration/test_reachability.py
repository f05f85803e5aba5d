"""Every module, top-level name and import under ``src/repro`` has a use
outside tests.

Modules: a static walk of the import graph.  Its roots are the ``repro.cli``
modules and the scripts under ``examples/``.  From each reached module it
follows every ``import`` and ``from ... import``, function-local ones
included.  A name imported from a package resolves to the submodule of that
name, or else to the module the package's ``__init__`` imports it from;
``alias.attr`` on an imported package resolves the same way, so
``obs.stamp_result`` reaches ``repro.obs.stamp``.  A package ``__init__``'s
own imports are re-exports, not uses, so they reach nothing by themselves.

Names: every module-level function and class must be named somewhere in
``src/repro``, ``examples/`` or ``benchmarks/ledger/``, as a name, an
attribute or an imported name.  Its own definition and a package
``__init__``'s imports do not count.  ``KEPT`` lists the exceptions.

Imports: every name a module imports is used in that module, as a name or
the root of an attribute, in a string annotation or in ``__all__``.  A
package ``__init__``'s module-level imports are re-exports and exempt.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Top-level names only tests use, kept on purpose.
KEPT = {
    "repro.faults.calibration.expected_totals":
        "the forward model that tests check solve_root_counts against",
    "repro.slurm.checkpointing.expected_overhead":
        "the checkpoint-overhead model behind the tested optimal_interval claims",
    "repro.replay.clock.VirtualClock":
        "the fake clock the replay tests drive the pacer with",
    "repro.syslog.format.render_event_lines":
        "one event's lines, which the rendering and substrate tests check; "
        "the program renders whole traces, formatting across events",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {_module_name(p) for p in (SRC / "repro").rglob("__init__.py")}


def _absolute(module: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module
    base = module if module in PACKAGES else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{node.module}" if node.module else base


@lru_cache(maxsize=None)
def _reexports(package: str) -> dict:
    tree = ast.parse(MODULES[package].read_text())
    return {
        alias.asname or alias.name: (_absolute(package, node), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _resolve(module: str, name: str) -> str:
    """The module that defines ``module.name``."""
    while module in PACKAGES:
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        if name not in _reexports(module):
            break
        module, name = _reexports(module)[name]
    return module


def _uses(module: str, path: Path) -> set:
    """The modules that ``module``'s imports and package attributes reach."""
    tree = ast.parse(path.read_text())
    reached, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached.add(alias.name)
                local = alias.asname or alias.name.partition(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                target = _resolve(source, alias.name)
                reached.add(target)
                bound[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            current = bound[node.id]
            for attr in reversed(chain):
                if current not in PACKAGES:
                    break
                current = _resolve(current, attr)
                reached.add(current)
    return reached


def _reached() -> set:
    frontier = [(m, p) for m, p in MODULES.items() if m.split(".")[:2] == ["repro", "cli"]]
    frontier += [(f"examples.{p.stem}", p) for p in sorted((ROOT / "examples").glob("*.py"))]
    seen = {m for m, _ in frontier}
    while frontier:
        for target in _uses(*frontier.pop()):
            if target in MODULES and target not in seen:
                seen.add(target)
                if target not in PACKAGES:
                    frontier.append((target, MODULES[target]))
    return seen


def test_resolves_reexports_to_the_defining_module():
    assert _resolve("repro.obs", "stamp_result") == "repro.obs.stamp"
    assert _resolve("repro", "DeltaStudy") == "repro.core.pipeline"
    assert _resolve("repro", "obs") == "repro.obs"


def test_every_module_is_reached_by_a_command_or_an_example():
    unreached = sorted(set(MODULES) - PACKAGES - _reached())
    assert not unreached, "modules no command or example reaches:\n  " + "\n  ".join(unreached)


def _identifiers(node: ast.AST, *, imports: bool) -> set:
    """The names, attributes and (with ``imports``) imported names under ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif imports and isinstance(child, ast.ImportFrom):
            found.update(alias.name for alias in child.names)
    return found


def _definitions() -> dict:
    """``module.name`` -> name, for every top-level function and class."""
    return {
        f"{module}.{node.name}": node.name
        for module, path in MODULES.items()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _used_names() -> set:
    files = [*MODULES.values(), *(ROOT / "examples").glob("*.py"),
             *(ROOT / "benchmarks" / "ledger").rglob("*.py")]
    used = set()
    for path in files:
        imports = path.name != "__init__.py" or SRC not in path.parents
        for node in ast.parse(path.read_text()).body:
            names = _identifiers(node, imports=imports)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a use inside its own definition
            used |= names
    return used


def test_every_top_level_name_is_used_outside_tests():
    used = _used_names()
    unused = sorted(q for q, name in _definitions().items()
                    if name not in used and q not in KEPT)
    assert not unused, "top-level names only tests use:\n  " + "\n  ".join(unused)


def test_kept_names_exist_and_are_still_unused():
    definitions, used = _definitions(), _used_names()
    for qualified in KEPT:
        assert qualified in definitions, f"{qualified} is gone; drop it from KEPT"
        assert definitions[qualified] not in used, f"{qualified} has a use; drop it from KEPT"


def _annotation_names(annotation: ast.AST) -> set:
    """The names in an annotation, string annotations parsed."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _unused_imports(path: Path) -> list:
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if path.name == "__init__.py" and node in tree.body:
            continue  # a re-export
        for alias in node.names:
            if alias.name != "*":
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_string_annotations_and_reexports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Optional\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "if TYPE_CHECKING:\n"
        "    from f import G, H\n"
        "__all__ = ['e']\n"
        "def run(x: Optional['G']) -> None:\n"
        "    return os.path.join(b)\n"
    )
    assert _unused_imports(module) == [(3, "d"), (5, "H")]
    package = tmp_path / "__init__.py"
    package.write_text("from a import b\ndef run():\n    from c import d\n")
    assert _unused_imports(package) == [(3, "d")]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES.values()
        for line, name in _unused_imports(path)
    ]
    assert not unused, "imported names never used:\n  " + "\n  ".join(unused)
