"""Every module under ``src/repro`` is reachable from a command or an example.

A static walk of the import graph.  Its roots are the ``repro.cli`` modules
and the scripts under ``examples/``.  From each reached module it follows
every ``import`` and ``from ... import``, function-local ones included.  A
name imported from a package resolves to the submodule of that name, or else
to the module the package's ``__init__`` imports it from; ``alias.attr`` on an
imported package resolves the same way, so ``obs.stamp_result`` reaches
``repro.obs.stamp``.  A package ``__init__``'s own imports are re-exports,
not uses, so they reach nothing by themselves.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


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
