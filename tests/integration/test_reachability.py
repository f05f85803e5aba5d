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

Names: every module-level function, class and assigned name must be
used somewhere in ``src/repro``, ``examples/`` or ``benchmarks/ledger/``,
as a name, an attribute or an imported name.  Each use resolves to the
module that defines what it names: a bare name to the module's import of
it or else to its own top-level name, an attribute to the module its
chain names, so one module's constant cannot hide an unused one of the
same name elsewhere.  Its own definition and a package ``__init__``'s
imports do not count.  ``KEPT`` lists the exceptions.

Imports: every name a module imports is used in that module, as a name or
the root of an attribute, in a string annotation or in ``__all__``.  A
package ``__init__``'s module-level imports are re-exports and exempt.

Options: every defaulted parameter of a function, method or ``__init__``
under ``src/repro``, and every field of a dataclass named ``*Config``, is
passed by some call in ``src/repro``, ``examples/`` or
``benchmarks/ledger/``: by keyword (``dataclasses.replace`` included) or
by position.  Calls match definitions by name, ``cls(...)`` resolves to
the enclosing class, and a call that forwards ``**kwargs`` passes every
parameter.  An option set only one way is a constant.  ``KEPT_OPTIONS``
lists the exceptions; the options of a ``KEPT`` name are exempt with it.
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
    "repro.results.artifact.RESULT_SCHEMA":
        "the result format's version, which docs/results.md points readers to",
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


def _target(module: str, name: str) -> str:
    """What ``module.name`` names: a submodule, or ``name`` qualified by the
    module that defines it."""
    while module in PACKAGES:
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        if name not in _reexports(module):
            break
        module, name = _reexports(module)[name]
    return f"{module}.{name}"


def _home(target: str) -> str:
    """The module a target lies in (a module is its own)."""
    return target if target in MODULES else target.rpartition(".")[0]


def _resolve(module: str, name: str) -> str:
    """The module that defines ``module.name``."""
    return _home(_target(module, name))


def _bindings(module: str, tree: ast.AST) -> dict:
    """Local name -> target, for every import in ``tree``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                bound[alias.asname or alias.name] = _target(source, alias.name)
    return bound


def _chain_targets(tree: ast.AST, bound: dict) -> set:
    """The targets each ``name.attr...`` chain rooted at a bound name
    reaches: the name's own, then one per attribute while the chain
    still names a module."""
    targets = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            current = bound[node.id]
            targets.add(current)
            for attr in reversed(chain):
                if current not in MODULES:
                    break
                current = (_target(current, attr) if current in PACKAGES
                           else f"{current}.{attr}")
                targets.add(current)
    return targets


def _uses(module: str, path: Path) -> set:
    """The modules that ``module``'s imports and package attributes reach."""
    tree = ast.parse(path.read_text())
    reached = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    bound = _bindings(module, tree)
    reached |= {_home(target) for target in bound.values()}
    reached |= {_home(target) for target in _chain_targets(tree, bound)}
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


def _assigned(node: ast.AST) -> list:
    """The names a module-level assignment binds (dunders aside)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        child.id
        for target in targets
        for child in ast.walk(target)
        if isinstance(child, ast.Name) and not child.id.startswith("__")
    ]


def _definitions() -> set:
    """``module.name`` of every top-level function, class and assigned name."""
    definitions = set()
    for module, path in MODULES.items():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.add(f"{module}.{node.name}")
            definitions.update(f"{module}.{name}" for name in _assigned(node))
    return definitions


def _used_names() -> set:
    """``module.name`` of every top-level name a use outside tests reaches.

    A bare name is the importing module's binding or else its own
    top-level name; an attribute chain resolves through the modules it
    names; an imported name counts too, apart from a package
    ``__init__``'s re-exports.
    """
    files = dict(MODULES)
    for path in (ROOT / "examples").glob("*.py"):
        files[f"examples.{path.stem}"] = path
    for path in (ROOT / "benchmarks" / "ledger").rglob("*.py"):
        files[".".join(path.relative_to(ROOT).with_suffix("").parts)] = path
    used = set()
    for module, path in files.items():
        tree = ast.parse(path.read_text())
        bound = _bindings(module, tree)
        reexports = module in PACKAGES
        for node in tree.body:
            names = {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}
            targets = {bound.get(name, f"{module}.{name}") for name in names}
            targets |= _chain_targets(node, bound)
            if not reexports:
                targets |= {
                    _target(_absolute(module, child), alias.name)
                    for child in ast.walk(node) if isinstance(child, ast.ImportFrom)
                    for alias in child.names
                }
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets.discard(f"{module}.{node.name}")  # a use inside its own definition
            targets.difference_update(f"{module}.{name}" for name in _assigned(node))
            used |= targets
    return used


def test_every_top_level_name_is_used_outside_tests():
    used = _used_names()
    unused = sorted(q for q in _definitions() if q not in used and q not in KEPT)
    assert not unused, "top-level names only tests use:\n  " + "\n  ".join(unused)


def test_name_scan_resolves_each_use_to_its_module(tmp_path, monkeypatch):
    source = tmp_path / "src" / "repro"
    source.mkdir(parents=True)
    (source / "a.py").write_text("WINDOW = 20\n\ndef f():\n    return WINDOW\n")
    (source / "b.py").write_text("WINDOW = 5\nSPAN = 1\n")
    (source / "c.py").write_text(
        "from repro.a import f\nimport repro.b as b\n\n"
        "def g():\n    return f(), b.SPAN\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "MODULES", {f"repro.{n}": source / f"{n}.py" for n in "abc"})
    monkeypatch.setitem(globals(), "PACKAGES", set())
    # b.WINDOW shares its name with a read constant, yet nothing reads it.
    assert sorted(_definitions() - _used_names()) == ["repro.b.WINDOW", "repro.c.g"]


def test_kept_names_exist_and_are_still_unused():
    definitions, used = _definitions(), _used_names()
    for qualified in KEPT:
        assert qualified in definitions, f"{qualified} is gone; drop it from KEPT"
        assert qualified not in used, f"{qualified} has a use; drop it from KEPT"


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


#: Options nothing outside tests passes, kept on purpose.
KEPT_OPTIONS = {
    "repro.cli.main(argv=)":
        "the CLI's entry point: the console script passes no argv, tests do",
    "repro.core.coalesce.CoalesceConfig.window_seconds":
        "Algorithm 1's window is the paper's own parameter; tier-1 checks "
        "its 5-20 s insensitivity",
    "repro.core.coalesce.CoalesceConfig.max_persistence":
        "Algorithm 1's cut-off, swept by the same insensitivity checks",
    "repro.core.jobimpact.JobImpactAnalyzer.elapsed_histogram(edges_minutes=)":
        "the Figure-9 long-job claims bin elapsed time differently",
    "repro.core.jobimpact.JobImpactAnalyzer.errors_vs_duration(edges_minutes=)":
        "the Figure-9 long-job claims bin elapsed time differently",
    "repro.datasets.delta.DeltaDatasetConfig.with_jobs":
        "the Section-5.5 burned-in re-synthesis claims build jobless worlds",
    "repro.datasets.delta.synthesize_delta(config=)":
        "the Section-5.5 burned-in re-synthesis claims build jobless worlds",
    "repro.datasets.delta.synthesize_delta(cluster=)":
        "the Section-5.5 burned-in re-synthesis claims share one cluster",
    "repro.fleet.service.FleetServiceConfig.metrics_host":
        "a deployment setting: the address the metrics endpoint binds",
    "repro.fleet.service.FleetHealthService.__init__(clock=)":
        "an injected clock, which the tests replace with a fake",
    "repro.fleet.service.FleetHealthService.__init__(sleep=)":
        "an injected sleep, which the tests replace with a fake",
    "repro.replay.clock.ReplayPacer.__init__(monotonic=)":
        "an injected clock, which the tests replace with a fake",
    "repro.replay.clock.ReplayPacer.__init__(sleep=)":
        "an injected sleep, which the tests replace with a fake",
    **{
        f"repro.replay.backtest.BacktestConfig.{name}":
            "a scoring setting, which the scorecard's run id records"
        for name in ("critical_xid", "incident_merge_seconds", "long_threshold_seconds",
                     "observe_seconds", "train_fraction", "thresholds")
    },
}


def _is_config_dataclass(node: ast.ClassDef) -> bool:
    if not node.name.endswith("Config"):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _parameters(function: ast.FunctionDef, bound: bool) -> list:
    """``(name, position or None)`` of each defaulted parameter a caller can
    pass; ``bound`` drops the ``self`` or ``cls`` slot."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    first_default = len(positional) - len(arguments.defaults)
    skip = 1 if bound else 0
    out = [(arg.arg, index - skip) for index, arg in enumerate(positional)
           if index >= max(first_default, skip)]
    out += [(arg.arg, None) for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None]
    return out


def _options() -> dict:
    """``qualified`` -> ``(call name, parameter, position)`` of each option."""
    options = {}

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {getattr(d, "id", None) for d in node.decorator_list}
                bound = cls is not None and "staticmethod" not in decorators
                call_name = cls if cls is not None and node.name == "__init__" else node.name
                for name, position in _parameters(node, bound):
                    options[f"{prefix}.{node.name}({name}=)"] = (call_name, name, position)
            elif isinstance(node, ast.ClassDef):
                if _is_config_dataclass(node):
                    fields = [
                        statement.target.id for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and "ClassVar" not in ast.unparse(statement.annotation)
                    ]
                    for position, name in enumerate(fields):
                        options[f"{prefix}.{node.name}.{name}"] = (node.name, name, position)
                visit(node.body, f"{prefix}.{node.name}", node.name)

    for module, path in MODULES.items():
        visit(ast.parse(path.read_text()).body, module, None)
    return options


def _callee(function: ast.AST, cls):
    """The name a call reaches definitions by, or ``None``."""
    if isinstance(function, ast.Name):
        return cls if function.id == "cls" and cls is not None else function.id
    if isinstance(function, ast.Attribute):
        return function.attr
    return None


def _passed() -> dict:
    """Call name -> ``(positions, keywords)`` passed by some call outside
    tests.  A forwarded ``*args`` passes every position from its own on,
    and a forwarded ``**kwargs`` adds the keyword ``"**"``.  The keywords
    of ``replace(obj, ...)`` count under ``"replace"``."""
    passed = {}

    def record(name, args, keywords):
        positions, names = passed.setdefault(name, (set(), set()))
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Starred):  # no signature here has 64 positions
                positions.update(range(index, index + 64))
                break
            positions.add(index)
        names.update(keyword.arg or "**" for keyword in keywords)

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = _callee(child.func, cls)
                if name == "partial" and child.args:
                    record(_callee(child.args[0], cls), child.args[1:], child.keywords)
                elif name == "replace" and child.args:
                    record("replace", child.args[1:], child.keywords)
                elif name is not None:
                    record(name, child.args, child.keywords)
            walk(child, cls)

    files = [*MODULES.values(), *(ROOT / "examples").glob("*.py"),
             *(ROOT / "benchmarks" / "ledger").rglob("*.py")]
    for path in files:
        walk(ast.parse(path.read_text()), None)
    return passed


def _never_passed() -> list:
    passed = _passed()
    replaced = passed.get("replace", (set(), set()))[1]
    unpassed = []
    for qualified, (call_name, name, position) in _options().items():
        positions, names = passed.get(call_name, (set(), set()))
        by_replace = "(" not in qualified and name in replaced
        if not ({"**", name} & names or position in positions or by_replace):
            unpassed.append(qualified)
    return unpassed


def _exempt_with_a_kept_name(qualified: str) -> bool:
    owner = qualified.partition("(")[0]
    while owner:
        if owner in KEPT:
            return True
        owner = owner.rpartition(".")[0]
    return False


def test_option_scan_matches_calls_by_name_keyword_and_position(tmp_path, monkeypatch):
    source = tmp_path / "src" / "repro"
    source.mkdir(parents=True)
    (source / "m.py").write_text(
        "from dataclasses import dataclass, replace\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    a: int = 1\n"
        "    b: int = 2\n"
        "    c: int = 3\n"
        "    @classmethod\n"
        "    def make(cls, **kwargs):\n"
        "        return replace(cls(5), c=kwargs['c'])\n"
        "class Thing:\n"
        "    def __init__(self, x=1, *, y=2):\n"
        "        pass\n"
        "    def go(self, p=1, q=2):\n"
        "        return go_forward(**{}), Thing(0)\n"
        "def go_forward(r=1, s=2):\n"
        "    return Thing().go(*[3])\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "MODULES", {"repro.m": source / "m.py"})
    assert sorted(_never_passed()) == [
        "repro.m.RunConfig.b",
        "repro.m.Thing.__init__(y=)",
    ]


def test_every_option_is_set_outside_tests():
    unpassed = [q for q in _never_passed()
                if q not in KEPT_OPTIONS and not _exempt_with_a_kept_name(q)]
    assert not unpassed, (
        "options nothing outside tests passes (make each a constant):\n  "
        + "\n  ".join(unpassed)
    )


def test_kept_options_exist_and_are_still_unpassed():
    options, unpassed = _options(), set(_never_passed())
    for qualified, reason in KEPT_OPTIONS.items():
        assert reason, f"{qualified} has no reason"
        assert qualified in options, f"{qualified} is gone; drop it from KEPT_OPTIONS"
        assert qualified in unpassed, f"{qualified} has a caller; drop it from KEPT_OPTIONS"
