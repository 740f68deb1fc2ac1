"""Reachability ratchet: every function, class and method in ``src/`` is
named from something that runs, or a test compares against it; every
module-level import and assignment in ``src/`` is used.

An AST pass over ``src/`` marks a module-level function, a class or a
method reached when its name is used by code that runs.  The roots are
the module-level code of every ``src/`` module (imports, registries,
decorators, package re-exports; ``repro.__main__`` calls
``repro.cli.main``) and every file under ``benchmarks/`` (``e2e``
included), ``examples/`` and ``scripts/``.  A name is used when it
appears as a loaded ``Name`` or ``Attribute``, an import alias, a
keyword argument, or a component of a string that is a dotted name
(``"repro.engine.batched"``, ``"BatchGeometricFilter.classify"``).  A
reached definition's body is used code in turn; a reached class also
reaches its class body and its dunder methods, and its other methods by
name.  The pass works on names, not on types, so it over-approximates:
what it reports unreached is named by no running code at all.

A module-level name that an import or an assignment binds in module
``M`` is used when ``M``'s other statements load it or name it in a
string (``__all__``), or when any file under ``src/`` or a root
directory imports it from ``M`` (relative imports resolved), reads it
as an attribute of an imported ``M`` or names it in a dotted string
``"M.name"``; ``__future__`` imports and dunder names are exempt.  An
unused one is reported as ``M.name`` beside the unreached definitions.

The unreached set must equal :data:`ALLOWED`.  An entry is allowed only
when it is a test hook or a reference that a test compares against, and
names that test.  When you delete code, delete its entry; when the test
fails because something new is unreached, delete it or call it.  Run
``python tests/test_reachability.py`` from the repository root to print
the unreached set.
"""

from __future__ import annotations

import ast
import re
import shutil
import textwrap
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROOT_DIRS = ("benchmarks", "examples", "scripts")

#: Unreached definitions that stay, each with the test that uses it.
ALLOWED: Dict[str, str] = {
    # References a test compares against.
    "repro.core.lineregion.brute_force_line_region_join":
        "tests/test_lineregion.py (line-region join oracle)",
    "repro.core.partition.owning_tile":
        "tests/test_proximity_rows.py (scalar form of owning_tiles)",
    "repro.datasets.io.relations_equal":
        "tests/test_io_and_cli.py (WKT round trip)",
    "repro.geometry.convex.convex_area":
        "tests/test_convex.py (intersection and rotated-rect area bounds)",
    "repro.geometry.fastops.EdgeArrays.boundary_distance":
        "tests/test_fastops.py (scalar form of boundary_distances)",
    "repro.geometry.fastops.EdgeArrays.boundary_distances":
        "tests/test_mec.py (MEC enclosure reference)",
    "repro.geometry.polygon.Polygon.distance_to_boundary":
        "tests/test_fastops.py (scalar reference of EdgeArrays)",
    "repro.index.hilbert.hilbert_xy_from_d":
        "tests/test_hilbert.py (inverse of the Hilbert key)",
    "repro.core.join.EXECUTION_ONLY_FIELDS":
        "tests/test_service.py (the fields canonical_key leaves out)",
    # Test hooks: let a test build inputs or observe state.
    "repro.approximations.factory.CONSERVATIVE_KINDS":
        "tests/test_approximations.py (the conservative kinds it sweeps)",
    "repro.approximations.factory.PROGRESSIVE_KINDS":
        "tests/test_approximations.py (the progressive kinds it sweeps)",
    "repro.core.filters.FilterConfig.describe":
        "tests/test_filter_variants.py (parametrized case ids)",
    "repro.datasets.generators.uniform_rect_items":
        "tests/test_rstar.py (rectangle workloads)",
    "repro.exact.costmodel.OperationCounter.total_operations":
        "tests/test_exact.py (MBR pretest fires before any operation)",
    "repro.geometry.kernels.warm_events":
        "tests/test_kernel_tier.py (one warm-up per worker)",
    "repro.index.pagemodel.LRUBuffer.accesses":
        "tests/test_stats_invariants.py (one buffer access per visit)",
    "repro.index.rplus.RPlusTree.all_items":
        "tests/test_rplus.py (every inserted item stored once)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _used_names(node: ast.AST) -> Set[str]:
    """Every name ``node`` uses (see the module docstring)."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            if not isinstance(child.ctx, ast.Store):
                names.add(child.id)
        elif isinstance(child, ast.Attribute):
            if not isinstance(child.ctx, ast.Store):
                names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.update(child.name.split("."))
            if child.asname:
                names.add(child.asname)
        elif isinstance(child, ast.ImportFrom) and child.module:
            names.update(child.module.split("."))
        elif isinstance(child, ast.keyword) and child.arg:
            names.add(child.arg)
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and _DOTTED.fullmatch(child.value)):
            names.update(child.value.split("."))
    return names


def _names_of(nodes: Iterable[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for node in nodes:
        names |= _used_names(node)
    return names


def _def_header(node) -> List[ast.AST]:
    """What runs when a ``def`` or ``class`` statement executes."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    return [*node.decorator_list, *node.args.defaults,
            *(d for d in node.args.kw_defaults if d is not None)]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Definition:
    __slots__ = ("key", "name", "owner", "uses")

    def __init__(self, key: str, name: str, owner, uses: Set[str]):
        self.key = key
        self.name = name
        self.owner = owner  # the class definition of a method, else None
        self.uses = uses


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _scan_src(src: Path):
    """All definitions of ``src`` and the names module-level code uses."""
    definitions: List[_Definition] = []
    roots: Set[str] = set()
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                roots |= _used_names(stmt)
                continue
            roots |= _names_of(_def_header(stmt))
            key = f"{module}.{stmt.name}"
            if isinstance(stmt, _FUNCS):
                definitions.append(
                    _Definition(key, stmt.name, None, _used_names(stmt)))
                continue
            body = [s for s in stmt.body if not isinstance(s, _FUNCS)]
            cls = _Definition(key, stmt.name, None, _names_of(body))
            definitions.append(cls)
            for method in stmt.body:
                if isinstance(method, _FUNCS):
                    definitions.append(_Definition(
                        f"{key}.{method.name}", method.name, cls,
                        _used_names(method)))
    return definitions, roots


def _root_file_names(root: Path) -> Set[str]:
    names: Set[str] = set()
    for directory in ROOT_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            names |= _used_names(ast.parse(path.read_text(),
                                           filename=str(path)))
    return names


def _bindings(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """Each name a module-level import or assignment binds, with its
    statement."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield alias.asname or alias.name.split(".")[0], stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                continue
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Store)):
                        yield node.id, stmt


def _module_uses(tree: ast.Module,
                 package: Optional[str]) -> Set[Tuple[str, str]]:
    """The ``(module, name)`` pairs ``tree`` uses of other modules.

    A pair comes from ``from module import name`` (relative imports
    resolved against ``package``), from ``alias.name`` where ``alias``
    is bound by an import (``import a.b as alias``, ``import a.b``,
    ``from a import b``) and from a dotted string ``"module.name"``.
    """
    aliases: Dict[str, str] = {}
    pairs: Set[Tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if package is None:
                    continue
                parts = package.split(".")
                base = parts[:len(parts) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            for alias in node.names:
                pairs.add((module, alias.name))
                aliases[alias.asname or alias.name] = (
                    f"{module}.{alias.name}")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            parts = node.value.split(".")
            for cut in range(1, len(parts)):
                pairs.add((".".join(parts[:cut]), parts[cut]))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [], node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in aliases:
            module = ".".join([aliases[base.id], *reversed(chain)])
            pairs.add((module, node.attr))
    return pairs


def _own_uses(stmt: ast.stmt) -> Set[str]:
    """Module-level names ``stmt`` reads: loaded names, the components
    of dotted strings (``__all__``, ``getattr``) and the names in string
    annotations (``"Iterable[Stats]"``)."""
    names: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, _FUNCS):
            annotations.append(node.returns)
        for annotation in annotations:
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                try:
                    parsed = ast.parse(annotation.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _own_uses(parsed)
    return names


def unused_bindings(root: Path = ROOT) -> Set[str]:
    """``module.name`` of the ``root/src`` module-level imports and
    assignments nothing uses (see the module docstring)."""
    src = root / "src"
    modules = []
    pairs: Set[Tuple[str, str]] = set()
    files = [(path, _module_name(path, src)) for path in
             sorted(src.rglob("*.py"))]
    files += [(path, None) for directory in ROOT_DIRS
              for path in sorted((root / directory).rglob("*.py"))]
    for path, module in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        package = None
        if module is not None:
            modules.append((module, tree))
            package = module if path.name == "__init__.py" else (
                module.rpartition(".")[0])
        pairs |= _module_uses(tree, package)
    found: Set[str] = set()
    for module, tree in modules:
        for name, stmt in _bindings(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if ((module, name) in pairs
                    or any(name in _own_uses(other)
                           for other in tree.body if other is not stmt)):
                continue
            found.add(f"{module}.{name}")
    return found


def unreached(root: Path = ROOT) -> Set[str]:
    """Keys of the ``root/src`` definitions no running code names, and
    of its module-level bindings nothing uses."""
    definitions, used = _scan_src(root / "src")
    used |= _root_file_names(root)
    reached: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if id(definition) in reached:
                continue
            owner = definition.owner
            if owner is None:
                hit = definition.name in used
            else:
                hit = id(owner) in reached and (
                    definition.name in used
                    or (definition.name.startswith("__")
                        and definition.name.endswith("__")))
            if hit:
                reached.add(id(definition))
                used |= definition.uses
                changed = True
    return {d.key for d in definitions
            if id(d) not in reached
            and (d.owner is None or id(d.owner) in reached)
            } | unused_bindings(root)


def test_unreached_set_is_the_allowlist():
    found = unreached()
    assert sorted(found - set(ALLOWED)) == [], (
        "unreached by any entry point: delete it, or (only for a test hook "
        "or a test reference) add it to ALLOWED with the test that uses it"
    )
    assert sorted(set(ALLOWED) - found) == [], (
        "reached again or deleted: remove the entry from ALLOWED"
    )


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allowed_entry_is_used_by_the_test_it_names(key):
    """An entry stays only while the test it names still uses it."""
    test_file = ROOT / ALLOWED[key].split()[0]
    assert test_file.parent.name == "tests" and test_file.is_file(), (
        f"{key}: {ALLOWED[key]!r} does not name a test file"
    )
    tree = ast.parse(test_file.read_text(), filename=str(test_file))
    assert key.rsplit(".", 1)[1] in _used_names(tree), (
        f"{test_file.name} no longer uses {key}: delete it and its entry"
    )


def _write_tree(root: Path, files: Dict[str, str]) -> None:
    for name in ("src", *ROOT_DIRS):
        (root / name).mkdir(exist_ok=True)
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


#: (id, files of a miniature repository, the unreached set it must give).
RULE_CASES = [
    ("unused-function", {
        "src/pkg/m.py": """
            def used(): pass
            def unused(): pass
            used()
        """,
    }, {"pkg.m.unused"}),
    ("unused-method", {
        "src/pkg/m.py": """
            class C:
                def run(self): pass
                def idle(self): pass
            C().run()
        """,
    }, {"pkg.m.C.idle"}),
    ("unused-class-hides-its-methods", {
        "src/pkg/m.py": """
            class C:
                def run(self): pass
        """,
    }, {"pkg.m.C"}),
    ("method-name-alone-does-not-reach-its-class", {
        "src/pkg/m.py": """
            class C:
                def go(self): pass
            def start(job): job.go()
            start(None)
        """,
    }, {"pkg.m.C"}),
    ("tests-are-not-roots", {
        "src/pkg/m.py": "def f(): pass\n",
        "tests/test_m.py": "from pkg.m import f\nf()\n",
    }, {"pkg.m.f"}),
    ("attribute-from-another-module", {
        "src/pkg/m.py": "def f(): pass\n",
        "src/pkg/n.py": "from pkg import m\nm.f()\n",
    }, set()),
    ("package-re-export", {
        "src/pkg/__init__.py": "from .m import f\n",
        "src/pkg/m.py": "def f(): pass\n",
        "scripts/run.py": "from pkg import f\nf()\n",
    }, set()),
    ("unused-re-export", {
        "src/pkg/__init__.py": "from .m import f\n",
        "src/pkg/m.py": "def f(): pass\n",
    }, {"pkg.f"}),
    ("unused-import", {
        "src/pkg/m.py": """
            from __future__ import annotations
            import os
            import os.path as osp
            from typing import List, Tuple
            def f() -> Tuple: pass
            f()
        """,
    }, {"pkg.m.os", "pkg.m.osp", "pkg.m.List"}),
    ("unused-assignment", {
        "src/pkg/m.py": """
            _PATTERN = r"[0-9]+"
            LIMIT: int = 3
            A, B = 1, 2
            def f(): return B
            f()
        """,
    }, {"pkg.m._PATTERN", "pkg.m.LIMIT", "pkg.m.A"}),
    ("same-name-in-another-module-is-no-use", {
        "src/pkg/m.py": "from dataclasses import dataclass, field\n"
                        "@dataclass\nclass C:\n    x: int = 0\nC()\n",
        "src/pkg/n.py": "from dataclasses import field\nY = field()\n"
                        "print(Y)\n",
    }, {"pkg.m.field"}),
    ("binding-used-in-a-body-or-string-annotation", {
        "src/pkg/m.py": """
            from typing import Iterable
            import math
            def f(xs: "Iterable[float]"): return math.pi
            f(())
        """,
    }, set()),
    ("binding-used-from-another-module", {
        "src/pkg/m.py": "A = 1\nB = 2\nC = 3\nD = 4\n",
        "src/pkg/n.py": """
            from .m import A
            import pkg.m as mm
            from pkg import m
            print(A, mm.B, m.C)
        """,
        "benchmarks/run.py": 'TARGETS = ("pkg.m.D",)\n',
    }, set()),
    ("keyword-argument", {
        "src/pkg/m.py": """
            def f(): pass
            options = dict(f=1)
            print(options)
        """,
    }, set()),
    ("dotted-string", {
        "src/pkg/m.py": """
            class C:
                def run(self): pass
                def idle(self): pass
            LAYER_CALLS = ("pkg.m.C.run",)
            print(LAYER_CALLS)
        """,
    }, {"pkg.m.C.idle"}),
    ("prose-string-is-no-name", {
        "src/pkg/m.py": """
            def f(): pass
            NOTE = "call f first"
            print(NOTE)
        """,
    }, {"pkg.m.f"}),
    ("stored-name-is-no-use", {
        "src/pkg/m.py": """
            def f(): pass
            class Box: pass
            Box.f = None
        """,
    }, {"pkg.m.f"}),
    ("dunders-of-a-reached-class", {
        "src/pkg/m.py": """
            class C:
                def __len__(self): return helper()
                def spare(self): pass
            def helper(): return 0
            C()
        """,
    }, {"pkg.m.C.spare"}),
    ("class-body-runs-with-its-class", {
        "src/pkg/m.py": """
            def helper(): return 1
            class C:
                X = helper()
            C()
        """,
    }, set()),
    ("reach-is-transitive", {
        "src/pkg/m.py": """
            def a(): b()
            def b(): c()
            def c(): pass
            def d(): e()
            def e(): pass
            a()
        """,
    }, {"pkg.m.d", "pkg.m.e"}),
    ("decorator-and-default-run-at-definition", {
        "src/pkg/m.py": """
            def register(fn): return fn
            def default(): return 0
            @register
            def g(x=default()): pass
        """,
    }, {"pkg.m.g"}),
] + [
    (f"reached-from-{directory}", {
        "src/pkg/m.py": "def f(): pass\ndef g(): pass\n",
        f"{directory}/sub/run.py": "from pkg.m import f\nf()\n",
    }, {"pkg.m.g"})
    for directory in ROOT_DIRS
]


@pytest.mark.parametrize("files,expected",
                         [case[1:] for case in RULE_CASES],
                         ids=[case[0] for case in RULE_CASES])
def test_rule_on_a_miniature_repository(tmp_path, files, expected):
    _write_tree(tmp_path, files)
    assert unreached(tmp_path) == expected


@pytest.mark.parametrize("module,anchor,addition,key", [
    ("core/join.py", None, "\n\ndef _never_called():\n    return 0\n",
     "repro.core.join._never_called"),
    ("geometry/rectangle.py", "\n    def __repr__",
     "\n    def never_called(self):\n        return 0\n",
     "repro.geometry.rectangle.Rect.never_called"),
    ("datasets/io.py", None, "\n\n_UNUSED_PATTERN = r'x'\n",
     "repro.datasets.io._UNUSED_PATTERN"),
    ("core/costs.py", "\nfrom dataclasses import", "\nimport fractions",
     "repro.core.costs.fractions"),
], ids=["module-function", "method", "module-assignment", "module-import"])
def test_an_added_unused_definition_fails_the_ratchet(tmp_path, module,
                                                      anchor, addition, key):
    """On a copy of this repository with one unused definition added,
    the ratchet reports exactly that definition beyond ALLOWED."""
    for name in ("src", *ROOT_DIRS):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    path = tmp_path / "src" / "repro" / module
    text = path.read_text()
    if anchor is None:
        text += addition
    else:  # a method: insert it into the class body
        assert anchor in text
        text = text.replace(anchor, addition + anchor, 1)
    path.write_text(text)
    assert unreached(tmp_path) - set(ALLOWED) == {key}


if __name__ == "__main__":
    for key in sorted(unreached()):
        print(key)
