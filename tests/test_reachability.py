"""Reachability ratchet: every function, class and method in ``src/`` is
named from something that runs, or a test compares against it.

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
from typing import Dict, Iterable, List, Set

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
    # Test hooks: let a test build inputs or observe state.
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


def unreached(root: Path = ROOT) -> Set[str]:
    """Keys of the ``root/src`` definitions no running code names."""
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
            and (d.owner is None or id(d.owner) in reached)}


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
    }, set()),
    ("keyword-argument", {
        "src/pkg/m.py": """
            def f(): pass
            options = dict(f=1)
        """,
    }, set()),
    ("dotted-string", {
        "src/pkg/m.py": """
            class C:
                def run(self): pass
                def idle(self): pass
            LAYER_CALLS = ("pkg.m.C.run",)
        """,
    }, {"pkg.m.C.idle"}),
    ("prose-string-is-no-name", {
        "src/pkg/m.py": """
            def f(): pass
            NOTE = "call f first"
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
], ids=["module-function", "method"])
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
