"""Every name a module imports at its top level is read somewhere in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/pmdef", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the module's top-level imports bind but nothing reads. A
    function parameter counts as a read of its name: pytest passes fixtures
    that way. ``__future__`` imports bind nothing to read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    read |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    return [name for name in bound if name not in read]


def test_the_walk_finds_an_unused_import_and_passes_a_read_one():
    source = ("from __future__ import annotations\nimport os.path\nimport json, math as m\nfrom a import b, c\n"
              "def f(c):\n    return os.sep, json\n")
    assert unused_imports(source) == ["m", "b"]


def test_no_module_imports_a_name_it_never_reads():
    assert MODULES
    found = {str(p.relative_to(ROOT)): names for p in MODULES if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}
