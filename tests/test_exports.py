"""Every public name has a caller: each name that ``parahom`` exports,
apart from the error classes, is used in the package's code outside
``__init__.py``, or in the demos or the benchmark.  A use is a name or an
attribute in the code itself; a ``def``/``class`` line, an import, a
docstring or a comment does not count."""

import ast
from pathlib import Path

import parahom
from parahom import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parahom"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    return [n for n in names if not hasattr(errors, n)]


def _used_names():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "bench"):
        paths += sorted((ROOT / folder).glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    names = _exported_names()
    assert names and all(hasattr(parahom, n) for n in names)
    used = _used_names()
    unused = [n for n in names if n not in used]
    assert not unused, f"exported without a caller: {unused}"
