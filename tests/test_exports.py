"""Every public name, setting and member has a caller.

A caller is code in the package outside ``__init__.py``, in the demos or
in the benchmark; tests do not count.  A use is a name or an attribute in
the code itself; a ``def``/``class`` line, an import, a docstring or a
comment does not count.

* Each name that ``parahom`` exports, apart from the error classes, is
  used.
* Each defaulted parameter of a function or method defined in the package,
  and each dataclass field given a plain default (a parameter of the
  generated ``__init__``), is passed, by keyword or by position, at some
  call.  Calls are matched by the callee's name.  A call that hands a
  function on, as ``functools.partial(f, ...)`` and the benchmark's
  ``Tally.call(label, f, ...)`` do, counts for ``f`` with the arguments
  that follow it.  ``cli.main(argv)`` and ``cli.verify_suite(stream)`` are
  the seams the CLI tests substitute, and the only exemptions.
* Each method, property and dataclass field of a class defined in the
  package is read as an attribute somewhere outside its own definition.
"""

import ast
import functools
from pathlib import Path

import parahom
from parahom import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parahom"
SEAMS = {("cli.main", "argv"), ("cli.verify_suite", "stream")}


@functools.cache
def _tree(path: Path) -> ast.Module:
    """Each file is parsed once, so a definition found in the package is
    the same node when it encloses a use."""
    return ast.parse(path.read_text())


def _caller_trees():
    """The tree of every module whose uses count."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "bench"):
        paths += sorted((ROOT / folder).glob("*.py"))
    return [_tree(path) for path in paths]


def _package_trees():
    return [(p.stem, _tree(p)) for p in sorted(PACKAGE.glob("*.py"))]


def _exported_names():
    tree = _tree(PACKAGE / "__init__.py")
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    return [n for n in names if not hasattr(errors, n)]


def _used_names():
    used = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
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


# -- settings ------------------------------------------------------------------


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef):
    """The dataclass fields of ``cls``, as AnnAssign nodes in order."""
    return [n for n in cls.body if isinstance(n, ast.AnnAssign)
            and isinstance(n.target, ast.Name)]


def _signatures():
    """(label, callee name, parameter names, defaulted names) of every
    function, method and dataclass constructor of the package.  Positional
    parameter lists skip the ``self``/``cls`` of methods."""
    out = []
    for module, tree in _package_trees():
        def visit(body, owner):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    if _is_dataclass(node):
                        fields = _fields(node)
                        names = [f.target.id for f in fields]
                        plain = [f.target.id for f in fields if f.value is not None
                                 and not isinstance(f.value, ast.Call)]
                        out.append((f"{module}.{node.name}", node.name, names, plain))
                    visit(node.body, node)
                elif isinstance(node, ast.FunctionDef):
                    args = node.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list)
                    if owner is not None and not static:
                        positional = positional[1:]
                    n_def = len(args.defaults)
                    defaulted = positional[len(positional) - n_def:] if n_def else []
                    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                  if d is not None]
                    names = positional + [a.arg for a in args.kwonlyargs]
                    label = f"{module}.{owner.name + '.' if owner else ''}{node.name}"
                    out.append((label, node.name, names, defaulted))
                    visit(node.body, None)
        visit(tree.body, None)
    return out


def _callee(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls():
    """(callee name, number of positional arguments, keyword names) of
    every call in the caller trees, plus one entry for each function
    handed on with the arguments that follow it."""
    out = []
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            targets = [(node.func, node.args)]
            targets += [(arg, node.args[i + 1:]) for i, arg in enumerate(node.args)]
            for target, args in targets:
                name = _callee(target)
                if name is None:
                    continue
                n_pos = 0
                for arg in args:
                    if isinstance(arg, ast.Starred):
                        break
                    n_pos += 1
                out.append((name, n_pos, keywords))
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = _calls()
    signatures = _signatures()
    defaulted_params = {(label, p) for label, _, _, defaulted in signatures
                        for p in defaulted}
    assert ("environments.langevin_simulate", "burn_in") in defaulted_params
    assert SEAMS <= defaulted_params  # no exemption outlives its parameter
    unset = []
    for label, name, params, defaulted in signatures:
        for param in defaulted:
            if (label, param) in SEAMS:
                continue
            index = params.index(param)
            if not any(callee == name and (n_pos > index or param in keywords)
                       for callee, n_pos, keywords in calls):
                unset.append(f"{label}({param})")
    assert not unset, f"defaulted parameters no caller sets: {unset}"


# -- members --------------------------------------------------------------------


def _members():
    """(label, member name, definition node) of every method, property and
    dataclass field of the package's classes (dunder methods excepted)."""
    out = []
    for module, tree in _package_trees():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        out.append((f"{module}.{cls.name}.{node.name}", node.name, node))
            if _is_dataclass(cls):
                for f in _fields(cls):
                    out.append((f"{module}.{cls.name}.{f.target.id}", f.target.id, f))
    return out


def _attribute_reads():
    """(attribute name, enclosing definitions) of every attribute read in
    the caller trees."""
    reads = []
    for tree in _caller_trees():
        def visit(node, enclosing):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, enclosing))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                enclosing = enclosing + (node,)
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)
        visit(tree, ())
    return reads


def test_every_member_is_read_outside_its_definition():
    reads = _attribute_reads()
    members = _members()
    assert any(label == "lattice.PeriodicCube.grad" for label, *_ in members)
    unread = [label for label, name, node in members
              if not any(attr == name and node not in enclosing
                         for attr, enclosing in reads)]
    assert not unread, f"members no caller reads: {unread}"
