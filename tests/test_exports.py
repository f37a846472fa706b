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
  package is read as an attribute somewhere outside its own definition,
  through a receiver tied to its class (``_Ties``): ``self`` in the
  class, a parameter annotated with it, or a name bound from a call
  annotated to return it.  A read of a member of the same name on another
  class, or on a receiver nothing ties, does not count; the few receivers
  the AST cannot tie are listed in ``UNTIED``.
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


def _annotated_class(node, classes) -> str | None:
    """The package class an annotation names (``C``, ``module.C`` or
    ``"C"``), else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in classes else None


def _classes(trees):
    """{class name: {member name: (label, definition node, kind, type)}} of
    the classes defined in ``trees`` ((module, tree) pairs): every method,
    property and dataclass field (dunder methods excepted).  ``kind`` is
    "field", "property" or "method"; ``type`` is the package class its
    annotation names (a field's type, a property's or method's return),
    else None."""
    found = [(module, cls) for module, tree in trees
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    classes = {cls.name: {} for _, cls in found}
    for module, cls in found:
        members = classes[cls.name]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    kind = ("property" if any(getattr(d, "id", None) == "property"
                                              for d in node.decorator_list) else "method")
                    members[node.name] = (f"{module}.{cls.name}.{node.name}", node, kind,
                                          _annotated_class(node.returns, classes))
        if _is_dataclass(cls):
            for f in _fields(cls):
                members[f.target.id] = (f"{module}.{cls.name}.{f.target.id}", f, "field",
                                        _annotated_class(f.annotation, classes))
    return classes


def _members():
    """(label, class name, member name, definition node) of every member of
    the package's classes."""
    return [(label, cls, name, node)
            for cls, members in _classes(_package_trees()).items()
            for name, (label, node, _, _) in members.items()]


def _returns(trees, classes):
    """{function name: package class} of the module-level functions of
    ``trees`` whose return annotation names a class; a name defined twice
    with different returns is left out."""
    out = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                tied = _annotated_class(node.returns, classes)
                out.setdefault(node.name, set()).add(tied)
    return {name: types.pop() for name, types in out.items()
            if len(types) == 1 and None not in types}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope):
    """The nodes of ``scope`` outside the nested functions, lambdas and
    classes it defines (those nodes themselves included)."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


# receivers the AST cannot tie, as (function, name): class
UNTIED = {
    ("resolve_config", "key"): "Key",  # a loop variable over a schema's keys
}


class _Ties:
    """Ties attribute reads to the package class of their receiver.

    A receiver is tied to class C when it is ``self`` (the first parameter)
    in a method of C, a parameter annotated with C, a call of C or of a
    function annotated to return C, a name every binding of which in its
    scope is tied to C, or an attribute whose field or property is
    annotated with C.  Anything else (subscripts, loop variables,
    unannotated parameters) is not tied.
    """

    def __init__(self, classes, returns, untied):
        self.classes, self.returns, self.untied = classes, returns, untied

    def type_of(self, node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id, node.id if node.id in self.classes else None)
        if isinstance(node, ast.Attribute):
            member = self.classes.get(self.type_of(node.value, env), {}).get(node.attr)
            return member[3] if member and member[2] != "method" else None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                member = self.classes.get(self.type_of(func.value, env), {}).get(func.attr)
                if member is not None:
                    return member[3] if member[2] == "method" else None
            name = _callee(func)
            return name if name in self.classes else self.returns.get(name)
        return None

    def reads(self, tree):
        """(class, member name, enclosing definitions) of every tied read."""
        out = []
        self._visit(tree, {}, None, (), out)
        return out

    def _visit(self, scope, outer, owner, enclosing, out):
        env = dict(outer)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = scope.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            for arg in params:
                env.pop(arg.arg, None)
                tied = _annotated_class(arg.annotation, self.classes)
                if tied is not None:
                    env[arg.arg] = tied
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in getattr(scope, "decorator_list", []))
            positional = args.posonlyargs + args.args
            if owner is not None and positional and not static:
                env[positional[0].arg] = owner
        nodes = list(_scope_nodes(scope))
        # each local name is tied only if every binding of it is
        values = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    values[id(target)] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                values[id(node.target)] = node.value
        bound = {}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, []).append(values.get(id(node)))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.setdefault(node.name, []).append(None)
        for name in bound:
            env.pop(name, None)
        for (function, name), cls in self.untied.items():
            if getattr(scope, "name", None) == function:
                env[name] = cls
        changed = True
        while changed:
            changed = False
            for name, exprs in bound.items():
                types = {None if e is None else self.type_of(e, env) for e in exprs}
                if name not in env and len(types) == 1 and None not in types:
                    env[name] = types.pop()
                    changed = True
        if isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing + (scope,)
        # a class body's names are not visible in the scopes it defines
        in_class = isinstance(scope, ast.ClassDef)
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                cls = self.type_of(node.value, env)
                if node.attr in self.classes.get(cls, {}):
                    out.append((cls, node.attr, enclosing))
            if isinstance(node, _SCOPES):
                is_method = in_class and isinstance(node, ast.FunctionDef)
                method_of = scope.name if is_method else None
                self._visit(node, outer if in_class else env, method_of, enclosing, out)


def _tied_reads():
    classes = _classes(_package_trees())
    trees = _caller_trees()
    ties = _Ties(classes, _returns(trees, classes), UNTIED)
    return [read for tree in trees for read in ties.reads(tree)]


def test_member_reads_are_tied_to_their_class():
    source = """
from __future__ import annotations
from dataclasses import dataclass

@dataclass
class Cell:
    xi: float
    eta: float
    dt: float
    size: float

    def scaled(self) -> Cell:
        return Cell(self.xi, 0.0, 0.0, 0.0)

class Grid:
    def cell(self) -> Cell:
        return Cell(0.0, 0.0, 0.0, 0.0)

def make() -> Cell:
    return Cell(0.0, 0.0, 0.0, 0.0)

def use(c: Cell, grid: Grid, other):
    made = make()
    twice = made.scaled()
    return c.eta, twice.dt, grid.cell().size, other.xi, Grid().cell
"""
    tree = ast.parse(source)
    classes = _classes([("m", tree)])
    ties = _Ties(classes, _returns([tree], classes), {})
    reads = {(cls, name) for cls, name, _ in ties.reads(tree)}
    # self in Cell, an annotated parameter, a name bound from a call
    # annotated to return Cell, a method's return and a constructor call
    assert reads == {("Cell", "xi"), ("Cell", "eta"), ("Cell", "scaled"),
                     ("Cell", "dt"), ("Grid", "cell"), ("Cell", "size")}


def test_every_member_is_read_outside_its_definition():
    reads = _tied_reads()
    members = _members()
    assert any(label == "lattice.PeriodicCube.grad" for label, *_ in members)
    unread = [label for label, cls, name, node in members
              if not any(c == cls and attr == name and node not in enclosing
                         for c, attr, enclosing in reads)]
    assert not unread, f"members no caller reads: {unread}"
