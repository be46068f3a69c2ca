"""Dead-definition lint: production code that only non-production code uses.

Scans every module of ``src/<package>`` except the ``bench`` and
``testing`` subpackages.  A *production module* is a scanned module or
any module under ``benchmarks/e2e``.  Two rules.

**Definitions.**  Every top-level function and class, and every public
method of a top-level class, must be referred to by a production module:

* an ``ast.Name`` or ``ast.Attribute`` read of the name, or
* a string constant passed as the name to ``getattr`` / ``hasattr``.

References inside the definition's own body do not count (a recursive
function is not live by itself), and neither does an ``import`` line or
an ``__all__`` entry.  Dunder methods and the protocol hooks in
``PROTOCOL_HOOKS`` (called by the standard library, not by us) are live.

A method reference ``<receiver>.m`` counts for class ``C`` only when the
receiver can be a ``C``: ``C`` itself, one of its bases or one of its
subclasses.  The lint resolves ``self`` and ``cls``, ``super()``, a
class named directly, a ``C(...)`` expression, a parameter annotated
with classes (``Optional``, ``Union`` and ``| None`` of them too), a
local or module name every binding of which is ``C(...)`` or annotated
so, and an attribute its resolved owner annotates (``x: C`` in the
class body, ``self.x: C`` in a method).  A receiver it cannot resolve (a module, a returned value, an item
of a container) keeps every method of that name live; a bare name never
refers to a method.

**Parameters.**  Every defaulted parameter of a top-level function or of
a method of a top-level class (private ones too; ``__init__`` is the
class's constructor), and every defaulted field of a dataclass or
``NamedTuple``, must be passed by a production call: by keyword, by
position, or through a ``*args`` / ``**kwargs`` forward.  A constructor
is called by the class's name, ``cls(...)``, ``super().__init__(...)``
or ``C.__init__(self, ...)``, and through any subclass that has no
constructor of its own; ``replace(obj, f=...)`` and
``obj._replace(f=...)`` pass field ``f``.  A callable referred to as a
value rather than called (stored in a registry, passed as a callback)
keeps every parameter live.  A class named in an annotation, a base
list, an ``isinstance`` / ``issubclass`` test, an ``except`` clause or a
subscript is a type there, not a value.  The parameters of a dead
definition are covered by the definition's own entry.

Every dead definition and every unpassed parameter must appear in the
allowlist, one entry a line::

    <module>:<qualname>  <kind>: <reason>
    <module>:<qualname>(<param>)  <kind>: <reason>

(a constructor's parameters and a record's fields go under the class,
``<module>:<Class>(<field>)``), with ``<kind>`` one of

* ``api`` -- the README documents it; ``<reason>`` quotes the text of
  one README line that names it (checked: the line is there and names
  it, ``_`` or ``-`` alike);
* ``bench`` -- a ``<package>.bench`` module's committed rows need it;
  ``<reason>`` starts with that module's name (checked: the module
  refers to the name; for a parameter, it calls the callable passing
  the parameter, by keyword or by position);
* ``probe`` -- an accessor a named test reads, or a parameter it sets,
  to check an invariant of the state production keeps; ``<reason>``
  starts with the test file's path (checked as for ``bench``).

The lint fails on a dead definition or parameter the allowlist does not
name, on an entry whose reason is missing or does not check out, and on
an entry that is no longer dead -- so the allowlist can only shrink.

Usage: ``python tools/lint_dead.py [--root DIR] [--package NAME]
[--allowlist PATH]`` (defaults: the repository, ``repro``,
``tools/lint_dead_allowlist.txt``).  Exit status 0 when clean, 1 with
one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

#: Subpackages that are not production code: not scanned, not counted.
NON_PRODUCTION = ("bench", "testing")

#: Methods the standard library calls by name on our subclasses.
PROTOCOL_HOOKS = frozenset({"persistent_id", "persistent_load", "find_class"})

KINDS = ("api", "bench", "probe")

_ENTRY = re.compile(r"^(?P<key>\S+)(?:\s+(?P<kind>\w+):\s*(?P<why>.*\S))?\s*$")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Definition(NamedTuple):
    key: str  # "<module>:<qualname>" or "<module>:<qualname>(<param>)"
    name: str  # the definition's name, or the parameter's
    path: Path
    line: int
    body: Tuple[int, int]  # first and last line of the definition
    callee: str = ""  # a parameter's: the name its callable is called by
    position: Optional[int] = None  # ... and its index among the arguments


class Ref(NamedTuple):
    """One read of a name in a production module."""

    name: str
    path: Path
    line: int
    bare: bool  # an ast.Name (or a constructor call that names no class)
    recv: Optional[FrozenSet[str]]  # classes the receiver can be; None: unknown
    class_obj: bool  # the receiver is a class, so a plain method gets no self
    call: Optional[ast.Call]  # the call this name is the callee of
    value: bool  # read as a value: neither called nor a receiver nor a type
    spent: int = 0  # leading arguments the call spends on self


def _tail(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorators(node: ast.AST) -> Set[str]:
    return {
        _tail(d.func if isinstance(d, ast.Call) else d)
        for d in getattr(node, "decorator_list", ())
    }


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _live(name: str) -> bool:
    return _is_dunder(name) or name in PROTOCOL_HOOKS


# -- signatures ----------------------------------------------------------


class Signature(NamedTuple):
    positional: Tuple[str, ...]
    defaulted: Dict[str, str]  # parameter -> its allowlist key
    bound: bool  # a call through an instance or a class method skips one


def _signature(node: ast.AST, key: str, method: bool) -> Signature:
    args = node.args
    positional = tuple(a.arg for a in args.posonlyargs + args.args)
    defaulted = {a: f"{key}({a})" for a in positional[len(positional) - len(args.defaults):]}
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            defaulted[a.arg] = f"{key}({a.arg})"
    return Signature(positional, defaulted, method and "staticmethod" not in _decorators(node))


def _fields(node: ast.ClassDef) -> Optional[List[Tuple[str, bool]]]:
    """``[(field, defaulted)]`` of a dataclass or NamedTuple, else None."""
    if "dataclass" not in _decorators(node) and "NamedTuple" not in map(_tail, node.bases):
        return None
    out = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if (
            isinstance(value, ast.Call)
            and _tail(value.func) == "field"
            and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
                for k in value.keywords
            )
        ):
            continue
        out.append((item.target.id, value is not None))
    return out


class _Class(NamedTuple):
    key: str
    name: str
    bases: Tuple[str, ...]
    node: ast.ClassDef
    fields: Optional[List[Tuple[str, bool]]]  # a record's, else None


class _Index:
    """The top-level classes of the scanned package, by name."""

    def __init__(self) -> None:
        self.classes: Dict[str, List[_Class]] = {}
        self._ancestors: Dict[str, FrozenSet[str]] = {}
        self._related: Dict[str, Set[str]] = {}

    def add(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = tuple(filter(None, map(_tail, node.bases)))
                self.classes.setdefault(node.name, []).append(
                    _Class(f"{module}:{node.name}", node.name, bases, node, _fields(node))
                )

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def attribute(self, name: str, attr: str) -> Optional[ast.AST]:
        """The annotation of attribute ``attr`` of class ``name`` (a
        class-level field, or ``self.attr: T`` in a method), searched
        through its bases; ``None`` when it has none."""
        for owner in [name, *sorted(self.ancestors(name))]:
            for cls in self.classes.get(owner, ()):
                for node in ast.walk(cls.node):
                    if not isinstance(node, ast.AnnAssign):
                        continue
                    target = node.target
                    if (isinstance(target, ast.Name) and target.id == attr) or (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return node.annotation
        return None

    def ancestors(self, name: str) -> FrozenSet[str]:
        if name not in self._ancestors:
            seen: Set[str] = set()
            todo = [b for c in self.classes.get(name, ()) for b in c.bases]
            while todo:
                base = todo.pop()
                if base not in seen:
                    seen.add(base)
                    todo.extend(b for c in self.classes.get(base, ()) for b in c.bases)
            self._ancestors[name] = frozenset(seen)
        return self._ancestors[name]

    def descendants(self, name: str) -> Set[str]:
        return {name} | {c for c in self.classes if name in self.ancestors(c)}

    def related(self, name: str) -> Set[str]:
        """What an object that can be a ``name`` can be."""
        if name not in self._related:
            self._related[name] = self.descendants(name) | self.ancestors(name)
        return self._related[name]

    def constructor(self, cls: _Class) -> Optional[Tuple[_Class, Signature]]:
        """The class whose signature ``cls(...)`` calls, and that
        signature: its own ``__init__`` or fields, else a base's."""
        init = next(
            (i for i in cls.node.body if isinstance(i, _FUNCS) and i.name == "__init__"), None
        )
        if init is not None:
            sig = _signature(init, cls.key, True)
            return cls, sig._replace(positional=sig.positional[1:])
        if cls.fields is not None:
            positional: List[str] = []
            defaulted: Dict[str, str] = {}
            for owner in self._records(cls):
                for name, has_default in owner.fields:
                    if name not in positional:
                        positional.append(name)
                    defaulted.pop(name, None)
                    if has_default:
                        defaulted[name] = f"{owner.key}({name})"
            return cls, Signature(tuple(positional), defaulted, False)
        for base in cls.bases:
            for b in self.classes.get(base, ()):
                if b is not cls:
                    found = self.constructor(b)
                    if found is not None:
                        return found
        return None

    def _records(self, cls: _Class) -> List[_Class]:
        """``cls`` and its record bases, the farthest first."""
        out: List[_Class] = []
        for base in reversed(cls.bases):
            for b in self.classes.get(base, ()):
                if b.fields is not None:
                    out.extend(x for x in self._records(b) if x not in out)
        return out + [cls]


# -- references ----------------------------------------------------------


_Types = Tuple[Optional[FrozenSet[str]], bool]  # (classes, the class itself)
_UNKNOWN: _Types = (None, False)

#: Fields of a node under which a class name is a type, not a value.
_TYPE_FIELDS = {
    (ast.arg, "annotation"),
    (ast.FunctionDef, "returns"),
    (ast.AsyncFunctionDef, "returns"),
    (ast.AnnAssign, "annotation"),
    (ast.ClassDef, "bases"),
    (ast.ClassDef, "keywords"),
    (ast.ExceptHandler, "type"),
    (ast.Subscript, "slice"),
}


class _Refs(ast.NodeVisitor):
    """Collects one module's references, with their receivers resolved."""

    def __init__(self, path: Path, index: _Index, tree: ast.Module) -> None:
        self.path = path
        self.index = index
        self.refs: List[Ref] = []
        self.parent: Dict[int, Tuple[ast.AST, str]] = {}
        for node in ast.walk(tree):
            for name, value in ast.iter_fields(node):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        self.parent[id(child)] = (node, name)
        self.classes: List[str] = []
        self.scopes: List[Dict[str, _Types]] = []
        self.scopes.append(self._bindings(tree.body, {}))
        self.visit(tree)

    # -- what a name can be

    def _annotation(self, node: Optional[ast.AST]) -> _Types:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return _UNKNOWN
        parts: List[ast.AST] = []

        def split(n: ast.AST) -> None:
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitOr):
                split(n.left)
                split(n.right)
            elif isinstance(n, ast.Subscript) and _tail(n.value) in ("Optional", "Union"):
                for e in n.slice.elts if isinstance(n.slice, ast.Tuple) else [n.slice]:
                    split(e)
            elif not (isinstance(n, ast.Constant) and n.value is None):
                parts.append(n)

        if node is None:
            return _UNKNOWN
        split(node)
        names = {_tail(p) for p in parts}
        if not names or not all(n in self.index for n in names):
            return _UNKNOWN
        return frozenset(names), False

    def _constructed(self, node: ast.AST) -> _Types:
        if isinstance(node, ast.Call):
            types, is_class = self.resolve(node.func)
            if types is not None and is_class:
                return types, False
        return _UNKNOWN

    def _bindings(self, body: List[ast.stmt], seed: Dict[str, _Types]) -> Dict[str, _Types]:
        """The names a scope binds: resolved when every binding is
        ``C(...)`` or annotated with classes, unknown otherwise."""
        found: Dict[str, List[_Types]] = {k: [v] for k, v in seed.items()}
        todo: List[ast.AST] = list(body)
        while todo:
            node = todo.pop()
            if isinstance(node, _FUNCS + (ast.ClassDef,)):
                found.setdefault(node.name, []).append(_UNKNOWN)
                continue  # a scope of its own
            if isinstance(node, ast.Lambda):
                continue
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                found.setdefault(node.targets[0].id, []).append(self._constructed(node.value))
                todo.append(node.value)
                continue
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.setdefault(node.target.id, []).append(self._annotation(node.annotation))
                todo.extend(n for n in (node.value,) if n is not None)
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                found.setdefault(node.id, []).append(_UNKNOWN)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    known = alias.name in self.index
                    found.setdefault(alias.asname or alias.name, []).append(
                        (frozenset({alias.name}), True) if known else _UNKNOWN
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    found.setdefault((alias.asname or alias.name).split(".")[0], []).append(_UNKNOWN)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                for name in node.names:
                    found.setdefault(name, []).append(_UNKNOWN)
            todo.extend(ast.iter_child_nodes(node))
        out: Dict[str, _Types] = {}
        for name, all_types in found.items():
            if any(t is None for t, _ in all_types) or len({c for _, c in all_types}) > 1:
                out[name] = _UNKNOWN
            else:
                out[name] = frozenset().union(*(t for t, _ in all_types)), all_types[0][1]
        return out

    def _lookup(self, name: str) -> Optional[_Types]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def resolve(self, node: ast.AST) -> _Types:
        """The classes ``node`` can be an instance of (or, with the flag
        set, can be), ``(None, False)`` when unknown."""
        if isinstance(node, ast.Name):
            bound = self._lookup(node.id)
            if bound is not None:
                return bound
            return (frozenset({node.id}), True) if node.id in self.index else _UNKNOWN
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "super"
                and self._lookup("super") is None
                and self.classes
            ):
                return self.index.ancestors(self.classes[-1]), False
            return self._constructed(node)
        if isinstance(node, ast.Attribute):
            types, is_class = self.resolve(node.value)
            if types is None or is_class:
                return _UNKNOWN
            found: Set[str] = set()
            for name in types:
                attr_types, _ = self._annotation(self.index.attribute(name, node.attr))
                if attr_types is None:
                    return _UNKNOWN
                found |= attr_types
            return frozenset(found), False
        return _UNKNOWN

    # -- scopes

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in node.decorator_list + node.bases + node.keywords:
            self.visit(child)
        self.classes.append(node.name)
        self.scopes.append({})
        for child in node.body:
            if isinstance(child, _FUNCS):
                self._function(child, node.name)
            else:
                self.visit(child)
        self.scopes.pop()
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self._function(node, None)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _function(self, node: ast.AST, owner: Optional[str]) -> None:
        args = node.args
        for child in node.decorator_list + args.defaults + [d for d in args.kw_defaults if d]:
            self.visit(child)
        every = args.posonlyargs + args.args + args.kwonlyargs
        for a in every + [args.vararg, args.kwarg]:
            if a is not None and a.annotation is not None:
                self.visit(a.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        seed = {a.arg: self._annotation(a.annotation) for a in every}
        seed.update({a.arg: _UNKNOWN for a in (args.vararg, args.kwarg) if a is not None})
        positional = args.posonlyargs + args.args
        decorators = _decorators(node)
        if owner is not None and positional and "staticmethod" not in decorators:
            seed[positional[0].arg] = frozenset({owner}), "classmethod" in decorators
        self.scopes.append(self._bindings(node.body, seed))
        for child in node.body:
            self.visit(child)
        self.scopes.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        args = node.args
        for child in args.defaults + [d for d in args.kw_defaults if d]:
            self.visit(child)
        names = [a for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a for a in (args.vararg, args.kwarg) if a is not None]
        self.scopes.append({a.arg: _UNKNOWN for a in names})
        self.visit(node.body)
        self.scopes.pop()

    # -- references

    def _context(self, node: ast.AST) -> Tuple[Optional[ast.Call], bool]:
        """``(call, value)``: the call ``node`` is the callee of, and
        whether ``node`` is read as a value."""
        parent, where = self.parent.get(id(node), (None, ""))
        if isinstance(parent, ast.Call) and where == "func":
            return parent, False
        if isinstance(parent, ast.Attribute) and where == "value":
            return None, False
        child = node
        while parent is not None:
            if (type(parent), where) in _TYPE_FIELDS:
                return None, False
            if (
                isinstance(parent, ast.Call)
                and where == "args"
                and _tail(parent.func) in ("isinstance", "issubclass")
                and parent.args.index(child) == 1
            ):
                return None, False
            if isinstance(parent, ast.stmt):
                break
            child = parent
            parent, where = self.parent.get(id(parent), (None, ""))
        return None, True

    def _emit(self, name: str, node: ast.AST, bare: bool, types: _Types) -> None:
        call, value = self._context(node)
        self.refs.append(Ref(name, self.path, node.lineno, bare, types[0], types[1], call, value))

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._emit(node.id, node, True, _UNKNOWN)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._emit(node.attr, node, False, self.resolve(node.value))
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            types, is_class = self.resolve(node.args[0])
            self.refs.append(
                Ref(node.args[1].value, self.path, node.lineno, False, types, is_class, None, True)
            )
        # constructor calls that do not spell the class's name
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            types, is_class = self.resolve(func.value)
            for cls in sorted(types or ()):
                self.refs.append(Ref(cls, self.path, node.lineno, True, None, False, node, False, int(is_class)))
        elif not (isinstance(func, ast.Name) and self._lookup(func.id) is None):
            types, is_class = self.resolve(func)
            if types is not None and is_class:
                for cls in sorted(set().union(*map(self.index.descendants, types))):
                    self.refs.append(Ref(cls, self.path, node.lineno, True, None, False, node, False))
        self.generic_visit(node)


# -- the scan ------------------------------------------------------------


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _covered(sig: Signature, call: ast.Call, skip: int) -> Set[str]:
    """The defaulted parameters of ``sig`` that ``call`` passes, its
    first ``skip`` parameters taken by the receiver."""
    if any(k.arg is None for k in call.keywords):
        return set(sig.defaulted)
    passed = {k.arg for k in call.keywords}
    for n, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(sig.positional[skip + n:])
            break
        passed.update(sig.positional[skip + n:skip + n + 1])
    return passed & set(sig.defaulted)


class _Scan:
    def __init__(self, root: Path, package: str) -> None:
        src = root / "src"
        pkg = src / package
        self.scanned = [
            p
            for p in sorted(pkg.rglob("*.py"))
            if p.relative_to(pkg).parts[0] not in NON_PRODUCTION
        ]
        e2e = sorted((root / "benchmarks" / "e2e").rglob("*.py"))
        self.trees = {p: _parse(p) for p in self.scanned + e2e}
        self.modules = {p: _module_name(p, src) for p in self.scanned}
        self.index = _Index()
        for path in self.scanned:
            self.index.add(self.modules[path], self.trees[path])
        self.refs: Dict[str, List[Ref]] = {}
        for path, tree in self.trees.items():
            for ref in _Refs(path, self.index, tree).refs:
                self.refs.setdefault(ref.name, []).append(ref)

    def _matches(self, ref: Ref, owner: Optional[str]) -> bool:
        """Whether ``ref`` can refer to the definition of its name that
        class ``owner`` holds (``None``: a top-level one)."""
        if owner is None:
            return ref.bare or ref.recv is None
        if ref.bare:
            return False
        return ref.recv is None or any(r in self.index.related(owner) for r in ref.recv)

    def _definitions(self) -> Iterator[Tuple[Definition, Optional[str], ast.AST]]:
        """``(definition, owning class, node)`` for every function, class
        and method, private methods and dunders included."""
        for path in self.scanned:
            module = self.modules[path]
            for node in self.trees[path].body:
                if isinstance(node, _FUNCS + (ast.ClassDef,)):
                    key = f"{module}:{node.name}"
                    yield Definition(key, node.name, path, node.lineno, _span(node)), None, node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, _FUNCS):
                            yield Definition(
                                f"{module}:{node.name}.{item.name}",
                                item.name,
                                path,
                                item.lineno,
                                _span(item),
                            ), node.name, item

    def dead(self) -> List[Definition]:
        def outside(d: Definition, owner: Optional[str]) -> bool:
            return any(
                (r.path != d.path or not d.body[0] <= r.line <= d.body[1])
                and self._matches(r, owner)
                for r in self.refs.get(d.name, ())
            )

        return [
            d
            for d, owner, _ in self._definitions()
            if not (owner and d.name.startswith("_")) and not _live(d.name) and not outside(d, owner)
        ]

    def unpassed(self, dead: Set[str]) -> List[Definition]:
        """The defaulted parameters and fields no production call passes
        (those of a dead definition aside)."""
        params: Dict[str, Definition] = {}
        passed: Set[str] = set()

        def declare(sig: Signature, d: Definition, skip: int) -> None:
            for name, key in sig.defaulted.items():
                if key.startswith(d.key + "("):
                    position = (
                        sig.positional.index(name) - skip if name in sig.positional else None
                    )
                    params[key] = Definition(
                        key, name, d.path, d.line, d.body, d.name, position
                    )

        def calls(sig: Signature, refs: List[Ref], skip) -> None:
            for r in refs:
                if r.value:
                    passed.update(sig.defaulted.values())
                elif r.call is not None:
                    covered = _covered(sig, r.call, skip(r))
                    passed.update(sig.defaulted[p] for p in covered)

        for d, owner, node in self._definitions():
            if d.key in dead or (owner is not None and d.key.rsplit(".", 1)[0] in dead):
                continue
            refs = [r for r in self.refs.get(d.name, ()) if self._matches(r, owner)]
            if isinstance(node, ast.ClassDef):
                cls = next(c for c in self.index.classes[d.name] if c.key == d.key)
                found = self.index.constructor(cls)
                if found is None:
                    continue
                ctor_owner, sig = found
                if ctor_owner is cls:
                    declare(sig, d, 0)
                calls(sig, refs, lambda r: r.spent)
                if cls.fields is not None:
                    for r in self.refs.get("replace", []) + self.refs.get("_replace", []):
                        if r.call is not None:
                            keywords = {k.arg for k in r.call.keywords}
                            passed.update(k for f, k in sig.defaulted.items() if f in keywords)
            elif not _is_dunder(d.name):
                sig = _signature(node, d.key, owner is not None)
                declare(sig, d, int(sig.bound))
                bound = "classmethod" in _decorators(node)
                calls(sig, refs, lambda r: int(sig.bound and (bound or not r.class_obj)))
        return [d for key, d in params.items() if key not in passed]


def scan(root: Path, package: str) -> List[Definition]:
    """The dead definitions of ``root/src/<package>`` in file order, then
    the parameters no production call passes."""
    s = _Scan(root, package)
    dead = s.dead()
    return dead + s.unpassed({d.key for d in dead})


def read_allowlist(path: Path) -> List[Tuple[int, str, str, str]]:
    """``(line number, key, kind, reason)`` per entry; kind/reason may be ''."""
    entries = []
    for num, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        m = _ENTRY.match(text)
        if m is None:
            entries.append((num, text, "", ""))
        else:
            entries.append((num, m["key"], m["kind"] or "", m["why"] or ""))
    return entries


def _names_in(path: Path) -> Set[str]:
    """The names a file reads, by the definition rule."""
    if not path.is_file():
        return set()
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def _passes(path: Path, d: Definition) -> bool:
    """Whether a file calls ``d``'s callable passing parameter ``d``:
    by keyword, by position, or through a ``*`` / ``**`` forward."""
    if not path.is_file():
        return False
    for node in ast.walk(_parse(path)):
        if not (isinstance(node, ast.Call) and _tail(node.func) == d.callee):
            continue
        if any(k.arg in (d.name, None) for k in node.keywords):
            return True
        if d.position is not None and (
            len(node.args) > d.position
            or any(isinstance(a, ast.Starred) for a in node.args)
        ):
            return True
    return False


def _reason_problem(root: Path, package: str, d: Definition, kind: str, why: str) -> str:
    """Why an entry's reason does not check out ('' when it does)."""
    name = d.name
    if kind not in KINDS:
        return f"reason must be one of {', '.join(k + ':' for k in KINDS)}"
    if kind == "api":
        readme = (root / "README.md").read_text(encoding="utf-8").splitlines()
        if not any(why in line for line in readme):
            return "api: reason must quote one README.md line"
        spelled = {re.escape(name), re.escape(name.replace("_", "-"))}
        if not re.search(rf"\b({'|'.join(spelled)})\b", why):
            return f"api: the quoted README text does not name {name}"
        return ""
    where = re.match(r"[\w./]*", why)[0]
    path = (
        root / "src" / package / "bench" / f"{where.split('.')[-1]}.py"
        if kind == "bench"
        else root / where
    )
    if d.callee:
        if not _passes(path, d):
            return f"{kind}: {where} does not pass {name} to {d.callee}"
    elif name not in _names_in(path):
        return f"{kind}: {where} does not refer to {name}"
    return ""


def lint(root: Path, package: str, allowlist: Path) -> Tuple[List[str], List[str]]:
    """``(problems, allowed)``: one line per problem and per allowed entry."""
    dead = {d.key: d for d in scan(root, package)}
    problems: List[str] = []
    allowed: List[str] = []
    seen: Set[str] = set()
    for num, key, kind, why in read_allowlist(allowlist):
        where = f"{allowlist.name}:{num}: {key}"
        if key in seen:
            problems.append(f"{where}: listed twice")
            continue
        seen.add(key)
        if key not in dead:
            problems.append(f"{where}: no longer dead; delete the entry")
            continue
        if not why:
            problems.append(f"{where}: no reason given")
            continue
        bad = _reason_problem(root, package, dead[key], kind, why)
        if bad:
            problems.append(f"{where}: {bad}")
        else:
            allowed.append(f"{key}  {kind}: {why}")
    for key, d in dead.items():
        if key not in seen:
            rel = d.path.relative_to(root)
            what = "is passed by no production call" if key.endswith(")") else "is used by no production module"
            problems.append(
                f"{rel}:{d.line}: {key} {what}; "
                f"delete it, move it to {package}.testing, or allowlist it"
            )
    return problems, allowed


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=here.parent)
    parser.add_argument("--package", default="repro")
    parser.add_argument("--allowlist", type=Path, default=here / "lint_dead_allowlist.txt")
    args = parser.parse_args(argv)
    problems, allowed = lint(args.root, args.package, args.allowlist)
    for line in allowed:
        print(f"allowed  {line}")
    for line in problems:
        print(line, file=sys.stderr)
    print(
        f"lint-dead: {len(allowed)} allowed, {len(problems)} problem(s)",
        file=sys.stderr if problems else sys.stdout,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
