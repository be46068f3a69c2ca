"""Dead-definition lint: production code that only non-production code uses.

Scans every module of ``src/<package>`` except the ``bench`` and
``testing`` subpackages, and collects its definitions: top-level
functions and classes, and the public methods of top-level classes.
A definition is *live* when a production module -- a scanned module, or
any module under ``benchmarks/e2e`` -- refers to its name:

* an ``ast.Name`` or ``ast.Attribute`` read of the name, or
* a string constant passed as the name to ``getattr`` / ``hasattr``.

References inside the definition's own body do not count (a recursive
function is not live by itself), and neither does an ``import`` line or
an ``__all__`` entry.  Dunder methods and the protocol hooks in
``PROTOCOL_HOOKS`` (called by the standard library, not by us) are live.

Every other definition is *dead* and must appear in the allowlist, one
entry a line::

    <module>:<qualname>  <kind>: <reason>

with ``<kind>`` one of

* ``api`` -- the README documents it; ``<reason>`` quotes the text of
  one README line that names it (checked: the line is there and names
  it, ``_`` or ``-`` alike);
* ``bench`` -- a ``<package>.bench`` module's committed rows need it;
  ``<reason>`` starts with that module's name (checked: the module
  refers to the name);
* ``probe`` -- an accessor a named test reads to check an invariant of
  the state production keeps; ``<reason>`` starts with the test file's
  path (checked: the file refers to the name).

The lint fails on a dead definition the allowlist does not name, on an
entry whose reason is missing or does not check out, and on an entry
that is no longer dead -- so the allowlist can only shrink.

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
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

#: Subpackages that are not production code: not scanned, not counted.
NON_PRODUCTION = ("bench", "testing")

#: Methods the standard library calls by name on our subclasses.
PROTOCOL_HOOKS = frozenset({"persistent_id", "persistent_load", "find_class"})

KINDS = ("api", "bench", "probe")

_ENTRY = re.compile(r"^(?P<key>\S+)(?:\s+(?P<kind>\w+):\s*(?P<why>.*\S))?\s*$")


class Definition(NamedTuple):
    key: str  # "<module>:<qualname>"
    name: str
    path: Path
    line: int
    body: Tuple[int, int]  # first and last line of the definition


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _definitions(path: Path, module: str, tree: ast.Module) -> Iterator[Definition]:
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield Definition(f"{module}:{node.name}", node.name, path, node.lineno, _span(node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield Definition(
                        f"{module}:{node.name}.{item.name}",
                        item.name,
                        path,
                        item.lineno,
                        _span(item),
                    )


def _live(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name in PROTOCOL_HOOKS


def _references(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Every (name, line) the tree reads, by the rules in the docstring."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_in(path: Path) -> Set[str]:
    return {name for name, _ in _references(_parse(path))} if path.is_file() else set()


def scan(root: Path, package: str) -> List[Definition]:
    """The dead definitions of ``root/src/<package>``, in file order."""
    src = root / "src"
    pkg = src / package
    scanned = [
        p
        for p in sorted(pkg.rglob("*.py"))
        if p.relative_to(pkg).parts[0] not in NON_PRODUCTION
    ]
    e2e = root / "benchmarks" / "e2e"
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    defs: List[Definition] = []
    for path in scanned + sorted(e2e.rglob("*.py")):
        tree = _parse(path)
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
        if path.is_relative_to(pkg):
            defs.extend(_definitions(path, _module_name(path, src), tree))

    def outside(d: Definition) -> bool:
        return any(
            p != d.path or not d.body[0] <= line <= d.body[1]
            for p, line in refs.get(d.name, ())
        )

    return [d for d in defs if not _live(d.name) and not outside(d)]


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


def _reason_problem(root: Path, package: str, name: str, kind: str, why: str) -> str:
    """Why an entry's reason does not check out ('' when it does)."""
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
    if name not in _names_in(path):
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
        bad = _reason_problem(root, package, dead[key].name, kind, why)
        if bad:
            problems.append(f"{where}: {bad}")
        else:
            allowed.append(f"{key}  {kind}: {why}")
    for key, d in dead.items():
        if key not in seen:
            rel = d.path.relative_to(root)
            problems.append(
                f"{rel}:{d.line}: {key} is used by no production module; "
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
