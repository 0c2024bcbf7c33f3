"""``src/l1comb`` holds only what runs: every top-level ``def`` and ``class``
under it is read by another module of the package, by a demo or by the
benchmark harness, never by the tests alone.  A helper only the tests need
lives beside them (``tests/conftest.py``)."""

import ast
from pathlib import Path

import l1comb

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(l1comb.__file__).parent


def _reads(node) -> set[str]:
    """The names a syntax tree reads: identifiers, attributes, and string
    constants, as the benchmark tracer patches names by string.  An import
    alone reads nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_definition_is_read_outside_the_tests():
    defined, read = {}, set()
    # __init__ only re-exports, and a definition's own body does not count
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
                read |= _reads(node) - {node.name}
            else:
                read |= _reads(node)
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        read |= _reads(ast.parse(path.read_text()))
    assert len(defined) > 50
    assert [f"{where} {name}" for name, where in defined.items() if name not in read] == []


def _defaulted(fn, method: bool):
    """(name, call position or None) of each parameter of ``fn`` with a
    default, positions counted after ``self`` for a method."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, k - method) for k, p in enumerate(positional) if k >= first]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _calls(tree):
    """(callee, the class whose body holds a ``super()`` call or None, call)
    for every call in a syntax tree: a ``Name`` or ``Attribute`` callee by its
    name, ``super().__init__`` by the enclosing class."""
    out = []

    def visit(node, cls):
        for sub in ast.iter_child_nodes(node):
            inner = sub.name if isinstance(sub, ast.ClassDef) else cls
            if isinstance(sub, ast.Call):
                f = sub.func
                if isinstance(f, ast.Name):
                    out.append((f.id, None, sub))
                elif isinstance(f, ast.Attribute):
                    is_super = (isinstance(f.value, ast.Call)
                                and getattr(f.value.func, "id", None) == "super")
                    out.append((f.attr, cls if is_super else None, sub))
            visit(sub, inner)

    visit(tree, None)
    return out


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a default that no call in src, a demo or the benchmark overrides is a
    # parameter only the tests read; a class call is a call of its __init__,
    # or of the nearest package base's, and so is super().__init__
    defs, bases, inits = [], {}, {}
    sources = [*sorted(PACKAGE.glob("*.py")), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, None, node, path))
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = next((b.id for b in node.bases if isinstance(b, ast.Name)),
                                        None)
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        defs.append((fn.name, node.name, fn, path))
                        if fn.name == "__init__":
                            inits[node.name] = fn

    def init_of(cls):
        """The __init__ a call of ``cls`` runs, as the class defining it."""
        while cls in bases and cls not in inits:
            cls = bases[cls]
        return cls if cls in inits else None

    calls: dict[tuple[str, str | None], list[ast.Call]] = {}
    for tree in trees.values():
        for name, sup, call in _calls(tree):
            if sup is not None and name == "__init__":
                key = ("__init__", init_of(bases.get(sup)))
            elif name in bases:
                key = ("__init__", init_of(name))
            else:
                key = (name, None)
            calls.setdefault(key, []).append(call)

    def passed(call, param, pos):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or (pos is not None and len(call.args) > pos)
                or any(k.arg in (None, param) for k in call.keywords))

    unused = []
    for name, cls, fn, path in defs:
        is_method = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        key = ("__init__", cls) if name == "__init__" else (name, None)
        for param, pos in _defaulted(fn, is_method):
            if not any(passed(call, param, pos) for call in calls.get(key, ())):
                unused.append(f"{path.name}:{fn.lineno} {cls + '.' if cls else ''}{name}.{param}")
    assert len(defs) > 100
    assert unused == []
