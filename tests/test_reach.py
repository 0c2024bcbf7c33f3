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
