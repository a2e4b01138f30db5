"""Pins the library's settable-value count: every parameter with a default
(positional or keyword-only, in any function, nested ones and lambdas
included) plus every annotated field with a default in a ``@dataclass``.
Each knob is a behaviour to document, validate and test, so the count is
reported with every change that moves it."""

import ast
from pathlib import Path

import invattn

SETTABLE_VALUES = 61


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def count_settable_values(root: Path) -> int:
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(d) for d in node.decorator_list
            ):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
                )
    return count


def test_counter_reads_defaults_and_dataclass_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c, d=2):\n"
        "    def inner(e=3): pass\n"
        "    return lambda g=4: g\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 5\n"
        "    z = 6\n"
        "class Plain:\n"
        "    w: int = 7\n"
    )
    assert count_settable_values(tmp_path) == 5


def test_settable_value_count_is_pinned():
    count = count_settable_values(Path(invattn.__file__).parent)
    assert count == SETTABLE_VALUES, (
        f"src/invattn has {count} settable values, the pin says {SETTABLE_VALUES}: a change "
        "that moves the number updates SETTABLE_VALUES here and says why in CHANGES.md"
    )
