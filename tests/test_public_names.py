"""Every public name in src/trajdiff is used by the program, not only by tests.

A public function, class or method (no leading underscore) must be named in
src/, scripts/ or perfbench/ outside its own definition: as a name, an
import, an attribute or a dotted-identifier string (the bench tracer wraps
functions by name). A method counts only as an attribute or a string. A name
kept for another reason is listed in KEPT with the contract that keeps it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")

KEPT = {
    "ConditionBatch.from_vectors": "tests build condition batches with it, all-null ones included",
}


def _definitions():
    """(qualified name, name, is_method) of each public function, class and method."""
    for path in sorted((ROOT / "src" / "trajdiff").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name, node.name, False
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _references():
    """(names, attributes): identifiers the program uses; strings count as both."""
    names, attrs = set(), set()
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    words = node.value.split(".")
                    names.update(words)
                    attrs.update(words)
    return names, attrs


def test_every_public_name_is_used_by_the_program():
    names, attrs = _references()
    unused = sorted(qual for qual, name, is_method in _definitions()
                    if name not in attrs and (is_method or name not in names)
                    and qual not in KEPT)
    assert not unused, f"public names only tests use (delete them or list them in KEPT): {unused}"


def test_kept_names_exist_and_are_otherwise_unused():
    names, attrs = _references()
    defined = {qual: (name, is_method) for qual, name, is_method in _definitions()}
    for qual in KEPT:
        assert qual in defined, f"{qual} is listed in KEPT but no longer defined"
        name, is_method = defined[qual]
        assert name not in attrs and (is_method or name not in names), \
            f"{qual} is used by the program now; drop it from KEPT"
