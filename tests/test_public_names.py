"""Every public name in src/trajdiff is used by the program, not only by tests,
and every private module-level function has a caller.

A public function, class or method (no leading underscore) must be named in
src/, scripts/ or perfbench/ outside its own definition: as a name, an
import, an attribute or a dotted-identifier string (the bench tracer wraps
functions by name). A method counts only as an attribute or a string. A name
kept for another reason is listed in KEPT with the contract that keeps it.
A module-level function whose name starts with an underscore must be named
the same way outside its own definition; a use inside its own body does not
count.
"""

import ast
import re
from collections import Counter
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


def _program_trees():
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _uses(tree):
    """(kind, identifier) of each use under tree: kind is "name" for a name or
    an import, "attr" for an attribute and "str" for each word of a
    dotted-identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id
        elif isinstance(node, ast.alias):
            for word in node.name.split("."):
                yield "name", word
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            for word in node.value.split("."):
                yield "str", word


def _references():
    """(names, attributes): identifiers the program uses; strings count as both."""
    names, attrs = set(), set()
    for tree in _program_trees():
        for kind, word in _uses(tree):
            if kind != "attr":
                names.add(word)
            if kind != "name":
                attrs.add(word)
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


def test_every_private_function_has_a_caller():
    uses = Counter(word for tree in _program_trees() for _, word in _uses(tree))
    dead = []
    for path in sorted((ROOT / "src" / "trajdiff").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                own = sum(1 for _, word in _uses(node) if word == node.name)
                if uses[node.name] <= own:
                    dead.append(f"{path.name}:{node.name}")
    assert not dead, f"private functions nothing in the program calls (delete them): {dead}"
